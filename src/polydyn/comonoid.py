"""Comonoids for the substitution product, stored as small categories.

A comonoid is a carrier polynomial with a counit lens into y and a
comultiplication lens into carrier∘carrier, satisfying counitality and
coassociativity on the nose.  Such a structure is exactly a small category
(Ahman and Uustalu): positions are objects, the directions at a position
are the morphisms out of it, the counit picks out identities, and the
comultiplication encodes codomains (forward part) and composition
(backward part).

This module takes that reading as its representation.  A Comonoid keeps
the category tables (identities, codomains, composites) as its data; the
comultiplication lens is derived from them on first access, and its
codomain carrier∘carrier, which has Σ_i |carrier(1)|^|carrier_i|
positions, is read from the carrier and listed only by a caller that
reads it whole.  The law checker, the category reading, the
behavior maps and the run loops in dynamics read the tables directly.
A category is checked by the same law walk (_law_cells), read as the
comonoid it is; check_category and check_comonoid_laws each render the
failing cells as their own report.  A category is stored once: a FinCat
holds an integer core (_Core), which the law walk and the isomorphism
tests read, and its labels; its label tables are views over them, stored
nowhere.  The comonoid it reads as refers to that FinCat and copies none
of it; the FinCat read back from that comonoid shares its core and keeps
only its own labels.

Morphisms of comonoids are lenses compatible with both structure maps;
under the category reading they are cofunctors, not functors: forward on
objects, backwards on morphisms.  This module provides both views, the
conversions between them, exhaustive law checkers that report every
violating instance, contractible comonoids, sums and tensors (coproducts
and products of categories), the cofree truncation chain of a polynomial,
and finite-depth behavior maps whose kernels are n-bisimilarity.

No pipeline of the package calls the following, so their code sits in
polydyn._comonoid_cold and is compiled only when one of their names is
first read from this module:
  the public constructor's recognition of carrier∘carrier
  (_is_self_composite)
  the error FinCat refuses a faulty composition table with
  (_composition_error)
  is_cat_isomorphism (cat_isomorphic's check past its direct search)
  cofunctors (Cofunctor, check_cofunctor, identity_cofunctor,
  lens_to_cofunctor, cofunctor_to_lens)
  discrete_comonoid, comonoid_sum and comonoid_tensor
  the morphism walk and squares (_square_cells, check_comonoid_morphism)
  nstep_behavior, and the tree builder and label renderer that unroll and
  StrategyTree.to_label share (_observations, _observation_label)
  JSON serialization (fincat_to_json, fincat_from_json, comonoid_to_json,
  comonoid_from_json)
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from collections.abc import Iterable, Mapping

from .core import (
    FinPoly,
    FinSet,
    Lens,
    ONE,
    SizeLimitError,
    Y,
    _amount,
    _lazy_names,
    _require,
    lens_id,
    pair_label,
    split_pair,
    tag_label,
)
from .algebra import (
    _check_size,
    _compose_counts,
    _compose_direction_labels,
    _compose_label,
    _compose_positions,
    _product_size,
    _split_compose,
    compose_map,
    poly_compose,
    poly_product,
    product_map,
    terminal_lens,
)

__all__ = [
    "Comonoid",
    "FinCat",
    "Cofunctor",
    "check_comonoid_laws",
    "check_category",
    "check_cofunctor",
    "check_comonoid_morphism",
    "comonoid_to_category",
    "category_to_comonoid",
    "category_carrier",
    "contractible",
    "discrete_comonoid",
    "comonoid_sum",
    "comonoid_tensor",
    "identity_cofunctor",
    "lens_to_cofunctor",
    "cofunctor_to_lens",
    "is_cat_isomorphism",
    "cat_isomorphic",
    "cofree_truncation",
    "nstep_behavior",
    "fincat_to_json",
    "fincat_from_json",
    "comonoid_to_json",
    "comonoid_from_json",
]


def _derived(slot: str, derive) -> property:
    """A read-only table kept in slot: given at construction, or derived
    by derive(obj) on first read and then kept there."""

    def read(obj):
        value = getattr(obj, slot)
        if value is None:
            value = derive(obj)
            setattr(obj, slot, value)
        return value

    return property(read, doc=derive.__doc__)


class Comonoid:
    """A comonoid for the substitution product, kept as its category tables.

    Per carrier position i:

      identity[i]           the direction the counit picks at i;
      base[i]               the outer position of the comultiplication at
                            i, which is i itself in every lawful comonoid;
      codomain[i][d]        the position direction d leads to, for each
                            direction d at base[i];
      composite[i][(d, e)]  the direction at i that d followed by e
                            composes to, for each e at codomain[i][d].

    The tables are read-only once built.  Positions may share one table
    object, and so may the comonoids built from this one (comonoid_sum,
    comonoid_tensor); sharing is never visible in a result.  counit, the
    lens carrier → y, and comult, the lens carrier → carrier∘carrier with
    the structured labels of poly_compose, are derived from the tables on
    first access and then kept; equality and hashing force neither.
    comult's codomain is poly_compose's view of carrier∘carrier: reading
    comult lists none of its positions.
    check_comonoid_laws keeps the verdict of its last full walk, so that
    comonoid_to_category need not walk the same tables again.

    A comonoid built from a category (category_to_comonoid) stores no
    table: it refers to that FinCat, whose integer core (_Core) the law
    walk and comonoid_to_category read.  Its carrier (category_carrier),
    identity, base, codomain and composite are derived from the FinCat on
    first read, in the order the category lists them, and then kept.
    Every other comonoid (the constructor, contractible, sums, tensors and
    JSON) stores the five tables, and comonoid_to_category indexes them
    into a new core.

    Comonoid(carrier, counit, comult) reads the tables off the two lenses;
    comult's codomain is recognised as carrier∘carrier without building
    carrier∘carrier: as poly_compose's view of it, or else from its
    labels, in either label form.  Only the shapes
    are enforced, structurally: codomains are positions
    and composites are directions at the source.  The laws are a separate,
    exhaustive check (check_comonoid_laws) so that invalid candidates can
    be examined and reported rather than rejected at construction.
    """

    __slots__ = (
        "_carrier", "_identity", "_base", "_codomain", "_composite", "_category",
        "_counit", "_comult", "_contractible", "_lawful",
    )

    def __init__(self, carrier: FinPoly, counit: Lens, comult: Lens):
        from ._comonoid_cold import _is_self_composite

        if counit.dom != carrier or counit.cod != Y:
            raise ValueError("counit must be a lens carrier → y")
        if comult.dom != carrier or not _is_self_composite(carrier, comult.cod):
            raise ValueError("comult must be a lens carrier → carrier∘carrier")
        identity = {}
        base = {}
        codomain = {}
        composite = {}
        for i in carrier.position_labels:
            identity[i] = counit.on_dir[i]["*"]
            base[i], codomain[i] = _split_compose(comult.on_pos[i])
            composite[i] = {split_pair(de): v for de, v in comult.on_dir[i].items()}
        _check_tables(carrier, identity, codomain, composite, base)
        self._adopt(carrier, identity, codomain, composite, base)

    @classmethod
    def _from_tables(
        cls,
        carrier: FinPoly,
        identity: dict,
        codomain: dict,
        composite: dict,
        base: dict | None = None,
    ) -> "Comonoid":
        """Internal constructor: checks the tables' shape and takes them
        over without copying them.

        base defaults to the identity on positions.  Positions may share
        one codomain or composite dict when their tables agree.
        """
        if base is None:
            base = {i: i for i in carrier.position_labels}
        _check_tables(carrier, identity, codomain, composite, base)
        c = object.__new__(cls)
        c._adopt(carrier, identity, codomain, composite, base)
        return c

    @classmethod
    def _on_category(cls, k: "FinCat", carrier: FinPoly | None = None) -> "Comonoid":
        """Internal constructor for the comonoid a category reads as, well
        shaped by construction: it refers to k and copies none of it.  A
        carrier, if given, must be category_carrier(k)."""
        c = object.__new__(cls)
        c._adopt(carrier, None, None, None, None)
        c._category = k
        return c

    def _adopt(self, carrier, identity, codomain, composite, base) -> None:
        self._carrier = carrier
        self._identity = identity
        self._base = base
        self._codomain = codomain
        self._composite = composite
        self._category = None
        self._counit = None
        self._comult = None
        self._contractible = None
        self._lawful = None

    @property
    def _core(self):
        """The core of the category this comonoid reads, or None."""
        return None if self._category is None else self._category._core

    # The tables: stored by a comonoid built from tables, derived from
    # its category on first read by one built from a category.

    def _category_codomain(self) -> dict:
        k = self._category
        objects, names, cod = k.objects.elements, k._names, k._core.cod
        return {o: {names[m]: objects[cod[m]] for m in ms} for o, ms in zip(objects, k._core.out)}

    carrier = _derived("_carrier", lambda c: category_carrier(c._category))
    # the identity of object i is the core's morphism i
    identity = _derived(
        "_identity", lambda c: dict(zip(c._category.objects.elements, c._category._names))
    )
    base = _derived("_base", lambda c: {o: o for o in c._category.objects.elements})
    codomain = _derived("_codomain", _category_codomain)
    composite = _derived("_composite", lambda c: c._category._comonoid_composite)

    def _counit_lens(self) -> Lens:
        """The counit lens carrier → y, derived from identity and kept."""
        labels = self.carrier.position_labels
        return Lens._make(
            self.carrier,
            Y,
            dict.fromkeys(labels, "*"),
            {i: {"*": self.identity[i]} for i in labels},
        )

    def _comult_lens(self) -> Lens:
        """The comultiplication lens, derived from the tables and kept.

        Its codomain is poly_compose(carrier, carrier), which refuses
        carrier∘carrier beyond its size limit and below it lists nothing:
        the lens checks its targets by decoding them, so building it costs
        O(|carrier| · directions), not Σ_i |carrier(1)|^|carrier_i|.
        """
        carrier = self.carrier
        target = poly_compose(carrier, carrier)
        on_pos = {i: _comult_label(self, i) for i in carrier.position_labels}
        on_dir = {
            i: {pair_label(d, e): v for (d, e), v in self.composite[i].items()}
            for i in carrier.position_labels
        }
        return Lens(carrier, target, on_pos, on_dir)

    counit = _derived("_counit", _counit_lens)
    comult = _derived("_comult", _comult_lens)

    def is_contractible(self) -> bool:
        """Is this contractible(S) on its own position set S?

        That is: every direction set is S, the identity at x is x, and
        every direction leads to the position it names, composing to its
        second factor.  Read off the tables and kept.
        """
        if self._contractible is None:
            self._contractible = _is_contractible(self)
        return self._contractible

    def __eq__(self, other) -> bool:
        if not isinstance(other, Comonoid):
            return NotImplemented
        return (
            self.carrier == other.carrier
            and self.identity == other.identity
            and self.base == other.base
            and _same_tables(self.codomain, other.codomain)
            and _same_tables(self.composite, other.composite)
        )

    def __hash__(self) -> int:
        return hash((self.carrier, frozenset(self.identity.items())))

    def __repr__(self) -> str:
        return f"Comonoid(carrier={self.carrier!s})"


def _same_tables(a: dict, b: dict) -> bool:
    """a == b for two position → table dicts.

    Positions often share one table object, so each distinct pair of
    table objects is compared once, not once per position.
    """
    if a.keys() != b.keys():
        return False
    same = set()
    for i, t in a.items():
        u = b[i]
        pair = (id(t), id(u))
        if pair not in same:
            if t is not u and t != u:
                return False
            same.add(pair)
    return True


def _check_tables(carrier, identity, codomain, composite, base) -> None:
    """Structural shape check, one pass over the tables.

    Positions that share the same direction sets and table dicts are
    checked once, so shared tables cost their own size, not that times
    the number of positions.
    """
    labels = carrier.position_labels
    for name, table in (
        ("identity", identity),
        ("codomain", codomain),
        ("composite", composite),
        ("base", base),
    ):
        if len(table) != len(labels) or any(i not in table for i in labels):
            raise ValueError(f"{name} table must have one entry per carrier position")
    checked = set()
    for i in labels:
        here = carrier.directions(i)
        if identity[i] not in here:
            raise ValueError(f"identity at {i!r} is not a direction there: {identity[i]!r}")
        b = base[i]
        if b not in carrier._dirs:
            raise ValueError(f"base of {i!r} is not a position: {b!r}")
        out = carrier.directions(b)
        cod, comp = codomain[i], composite[i]
        key = (id(here), id(out), id(cod), id(comp))
        if key in checked:
            continue
        if len(cod) != len(out) or any(d not in cod for d in out.elements):
            raise ValueError(f"codomain table at {i!r} must cover the directions at {b!r}")
        pairs = 0
        for d in out.elements:
            j = cod[d]
            if j not in carrier._dirs:
                raise ValueError(f"codomain of {d!r} at {i!r} is not a position: {j!r}")
            for e in carrier.directions(j).elements:
                if comp.get((d, e)) not in here:
                    raise ValueError(
                        f"composite of ({d!r}, {e!r}) at {i!r} is missing "
                        f"or not a direction at {i!r}"
                    )
            pairs += len(carrier.directions(j))
        if len(comp) != pairs:
            raise ValueError(f"composite table at {i!r} has non-composable keys")
        checked.add(key)


def _comult_label(c: Comonoid, i: str) -> str:
    """The carrier∘carrier position the comultiplication sends i to."""
    b = c.base[i]
    return _compose_label(b, c.codomain[i], c.carrier.directions(b).elements)


def _is_contractible(c: Comonoid) -> bool:
    positions = c.carrier.positions_set()
    checked = set()
    for x in positions.elements:
        if c.carrier.directions(x) != positions:
            return False
        if c.identity[x] != x or c.base[x] != x:
            return False
        cod, comp = c.codomain[x], c.composite[x]
        if (id(cod), id(comp)) in checked:
            continue
        if any(cod[t] != t for t in positions.elements):
            return False
        if any(comp[(t, u)] != u for t in positions.elements for u in positions.elements):
            return False
        checked.add((id(cod), id(comp)))
    return True


def _law_cells(positions, dirs, ident, base, cod, comp, typed: bool) -> list:
    """The failing cells of the counit and coassociativity laws, in walk
    order, read from comonoid-shaped tables: at position i, dirs[i] is
    the tuple of directions, ident[i] the identity, base[i] the outer
    position of the comultiplication, cod[i][d] where d at base[i] leads,
    and comp[i][e][d], written d;e, the composite of d then e, read
    curried by its second factor, as a category's core holds it (g∘f is
    rows[g][f]).  typed says that every position is its own base and d;e
    leads where e does, as in a category's core; the positional
    pre-check below cannot fail then, and is skipped.

    A cell is (law, i, where, left, right): where is a direction for a
    counit law, (d, e, g) for coassociativity, and None where the two
    sides' positions differ.  check_comonoid_laws and check_category
    render the cells as their own records; read as a category, d;e is
    e∘d and the counit laws are the identity laws.

    The counit laws are checked first.  When neither fails, every base[i]
    is i and, with s the identity at i, cod[i][s] is i, s;e is e and d;1
    is d, 1 being the identity at the codomain of d.  Coassociativity
    cells that read an identity direction then hold, so only the other
    directions are walked, and the cells are the ones a walk over every
    cell gives:
      the pre-check, cod[i][d;e] = cod[k][e] with k = cod[i][d]: for d =
      s, s;e is e and k is i; for e = 1 at k, d;1 is d and cod[k][1] is
      k, base[k] being k;
      the direction walk, (d;e);g = d;(e;g) with e;g read at k: for d =
      s, s;x is x on both sides; for e = 1 at k, d;1 is d and 1;g is g;
      for g = 1 at m = cod[k][e], which the pre-check makes the codomain
      of d;e too, both sides are d;e.
    When a counit law fails, every cell is walked.
    """
    cells = []

    # Left counitality: the left unitor after (counit ∘̂ id) after comult
    # must be the identity.  At position i with comult target (i1, phi) the
    # composite sends i to phi(eps(i1)) and pulls e back to
    # comult♯(eps(i1), e).
    for i in positions:
        s = ident[base[i]]
        pos = cod[i][s]
        if pos != i:
            cells.append(("left_counit", i, None, pos, i))
            continue
        rows = comp[i]
        for e in dirs[i]:
            v = rows[e][s]
            if v != e:
                cells.append(("left_counit", i, e, v, e))

    # Right counitality: the right unitor after (id ∘̂ counit) after comult.
    # The composite sends i to i1 and pulls d back to comult♯(d, eps(phi(d))).
    for i in positions:
        i1 = base[i]
        if i1 != i:
            cells.append(("right_counit", i, None, i1, i))
            continue
        phi = cod[i]
        rows = comp[i]
        for d in dirs[i]:
            v = rows[ident[phi[d]]][d]
            if v != d:
                cells.append(("right_counit", i, d, v, d))

    # the directions the coassociativity walks read at each position
    if cells:
        walk = dirs
    else:
        walk = {i: tuple([x for x in dirs[i] if x != ident[i]]) for i in positions}

    # Coassociativity: the associator after (comult ∘̂ id) after comult must
    # equal (id ∘̂ comult) after comult.  Both sides land in
    # carrier∘(carrier∘carrier).  At i with comult target (i1, phi) and
    # comult(i1) = (i2, psi), the left side's position is (i2, e ↦ (psi(e),
    # g ↦ phi(comp_i1(e, g)))) and the right side's is (i1, d ↦
    # comult(phi(d))); the labels are rendered only for a violation.
    # Where base[i] is i, the check at i reads only the direction set, the
    # codomain and the composite table at i (plus tables at the positions
    # they lead to), so positions sharing those three objects pass or fail
    # together, whatever their identities (a skipped cell never fails): a
    # set that passed once is not walked again.
    passed = set()
    for i in positions:
        i1 = base[i]
        phi = cod[i]
        composite = comp[i]
        shared = (id(dirs[i]), id(phi), id(composite)) if i1 == i else None
        if shared in passed:
            continue
        before = len(cells)
        i2 = base[i1]
        psi = cod[i1]
        comp1 = comp[i1]
        i1dirs = dirs[i1]
        # the two positions agree when i1 is its own base and, for each e
        # at i1, comult(phi(e)) is (psi(e), g ↦ phi(comp_i1(e, g)));
        # the walk stops at the first e where they do not
        mismatch = i2 != i1
        if not (mismatch or typed):
            for e in walk[i1]:
                j = psi[e]
                k = phi[e]
                if j != base[k]:
                    mismatch = True
                    break
                cod_k = cod[k]
                for g in walk[j]:
                    if phi[comp1[g][e]] != cod_k[g]:
                        mismatch = True
                        break
                if mismatch:
                    break
        if mismatch:
            chi = {}
            for e in dirs[i2]:
                j = psi[e]
                inner = {g: phi[comp1[g][e]] for g in dirs[j]}
                chi[e] = _compose_label(j, inner, dirs[j])
            table = {}
            for d in i1dirs:
                k = phi[d]
                # comult(k), as _comult_label renders it
                table[d] = _compose_label(base[k], cod[k], dirs[base[k]])
            left = _compose_label(i2, chi, dirs[i2])
            right = _compose_label(i1, table, i1dirs)
            cells.append(("coassociativity", i, None, left, right))
            continue
        for d in walk[i1]:
            k = phi[d]
            inner = comp[k]
            cod_k = cod[k]
            for e in walk[base[k]]:
                de = comp1[e][d]
                for g in walk[cod_k[e]]:
                    # (d;e);g against d;(e;g), e;g read at k
                    lv = composite[g][de]
                    rv = composite[inner[g][e]][d]
                    if lv != rv:
                        cells.append(("coassociativity", i, (d, e, g), lv, rv))
        if shared is not None and len(cells) == before:
            passed.add(shared)
    return cells


def _core_cells(core: "_Core") -> tuple:
    """_law_cells on a category's core, kept on the core: objects are
    positions, each its own base, the morphisms out of one its
    directions, and every object reads the one table of codomains and
    the one of composites.  A FinCat and the comonoid it reads as share
    the core, so check_category and check_comonoid_laws walk it once
    between them."""
    if core.cells is None:
        objects = range(len(core.out))
        n = len(objects)
        core.cells = tuple(
            _law_cells(
                objects, core.out, objects, objects, (core.cod,) * n, (core.rows,) * n, typed=True
            )
        )
    return core.cells


def _curried(c: Comonoid) -> dict:
    """c's flat composites curried by second factor, rows[i][e][d] being
    composite[i][(d, e)], once for each distinct table and shared by the
    positions that share it."""
    curried = {}
    comp = {}
    for i, table in c.composite.items():
        rows = curried.get(id(table))
        if rows is None:
            rows = curried[id(table)] = {}
            for (d, e), v in table.items():
                row = rows.get(e)
                if row is None:
                    row = rows[e] = {}
                row[d] = v
        comp[i] = rows
    return comp


def check_comonoid_laws(c: Comonoid) -> dict:
    """Verify counitality (both sides) and coassociativity exactly.

    Returns {"ok": bool, "violations": [...]} where each violation names
    the failing law and the position (and direction) where the two sides
    of the equation disagree.

    Every law is an equation between lenses out of the carrier, so both
    sides are evaluated pointwise from the comonoid's tables (_law_cells).
    The records carry the labels that forming the composite lenses through
    compose_map and the unitors/associator would give, but neither
    carrier∘carrier nor the triply substituted codomain is ever
    materialized.

    A comonoid built from a category is walked on that category's core,
    as typed: its composites lead where their second factor does, so the
    walk skips the positional pre-check that cannot fail there.  Any other
    comonoid is walked on its flat composites, curried once per call
    (_curried).

    Every call returns a fresh report; the verdict alone is also kept on c
    for comonoid_to_category.
    """
    _require(c, Comonoid, "c")
    k = c._category
    if k is not None:
        cells = _labelled(_core_cells(k._core), k.objects.elements, k._names)
    else:
        carrier = c.carrier
        # every key the walk reads is a position: _check_tables guarantees
        # that bases and codomains are
        dirs = {i: s.elements for i, s in carrier._dirs.items()}
        cells = _law_cells(
            carrier.position_labels,
            dirs,
            c.identity,
            c.base,
            c.codomain,
            _curried(c),
            typed=False,
        )
    violations = []
    for law, i, where, left, right in cells:
        if where is None:
            violations.append({"law": law, "position": i, "left": left, "right": right})
            continue
        if law == "coassociativity":
            d, e, g = where
            where = pair_label(d, pair_label(e, g))
        violations.append(
            {"law": law, "position": i, "direction": where, "left": left, "right": right}
        )
    c._lawful = not violations
    return {"ok": not violations, "violations": violations}


def _labelled(cells: list, objects, names) -> list:
    """Cells of a core's walk with objects and morphisms as labels; a
    typed walk finds no cell where positions differ."""
    out = []
    for law, i, where, left, right in cells:
        if law == "coassociativity":
            where = tuple([names[x] for x in where])
        else:
            where = names[where]
        out.append((law, objects[i], where, names[left], names[right]))
    return out


# ---------------------------------------------------------------------------
# Finite categories as explicit tables.


class _Core:
    """A finite category on integer tables, the one store of a category:
    the FinCat that holds it, the Comonoid category_to_comonoid reads that
    FinCat as (through it) and the FinCat comonoid_to_category reads back
    all read it.  Read-only once built.

    Objects are 0..k-1, in the category's object order, and morphisms
    0..n-1: the identities first, the identity of object i being i, then
    the others in the order the category lists them.  dom[m] and cod[m]
    are object indices, out[i] is the tuple of morphisms out of object i
    in listing order, and rows[g][f] is g∘f for each f into the domain of
    g.  Built from labels (FinCat(...), comonoid_to_category), each row
    is a dict over those f, so the table holds one entry per composable
    pair; the catalog passes in the rows its search holds, sequences over
    all n morphisms with -1 off the composable pairs.  Only composable
    entries are ever read.  cells,
    once walked, are the failing cells of the law walk (_core_cells).
    """

    __slots__ = ("dom", "cod", "out", "rows", "cells")

    def __init__(self, dom, cod, out, rows):
        self.dom = dom
        self.cod = cod
        self.out = out
        self.rows = rows
        self.cells = None


class _LabelTable(Mapping):
    """A read-only label table of a FinCat, read from its core on every
    access and stored nowhere: keys() lists the keys in the table's
    order, and read(key) is the value at key or raises KeyError."""

    __slots__ = ("_keys", "_read", "_size")

    def __init__(self, keys, read, size: int):
        self._keys, self._read, self._size = keys, read, size

    def __getitem__(self, key):
        return self._read(key)

    def __iter__(self):
        return iter(self._keys())

    def __len__(self) -> int:
        return self._size


class FinCat:
    """A finite category: objects, morphisms, identities, composition table.

    Construction enforces well-typedness only — labels unique, dom/cod are
    objects, identity[o] is a loop at o, and the composition table is
    defined on exactly the composable pairs with correctly typed results.
    The identity and associativity axioms are the business of
    check_category, which reports every violating instance.

    The tables are read-only once built, as a Comonoid's are: a FinCat is
    hashable, check_category keeps the verdict of its last full walk so
    that category_to_comonoid need not walk the same tables again, and a
    canonical form, once computed, is kept (a multi-object category of
    the catalog carries it from the start), as are the invariants that
    cat_isomorphic compares.  cat_isomorphic computes either only when its
    direct search finds no isomorphism, and a canonical form only when the
    invariants agree.

    A FinCat stores its objects, an integer core (_Core), its morphisms'
    labels, each label's index and its list of (label, dom, cod) triples;
    the law check, the conversions and the isomorphism tests read the
    core.  The constructor builds the core and the index in the pass that
    checks the label tables and keeps the caller's list.  A category of
    the catalog and one read back from a comonoid (comonoid_to_category)
    are built on a core that the catalog's search or comonoid_to_category
    holds (_on_core), and derive their list and, when tagged, their labels
    and index.  The label tables (dom_of, cod_of, out, identity, _compose)
    are read-only Mappings over the core, in the order of the list and of
    the core, and are stored nowhere.
    """

    __slots__ = (
        "objects", "_morphisms", "_core", "_labels", "_by_label", "_tagged", "_keys",
        "_lawful", "_canonical", "_invariants", "_by_obj",
    )

    def __init__(
        self,
        objects: FinSet,
        morphisms: Iterable[tuple[str, str, str]],
        identity: Mapping[str, str],
        compose2: Mapping[tuple[str, str], str],
    ):
        _require(objects, FinSet, "objects")
        _require(identity, Mapping, "identity")
        _require(compose2, Mapping, "compose2")
        # the caller's (label, dom, cod) tuples of str are kept as they are
        mors = []
        for entry in morphisms:
            m, d, c = entry
            if type(entry) is not tuple or not (type(m) is type(d) is type(c) is str):
                entry = (str(m), str(d), str(c))
            mors.append(entry)
        mors = tuple(mors)
        labels = [m for m, _, _ in mors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate morphism labels in {labels!r}")
        at = {o: i for i, o in enumerate(objects.elements)}
        out = {o: [] for o in objects.elements}
        for m, d, c in mors:
            if d not in at or c not in at:
                raise ValueError(f"morphism {m!r}: endpoints {d!r}→{c!r} not objects")
            out[d].append(m)
        ends = {m: (d, c) for m, d, c in mors}
        for o in objects.elements:
            if o not in identity:
                raise ValueError(f"no identity assigned at object {o!r}")
            m = identity[o]
            if m not in ends:
                raise ValueError(f"identity at {o!r} is not a morphism: {m!r}")
            if ends[m] != (o, o):
                raise ValueError(f"identity at {o!r} must be a loop at {o!r}")
        extra = [o for o in identity if o not in at]
        if extra:
            raise ValueError(f"identity table has non-objects: {extra!r}")

        # the core's numbering: the identities, which are loops, first in
        # object order, then the other morphisms in listing order
        index = {identity[o]: i for i, o in enumerate(objects.elements)}
        dom, cod = list(range(len(at))), list(range(len(at)))
        for m, d, c in mors:
            if m not in index:
                index[m] = len(dom)
                dom.append(at[d])
                cod.append(at[c])
        # the keys must be exactly the composable pairs, and each composite
        # a morphism with the right endpoints; on any fault (an unknown or
        # unhashable label is a KeyError or TypeError), _composition_error
        # names the first one as the checks one rule at a time do
        rows = [{} for _ in dom]
        try:
            if len(compose2) != sum(len(out[c]) for _, _, c in mors):
                raise LookupError
            for key, h in compose2.items():
                if not isinstance(key, tuple) or len(key) != 2:
                    raise LookupError
                g, f = key
                g, f, h = index[g], index[f], index[h]
                if cod[f] != dom[g] or dom[h] != dom[f] or cod[h] != cod[g]:
                    raise LookupError
                rows[g][f] = h
        except (LookupError, TypeError):
            from ._comonoid_cold import _composition_error

            raise _composition_error(mors, out, ends, compose2) from None
        out = tuple([tuple([index[m] for m in ms]) for ms in out.values()])
        self._adopt(objects, _Core(dom, cod, out, rows), tuple(index), mors, index)

    @classmethod
    def _on_core(
        cls, objects: FinSet, core: _Core, names=None, tagged=None, morphisms=None, keys=None,
        index=None
    ) -> "FinCat":
        """Internal constructor for a lawful or well-typed core, taken over
        unchecked.  Morphism m is labelled names[m], or, given tagged,
        tag_label(its domain, tagged[m]); index, if given, maps each label
        to its m.  Without morphisms, the category lists them object by
        object, in the order of core.out; keys[g][f], when given, is the
        (g, f) key tuple its composition table shares with other
        categories."""
        k = object.__new__(cls)
        k._adopt(objects, core, names, morphisms, index)
        k._tagged = tagged
        k._keys = keys
        return k

    def _adopt(self, objects, core, names, mors, index=None) -> None:
        self.objects = objects
        self._core = core
        self._labels = names
        self._morphisms = mors
        self._by_label = index
        self._tagged = self._keys = self._by_obj = None
        self._lawful = None
        self._canonical = None
        self._invariants = None

    def _name(self) -> tuple:
        objects, dom = self.objects.elements, self._core.dom
        return tuple([tag_label(objects[dom[m]], x) for m, x in enumerate(self._tagged)])

    # the label of each of the core's morphisms: given at construction, or
    # derived from the tagged directions of comonoid_to_category
    _names = _derived("_labels", _name)

    # The label tables: read-only views over the core (_LabelTable).

    def _listed(self) -> tuple:
        objects, names, core = self.objects.elements, self._names, self._core
        cod = core.cod
        return tuple(
            [(names[m], o, objects[cod[m]]) for i, o in enumerate(objects) for m in core.out[i]]
        )

    morphisms = _derived("_morphisms", _listed)
    _index = _derived("_by_label", lambda k: {m: i for i, m in enumerate(k._names)})

    def _ends(self, ends) -> Mapping:
        objects, index = self.objects.elements, self._index
        return _LabelTable(self.morphism_labels, lambda m: objects[ends[index[m]]], len(ends))

    def _by_object(self, read) -> Mapping:
        objects = self.objects.elements
        at = {o: i for i, o in enumerate(objects)}
        return _LabelTable(lambda: objects, lambda o: read(at[o]), len(objects))

    # each morphism's domain and codomain, in listing order, and each
    # object's identity and the morphisms out of it, in object order
    dom_of = property(lambda k: k._ends(k._core.dom))
    cod_of = property(lambda k: k._ends(k._core.cod))
    identity = property(lambda k: k._by_object(k._names.__getitem__))
    out = property(lambda k: k._by_object(lambda i: tuple([k._names[m] for m in k._core.out[i]])))

    @property
    def _compose(self) -> Mapping:
        """The composition table, (g, f) ↦ g∘f on the composable pairs,
        listed object by object, by f, then g, or, given the catalog's
        keys, by g, then f, each in morphism order."""
        names, core, keys = self._names, self._core, self._keys
        dom, cod, rows, out = core.dom, core.cod, core.rows, core.out

        def pairs():
            if keys is not None:
                n = len(dom)
                for g in range(n):
                    yield from [keys[g][f] for f in range(n) if cod[f] == dom[g]]
            else:
                for fs in out:
                    for f in fs:
                        yield from [(names[g], names[f]) for g in out[cod[f]]]

        def read(key):
            if not isinstance(key, tuple) or len(key) != 2:
                raise KeyError(key)
            g, f = self._pair(*key)
            return names[rows[g][f]]

        return _LabelTable(pairs, read, sum([len(out[c]) for c in cod]))

    def _pair(self, g, f) -> tuple:
        """The core's (g, f), or KeyError where g∘f is not defined."""
        index, core = self._index, self._core
        pair = index[g], index[f]
        if core.cod[pair[1]] != core.dom[pair[0]]:
            raise KeyError((g, f))
        return pair

    def _composite_by_object(self) -> dict:
        names, core = self._names, self._core
        cod, out, rows = core.cod, core.out, core.rows
        return {
            o: {(names[d], names[e]): names[rows[e][d]] for d in out[i] for e in out[cod[d]]}
            for i, o in enumerate(self.objects.elements)
        }

    _comonoid_composite = _derived("_by_obj", _composite_by_object)

    def morphism_labels(self) -> tuple[str, ...]:
        return tuple(m for m, _, _ in self.morphisms)

    def compose2(self, g: str, f: str) -> str:
        """The composite g∘f; f runs first."""
        try:
            g, f = self._pair(g, f)
        except KeyError:
            raise ValueError(f"({g!r}, {f!r}) is not a composable pair") from None
        return self._names[self._core.rows[g][f]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinCat):
            return NotImplemented
        return (
            self.objects == other.objects
            and set(self.morphisms) == set(other.morphisms)
            and self.identity == other.identity
            and self._compose == other._compose
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.objects,
                frozenset(self.morphisms),
                tuple(sorted(self.identity.items())),
                tuple(sorted(self._compose.items())),
            )
        )

    def __repr__(self) -> str:
        return (
            f"FinCat({len(self.objects)} objects, {len(self.morphisms)} morphisms)"
        )


def check_category(k: FinCat) -> dict:
    """Exhaustive identity and associativity check with per-instance report.

    k is walked on its core as the comonoid it is (_law_cells): objects
    are positions, each its own base, and the morphisms out of one are
    its directions; every object reads the core's codomains and its one
    composition table.  So only composable triples are walked.  The
    identity failures come first, then the associativity ones, each in
    the order of k.morphisms (of f for a triple (h, g, f)).  Every call
    returns a fresh report; the verdict alone is also kept on k for
    category_to_comonoid.
    """
    _require(k, FinCat, "k")
    cells = _core_cells(k._core)
    k._lawful = not cells
    if not cells:
        return {"ok": True, "violations": []}
    # the walk goes object by object; the report lists the identity
    # failures, then the associativity ones, by morphism, and a stable
    # sort keeps the walk's order for each
    order = {m: n for n, (m, _, _) in enumerate(k.morphisms)}
    ranked = []
    for law, _, where, left, right in _labelled(cells, k.objects.elements, k._names):
        if law == "coassociativity":
            f, g, h = where
            record = {"law": "associativity", "triple": [h, g, f], "left": left, "right": right}
            ranked.append((1, order[f], "", record))
        else:
            # 1∘m = m is the right counit law at m, m∘1 = m the left one;
            # the names sort left_identity first, as it is listed
            law = "left_identity" if law == "right_counit" else "right_identity"
            ranked.append((0, order[where], law, {"law": law, "morphism": where, "got": left}))
    ranked.sort(key=itemgetter(0, 1, 2))
    return {"ok": False, "violations": [r[3] for r in ranked]}


# ---------------------------------------------------------------------------
# The two readings of one structure.


def comonoid_to_category(c: Comonoid) -> FinCat:
    """Read a law-abiding comonoid as a category.

    Objects are carrier positions; the morphisms out of i are the
    directions at i, tagged with their source so labels stay globally
    unique.  Raises if any comonoid law fails, quoting the first failure;
    the laws are not walked again when the last check_comonoid_laws(c)
    passed.  The FinCat is built on the core of c's category, and its
    tagged labels are derived when first read.  A comonoid without a core
    (not built from a category) is indexed into one: the identity at
    position i is morphism i, the other directions following position by
    position.
    """
    _require(c, Comonoid, "c")
    if c._lawful is not True:
        report = check_comonoid_laws(c)
        if not report["ok"]:
            first = report["violations"][0]
            raise ValueError(f"comonoid laws fail: {first!r}")
    k = c._category
    if k is not None:
        objects, core, tagged = k.objects.elements, k._core, k._names
    else:
        # the laws make the core well typed: the identity at i leads back
        # to i, and a composite leads where its second factor does
        objects, dirs = c.carrier.position_labels, c.carrier._dirs
        codomain, composite = c.codomain, c.composite
        at = {i: n for n, i in enumerate(objects)}
        tagged = [c.identity[i] for i in objects]
        dom, cod = list(range(len(objects))), list(range(len(objects)))
        ids = {}  # position -> direction there -> morphism
        for n, i in enumerate(objects):
            here = ids[i] = {tagged[n]: n}
            for d in dirs[i].elements:
                if d not in here:
                    here[d] = len(tagged)
                    tagged.append(d)
                    dom.append(n)
                    cod.append(at[codomain[i][d]])
        rows = [{} for _ in tagged]
        for i in objects:
            here, to, comp = ids[i], codomain[i], composite[i]
            for d in dirs[i].elements:
                f, j = here[d], to[d]
                there = ids[j]
                for e in dirs[j].elements:
                    rows[there[e]][f] = here[comp[d, e]]
        out = tuple([tuple([ids[i][d] for d in dirs[i].elements]) for i in objects])
        core, tagged = _Core(dom, cod, out, rows), tuple(tagged)
    return FinCat._on_core(FinSet._make(objects, "positions"), core, tagged=tagged)


def category_carrier(k: FinCat) -> FinPoly:
    """Σ over objects of y^(outgoing morphisms)."""
    _require(k, FinCat, "k")
    # k's labels are distinct strings, so its parts need no check
    names = k._names
    out = [tuple([names[m] for m in ms]) for ms in k._core.out]
    return FinPoly._make({o: FinSet._make(ms) for o, ms in zip(k.objects.elements, out)})


def category_to_comonoid(k: FinCat) -> Comonoid:
    """Package a category's tables as a comonoid; raises on axiom failure.

    The axioms are not walked again when the last check_category(k)
    passed.  The comonoid refers to k and copies none of it; its tables
    are derived from k when first read.
    """
    _require(k, FinCat, "k")
    if k._lawful is not True:
        report = check_category(k)
        if not report["ok"]:
            first = report["violations"][0]
            raise ValueError(f"category axioms fail: {first!r}")
    return Comonoid._on_category(k)


def contractible(s: FinSet) -> Comonoid:
    """The comonoid S·y^S: every state sees every state.

    Its category has object set S and exactly one morphism between any
    ordered pair of objects.  The counit evaluates at the current state.
    All positions share one codomain table and one composite table, so
    building it costs |S|² rather than |S|³.  Above COMPOSE_LIMIT
    composite entries this raises SizeLimitError before building any.
    """
    _require(s, FinSet, "s")
    elems = s.elements
    _check_size("contractible", len(elems) ** 2)
    dirs = FinSet(elems)
    carrier = FinPoly((x, dirs) for x in elems)
    codomain = {t: t for t in elems}
    composite = {(t, u): u for t in elems for u in elems}
    return Comonoid._from_tables(
        carrier,
        {x: x for x in elems},
        dict.fromkeys(elems, codomain),
        dict.fromkeys(elems, composite),
    )


# ---------------------------------------------------------------------------
# Isomorphism of finite categories.


def _hits(num_objects: int, dom, cod, comp) -> list:
    """hits[m], the number of composable pairs composing to morphism m,
    on the integer tables of _canonical_form."""
    starts = [[] for _ in range(num_objects)]
    for g in range(len(dom)):
        starts[dom[g]].append(g)
    hits = [0] * len(dom)
    for f, c in enumerate(cod):
        for g in starts[c]:
            hits[comp[g][f]] += 1
    return hits


def _colours(num_objects: int, dom, cod, comp) -> tuple:
    """The isomorphism invariants _canonical_form sorts by, on its integer
    tables: (profile, colour).  profile[o] counts the non-identity
    morphisms out of object o, into it and looping at it; colour[m] is
    (index, period, hits) for a non-identity morphism m, where index and
    period are those of an endomorphism's powers, 0 and 0 otherwise, and
    hits is the number of composable pairs composing to m.  An identity's
    colour is None.
    """
    k = num_objects
    n = len(dom)
    profile = [[0, 0, 0] for _ in range(k)]
    hits = _hits(k, dom, cod, comp)
    colour = [None] * n
    for m in range(k, n):
        d, c = dom[m], cod[m]
        profile[d][0] += 1
        profile[c][1] += 1
        index = period = 0
        if d == c:
            profile[d][2] += 1
            row = comp[m]
            seen = {}
            x = m
            while x not in seen:
                seen[x] = len(seen)
                x = row[x]
            index = seen[x]
            period = len(seen) - index
        colour[m] = (index, period, hits[m])
    return profile, colour


def _canonical_form(num_objects: int, dom, cod, comp) -> tuple:
    """Canonical key of a category on integer tables, and a labelling attaining it.

    Morphisms are 0..n-1, the identity of object i being morphism i; dom
    and cod give object indices and comp[g][f] is g∘f, read only on the
    composable pairs, as a _Core's rows are.  A labelling orders the
    objects (so the identities) and then the other morphisms; its key is
    (slots, table), the (dom, cod) of each non-identity morphism and the
    flattened composition table, both relabeled, -1 off the composable
    pairs.  Returns (key, (objects, morphisms)), the old index at each new
    position, for the least key.

    Only labellings that sort objects by profile (morphisms out, in,
    loops) and the other morphisms by (dom, cod, colour) are tried: colour
    is the index and period of an endomorphism's powers and the number of
    composable pairs composing to the morphism.  These are isomorphism
    invariants, so the least key is the same exactly for isomorphic
    categories.  The search branches among equal colours only, and skips
    a branch that an automorphism found so far (two leaves with equal
    tables) maps to one already tried, as in McKay and Piperno's
    canonical labelling.
    """
    k = num_objects
    n = len(dom)
    extras = range(k, n)
    profile, colour = _colours(k, dom, cod, comp)

    by_profile = sorted(range(k), key=profile.__getitem__)
    cells = [list(c) for _, c in groupby(by_profile, key=profile.__getitem__)]
    best = None
    autos = []  # automorphisms found, each as old morphism -> old morphism

    def walk(order, pools, slots):
        # order: old morphisms placed so far; pools: candidates for the next positions
        nonlocal best
        while pools and len(pools[0]) == 1:
            order = order + pools[0]
            pools = pools[1:]
        if pools:
            pool = pools[0]
            skip = set()  # orbits of the tried candidates under autos fixing order
            for c in pool:
                if c in skip:
                    continue
                walk(order + [c], [[x for x in pool if x != c]] + pools[1:], slots)
                fixing = [g for g in autos if all(g[x] == x for x in order)]
                orbit, grown = set(), {c}
                while grown != orbit:
                    orbit, grown = grown, grown | {g[x] for g in fixing for x in grown}
                skip |= orbit
            return
        if slots is None:  # objects placed: group the other morphisms
            new_obj = [0] * k
            for j, o in enumerate(order):
                new_obj[o] = j
            tagged = sorted([(new_obj[dom[m]], new_obj[cod[m]], colour[m], m) for m in extras])
            slots = tuple((d, c) for d, c, _, _ in tagged)
            if best is None or slots <= best[0][0]:
                groups = groupby(tagged, key=lambda t: t[:3])
                walk(order, [[t[3] for t in g] for _, g in groups], slots)
            return
        new = [0] * n
        for j, m in enumerate(order):
            new[m] = j
        table = []
        for g in order:
            row, d = comp[g], dom[g]
            table += [new[row[f]] if cod[f] == d else -1 for f in order]
        key = (slots, tuple(table))
        if best is None or key < best[0]:
            best = (key, order)
        elif key == best[0]:
            gamma = [0] * n
            for a, b in zip(best[1], order):
                gamma[a] = b
            autos.append(gamma)

    walk([], cells, None)
    return best[0], (best[1][:k], best[1])


def _canonical_labels(k: FinCat) -> tuple:
    """k's canonical key and tuples of its objects and morphisms in
    canonical order, from _canonical_form on k's core; kept on k, whose
    tables are read-only."""
    if k._canonical is None:
        objects, core, names = k.objects.elements, k._core, k._names
        key, (objs, mors) = _canonical_form(len(objects), core.dom, core.cod, core.rows)
        k._canonical = (
            key,
            tuple([objects[o] for o in objs]),
            tuple([names[m] for m in mors]),
        )
    return k._canonical


def _invariants(k: FinCat) -> tuple:
    """k's sorted object profiles and sorted morphism colours (_colours),
    kept on k: isomorphic categories have equal ones."""
    if k._invariants is None:
        core = k._core
        profile, colour = _colours(len(k.objects), core.dom, core.cod, core.rows)
        k._invariants = (sorted(profile), sorted(colour[len(k.objects) :]))
    return k._invariants


def _direct_isomorphism(k1: FinCat, k2: FinCat):
    """An isomorphism k1 → k2, found by a bounded backtracking search on
    their cores, or None when the search finds none; k1 and k2 have as
    many objects and as many morphisms.  The map is returned as the lists
    (objects, morphisms) of the core indices of the images of k1's
    objects and morphisms, so that cat_isomorphic derives no label of
    either category.

    k1's non-identity morphisms are placed in order, each onto an unused
    non-identity morphism of k2 that as many composable pairs compose to
    and whose endpoints agree with the object map built so far; an
    object's identity is mapped along with the object.
    Each entry of k1's composition table is checked once, as in VF2
    (Cordella et al. 2004): as soon as the last of its non-identity
    morphisms is placed, or, for an identity's own composite (e, e), once
    the map is complete.  So a map returned is an isomorphism.  The
    search gives up after 10·n² candidates (n morphisms), so None does
    not mean the two are not isomorphic; that covers the whole search
    when n is at most six, as in the catalog.  Pairing by hit count
    skips only candidates no isomorphism uses, so the search finds the
    map it would find without the pairing, counting no more candidates.
    """
    a, b = k1._core, k2._core
    k = len(a.out)
    n = len(a.dom)
    places = n - k
    dom1, cod1, dom2, cod2, rows2 = a.dom, a.cod, b.dom, b.cod, b.rows
    # an isomorphism keeps the number of composable pairs composing to a
    # morphism (the hits of _colours), so each morphism is offered only
    # the candidates with its count, in b's order
    # due[i]: the entries whose last non-identity morphism is k + i;
    # due[-1]: the entries with none, checked once the map is complete
    due = [[] for _ in range(places + 1)]
    hits1 = [0] * n
    rows1, out1 = a.rows, a.out
    for f in range(n):
        for g in out1[cod1[f]]:
            h = rows1[g][f]
            hits1[h] += 1
            last = g if g > f else f
            if h > last:
                last = h
            due[last - k if last >= k else -1].append((g, f, h))
    hits2 = _hits(k, dom2, cod2, rows2)
    by_hits = {}
    for m in range(k, n):
        by_hits.setdefault(hits2[m], []).append(m)
    pools = [by_hits.get(hits1[m], ()) for m in range(k, n)]
    obj, mor = [-1] * k, [-1] * n
    taken_obj, taken_mor = [False] * k, [False] * n
    budget = 10 * n * n
    start = [0] * places  # next candidate in pools[i] at each position i
    fresh = [[] for _ in range(places)]  # objects first mapped at each position
    i = 0
    while i < places:
        m = k + i
        if mor[m] >= 0:  # back from position i + 1: take the last choice back
            taken_mor[mor[m]] = False
            mor[m] = -1
            for x in fresh[i]:
                taken_obj[obj[x]] = False
                obj[x] = mor[x] = -1
        d, c = dom1[m], cod1[m]
        new = fresh[i] = []
        pool = pools[i]
        j = start[i]
        while j < len(pool):
            m2 = pool[j]
            j += 1
            if taken_mor[m2]:
                continue
            budget -= 1
            if budget < 0:
                return None
            for x, x2 in ((d, dom2[m2]), (c, cod2[m2])):
                y = obj[x]
                if y < 0:
                    if taken_obj[x2]:
                        break
                    obj[x] = mor[x] = x2
                    taken_obj[x2] = True
                    new.append(x)
                elif y != x2:
                    break
            else:
                mor[m] = m2
                for g, f, h in due[i]:
                    if rows2[mor[g]][mor[f]] != mor[h]:
                        break
                else:
                    taken_mor[m2] = True
                    break  # placed: on to position i + 1
                mor[m] = -1
            for x in new:
                taken_obj[obj[x]] = False
                obj[x] = mor[x] = -1
            new.clear()
        else:  # no candidate left: back to position i - 1
            start[i] = 0
            i -= 1
            if i < 0:
                return None
            continue
        start[i] = j
        i += 1
    # objects with no other morphism pair up in order
    rest = iter([o for o in range(k) if not taken_obj[o]])
    for o in range(k):
        if obj[o] < 0:
            obj[o] = mor[o] = next(rest)
    for g, f, h in due[-1]:
        if rows2[mor[g]][mor[f]] != mor[h]:
            return None
    return obj, mor


def cat_isomorphic(k1: FinCat, k2: FinCat) -> bool:
    """Whether two finite categories are isomorphic; intended for small ones.

    Unless both categories carry a canonical form, a bounded direct
    search on their cores (_direct_isomorphism) looks for an isomorphism
    first.
    A map it finds is an isomorphism by construction, so it answers True,
    and nothing is kept on either category.  When it finds none, the two
    categories' invariants (_invariants: the object profiles and morphism
    colours that _canonical_form sorts by) are compared, and kept on
    each; different invariants answer False.  Otherwise both are put in
    canonical form (_canonical_form, by which the catalog labels its
    classes too), kept on each: equal keys mean isomorphic, and the two
    labellings that attain the key compose to an isomorphism, confirmed
    with is_cat_isomorphism.  So a False comes from the invariants or
    from the canonical keys, never from the bounded search.
    """
    _require(k1, FinCat, "k1")
    _require(k2, FinCat, "k2")
    if len(k1.objects) != len(k2.objects) or len(k1._core.dom) != len(k2._core.dom):
        return False
    if k1._canonical is None or k2._canonical is None:
        if _direct_isomorphism(k1, k2) is not None:
            return True
        if _invariants(k1) != _invariants(k2):
            return False
    key1, objs1, mors1 = _canonical_labels(k1)
    key2, objs2, mors2 = _canonical_labels(k2)
    if key1 != key2:
        return False
    from ._comonoid_cold import is_cat_isomorphism

    return is_cat_isomorphism(k1, k2, dict(zip(objs1, objs2)), dict(zip(mors1, mors2)))


# ---------------------------------------------------------------------------
# Cofree truncation.


def cofree_truncation(
    p: FinPoly, depth: int, max_positions: int = 20000
) -> tuple[list[FinPoly], list[Lens]]:
    """The chain 1 ← y·p(1) ← y·p(y·p(1)) ← … cut off at the given depth.

    Returns stages [c_0 .. c_depth] and projections [c_1→c_0, ...,
    c_depth→c_{depth-1}].  Position counts obey
    |c_{k+1}(1)| = |p applied to c_k(1)|.  Raises SizeLimitError once a
    stage would exceed max_positions positions, and also, as poly_compose
    or product_many would, once p∘c_k or y × (p∘c_k) would exceed
    COMPOSE_LIMIT; all three are decided from predicted sizes before the
    stage is built.
    """
    _require(depth, int, "depth")
    _require(max_positions, int, "max_positions")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    stages = [ONE]
    projections: list[Lens] = []
    for k in range(depth):
        prev = stages[-1]
        # predicted sizes of the next stage; checked before building it
        # because the stages grow quickly with depth
        n = prev.num_positions()
        predicted = _compose_positions(p, n)
        if predicted > max_positions:
            raise SizeLimitError(
                "cofree_truncation",
                predicted,
                max_positions,
                f"stage {k + 1} would have {_amount(predicted)} positions (cap {max_positions})",
            )
        _check_size("poly_compose", predicted)
        labels = _compose_direction_labels(p, n, _compose_counts(prev, 1)[1])
        # y contributes one position and one direction label
        _check_size("product_many", _product_size([1, predicted], [1, labels]))
        inner = poly_compose(p, prev)
        nxt = poly_product(Y, inner)
        if k == 0:
            projections.append(terminal_lens(nxt))
        else:
            projections.append(
                product_map(lens_id(Y), compose_map(lens_id(p), projections[-1]))
            )
        stages.append(nxt)
    return stages, projections


# ---------------------------------------------------------------------------
# The sections kept in polydyn._comonoid_cold, loaded on first use.

_COLD_NAMES, __getattr__, __dir__ = _lazy_names(
    globals(),
    "polydyn._comonoid_cold",
    """
    _is_self_composite _composition_error is_cat_isomorphism Cofunctor check_cofunctor _square_cells
    identity_cofunctor lens_to_cofunctor cofunctor_to_lens discrete_comonoid
    comonoid_sum comonoid_tensor check_comonoid_morphism _observations _observation_label
    nstep_behavior fincat_to_json fincat_from_json comonoid_to_json comonoid_from_json
    """,
)
