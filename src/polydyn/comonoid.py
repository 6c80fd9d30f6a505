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
comultiplication lens is derived from them on first access, because its
codomain carrier∘carrier has Σ_i |carrier(1)|^|carrier_i| positions and
most uses never need it.  The law checker, the category reading, the
behavior maps and the run loops in dynamics read the tables directly.

Morphisms of comonoids are lenses compatible with both structure maps;
under the category reading they are cofunctors, not functors: forward on
objects, backwards on morphisms.  This module provides both views, the
conversions between them, exhaustive law checkers that report every
violating instance, contractible comonoids, sums and tensors (coproducts
and products of categories), the cofree truncation chain of a polynomial,
and finite-depth behavior maps whose kernels are n-bisimilarity.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .core import (
    FinPoly,
    FinSet,
    Lens,
    ONE,
    SetFn,
    Y,
    fn_label,
    lens_compose,
    lens_from_json,
    lens_id,
    lens_to_json,
    make_poly,
    pair_label,
    poly_from_json,
    poly_to_json,
    split_fn,
    split_pair,
    tag_label,
)
from .algebra import (
    compose_map,
    compose_power,
    poly_compose,
    poly_product,
    product_map,
    sum_many,
    tensor_many,
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

    The tables are read-only once built.  counit is the lens carrier → y
    built from identity.  comult, the lens carrier → carrier∘carrier with
    the structured labels of poly_compose, is derived from the tables on
    first access and then kept; equality and hashing never force it.

    Comonoid(carrier, counit, comult) reads the tables off the two lenses.
    Only the shapes are enforced, structurally: codomains are positions
    and composites are directions at the source.  The laws are a separate,
    exhaustive check (check_comonoid_laws) so that invalid candidates can
    be examined and reported rather than rejected at construction.
    """

    def __init__(self, carrier: FinPoly, counit: Lens, comult: Lens):
        if counit.dom != carrier or counit.cod != Y:
            raise ValueError("counit must be a lens carrier → y")
        if comult.dom != carrier or comult.cod != poly_compose(carrier, carrier):
            raise ValueError("comult must be a lens carrier → carrier∘carrier")
        identity = {}
        base = {}
        codomain = {}
        composite = {}
        for i in carrier.position_labels:
            identity[i] = counit.on_dir[i]["*"]
            base[i], table = split_pair(comult.on_pos[i])
            codomain[i] = split_fn(table)
            composite[i] = {split_pair(de): v for de, v in comult.on_dir[i].items()}
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
        """Internal constructor: takes the tables over without copying them.

        base defaults to the identity on positions.  Positions may share
        one codomain or composite dict when their tables agree.
        """
        c = object.__new__(cls)
        if base is None:
            base = {i: i for i in carrier.position_labels}
        c._adopt(carrier, identity, codomain, composite, base)
        return c

    def _adopt(self, carrier, identity, codomain, composite, base) -> None:
        _check_tables(carrier, identity, codomain, composite, base)
        self.carrier = carrier
        self.identity = identity
        self.base = base
        self.codomain = codomain
        self.composite = composite
        self.counit = Lens._make(
            carrier,
            Y,
            {i: "*" for i in carrier.position_labels},
            {i: {"*": identity[i]} for i in carrier.position_labels},
        )
        self._comult = None
        self._contractible = None

    @property
    def comult(self) -> Lens:
        """The comultiplication lens, derived from the tables and kept.

        Building it materialises carrier∘carrier; poly_compose refuses
        that beyond its size limit.
        """
        if self._comult is None:
            carrier = self.carrier
            on_pos = {i: _comult_label(self, i) for i in carrier.position_labels}
            on_dir = {
                i: {pair_label(d, e): v for (d, e), v in self.composite[i].items()}
                for i in carrier.position_labels
            }
            self._comult = Lens(
                carrier, poly_compose(carrier, carrier), on_pos, on_dir
            )
        return self._comult

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
            and self.codomain == other.codomain
            and self.composite == other.composite
        )

    def __hash__(self) -> int:
        return hash((self.carrier, frozenset(self.identity.items())))

    def __repr__(self) -> str:
        return f"Comonoid(carrier={self.carrier!s})"


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
    return pair_label(b, fn_label(c.codomain[i], c.carrier.directions(b).elements))


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


def _lens_differences(law: str, left: Lens, right: Lens) -> list[dict]:
    """Pointwise comparison of two parallel lenses, one record per mismatch."""
    out = []
    for i in left.dom.position_labels:
        if left.on_pos[i] != right.on_pos[i]:
            out.append(
                {
                    "law": law,
                    "position": i,
                    "left": left.on_pos[i],
                    "right": right.on_pos[i],
                }
            )
            continue
        for d, v in left.on_dir[i].items():
            w = right.on_dir[i][d]
            if v != w:
                out.append(
                    {"law": law, "position": i, "direction": d, "left": v, "right": w}
                )
    return out


def check_comonoid_laws(c: Comonoid) -> dict:
    """Verify counitality (both sides) and coassociativity exactly.

    Returns {"ok": bool, "violations": [...]} where each violation names
    the failing law and the position (and direction) where the two sides
    of the equation disagree.

    Every law is an equation between lenses out of the carrier, so both
    sides are evaluated pointwise from the comonoid's tables.  The records
    carry the labels that forming the composite lenses through compose_map
    and the unitors/associator would give, but neither carrier∘carrier nor
    the triply substituted codomain is ever materialized.
    """
    carrier = c.carrier
    dirs = carrier.directions
    ident, base, cod, comp = c.identity, c.base, c.codomain, c.composite
    violations = []

    # Left counitality: the left unitor after (counit ∘̂ id) after comult
    # must be the identity.  At position i with comult target (i1, phi) the
    # composite sends i to phi(eps(i1)) and pulls e back to
    # comult♯(eps(i1), e).
    for i in carrier.position_labels:
        s = ident[base[i]]
        pos = cod[i][s]
        if pos != i:
            violations.append(
                {"law": "left_counit", "position": i, "left": pos, "right": i}
            )
            continue
        composite = comp[i]
        for e in dirs(i).elements:
            v = composite[(s, e)]
            if v != e:
                violations.append(
                    {
                        "law": "left_counit",
                        "position": i,
                        "direction": e,
                        "left": v,
                        "right": e,
                    }
                )

    # Right counitality: the right unitor after (id ∘̂ counit) after comult.
    # The composite sends i to i1 and pulls d back to comult♯(d, eps(phi(d))).
    for i in carrier.position_labels:
        i1 = base[i]
        if i1 != i:
            violations.append(
                {"law": "right_counit", "position": i, "left": i1, "right": i}
            )
            continue
        phi = cod[i]
        composite = comp[i]
        for d in dirs(i1).elements:
            v = composite[(d, ident[phi[d]])]
            if v != d:
                violations.append(
                    {
                        "law": "right_counit",
                        "position": i,
                        "direction": d,
                        "left": v,
                        "right": d,
                    }
                )

    # Coassociativity: the associator after (comult ∘̂ id) after comult must
    # equal (id ∘̂ comult) after comult.  Both sides land in
    # carrier∘(carrier∘carrier).  At i with comult target (i1, phi) and
    # comult(i1) = (i2, psi), the left side's position is (i2, e ↦ (psi(e),
    # g ↦ phi(comp_i1(e, g)))) and the right side's is (i1, d ↦
    # comult(phi(d))); the labels are rendered only for a violation.
    for i in carrier.position_labels:
        i1 = base[i]
        phi = cod[i]
        i2 = base[i1]
        psi = cod[i1]
        comp1 = comp[i1]
        i1dirs = dirs(i1).elements
        if i2 != i1 or any(
            psi[e] != base[phi[e]]
            or any(phi[comp1[(e, g)]] != cod[phi[e]][g] for g in dirs(psi[e]).elements)
            for e in i1dirs
        ):
            chi = {}
            for e in dirs(i2).elements:
                j = psi[e]
                jdirs = dirs(j).elements
                inner = {g: phi[comp1[(e, g)]] for g in jdirs}
                chi[e] = pair_label(j, fn_label(inner, jdirs))
            table = {d: _comult_label(c, phi[d]) for d in i1dirs}
            violations.append(
                {
                    "law": "coassociativity",
                    "position": i,
                    "left": pair_label(i2, fn_label(chi, dirs(i2).elements)),
                    "right": pair_label(i1, fn_label(table, i1dirs)),
                }
            )
            continue
        composite = comp[i]
        for d in i1dirs:
            k = phi[d]
            inner = comp[k]
            for e in dirs(base[k]).elements:
                for g in dirs(cod[k][e]).elements:
                    lv = composite[(comp1[(d, e)], g)]
                    rv = composite[(d, inner[(e, g)])]
                    if lv != rv:
                        violations.append(
                            {
                                "law": "coassociativity",
                                "position": i,
                                "direction": pair_label(d, pair_label(e, g)),
                                "left": lv,
                                "right": rv,
                            }
                        )

    return {"ok": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# Finite categories as explicit tables.


class FinCat:
    """A finite category: objects, morphisms, identities, composition table.

    Construction enforces well-typedness only — labels unique, dom/cod are
    objects, identity[o] is a loop at o, and the composition table is
    defined on exactly the composable pairs with correctly typed results.
    The identity and associativity axioms are the business of
    check_category, which reports every violating instance.
    """

    def __init__(
        self,
        objects: FinSet,
        morphisms: Iterable[tuple[str, str, str]],
        identity: Mapping[str, str],
        compose2: Mapping[tuple[str, str], str],
    ):
        self.objects = objects
        mors = tuple((str(m), str(d), str(c)) for m, d, c in morphisms)
        labels = [m for m, _, _ in mors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate morphism labels in {labels!r}")
        for m, d, c in mors:
            if d not in objects or c not in objects:
                raise ValueError(f"morphism {m!r}: endpoints {d!r}→{c!r} not objects")
        self.morphisms = mors
        self.dom_of = {m: d for m, d, _ in mors}
        self.cod_of = {m: c for m, _, c in mors}
        self.out = {
            o: tuple(m for m, d, _ in mors if d == o) for o in objects.elements
        }

        for o in objects.elements:
            if o not in identity:
                raise ValueError(f"no identity assigned at object {o!r}")
            m = identity[o]
            if m not in self.dom_of:
                raise ValueError(f"identity at {o!r} is not a morphism: {m!r}")
            if self.dom_of[m] != o or self.cod_of[m] != o:
                raise ValueError(f"identity at {o!r} must be a loop at {o!r}")
        extra = [o for o in identity if o not in objects]
        if extra:
            raise ValueError(f"identity table has non-objects: {extra!r}")
        self.identity = {o: identity[o] for o in objects.elements}

        composable = {
            (g, f)
            for f in labels
            for g in labels
            if self.cod_of[f] == self.dom_of[g]
        }
        given = set(compose2)
        if given != composable:
            missing = sorted(composable - given)
            extra = sorted(given - composable)
            raise ValueError(
                f"composition table mismatch: missing {missing!r}, extra {extra!r}"
            )
        for (g, f), h in compose2.items():
            if h not in self.dom_of:
                raise ValueError(f"composite of ({g!r}, {f!r}) is not a morphism: {h!r}")
            if self.dom_of[h] != self.dom_of[f] or self.cod_of[h] != self.cod_of[g]:
                raise ValueError(
                    f"composite {h!r} of ({g!r}, {f!r}) has wrong endpoints"
                )
        self._compose = dict(compose2)

    def morphism_labels(self) -> tuple[str, ...]:
        return tuple(m for m, _, _ in self.morphisms)

    def compose2(self, g: str, f: str) -> str:
        """The composite g∘f; f runs first."""
        if (g, f) not in self._compose:
            raise ValueError(f"({g!r}, {f!r}) is not a composable pair")
        return self._compose[(g, f)]

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
    """Exhaustive identity and associativity check with per-instance report."""
    violations = []
    for m in k.morphism_labels():
        left = k.compose2(k.identity[k.cod_of[m]], m)
        if left != m:
            violations.append({"law": "left_identity", "morphism": m, "got": left})
        right = k.compose2(m, k.identity[k.dom_of[m]])
        if right != m:
            violations.append({"law": "right_identity", "morphism": m, "got": right})
    labels = k.morphism_labels()
    for f in labels:
        for g in labels:
            if k.dom_of[g] != k.cod_of[f]:
                continue
            gf = k.compose2(g, f)
            for h in labels:
                if k.dom_of[h] != k.cod_of[g]:
                    continue
                if k.compose2(h, gf) != k.compose2(k.compose2(h, g), f):
                    violations.append(
                        {
                            "law": "associativity",
                            "triple": [h, g, f],
                            "left": k.compose2(h, gf),
                            "right": k.compose2(k.compose2(h, g), f),
                        }
                    )
    return {"ok": not violations, "violations": violations}


class Cofunctor:
    """Forward on objects, backwards on morphisms.

    pull_mor maps (source object c, target morphism g out of on_obj(c)) to
    a source morphism out of c.  Construction enforces exactly that typing;
    the three cofunctor laws live in check_cofunctor.
    """

    def __init__(
        self,
        src: FinCat,
        tgt: FinCat,
        on_obj: SetFn,
        pull_mor: Mapping[tuple[str, str], str],
    ):
        if on_obj.dom != src.objects or on_obj.cod != tgt.objects:
            raise ValueError("on_obj must map source objects to target objects")
        self.src = src
        self.tgt = tgt
        self.on_obj = on_obj
        wanted = {
            (c, g)
            for c in src.objects.elements
            for g in tgt.out[on_obj(c)]
        }
        given = set(pull_mor)
        if given != wanted:
            raise ValueError(
                f"pull_mor keys mismatch: missing {sorted(wanted - given)!r}, "
                f"extra {sorted(given - wanted)!r}"
            )
        for (c, g), m in pull_mor.items():
            if m not in src.dom_of:
                raise ValueError(f"pull_mor[{(c, g)!r}] is not a morphism: {m!r}")
            if src.dom_of[m] != c:
                raise ValueError(f"pull_mor[{(c, g)!r}] must start at {c!r}")
        self.pull_mor = dict(pull_mor)

    def pull(self, c: str, g: str) -> str:
        if (c, g) not in self.pull_mor:
            raise ValueError(f"({c!r}, {g!r}) is not in the domain of pull_mor")
        return self.pull_mor[(c, g)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cofunctor):
            return NotImplemented
        return (
            self.src == other.src
            and self.tgt == other.tgt
            and self.on_obj == other.on_obj
            and self.pull_mor == other.pull_mor
        )

    def __hash__(self) -> int:
        return hash(
            (self.src, self.tgt, self.on_obj, tuple(sorted(self.pull_mor.items())))
        )

    def __repr__(self) -> str:
        return f"Cofunctor({self.src!r} ↛ {self.tgt!r})"


def check_cofunctor(f: Cofunctor) -> dict:
    """The three cofunctor laws, checked on every instance.

    i: identities pull back to identities.  ii: the codomain of a pulled
    morphism maps forward onto the original codomain.  iii: pulling back a
    composite equals composing the pulled pieces.  Law iii instances whose
    typing depends on a failed law ii instance are skipped (and already
    reported under ii).
    """
    src, tgt = f.src, f.tgt
    violations = []
    for c in src.objects.elements:
        image = f.on_obj(c)
        got = f.pull(c, tgt.identity[image])
        if got != src.identity[c]:
            violations.append({"law": "i", "object": c, "got": got})
        for g in tgt.out[image]:
            m = f.pull(c, g)
            if f.on_obj(src.cod_of[m]) != tgt.cod_of[g]:
                violations.append(
                    {
                        "law": "ii",
                        "object": c,
                        "morphism": g,
                        "pulled": m,
                        "cod_image": f.on_obj(src.cod_of[m]),
                        "cod": tgt.cod_of[g],
                    }
                )
                continue
            c2 = src.cod_of[m]
            for h in tgt.out[tgt.cod_of[g]]:
                lhs = f.pull(c, tgt.compose2(h, g))
                rhs = src.compose2(f.pull(c2, h), m)
                if lhs != rhs:
                    violations.append(
                        {
                            "law": "iii",
                            "object": c,
                            "first": g,
                            "second": h,
                            "left": lhs,
                            "right": rhs,
                        }
                    )
    return {"ok": not violations, "violations": violations}


def identity_cofunctor(k: FinCat) -> Cofunctor:
    on_obj = SetFn.identity(k.objects)
    pull = {(c, g): g for c in k.objects.elements for g in k.out[c]}
    return Cofunctor(k, k, on_obj, pull)


# ---------------------------------------------------------------------------
# The two readings of one structure.


def comonoid_to_category(c: Comonoid) -> FinCat:
    """Read a law-abiding comonoid as a category.

    Objects are carrier positions; the morphisms out of i are the
    directions at i, tagged with their source so labels stay globally
    unique.  Raises if any comonoid law fails, quoting the first failure.
    """
    report = check_comonoid_laws(c)
    if not report["ok"]:
        first = report["violations"][0]
        raise ValueError(f"comonoid laws fail: {first!r}")
    carrier = c.carrier
    objects = carrier.positions_set()
    morphisms = []
    compose = {}
    for i in carrier.position_labels:
        for d in carrier.directions(i).elements:
            morphisms.append((tag_label(i, d), i, c.codomain[i][d]))
    identity = {i: tag_label(i, c.identity[i]) for i in carrier.position_labels}
    for i in carrier.position_labels:
        for d in carrier.directions(i).elements:
            j = c.codomain[i][d]
            for e in carrier.directions(j).elements:
                composite = c.composite[i][(d, e)]
                compose[(tag_label(j, e), tag_label(i, d))] = tag_label(i, composite)
    return FinCat(objects, morphisms, identity, compose)


def category_carrier(k: FinCat) -> FinPoly:
    """Σ over objects of y^(outgoing morphisms)."""
    return make_poly([(o, k.out[o]) for o in k.objects.elements])


def category_to_comonoid(k: FinCat) -> Comonoid:
    """Package a category's tables as a comonoid; raises on axiom failure."""
    report = check_category(k)
    if not report["ok"]:
        first = report["violations"][0]
        raise ValueError(f"category axioms fail: {first!r}")
    objects = k.objects.elements
    codomain = {o: {m: k.cod_of[m] for m in k.out[o]} for o in objects}
    composite = {
        o: {
            (m, m2): k.compose2(m2, m)
            for m in k.out[o]
            for m2 in k.out[k.cod_of[m]]
        }
        for o in objects
    }
    return Comonoid._from_tables(
        category_carrier(k), dict(k.identity), codomain, composite
    )


def contractible(s: FinSet) -> Comonoid:
    """The comonoid S·y^S: every state sees every state.

    Its category has object set S and exactly one morphism between any
    ordered pair of objects.  The counit evaluates at the current state.
    All positions share one codomain table and one composite table, so
    building it costs |S|² rather than |S|³.
    """
    elems = s.elements
    dirs = FinSet(elems)
    carrier = FinPoly([(x, dirs) for x in elems])
    codomain = {t: t for t in elems}
    composite = {(t, u): u for t in elems for u in elems}
    return Comonoid._from_tables(
        carrier,
        {x: x for x in elems},
        dict.fromkeys(elems, codomain),
        dict.fromkeys(elems, composite),
    )


def discrete_comonoid(s: FinSet) -> Comonoid:
    """The comonoid S·y: the discrete category on S (identities only)."""
    elems = s.elements
    carrier = make_poly([(x, ["*"]) for x in elems])
    composite = {("*", "*"): "*"}
    return Comonoid._from_tables(
        carrier,
        dict.fromkeys(elems, "*"),
        {x: {"*": x} for x in elems},
        dict.fromkeys(elems, composite),
    )


# ---------------------------------------------------------------------------
# Sums and tensors: coproducts and products of categories.


def comonoid_sum(c: Comonoid, d: Comonoid) -> Comonoid:
    """Carrier C+D with the summand structures side by side."""
    identity = {}
    base = {}
    codomain = {}
    composite = {}
    for key, part in (("0", c), ("1", d)):
        for i in part.carrier.position_labels:
            lab = tag_label(key, i)
            identity[lab] = part.identity[i]
            base[lab] = tag_label(key, part.base[i])
            codomain[lab] = {
                e: tag_label(key, j) for e, j in part.codomain[i].items()
            }
            # summand directions are untouched by +, so composites carry
            # over verbatim
            composite[lab] = dict(part.composite[i])
    # sum_many, not the cached poly_sum: that cache confuses carriers that
    # list the same directions in different orders
    carrier = sum_many([("0", c.carrier), ("1", d.carrier)])
    return Comonoid._from_tables(carrier, identity, codomain, composite, base)


def comonoid_tensor(c: Comonoid, d: Comonoid) -> Comonoid:
    """Carrier C⊗D: the product of the two categories, table by table.

    Positions, directions, identities, codomains and composites are all
    pairs of the factors' ones; this is δ_C⊗δ_D pushed through the
    interchange lens, without building either carrier∘carrier.
    """
    identity = {}
    base = {}
    codomain = {}
    composite = {}
    for i in c.carrier.position_labels:
        ci = c.codomain[i]
        for j in d.carrier.position_labels:
            dj = d.codomain[j]
            lab = pair_label(i, j)
            identity[lab] = pair_label(c.identity[i], d.identity[j])
            base[lab] = pair_label(c.base[i], d.base[j])
            codomain[lab] = {
                pair_label(x, y): pair_label(ci[x], dj[y]) for x in ci for y in dj
            }
            composite[lab] = {
                (pair_label(x, y), pair_label(x2, y2)): pair_label(u, v)
                for (x, x2), u in c.composite[i].items()
                for (y, y2), v in d.composite[j].items()
            }
    carrier = tensor_many([c.carrier, d.carrier])
    return Comonoid._from_tables(carrier, identity, codomain, composite, base)


# ---------------------------------------------------------------------------
# Comonoid morphisms and cofunctors.


def check_comonoid_morphism(phi: Lens, c: Comonoid, d: Comonoid) -> dict:
    """Do the counit and comultiplication squares commute for phi: C → D?"""
    if phi.dom != c.carrier or phi.cod != d.carrier:
        raise ValueError("phi must be a lens from the carrier of c to the carrier of d")
    violations = []
    violations += _lens_differences(
        "counit_square", lens_compose(d.counit, phi), c.counit
    )
    violations += _lens_differences(
        "comult_square",
        lens_compose(d.comult, phi),
        lens_compose(compose_map(phi, phi), c.comult),
    )
    return {"ok": not violations, "violations": violations}


def lens_to_cofunctor(phi: Lens, src: FinCat, tgt: FinCat) -> Cofunctor:
    """Reinterpret a carrier lens as object/morphism data between categories."""
    if phi.dom != category_carrier(src) or phi.cod != category_carrier(tgt):
        raise ValueError("phi must run between the carriers of src and tgt")
    on_obj = SetFn(src.objects, tgt.objects, dict(phi.on_pos))
    pull = {
        (c, g): phi.on_dir[c][g]
        for c in src.objects.elements
        for g in tgt.out[phi.on_pos[c]]
    }
    return Cofunctor(src, tgt, on_obj, pull)


def cofunctor_to_lens(f: Cofunctor) -> Lens:
    """The carrier lens of a cofunctor: objects forward, morphisms back."""
    dom = category_carrier(f.src)
    cod = category_carrier(f.tgt)
    on_pos = {c: f.on_obj(c) for c in f.src.objects.elements}
    on_dir = {
        c: {g: f.pull(c, g) for g in f.tgt.out[f.on_obj(c)]}
        for c in f.src.objects.elements
    }
    return Lens(dom, cod, on_pos, on_dir)


# ---------------------------------------------------------------------------
# Isomorphism of finite categories.


def is_cat_isomorphism(
    k1: FinCat, k2: FinCat, obj_map: Mapping[str, str], mor_map: Mapping[str, str]
) -> bool:
    """Verify that a given pair of bijections is a category isomorphism."""
    objs1 = k1.objects.elements
    mors1 = k1.morphism_labels()
    if sorted(obj_map) != sorted(objs1):
        return False
    if sorted(obj_map[o] for o in objs1) != sorted(k2.objects.elements):
        return False
    if sorted(mor_map) != sorted(mors1):
        return False
    if sorted(mor_map[m] for m in mors1) != sorted(k2.morphism_labels()):
        return False
    for m in mors1:
        m2 = mor_map[m]
        if k2.dom_of[m2] != obj_map[k1.dom_of[m]]:
            return False
        if k2.cod_of[m2] != obj_map[k1.cod_of[m]]:
            return False
    for o in objs1:
        if mor_map[k1.identity[o]] != k2.identity[obj_map[o]]:
            return False
    for f in mors1:
        for g in mors1:
            if k1.cod_of[f] != k1.dom_of[g]:
                continue
            if mor_map[k1.compose2(g, f)] != k2.compose2(mor_map[g], mor_map[f]):
                return False
    return True


def cat_isomorphic(k1: FinCat, k2: FinCat) -> bool:
    """Search for an isomorphism; intended for small categories.

    Backtracks over object bijections, then over morphism bijections
    hom-set block by hom-set block, pruning with identities and the
    composition tables as soon as both factors are assigned.
    """
    objs1 = k1.objects.elements
    objs2 = k2.objects.elements
    if len(objs1) != len(objs2) or len(k1.morphisms) != len(k2.morphisms):
        return False

    def profile(k: FinCat, o: str) -> tuple:
        outs = len(k.out[o])
        ins = sum(1 for m in k.morphism_labels() if k.cod_of[m] == o)
        loops = sum(1 for m in k.out[o] if k.cod_of[m] == o)
        return (outs, ins, loops)

    if sorted(profile(k1, o) for o in objs1) != sorted(profile(k2, o) for o in objs2):
        return False

    hom1 = {}
    hom2 = {}
    for m in k1.morphism_labels():
        hom1.setdefault((k1.dom_of[m], k1.cod_of[m]), []).append(m)
    for m in k2.morphism_labels():
        hom2.setdefault((k2.dom_of[m], k2.cod_of[m]), []).append(m)

    import itertools as _it

    def try_obj(obj_map: dict) -> bool:
        blocks = []
        for (a, b), ms in sorted(hom1.items()):
            target = hom2.get((obj_map[a], obj_map[b]), [])
            if len(target) != len(ms):
                return False
            blocks.append((ms, target))

        mor_map: dict[str, str] = {}

        def extend(idx: int) -> bool:
            if idx == len(blocks):
                return is_cat_isomorphism(k1, k2, obj_map, mor_map)
            ms, target = blocks[idx]
            for perm in _it.permutations(target):
                ok = True
                for m, m2 in zip(ms, perm):
                    mor_map[m] = m2
                for o in k1.objects.elements:
                    i1 = k1.identity[o]
                    if i1 in mor_map and mor_map[i1] != k2.identity[obj_map[o]]:
                        ok = False
                        break
                if ok:
                    for f in mor_map:
                        for g in mor_map:
                            if k1.cod_of[f] != k1.dom_of[g]:
                                continue
                            gf = k1.compose2(g, f)
                            if gf in mor_map and mor_map[gf] != k2.compose2(
                                mor_map[g], mor_map[f]
                            ):
                                ok = False
                                break
                        if not ok:
                            break
                if ok and extend(idx + 1):
                    return True
                for m in ms:
                    mor_map.pop(m, None)
            return False

        return extend(0)

    for perm in _it.permutations(objs2):
        obj_map = dict(zip(objs1, perm))
        if any(profile(k1, o) != profile(k2, obj_map[o]) for o in objs1):
            continue
        if try_obj(obj_map):
            return True
    return False


# ---------------------------------------------------------------------------
# Cofree truncation and finite-depth behavior.


def cofree_truncation(
    p: FinPoly, depth: int, max_positions: int = 20000
) -> tuple[list[FinPoly], list[Lens]]:
    """The chain 1 ← y·p(1) ← y·p(y·p(1)) ← … cut off at the given depth.

    Returns stages [c_0 .. c_depth] and projections [c_1→c_0, ...,
    c_depth→c_{depth-1}].  Position counts obey
    |c_{k+1}(1)| = |p applied to c_k(1)|.  Raises once a stage would
    exceed max_positions positions.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    stages = [ONE]
    projections: list[Lens] = []
    for k in range(depth):
        prev = stages[-1]
        # predicted count of the next stage; checked before building it
        # because the stage labels themselves grow quickly with depth
        predicted = sum(
            prev.num_positions() ** len(p.directions(i))
            for i in p.position_labels
        )
        if predicted > max_positions:
            raise ValueError(
                f"stage {k + 1} would have {predicted} positions "
                f"(cap {max_positions})"
            )
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


def nstep_behavior(c: Comonoid, f: Lens, n: int) -> SetFn:
    """Where each state can be after n steps of looking through f.

    f must be a lens from the carrier to some interface p.  The result maps
    carrier positions to positions of p^∘n, the trees of depth-n
    observations; states with the same image are n-bisimilar.

    The trees are assembled recursively from the codomain table and f's
    tables.  This equals the on-positions part of the composite
    carrier → carrier^∘n → p^∘n built with compose_map and the iterated
    comultiplication, but the carrier powers are never materialized.
    """
    if f.dom != c.carrier:
        raise ValueError("f must be a lens out of the comonoid carrier")
    if n < 0:
        raise ValueError("n must be non-negative")
    p = f.cod
    cod = compose_power(p, n).positions_set()
    memo: dict[tuple[str, int], str] = {}

    def img(s: str, k: int) -> str:
        if k == 0:
            return "*"
        if k == 1:
            return f.on_pos[s]
        got = memo.get((s, k))
        if got is None:
            s1 = c.base[s]
            phi = c.codomain[s]
            b = f.on_pos[s1]
            fsharp = f.on_dir[s1]
            pdirs = p.directions(b).elements
            table = {dp: img(phi[fsharp[dp]], k - 1) for dp in pdirs}
            got = memo[(s, k)] = pair_label(b, fn_label(table, pdirs))
        return got

    mapping = {s: img(s, n) for s in c.carrier.position_labels}
    return SetFn(c.carrier.positions_set(), cod, mapping)


# ---------------------------------------------------------------------------
# Serialization.


def fincat_to_json(k: FinCat) -> dict:
    return {
        "objects": list(k.objects.elements),
        "morphisms": [
            {"label": m, "dom": d, "cod": c} for m, d, c in k.morphisms
        ],
        "identity": dict(k.identity),
        "compose": [
            {"after": g, "first": f, "result": h}
            for (g, f), h in sorted(k._compose.items())
        ],
    }


def fincat_from_json(data: dict) -> FinCat:
    try:
        objects = FinSet(data["objects"])
        morphisms = [(m["label"], m["dom"], m["cod"]) for m in data["morphisms"]]
        identity = data["identity"]
        compose = {(e["after"], e["first"]): e["result"] for e in data["compose"]}
    except KeyError as exc:
        raise ValueError(f"missing key in category JSON: {exc}") from exc
    return FinCat(objects, morphisms, identity, compose)


def comonoid_to_json(c: Comonoid) -> dict:
    return {
        "carrier": poly_to_json(c.carrier),
        "counit": lens_to_json(c.counit),
        "comult": lens_to_json(c.comult),
    }


def comonoid_from_json(data: dict) -> Comonoid:
    try:
        return Comonoid(
            poly_from_json(data["carrier"]),
            lens_from_json(data["counit"]),
            lens_from_json(data["comult"]),
        )
    except KeyError as exc:
        raise ValueError(f"missing key in comonoid JSON: {exc}") from exc
