"""The cold half of polydyn.comonoid, compiled on first use.

The public Comonoid constructor's recognition of carrier∘carrier, the
FinCat constructor's error for a faulty composition table,
is_cat_isomorphism, cofunctors, discrete comonoids, sums and tensors,
the morphism squares, finite-depth behavior maps and JSON
serialization.  No pipeline of the package calls them, so
polydyn.comonoid loads this module only when one of these names is
first read from it; import them from polydyn.comonoid.
"""

from __future__ import annotations

from collections.abc import Mapping

from polydyn.core import (
    FinPoly,
    FinSet,
    Lens,
    SetFn,
    _json_array,
    _json_node,
    _json_nodes,
    _require,
    lens_from_json,
    lens_to_json,
    make_poly,
    pair_label,
    poly_from_json,
    poly_to_json,
    split_pair,
    tag_label,
)
from polydyn.algebra import (
    _ComposeView,
    _Ordered,
    _compose_label,
    _compose_positions,
    _split_compose,
    compose_power,
    sum_many,
    tensor_many,
)
from polydyn.comonoid import (
    Comonoid,
    FinCat,
    _comult_label,
    category_carrier,
)


# ---------------------------------------------------------------------------
# Recognising carrier∘carrier, for the public Comonoid constructor.


def _is_self_composite(carrier: FinPoly, q: FinPoly) -> bool:
    """Is q carrier∘carrier, read off its labels in either label form?

    A q that poly_compose built from carrier, or from a copy of it in the
    same orders, is; nothing is listed to see that.  Otherwise each
    position of q must decode to (i, table) with the table total on the
    directions at i and valued in positions, and its directions to the
    pairs (d, e) with e a direction at table[d], each once.  The decoded
    positions must be distinct and as many as carrier∘carrier has.
    """
    view = q._dirs
    if isinstance(view, _ComposeView):
        if _Ordered(carrier) == _Ordered(view.p) == _Ordered(view.q):
            return True
    n = carrier.num_positions()
    if q.num_positions() != _compose_positions(carrier, n):
        return False
    positions = carrier._dirs
    # positions with equal direction sets share a kind; a direction set is
    # decoded once per position of carrier and kinds of the table's values
    kind: dict[FinSet, int] = {}
    kinds = {v: kind.setdefault(dirs, len(kind)) for v, dirs in positions.items()}
    matched: dict[tuple, frozenset] = {}
    seen = set()
    for label, dirs in q._dirs.items():
        try:
            i, phi = _split_compose(label)
            here = positions[i]
            if phi.keys() != here._set:
                return False
            values = tuple(map(phi.__getitem__, here.elements))
            shape = (i, tuple(map(kinds.__getitem__, values)))
        except (ValueError, KeyError):
            return False
        seen.add((i, values))
        if dirs._set == matched.get(shape):
            continue
        try:
            pairs = {split_pair(de) for de in dirs.elements}
        except ValueError:
            return False
        expected = {(d, e) for d, v in zip(here.elements, values) for e in positions[v]}
        if len(pairs) != len(dirs) or pairs != expected:
            return False
        matched[shape] = dirs._set
    return len(seen) == q.num_positions()


# ---------------------------------------------------------------------------
# The error of a faulty composition table, for the FinCat constructor.


def _composition_error(mors, out, ends, compose2) -> ValueError:
    """The error FinCat refuses a faulty composition table with: a key
    set other than the composable pairs first, then the first composite,
    in the table's order, that is not a morphism or has wrong endpoints;
    ends[m] is (dom, cod) of morphism m."""
    composable = {(g, f) for f, _, c in mors for g in out[c]}
    given = set(compose2)
    if given != composable:
        missing = sorted(composable - given)
        extra = sorted(given - composable)
        return ValueError(f"composition table mismatch: missing {missing!r}, extra {extra!r}")
    for (g, f), h in compose2.items():
        if h not in ends:
            return ValueError(f"composite of ({g!r}, {f!r}) is not a morphism: {h!r}")
        if ends[h] != (ends[f][0], ends[g][1]):
            return ValueError(f"composite {h!r} of ({g!r}, {f!r}) has wrong endpoints")


# ---------------------------------------------------------------------------
# Checking a given isomorphism of finite categories.


def is_cat_isomorphism(
    k1: FinCat, k2: FinCat, obj_map: Mapping[str, str], mor_map: Mapping[str, str]
) -> bool:
    """Verify that a given pair of bijections is a category isomorphism."""
    _require(k1, FinCat, "k1")
    _require(k2, FinCat, "k2")
    objs1 = k1.objects.elements
    mors1 = k1._names
    objs2 = k2.objects.elements
    mors2 = k2._names
    # labels are unique on both sides, so equal lengths and equal sets make
    # each map a bijection
    if len(obj_map) != len(objs1) or set(obj_map) != set(objs1):
        return False
    if len(objs1) != len(objs2) or {obj_map[o] for o in objs1} != set(objs2):
        return False
    if len(mor_map) != len(mors1) or set(mor_map) != set(mors1):
        return False
    if len(mors1) != len(mors2) or {mor_map[m] for m in mors1} != set(mors2):
        return False
    # the maps on the cores' indices; the identity of object i is morphism i
    at2, index2 = {o: i for i, o in enumerate(objs2)}, k2._index
    obj = [at2[obj_map[o]] for o in objs1]
    mor = [index2[mor_map[m]] for m in mors1]
    a, b = k1._core, k2._core
    if any(mor[i] != x for i, x in enumerate(obj)):
        return False
    for m, m2 in enumerate(mor):
        if b.dom[m2] != obj[a.dom[m]] or b.cod[m2] != obj[a.cod[m]]:
            return False
    # endpoints are preserved, so every image pair is composable in k2
    for f, c in enumerate(a.cod):
        for g in a.out[c]:
            if b.rows[mor[g]][mor[f]] != mor[a.rows[g][f]]:
                return False
    return True


# ---------------------------------------------------------------------------
# Cofunctors.


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
        _require(src, FinCat, "src")
        _require(tgt, FinCat, "tgt")
        _require(on_obj, SetFn, "on_obj")
        _require(pull_mor, Mapping, "pull_mor")
        if on_obj.dom != src.objects or on_obj.cod != tgt.objects:
            raise ValueError("on_obj must map source objects to target objects")
        self.src = src
        self.tgt = tgt
        self.on_obj = on_obj
        out = category_carrier(tgt)
        wanted = {
            (c, g)
            for c in src.objects.elements
            for g in out.directions(on_obj(c)).elements
        }
        given = set(pull_mor)
        if given != wanted:
            raise ValueError(
                f"pull_mor keys mismatch: missing {sorted(wanted - given)!r}, "
                f"extra {sorted(given - wanted)!r}"
            )
        objects, dom, index = src.objects.elements, src._core.dom, src._index
        for (c, g), m in pull_mor.items():
            if m not in index:
                raise ValueError(f"pull_mor[{(c, g)!r}] is not a morphism: {m!r}")
            if objects[dom[index[m]]] != c:
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
    reported under ii).  These are the cells of the morphism walk
    (_square_cells) on cofunctor_to_lens(f) between the comonoids the
    categories read as, lawful or not: counit (i), codomain (ii), direction (iii).
    """
    _require(f, Cofunctor, "f")
    phi = cofunctor_to_lens(f)
    src, tgt = Comonoid._on_category(f.src, phi.dom), Comonoid._on_category(f.tgt, phi.cod)
    violations = []
    for c, unit, cells in _square_cells(phi, src, tgt):
        if unit is not None:
            violations.append({"law": "i", "object": c, "got": unit[0]})
        for g, h, v, w in cells:
            if h is None:
                cell = {"morphism": g, "pulled": f.pull(c, g), "cod_image": v, "cod": w}
            else:
                cell = {"first": g, "second": h, "left": v, "right": w}
            violations.append({"law": "ii" if h is None else "iii", "object": c, **cell})
    return {"ok": not violations, "violations": violations}


def identity_cofunctor(k: FinCat) -> Cofunctor:
    _require(k, FinCat, "k")
    on_obj = SetFn.identity(k.objects)
    pull = {(c, g): g for c, gs in category_carrier(k)._dirs.items() for g in gs.elements}
    return Cofunctor(k, k, on_obj, pull)


# ---------------------------------------------------------------------------
# Discrete comonoids, sums and tensors: coproducts and products of categories.


def discrete_comonoid(s: FinSet) -> Comonoid:
    """The comonoid S·y: the discrete category on S (identities only)."""
    _require(s, FinSet, "s")
    elems = s.elements
    carrier = make_poly((x, ["*"]) for x in elems)
    composite = {("*", "*"): "*"}
    return Comonoid._from_tables(
        carrier,
        dict.fromkeys(elems, "*"),
        {x: {"*": x} for x in elems},
        dict.fromkeys(elems, composite),
    )


def comonoid_sum(c: Comonoid, d: Comonoid) -> Comonoid:
    """Carrier C+D with the summand structures side by side.

    Summand directions are untouched by +, so the sum takes over each
    summand's composite tables as they are.  Each distinct codomain table
    of a summand is relabeled once, and the positions that shared it
    share the relabeled table.
    """
    _require(c, Comonoid, "c")
    _require(d, Comonoid, "d")
    identity = {}
    base = {}
    codomain = {}
    composite = {}
    for key, part in (("0", c), ("1", d)):
        tagged = {}  # id of a codomain table of part -> its relabeled copy
        for i in part.carrier.position_labels:
            lab = tag_label(key, i)
            identity[lab] = part.identity[i]
            base[lab] = tag_label(key, part.base[i])
            table = part.codomain[i]
            cod = tagged.get(id(table))
            if cod is None:
                cod = tagged[id(table)] = {e: tag_label(key, j) for e, j in table.items()}
            codomain[lab] = cod
            composite[lab] = part.composite[i]
    carrier = sum_many([("0", c.carrier), ("1", d.carrier)])
    return Comonoid._from_tables(carrier, identity, codomain, composite, base)


def comonoid_tensor(c: Comonoid, d: Comonoid) -> Comonoid:
    """Carrier C⊗D: the product of the two categories, table by table.

    Positions, directions, identities, codomains and composites are all
    pairs of the factors' ones; this is δ_C⊗δ_D pushed through the
    interchange lens, without building either carrier∘carrier.  A table
    of the product depends only on the two factor tables it pairs, so it
    is built once per pair of distinct factor tables and shared by the
    positions that pair them.
    """
    _require(c, Comonoid, "c")
    _require(d, Comonoid, "d")
    identity = {}
    base = {}
    codomain = {}
    composite = {}
    codomains = {}  # (id, id) of two factor codomain tables -> their product
    composites = {}  # the same for composite tables
    for i in c.carrier.position_labels:
        ci, ki = c.codomain[i], c.composite[i]
        for j in d.carrier.position_labels:
            dj, kj = d.codomain[j], d.composite[j]
            lab = pair_label(i, j)
            identity[lab] = pair_label(c.identity[i], d.identity[j])
            base[lab] = pair_label(c.base[i], d.base[j])
            table = codomains.get((id(ci), id(dj)))
            if table is None:
                table = codomains[id(ci), id(dj)] = {
                    pair_label(x, y): pair_label(ci[x], dj[y]) for x in ci for y in dj
                }
            codomain[lab] = table
            table = composites.get((id(ki), id(kj)))
            if table is None:
                table = composites[id(ki), id(kj)] = {
                    (pair_label(x, y), pair_label(x2, y2)): pair_label(u, v)
                    for (x, x2), u in ki.items()
                    for (y, y2), v in kj.items()
                }
            composite[lab] = table
    carrier = tensor_many([c.carrier, d.carrier])
    return Comonoid._from_tables(carrier, identity, codomain, composite, base)


# ---------------------------------------------------------------------------
# Comonoid morphisms and cofunctors.


def _square_cells(phi: Lens, c: Comonoid, d: Comonoid):
    """The failing cells of phi's morphism squares, read from the tables of
    c and d without building a label, c∘c or d∘d: (i, unit, cells) for each
    position i of phi.dom in order.  With j = phi(i), b = base[i], x = phi♯_b(g)
    and k = c.codomain[i][x]: unit is (phi♯_i(d.identity[j]), c.identity[i])
    or None; cells is the base cell (None, None, phi(b), d.base[j]) alone, or
    for each g at d.base[j] the codomain cell (g, None, phi(k), d.codomain[j][g])
    or else the direction cells (g, h, phi♯_i(d.composite[j][(g, h)]),
    c.composite[i][(x, phi♯_k(h))]) for h at d.codomain[j][g]; each where it fails.
    """
    on_pos, on_dir, dirs = phi.on_pos, phi.on_dir, d.carrier.directions
    for i in phi.dom.position_labels:
        j, pulled = on_pos[i], on_dir[i]
        v, w = pulled[d.identity[j]], c.identity[i]
        unit = None if v == w else (v, w)
        b, top = c.base[i], d.base[j]
        if on_pos[b] != top:
            yield i, unit, [(None, None, on_pos[b], top)]
            continue
        cells = []
        at_b, cod, inner = on_dir[b], c.codomain[i], c.composite[i]
        there, outer = d.codomain[j], d.composite[j]
        for g in dirs(top).elements:
            x = at_b[g]
            if on_pos[cod[x]] != there[g]:
                cells.append((g, None, on_pos[cod[x]], there[g]))
                continue
            at_k = on_dir[cod[x]]
            for h in dirs(there[g]).elements:
                v, w = pulled[outer[g, h]], inner[x, at_k[h]]
                if v != w:
                    cells.append((g, h, v, w))
        yield i, unit, cells


def check_comonoid_morphism(phi: Lens, c: Comonoid, d: Comonoid) -> dict:
    """Do the counit and comultiplication squares commute for phi: C → D?

    The cells of the morphism walk (_square_cells) as the composed lenses
    of the squares report them: every counit record, then per position
    either d's comult position at phi(i) against (phi(b), g ↦ phi(k)),
    where a base or codomain cell fails, or each failing direction cell.
    """
    _require(phi, Lens, "phi")
    _require(c, Comonoid, "c")
    _require(d, Comonoid, "d")
    if phi.dom != c.carrier or phi.cod != d.carrier:
        raise ValueError("phi must be a lens from the carrier of c to the carrier of d")
    counit, comult = [], []
    for i, unit, cells in _square_cells(phi, c, d):
        if unit is not None:
            record = {"direction": "*", "left": unit[0], "right": unit[1]}
            counit.append({"law": "counit_square", "position": i, **record})
        if any(h is None for _, h, _, _ in cells):
            b = c.base[i]
            at_b, gs = phi.on_dir[b], d.carrier.directions(phi.on_pos[b]).elements
            table = {g: phi.on_pos[c.codomain[i][at_b[g]]] for g in gs}
            v, w = _comult_label(d, phi.on_pos[i]), _compose_label(phi.on_pos[b], table, gs)
            cells = [(None, None, v, w)]
        for g, h, v, w in cells:
            where = {} if h is None else {"direction": pair_label(g, h)}
            comult.append({"law": "comult_square", "position": i, **where, "left": v, "right": w})
    violations = counit + comult
    return {"ok": not violations, "violations": violations}


def lens_to_cofunctor(phi: Lens, src: FinCat, tgt: FinCat) -> Cofunctor:
    """Reinterpret a carrier lens as object/morphism data between categories."""
    _require(phi, Lens, "phi")
    _require(src, FinCat, "src")
    _require(tgt, FinCat, "tgt")
    out = category_carrier(tgt)
    if phi.dom != category_carrier(src) or phi.cod != out:
        raise ValueError("phi must run between the carriers of src and tgt")
    on_obj = SetFn(src.objects, tgt.objects, dict(phi.on_pos))
    pull = {
        (c, g): phi.on_dir[c][g]
        for c in src.objects.elements
        for g in out.directions(phi.on_pos[c]).elements
    }
    return Cofunctor(src, tgt, on_obj, pull)


def cofunctor_to_lens(f: Cofunctor) -> Lens:
    """The carrier lens of a cofunctor: objects forward, morphisms back."""
    _require(f, Cofunctor, "f")
    # the Cofunctor constructor has checked this typing
    dom = category_carrier(f.src)
    cod = dom if f.tgt is f.src else category_carrier(f.tgt)
    on_pos = {c: f.on_obj(c) for c in f.src.objects.elements}
    on_dir = {
        c: {g: f.pull_mor[c, g] for g in cod.directions(j).elements} for c, j in on_pos.items()
    }
    return Lens._make(dom, cod, on_pos, on_dir)


# ---------------------------------------------------------------------------
# Finite-depth behavior.


def _observations(c: Comonoid, f: Lens, p: FinPoly, empty, node):
    """obs(s, k), the depth-k observation of state s through f: empty at
    depth 0, else node(k, b, branches), with b = f(s) and every branch
    empty at depth 1, and deeper b = f(base[s]) and branches[d] =
    obs(codomain[s][f♯(d)], k − 1).  The branches follow the directions
    at b in the order of p, which equals f.cod.  Each (s, k) is built once.

    There is no recursion, so the depth is not bounded by Python's stack:
    obs walks down from depth k, noting at each depth the states not yet
    built and where their directions lead, then builds them upwards.
    """
    memo = {}

    def obs(s: str, k: int):
        if k == 0:
            return empty
        levels = []
        need = {s: None}
        for j in range(k, 0, -1):
            rows = {}
            for t in need:
                if (t, j) in memo:
                    continue
                if j == 1:
                    b = f.on_pos[t]
                    rows[t] = b, dict.fromkeys(p.directions(b).elements)
                else:
                    t1 = c.base[t]
                    phi, b, pulled = c.codomain[t], f.on_pos[t1], f.on_dir[t1]
                    rows[t] = b, {d: phi[pulled[d]] for d in p.directions(b).elements}
            if not rows:
                break
            levels.append((j, rows))
            need = dict.fromkeys(u for _, nxt in rows.values() for u in nxt.values())
        for j, rows in reversed(levels):
            for t, (b, nxt) in rows.items():
                if j == 1:
                    branches = dict.fromkeys(nxt, empty)
                else:
                    branches = {d: memo[u, j - 1] for d, u in nxt.items()}
                memo[t, j] = node(j, b, branches)
        return memo[s, k]

    return obs


def _observation_label(k: int, b, table) -> str:
    """The label of a depth-k observation with position b, whose branch
    labels are table: "*" at depth 0, the bare b at depth 1, and deeper
    pair(b, table) with the table's keys in its own order."""
    if k == 0:
        return "*"
    if k == 1:
        return b
    return _compose_label(b, table, table)


def nstep_behavior(c: Comonoid, f: Lens, n: int) -> SetFn:
    """Where each state can be after n steps of looking through f.

    f must be a lens from the carrier to some interface p.  The result maps
    carrier positions to positions of p^∘n, the trees of depth-n
    observations; states with the same image are n-bisimilar.

    The labels are built by _observations, which unroll shares, once per
    (state, depth).  This equals the on-positions part of the composite
    carrier → carrier^∘n → p^∘n built with compose_map and the iterated
    comultiplication, but the carrier powers are never materialized.
    """
    _require(c, Comonoid, "c")
    _require(f, Lens, "f")
    if f.dom != c.carrier:
        raise ValueError("f must be a lens out of the comonoid carrier")
    _require(n, int, "n")
    if n < 0:
        raise ValueError("n must be non-negative")
    cod = compose_power(f.cod, n).positions_set()
    img = _observations(c, f, f.cod, _observation_label(0, None, None), _observation_label)
    mapping = {s: img(s, n) for s in c.carrier.position_labels}
    return SetFn(c.carrier.positions_set(), cod, mapping)


# ---------------------------------------------------------------------------
# Serialization.


def fincat_to_json(k: FinCat) -> dict:
    _require(k, FinCat, "k")
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
        data = _json_node(data, "category")
        objects = FinSet(_json_array(data["objects"], "category"))
        morphisms = [
            (m["label"], m["dom"], m["cod"])
            for m in _json_nodes(data["morphisms"], "category")
        ]
        identity = _json_node(data["identity"], "category")
        compose = {}
        for e in _json_nodes(data["compose"], "category"):
            pair = (e["after"], e["first"])
            if pair in compose:
                raise ValueError(f"repeated compose entry for ({pair[0]!r}, {pair[1]!r})")
            compose[pair] = e["result"]
    except KeyError as exc:
        raise ValueError(f"missing key in category JSON: {exc}") from exc
    return FinCat(objects, morphisms, identity, compose)


def comonoid_to_json(c: Comonoid) -> dict:
    _require(c, Comonoid, "c")
    return {
        "carrier": poly_to_json(c.carrier),
        "counit": lens_to_json(c.counit),
        "comult": lens_to_json(c.comult),
    }


def comonoid_from_json(data: dict) -> Comonoid:
    try:
        data = _json_node(data, "comonoid")
        return Comonoid(
            poly_from_json(data["carrier"]),
            lens_from_json(data["counit"]),
            lens_from_json(data["comult"]),
        )
    except KeyError as exc:
        raise ValueError(f"missing key in comonoid JSON: {exc}") from exc
