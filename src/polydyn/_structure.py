"""The cold half of polydyn.algebra, compiled on first use.

The structure isomorphisms of the four products, duoidal interchange and
distributivity, finite limits, the two factorization systems, base
change and the Set adjunctions.  No pipeline of the package calls them,
so polydyn.algebra loads this module only when one of these names is
first read from it; import them from polydyn.algebra.  Labels follow the
bookkeeping set out in polydyn.algebra's module docstring.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Sequence

from polydyn.core import (
    ONE,
    Y,
    ZERO,
    FinPoly,
    FinSet,
    Lens,
    SetFn,
    _all_maps,
    coequalizer_set,
    constant,
    fn_label,
    lens_compose,
    lens_id,
    linear,
    pair_label,
    representable,
    split_fn,
    split_pair,
    split_tag,
    tag_label,
)
from polydyn.algebra import (
    _compose_label,
    _split_compose,
    cartesian_closure,
    global_sections,
    hom_count,
    hom_enumerate,
    poly_compose,
    poly_product,
    poly_sum,
    poly_tensor,
    product_many,
    sum_many,
)


# ---------------------------------------------------------------------------
# Structure isomorphisms.  Each returns a (forward, backward) pair that
# composes to the identity on both sides.  All of them are relabelings, read
# off the domain's labels with the bookkeeping of the module docstring.


def _relabel_iso(
    dom: FinPoly, cod: FinPoly, pos_fn: Callable[[str], str], dir_fn: Callable[[str, str], str]
) -> tuple[Lens, Lens]:
    """Both directions of the iso that sends position i of dom to pos_fn(i)
    and direction d at i to dir_fn(i, d)."""
    pos_map = {i: pos_fn(i) for i in dom.position_labels}
    dir_map = {i: {d: dir_fn(i, d) for d in dom.directions(i).elements} for i in pos_map}
    fwd = Lens(dom, cod, pos_map, {i: {v: d for d, v in m.items()} for i, m in dir_map.items()})
    bwd = Lens(
        cod, dom, {j: i for i, j in pos_map.items()}, {pos_map[i]: m for i, m in dir_map.items()}
    )
    return fwd, bwd


def _rebracket(label: str) -> str:
    """((a,b),c) ↦ (a,(b,c))."""
    ab, c = split_pair(label)
    a, b = split_pair(ab)
    return pair_label(a, pair_label(b, c))


def _swap(label: str) -> str:
    """(a,b) ↦ (b,a)."""
    a, b = split_pair(label)
    return pair_label(b, a)


def _rebracket_tags(label: str) -> str:
    """0|0|x ↦ 0|x, 0|1|x ↦ 1|0|x, 1|x ↦ 1|1|x: sum positions, product directions."""
    tag, x = split_tag(label)
    if tag == "1":
        return tag_label("1", tag_label("1", x))
    tag, x = split_tag(x)
    return tag_label("0", x) if tag == "0" else tag_label("1", tag_label("0", x))


def _flip_tag(label: str) -> str:
    """0|x ↦ 1|x and 1|x ↦ 0|x."""
    tag, x = split_tag(label)
    return tag_label("1" if tag == "0" else "0", x)


def _first(label: str) -> str:
    return split_pair(label)[0]


def _second(label: str) -> str:
    return split_pair(label)[1]


def _untag(label: str) -> str:
    return split_tag(label)[1]


def _keep(i: str, d: str) -> str:
    return d


def sum_left_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """0 + p ≅ p."""
    return _relabel_iso(poly_sum(ZERO, p), p, _untag, _keep)


def sum_right_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """p + 0 ≅ p."""
    return _relabel_iso(poly_sum(p, ZERO), p, _untag, _keep)


def sum_associator(p: FinPoly, q: FinPoly, r: FinPoly) -> tuple[Lens, Lens]:
    """(p+q)+r ≅ p+(q+r)."""
    return _relabel_iso(
        poly_sum(poly_sum(p, q), r), poly_sum(p, poly_sum(q, r)), _rebracket_tags, _keep
    )


def sum_symmetry(p: FinPoly, q: FinPoly) -> tuple[Lens, Lens]:
    """p + q ≅ q + p."""
    return _relabel_iso(poly_sum(p, q), poly_sum(q, p), _flip_tag, _keep)


def product_left_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """1 × p ≅ p."""
    return _relabel_iso(poly_product(ONE, p), p, _second, lambda i, d: _untag(d))


def product_right_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """p × 1 ≅ p."""
    return _relabel_iso(poly_product(p, ONE), p, _first, lambda i, d: _untag(d))


def product_associator(p: FinPoly, q: FinPoly, r: FinPoly) -> tuple[Lens, Lens]:
    """(p×q)×r ≅ p×(q×r)."""
    return _relabel_iso(
        poly_product(poly_product(p, q), r),
        poly_product(p, poly_product(q, r)),
        _rebracket,
        lambda i, d: _rebracket_tags(d),
    )


def product_symmetry(p: FinPoly, q: FinPoly) -> tuple[Lens, Lens]:
    """p×q ≅ q×p."""
    return _relabel_iso(
        poly_product(p, q), poly_product(q, p), _swap, lambda i, d: _flip_tag(d)
    )


def tensor_left_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """y ⊗ p ≅ p."""
    return _relabel_iso(poly_tensor(Y, p), p, _second, lambda i, d: _second(d))


def tensor_right_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """p ⊗ y ≅ p."""
    return _relabel_iso(poly_tensor(p, Y), p, _first, lambda i, d: _first(d))


def tensor_associator(p: FinPoly, q: FinPoly, r: FinPoly) -> tuple[Lens, Lens]:
    """(p⊗q)⊗r ≅ p⊗(q⊗r)."""
    return _relabel_iso(
        poly_tensor(poly_tensor(p, q), r),
        poly_tensor(p, poly_tensor(q, r)),
        _rebracket,
        lambda i, d: _rebracket(d),
    )


def tensor_symmetry(p: FinPoly, q: FinPoly) -> tuple[Lens, Lens]:
    """p⊗q ≅ q⊗p."""
    return _relabel_iso(poly_tensor(p, q), poly_tensor(q, p), _swap, lambda i, d: _swap(d))


def compose_left_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """y ∘ p ≅ p."""
    return _relabel_iso(
        poly_compose(Y, p), p, lambda i: _split_compose(i)[1]["*"], lambda i, d: _second(d)
    )


def compose_right_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """p ∘ y ≅ p."""
    return _relabel_iso(poly_compose(p, Y), p, _first, lambda i, d: _first(d))


def _rebracket_compose(label: str) -> str:
    """((i,[d:j,...]),[(d,e):k,...]) ↦ (i,[d:(j,[e:k,...]),...])."""
    # tables list their entries in the order of the direction sets they read
    x, psi = _split_compose(label)
    i, phi = _split_compose(x)
    tables = {d: {} for d in phi}
    for de, k in psi.items():
        d, e = split_pair(de)
        tables[d][e] = k
    chi = {d: _compose_label(j, tables[d], tables[d]) for d, j in phi.items()}
    return _compose_label(i, chi, phi)


def compose_associator(p: FinPoly, q: FinPoly, r: FinPoly) -> tuple[Lens, Lens]:
    """(p∘q)∘r ≅ p∘(q∘r)."""
    return _relabel_iso(
        poly_compose(poly_compose(p, q), r),
        poly_compose(p, poly_compose(q, r)),
        _rebracket_compose,
        lambda i, d: _rebracket(d),
    )


# ---------------------------------------------------------------------------
# Interchange and distributivity.


def duoidal(p1: FinPoly, p2: FinPoly, q1: FinPoly, q2: FinPoly) -> Lens:
    """The interchange lens (p1∘p2)⊗(q1∘q2) → (p1⊗q1)∘(p2⊗q2)."""
    dom = poly_tensor(poly_compose(p1, p2), poly_compose(q1, q2))
    cod = poly_compose(poly_tensor(p1, q1), poly_tensor(p2, q2))
    on_pos = {}
    on_dir = {}
    for lab in dom.position_labels:
        left, right = split_pair(lab)
        i1, phi = _split_compose(left)
        j1, psi = _split_compose(right)
        outer_dirs = [
            pair_label(d, e)
            for d in p1.directions(i1).elements
            for e in q1.directions(j1).elements
        ]
        chi = {}
        for d in p1.directions(i1).elements:
            for e in q1.directions(j1).elements:
                chi[pair_label(d, e)] = pair_label(phi[d], psi[e])
        on_pos[lab] = _compose_label(pair_label(i1, j1), chi, outer_dirs)
        comp = {}
        for d in p1.directions(i1).elements:
            for e in q1.directions(j1).elements:
                for d2 in p2.directions(phi[d]).elements:
                    for e2 in q2.directions(psi[e]).elements:
                        cod_dir = pair_label(
                            pair_label(d, e), pair_label(d2, e2)
                        )
                        comp[cod_dir] = pair_label(
                            pair_label(d, d2), pair_label(e, e2)
                        )
        on_dir[lab] = comp
    return Lens(dom, cod, on_pos, on_dir)


def _distribute_position(label: str) -> str:
    """(0|(i,j),[0|d:k,...,1|e:k,...]) ↦ 0|((i,[d:k,...]),(j,[e:k,...]))
    and (1|k,φ) ↦ 1|(k,φ), keeping each table's entry order."""
    x, phi = _split_compose(label)
    tag, inner = split_tag(x)
    if tag == "1":
        return tag_label("1", _compose_label(inner, phi, phi))
    halves = ({}, {})
    for td, k in phi.items():
        t, d = split_tag(td)
        halves[int(t)][d] = k
    return tag_label(
        "0",
        pair_label(*(_compose_label(i, h, h) for i, h in zip(split_pair(inner), halves))),
    )


def _distribute_direction(i: str, d: str) -> str:
    """(t|d,f) ↦ t|(d,f) at a 0-tagged position; unchanged at a 1-tagged one."""
    if split_tag(_first(i))[0] == "1":
        return d
    td, f = split_pair(d)
    t, e = split_tag(td)
    return tag_label(t, pair_label(e, f))


def distribute_left(p: FinPoly, q: FinPoly, r: FinPoly, s: FinPoly) -> tuple[Lens, Lens]:
    """(p×q + r)∘s ≅ (p∘s)×(q∘s) + r∘s, as a two-sided iso."""
    return _relabel_iso(
        poly_compose(poly_sum(poly_product(p, q), r), s),
        poly_sum(poly_product(poly_compose(p, s), poly_compose(q, s)), poly_compose(r, s)),
        _distribute_position,
        _distribute_direction,
    )


def _gather_tags(label: str, keys: Sequence[str]) -> str:
    """(i|x,j|y,...) ↦ [a:i,b:j,...]|(x,y,...) for keys a, b, ..."""
    tagged = [split_tag(x) for x in split_pair(label)]
    choice = fn_label({a: i for a, (i, _) in zip(keys, tagged)}, keys)
    return tag_label(choice, pair_label(*(x for _, x in tagged)))


def complete_distributivity_instance(
    a_set: FinSet, index: Mapping[str, FinSet], p: Mapping[tuple[str, str], FinPoly]
) -> tuple[Lens, Lens]:
    """Π_a Σ_i p[a,i] ≅ Σ_{choices c} Π_a p[a,c(a)], as a two-sided iso."""
    for a in a_set.elements:
        if a not in index:
            raise ValueError(f"no index set for {a!r}")
        for i in index[a].elements:
            if (a, i) not in p:
                raise ValueError(f"no polynomial for ({a!r}, {i!r})")
    lhs = product_many(
        [(a, sum_many([(i, p[(a, i)]) for i in index[a].elements])) for a in a_set.elements]
    )
    rhs_items = []
    pools = [[(a, i) for i in index[a].elements] for a in a_set.elements]
    for combo in itertools.product(*pools):
        c = dict(combo)
        c_lab = fn_label(c, a_set.elements)
        rhs_items.append(
            (c_lab, product_many([(a, p[(a, c[a])]) for a in a_set.elements]))
        )
    rhs = sum_many(rhs_items)
    return _relabel_iso(lhs, rhs, lambda lab: _gather_tags(lab, a_set.elements), _keep)


# ---------------------------------------------------------------------------
# Finite limits.


class Diagram:
    """A finite diagram of polynomials presented as a category.

    objects: name → polynomial.  arrows: (label, src, dst, lens) with
    lens.dom == objects[src] and lens.cod == objects[dst].  The diagram
    must be composition-closed: for every composable pair the composite
    lens must already appear (or be an identity).
    """

    def __init__(
        self,
        objects: Mapping[str, FinPoly],
        arrows: Sequence[tuple[str, str, str, Lens]],
    ):
        self.objects = dict(objects)
        labels = [a[0] for a in arrows]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate arrow labels {labels!r}")
        for label, src, dst, lens in arrows:
            if src not in self.objects or dst not in self.objects:
                raise ValueError(f"arrow {label!r} references unknown object")
            if lens.dom != self.objects[src] or lens.cod != self.objects[dst]:
                raise ValueError(f"arrow {label!r} lens does not match its endpoints")
        self.arrows = [tuple(a) for a in arrows]
        self._check_closed()

    def _check_closed(self):
        for la, sa, da, fa in self.arrows:
            for lb, sb, db, fb in self.arrows:
                if da != sb:
                    continue
                comp = lens_compose(fb, fa)
                if comp == lens_id(self.objects[sa]) and sa == db:
                    continue
                found = any(
                    s == sa and d == db and f == comp for _, s, d, f in self.arrows
                )
                if not found:
                    raise ValueError(
                        f"diagram not composition-closed: "
                        f"missing composite of {la!r} then {lb!r}"
                    )


def limit(diagram: Diagram) -> tuple[FinPoly, dict[str, Lens]]:
    """Limit of a finite diagram: apex polynomial plus one cone leg per object.

    Apex positions are the compatible position tuples; the directions at
    one are the colimit of the constituent direction sets, glued along the
    (backward) direction maps of the diagram's arrows.
    """
    names = sorted(diagram.objects)
    pools = [diagram.objects[u].position_labels for u in names]
    apex_dirs: dict[str, FinSet] = {}
    legs_pos: dict[str, dict[str, str]] = {u: {} for u in names}
    legs_dir: dict[str, dict[str, dict[str, str]]] = {u: {} for u in names}
    for combo in itertools.product(*pools):
        tup = dict(zip(names, combo))
        ok = all(
            lens.on_pos[tup[src]] == tup[dst]
            for _, src, dst, lens in diagram.arrows
        )
        if not ok:
            continue
        apex_pos = fn_label(tup, names)
        # glue the direction sets along the arrows
        summands = []
        for u in names:
            for d in diagram.objects[u].directions(tup[u]).elements:
                summands.append(tag_label(u, d))
        total = FinSet(summands)
        rel_dom = []
        f_map = {}
        g_map = {}
        for label, src, dst, lens in diagram.arrows:
            for e in diagram.objects[dst].directions(tup[dst]).elements:
                rel = tag_label(label, e)
                rel_dom.append(rel)
                f_map[rel] = tag_label(dst, e)
                g_map[rel] = tag_label(src, lens.on_dir[tup[src]][e])
        rel_set = FinSet(rel_dom)
        quot, cls = coequalizer_set(
            SetFn(rel_set, total, f_map), SetFn(rel_set, total, g_map)
        )
        apex_dirs[apex_pos] = quot
        for u in names:
            legs_pos[u][apex_pos] = tup[u]
            legs_dir[u][apex_pos] = {
                d: cls.mapping[tag_label(u, d)]
                for d in diagram.objects[u].directions(tup[u]).elements
            }
    apex = FinPoly(apex_dirs.items())
    cone = {
        u: Lens(apex, diagram.objects[u], legs_pos[u], legs_dir[u]) for u in names
    }
    return apex, cone


def limit_terminal() -> tuple[FinPoly, dict[str, Lens]]:
    return limit(Diagram({}, []))


def limit_binary_product(p: FinPoly, q: FinPoly) -> tuple[FinPoly, dict[str, Lens]]:
    return limit(Diagram({"a": p, "b": q}, []))


def limit_equalizer(f: Lens, g: Lens) -> tuple[FinPoly, dict[str, Lens]]:
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("equalizer needs parallel lenses")
    return limit(
        Diagram({"a": f.dom, "b": f.cod}, [("f", "a", "b", f), ("g", "a", "b", g)])
    )


def limit_pullback(f: Lens, g: Lens) -> tuple[FinPoly, dict[str, Lens]]:
    if f.cod != g.cod:
        raise ValueError("pullback needs a shared codomain")
    return limit(
        Diagram(
            {"a": f.dom, "b": g.dom, "c": f.cod},
            [("f", "a", "c", f), ("g", "b", "c", g)],
        )
    )


# ---------------------------------------------------------------------------
# Factorizations.


def factor_vert_cart(f: Lens) -> tuple[Lens, Lens]:
    """f = (cartesian) ∘ (vertical), through dom positions with cod directions."""
    middle = FinPoly((i, f.cod.directions(f.on_pos[i])) for i in f.dom.position_labels)
    vert = Lens(
        f.dom,
        middle,
        {i: i for i in f.dom.position_labels},
        {i: dict(f.on_dir[i]) for i in f.dom.position_labels},
    )
    cart = Lens(
        middle,
        f.cod,
        dict(f.on_pos),
        {
            i: {d: d for d in f.cod.directions(f.on_pos[i]).elements}
            for i in f.dom.position_labels
        },
    )
    return vert, cart


def factor_epi_mono(f: Lens) -> tuple[Lens, Lens]:
    """f = (mono) ∘ (epi), through the image.

    Image positions are the forward image; directions there are the cod
    directions identified whenever no source position can tell them apart.
    """
    fibers: dict[str, list[str]] = {}
    for i in f.dom.position_labels:
        fibers.setdefault(f.on_pos[i], []).append(i)
    image_dirs: dict[str, FinSet] = {}
    quot_map: dict[str, dict[str, str]] = {}
    for j in f.cod.position_labels:
        if j not in fibers:
            continue
        fiber = fibers[j]
        rep_of: dict[tuple, str] = {}
        cls: dict[str, str] = {}
        for d in f.cod.directions(j).elements:
            sig = tuple(f.on_dir[i][d] for i in fiber)
            if sig not in rep_of:
                rep_of[sig] = d
            cls[d] = rep_of[sig]
        quot_map[j] = cls
        image_dirs[j] = FinSet(dict.fromkeys(cls.values()))
    middle = FinPoly(image_dirs.items())
    epi = Lens(
        f.dom,
        middle,
        dict(f.on_pos),
        {
            i: {
                rep: f.on_dir[i][rep]
                for rep in middle.directions(f.on_pos[i]).elements
            }
            for i in f.dom.position_labels
        },
    )
    mono = Lens(
        middle,
        f.cod,
        {j: j for j in image_dirs},
        {j: dict(quot_map[j]) for j in image_dirs},
    )
    return epi, mono


# ---------------------------------------------------------------------------
# Base change along a function between position sets.


def base_change(f: SetFn, q: FinPoly) -> FinPoly:
    """Pull q back along f: positions become f's domain, directions follow f."""
    if FinSet(q.position_labels) != f.cod:
        raise ValueError("base_change needs q's positions to be f's codomain")
    return FinPoly((a, q.directions(f.mapping[a])) for a in f.dom.elements)


def base_pushforward(f: SetFn, p: FinPoly, kind: str) -> FinPoly:
    """Push p forward along f.

    kind "left": directions over b are the product of the fiber's direction
    sets (a table per fiber member).  kind "right": their tagged sum.
    """
    if FinSet(p.position_labels) != f.dom:
        raise ValueError("base_pushforward needs p's positions to be f's domain")
    if kind not in ("left", "right"):
        raise ValueError('kind must be "left" or "right"')
    fibers: dict[str, list[str]] = {b: [] for b in f.cod.elements}
    for a in f.dom.elements:
        fibers[f.mapping[a]].append(a)

    def directions_over(b: str) -> FinSet:
        fiber = fibers[b]
        if kind == "left":
            pools = [[(a, d) for d in p.directions(a).elements] for a in fiber]
            return FinSet(fn_label(dict(combo), fiber) for combo in itertools.product(*pools))
        return FinSet(tag_label(a, d) for a in fiber for d in p.directions(a).elements)

    return FinPoly((b, directions_over(b)) for b in f.cod.elements)


# ---------------------------------------------------------------------------
# The adjunctions with Set.


def adjunction_suite(a_set: FinSet, p: FinPoly, q: FinPoly) -> dict:
    """Check the Set adjunctions by explicit round-tripped bijections.

    Covers: lenses Ay→p vs functions A→p(1); lenses p→A vs functions
    p(1)→A; lenses A→p vs functions A→p(0); functions A→Γp vs lenses
    p→y^A; and the three-way bijection lenses Ap→q vs lenses p→q^A vs
    functions A→(lenses p→q).
    """
    checks = []

    def record(name, ok):
        checks.append({"name": name, "ok": bool(ok)})

    lin = linear(a_set)
    # Ay → p  vs  A → p(1)
    lhs = hom_enumerate(lin, p)
    funcs = list(_all_maps(a_set.elements, p.position_labels))

    def fwd1(lens):
        return {a: lens.on_pos[a] for a in a_set.elements}

    def bwd1(table):
        return Lens(
            lin,
            p,
            dict(table),
            {a: {d: "*" for d in p.directions(table[a]).elements} for a in a_set.elements},
        )

    ok = len(lhs) == len(funcs) and all(bwd1(fwd1(l)) == l for l in lhs)
    record("linear_vs_positions", ok)

    # p → A  vs  p(1) → A
    const_a = constant(a_set)
    lhs = hom_enumerate(p, const_a)
    funcs = list(_all_maps(p.position_labels, a_set.elements))

    def fwd2(lens):
        return dict(lens.on_pos)

    def bwd2(table):
        return Lens(p, const_a, dict(table), {i: {} for i in p.position_labels})

    ok = len(lhs) == len(funcs) and all(bwd2(fwd2(l)) == l for l in lhs)
    record("constant_vs_positions", ok)

    # A → p  vs  A → p(0)
    zero_positions = [i for i in p.position_labels if len(p.directions(i)) == 0]
    lhs = hom_enumerate(const_a, p)
    funcs = list(_all_maps(a_set.elements, zero_positions))

    def fwd3(lens):
        return dict(lens.on_pos)

    def bwd3(table):
        return Lens(const_a, p, dict(table), {a: {} for a in a_set.elements})

    ok = len(lhs) == len(funcs) and all(bwd3(fwd3(l)) == l for l in lhs)
    record("constant_vs_constant_positions", ok)

    # A → Γp  vs  p → y^A
    gamma = global_sections(p)
    funcs = list(_all_maps(a_set.elements, gamma.elements))
    ypow = representable(a_set)
    lhs = hom_enumerate(p, ypow)

    def fwd4(table):
        on_dir = {}
        for i in p.position_labels:
            on_dir[i] = {a: split_fn(table[a])[i] for a in a_set.elements}
        return Lens(p, ypow, {i: "*" for i in p.position_labels}, on_dir)

    def bwd4(lens):
        return {
            a: fn_label(
                {i: lens.on_dir[i][a] for i in p.position_labels}, p.position_labels
            )
            for a in a_set.elements
        }

    ok = len(funcs) == len(lhs) and all(bwd4(fwd4(t)) == t for t in funcs)
    record("sections_vs_representable", ok)

    # Ap → q  vs  p → q^A  vs  A → hom(p,q)
    ap = sum_many([(a, p) for a in a_set.elements])
    n_left = hom_count(ap, q)
    n_mid = hom_count(p, cartesian_closure(q, const_a))
    n_right = hom_count(p, q) ** len(a_set)
    record("two_variable_counts", n_left == n_mid == n_right)

    def fwd5(lens):
        # restrict along each coproduct injection
        out = {}
        for a in a_set.elements:
            out[a] = Lens(
                p,
                q,
                {i: lens.on_pos[tag_label(a, i)] for i in p.position_labels},
                {i: dict(lens.on_dir[tag_label(a, i)]) for i in p.position_labels},
            )
        return out

    def bwd5(parts):
        on_pos = {}
        on_dir = {}
        for a in a_set.elements:
            for i in p.position_labels:
                on_pos[tag_label(a, i)] = parts[a].on_pos[i]
                on_dir[tag_label(a, i)] = dict(parts[a].on_dir[i])
        return Lens(ap, q, on_pos, on_dir)

    sample = hom_enumerate(ap, q)
    if len(sample) > 200:
        sample = sample[:200]
    ok = all(bwd5(fwd5(l)) == l for l in sample)
    record("two_variable_restriction_round_trip", ok)

    return {"checks": checks, "all_ok": all(c["ok"] for c in checks)}
