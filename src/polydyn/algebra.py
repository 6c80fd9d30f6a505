"""Monoidal structures on polynomials and the constructions they support.

Four ways to combine polynomials live here (disjoint sum, cartesian
product, parallel/Dirichlet product, substitution composition), each with
its action on lenses and its structure isomorphisms, plus the two
closures, hom-set counting and enumeration, distributivity witnesses,
finite limits, the two factorization systems, base change along a
position-set function, and the Set adjunctions.

Label bookkeeping is fixed once and for all:
  sum      positions "tag|i"         directions unchanged
  product  positions "(i,j)"         directions "0|d" and "1|e"
  tensor   positions "(i,j)"         directions "(d,e)"
  compose  positions "(i,[d:j,...])" directions "(d,e)"
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Mapping, Sequence

from polydyn.core import (
    ONE,
    UNIT_SET,
    Y,
    ZERO,
    FinPoly,
    FinSet,
    Lens,
    SetFn,
    SizeLimitError,
    _escape,
    coequalizer_set,
    constant,
    fn_label,
    lens_compose,
    lens_id,
    linear,
    make_poly,
    monomial,
    pair_label,
    representable,
    split_fn,
    split_pair,
    split_tag,
    tag_label,
)

__all__ = [
    "poly_sum",
    "sum_many",
    "poly_product",
    "product_many",
    "poly_tensor",
    "tensor_many",
    "poly_compose",
    "COMPOSE_LIMIT",
    "compose_power",
    "sum_map",
    "product_map",
    "tensor_map",
    "compose_map",
    "sum_inj",
    "product_pair",
    "product_proj",
    "terminal_lens",
    "initial_lens",
    "sum_left_unitor",
    "sum_right_unitor",
    "sum_associator",
    "sum_symmetry",
    "product_left_unitor",
    "product_right_unitor",
    "product_associator",
    "product_symmetry",
    "tensor_left_unitor",
    "tensor_right_unitor",
    "tensor_associator",
    "tensor_symmetry",
    "compose_left_unitor",
    "compose_right_unitor",
    "compose_associator",
    "cartesian_closure",
    "dirichlet_closure",
    "hom_count",
    "hom_enumerate",
    "hom_iter",
    "global_sections",
    "curry_cartesian",
    "uncurry_cartesian",
    "curry_dirichlet",
    "uncurry_dirichlet",
    "duoidal",
    "distribute_left",
    "complete_distributivity_instance",
    "Diagram",
    "limit",
    "limit_terminal",
    "limit_binary_product",
    "limit_equalizer",
    "limit_pullback",
    "factor_vert_cart",
    "factor_epi_mono",
    "base_change",
    "base_pushforward",
    "adjunction_suite",
]


# ---------------------------------------------------------------------------
# The four combination operations.


def sum_many(items: Sequence[tuple[str, FinPoly]]) -> FinPoly:
    """Disjoint sum: positions tagged by key, directions untouched."""
    keys = [k for k, _ in items]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate summand keys {keys!r}")
    positions = []
    for key, p in items:
        for i, dirs in p.positions:
            positions.append((tag_label(key, i), dirs))
    return FinPoly(positions)


@lru_cache(maxsize=8192)
def poly_sum(p: FinPoly, q: FinPoly) -> FinPoly:
    return sum_many([("0", p), ("1", q)])


def product_many(items: Sequence[tuple[str, FinPoly]]) -> FinPoly:
    """Cartesian product: position tuples, direction tagged-sums."""
    keys = [k for k, _ in items]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate factor keys {keys!r}")
    positions = []
    for combo in itertools.product(*[p.positions for _, p in items]):
        label = pair_label(*[i for i, _ in combo])
        dirs = []
        for (key, _), (_, dset) in zip(items, combo):
            dirs.extend(tag_label(key, d) for d in dset.elements)
        positions.append((label, FinSet(tuple(dirs))))
    return FinPoly(positions)


@lru_cache(maxsize=8192)
def poly_product(p: FinPoly, q: FinPoly) -> FinPoly:
    return product_many([("0", p), ("1", q)])


def tensor_many(polys: Sequence[FinPoly]) -> FinPoly:
    """Parallel product: position tuples, direction tuples."""
    positions = []
    for combo in itertools.product(*[p.positions for p in polys]):
        label = pair_label(*[i for i, _ in combo])
        dirs = [
            pair_label(*d)
            for d in itertools.product(*[dset.elements for _, dset in combo])
        ]
        positions.append((label, FinSet(tuple(dirs))))
    return FinPoly(positions)


@lru_cache(maxsize=8192)
def poly_tensor(p: FinPoly, q: FinPoly) -> FinPoly:
    return tensor_many([p, q])


# poly_compose refuses to build more positions than this.
COMPOSE_LIMIT = 1 << 22


class _Ordered:
    """Cache key for a polynomial that also tells apart its orders.

    FinPoly equality ignores the order of positions and directions, but
    the labels and the order of a composite depend on both.
    """

    __slots__ = ("poly",)

    def __init__(self, poly: FinPoly):
        self.poly = poly

    def __hash__(self) -> int:
        return hash(self.poly)

    def __eq__(self, other) -> bool:
        a, b = self.poly, other.poly
        return a is b or (
            a.position_labels == b.position_labels
            and all(x.elements == y.elements for (_, x), (_, y) in zip(a.positions, b.positions))
        )


def poly_compose(p: FinPoly, q: FinPoly) -> FinPoly:
    """Substitution p∘q: a p-position plus a q-position chosen per direction.

    p∘q has Σ_i |q(1)|^|p_i| positions; above COMPOSE_LIMIT this raises
    SizeLimitError before building anything.
    """
    n = q.num_positions()
    predicted = sum(n ** len(dirs) for _, dirs in p.positions)
    if predicted > COMPOSE_LIMIT:
        raise SizeLimitError("poly_compose", predicted, COMPOSE_LIMIT)
    return _poly_compose(_Ordered(p), _Ordered(q))


@lru_cache(maxsize=8192)
def _poly_compose(pk: _Ordered, qk: _Ordered) -> FinPoly:
    p, q = pk.poly, qk.poly
    qlabels = q.position_labels
    # Each position label is pair(i, table).  The table alphabet is small and
    # fixed, so pre-escape the fragments and assemble labels with one join.
    esc2_vals = {v: _escape(_escape(v)) for v in qlabels}
    # Positions whose chosen targets have the same direction lists share
    # one direction set; each distinct list gets a small integer.
    kinds: dict[tuple, int] = {}
    qkind = {v: kinds.setdefault(q.directions(v).elements, len(kinds)) for v in qlabels}
    qdirs = {v: q.directions(v).elements for v in qlabels}
    positions = []
    for i, dirs in p.positions:
        ds = dirs.elements
        prefix = "(" + _escape(i) + ",\\["
        frags = [
            {v: _escape(_escape(d)) + "\\:" + ev for v, ev in esc2_vals.items()}
            for d in ds
        ]
        shared: dict[tuple, FinSet] = {}
        for values in itertools.product(qlabels, repeat=len(ds)):
            body = "\\,".join(frag[v] for frag, v in zip(frags, values))
            profile = tuple(qkind[v] for v in values)
            dset = shared.get(profile)
            if dset is None:
                dset = shared[profile] = FinSet(
                    tuple(pair_label(d, e) for d, v in zip(ds, values) for e in qdirs[v])
                )
            positions.append((prefix + body + "\\])", dset))
    return FinPoly(positions)


def _all_tables(domain: Sequence[str], codomain: Sequence[str]):
    if not domain:
        yield {}
        return
    for values in itertools.product(codomain, repeat=len(domain)):
        yield dict(zip(domain, values))


def compose_power(p: FinPoly, n: int) -> FinPoly:
    """p∘p∘...∘p, right-nested; the 0th power is the substitution unit y."""
    if n < 0:
        raise ValueError("power must be non-negative")
    if n == 0:
        return Y
    out = p
    for _ in range(n - 1):
        out = poly_compose(p, out)
    return out


# ---------------------------------------------------------------------------
# Actions on lenses.


def sum_map(f: Lens, g: Lens) -> Lens:
    dom = poly_sum(f.dom, g.dom)
    cod = poly_sum(f.cod, g.cod)
    on_pos = {}
    on_dir = {}
    for key, h in (("0", f), ("1", g)):
        for i in h.dom.position_labels:
            lab = tag_label(key, i)
            on_pos[lab] = tag_label(key, h.on_pos[i])
            on_dir[lab] = dict(h.on_dir[i])
    return Lens(dom, cod, on_pos, on_dir)


def product_map(f: Lens, g: Lens) -> Lens:
    dom = poly_product(f.dom, g.dom)
    cod = poly_product(f.cod, g.cod)
    on_pos = {}
    on_dir = {}
    for i in f.dom.position_labels:
        for j in g.dom.position_labels:
            lab = pair_label(i, j)
            on_pos[lab] = pair_label(f.on_pos[i], g.on_pos[j])
            comp = {}
            for d, v in f.on_dir[i].items():
                comp[tag_label("0", d)] = tag_label("0", v)
            for e, v in g.on_dir[j].items():
                comp[tag_label("1", e)] = tag_label("1", v)
            on_dir[lab] = comp
    return Lens(dom, cod, on_pos, on_dir)


def tensor_map(f: Lens, g: Lens) -> Lens:
    dom = poly_tensor(f.dom, g.dom)
    cod = poly_tensor(f.cod, g.cod)
    on_pos = {}
    on_dir = {}
    for i in f.dom.position_labels:
        for j in g.dom.position_labels:
            lab = pair_label(i, j)
            on_pos[lab] = pair_label(f.on_pos[i], g.on_pos[j])
            comp = {}
            for d in f.cod.directions(f.on_pos[i]).elements:
                for e in g.cod.directions(g.on_pos[j]).elements:
                    comp[pair_label(d, e)] = pair_label(f.on_dir[i][d], g.on_dir[j][e])
            on_dir[lab] = comp
    return Lens(dom, cod, on_pos, on_dir)


def compose_map(f: Lens, g: Lens) -> Lens:
    """The action of substitution: f runs outside, g inside."""
    dom = poly_compose(f.dom, g.dom)
    cod = poly_compose(f.cod, g.cod)
    on_pos = {}
    on_dir = {}
    for lab in dom.position_labels:
        i, phi_lab = split_pair(lab)
        phi = split_fn(phi_lab)
        i2 = f.on_pos[i]
        phi2 = {}
        for d2 in f.cod.directions(i2).elements:
            phi2[d2] = g.on_pos[phi[f.on_dir[i][d2]]]
        target = pair_label(i2, fn_label(phi2, f.cod.directions(i2).elements))
        on_pos[lab] = target
        comp = {}
        for d2 in f.cod.directions(i2).elements:
            d = f.on_dir[i][d2]
            j = phi[d]
            for e2 in g.cod.directions(phi2[d2]).elements:
                comp[pair_label(d2, e2)] = pair_label(d, g.on_dir[j][e2])
        on_dir[lab] = comp
    return Lens(dom, cod, on_pos, on_dir)


def sum_inj(items: Sequence[tuple[str, FinPoly]], key: str) -> Lens:
    """Coproduct injection of one summand into sum_many(items)."""
    total = sum_many(items)
    p = dict(items)[key]
    return Lens(
        p,
        total,
        {i: tag_label(key, i) for i in p.position_labels},
        {i: {d: d for d in p.directions(i).elements} for i in p.position_labels},
    )


def product_pair(f: Lens, g: Lens) -> Lens:
    """The pairing C → p×q of two lenses out of a shared source."""
    if f.dom != g.dom:
        raise ValueError("pairing needs a shared domain")
    cod = poly_product(f.cod, g.cod)
    on_pos = {}
    on_dir = {}
    for c in f.dom.position_labels:
        on_pos[c] = pair_label(f.on_pos[c], g.on_pos[c])
        comp = {}
        for d, v in f.on_dir[c].items():
            comp[tag_label("0", d)] = v
        for e, v in g.on_dir[c].items():
            comp[tag_label("1", e)] = v
        on_dir[c] = comp
    return Lens(f.dom, cod, on_pos, on_dir)


def product_proj(p: FinPoly, q: FinPoly, side: int) -> Lens:
    """Projection p×q → p (side 0) or p×q → q (side 1)."""
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    prod = poly_product(p, q)
    target = p if side == 0 else q
    on_pos = {}
    on_dir = {}
    for lab in prod.position_labels:
        i, j = split_pair(lab)
        on_pos[lab] = i if side == 0 else j
        tgt_pos = on_pos[lab]
        on_dir[lab] = {
            d: tag_label(str(side), d) for d in target.directions(tgt_pos).elements
        }
    return Lens(prod, target, on_pos, on_dir)


def terminal_lens(p: FinPoly) -> Lens:
    """The unique lens p → 1."""
    return Lens(
        p,
        ONE,
        {i: "*" for i in p.position_labels},
        {i: {} for i in p.position_labels},
    )


def initial_lens(p: FinPoly) -> Lens:
    """The unique lens 0 → p."""
    return Lens(ZERO, p, {}, {})


# ---------------------------------------------------------------------------
# Structure isomorphisms.  Each returns a (forward, backward) pair that
# composes to the identity on both sides; all of them are relabelings.


def _relabel_iso(
    dom: FinPoly,
    cod: FinPoly,
    pos_map: Mapping[str, str],
    dir_map: Mapping[str, Mapping[str, str]],
) -> tuple[Lens, Lens]:
    """Build both directions of an iso given forward position/direction maps."""
    fwd = Lens(
        dom,
        cod,
        dict(pos_map),
        {i: {v: k for k, v in dir_map[i].items()} for i in dom.position_labels},
    )
    inv_pos = {v: k for k, v in pos_map.items()}
    bwd = Lens(
        cod,
        dom,
        inv_pos,
        {pos_map[i]: dict(dir_map[i]) for i in dom.position_labels},
    )
    return fwd, bwd


def sum_left_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """0 + p ≅ p."""
    dom = poly_sum(ZERO, p)
    pos_map = {tag_label("1", i): i for i in p.position_labels}
    dir_map = {
        tag_label("1", i): {d: d for d in p.directions(i).elements}
        for i in p.position_labels
    }
    return _relabel_iso(dom, p, pos_map, dir_map)


def sum_right_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """p + 0 ≅ p."""
    dom = poly_sum(p, ZERO)
    pos_map = {tag_label("0", i): i for i in p.position_labels}
    dir_map = {
        tag_label("0", i): {d: d for d in p.directions(i).elements}
        for i in p.position_labels
    }
    return _relabel_iso(dom, p, pos_map, dir_map)


def sum_associator(p: FinPoly, q: FinPoly, r: FinPoly) -> tuple[Lens, Lens]:
    """(p+q)+r ≅ p+(q+r)."""
    dom = poly_sum(poly_sum(p, q), r)
    cod = poly_sum(p, poly_sum(q, r))
    pos_map = {}
    dir_map = {}
    for i in p.position_labels:
        a = tag_label("0", tag_label("0", i))
        pos_map[a] = tag_label("0", i)
        dir_map[a] = {d: d for d in p.directions(i).elements}
    for j in q.position_labels:
        a = tag_label("0", tag_label("1", j))
        pos_map[a] = tag_label("1", tag_label("0", j))
        dir_map[a] = {d: d for d in q.directions(j).elements}
    for k in r.position_labels:
        a = tag_label("1", k)
        pos_map[a] = tag_label("1", tag_label("1", k))
        dir_map[a] = {d: d for d in r.directions(k).elements}
    return _relabel_iso(dom, cod, pos_map, dir_map)


def sum_symmetry(p: FinPoly, q: FinPoly) -> tuple[Lens, Lens]:
    """p + q ≅ q + p."""
    dom = poly_sum(p, q)
    cod = poly_sum(q, p)
    pos_map = {}
    dir_map = {}
    for i in p.position_labels:
        pos_map[tag_label("0", i)] = tag_label("1", i)
        dir_map[tag_label("0", i)] = {d: d for d in p.directions(i).elements}
    for j in q.position_labels:
        pos_map[tag_label("1", j)] = tag_label("0", j)
        dir_map[tag_label("1", j)] = {d: d for d in q.directions(j).elements}
    return _relabel_iso(dom, cod, pos_map, dir_map)


def product_left_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """1 × p ≅ p."""
    dom = poly_product(ONE, p)
    pos_map = {}
    dir_map = {}
    for i in p.position_labels:
        a = pair_label("*", i)
        pos_map[a] = i
        dir_map[a] = {tag_label("1", d): d for d in p.directions(i).elements}
    return _relabel_iso(dom, p, pos_map, dir_map)


def product_right_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """p × 1 ≅ p."""
    dom = poly_product(p, ONE)
    pos_map = {}
    dir_map = {}
    for i in p.position_labels:
        a = pair_label(i, "*")
        pos_map[a] = i
        dir_map[a] = {tag_label("0", d): d for d in p.directions(i).elements}
    return _relabel_iso(dom, p, pos_map, dir_map)


def product_associator(p: FinPoly, q: FinPoly, r: FinPoly) -> tuple[Lens, Lens]:
    """(p×q)×r ≅ p×(q×r)."""
    dom = poly_product(poly_product(p, q), r)
    cod = poly_product(p, poly_product(q, r))
    pos_map = {}
    dir_map = {}
    for i in p.position_labels:
        for j in q.position_labels:
            for k in r.position_labels:
                a = pair_label(pair_label(i, j), k)
                pos_map[a] = pair_label(i, pair_label(j, k))
                comp = {}
                for d in p.directions(i).elements:
                    comp[tag_label("0", tag_label("0", d))] = tag_label("0", d)
                for e in q.directions(j).elements:
                    comp[tag_label("0", tag_label("1", e))] = tag_label(
                        "1", tag_label("0", e)
                    )
                for f in r.directions(k).elements:
                    comp[tag_label("1", f)] = tag_label("1", tag_label("1", f))
                dir_map[a] = comp
    return _relabel_iso(dom, cod, pos_map, dir_map)


def product_symmetry(p: FinPoly, q: FinPoly) -> tuple[Lens, Lens]:
    """p×q ≅ q×p."""
    dom = poly_product(p, q)
    cod = poly_product(q, p)
    pos_map = {}
    dir_map = {}
    for i in p.position_labels:
        for j in q.position_labels:
            a = pair_label(i, j)
            pos_map[a] = pair_label(j, i)
            comp = {}
            for d in p.directions(i).elements:
                comp[tag_label("0", d)] = tag_label("1", d)
            for e in q.directions(j).elements:
                comp[tag_label("1", e)] = tag_label("0", e)
            dir_map[a] = comp
    return _relabel_iso(dom, cod, pos_map, dir_map)


def tensor_left_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """y ⊗ p ≅ p."""
    dom = poly_tensor(Y, p)
    pos_map = {}
    dir_map = {}
    for i in p.position_labels:
        a = pair_label("*", i)
        pos_map[a] = i
        dir_map[a] = {pair_label("*", d): d for d in p.directions(i).elements}
    return _relabel_iso(dom, p, pos_map, dir_map)


def tensor_right_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """p ⊗ y ≅ p."""
    dom = poly_tensor(p, Y)
    pos_map = {}
    dir_map = {}
    for i in p.position_labels:
        a = pair_label(i, "*")
        pos_map[a] = i
        dir_map[a] = {pair_label(d, "*"): d for d in p.directions(i).elements}
    return _relabel_iso(dom, p, pos_map, dir_map)


def tensor_associator(p: FinPoly, q: FinPoly, r: FinPoly) -> tuple[Lens, Lens]:
    """(p⊗q)⊗r ≅ p⊗(q⊗r)."""
    dom = poly_tensor(poly_tensor(p, q), r)
    cod = poly_tensor(p, poly_tensor(q, r))
    pos_map = {}
    dir_map = {}
    for i in p.position_labels:
        for j in q.position_labels:
            for k in r.position_labels:
                a = pair_label(pair_label(i, j), k)
                pos_map[a] = pair_label(i, pair_label(j, k))
                comp = {}
                for d in p.directions(i).elements:
                    for e in q.directions(j).elements:
                        for f in r.directions(k).elements:
                            comp[pair_label(pair_label(d, e), f)] = pair_label(
                                d, pair_label(e, f)
                            )
                dir_map[a] = comp
    return _relabel_iso(dom, cod, pos_map, dir_map)


def tensor_symmetry(p: FinPoly, q: FinPoly) -> tuple[Lens, Lens]:
    """p⊗q ≅ q⊗p."""
    dom = poly_tensor(p, q)
    cod = poly_tensor(q, p)
    pos_map = {}
    dir_map = {}
    for i in p.position_labels:
        for j in q.position_labels:
            a = pair_label(i, j)
            pos_map[a] = pair_label(j, i)
            dir_map[a] = {
                pair_label(d, e): pair_label(e, d)
                for d in p.directions(i).elements
                for e in q.directions(j).elements
            }
    return _relabel_iso(dom, cod, pos_map, dir_map)


def compose_left_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """y ∘ p ≅ p."""
    dom = poly_compose(Y, p)
    pos_map = {}
    dir_map = {}
    for i in p.position_labels:
        a = pair_label("*", fn_label({"*": i}, ["*"]))
        pos_map[a] = i
        dir_map[a] = {pair_label("*", e): e for e in p.directions(i).elements}
    return _relabel_iso(dom, p, pos_map, dir_map)


def compose_right_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """p ∘ y ≅ p."""
    dom = poly_compose(p, Y)
    pos_map = {}
    dir_map = {}
    for i in p.position_labels:
        dirs = p.directions(i).elements
        a = pair_label(i, fn_label({d: "*" for d in dirs}, dirs))
        pos_map[a] = i
        dir_map[a] = {pair_label(d, "*"): d for d in dirs}
    return _relabel_iso(dom, p, pos_map, dir_map)


def compose_associator(p: FinPoly, q: FinPoly, r: FinPoly) -> tuple[Lens, Lens]:
    """(p∘q)∘r ≅ p∘(q∘r)."""
    pq = poly_compose(p, q)
    dom = poly_compose(pq, r)
    cod = poly_compose(p, poly_compose(q, r))
    pos_map = {}
    dir_map = {}
    for lab in dom.position_labels:
        x_lab, psi_lab = split_pair(lab)
        i, phi_lab = split_pair(x_lab)
        phi = split_fn(phi_lab)
        psi = split_fn(psi_lab)
        p_dirs = p.directions(i).elements
        chi = {}
        for d in p_dirs:
            j = phi[d]
            q_dirs = q.directions(j).elements
            psi_d = {e: psi[pair_label(d, e)] for e in q_dirs}
            chi[d] = pair_label(j, fn_label(psi_d, q_dirs))
        pos_map[lab] = pair_label(i, fn_label(chi, p_dirs))
        comp = {}
        for d in p_dirs:
            for e in q.directions(phi[d]).elements:
                for f in r.directions(psi[pair_label(d, e)]).elements:
                    comp[pair_label(pair_label(d, e), f)] = pair_label(
                        d, pair_label(e, f)
                    )
        dir_map[lab] = comp
    return _relabel_iso(dom, cod, pos_map, dir_map)


# ---------------------------------------------------------------------------
# Hom-sets.


def hom_count(p: FinPoly, q: FinPoly) -> int:
    """Π_i Σ_j |p_i|^{|q_j|}, as an exact integer."""
    total = 1
    for i in p.position_labels:
        di = len(p.directions(i))
        total *= sum(di ** len(q.directions(j)) for j in q.position_labels)
    return total


def hom_iter(p: FinPoly, q: FinPoly):
    """Lazily yield every lens p → q in the fixed deterministic order.

    Per source position the options run lexicographically: target position
    first (in q's order), then the direction table read as a tuple in the
    target's element order with values ordered as in the source.
    """
    pos_labels = p.position_labels
    per_pos = []
    for i in pos_labels:
        opts = []
        src_dirs = p.directions(i).elements
        for j in q.position_labels:
            for table in _all_tables(q.directions(j).elements, src_dirs):
                opts.append((j, table))
        per_pos.append(opts)
    for combo in itertools.product(*per_pos):
        on_pos = {i: j for i, (j, _) in zip(pos_labels, combo)}
        on_dir = {i: t for i, (_, t) in zip(pos_labels, combo)}
        yield Lens._make(p, q, on_pos, on_dir)


def hom_enumerate(p: FinPoly, q: FinPoly) -> list[Lens]:
    return list(hom_iter(p, q))


def global_sections(p: FinPoly) -> FinSet:
    """Sections of p: one direction chosen at every position.

    Equivalently the lenses p → y; empty as soon as any position has no
    directions.  Elements are tables "[i:d,...]" in position order.
    """
    out = []
    choices = []
    for i in p.position_labels:
        dirs = p.directions(i).elements
        if not dirs:
            return FinSet(())
        choices.append([(i, d) for d in dirs])
    for combo in itertools.product(*choices):
        out.append(fn_label(dict(combo), p.position_labels))
    return FinSet(tuple(out))


# ---------------------------------------------------------------------------
# Closures and currying.


@lru_cache(maxsize=4096)
def cartesian_closure(q: FinPoly, p: FinPoly) -> FinPoly:
    """The exponential q^p for the cartesian product."""
    factors = []
    for i in p.position_labels:
        inner = poly_sum(constant(p.directions(i)), Y)
        factors.append((i, poly_compose(q, inner)))
    return product_many(factors)


@lru_cache(maxsize=4096)
def dirichlet_closure(p: FinPoly, q: FinPoly) -> FinPoly:
    """The internal hom [p,q] for the parallel product."""
    factors = []
    for i in p.position_labels:
        inner = linear(p.directions(i))
        factors.append((i, poly_compose(q, inner)))
    return product_many(factors)


@lru_cache(maxsize=65536)
def _curry_cart_option(r: FinPoly, j: str, k: str, t_vals: tuple) -> tuple:
    """Translate one pair-position option of f into closure-side data.

    t_vals lists f's backward values at the pair position in the order of
    r's directions at k.  Returns the closure component label together with
    the backward entries this option contributes at the source position.
    """
    phi = {}
    entries = []
    dirs = r.directions(k).elements
    for dr, tv in zip(dirs, t_vals):
        tag, value = split_tag(tv)
        if tag == "1":
            # answered by the q factor: point at its constant copy
            phi[dr] = tag_label("0", value)
        else:
            phi[dr] = tag_label("1", "*")
            entries.append((tag_label(j, pair_label(dr, "*")), value))
    return pair_label(k, fn_label(phi, dirs)), tuple(entries)


@lru_cache(maxsize=65536)
def _uncurry_cart_component(r: FinPoly, j: str, comp_label: str) -> tuple:
    """Decode one closure component back into a pair-position template.

    Each direction entry is (dr, literal, payload): a ready value when the q
    factor answers, otherwise the backward key to look up on the p side.
    """
    k, phi_lab = split_pair(comp_label)
    phi = split_fn(phi_lab)
    entries = []
    for dr in r.directions(k).elements:
        tag, value = split_tag(phi[dr])
        if tag == "0":
            entries.append((dr, True, tag_label("1", value)))
        else:
            entries.append((dr, False, tag_label(j, pair_label(dr, "*"))))
    return k, tuple(entries)


@lru_cache(maxsize=65536)
def _dir_values(r: FinPoly, k: str):
    """Extractor for a backward table's values in r's direction order at k."""
    dirs = r.directions(k).elements
    return lambda table: tuple(map(table.__getitem__, dirs))


@lru_cache(maxsize=65536)
def _pair_srcs(p: FinPoly, q: FinPoly) -> tuple:
    """Pair-position labels of p×q (and p⊗q) grouped by the p position."""
    return tuple(
        (i, tuple((j, pair_label(i, j)) for j in q.position_labels))
        for i in p.position_labels
    )


@lru_cache(maxsize=262144)
def _curry_cart_slice(q: FinPoly, r: FinPoly, options: tuple) -> tuple:
    """Closure-side data for one source position, from its per-j options.

    The result is shared between every lens whose slice at a position equals
    `options`; the backward dict must therefore never be mutated.
    """
    comp_labels = []
    comp = {}
    for j, (k, t_vals) in zip(q.position_labels, options):
        comp_label, entries = _curry_cart_option(r, j, k, t_vals)
        comp_labels.append(comp_label)
        comp.update(entries)
    return pair_label(*comp_labels), comp


@lru_cache(maxsize=262144)
def _uncurry_cart_template(q: FinPoly, r: FinPoly, pos_label: str) -> tuple:
    """Per-j templates for one closure position plus the backward keys used."""
    comps = split_pair(pos_label)
    per_j = []
    keys = []
    for j, comp_label in zip(q.position_labels, comps):
        k, entries = _uncurry_cart_component(r, j, comp_label)
        per_j.append((k, entries))
        for _, literal, payload in entries:
            if not literal:
                keys.append(payload)
    return tuple(per_j), tuple(keys)


@lru_cache(maxsize=262144)
def _uncurry_cart_slice(q: FinPoly, r: FinPoly, pos_label: str, gvals: tuple) -> tuple:
    """Pair-position data for one source position; dicts are shared, read only."""
    per_j, keys = _uncurry_cart_template(q, r, pos_label)
    lookup = dict(zip(keys, gvals))
    out = []
    for k, entries in per_j:
        comp = {
            dr: payload if literal else tag_label("0", lookup[payload])
            for dr, literal, payload in entries
        }
        out.append((k, comp))
    return tuple(out)


def curry_cartesian(f: Lens, p: FinPoly, q: FinPoly, r: FinPoly) -> Lens:
    """Turn f: p×q → r into p → r^q."""
    if f.dom != poly_product(p, q) or f.cod != r:
        raise ValueError("curry_cartesian expects f: p×q → r for the given p, q, r")
    cod = cartesian_closure(r, q)
    on_pos = {}
    on_dir = {}
    fpos = f.on_pos
    fdir = f.on_dir
    for i, pairs in _pair_srcs(p, q):
        opts = []
        for _, src in pairs:
            k = fpos[src]
            opts.append((k, _dir_values(r, k)(fdir[src])))
        lab, comp = _curry_cart_slice(q, r, tuple(opts))
        on_pos[i] = lab
        on_dir[i] = comp
    return Lens._make(p, cod, on_pos, on_dir)


def uncurry_cartesian(g: Lens, p: FinPoly, q: FinPoly, r: FinPoly) -> Lens:
    """Turn g: p → r^q back into p×q → r."""
    if g.dom != p or g.cod != cartesian_closure(r, q):
        raise ValueError("uncurry_cartesian expects g: p → r^q for the given p, q, r")
    dom = poly_product(p, q)
    on_pos = {}
    on_dir = {}
    gpos = g.on_pos
    gdir = g.on_dir
    for i, pairs in _pair_srcs(p, q):
        pos_label = gpos[i]
        _, keys = _uncurry_cart_template(q, r, pos_label)
        gvals = tuple(map(gdir[i].__getitem__, keys))
        per_j = _uncurry_cart_slice(q, r, pos_label, gvals)
        for (_, src), (k, comp) in zip(pairs, per_j):
            on_pos[src] = k
            on_dir[src] = comp
    return Lens._make(dom, r, on_pos, on_dir)


@lru_cache(maxsize=65536)
def _curry_dir_option(r: FinPoly, j: str, k: str, t_vals: tuple) -> tuple:
    """Like _curry_cart_option but for the parallel product closure."""
    phi = {}
    entries = []
    dirs = r.directions(k).elements
    for dr, tv in zip(dirs, t_vals):
        dp, dq = split_pair(tv)
        phi[dr] = dq
        entries.append((tag_label(j, pair_label(dr, "*")), dp))
    return pair_label(k, fn_label(phi, dirs)), tuple(entries)


@lru_cache(maxsize=65536)
def _uncurry_dir_component(r: FinPoly, j: str, comp_label: str) -> tuple:
    """Decode one [q,r] component into a pair-position template."""
    k, phi_lab = split_pair(comp_label)
    phi = split_fn(phi_lab)
    entries = tuple(
        (dr, tag_label(j, pair_label(dr, "*")), phi[dr])
        for dr in r.directions(k).elements
    )
    return k, entries


@lru_cache(maxsize=262144)
def _curry_dir_slice(q: FinPoly, r: FinPoly, options: tuple) -> tuple:
    """[q,r]-side data for one source position; shared and read only."""
    comp_labels = []
    comp = {}
    for j, (k, t_vals) in zip(q.position_labels, options):
        comp_label, entries = _curry_dir_option(r, j, k, t_vals)
        comp_labels.append(comp_label)
        comp.update(entries)
    return pair_label(*comp_labels), comp


@lru_cache(maxsize=262144)
def _uncurry_dir_template(q: FinPoly, r: FinPoly, pos_label: str) -> tuple:
    comps = split_pair(pos_label)
    per_j = []
    keys = []
    for j, comp_label in zip(q.position_labels, comps):
        k, entries = _uncurry_dir_component(r, j, comp_label)
        per_j.append((k, entries))
        for _, key, _ in entries:
            keys.append(key)
    return tuple(per_j), tuple(keys)


@lru_cache(maxsize=262144)
def _uncurry_dir_slice(q: FinPoly, r: FinPoly, pos_label: str, gvals: tuple) -> tuple:
    per_j, keys = _uncurry_dir_template(q, r, pos_label)
    lookup = dict(zip(keys, gvals))
    out = []
    for k, entries in per_j:
        comp = {dr: pair_label(lookup[key], dq) for dr, key, dq in entries}
        out.append((k, comp))
    return tuple(out)


def curry_dirichlet(f: Lens, p: FinPoly, q: FinPoly, r: FinPoly) -> Lens:
    """Turn f: p⊗q → r into p → [q,r]."""
    if f.dom != poly_tensor(p, q) or f.cod != r:
        raise ValueError("curry_dirichlet expects f: p⊗q → r for the given p, q, r")
    cod = dirichlet_closure(q, r)
    on_pos = {}
    on_dir = {}
    fpos = f.on_pos
    fdir = f.on_dir
    for i, pairs in _pair_srcs(p, q):
        opts = []
        for _, src in pairs:
            k = fpos[src]
            opts.append((k, _dir_values(r, k)(fdir[src])))
        lab, comp = _curry_dir_slice(q, r, tuple(opts))
        on_pos[i] = lab
        on_dir[i] = comp
    return Lens._make(p, cod, on_pos, on_dir)


def uncurry_dirichlet(g: Lens, p: FinPoly, q: FinPoly, r: FinPoly) -> Lens:
    """Turn g: p → [q,r] back into p⊗q → r."""
    if g.dom != p or g.cod != dirichlet_closure(q, r):
        raise ValueError("uncurry_dirichlet expects g: p → [q,r] for the given p, q, r")
    dom = poly_tensor(p, q)
    on_pos = {}
    on_dir = {}
    gpos = g.on_pos
    gdir = g.on_dir
    for i, pairs in _pair_srcs(p, q):
        pos_label = gpos[i]
        _, keys = _uncurry_dir_template(q, r, pos_label)
        gvals = tuple(map(gdir[i].__getitem__, keys))
        per_j = _uncurry_dir_slice(q, r, pos_label, gvals)
        for (_, src), (k, comp) in zip(pairs, per_j):
            on_pos[src] = k
            on_dir[src] = comp
    return Lens._make(dom, r, on_pos, on_dir)


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
        i1, phi_lab = split_pair(left)
        j1, psi_lab = split_pair(right)
        phi = split_fn(phi_lab)
        psi = split_fn(psi_lab)
        outer_dirs = [
            pair_label(d, e)
            for d in p1.directions(i1).elements
            for e in q1.directions(j1).elements
        ]
        chi = {}
        for d in p1.directions(i1).elements:
            for e in q1.directions(j1).elements:
                chi[pair_label(d, e)] = pair_label(phi[d], psi[e])
        on_pos[lab] = pair_label(pair_label(i1, j1), fn_label(chi, outer_dirs))
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


def distribute_left(
    p: FinPoly, q: FinPoly, r: FinPoly, s: FinPoly
) -> tuple[Lens, Lens]:
    """(p×q + r)∘s ≅ (p∘s)×(q∘s) + r∘s, as a two-sided iso."""
    dom = poly_compose(poly_sum(poly_product(p, q), r), s)
    cod = poly_sum(
        poly_product(poly_compose(p, s), poly_compose(q, s)), poly_compose(r, s)
    )
    pos_map = {}
    dir_map = {}
    for lab in dom.position_labels:
        x_lab, phi_lab = split_pair(lab)
        tag, inner = split_tag(x_lab)
        phi = split_fn(phi_lab)
        if tag == "0":
            i, j = split_pair(inner)
            p_dirs = p.directions(i).elements
            q_dirs = q.directions(j).elements
            phi_p = {d: phi[tag_label("0", d)] for d in p_dirs}
            phi_q = {e: phi[tag_label("1", e)] for e in q_dirs}
            left_pos = pair_label(i, fn_label(phi_p, p_dirs))
            right_pos = pair_label(j, fn_label(phi_q, q_dirs))
            pos_map[lab] = tag_label("0", pair_label(left_pos, right_pos))
            comp = {}
            for d in p_dirs:
                for f in s.directions(phi_p[d]).elements:
                    comp[pair_label(tag_label("0", d), f)] = tag_label(
                        "0", pair_label(d, f)
                    )
            for e in q_dirs:
                for f in s.directions(phi_q[e]).elements:
                    comp[pair_label(tag_label("1", e), f)] = tag_label(
                        "1", pair_label(e, f)
                    )
            dir_map[lab] = comp
        else:
            k = inner
            r_dirs = r.directions(k).elements
            pos_map[lab] = tag_label("1", pair_label(k, fn_label(phi, r_dirs)))
            dir_map[lab] = {
                pair_label(d, f): pair_label(d, f)
                for d in r_dirs
                for f in s.directions(phi[d]).elements
            }
    return _relabel_iso(dom, cod, pos_map, dir_map)


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
    pos_map = {}
    dir_map = {}
    for lab in lhs.position_labels:
        comps = split_pair(lab)
        c = {}
        inner_positions = []
        for a, comp_lab in zip(a_set.elements, comps):
            i, pos = split_tag(comp_lab)
            c[a] = i
            inner_positions.append(pos)
        c_lab = fn_label(c, a_set.elements)
        pos_map[lab] = tag_label(c_lab, pair_label(*inner_positions))
        dir_map[lab] = {d: d for d in lhs.directions(lab).elements}
    return _relabel_iso(lhs, rhs, pos_map, dir_map)


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
    positions = []
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
        total = FinSet(tuple(summands))
        rel_dom = []
        f_map = {}
        g_map = {}
        for label, src, dst, lens in diagram.arrows:
            for e in diagram.objects[dst].directions(tup[dst]).elements:
                rel = tag_label(label, e)
                rel_dom.append(rel)
                f_map[rel] = tag_label(dst, e)
                g_map[rel] = tag_label(src, lens.on_dir[tup[src]][e])
        rel_set = FinSet(tuple(rel_dom))
        quot, cls = coequalizer_set(
            SetFn(rel_set, total, f_map), SetFn(rel_set, total, g_map)
        )
        positions.append((apex_pos, quot))
        for u in names:
            legs_pos[u][apex_pos] = tup[u]
            legs_dir[u][apex_pos] = {
                d: cls.mapping[tag_label(u, d)]
                for d in diagram.objects[u].directions(tup[u]).elements
            }
    apex = FinPoly(positions)
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
    middle = FinPoly(
        tuple((i, f.cod.directions(f.on_pos[i])) for i in f.dom.position_labels)
    )
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
    image_positions = []
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
        image_positions.append((j, FinSet(tuple(dict.fromkeys(cls.values())))))
    middle = FinPoly(tuple(image_positions))
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
        {j: j for j, _ in image_positions},
        {j: dict(quot_map[j]) for j, _ in image_positions},
    )
    return epi, mono


# ---------------------------------------------------------------------------
# Base change along a function between position sets.


def base_change(f: SetFn, q: FinPoly) -> FinPoly:
    """Pull q back along f: positions become f's domain, directions follow f."""
    if FinSet(q.position_labels) != f.cod:
        raise ValueError("base_change needs q's positions to be f's codomain")
    return FinPoly(tuple((a, q.directions(f.mapping[a])) for a in f.dom.elements))


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
    positions = []
    for b in f.cod.elements:
        fiber = fibers[b]
        if kind == "left":
            pools = [[(a, d) for d in p.directions(a).elements] for a in fiber]
            elems = [
                fn_label(dict(combo), fiber) for combo in itertools.product(*pools)
            ]
        else:
            elems = [
                tag_label(a, d) for a in fiber for d in p.directions(a).elements
            ]
        positions.append((b, FinSet(tuple(elems))))
    return FinPoly(tuple(positions))


# ---------------------------------------------------------------------------
# The adjunctions with Set.


def _check_bijection(fwd, bwd, dom_list, cod_list) -> bool:
    if len(dom_list) != len(cod_list):
        return False
    seen = []
    for x in dom_list:
        y = fwd(x)
        if y not in cod_list or bwd(y) != x:
            return False
        seen.append(y)
    return len(seen) == len(cod_list)


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
    funcs = list(_all_tables(a_set.elements, p.position_labels))

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
    funcs = list(_all_tables(p.position_labels, a_set.elements))

    def fwd2(lens):
        return dict(lens.on_pos)

    def bwd2(table):
        return Lens(p, const_a, dict(table), {i: {} for i in p.position_labels})

    ok = len(lhs) == len(funcs) and all(bwd2(fwd2(l)) == l for l in lhs)
    record("constant_vs_positions", ok)

    # A → p  vs  A → p(0)
    zero_positions = [i for i in p.position_labels if len(p.directions(i)) == 0]
    lhs = hom_enumerate(const_a, p)
    funcs = list(_all_tables(a_set.elements, zero_positions))

    def fwd3(lens):
        return dict(lens.on_pos)

    def bwd3(table):
        return Lens(const_a, p, dict(table), {a: {} for a in a_set.elements})

    ok = len(lhs) == len(funcs) and all(bwd3(fwd3(l)) == l for l in lhs)
    record("constant_vs_constant_positions", ok)

    # A → Γp  vs  p → y^A
    gamma = global_sections(p)
    funcs = list(_all_tables(a_set.elements, gamma.elements))
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
