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

import functools
import itertools
import math
from typing import Callable, Mapping, Sequence

from polydyn.core import (
    COMPOSE_LIMIT,
    ONE,
    Y,
    ZERO,
    FinPoly,
    FinSet,
    Lens,
    SetFn,
    SizeLimitError,
    _all_maps,
    _table_labels,
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


class _Ordered:
    """Cache key for a polynomial that also tells apart its orders.

    FinPoly equality ignores the order of positions and directions, but
    the labels and the order of every cached construction depend on both.
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
            and all(
                x.elements == y.elements for x, y in zip(a._dirs.values(), b._dirs.values())
            )
        )


def _ordered_cache(fn):
    """Memoise a function of polynomials, keyed on their orders as well.

    Cached results are shared between callers and must not be mutated.
    """
    @functools.lru_cache(maxsize=8192)
    def cached(*keys):
        return fn(*(k.poly for k in keys))

    @functools.wraps(fn)
    def wrapper(*polys):
        return cached(*map(_Ordered, polys))

    wrapper.cache_info = cached.cache_info
    wrapper.cache_clear = cached.cache_clear
    return wrapper


def sum_many(items: Sequence[tuple[str, FinPoly]]) -> FinPoly:
    """Disjoint sum: positions tagged by key, directions untouched."""
    keys = [k for k, _ in items]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate summand keys {keys!r}")
    return FinPoly(
        (tag_label(key, i), dirs) for key, p in items for i, dirs in p._dirs.items()
    )


@_ordered_cache
def poly_sum(p: FinPoly, q: FinPoly) -> FinPoly:
    return sum_many([("0", p), ("1", q)])


def _check_size(operation: str, predicted: int) -> None:
    """Refuse a construction whose predicted size is above COMPOSE_LIMIT."""
    if predicted > COMPOSE_LIMIT:
        raise SizeLimitError(operation, predicted, COMPOSE_LIMIT)


def _product_size(counts: list[int], dir_totals: list[int]) -> int:
    """Positions plus direction labels of a cartesian product whose factors
    have these position counts and direction-label totals: each factor's
    labels recur once per choice of the other factors' positions."""
    return math.prod(counts) + sum(
        d * math.prod(counts[:k] + counts[k + 1:]) for k, d in enumerate(dir_totals)
    )


def product_many(items: Sequence[tuple[str, FinPoly]]) -> FinPoly:
    """Cartesian product: position tuples, direction tagged-sums.

    The result has ∏ p(1) positions, and each factor's direction labels
    recur once per choice of the other factors' positions; above
    COMPOSE_LIMIT for positions plus direction labels this raises
    SizeLimitError before building anything.
    """
    keys = [k for k, _ in items]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate factor keys {keys!r}")
    _check_size(
        "product_many",
        _product_size(
            [p.num_positions() for _, p in items],
            [sum(map(len, p._dirs.values())) for _, p in items],
        ),
    )
    return FinPoly(
        (
            pair_label(*[i for i, _ in combo]),
            FinSet(
                tag_label(key, d) for key, (_, dset) in zip(keys, combo) for d in dset.elements
            ),
        )
        for combo in itertools.product(*[p._dirs.items() for _, p in items])
    )


@_ordered_cache
def poly_product(p: FinPoly, q: FinPoly) -> FinPoly:
    return product_many([("0", p), ("1", q)])


def tensor_many(polys: Sequence[FinPoly]) -> FinPoly:
    """Parallel product: position tuples, direction tuples.

    The result has ∏ p(1) positions carrying ∏ Σ_i |p_i| direction labels
    in all; above COMPOSE_LIMIT for their sum this raises SizeLimitError
    before building anything.
    """
    _check_size(
        "tensor_many",
        math.prod(p.num_positions() for p in polys)
        + math.prod(sum(map(len, p._dirs.values())) for p in polys),
    )
    return FinPoly(
        (
            pair_label(*[i for i, _ in combo]),
            FinSet(
                pair_label(*d)
                for d in itertools.product(*[dset.elements for _, dset in combo])
            ),
        )
        for combo in itertools.product(*[p._dirs.items() for p in polys])
    )


@_ordered_cache
def poly_tensor(p: FinPoly, q: FinPoly) -> FinPoly:
    return tensor_many([p, q])


def _compose_positions(p: FinPoly, n: int) -> int:
    """|(p∘q)(1)| = Σ_i n^|p_i| for a q with n positions."""
    return sum(n ** len(dirs) for dirs in p._dirs.values())


def _compose_direction_labels(p: FinPoly, n: int, dir_total: int) -> int:
    """The direction labels of p∘q, for a q with n positions carrying
    dir_total labels in all.

    Over the n^|p_i| positions at i, each direction of p_i meets each
    q-position n^(|p_i|-1) times, so the total is
    Σ_i |p_i| · n^(|p_i|-1) · dir_total.
    """
    return sum(
        len(dirs) * n ** (len(dirs) - 1) * dir_total for dirs in p._dirs.values() if dirs
    )


def poly_compose(p: FinPoly, q: FinPoly) -> FinPoly:
    """Substitution p∘q: a p-position plus a q-position chosen per direction.

    p∘q has Σ_i |q(1)|^|p_i| positions; above COMPOSE_LIMIT this raises
    SizeLimitError before building anything.
    """
    _check_size("poly_compose", _compose_positions(p, q.num_positions()))
    return _poly_compose(p, q)


@_ordered_cache
def _poly_compose(p: FinPoly, q: FinPoly) -> FinPoly:
    qlabels = q.position_labels
    # Positions whose chosen targets have the same direction lists share
    # one direction set; each distinct list gets a small integer.
    kinds: dict[tuple, int] = {}
    qkind = {v: kinds.setdefault(q.directions(v).elements, len(kinds)) for v in qlabels}
    qdirs = {v: q.directions(v).elements for v in qlabels}

    def positions():
        for i, dirs in p._dirs.items():
            ds = dirs.elements
            shared: dict[tuple, FinSet] = {}
            tables = itertools.product(qlabels, repeat=len(ds))
            for label, values in zip(_table_labels(i, ds, qlabels), tables):
                profile = tuple(map(qkind.__getitem__, values))
                dset = shared.get(profile)
                if dset is None:
                    dset = shared[profile] = FinSet(
                        tuple(pair_label(d, e) for d, v in zip(ds, values) for e in qdirs[v])
                    )
                yield label, dset

    return FinPoly(positions())


def compose_power(p: FinPoly, n: int) -> FinPoly:
    """p∘p∘...∘p, right-nested; the 0th power is the substitution unit y.

    The k-th power has n_k positions, where n_1 = p(1) and
    n_(k+1) = Σ_i n_k^|p_i|.  Every power to be built is predicted before
    the first of them, and the first above COMPOSE_LIMIT raises
    SizeLimitError.
    """
    if n < 0:
        raise ValueError("power must be non-negative")
    if n == 0:
        return Y
    count = p.num_positions()
    for _ in range(n - 1):
        count = _compose_positions(p, count)
        _check_size("compose_power", count)
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
        poly_compose(Y, p), p, lambda i: split_fn(_second(i))["*"], lambda i, d: _second(d)
    )


def compose_right_unitor(p: FinPoly) -> tuple[Lens, Lens]:
    """p ∘ y ≅ p."""
    return _relabel_iso(poly_compose(p, Y), p, _first, lambda i, d: _first(d))


def _rebracket_compose(label: str) -> str:
    """((i,[d:j,...]),[(d,e):k,...]) ↦ (i,[d:(j,[e:k,...]),...])."""
    # tables list their entries in the order of the direction sets they read
    x, psi_lab = split_pair(label)
    i, phi_lab = split_pair(x)
    phi = split_fn(phi_lab)
    psi = {d: {} for d in phi}
    for de, k in split_fn(psi_lab).items():
        d, e = split_pair(de)
        psi[d][e] = k
    chi = {d: pair_label(j, fn_label(psi[d], psi[d])) for d, j in phi.items()}
    return pair_label(i, fn_label(chi, phi))


def compose_associator(p: FinPoly, q: FinPoly, r: FinPoly) -> tuple[Lens, Lens]:
    """(p∘q)∘r ≅ p∘(q∘r)."""
    return _relabel_iso(
        poly_compose(poly_compose(p, q), r),
        poly_compose(p, poly_compose(q, r)),
        _rebracket_compose,
        lambda i, d: _rebracket(d),
    )


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
            for table in _all_maps(q.directions(j).elements, src_dirs):
                opts.append((j, table))
        per_pos.append(opts)
    for combo in itertools.product(*per_pos):
        on_pos = {i: j for i, (j, _) in zip(pos_labels, combo)}
        on_dir = {i: dict(t) for i, (_, t) in zip(pos_labels, combo)}
        yield Lens._make(p, q, on_pos, on_dir)


def hom_enumerate(p: FinPoly, q: FinPoly) -> list[Lens]:
    """Every lens p → q in hom_iter's order; above COMPOSE_LIMIT lenses
    this raises SizeLimitError before building any."""
    _check_size("hom_enumerate", hom_count(p, q))
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
    return FinSet(out)


# ---------------------------------------------------------------------------
# Closures and currying.


@_ordered_cache
def cartesian_closure(q: FinPoly, p: FinPoly) -> FinPoly:
    """The exponential q^p for the cartesian product."""
    factors = []
    for i in p.position_labels:
        inner = poly_sum(constant(p.directions(i)), Y)
        factors.append((i, poly_compose(q, inner)))
    return product_many(factors)


@_ordered_cache
def dirichlet_closure(p: FinPoly, q: FinPoly) -> FinPoly:
    """The internal hom [p,q] for the parallel product."""
    factors = []
    for i in p.position_labels:
        inner = linear(p.directions(i))
        factors.append((i, poly_compose(q, inner)))
    return product_many(factors)


def _curry(f: Lens, p: FinPoly, q: FinPoly, r: FinPoly, cod: FinPoly, split) -> Lens:
    """Turn f: p·q → r into p → cod, one closure factor per q position.

    split(value) reads one backward value of f at a pair position and
    returns the closure component's entry for that r direction together
    with the p direction it asks for, or None when q answers it.
    """
    on_pos = {}
    on_dir = {}
    for i in p.position_labels:
        comps = []
        back = {}
        for j in q.position_labels:
            src = pair_label(i, j)
            k = f.on_pos[src]
            table = f.on_dir[src]
            dirs = r.directions(k).elements
            phi = {}
            for dr in dirs:
                phi[dr], d = split(table[dr])
                if d is not None:
                    back[tag_label(j, pair_label(dr, "*"))] = d
            comps.append(pair_label(k, fn_label(phi, dirs)))
        on_pos[i] = pair_label(*comps)
        on_dir[i] = back
    return Lens._make(p, cod, on_pos, on_dir)


def _uncurry(g: Lens, p: FinPoly, q: FinPoly, r: FinPoly, dom: FinPoly, merge) -> Lens:
    """Turn g: p → closure back into dom → r, where dom is p·q.

    merge(entry, d) inverts _curry's split: from a closure component's
    entry and g's backward value d (None when g has none) it rebuilds the
    backward value at the pair position.
    """
    on_pos = {}
    on_dir = {}
    for i in p.position_labels:
        back = g.on_dir[i]
        for j, comp in zip(q.position_labels, split_pair(g.on_pos[i])):
            k, phi_label = split_pair(comp)
            phi = split_fn(phi_label)
            src = pair_label(i, j)
            on_pos[src] = k
            on_dir[src] = {
                dr: merge(phi[dr], back.get(tag_label(j, pair_label(dr, "*"))))
                for dr in r.directions(k).elements
            }
    return Lens._make(dom, r, on_pos, on_dir)


def _split_cartesian(value: str) -> tuple:
    # a q direction points at its constant in q_j + y; a p direction at y
    tag, d = split_tag(value)
    if tag == "1":
        return tag_label("0", d), None
    return tag_label("1", "*"), d


def _merge_cartesian(entry: str, d) -> str:
    tag, e = split_tag(entry)
    return tag_label("1", e) if tag == "0" else tag_label("0", d)


def _split_dirichlet(value: str) -> tuple:
    d, e = split_pair(value)
    return e, d


def _merge_dirichlet(entry: str, d: str) -> str:
    return pair_label(d, entry)


def curry_cartesian(f: Lens, p: FinPoly, q: FinPoly, r: FinPoly) -> Lens:
    """Turn f: p×q → r into p → r^q."""
    if f.dom != poly_product(p, q) or f.cod != r:
        raise ValueError("curry_cartesian expects f: p×q → r for the given p, q, r")
    return _curry(f, p, q, r, cartesian_closure(r, q), _split_cartesian)


def uncurry_cartesian(g: Lens, p: FinPoly, q: FinPoly, r: FinPoly) -> Lens:
    """Turn g: p → r^q back into p×q → r."""
    if g.dom != p or g.cod != cartesian_closure(r, q):
        raise ValueError("uncurry_cartesian expects g: p → r^q for the given p, q, r")
    return _uncurry(g, p, q, r, poly_product(p, q), _merge_cartesian)


def curry_dirichlet(f: Lens, p: FinPoly, q: FinPoly, r: FinPoly) -> Lens:
    """Turn f: p⊗q → r into p → [q,r]."""
    if f.dom != poly_tensor(p, q) or f.cod != r:
        raise ValueError("curry_dirichlet expects f: p⊗q → r for the given p, q, r")
    return _curry(f, p, q, r, dirichlet_closure(q, r), _split_dirichlet)


def uncurry_dirichlet(g: Lens, p: FinPoly, q: FinPoly, r: FinPoly) -> Lens:
    """Turn g: p → [q,r] back into p⊗q → r."""
    if g.dom != p or g.cod != dirichlet_closure(q, r):
        raise ValueError("uncurry_dirichlet expects g: p → [q,r] for the given p, q, r")
    return _uncurry(g, p, q, r, poly_tensor(p, q), _merge_dirichlet)


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


def _distribute_position(label: str) -> str:
    """(0|(i,j),[0|d:k,...,1|e:k,...]) ↦ 0|((i,[d:k,...]),(j,[e:k,...]))
    and (1|k,φ) ↦ 1|(k,φ), keeping each table's entry order."""
    x, phi_lab = split_pair(label)
    tag, inner = split_tag(x)
    if tag == "1":
        return tag_label("1", pair_label(inner, phi_lab))
    halves = ({}, {})
    for td, k in split_fn(phi_lab).items():
        t, d = split_tag(td)
        halves[int(t)][d] = k
    return tag_label(
        "0",
        pair_label(*(pair_label(i, fn_label(h, h)) for i, h in zip(split_pair(inner), halves))),
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
