"""Monoidal structures on polynomials and the constructions they support.

Four ways to combine polynomials live here (disjoint sum, cartesian
product, parallel/Dirichlet product, substitution composition), each with
its action on lenses and its structure isomorphisms, plus the two
closures, hom-set counting and enumeration, distributivity witnesses,
finite limits, the two factorization systems, base change along a
position-set function, and the Set adjunctions.

No pipeline of the package calls these sections, so their code sits in
polydyn._structure and is compiled only when one of their names is first
read from this module:
  structure isomorphisms (the unitors, associators and symmetries)
  interchange and distributivity (duoidal, distribute_left, ...)
  finite limits (Diagram, limit, limit_*)
  factorizations (factor_vert_cart, factor_epi_mono)
  base change (base_change, base_pushforward)
  the Set adjunctions (adjunction_suite)

Label bookkeeping is fixed once and for all:
  sum      positions "tag|i"         directions unchanged
  product  positions "(i,j)"         directions "0|d" and "1|e"
  tensor   positions "(i,j)"         directions "(d,e)"
  compose  positions "(i,[d:j,...])" directions "(d,e)"

A compose position is written by _compose_label and read back by
_split_compose, and by no other code; core._table_labels lists a whole
p∘q at once in the same bytes.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from typing import Sequence

from polydyn.core import (
    ONE,
    Y,
    ZERO,
    FinPoly,
    FinSet,
    Lens,
    SizeLimitError,
    _all_maps,
    _lazy_names,
    _require,
    _table_labels,
    constant,
    fn_label,
    linear,
    pair_label,
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
    A p∘q view is keyed by the ids of its two factors, which it keeps
    alive, so a key lists no view: it equals only a view key over the
    very same factors.
    """

    __slots__ = ("poly", "_factors")

    def __init__(self, poly: FinPoly):
        self.poly = poly
        view = poly._dirs
        self._factors = (id(view.p), id(view.q)) if type(view) is _ComposeView else None

    def __hash__(self) -> int:
        return hash(self._factors or self.poly)

    def __eq__(self, other) -> bool:
        a, b = self.poly, other.poly
        if a is b:
            return True
        if self._factors or other._factors:
            return self._factors == other._factors
        return (
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


# The most a size-checked construction may build: positions, or what
# core._COUNTED names for its operation.  Every size check reads it here.
COMPOSE_LIMIT = 1 << 22


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
            [_compose_counts(p, 1)[1] for _, p in items],
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
    before building anything.  Positions whose factors share their
    direction set objects share one set of direction tuples.
    """
    _check_size(
        "tensor_many",
        math.prod(p.num_positions() for p in polys)
        + math.prod(_compose_counts(p, 1)[1] for p in polys),
    )
    shared: dict[tuple, FinSet] = {}

    def directions(combo) -> FinSet:
        key = tuple([id(dset) for _, dset in combo])
        dirs = shared.get(key)
        if dirs is None:
            dirs = shared[key] = FinSet(
                pair_label(*d)
                for d in itertools.product(*[dset.elements for _, dset in combo])
            )
        return dirs

    return FinPoly(
        (pair_label(*[i for i, _ in combo]), directions(combo))
        for combo in itertools.product(*[p._dirs.items() for p in polys])
    )


@_ordered_cache
def poly_tensor(p: FinPoly, q: FinPoly) -> FinPoly:
    return tensor_many([p, q])


def _compose_counts(p: FinPoly, n: int) -> tuple[int, int]:
    """(P(n), P′(n)) for P(n) = Σ_i n^|p_i|, counted without listing p.

    P(n) is |(p∘q)(1)| for a q with n positions, and P′(n) = Σ_i |p_i| ·
    n^(|p_i|-1) the times each direction label of q recurs in p∘q: over
    the n^|p_i| positions at i, each direction of p_i meets each
    q-position n^(|p_i|-1) times.  So P′(1) is p's own direction labels.
    A view a∘b is read from its factors, as P = A∘B and
    P′(n) = A′(B(n))·B′(n), and stays unlisted.
    """
    view = p._dirs
    if isinstance(view, _ComposeView):
        inner, inner_slope = _compose_counts(view.q, n)
        outer, outer_slope = _compose_counts(view.p, inner)
        return outer, outer_slope * inner_slope
    sizes = [len(dirs) for dirs in view.values()]
    return sum(n**k for k in sizes), sum(k * n ** (k - 1) for k in sizes if k)


def _compose_positions(p: FinPoly, n: int) -> int:
    """|(p∘q)(1)| for a q with n positions."""
    return _compose_counts(p, n)[0]


def _compose_direction_labels(p: FinPoly, n: int, dir_total: int) -> int:
    """The direction labels of p∘q, for a q with n positions carrying
    dir_total labels in all."""
    return _compose_counts(p, n)[1] * dir_total


def poly_compose(p: FinPoly, q: FinPoly) -> FinPoly:
    """Substitution p∘q: a p-position plus a q-position chosen per direction.

    p∘q has Σ_i |q(1)|^|p_i| positions; above COMPOSE_LIMIT this raises
    SizeLimitError before building anything.  Below it the result is
    read from p and q (_ComposeView): its size, its membership and its
    directions at a label cost no listing, and its positions are listed
    the first time the whole of it is read.
    """
    _check_size("poly_compose", _compose_positions(p, q.num_positions()))
    return _poly_compose(p, q)


@_ordered_cache
def _poly_compose(p: FinPoly, q: FinPoly) -> FinPoly:
    return FinPoly._make(_ComposeView(p, q))


def _compose_label(i: str, table: Mapping[str, str], order: Sequence[str]) -> str:
    """The p∘q position "(i,[d:v,...])", its table written in order."""
    return pair_label(i, fn_label(table, order))


def _split_compose(label: str) -> tuple[str, dict[str, str]]:
    """(i, table) of a p∘q position label; ValueError if it is none."""
    i, table = split_pair(label)
    return i, split_fn(table)


class _ComposeView(Mapping):
    """The label → directions store of p∘q, read from p and q.

    A position is "(i,[d:v,...])": a position i of p and a table sending
    each direction at i, in order, to a position of q.  len is
    Σ_i |q(1)|^|p_i|.  A label is a member when it decodes to such an
    (i, table) and _compose_label(i, table, p_i) gives it back byte
    for byte, so no other spelling of a position is one.  Iterating it,
    or reading its keys, items or values, lists every position in
    _table_labels order, once; the listing is kept and answers every
    later read.  A pickled or copied view is that listing, a dict.

    Positions at the same i whose targets have the same direction lists
    share one direction set, in point reads and listing alike.
    """

    __slots__ = ("p", "q", "_qdirs", "_qkind", "_shared", "_len", "_listing")

    def __init__(self, p: FinPoly, q: FinPoly):
        self.p = p
        self.q = q
        self._qdirs = {v: q.directions(v).elements for v in q.position_labels}
        # each distinct direction list of q gets a small integer
        kinds: dict[tuple, int] = {}
        self._qkind = {v: kinds.setdefault(ds, len(kinds)) for v, ds in self._qdirs.items()}
        self._shared: dict[str, dict[tuple, FinSet]] = {}
        self._len = _compose_positions(p, len(self._qdirs))
        self._listing: dict[str, FinSet] | None = None

    def _directions(self, shared: dict, ds: tuple, values: tuple) -> FinSet:
        """The directions at (i, table), the table sending ds, the
        directions at i, to values; shared holds those of i's positions."""
        profile = tuple(map(self._qkind.__getitem__, values))
        dset = shared.get(profile)
        if dset is None:
            qdirs = self._qdirs
            dset = shared[profile] = FinSet(
                tuple(pair_label(d, e) for d, v in zip(ds, values) for e in qdirs[v])
            )
        return dset

    def _decode(self, label) -> tuple | None:
        """(i, p_i's directions, the table's values) of a member, else None."""
        if not isinstance(label, str):
            return None
        try:
            i, phi = _split_compose(label)
        except ValueError:
            return None
        dirs = self.p._dirs.get(i)
        if dirs is None or tuple(phi) != dirs.elements:
            return None
        values = tuple(phi.values())
        if not all(v in self._qdirs for v in values):
            return None
        if _compose_label(i, phi, dirs.elements) != label:
            return None
        return i, dirs.elements, values

    def _listed(self) -> dict:
        if self._listing is None:
            qlabels = tuple(self._qdirs)
            table = {}
            for i, dirs in self.p._dirs.items():
                ds = dirs.elements
                shared = self._shared.setdefault(i, {})
                tables = itertools.product(qlabels, repeat=len(ds))
                for label, values in zip(_table_labels(i, ds, qlabels), tables):
                    table[label] = self._directions(shared, ds, values)
            self._listing = table
        return self._listing

    def __len__(self) -> int:
        return self._len

    def __contains__(self, label) -> bool:
        if self._listing is not None:
            return label in self._listing
        return self._decode(label) is not None

    def __getitem__(self, label) -> FinSet:
        if self._listing is not None:
            return self._listing[label]
        found = self._decode(label)
        if found is None:
            raise KeyError(label)
        i, ds, values = found
        return self._directions(self._shared.setdefault(i, {}), ds, values)

    def __iter__(self):
        return iter(self._listed())

    def keys(self):
        return self._listed().keys()

    def items(self):
        return self._listed().items()

    def values(self):
        return self._listed().values()

    def __reduce__(self):
        return dict, (self._listed(),)


def compose_power(p: FinPoly, n: int) -> FinPoly:
    """p∘p∘...∘p, right-nested; the 0th power is the substitution unit y.

    The k-th power has n_k positions, where n_1 = p(1) and
    n_(k+1) = Σ_i n_k^|p_i|.  Every power to be built is predicted before
    the first of them, and the first above COMPOSE_LIMIT raises
    SizeLimitError.
    """
    _require(n, int, "n")
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
    """The action of substitution: f runs outside, g inside.

    Each target is rendered from a position of f.cod∘g.cod, and its
    direction table in that position's direction order, so the lens is
    built unchecked, as lens_compose builds its own.
    """
    dom = poly_compose(f.dom, g.dom)
    cod = poly_compose(f.cod, g.cod)
    on_pos = {}
    on_dir = {}
    for lab in dom.position_labels:
        i, phi = _split_compose(lab)
        i2 = f.on_pos[i]
        ds2 = f.cod.directions(i2).elements
        back = f.on_dir[i]
        phi2 = {d2: g.on_pos[phi[back[d2]]] for d2 in ds2}
        on_pos[lab] = _compose_label(i2, phi2, ds2)
        comp = {}
        for d2 in ds2:
            d = back[d2]
            inner = g.on_dir[phi[d]]
            for e2 in g.cod.directions(phi2[d2]).elements:
                comp[pair_label(d2, e2)] = pair_label(d, inner[e2])
        on_dir[lab] = comp
    return Lens._make(dom, cod, on_pos, on_dir)


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
# Hom-sets.


def hom_count(p: FinPoly, q: FinPoly) -> int:
    """Π_i Σ_j |p_i|^{|q_j|}, as an exact integer; q is not listed."""
    return math.prod(_compose_positions(q, len(d)) for d in p._dirs.values())


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
            comps.append(_compose_label(k, phi, dirs))
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
            k, phi = _split_compose(comp)
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
# The sections kept in polydyn._structure, loaded on first use.

_STRUCTURE_NAMES, __getattr__, __dir__ = _lazy_names(
    globals(),
    "polydyn._structure",
    """
    _relabel_iso _rebracket _swap _rebracket_tags _flip_tag _first _second
    _untag _keep _rebracket_compose _distribute_position _distribute_direction
    _gather_tags sum_left_unitor sum_right_unitor sum_associator sum_symmetry
    product_left_unitor product_right_unitor product_associator
    product_symmetry tensor_left_unitor tensor_right_unitor tensor_associator
    tensor_symmetry compose_left_unitor compose_right_unitor compose_associator
    duoidal distribute_left complete_distributivity_instance Diagram limit
    limit_terminal limit_binary_product limit_equalizer limit_pullback
    factor_vert_cart factor_epi_mono base_change base_pushforward
    adjunction_suite
    """,
)
