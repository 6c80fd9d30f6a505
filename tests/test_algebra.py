import copy
import hashlib
import itertools
import pickle
import random
import sys
import time
import tracemalloc

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _table_labels,
    canonical_form,
    canonical_json,
    constant,
    eval_poly,
    fn_label,
    is_cartesian,
    is_epi,
    is_vertical,
    lens_compose,
    lens_id,
    lens_to_json,
    linear,
    make_poly,
    monomial,
    pair_label,
    poly_to_json,
    representable,
    split_fn,
    split_pair,
)
from polydyn import algebra
from polydyn.algebra import (
    COMPOSE_LIMIT,
    Diagram,
    adjunction_suite,
    base_change,
    base_pushforward,
    cartesian_closure,
    complete_distributivity_instance,
    compose_associator,
    compose_left_unitor,
    compose_map,
    compose_power,
    compose_right_unitor,
    curry_cartesian,
    curry_dirichlet,
    uncurry_cartesian,
    uncurry_dirichlet,
    dirichlet_closure,
    distribute_left,
    duoidal,
    factor_epi_mono,
    factor_vert_cart,
    global_sections,
    hom_count,
    hom_enumerate,
    hom_iter,
    initial_lens,
    limit,
    limit_binary_product,
    limit_equalizer,
    limit_pullback,
    limit_terminal,
    poly_compose,
    poly_product,
    poly_sum,
    poly_tensor,
    product_associator,
    product_left_unitor,
    product_many,
    product_map,
    product_pair,
    product_proj,
    product_right_unitor,
    product_symmetry,
    sum_associator,
    sum_inj,
    sum_left_unitor,
    sum_many,
    sum_map,
    sum_right_unitor,
    sum_symmetry,
    tensor_associator,
    tensor_left_unitor,
    tensor_many,
    tensor_map,
    tensor_right_unitor,
    tensor_symmetry,
    terminal_lens,
)

from polydyn.comonoid import cofree_truncation, contractible

from conftest import random_lens, random_poly


def poly_of(*coeffs):
    """Build Σ count·y^deg from (deg, count) pairs, fresh labels per call."""
    spec = []
    n = 0
    for deg, count in coeffs:
        for _ in range(count):
            spec.append((f"i{n}", [f"d{n}_{k}" for k in range(deg)]))
            n += 1
    return make_poly(spec)


_Y = sympy.symbols("y")


def expand(p: FinPoly):
    """Independent numeric oracle: the polynomial as a sympy expression."""
    expr = sympy.Integer(0)
    for i in p.position_labels:
        expr += _Y ** len(p.directions(i))
    return sympy.expand(expr)


def check_iso_pair(fwd: Lens, bwd: Lens):
    assert lens_compose(bwd, fwd) == lens_id(fwd.dom)
    assert lens_compose(fwd, bwd) == lens_id(fwd.cod)


def small_reps(max_positions, max_dirs):
    """One polynomial per isomorphism class within the size bound."""
    out = []
    for n in range(max_positions + 1):
        for counts in itertools.combinations_with_replacement(
            range(max_dirs + 1), n
        ):
            out.append(
                make_poly(
                    (f"i{i}", [f"d{i}_{k}" for k in range(c)])
                    for i, c in enumerate(counts)
                )
            )
    return out


# ---------------------------------------------------------------------------
# The four operations: frozen values and the expansion oracle.


def test_sum_example():
    lhs = poly_sum(poly_of((2, 1), (0, 1)), poly_of((1, 3), (0, 1)))
    assert canonical_form(lhs) == canonical_form(poly_of((2, 1), (1, 3), (0, 2)))


def test_product_example():
    lhs = poly_product(poly_of((1, 1), (0, 1)), poly_of((1, 1), (0, 2)))
    assert canonical_form(lhs) == canonical_form(poly_of((2, 1), (1, 3), (0, 2)))


def test_tensor_example():
    lhs = poly_tensor(poly_of((3, 1), (1, 1)), poly_of((2, 1), (0, 1)))
    assert canonical_form(lhs) == canonical_form(poly_of((6, 1), (2, 1), (0, 2)))


def test_compose_example():
    lhs = poly_compose(poly_of((2, 1), (1, 1)), poly_of((3, 1), (0, 1)))
    assert canonical_form(lhs) == canonical_form(poly_of((6, 1), (3, 3), (0, 2)))


def test_compose_is_refused_above_its_size_limit_before_building():
    # y^22 + 1 substituted into 2: 2^22 + 1 positions, one over the limit
    p = make_poly([("big", [f"d{k}" for k in range(22)]), ("c", [])])
    two = constant(FinSet(("u", "v")))
    with pytest.raises(SizeLimitError) as info:
        poly_compose(p, two)
    assert isinstance(info.value, ValueError)
    assert info.value.operation == "poly_compose"
    assert info.value.predicted == 2**22 + 1
    assert info.value.limit == COMPOSE_LIMIT == 2**22
    assert str(2**22 + 1) in str(info.value)


def test_product_is_refused_above_its_size_limit_before_building():
    # 2^11 positions with one direction each, squared: 2^22 positions, at
    # the limit, but 2^23 direction labels on top of them
    p = linear(FinSet(tuple(f"a{k}" for k in range(2**11))))
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as info:
        poly_product(p, p)
    assert time.perf_counter() - start < 0.1
    assert info.value.operation == "product_many"
    assert info.value.predicted == 3 * 2**22
    assert str(info.value) == (
        f"product_many would build {3 * 2**22} positions plus direction labels, "
        f"above the limit of {COMPOSE_LIMIT}"
    )


def test_product_prediction_counts_positions_plus_direction_labels(monkeypatch):
    rng = random.Random(11)
    for _ in range(20):
        items = [(str(k), random_poly(rng)) for k in range(rng.randint(0, 3))]
        built = product_many(items)
        size = built.num_positions() + sum(len(dirs) for _, dirs in built.positions)
        with monkeypatch.context() as m:
            m.setattr(algebra, "COMPOSE_LIMIT", size)
            assert product_many(items) == built
            m.setattr(algebra, "COMPOSE_LIMIT", size - 1)
            with pytest.raises(SizeLimitError) as info:
                product_many(items)
        assert info.value.predicted == size


def test_closures_are_refused_above_the_product_limit_before_building():
    q = make_poly([("a", ["x"]), ("b", [])])
    p = linear(FinSet(tuple(f"i{k}" for k in range(25))))
    # q^p has a factor q∘(1 + y) per position of p, 3 positions and one
    # direction each; [p, q] has a factor q∘y, 2 positions and one direction
    for build, n in ((lambda: cartesian_closure(q, p), 3), (lambda: dirichlet_closure(p, q), 2)):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError) as info:
            build()
        assert time.perf_counter() - start < 0.1
        assert info.value.operation == "product_many"
        assert info.value.predicted == n**25 + 25 * n**24


def test_compose_of_six_state_carriers_stays_allowed():
    six = FinSet(tuple(f"s{k}" for k in range(6)))
    s6 = monomial(six, six)
    assert poly_compose(s6, s6).num_positions() == 6 * 6**6 == 279_936


# ---------------------------------------------------------------------------
# p∘q is a view read from p and q: the eager listing it replaced is the oracle.


def _reference_poly_compose(p: FinPoly, q: FinPoly):
    """The (label, directions) pairs of p∘q in order, from the eager
    generator poly_compose built every position with before p∘q became a
    view read from p and q (algebra._ComposeView)."""
    qlabels = q.position_labels
    kinds: dict[tuple, int] = {}
    qkind = {v: kinds.setdefault(q.directions(v).elements, len(kinds)) for v in qlabels}
    qdirs = {v: q.directions(v).elements for v in qlabels}
    for i, dirs in p.positions:
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


def _fresh_compose(p: FinPoly, q: FinPoly) -> FinPoly:
    """p∘q as poly_compose builds it, past its cache, so nothing has read it."""
    return FinPoly._make(algebra._ComposeView(p, q))


def _backslashed(s: str) -> str:
    return "".join("\\" + ch if ch in "(),[]:|\\" else ch for ch in s)


def _near_misses(p: FinPoly, label: str) -> list:
    """Keys next to a position label of p∘q that are no position of it.
    No label of the polynomials below contains "?"."""
    i, table = split_pair(label)
    phi = split_fn(table)
    ds = p.directions(i).elements
    legacy = "[" + ",".join(_backslashed(d) + ":" + _backslashed(phi[d]) for d in ds) + "]"
    out = [
        "(" + _backslashed(i) + "," + _backslashed(legacy) + ")",
        pair_label("?", table),
        5,
        None,
        (i, table),
    ]
    if ds:
        out.append(pair_label(i, fn_label(phi, ds[:-1])))
        out.append(pair_label(i, fn_label({**phi, ds[0]: "?"}, ds)))
    if len(ds) > 1:
        out.append(pair_label(i, fn_label(phi, ds[::-1])))
    return out


# small labels, special characters included, and direction sets of
# different sizes, the empty one included
_VIEW_LABELS = st.text(alphabet=list("ab(,[:{\\"), max_size=2)
_VIEW_POLYS = st.lists(
    st.tuples(_VIEW_LABELS, st.lists(_VIEW_LABELS, max_size=2, unique=True)),
    max_size=3,
    unique_by=lambda entry: entry[0],
).map(make_poly)


@settings(max_examples=200, deadline=1000, derandomize=True)
@given(_VIEW_POLYS, _VIEW_POLYS)
def test_compose_view_agrees_with_the_eager_reference(p, q):
    reference = list(_reference_poly_compose(p, q))
    eager = FinPoly(reference)
    view = _fresh_compose(p, q)
    store = view._dirs
    assert view.num_positions() == len(store) == len(reference)
    # point reads, before anything lists the view
    before = {label: view.directions(label) for label, _ in reference}
    for label, _ in reference:
        assert all(miss not in store and store.get(miss) is None for miss in _near_misses(p, label))
    assert store._listing is None
    # the listing: key for key, in order, the same direction sets
    assert view.position_labels == tuple(label for label, _ in reference)
    for (label, got), (_, want) in zip(store.items(), reference):
        assert got.elements == want.elements
        assert view.directions(label) is before[label] is got
    for label, _ in reference:
        assert all(miss not in store for miss in _near_misses(p, label))
    # equality and hashing against the eager polynomial, either way round
    assert _fresh_compose(p, q) == eager and eager == _fresh_compose(p, q)
    assert hash(_fresh_compose(p, q)) == hash(eager) == hash(view)
    for round_trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        assert round_trip(_fresh_compose(p, q)) == eager == round_trip(view)


def test_compose_cache_tells_apart_orders():
    p1 = make_poly([("a", ["x", "y"])])
    p2 = make_poly([("a", ["y", "x"])])
    q = make_poly([("u", ["e"]), ("v", [])])
    poly_compose(p1, q)
    lens = compose_map(lens_id(p2), lens_id(q))
    assert lens.dom.position_labels == tuple(
        pair_label("a", fn_label({"y": j, "x": k}, ["y", "x"]))
        for j in ("u", "v")
        for k in ("u", "v")
    )
    # direction order follows the targets' own direction order
    q1 = make_poly([("u", ["e", "f"])])
    q2 = make_poly([("u", ["f", "e"])])
    poly_compose(Y, q1)
    (_, dirs), = poly_compose(Y, q2).positions
    assert dirs.elements == (pair_label("*", "f"), pair_label("*", "e"))


def test_units():
    rng = random.Random(3)
    for _ in range(10):
        p = random_poly(rng)
        assert canonical_form(poly_sum(p, ZERO)) == canonical_form(p)
        assert canonical_form(poly_product(p, ONE)) == canonical_form(p)
        assert canonical_form(poly_tensor(p, Y)) == canonical_form(p)
        assert canonical_form(poly_compose(p, Y)) == canonical_form(p)
        assert canonical_form(poly_compose(Y, p)) == canonical_form(p)


def test_operations_match_expansion_oracle():
    rng = random.Random(5)
    for _ in range(15):
        p = random_poly(rng, max_positions=3, max_dirs=3)
        q = random_poly(rng, max_positions=3, max_dirs=3)
        ep, eq = expand(p), expand(q)
        assert expand(poly_sum(p, q)) == sympy.expand(ep + eq)
        assert expand(poly_product(p, q)) == sympy.expand(ep * eq)
        # parallel product multiplies exponents: substitute termwise
        et = sympy.Integer(0)
        for i in p.position_labels:
            for j in q.position_labels:
                et += _Y ** (len(p.directions(i)) * len(q.directions(j)))
        assert expand(poly_tensor(p, q)) == sympy.expand(et)
        # substitution composes: p evaluated at q
        ec = sympy.Integer(0)
        for i in p.position_labels:
            ec += eq ** len(p.directions(i))
        assert expand(poly_compose(p, q)) == sympy.expand(ec)


def test_tensor_distributes_over_sum():
    rng = random.Random(7)
    for _ in range(8):
        p, q, r = (random_poly(rng) for _ in range(3))
        lhs = poly_tensor(p, poly_sum(q, r))
        rhs = poly_sum(poly_tensor(p, q), poly_tensor(p, r))
        assert canonical_form(lhs) == canonical_form(rhs)


def test_direction_sizes_product_vs_tensor():
    rng = random.Random(9)
    for _ in range(8):
        p = random_poly(rng, min_positions=1)
        q = random_poly(rng, min_positions=1)
        prod = poly_product(p, q)
        tens = poly_tensor(p, q)
        pairs = [
            (i, j) for i in p.position_labels for j in q.position_labels
        ]
        assert prod.num_positions() == tens.num_positions() == len(pairs)
        for lab_prod, lab_tens, (i, j) in zip(
            prod.position_labels, tens.position_labels, pairs
        ):
            ni, nj = len(p.directions(i)), len(q.directions(j))
            assert len(prod.directions(lab_prod)) == ni + nj
            assert len(tens.directions(lab_tens)) == ni * nj


def test_compose_at_constant_matches_eval():
    for p in small_reps(3, 3):
        for size in range(4):
            a = FinSet(tuple(f"a{k}" for k in range(size)))
            composed = poly_compose(p, constant(a))
            assert composed.num_positions() == len(eval_poly(p, a))


def test_eval_functoriality_of_compose():
    rng = random.Random(11)
    for _ in range(10):
        p = random_poly(rng, max_positions=2, max_dirs=2)
        q = random_poly(rng, max_positions=2, max_dirs=2)
        for size in (0, 1, 2):
            x = FinSet(tuple(f"x{k}" for k in range(size)))
            lhs = eval_poly(poly_compose(p, q), x)
            rhs = eval_poly(p, eval_poly(q, x))
            assert len(lhs) == len(rhs)


def test_compose_power():
    p = poly_of((1, 2))
    assert compose_power(p, 0) == Y
    assert compose_power(p, 1) == p
    assert canonical_form(compose_power(p, 3)) == canonical_form(poly_of((1, 8)))
    with pytest.raises(ValueError):
        compose_power(p, -1)


def _direction_labels(p):
    return sum(len(dirs) for _, dirs in p.positions)


def test_compose_prediction_counts_positions_and_direction_labels():
    rng = random.Random(15)
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        built = poly_compose(p, q)
        n = q.num_positions()
        assert algebra._compose_positions(p, n) == built.num_positions()
        assert algebra._compose_direction_labels(p, n, _direction_labels(q)) == (
            _direction_labels(built)
        )


def _compose_view(p, q):
    # p∘q as poly_compose builds it, without its cache
    return FinPoly._make(algebra._ComposeView(p, q))


def test_compose_counts_read_nested_views_from_their_factors():
    rng = random.Random(38)
    for _ in range(300):
        p, q, r = (random_poly(rng, max_positions=2, max_dirs=2) for _ in range(3))
        for view in (_compose_view(_compose_view(p, q), r), _compose_view(p, _compose_view(q, r))):
            counts = [algebra._compose_counts(view, n) for n in range(4)]
            assert view._dirs._listing is None
            sizes = [len(dirs) for _, dirs in view.positions]
            assert counts == [
                (sum(n**k for k in sizes), sum(k * n ** (k - 1) for k in sizes if k))
                for n in range(4)
            ]


def test_size_checks_count_a_compose_view_without_listing_it():
    # y^4∘(40·y^3) has 2,560,000 positions of 12 directions, y^3∘(60·y^3)
    # 216,000 of 9; each is refused from counts read off its factors
    def view(k, n):
        ds = FinSet(("x", "y", "z"))
        return poly_compose(
            monomial(FinSet(("o",)), FinSet(tuple(f"d{j}" for j in range(k)))),
            monomial(FinSet(tuple(f"v{j}" for j in range(n))), ds),
        )

    big, small = view(4, 40), view(3, 60)
    cases = [
        ("product_many", big, lambda: product_many([("0", big), ("1", Y)]), 40**4 * 14),
        ("tensor_many", small, lambda: tensor_many([small, small]), 60**6 + (60**3 * 9) ** 2),
    ]
    for operation, c, build, predicted in cases:
        tracemalloc.start()
        start = time.perf_counter()
        with pytest.raises(SizeLimitError) as info:
            build()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (info.value.operation, info.value.predicted) == (operation, predicted)
        assert elapsed < 0.1 and peak < 5 * 2**20
        assert c._dirs._listing is None


def _nine_direction_view():
    # y^3∘(60·y^3): 216,000 positions of 9 directions, built unlisted
    return _compose_view(
        monomial(FinSet(("o",)), FinSet(("d0", "d1", "d2"))),
        monomial(FinSet(tuple(f"v{j}" for j in range(60))), FinSet(("x", "y", "z"))),
    )


def test_cached_products_refuse_a_compose_view_without_listing_it():
    # the cache key of a view is its factors, so the size check comes first
    c = _nine_direction_view()
    for operation, build in (("product_many", poly_product), ("tensor_many", poly_tensor)):
        tracemalloc.start()
        start = time.perf_counter()
        with pytest.raises(SizeLimitError) as info:
            build(c, c)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert info.value.operation == operation
        assert elapsed < 0.1 and peak < 5 * 2**20
        assert c._dirs._listing is None


def test_a_view_cache_key_equals_only_a_key_over_the_same_factors():
    p, q = make_poly([("a", ("l", "r"))]), make_poly([("u", ("x",)), ("v", ())])
    view = _compose_view(p, q)
    keys = [algebra._Ordered(x) for x in (view, _compose_view(p, q))]
    assert keys[0] == keys[1] and hash(keys[0]) == hash(keys[1])
    assert view._dirs._listing is None
    others = [_compose_view(copy.copy(p), q), FinPoly(view.positions)]
    assert all(keys[0] != algebra._Ordered(x) for x in others)
    assert all(algebra._Ordered(x) != keys[0] for x in others)


def test_hom_count_reads_a_compose_view_without_listing_it():
    c = _nine_direction_view()
    start = time.perf_counter()
    assert hom_count(Y, c) == 216_000
    assert time.perf_counter() - start < 0.01
    assert c._dirs._listing is None


def test_compose_map_equals_a_validated_rebuild():
    # compose_map builds its lens unchecked; rebuilding it through Lens(...)
    # must accept it and change nothing, key order included
    rng = random.Random(37)
    built = 0
    for _ in range(200):
        p, p2, q, q2 = (random_poly(rng, max_positions=2, max_dirs=2) for _ in range(4))
        for _ in range(rng.randint(1, 9)):
            f, g = random_lens(rng, p, p2), random_lens(rng, q, q2)
            if f is None or g is None:
                continue
            h = compose_map(f, g)
            rebuilt = Lens(h.dom, h.cod, h.on_pos, h.on_dir)
            assert list(h.on_pos.items()) == list(rebuilt.on_pos.items())
            assert [list(c.items()) for c in h.on_dir.values()] == [
                list(c.items()) for c in rebuilt.on_dir.values()
            ]
            assert list(h.on_dir) == list(rebuilt.on_dir)
            built += 1
    assert built > 200


def test_compose_power_predicts_every_power_before_building(monkeypatch):
    rng = random.Random(16)
    for _ in range(20):
        p = random_poly(rng, max_positions=2, max_dirs=2)
        n = rng.randint(2, 4)
        sizes = [compose_power(p, k).num_positions() for k in range(2, n + 1)]
        with monkeypatch.context() as m:
            m.setattr(algebra, "COMPOSE_LIMIT", max(sizes))
            assert compose_power(p, n).num_positions() == sizes[-1]
            for limit in sorted(set(sizes))[:-1]:
                # the first power above the limit is the one refused
                m.setattr(algebra, "COMPOSE_LIMIT", limit)
                with pytest.raises(SizeLimitError) as info:
                    compose_power(p, n)
                assert info.value.operation == "compose_power"
                assert info.value.predicted == next(k for k in sizes if k > limit)


def test_compose_power_is_refused_before_building_the_first_power():
    # y^2 + 1 has powers of 2, 5, 26, 677 and 458,330 positions; the sixth
    # would have 458,330^2 + 1, and refusing it must not build the fifth
    p = make_poly([("a", ("l", "r")), ("b", ())])
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as info:
        compose_power(p, 6)
    assert time.perf_counter() - start < 0.1
    assert info.value.operation == "compose_power"
    assert info.value.predicted == 458_330**2 + 1
    assert str(info.value) == (
        f"compose_power would build {458_330**2 + 1} positions, "
        f"above the limit of {COMPOSE_LIMIT}"
    )


# ---------------------------------------------------------------------------
# Structure isomorphisms.


def test_unitors_are_two_sided():
    rng = random.Random(13)
    for _ in range(6):
        p = random_poly(rng, max_positions=3, max_dirs=3)
        for builder in (
            sum_left_unitor,
            sum_right_unitor,
            product_left_unitor,
            product_right_unitor,
            tensor_left_unitor,
            tensor_right_unitor,
            compose_left_unitor,
            compose_right_unitor,
        ):
            fwd, bwd = builder(p)
            check_iso_pair(fwd, bwd)
            assert fwd.cod == p


def test_associators_and_symmetries_are_two_sided():
    rng = random.Random(17)
    for _ in range(6):
        p = random_poly(rng, max_positions=3, max_dirs=3)
        q = random_poly(rng, max_positions=3, max_dirs=3)
        r = random_poly(rng, max_positions=3, max_dirs=3)
        for builder in (sum_associator, product_associator, tensor_associator):
            fwd, bwd = builder(p, q, r)
            check_iso_pair(fwd, bwd)
        for builder in (sum_symmetry, product_symmetry, tensor_symmetry):
            fwd, bwd = builder(p, q)
            check_iso_pair(fwd, bwd)
    # substitution associator at smaller scale (its middle objects blow up)
    for _ in range(4):
        p = random_poly(rng, max_positions=2, max_dirs=2)
        q = random_poly(rng, max_positions=2, max_dirs=2)
        r = random_poly(rng, max_positions=2, max_dirs=2)
        fwd, bwd = compose_associator(p, q, r)
        check_iso_pair(fwd, bwd)
        assert fwd.dom == poly_compose(poly_compose(p, q), r)
        assert fwd.cod == poly_compose(p, poly_compose(q, r))



# The three symmetric monoidal products, each as (unit, product, action on
# lenses, left unitor, right unitor, associator, symmetry).
_SYMMETRIC_MONOIDAL = {
    "sum": (
        ZERO, poly_sum, sum_map, sum_left_unitor, sum_right_unitor, sum_associator, sum_symmetry
    ),
    "product": (
        ONE,
        poly_product,
        product_map,
        product_left_unitor,
        product_right_unitor,
        product_associator,
        product_symmetry,
    ),
    "tensor": (
        Y,
        poly_tensor,
        tensor_map,
        tensor_left_unitor,
        tensor_right_unitor,
        tensor_associator,
        tensor_symmetry,
    ),
}


@pytest.mark.parametrize("name", sorted(_SYMMETRIC_MONOIDAL))
def test_monoidal_coherence_holds_exactly(name):
    unit, op, act, left, right, assoc, sym = _SYMMETRIC_MONOIDAL[name]

    def a(x, y, z):
        return assoc(x, y, z)[0]

    def s(x, y):
        return sym(x, y)[0]

    def then(*lenses):
        out = lenses[0]
        for f in lenses[1:]:
            out = lens_compose(f, out)
        return out

    rng = random.Random(19)
    for _ in range(15):
        p, q, r, t = (random_poly(rng, max_positions=2, max_dirs=2) for _ in range(4))
        ip, iq, ir, it = map(lens_id, (p, q, r, t))
        # pentagon
        assert then(act(a(p, q, r), it), a(p, op(q, r), t), act(ip, a(q, r, t))) == then(
            a(op(p, q), r, t), a(p, q, op(r, t))
        )
        # triangle
        assert then(a(p, unit, q), act(ip, left(q)[0])) == act(right(p)[0], iq)
        # the symmetry is an involution
        assert then(s(p, q), s(q, p)) == lens_id(op(p, q))
        # hexagon
        assert then(a(p, q, r), s(p, op(q, r)), a(q, r, p)) == then(
            act(s(p, q), ir), a(q, p, r), act(iq, s(p, r))
        )


# Every special character of the label codec, in positions and directions.
_SPECIAL = make_poly([("p|q", ["(x)", "d:e"]), ("u,v", ["w\\z"]), ("{[m]}", [])])


def _polys(arity, size=3):
    """Inputs of a polynomial builder: _SPECIAL everywhere, then seeded draws."""

    def make(rng):
        if rng is None:
            return [_SPECIAL] * arity
        return [random_poly(rng, max_positions=size, max_dirs=size) for _ in range(arity)]

    return make


def _distributivity_input(rng):
    if rng is None:
        a_set = FinSet(("p|q", "[m]"))
        index = {"p|q": FinSet(("(x)", "d:e")), "[m]": FinSet(("u,v", "w\\z"))}
        return a_set, index, {(a, i): _SPECIAL for a in a_set.elements for i in index[a].elements}
    labels = ["a", "p|q", "(x)", "d:e", "u,v", "w\\z", "[m]"]
    a_set = FinSet(tuple(rng.sample(labels, rng.randint(0, 2))))
    index = {a: FinSet(tuple(rng.sample(labels, rng.randint(1, 2)))) for a in a_set.elements}
    polys = {
        (a, i): random_poly(rng, max_positions=2, max_dirs=2)
        for a in a_set.elements
        for i in index[a].elements
    }
    return a_set, index, polys


# name: (builder, input maker, seeded draws after the fixed input)
_ISO_PIN_CASES = {
    **{
        b.__name__: (b, _polys(1), 6)
        for b in (
            sum_left_unitor,
            sum_right_unitor,
            product_left_unitor,
            product_right_unitor,
            tensor_left_unitor,
            tensor_right_unitor,
            compose_left_unitor,
            compose_right_unitor,
        )
    },
    **{
        b.__name__: (b, _polys(3), 6)
        for b in (sum_associator, product_associator, tensor_associator)
    },
    **{
        b.__name__: (b, _polys(2), 6)
        for b in (sum_symmetry, product_symmetry, tensor_symmetry)
    },
    "compose_associator": (compose_associator, _polys(3, size=2), 4),
    "distribute_left": (distribute_left, _polys(4, size=2), 4),
    "complete_distributivity_instance": (
        complete_distributivity_instance,
        _distributivity_input,
        6,
    ),
}

# sha256 over both lenses of every input: canonical JSON plus the key order
# of on_pos and of every on_dir component.
_ISO_PINS = {
    "complete_distributivity_instance": "6d9167f7fe1eefcde5e2f136e3844acb7dd0ac42cfa1a75b8d741eb99872da16",
    "compose_associator": "2370e35065f98305b9e318a6f54d088c30b29ed9c398966a084320e5b91aa106",
    "compose_left_unitor": "65f10e08df0e2577a34112d7766b9d634e32aca0a0695f38f8b98690884953cb",
    "compose_right_unitor": "6a60c3e69d6e7610dba8377ac6480785bb8fb0864fdc29cac258b02f9ba91102",
    "distribute_left": "38014001b62e58338951416589ece9c74175cdc56218583111c37b42613c1203",
    "product_associator": "3e0465562664335bf667fa68bf5c5e808be54a38356d6bf98fdfe293ff52ee93",
    "product_left_unitor": "4312126929ed2d217e00e70592784a42522378d60f3d5f93ebe52ab5abcb39c4",
    "product_right_unitor": "42a30fea18796ddb4e274274785470dae11ba4d4d42dccc6ad70d5377afabe51",
    "product_symmetry": "260739deb031dc5a2be4f9be82547cc5c49825b7be8b817928b9e33d3e5b0b94",
    "sum_associator": "030534d490d5e9331d69cfc6564537b130b2206b9d2b07a73e7bdc98c35af2b1",
    "sum_left_unitor": "6d1fc7415e78ec7b9c5ac35e1b05319b31725629b156e625c0a6fe02f5d6a3e8",
    "sum_right_unitor": "d165b2b6d7d806bcad7845c277ef47f439cf8f25db671e097cadbeeb09b2156c",
    "sum_symmetry": "171f62a950b7b03bc1f644fcdb588790e8d5111f8bee0dc7262bac2b51be0c12",
    "tensor_associator": "e1aa4161aca799985ea3dcd4b46f17dd95af5fc5952ac208469d0762c19896d8",
    "tensor_left_unitor": "65788da530a9616b23085f5b3d33fe3796d6ab67c81d59460ff1634565158c05",
    "tensor_right_unitor": "e8a8f2cb7ae06ab8de45d9ca3e6cd29154d00e64e89cc68313f69b72a82c7483",
    "tensor_symmetry": "7fa6b861fceea034bb436c120b8f0760c1eb25d7c628dd97912a752efb79dc4e",
}


def _iso_digest(name):
    builder, make, seeds = _ISO_PIN_CASES[name]
    inputs = [make(None)] + [make(random.Random(f"iso-pin/{name}/{k}")) for k in range(seeds)]
    h = hashlib.sha256()
    for args in inputs:
        for lens in builder(*args):
            h.update(canonical_json(lens_to_json(lens)).encode())
            h.update(repr(list(lens.on_pos)).encode())
            h.update(repr([(i, list(c)) for i, c in lens.on_dir.items()]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_ISO_PIN_CASES))
def test_structure_isos_match_their_pinned_labels(name):
    assert _iso_digest(name) == _ISO_PINS[name]

def test_injections_pairings_projections():
    p = poly_of((2, 1), (0, 1))
    q = poly_of((1, 2))
    items = [("L", p), ("R", q)]
    inj = sum_inj(items, "L")
    assert inj.dom == p and inj.cod == sum_many(items)
    pr0 = product_proj(p, q, 0)
    pr1 = product_proj(p, q, 1)
    c = poly_of((2, 1))
    f = random_lens(random.Random(1), c, p)
    g = random_lens(random.Random(2), c, q)
    pair = product_pair(f, g)
    assert lens_compose(pr0, pair) == f
    assert lens_compose(pr1, pair) == g
    assert terminal_lens(p).cod == ONE
    assert initial_lens(p).dom == ZERO


# ---------------------------------------------------------------------------
# Hom-sets.


def test_hom_count_frozen_example():
    p = poly_of((2, 1), (1, 3), (0, 2))
    q = poly_of((5, 1), (0, 1))
    assert hom_count(p, q) == (2**5 + 1) * (1 + 1) ** 3 * (0 + 1) ** 2 == 264


def test_hom_count_representables_and_terminal():
    a = FinSet(("a1", "a2", "a3"))
    b = FinSet(("b1", "b2"))
    assert hom_count(representable(a), representable(b)) == len(a) ** len(b)
    rng = random.Random(19)
    for _ in range(8):
        p = random_poly(rng)
        assert hom_count(p, ONE) == 1


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit before 3.11"
)
def test_a_prediction_too_long_for_str_is_refused_by_its_digit_count():
    # 15,000 positions of 2 directions: 2^15000 lenses to y, 4516 digits,
    # past the interpreter's default limit of 4300 digits that str() turns
    # into a plain ValueError
    p = make_poly((f"p{i}", ["a", "b"]) for i in range(15000))
    with pytest.raises(SizeLimitError) as info:
        hom_enumerate(p, Y)
    assert info.value.predicted == 2**15000
    if 0 < sys.get_int_max_str_digits() < 4516:
        assert str(info.value) == (
            f"hom_enumerate would build a 4516-digit number of lenses, "
            f"above the limit of {COMPOSE_LIMIT}"
        )


def test_hom_enumerate_matches_count_exhaustively():
    reps = small_reps(3, 2)
    for p in reps:
        for q in reps:
            n = hom_count(p, q)
            if n > 2000:
                continue
            lenses = hom_enumerate(p, q)
            assert len(lenses) == n
            assert len(set(lenses)) == n


def test_hom_enumerate_is_refused_above_the_limit_before_building():
    # 23 positions with two directions each into y: 2^23 lenses
    p = make_poly([(f"i{k}", ("l", "r")) for k in range(23)])
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as info:
        hom_enumerate(p, Y)
    assert time.perf_counter() - start < 0.1
    assert info.value.operation == "hom_enumerate"
    assert info.value.predicted == hom_count(p, Y) == 2**23
    assert str(info.value) == (
        f"hom_enumerate would build {2**23} lenses, above the limit of {COMPOSE_LIMIT}"
    )


def test_hom_enumerate_prediction_is_the_hom_count(monkeypatch):
    rng = random.Random(17)
    for _ in range(20):
        p, q = random_poly(rng, max_dirs=2), random_poly(rng, max_dirs=2)
        n = hom_count(p, q)
        if not 0 < n <= 2000:
            continue
        with monkeypatch.context() as m:
            m.setattr(algebra, "COMPOSE_LIMIT", n)
            assert len(hom_enumerate(p, q)) == n
            m.setattr(algebra, "COMPOSE_LIMIT", n - 1)
            with pytest.raises(SizeLimitError) as info:
                hom_enumerate(p, q)
        assert info.value.predicted == n


def test_hom_enumerate_order_deterministic():
    p = poly_of((1, 1))
    q = poly_of((1, 1), (0, 1))
    first = [(l.on_pos, l.on_dir) for l in hom_enumerate(p, q)]
    second = [(l.on_pos, l.on_dir) for l in hom_enumerate(p, q)]
    assert first == second
    # target positions appear in codomain order
    targets = [l.on_pos["i0"] for l in hom_enumerate(p, q)]
    assert targets == sorted(targets, key=q.position_labels.index)


def test_hom_iter_lenses_do_not_share_tables():
    p = make_poly([("a", ["x", "y"]), ("b", ["z"])])
    q = make_poly([("u", ["e"])])
    ls = list(hom_iter(p, q))
    want = copy.deepcopy(ls[1].on_dir)
    ls[0].on_dir["b"]["e"] = "overwritten"
    assert ls[1].on_dir == want


def test_global_sections():
    assert len(global_sections(poly_of((2, 1), (1, 3), (0, 2)))) == 0
    assert len(global_sections(poly_of((3, 1)))) == 3
    assert len(global_sections(ONE)) == 0
    assert len(global_sections(ZERO)) == 1
    rng = random.Random(23)
    for _ in range(8):
        p = random_poly(rng)
        assert len(global_sections(p)) == len(hom_enumerate(p, Y))


# ---------------------------------------------------------------------------
# Closures.


def test_cartesian_closure_frozen_expansion():
    p = poly_of((2, 1), (1, 3), (0, 2))
    q = poly_of((5, 1), (4, 1))
    got = expand(cartesian_closure(p, q))
    assert got == sympy.expand((_Y**2 + 13 * _Y + 42) * (_Y**2 + 11 * _Y + 30))
    assert got == sympy.expand(
        ((5 + _Y) ** 2 + 3 * (5 + _Y) + 2) * ((4 + _Y) ** 2 + 3 * (4 + _Y) + 2)
    )


def test_dirichlet_closure_frozen_expansion():
    p = poly_of((5, 1), (4, 1))
    q = poly_of((2, 1), (1, 3), (0, 2))
    got = expand(dirichlet_closure(p, q))
    assert got == sympy.expand((25 * _Y**2 + 15 * _Y + 2) * (16 * _Y**2 + 12 * _Y + 2))


def test_closure_units():
    rng = random.Random(29)
    for _ in range(6):
        q = random_poly(rng)
        assert canonical_form(cartesian_closure(q, ONE)) == canonical_form(q)
        assert canonical_form(cartesian_closure(q, ZERO)) == canonical_form(ONE)
        assert canonical_form(dirichlet_closure(Y, q)) == canonical_form(q)


def test_closures_represent_homs():
    rng = random.Random(31)
    for _ in range(8):
        p = random_poly(rng, max_positions=2, max_dirs=2)
        q = random_poly(rng, max_positions=2, max_dirs=2)
        r = random_poly(rng, max_positions=2, max_dirs=2)
        assert hom_count(poly_product(p, q), r) == hom_count(p, cartesian_closure(r, q))
        assert hom_count(poly_tensor(p, q), r) == hom_count(p, dirichlet_closure(q, r))


# ---------------------------------------------------------------------------
# Currying.


def test_curry_cartesian_round_trip():
    p = poly_of((1, 1), (0, 1))
    q = poly_of((2, 1))
    r = poly_of((1, 1), (0, 1))
    pq = poly_product(p, q)
    seen = 0
    for f in hom_iter(pq, r):
        g = curry_cartesian(f, p, q, r)
        assert g.dom == p and g.cod == cartesian_closure(r, q)
        assert uncurry_cartesian(g, p, q, r) == f
        seen += 1
    assert seen == hom_count(pq, r) > 0
    for g in hom_iter(p, cartesian_closure(r, q)):
        f = uncurry_cartesian(g, p, q, r)
        assert curry_cartesian(f, p, q, r) == g


def test_curry_dirichlet_round_trip():
    p = poly_of((1, 1), (0, 1))
    q = poly_of((2, 1))
    r = poly_of((1, 1), (0, 1))
    tq = poly_tensor(p, q)
    seen = 0
    for f in hom_iter(tq, r):
        g = curry_dirichlet(f, p, q, r)
        assert g.dom == p and g.cod == dirichlet_closure(q, r)
        assert uncurry_dirichlet(g, p, q, r) == f
        seen += 1
    assert seen == hom_count(tq, r) > 0
    for g in hom_iter(p, dirichlet_closure(q, r)):
        f = uncurry_dirichlet(g, p, q, r)
        assert curry_dirichlet(f, p, q, r) == g


def test_curry_projection():
    # currying the projection p×1 → p lands in p^1 ≅ p via its only component
    p = poly_of((1, 1), (0, 1))
    proj = product_proj(p, ONE, 0)
    g = curry_cartesian(proj, p, ONE, p)
    assert g.dom == p and g.cod == cartesian_closure(p, ONE)
    assert canonical_form(g.cod) == canonical_form(p)
    # forward map stays position-faithful through the single factor
    for i in p.position_labels:
        assert i in g.on_pos[i]


def test_curry_shape_errors():
    p = poly_of((1, 1))
    with pytest.raises(ValueError):
        curry_cartesian(lens_id(p), p, p, p)
    with pytest.raises(ValueError):
        uncurry_dirichlet(lens_id(p), p, p, p)


# Each cached constructor next to an uncached build of the same polynomial.
CACHED_CONSTRUCTIONS = {
    "poly_sum": (poly_sum, lambda p, q: sum_many([("0", p), ("1", q)])),
    "poly_product": (poly_product, lambda p, q: product_many([("0", p), ("1", q)])),
    "poly_tensor": (poly_tensor, lambda p, q: tensor_many([p, q])),
    "cartesian_closure": (
        cartesian_closure,
        lambda q, p: product_many([
            (i, poly_compose(q, sum_many([("0", constant(p.directions(i))), ("1", Y)])))
            for i in p.position_labels
        ]),
    ),
    "dirichlet_closure": (
        dirichlet_closure,
        lambda p, q: product_many([
            (i, poly_compose(q, linear(p.directions(i)))) for i in p.position_labels
        ]),
    ),
}


@pytest.mark.parametrize("name", sorted(CACHED_CONSTRUCTIONS))
def test_cached_constructions_do_not_depend_on_cache_history(name):
    cached, build = CACHED_CONSTRUCTIONS[name]
    p1 = make_poly([("a", ["x", "y"])])
    p2 = make_poly([("a", ["y", "x"])])
    cached.cache_clear()
    for p in (p1, p2):
        got = canonical_json(poly_to_json(cached(p, p)))
        assert got == canonical_json(poly_to_json(build(p, p)))


CURRY_KINDS = {
    "cartesian": (poly_product, curry_cartesian, uncurry_cartesian),
    "dirichlet": (poly_tensor, curry_dirichlet, uncurry_dirichlet),
}


@pytest.mark.parametrize("kind", sorted(CURRY_KINDS))
def test_curry_round_trips_do_not_depend_on_cache_history(kind):
    combine, curry, uncurry = CURRY_KINDS[kind]
    p = make_poly([("a", ["d", "e"]), ("b", [])])
    # r lists its directions in one order, then in the other
    r1 = make_poly([("k", ["m", "n"]), ("l", [])])
    r2 = make_poly([("k", ["n", "m"]), ("l", [])])
    cases = (
        (make_poly([("u", ["x"]), ("v", [])]), r1),
        (make_poly([("w", ["x"]), ("v", [])]), r2),
    )
    for history in (cases, cases[::-1]):
        for q, r in history:
            for f in hom_iter(combine(p, q), r):
                back = uncurry(curry(f, p, q, r), p, q, r)
                assert canonical_json(lens_to_json(back)) == canonical_json(lens_to_json(f))


@pytest.mark.parametrize("kind", sorted(CURRY_KINDS))
def test_curry_results_do_not_alias(kind):
    combine, curry, uncurry = CURRY_KINDS[kind]
    p = make_poly([("a", ["d", "e"])])
    q = make_poly([("u", ["x"])])
    r = make_poly([("k", ["m", "n"])])
    for f in hom_iter(combine(p, q), r):
        for fn, arg in ((curry, f), (uncurry, curry(f, p, q, r))):
            first = fn(arg, p, q, r)
            want = copy.deepcopy(first)
            for comp in first.on_dir.values():
                for key in comp:
                    comp[key] = "overwritten"
            assert fn(arg, p, q, r) == want


# ---------------------------------------------------------------------------
# Interchange and distributivity.


def test_duoidal_shapes():
    rng = random.Random(37)
    pool = [poly_of((1, 1), (0, 1)), poly_of((2, 1)), poly_of((1, 2)), Y, ONE]
    for _ in range(50):
        p1, p2, q1, q2 = (rng.choice(pool) for _ in range(4))
        d = duoidal(p1, p2, q1, q2)
        assert d.dom == poly_tensor(poly_compose(p1, p2), poly_compose(q1, q2))
        assert d.cod == poly_compose(poly_tensor(p1, q1), poly_tensor(p2, q2))


def test_duoidal_unit_case():
    # with inner factors y, conjugating by unitors gives the identity
    for p1, q1 in [
        (poly_of((1, 1), (0, 1)), poly_of((2, 1))),
        (poly_of((1, 2)), poly_of((1, 1), (0, 1))),
    ]:
        d = duoidal(p1, Y, q1, Y)
        left = tensor_map(compose_right_unitor(p1)[0], compose_right_unitor(q1)[0])
        t = poly_tensor(p1, q1)
        yy_unit = tensor_left_unitor(Y)[0]
        right = lens_compose(
            compose_right_unitor(t)[0], compose_map(lens_id(t), yy_unit)
        )
        assert lens_compose(right, d) == left


def test_duoidal_naturality_in_first_argument():
    p1 = poly_of((1, 1), (0, 1))
    p1b = poly_of((1, 2))
    p2 = poly_of((1, 1))
    q1 = poly_of((0, 1))
    q2 = poly_of((1, 1))
    for f1 in hom_iter(p1, p1b):
        lhs = lens_compose(
            duoidal(p1b, p2, q1, q2),
            tensor_map(
                compose_map(f1, lens_id(p2)), lens_id(poly_compose(q1, q2))
            ),
        )
        rhs = lens_compose(
            compose_map(
                tensor_map(f1, lens_id(q1)),
                tensor_map(lens_id(p2), lens_id(q2)),
            ),
            duoidal(p1, p2, q1, q2),
        )
        assert lhs == rhs


def test_distribute_left_frozen_example():
    fwd, bwd = distribute_left(Y, Y, ONE, poly_of((1, 1), (0, 1)))
    check_iso_pair(fwd, bwd)
    assert canonical_form(fwd.dom) == canonical_form(fwd.cod)


def test_distribute_left_random():
    rng = random.Random(41)
    for _ in range(6):
        p = random_poly(rng, max_positions=2, max_dirs=2)
        q = random_poly(rng, max_positions=2, max_dirs=2)
        r = random_poly(rng, max_positions=2, max_dirs=2)
        s = random_poly(rng, max_positions=2, max_dirs=2)
        fwd, bwd = distribute_left(p, q, r, s)
        check_iso_pair(fwd, bwd)
        assert fwd.dom == poly_compose(poly_sum(poly_product(p, q), r), s)


def test_complete_distributivity_instance():
    a = FinSet(("a1", "a2"))
    index = {"a1": FinSet(("x", "y")), "a2": FinSet(("x", "y"))}
    polys = {(u, i): ONE for u in a.elements for i in ("x", "y")}
    fwd, bwd = complete_distributivity_instance(a, index, polys)
    check_iso_pair(fwd, bwd)
    assert fwd.dom.num_positions() == 4 and fwd.cod.num_positions() == 4
    # empty indexing set: both sides are the empty product
    fwd, bwd = complete_distributivity_instance(FinSet(()), {}, {})
    check_iso_pair(fwd, bwd)
    assert canonical_form(fwd.dom) == canonical_form(ONE)
    assert canonical_form(fwd.cod) == canonical_form(ONE)


def test_complete_distributivity_mixed():
    a = FinSet(("a1", "a2"))
    index = {"a1": FinSet(("x",)), "a2": FinSet(("x", "y"))}
    polys = {
        ("a1", "x"): poly_of((2, 1)),
        ("a2", "x"): poly_of((1, 1)),
        ("a2", "y"): poly_of((0, 1)),
    }
    fwd, bwd = complete_distributivity_instance(a, index, polys)
    check_iso_pair(fwd, bwd)
    assert expand(fwd.dom) == expand(fwd.cod)


# ---------------------------------------------------------------------------
# Limits.


def test_limit_terminal():
    apex, cone = limit_terminal()
    assert canonical_form(apex) == canonical_form(ONE)
    assert cone == {}


def test_limit_binary_product_agrees_with_product():
    rng = random.Random(43)
    for _ in range(6):
        p = random_poly(rng, max_positions=2, max_dirs=2)
        q = random_poly(rng, max_positions=2, max_dirs=2)
        apex, cone = limit_binary_product(p, q)
        assert canonical_form(apex) == canonical_form(poly_product(p, q))
        assert set(cone) == {"a", "b"}


def test_limit_equalizer_of_equal_lenses():
    p = poly_of((2, 1), (0, 1))
    q = poly_of((1, 1), (0, 1))
    f = hom_enumerate(p, q)[1]
    apex, cone = limit_equalizer(f, f)
    assert canonical_form(apex) == canonical_form(p)


def test_limit_equalizer_frozen_example():
    yp1 = poly_of((1, 1), (0, 1))
    two = constant(FinSet(("u", "v")))
    l1 = Lens(yp1, two, {"i0": "u", "i1": "u"}, {"i0": {}, "i1": {}})
    l2 = Lens(yp1, two, {"i0": "u", "i1": "v"}, {"i0": {}, "i1": {}})
    apex, cone = limit_equalizer(l1, l2)
    # only the position where the two lenses agree survives
    assert canonical_form(apex) == canonical_form(Y)


def _check_universal_property(diagram, apex, cone, test_objects):
    for x in test_objects:
        for combo in itertools.product(
            *[hom_enumerate(x, diagram.objects[u]) for u in sorted(diagram.objects)]
        ):
            legs = dict(zip(sorted(diagram.objects), combo))
            if any(
                lens_compose(lens, legs[src]) != legs[dst]
                for _, src, dst, lens in diagram.arrows
            ):
                continue
            mediators = [
                m
                for m in hom_iter(x, apex)
                if all(
                    lens_compose(cone[u], m) == legs[u] for u in diagram.objects
                )
            ]
            assert len(mediators) == 1


def test_limit_universal_property():
    test_objects = [ONE, Y, poly_of((1, 1), (0, 1)), poly_of((2, 1))]
    yp1 = poly_of((1, 1), (0, 1))
    two = constant(FinSet(("u", "v")))
    l1 = Lens(yp1, two, {"i0": "u", "i1": "u"}, {"i0": {}, "i1": {}})
    l2 = Lens(yp1, two, {"i0": "u", "i1": "v"}, {"i0": {}, "i1": {}})
    eq_diag = Diagram({"a": yp1, "b": two}, [("f", "a", "b", l1), ("g", "a", "b", l2)])
    apex, cone = limit(eq_diag)
    _check_universal_property(eq_diag, apex, cone, test_objects)

    p = poly_of((1, 1))
    q = poly_of((1, 1), (0, 1))
    prod_diag = Diagram({"a": p, "b": q}, [])
    apex, cone = limit(prod_diag)
    _check_universal_property(prod_diag, apex, cone, test_objects)

    h1 = hom_enumerate(p, q)[0]
    h2 = hom_enumerate(q, q)[1]
    pb_diag = Diagram(
        {"a": p, "b": q, "c": q}, [("f", "a", "c", h1), ("g", "b", "c", h2)]
    )
    apex, cone = limit(pb_diag)
    _check_universal_property(pb_diag, apex, cone, test_objects)


def test_limit_pullback_entry_point():
    p = poly_of((1, 1))
    q = poly_of((1, 1), (0, 1))
    f = hom_enumerate(p, q)[0]
    apex, cone = limit_pullback(f, f)
    assert set(cone) == {"a", "b", "c"}
    assert lens_compose(f, cone["a"]) == lens_compose(f, cone["b"])


def test_diagram_rejects_missing_composite():
    p = poly_of((1, 1))
    with pytest.raises(ValueError):
        Diagram(
            {"a": p, "b": p, "c": p},
            [("f", "a", "b", lens_id(p)), ("g", "b", "c", lens_id(p))],
        )


def test_diagram_rejects_mismatched_lens():
    p = poly_of((1, 1))
    q = poly_of((2, 1))
    with pytest.raises(ValueError):
        Diagram({"a": p, "b": q}, [("f", "a", "b", lens_id(p))])


# ---------------------------------------------------------------------------
# Factorizations.


def test_factor_vert_cart():
    rng = random.Random(47)
    done = 0
    while done < 20:
        p = random_poly(rng)
        q = random_poly(rng)
        f = random_lens(rng, p, q)
        if f is None:
            continue
        v, c = factor_vert_cart(f)
        assert is_vertical(v)
        assert is_cartesian(c)
        assert lens_compose(c, v) == f
        done += 1


def test_factor_vert_cart_frozen_example():
    y2 = poly_of((2, 1))
    f = Lens(y2, Y, {"i0": "*"}, {"i0": {"*": "d0_0"}})
    v, c = factor_vert_cart(f)
    assert canonical_form(v.cod) == canonical_form(Y)
    assert v.cod.num_positions() == 1
    assert len(v.cod.directions(v.cod.position_labels[0])) == 1
    assert lens_compose(c, v) == f


def test_factor_vert_cart_of_vertical_lens():
    p = poly_of((2, 1))
    q = make_poly([("i0", ["e"])])
    f = Lens(p, q, {"i0": "i0"}, {"i0": {"e": "d0_1"}})
    v, c = factor_vert_cart(f)
    assert v.on_pos == f.on_pos and v.on_dir == f.on_dir
    assert all(c.on_dir[i] == {d: d for d in c.dom.directions(i).elements} for i in c.dom.position_labels)


def test_factor_identity():
    p = poly_of((2, 1), (0, 1))
    v, c = factor_vert_cart(lens_id(p))
    assert lens_compose(c, v) == lens_id(p)
    e, m = factor_epi_mono(lens_id(p))
    assert lens_compose(m, e) == lens_id(p)
    assert e == lens_id(p) and m == lens_id(p)


def _mono_oracle(m: Lens) -> bool:
    """Left cancellation against a separating family of sources."""
    family = [
        Y,
        poly_of((2, 1)),
        poly_of((1, 1), (0, 1)),
        poly_of((1, 2)),
        poly_of((0, 2)),
    ]
    for x in family:
        hs = hom_enumerate(x, m.dom)
        for a in range(len(hs)):
            for b in range(a + 1, len(hs)):
                if lens_compose(m, hs[a]) == lens_compose(m, hs[b]):
                    return False
    return True


def test_factor_epi_mono():
    rng = random.Random(53)
    done = 0
    while done < 15:
        p = random_poly(rng, max_positions=2, max_dirs=2)
        q = random_poly(rng, max_positions=2, max_dirs=2)
        f = random_lens(rng, p, q)
        if f is None:
            continue
        e, m = factor_epi_mono(f)
        assert is_epi(e)
        assert _mono_oracle(m)
        assert lens_compose(m, e) == f
        done += 1


def test_mono_oracle_agrees_with_structural_characterization():
    reps = [
        poly_of((1, 1)),
        poly_of((2, 1)),
        poly_of((1, 1), (0, 1)),
        poly_of((1, 2)),
        poly_of((0, 1)),
    ]
    for p in reps:
        for q in reps:
            for f in hom_iter(p, q):
                pos_inj = len(set(f.on_pos.values())) == p.num_positions()
                comp_surj = all(
                    set(f.on_dir[i].values()) == set(p.directions(i).elements)
                    for i in p.position_labels
                )
                assert _mono_oracle(f) == (pos_inj and comp_surj), (
                    f.on_pos,
                    f.on_dir,
                )


# ---------------------------------------------------------------------------
# Base change.


def test_base_change_identity():
    p = poly_of((2, 1), (1, 1))
    idf = SetFn.identity(FinSet(p.position_labels))
    assert base_change(idf, p) == p
    assert canonical_form(base_pushforward(idf, p, "left")) == canonical_form(p)
    assert canonical_form(base_pushforward(idf, p, "right")) == canonical_form(p)


def test_base_change_shapes():
    a = FinSet(("a1", "a2", "a3"))
    b = FinSet(("b1", "b2"))
    f = SetFn(a, b, {"a1": "b1", "a2": "b1", "a3": "b2"})
    q = make_poly([("b1", ["x", "y"]), ("b2", ["z"])])
    pulled = base_change(f, q)
    assert pulled.position_labels == ("a1", "a2", "a3")
    assert pulled.directions("a1") == q.directions("b1")
    assert pulled.directions("a3") == q.directions("b2")
    with pytest.raises(ValueError):
        base_change(f, make_poly([("zzz", [])]))
    with pytest.raises(ValueError):
        base_pushforward(f, q, "left")
    p = make_poly([("a1", ["u"]), ("a2", ["v", "w"]), ("a3", [])])
    with pytest.raises(ValueError):
        base_pushforward(f, p, "sideways")


def test_pushforward_merges_representables():
    f = SetFn(FinSet(("s", "t")), FinSet(("o",)), {"s": "o", "t": "o"})
    p = make_poly([("s", ["m", "n"]), ("t", ["u", "v", "w"])])
    assert canonical_form(base_pushforward(f, p, "left")) == canonical_form(
        poly_of((6, 1))
    )
    assert canonical_form(base_pushforward(f, p, "right")) == canonical_form(
        poly_of((5, 1))
    )


def _vertical_homs(p: FinPoly, q: FinPoly):
    """Lenses p → q with the identity on positions (requires equal bases)."""
    assert set(p.position_labels) == set(q.position_labels)
    pools = []
    for i in p.position_labels:
        tables = []
        src = p.directions(i).elements
        tgt = q.directions(i).elements
        if tgt and not src:
            return []
        choices = [dict(zip(tgt, vals)) for vals in itertools.product(src, repeat=len(tgt))]
        pools.append(choices)
    out = []
    for combo in itertools.product(*pools):
        out.append(
            Lens(
                p,
                q,
                {i: i for i in p.position_labels},
                dict(zip(p.position_labels, combo)),
            )
        )
    return out


def test_pushforward_adjunction_counts():
    rng = random.Random(59)
    for _ in range(12):
        na = rng.randint(0, 3)
        nb = rng.randint(1, 2)
        a = FinSet(tuple(f"a{k}" for k in range(na)))
        b = FinSet(tuple(f"b{k}" for k in range(nb)))
        f = SetFn(a, b, {e: rng.choice(b.elements) for e in a.elements})
        p = make_poly(
            (e, [f"{e}d{k}" for k in range(rng.randint(0, 2))]) for e in a.elements
        )
        q = make_poly(
            (e, [f"{e}e{k}" for k in range(rng.randint(0, 2))]) for e in b.elements
        )
        left = base_pushforward(f, p, "left")
        right = base_pushforward(f, p, "right")
        pulled = base_change(f, q)
        assert len(_vertical_homs(left, q)) == len(_vertical_homs(p, pulled))
        assert len(_vertical_homs(q, right)) == len(_vertical_homs(pulled, p))


def test_base_change_commutes_with_tensor():
    a = FinSet(("a1", "a2"))
    b = FinSet(("b1", "b2"))
    f = SetFn(a, b, {"a1": "b1", "a2": "b1"})
    q1 = make_poly([("b1", ["x"]), ("b2", ["y", "z"])])
    q2 = make_poly([("b1", ["u", "v"]), ("b2", [])])
    tens = poly_tensor(q1, q2)
    from polydyn.core import pair_label

    ff = SetFn(
        FinSet(tuple(pair_label(x, y) for x in a.elements for y in a.elements)),
        FinSet(tens.position_labels),
        {
            pair_label(x, y): pair_label(f.mapping[x], f.mapping[y])
            for x in a.elements
            for y in a.elements
        },
    )
    lhs = base_change(ff, tens)
    rhs = poly_tensor(base_change(f, q1), base_change(f, q2))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Adjunction suite.


def test_adjunction_suite_passes():
    cases = [
        (FinSet(("a", "b")), poly_of((1, 1), (0, 1)), poly_of((1, 1), (0, 1))),
        (FinSet(("a",)), poly_of((2, 1)), poly_of((1, 1))),
        (FinSet(()), poly_of((2, 1)), ONE),
        (FinSet(("a", "b")), ONE, poly_of((1, 2))),
    ]
    for a, p, q in cases:
        report = adjunction_suite(a, p, q)
        assert report["all_ok"], report
        assert len(report["checks"]) == 6


def test_curry_outputs_revalidate():
    # curried lenses are built through the unvalidated fast path; feed them
    # back through the checking constructor to confirm well-formedness.
    p = make_poly([("a", ["d", "e"]), ("b", [])])
    q = make_poly([("u", ["x"]), ("v", ["w", "z"])])
    r = make_poly([("k", ["m", "n"])])
    for f in itertools.islice(hom_iter(poly_product(p, q), r), 40):
        g = curry_cartesian(f, p, q, r)
        assert Lens(g.dom, g.cod, g.on_pos, g.on_dir) == g
        back = uncurry_cartesian(g, p, q, r)
        assert Lens(back.dom, back.cod, back.on_pos, back.on_dir) == back
    for f in itertools.islice(hom_iter(poly_tensor(p, q), r), 40):
        g = curry_dirichlet(f, p, q, r)
        assert Lens(g.dom, g.cod, g.on_pos, g.on_dir) == g
        back = uncurry_dirichlet(g, p, q, r)
        assert Lens(back.dom, back.cod, back.on_pos, back.on_dir) == back


# ---------------------------------------------------------------------------
# The sections loaded on first use.


def test_every_public_name_resolves_once():
    for name in algebra.__all__:
        first = getattr(algebra, name)
        assert getattr(algebra, name) is first, name
    assert algebra.Diagram is Diagram and algebra.adjunction_suite is adjunction_suite


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from polydyn.algebra import *", namespace)
    assert set(algebra.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(algebra, name) for name in algebra.__all__)


def test_unknown_names_are_missing():
    assert not hasattr(algebra, "no_such_name")
    with pytest.raises(AttributeError, match="module 'polydyn.algebra' has no attribute 'no_such_name'"):
        algebra.no_such_name
    assert set(algebra.__all__) <= set(dir(algebra))


def test_lazy_table_is_what_the_private_module_defines():
    import ast
    import inspect
    from polydyn import _structure

    tree = ast.parse(inspect.getsource(_structure))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert defined == algebra._STRUCTURE_NAMES
    assert all(getattr(algebra, name) is getattr(_structure, name) for name in defined)


# Every size check that reads algebra.COMPOSE_LIMIT, with a call that
# reaches it: (operation named in the error, call).
_LIMITED_CALLS = [
    ("product_many", lambda: product_many([("a", Y), ("b", Y)])),
    ("tensor_many", lambda: tensor_many([Y, Y])),
    ("poly_compose", lambda: poly_compose(Y, Y)),
    ("compose_power", lambda: compose_power(Y, 2)),
    ("hom_enumerate", lambda: hom_enumerate(Y, Y)),
    ("poly_compose", lambda: compose_associator(Y, Y, Y)),
    ("poly_compose", lambda: distribute_left(Y, Y, Y, Y)),
    (
        "product_many",
        lambda: complete_distributivity_instance(
            FinSet(("a",)), {"a": FinSet(("i",))}, {("a", "i"): Y}
        ),
    ),
    ("hom_enumerate", lambda: adjunction_suite(FinSet(("a",)), Y, Y)),
    ("poly_compose", lambda: cofree_truncation(Y, 1)),
    ("contractible", lambda: contractible(FinSet(("a",)))),
    ("eval_poly", lambda: eval_poly(Y, UNIT_SET)),
]


@pytest.mark.parametrize("operation, call", _LIMITED_CALLS)
def test_patched_compose_limit_governs_every_size_check(monkeypatch, operation, call):
    call()
    monkeypatch.setattr(algebra, "COMPOSE_LIMIT", 0)
    with pytest.raises(SizeLimitError) as info:
        call()
    assert info.value.operation == operation and info.value.limit == 0
