import itertools
import random

import pytest
import sympy

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
    canonical_form,
    constant,
    eval_poly,
    fn_label,
    is_cartesian,
    is_epi,
    is_vertical,
    lens_compose,
    lens_id,
    linear,
    make_poly,
    monomial,
    pair_label,
    representable,
)
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
    product_pair,
    product_proj,
    product_right_unitor,
    product_symmetry,
    sum_associator,
    sum_inj,
    sum_left_unitor,
    sum_many,
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


def test_compose_of_six_state_carriers_stays_allowed():
    six = FinSet(tuple(f"s{k}" for k in range(6)))
    s6 = monomial(six, six)
    assert poly_compose(s6, s6).num_positions() == 6 * 6**6 == 279_936


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


def test_hom_enumerate_order_deterministic():
    p = poly_of((1, 1))
    q = poly_of((1, 1), (0, 1))
    first = [(l.on_pos, l.on_dir) for l in hom_enumerate(p, q)]
    second = [(l.on_pos, l.on_dir) for l in hom_enumerate(p, q)]
    assert first == second
    # target positions appear in codomain order
    targets = [l.on_pos["i0"] for l in hom_enumerate(p, q)]
    assert targets == sorted(targets, key=q.position_labels.index)


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
