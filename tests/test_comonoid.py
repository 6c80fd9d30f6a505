import itertools
import json
import time

import pytest

from polydyn.core import (
    Lens,
    SetFn,
    FinSet,
    SizeLimitError,
    Y,
    canonical_json,
    fn_label,
    lens_compose,
    lens_id,
    make_poly,
    pair_label,
    split_fn,
    split_pair,
    tag_label,
)
from polydyn.algebra import (
    COMPOSE_LIMIT,
    compose_associator,
    compose_left_unitor,
    compose_map,
    compose_power,
    compose_right_unitor,
)
from polydyn.comonoid import (
    Cofunctor,
    Comonoid,
    FinCat,
    cat_isomorphic,
    category_carrier,
    category_to_comonoid,
    check_category,
    check_cofunctor,
    check_comonoid_laws,
    check_comonoid_morphism,
    cofree_truncation,
    cofunctor_to_lens,
    comonoid_from_json,
    comonoid_sum,
    comonoid_tensor,
    comonoid_to_category,
    comonoid_to_json,
    contractible,
    discrete_comonoid,
    fincat_from_json,
    fincat_to_json,
    identity_cofunctor,
    is_cat_isomorphism,
    lens_to_cofunctor,
    nstep_behavior,
)
from polydyn.dynamics import MooreMachine, moore_to_mdds, run_open

from conftest import all_lenses


# ---------------------------------------------------------------------------
# Reference implementations.  The law checker and the behavior map in the
# library read the structure tables directly; these oracles build the full
# composite lenses through compose_map and the coherence isomorphisms, so
# agreement here pins the fast paths to the definitions.


def _diffs(law, left, right):
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


def explicit_law_report(c: Comonoid) -> dict:
    carrier = c.carrier
    ident = lens_id(carrier)
    violations = []
    left = lens_compose(
        compose_left_unitor(carrier)[0],
        lens_compose(compose_map(c.counit, ident), c.comult),
    )
    violations += _diffs("left_counit", left, ident)
    right = lens_compose(
        compose_right_unitor(carrier)[0],
        lens_compose(compose_map(ident, c.counit), c.comult),
    )
    violations += _diffs("right_counit", right, ident)
    lhs = lens_compose(
        compose_associator(carrier, carrier, carrier)[0],
        lens_compose(compose_map(c.comult, ident), c.comult),
    )
    rhs = lens_compose(compose_map(ident, c.comult), c.comult)
    violations += _diffs("coassociativity", lhs, rhs)
    return {"ok": not violations, "violations": violations}


def explicit_behavior(c: Comonoid, f: Lens, n: int) -> SetFn:
    if n == 0:
        return lens_compose(lens_id(Y), c.counit).on_pos_fn()
    power = f
    for _ in range(n - 1):
        power = compose_map(f, power)
    delta = lens_id(c.carrier)
    for _ in range(2, n + 1):
        delta = lens_compose(compose_map(lens_id(c.carrier), delta), c.comult)
    return lens_compose(power, delta).on_pos_fn()


def _records_key(report):
    return sorted(json.dumps(v, sort_keys=True) for v in report["violations"])


# ---------------------------------------------------------------------------
# Small hand-built categories.


def cyclic2_category() -> FinCat:
    # one object, morphisms {e, s} with s·s = e
    return FinCat(
        FinSet(("m",)),
        [("e", "m", "m"), ("s", "m", "m")],
        {"m": "e"},
        {
            ("e", "e"): "e",
            ("e", "s"): "s",
            ("s", "e"): "s",
            ("s", "s"): "e",
        },
    )


def arrow_category() -> FinCat:
    # two objects, one non-identity morphism a → b
    return FinCat(
        FinSet(("a", "b")),
        [("ida", "a", "a"), ("idb", "b", "b"), ("f", "a", "b")],
        {"a": "ida", "b": "idb"},
        {
            ("ida", "ida"): "ida",
            ("idb", "idb"): "idb",
            ("f", "ida"): "f",
            ("idb", "f"): "f",
        },
    )


def _mutate_comult_dir(c: Comonoid, pos: str, key1: str, key2: str) -> Comonoid:
    on_dir = {i: dict(t) for i, t in c.comult.on_dir.items()}
    on_dir[pos][key1], on_dir[pos][key2] = on_dir[pos][key2], on_dir[pos][key1]
    comult = Lens(c.carrier, c.comult.cod, dict(c.comult.on_pos), on_dir)
    return Comonoid(c.carrier, c.counit, comult)


def _mutate_comult_pos(c: Comonoid, pos: str, new_target: str) -> Comonoid:
    on_pos = dict(c.comult.on_pos)
    on_pos[pos] = new_target
    comult = Lens(
        c.carrier, c.comult.cod, on_pos, {i: dict(t) for i, t in c.comult.on_dir.items()}
    )
    return Comonoid(c.carrier, c.counit, comult)


def _mutate_counit(c: Comonoid, pos: str, new_dir: str) -> Comonoid:
    on_dir = {i: dict(t) for i, t in c.counit.on_dir.items()}
    on_dir[pos]["*"] = new_dir
    counit = Lens(c.carrier, Y, dict(c.counit.on_pos), on_dir)
    return Comonoid(c.carrier, counit, c.comult)


# ---------------------------------------------------------------------------
# Law checker.


def test_structure_constructors_satisfy_laws():
    for com in [
        contractible(FinSet(("a",))),
        contractible(FinSet(("a", "b"))),
        contractible(FinSet(("x", "y", "z"))),
        discrete_comonoid(FinSet(("p",))),
        discrete_comonoid(FinSet(("p", "q", "r"))),
        category_to_comonoid(cyclic2_category()),
        category_to_comonoid(arrow_category()),
    ]:
        report = check_comonoid_laws(com)
        assert report["ok"], report["violations"][:3]


def test_law_checker_matches_explicit_composites():
    c2 = contractible(FinSet(("a", "b")))
    cases = [
        contractible(FinSet(("a",))),
        c2,
        discrete_comonoid(FinSet(("p", "q"))),
        category_to_comonoid(cyclic2_category()),
        category_to_comonoid(arrow_category()),
        # swap two composition entries at one position
        _mutate_comult_dir(c2, "a", pair_label("a", "a"), pair_label("a", "b")),
        # point one comultiplication target at the wrong table
        _mutate_comult_pos(
            c2, "a", pair_label("a", fn_label({"a": "b", "b": "a"}, ["a", "b"]))
        ),
        # make the counit pick a non-identity direction
        _mutate_counit(c2, "b", "a"),
    ]
    for com in cases:
        fast = check_comonoid_laws(com)
        slow = explicit_law_report(com)
        assert fast["ok"] == slow["ok"]
        assert _records_key(fast) == _records_key(slow)


def test_law_violations_name_laws_and_positions():
    c2 = contractible(FinSet(("a", "b")))
    bad = _mutate_counit(c2, "b", "a")
    report = check_comonoid_laws(bad)
    assert not report["ok"]
    laws = {v["law"] for v in report["violations"]}
    assert laws <= {"left_counit", "right_counit", "coassociativity"}
    assert any(v["position"] in ("a", "b") for v in report["violations"])


def test_lawless_comonoid_is_rejected_by_category_reading():
    c2 = contractible(FinSet(("a", "b")))
    bad = _mutate_comult_dir(c2, "a", pair_label("a", "a"), pair_label("a", "b"))
    with pytest.raises(ValueError, match="comonoid laws fail"):
        comonoid_to_category(bad)


# ---------------------------------------------------------------------------
# Contractible and discrete structures.


def test_contractible_category_shape():
    for elems in [("a",), ("a", "b"), ("x", "y", "z")]:
        s = FinSet(elems)
        k = comonoid_to_category(contractible(s))
        assert k.objects == s
        assert len(k.morphisms) == len(elems) ** 2
        # exactly one morphism for each ordered pair, cod read off the label
        for o in elems:
            for d in elems:
                m = tag_label(o, d)
                assert k.dom_of[m] == o
                assert k.cod_of[m] == d
        assert k.identity == {o: tag_label(o, o) for o in elems}


def test_contractible_two_frozen_tables():
    k = comonoid_to_category(contractible(FinSet(("a", "b"))))
    assert k.morphisms == (
        ("a|a", "a", "a"),
        ("a|b", "a", "b"),
        ("b|a", "b", "a"),
        ("b|b", "b", "b"),
    )
    # composite of a→b then b→a is the identity loop at a
    assert k.compose2("b|a", "a|b") == "a|a"
    assert k.compose2("a|b", "b|a") == "b|b"
    report = check_category(k)
    assert report["ok"]


def test_discrete_category_is_identities_only():
    k = comonoid_to_category(discrete_comonoid(FinSet(("p", "q", "r"))))
    assert len(k.objects) == 3
    assert len(k.morphisms) == 3
    assert set(k.identity.values()) == {m for m, _, _ in k.morphisms}


# ---------------------------------------------------------------------------
# Category axioms and conversions.


def test_check_category_reports_broken_identity():
    k = FinCat(
        FinSet(("m",)),
        [("e", "m", "m"), ("x", "m", "m")],
        {"m": "e"},
        {
            ("e", "e"): "e",
            ("e", "x"): "e",  # should be x
            ("x", "e"): "x",
            ("x", "x"): "x",
        },
    )
    report = check_category(k)
    assert not report["ok"]
    assert any(v["law"] == "left_identity" and v["morphism"] == "x" for v in report["violations"])


def test_check_category_reports_associativity_failure():
    k = FinCat(
        FinSet(("m",)),
        [("e", "m", "m"), ("x", "m", "m"), ("y", "m", "m")],
        {"m": "e"},
        {
            ("e", "e"): "e",
            ("e", "x"): "x",
            ("e", "y"): "y",
            ("x", "e"): "x",
            ("y", "e"): "y",
            ("x", "x"): "y",
            ("x", "y"): "x",
            ("y", "x"): "y",
            ("y", "y"): "y",
        },
    )
    report = check_category(k)
    assert not report["ok"]
    # (x·x)·x = y·x = y while x·(x·x) = x·y = x
    assert any(
        v["law"] == "associativity" and v["triple"] == ["x", "x", "x"]
        for v in report["violations"]
    )
    with pytest.raises(ValueError, match="category axioms fail"):
        category_to_comonoid(k)


def test_fincat_construction_validation():
    objs = FinSet(("a", "b"))
    with pytest.raises(ValueError, match="duplicate morphism labels"):
        FinCat(objs, [("m", "a", "a"), ("m", "b", "b")], {}, {})
    with pytest.raises(ValueError, match="not objects"):
        FinCat(objs, [("m", "a", "c")], {}, {})
    loops = [("ida", "a", "a"), ("idb", "b", "b")]
    ident = {"a": "ida", "b": "idb"}
    with pytest.raises(ValueError, match="no identity assigned"):
        FinCat(objs, loops, {"a": "ida"}, {})
    with pytest.raises(ValueError, match="must be a loop"):
        FinCat(objs, loops + [("f", "a", "b")], {"a": "ida", "b": "f"}, {})
    with pytest.raises(ValueError, match="composition table mismatch"):
        FinCat(objs, loops, ident, {("ida", "ida"): "ida"})
    full = {("ida", "ida"): "ida", ("idb", "idb"): "idb"}
    with pytest.raises(ValueError, match="wrong endpoints"):
        FinCat(objs, loops, ident, {**full, ("ida", "ida"): "idb"})


def test_roundtrip_on_hand_built_categories():
    for k in [cyclic2_category(), arrow_category()]:
        com = category_to_comonoid(k)
        assert check_comonoid_laws(com)["ok"]
        back = comonoid_to_category(com)
        assert check_category(back)["ok"]
        # canonical witness: objects unchanged, morphism m becomes the
        # direction m tagged with its source object
        obj_map = {o: o for o in k.objects.elements}
        mor_map = {m: tag_label(d, m) for m, d, _ in k.morphisms}
        assert is_cat_isomorphism(k, back, obj_map, mor_map)


def test_cyclic2_comonoid_carrier_shape():
    com = category_to_comonoid(cyclic2_category())
    assert com.carrier.position_labels == ("m",)
    assert com.carrier.directions("m").elements == ("e", "s")
    # counit picks the identity, comultiplication composes: s·s = e
    assert com.counit.on_dir["m"]["*"] == "e"
    assert com.comult.on_dir["m"][pair_label("s", "s")] == "e"


# ---------------------------------------------------------------------------
# Sums and tensors.


def test_comonoid_sum_is_disjoint_union():
    c2 = contractible(FinSet(("a", "b")))
    d3 = discrete_comonoid(FinSet(("p", "q", "r")))
    s = comonoid_sum(c2, d3)
    assert check_comonoid_laws(s)["ok"]
    k = comonoid_to_category(s)
    assert len(k.objects) == 5
    assert len(k.morphisms) == 7
    left = {tag_label("0", o) for o in ("a", "b")}
    right = {tag_label("1", o) for o in ("p", "q", "r")}
    assert set(k.objects.elements) == left | right
    # no morphism crosses between the summands
    for m, d, c in k.morphisms:
        assert (d in left) == (c in left)


def test_comonoid_sum_of_singletons_is_discrete():
    one = discrete_comonoid(FinSet(("u",)))
    s = comonoid_sum(one, one)
    k = comonoid_to_category(s)
    d2 = comonoid_to_category(
        discrete_comonoid(FinSet((tag_label("0", "u"), tag_label("1", "u"))))
    )
    assert cat_isomorphic(k, d2)


def test_comonoid_tensor_unit_is_neutral():
    c2 = contractible(FinSet(("a", "b")))
    unit = discrete_comonoid(FinSet(("*",)))
    t = comonoid_tensor(c2, unit)
    assert check_comonoid_laws(t)["ok"]
    assert cat_isomorphic(comonoid_to_category(t), comonoid_to_category(c2))


def test_tensor_of_contractibles_is_contractible():
    c2 = contractible(FinSet(("a", "b")))
    c3 = contractible(FinSet(("x", "y", "z")))
    t = comonoid_tensor(c2, c3)
    assert check_comonoid_laws(t)["ok"]
    kt = comonoid_to_category(t)
    assert len(kt.objects) == 6
    assert len(kt.morphisms) == 36
    k6 = comonoid_to_category(contractible(FinSet(("1", "2", "3", "4", "5", "6"))))
    assert cat_isomorphic(kt, k6)


def test_tensor_structure_matches_componentwise_tables():
    # independent description of the tensor comultiplication: both factors
    # act in parallel, positions paired, directions paired
    c = contractible(FinSet(("a", "b")))
    d = discrete_comonoid(FinSet(("p", "q")))
    t = comonoid_tensor(c, d)
    for i in c.carrier.position_labels:
        i1, phi_lab = split_pair(c.comult.on_pos[i])
        phi = split_fn(phi_lab)
        for j in d.carrier.position_labels:
            j1, psi_lab = split_pair(d.comult.on_pos[j])
            psi = split_fn(psi_lab)
            lab = pair_label(i, j)
            outer, table_lab = split_pair(t.comult.on_pos[lab])
            assert outer == pair_label(i1, j1)
            table = split_fn(table_lab)
            for dd in c.carrier.directions(i1).elements:
                for ee in d.carrier.directions(j1).elements:
                    assert table[pair_label(dd, ee)] == pair_label(phi[dd], psi[ee])
                    for d2 in c.carrier.directions(phi[dd]).elements:
                        for e2 in d.carrier.directions(psi[ee]).elements:
                            key = pair_label(
                                pair_label(dd, ee), pair_label(d2, e2)
                            )
                            want = pair_label(
                                c.comult.on_dir[i][pair_label(dd, d2)],
                                d.comult.on_dir[j][pair_label(ee, e2)],
                            )
                            assert t.comult.on_dir[lab][key] == want


# ---------------------------------------------------------------------------
# Comonoid morphisms and cofunctors.


def test_identity_cofunctor_passes_laws():
    for k in [cyclic2_category(), arrow_category()]:
        assert check_cofunctor(identity_cofunctor(k))["ok"]


def test_every_pullmor_corruption_breaks_a_law():
    k = comonoid_to_category(contractible(FinSet(("a", "b"))))
    good = identity_cofunctor(k)
    assert check_cofunctor(good)["ok"]
    for key in good.pull_mor:
        c, _ = key
        for alt in k.out[c]:
            if alt == good.pull_mor[key]:
                continue
            mutated = dict(good.pull_mor)
            mutated[key] = alt
            bad = Cofunctor(k, k, good.on_obj, mutated)
            report = check_cofunctor(bad)
            assert not report["ok"]
            assert {v["law"] for v in report["violations"]} <= {"i", "ii", "iii"}


def test_cofunctor_construction_validation():
    k = cyclic2_category()
    k2 = arrow_category()
    on_obj = SetFn(k.objects, k2.objects, {"m": "a"})
    good = {("m", "ida"): "e", ("m", "f"): "s"}
    Cofunctor(k, k2, on_obj, good)
    with pytest.raises(ValueError, match="keys mismatch"):
        Cofunctor(k, k2, on_obj, {("m", "ida"): "e"})
    with pytest.raises(ValueError, match="not a morphism"):
        Cofunctor(k, k2, on_obj, {**good, ("m", "f"): "zz"})


def test_morphism_squares_agree_with_cofunctor_laws():
    # a carrier lens satisfies the two comonoid-morphism squares exactly
    # when its object/morphism reading satisfies the cofunctor laws
    cats = [
        cyclic2_category(),
        arrow_category(),
        comonoid_to_category(discrete_comonoid(FinSet(("a", "b")))),
    ]
    seen_good = 0
    seen_bad = 0
    for kc, kd in itertools.product(cats, repeat=2):
        c = category_to_comonoid(kc)
        d = category_to_comonoid(kd)
        for phi in all_lenses(c.carrier, d.carrier):
            square = check_comonoid_morphism(phi, c, d)
            cof = lens_to_cofunctor(phi, kc, kd)
            laws = check_cofunctor(cof)
            assert square["ok"] == laws["ok"]
            if square["ok"]:
                seen_good += 1
                assert cofunctor_to_lens(cof) == phi
            else:
                seen_bad += 1
    assert seen_good and seen_bad


def test_cofunctor_lens_round_trip():
    k = comonoid_to_category(contractible(FinSet(("a", "b"))))
    f = identity_cofunctor(k)
    phi = cofunctor_to_lens(f)
    again = lens_to_cofunctor(phi, k, k)
    assert again == f


# ---------------------------------------------------------------------------
# Category isomorphism search.


def test_is_cat_isomorphism_rejects_bad_witness():
    k = comonoid_to_category(contractible(FinSet(("a", "b"))))
    obj_map = {"a": "a", "b": "b"}
    good = {m: m for m, _, _ in k.morphisms}
    assert is_cat_isomorphism(k, k, obj_map, good)
    bad = dict(good)
    bad["a|a"], bad["a|b"] = bad["a|b"], bad["a|a"]
    assert not is_cat_isomorphism(k, k, obj_map, bad)


def test_cat_isomorphic_distinguishes_monoids():
    # cyclic of order 3 versus the left-zero band with identity: same
    # sizes, different number of idempotents
    z3 = FinCat(
        FinSet(("m",)),
        [("e", "m", "m"), ("x", "m", "m"), ("y", "m", "m")],
        {"m": "e"},
        {
            ("e", "e"): "e",
            ("e", "x"): "x",
            ("e", "y"): "y",
            ("x", "e"): "x",
            ("y", "e"): "y",
            ("x", "x"): "y",
            ("x", "y"): "e",
            ("y", "x"): "e",
            ("y", "y"): "x",
        },
    )
    band = FinCat(
        FinSet(("m",)),
        [("e", "m", "m"), ("x", "m", "m"), ("y", "m", "m")],
        {"m": "e"},
        {
            ("e", "e"): "e",
            ("e", "x"): "x",
            ("e", "y"): "y",
            ("x", "e"): "x",
            ("y", "e"): "y",
            ("x", "x"): "x",
            ("x", "y"): "x",
            ("y", "x"): "y",
            ("y", "y"): "y",
        },
    )
    assert check_category(z3)["ok"] and check_category(band)["ok"]
    assert not cat_isomorphic(z3, band)
    relabeled = FinCat(
        FinSet(("n",)),
        [("u", "n", "n"), ("v", "n", "n"), ("w", "n", "n")],
        {"n": "u"},
        {
            ("u", "u"): "u",
            ("u", "v"): "v",
            ("u", "w"): "w",
            ("v", "u"): "v",
            ("w", "u"): "w",
            ("v", "v"): "w",
            ("v", "w"): "u",
            ("w", "v"): "u",
            ("w", "w"): "v",
        },
    )
    assert cat_isomorphic(z3, relabeled)
    assert not cat_isomorphic(z3, comonoid_to_category(discrete_comonoid(FinSet(("a",)))))


# ---------------------------------------------------------------------------
# Cofree truncation.


def test_cofree_counts_two_states():
    p = make_poly([("h", ("d",)), ("t", ("d",))])
    stages, projections = cofree_truncation(p, 4)
    assert [len(s.positions) for s in stages] == [1, 2, 4, 8, 16]
    assert len(projections) == 4
    for k, proj in enumerate(projections):
        assert proj.dom == stages[k + 1]
        assert proj.cod == stages[k]


def test_cofree_counts_maybe():
    p = make_poly([("on", ("d",)), ("off", ())])
    stages, _ = cofree_truncation(p, 4)
    assert [len(s.positions) for s in stages] == [1, 2, 3, 4, 5]


def test_cofree_counts_follow_evaluation_recurrence():
    for p in [
        make_poly([("h", ("d",)), ("t", ("d",))]),
        make_poly([("on", ("d",)), ("off", ())]),
        make_poly([("a", ("d", "e")), ("b", ("d",))]),
    ]:
        stages, _ = cofree_truncation(p, 3)
        for k in range(3):
            size = len(stages[k].positions)
            expected = sum(
                size ** len(p.directions(i)) for i in p.position_labels
            )
            assert len(stages[k + 1].positions) == expected


def test_cofree_respects_position_cap():
    p = make_poly([("a", ("d", "e")), ("b", ("f", "g"))])
    stages, _ = cofree_truncation(p, 3)
    assert [len(s.positions) for s in stages] == [1, 2, 8, 128]
    with pytest.raises(ValueError, match="cap 20000"):
        cofree_truncation(p, 4)
    with pytest.raises(ValueError, match="non-negative"):
        cofree_truncation(p, -1)


# ---------------------------------------------------------------------------
# Behavior maps and n-bisimilarity.


def _machine(states, readout, update, outputs, inputs):
    """A state system over the monomial interface outputs·y^inputs."""
    s = FinSet(states)
    com = contractible(s)
    p = make_poly([(b, inputs) for b in outputs])
    f = Lens(
        com.carrier,
        p,
        dict(readout),
        {st: {a: update[st][a] for a in inputs} for st in states},
    )
    return com, f, p


def test_nstep_zero_and_one():
    com, f, p = _machine(
        ("s", "t"),
        {"s": "h", "t": "g"},
        {"s": {"a": "t"}, "t": {"a": "t"}},
        ("h", "g"),
        ("a",),
    )
    beh0 = nstep_behavior(com, f, 0)
    assert set(beh0.mapping.values()) == {"*"}
    beh1 = nstep_behavior(com, f, 1)
    assert beh1.mapping == {"s": "h", "t": "g"}


def test_nstep_matches_explicit_composite():
    com2, f2, _ = _machine(
        ("s", "t"),
        {"s": "h", "t": "g"},
        {"s": {"a": "t"}, "t": {"a": "s"}},
        ("h", "g"),
        ("a",),
    )
    com3, f3, _ = _machine(
        ("s", "t", "u"),
        {"s": "h", "t": "h", "u": "g"},
        {"s": {"a": "s"}, "t": {"a": "u"}, "u": {"a": "u"}},
        ("h", "g"),
        ("a",),
    )
    for com, f, depths in [(com2, f2, (0, 1, 2, 3)), (com3, f3, (0, 1, 2))]:
        for n in depths:
            assert nstep_behavior(com, f, n) == explicit_behavior(com, f, n)
    # also on a non-contractible carrier: a one-object monoid
    com = category_to_comonoid(cyclic2_category())
    p = make_poly([("h", ("a",))])
    f = Lens(com.carrier, p, {"m": "h"}, {"m": {"a": "s"}})
    for n in (0, 1, 2, 3):
        assert nstep_behavior(com, f, n) == explicit_behavior(com, f, n)


def test_equal_readout_separates_at_depth_two_with_three_states():
    com, f, p = _machine(
        ("s", "t", "u"),
        {"s": "h", "t": "h", "u": "g"},
        {"s": {"a": "s"}, "t": {"a": "u"}, "u": {"a": "u"}},
        ("h", "g"),
        ("a",),
    )
    beh1 = nstep_behavior(com, f, 1)
    assert beh1("s") == beh1("t") != beh1("u")
    beh2 = nstep_behavior(com, f, 2)
    assert beh2("s") != beh2("t")
    # the depth-2 trees, written out
    assert beh2("s") == pair_label("h", fn_label({"a": "h"}, ["a"]))
    assert beh2("t") == pair_label("h", fn_label({"a": "g"}, ["a"]))
    tree_positions = set(compose_power(p, 2).position_labels)
    assert {beh2(st) for st in ("s", "t", "u")} <= tree_positions


def test_equal_readout_two_state_machines_never_separate():
    # with only two states sharing one readout value, every node of every
    # observation tree carries that value, so no depth distinguishes them
    for readout_value in ("h", "g"):
        for upd_s, upd_t in itertools.product(
            itertools.product(("s", "t"), repeat=2), repeat=2
        ):
            com, f, _ = _machine(
                ("s", "t"),
                {"s": readout_value, "t": readout_value},
                {
                    "s": {"a": upd_s[0], "b": upd_s[1]},
                    "t": {"a": upd_t[0], "b": upd_t[1]},
                },
                ("h", "g"),
                ("a", "b"),
            )
            for n in (1, 2, 3):
                beh = nstep_behavior(com, f, n)
                assert beh("s") == beh("t")


def _partition(beh, states):
    blocks = {}
    for st in states:
        blocks.setdefault(beh(st), []).append(st)
    return sorted(tuple(b) for b in blocks.values())


def test_bisimilarity_refines_and_stabilizes():
    states = ("s", "t", "u")
    com, f, _ = _machine(
        states,
        {"s": "h", "t": "h", "u": "g"},
        {"s": {"a": "s"}, "t": {"a": "u"}, "u": {"a": "u"}},
        ("h", "g"),
        ("a",),
    )
    parts = [_partition(nstep_behavior(com, f, n), states) for n in range(4)]
    assert parts[0] == [("s", "t", "u")]
    assert parts[1] == [("s", "t"), ("u",)]
    assert parts[2] == [("s",), ("t",), ("u",)]
    assert parts[3] == parts[2]
    # each partition refines the previous one
    for coarse, fine in zip(parts, parts[1:]):
        for block in fine:
            assert any(set(block) <= set(cb) for cb in coarse)


# ---------------------------------------------------------------------------
# Serialization.


def test_fincat_json_round_trip():
    for k in [
        cyclic2_category(),
        arrow_category(),
        comonoid_to_category(contractible(FinSet(("a", "b")))),
    ]:
        data = fincat_to_json(k)
        assert fincat_from_json(data) == k
        assert json.dumps(data, sort_keys=True) == json.dumps(
            fincat_to_json(k), sort_keys=True
        )
    with pytest.raises(ValueError, match="missing key"):
        fincat_from_json({"objects": ["a"]})


def test_comonoid_json_round_trip():
    for com in [
        contractible(FinSet(("a", "b"))),
        discrete_comonoid(FinSet(("p", "q"))),
        category_to_comonoid(cyclic2_category()),
    ]:
        data = comonoid_to_json(com)
        back = comonoid_from_json(data)
        assert back.carrier == com.carrier
        assert back.counit == com.counit
        assert back.comult == com.comult
    with pytest.raises(ValueError, match="missing key"):
        comonoid_from_json({"carrier": {"positions": []}})


def test_comonoid_shape_validation():
    c2 = contractible(FinSet(("a", "b")))
    d2 = discrete_comonoid(FinSet(("a", "b")))
    with pytest.raises(ValueError, match="carrier → y"):
        Comonoid(c2.carrier, d2.counit, c2.comult)
    with pytest.raises(ValueError, match="carrier∘carrier"):
        Comonoid(c2.carrier, c2.counit, c2.counit)


# ---------------------------------------------------------------------------
# The tables-first representation: JSON contract, derived comult, sizes.

# canonical_json(comonoid_to_json(c)) of each constructor, recorded when the
# comultiplication lens was the stored data: the comonoid JSON is a public
# contract.  Kept compact here; canonical re-serialization compares
# byte-for-byte.
GOLDEN_JSON = {
    "contractible": (
        '{"carrier":{"positions":[{"dirs":["a","b"],"label":"a"},{"dirs":["a","b"],"l'
        'abel":"b"}]},"comult":{"cod":{"positions":[{"dirs":["(a,a)","(a,b)","(b,a)",'
        '"(b,b)"],"label":"(a,\\\\[a\\\\:a\\\\,b\\\\:a\\\\])"},{"dirs":["(a,a)","(a,b)","(b,a)"'
        ',"(b,b)"],"label":"(a,\\\\[a\\\\:a\\\\,b\\\\:b\\\\])"},{"dirs":["(a,a)","(a,b)","(b,a)'
        '","(b,b)"],"label":"(a,\\\\[a\\\\:b\\\\,b\\\\:a\\\\])"},{"dirs":["(a,a)","(a,b)","(b,a'
        ')","(b,b)"],"label":"(a,\\\\[a\\\\:b\\\\,b\\\\:b\\\\])"},{"dirs":["(a,a)","(a,b)","(b,'
        'a)","(b,b)"],"label":"(b,\\\\[a\\\\:a\\\\,b\\\\:a\\\\])"},{"dirs":["(a,a)","(a,b)","(b'
        ',a)","(b,b)"],"label":"(b,\\\\[a\\\\:a\\\\,b\\\\:b\\\\])"},{"dirs":["(a,a)","(a,b)","('
        'b,a)","(b,b)"],"label":"(b,\\\\[a\\\\:b\\\\,b\\\\:a\\\\])"},{"dirs":["(a,a)","(a,b)","'
        '(b,a)","(b,b)"],"label":"(b,\\\\[a\\\\:b\\\\,b\\\\:b\\\\])"}]},"dom":{"positions":[{"d'
        'irs":["a","b"],"label":"a"},{"dirs":["a","b"],"label":"b"}]},"onDir":{"a":{"'
        '(a,a)":"a","(a,b)":"b","(b,a)":"a","(b,b)":"b"},"b":{"(a,a)":"a","(a,b)":"b"'
        ',"(b,a)":"a","(b,b)":"b"}},"onPos":{"a":"(a,\\\\[a\\\\:a\\\\,b\\\\:b\\\\])","b":"(b,\\\\'
        '[a\\\\:a\\\\,b\\\\:b\\\\])"}},"counit":{"cod":{"positions":[{"dirs":["*"],"label":"*'
        '"}]},"dom":{"positions":[{"dirs":["a","b"],"label":"a"},{"dirs":["a","b"],"l'
        'abel":"b"}]},"onDir":{"a":{"*":"a"},"b":{"*":"b"}},"onPos":{"a":"*","b":"*"}'
        '}}'
    ),
    "discrete": (
        '{"carrier":{"positions":[{"dirs":["*"],"label":"p"},{"dirs":["*"],"label":"q'
        '"}]},"comult":{"cod":{"positions":[{"dirs":["(*,*)"],"label":"(p,\\\\[*\\\\:p\\\\]'
        ')"},{"dirs":["(*,*)"],"label":"(p,\\\\[*\\\\:q\\\\])"},{"dirs":["(*,*)"],"label":"'
        '(q,\\\\[*\\\\:p\\\\])"},{"dirs":["(*,*)"],"label":"(q,\\\\[*\\\\:q\\\\])"}]},"dom":{"pos'
        'itions":[{"dirs":["*"],"label":"p"},{"dirs":["*"],"label":"q"}]},"onDir":{"p'
        '":{"(*,*)":"*"},"q":{"(*,*)":"*"}},"onPos":{"p":"(p,\\\\[*\\\\:p\\\\])","q":"(q,\\\\'
        '[*\\\\:q\\\\])"}},"counit":{"cod":{"positions":[{"dirs":["*"],"label":"*"}]},"do'
        'm":{"positions":[{"dirs":["*"],"label":"p"},{"dirs":["*"],"label":"q"}]},"on'
        'Dir":{"p":{"*":"*"},"q":{"*":"*"}},"onPos":{"p":"*","q":"*"}}}'
    ),
    "cyclic2": (
        '{"carrier":{"positions":[{"dirs":["e","s"],"label":"m"}]},"comult":{"cod":{"'
        'positions":[{"dirs":["(e,e)","(e,s)","(s,e)","(s,s)"],"label":"(m,\\\\[e\\\\:m\\\\'
        ',s\\\\:m\\\\])"}]},"dom":{"positions":[{"dirs":["e","s"],"label":"m"}]},"onDir":'
        '{"m":{"(e,e)":"e","(e,s)":"s","(s,e)":"s","(s,s)":"e"}},"onPos":{"m":"(m,\\\\['
        'e\\\\:m\\\\,s\\\\:m\\\\])"}},"counit":{"cod":{"positions":[{"dirs":["*"],"label":"*"'
        '}]},"dom":{"positions":[{"dirs":["e","s"],"label":"m"}]},"onDir":{"m":{"*":"'
        'e"}},"onPos":{"m":"*"}}}'
    ),
    "sum": (
        '{"carrier":{"positions":[{"dirs":["a","b"],"label":"0|a"},{"dirs":["a","b"],'
        '"label":"0|b"},{"dirs":["*"],"label":"1|p"}]},"comult":{"cod":{"positions":['
        '{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"(0\\\\|a,\\\\[a\\\\:0\\\\\\\\\\\\|a\\\\'
        ',b\\\\:0\\\\\\\\\\\\|a\\\\])"},{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"(0\\\\'
        '|a,\\\\[a\\\\:0\\\\\\\\\\\\|a\\\\,b\\\\:0\\\\\\\\\\\\|b\\\\])"},{"dirs":["(a,a)","(a,b)","(b,*)"],'
        '"label":"(0\\\\|a,\\\\[a\\\\:0\\\\\\\\\\\\|a\\\\,b\\\\:1\\\\\\\\\\\\|p\\\\])"},{"dirs":["(a,a)","(a,'
        'b)","(b,a)","(b,b)"],"label":"(0\\\\|a,\\\\[a\\\\:0\\\\\\\\\\\\|b\\\\,b\\\\:0\\\\\\\\\\\\|a\\\\])"},'
        '{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"(0\\\\|a,\\\\[a\\\\:0\\\\\\\\\\\\|b\\\\'
        ',b\\\\:0\\\\\\\\\\\\|b\\\\])"},{"dirs":["(a,a)","(a,b)","(b,*)"],"label":"(0\\\\|a,\\\\[a\\'
        '\\:0\\\\\\\\\\\\|b\\\\,b\\\\:1\\\\\\\\\\\\|p\\\\])"},{"dirs":["(a,*)","(b,a)","(b,b)"],"label":'
        '"(0\\\\|a,\\\\[a\\\\:1\\\\\\\\\\\\|p\\\\,b\\\\:0\\\\\\\\\\\\|a\\\\])"},{"dirs":["(a,*)","(b,a)","(b,'
        'b)"],"label":"(0\\\\|a,\\\\[a\\\\:1\\\\\\\\\\\\|p\\\\,b\\\\:0\\\\\\\\\\\\|b\\\\])"},{"dirs":["(a,*)"'
        ',"(b,*)"],"label":"(0\\\\|a,\\\\[a\\\\:1\\\\\\\\\\\\|p\\\\,b\\\\:1\\\\\\\\\\\\|p\\\\])"},{"dirs":["('
        'a,a)","(a,b)","(b,a)","(b,b)"],"label":"(0\\\\|b,\\\\[a\\\\:0\\\\\\\\\\\\|a\\\\,b\\\\:0\\\\\\\\\\'
        '\\|a\\\\])"},{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"(0\\\\|b,\\\\[a\\\\:0'
        '\\\\\\\\\\\\|a\\\\,b\\\\:0\\\\\\\\\\\\|b\\\\])"},{"dirs":["(a,a)","(a,b)","(b,*)"],"label":"(0'
        '\\\\|b,\\\\[a\\\\:0\\\\\\\\\\\\|a\\\\,b\\\\:1\\\\\\\\\\\\|p\\\\])"},{"dirs":["(a,a)","(a,b)","(b,a)"'
        ',"(b,b)"],"label":"(0\\\\|b,\\\\[a\\\\:0\\\\\\\\\\\\|b\\\\,b\\\\:0\\\\\\\\\\\\|a\\\\])"},{"dirs":["('
        'a,a)","(a,b)","(b,a)","(b,b)"],"label":"(0\\\\|b,\\\\[a\\\\:0\\\\\\\\\\\\|b\\\\,b\\\\:0\\\\\\\\\\'
        '\\|b\\\\])"},{"dirs":["(a,a)","(a,b)","(b,*)"],"label":"(0\\\\|b,\\\\[a\\\\:0\\\\\\\\\\\\|b'
        '\\\\,b\\\\:1\\\\\\\\\\\\|p\\\\])"},{"dirs":["(a,*)","(b,a)","(b,b)"],"label":"(0\\\\|b,\\\\['
        'a\\\\:1\\\\\\\\\\\\|p\\\\,b\\\\:0\\\\\\\\\\\\|a\\\\])"},{"dirs":["(a,*)","(b,a)","(b,b)"],"label'
        '":"(0\\\\|b,\\\\[a\\\\:1\\\\\\\\\\\\|p\\\\,b\\\\:0\\\\\\\\\\\\|b\\\\])"},{"dirs":["(a,*)","(b,*)"],"'
        'label":"(0\\\\|b,\\\\[a\\\\:1\\\\\\\\\\\\|p\\\\,b\\\\:1\\\\\\\\\\\\|p\\\\])"},{"dirs":["(*,a)","(*,b'
        ')"],"label":"(1\\\\|p,\\\\[*\\\\:0\\\\\\\\\\\\|a\\\\])"},{"dirs":["(*,a)","(*,b)"],"label"'
        ':"(1\\\\|p,\\\\[*\\\\:0\\\\\\\\\\\\|b\\\\])"},{"dirs":["(*,*)"],"label":"(1\\\\|p,\\\\[*\\\\:1\\\\'
        '\\\\\\\\|p\\\\])"}]},"dom":{"positions":[{"dirs":["a","b"],"label":"0|a"},{"dirs":'
        '["a","b"],"label":"0|b"},{"dirs":["*"],"label":"1|p"}]},"onDir":{"0|a":{"(a,'
        'a)":"a","(a,b)":"b","(b,a)":"a","(b,b)":"b"},"0|b":{"(a,a)":"a","(a,b)":"b",'
        '"(b,a)":"a","(b,b)":"b"},"1|p":{"(*,*)":"*"}},"onPos":{"0|a":"(0\\\\|a,\\\\[a\\\\:'
        '0\\\\\\\\\\\\|a\\\\,b\\\\:0\\\\\\\\\\\\|b\\\\])","0|b":"(0\\\\|b,\\\\[a\\\\:0\\\\\\\\\\\\|a\\\\,b\\\\:0\\\\\\\\\\\\|'
        'b\\\\])","1|p":"(1\\\\|p,\\\\[*\\\\:1\\\\\\\\\\\\|p\\\\])"}},"counit":{"cod":{"positions":[{'
        '"dirs":["*"],"label":"*"}]},"dom":{"positions":[{"dirs":["a","b"],"label":"0'
        '|a"},{"dirs":["a","b"],"label":"0|b"},{"dirs":["*"],"label":"1|p"}]},"onDir"'
        ':{"0|a":{"*":"a"},"0|b":{"*":"b"},"1|p":{"*":"*"}},"onPos":{"0|a":"*","0|b":'
        '"*","1|p":"*"}}}'
    ),
    "tensor": (
        '{"carrier":{"positions":[{"dirs":["(e,*)","(s,*)"],"label":"(m,p)"},{"dirs":'
        '["(e,*)","(s,*)"],"label":"(m,q)"}]},"comult":{"cod":{"positions":[{"dirs":['
        '"(\\\\(e\\\\,*\\\\),\\\\(e\\\\,*\\\\))","(\\\\(e\\\\,*\\\\),\\\\(s\\\\,*\\\\))","(\\\\(s\\\\,*\\\\),\\\\(e\\\\'
        ',*\\\\))","(\\\\(s\\\\,*\\\\),\\\\(s\\\\,*\\\\))"],"label":"(\\\\(m\\\\,p\\\\),\\\\[\\\\\\\\\\\\(e\\\\\\\\\\\\'
        ',*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,p\\\\\\\\\\\\)\\\\,\\\\\\\\\\\\(s\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\'
        '\\\\,p\\\\\\\\\\\\)\\\\])"},{"dirs":["(\\\\(e\\\\,*\\\\),\\\\(e\\\\,*\\\\))","(\\\\(e\\\\,*\\\\),\\\\(s\\\\,'
        '*\\\\))","(\\\\(s\\\\,*\\\\),\\\\(e\\\\,*\\\\))","(\\\\(s\\\\,*\\\\),\\\\(s\\\\,*\\\\))"],"label":"(\\\\'
        '(m\\\\,p\\\\),\\\\[\\\\\\\\\\\\(e\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,p\\\\\\\\\\\\)\\\\,\\\\\\\\\\\\(s\\\\\\'
        '\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,q\\\\\\\\\\\\)\\\\])"},{"dirs":["(\\\\(e\\\\,*\\\\),\\\\(e\\\\,*'
        '\\\\))","(\\\\(e\\\\,*\\\\),\\\\(s\\\\,*\\\\))","(\\\\(s\\\\,*\\\\),\\\\(e\\\\,*\\\\))","(\\\\(s\\\\,*\\\\),'
        '\\\\(s\\\\,*\\\\))"],"label":"(\\\\(m\\\\,p\\\\),\\\\[\\\\\\\\\\\\(e\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\'
        '\\\\\\\\,q\\\\\\\\\\\\)\\\\,\\\\\\\\\\\\(s\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,p\\\\\\\\\\\\)\\\\])"},{"di'
        'rs":["(\\\\(e\\\\,*\\\\),\\\\(e\\\\,*\\\\))","(\\\\(e\\\\,*\\\\),\\\\(s\\\\,*\\\\))","(\\\\(s\\\\,*\\\\),\\'
        '\\(e\\\\,*\\\\))","(\\\\(s\\\\,*\\\\),\\\\(s\\\\,*\\\\))"],"label":"(\\\\(m\\\\,p\\\\),\\\\[\\\\\\\\\\\\(e\\'
        '\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,q\\\\\\\\\\\\)\\\\,\\\\\\\\\\\\(s\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\('
        'm\\\\\\\\\\\\,q\\\\\\\\\\\\)\\\\])"},{"dirs":["(\\\\(e\\\\,*\\\\),\\\\(e\\\\,*\\\\))","(\\\\(e\\\\,*\\\\),\\\\'
        '(s\\\\,*\\\\))","(\\\\(s\\\\,*\\\\),\\\\(e\\\\,*\\\\))","(\\\\(s\\\\,*\\\\),\\\\(s\\\\,*\\\\))"],"label"'
        ':"(\\\\(m\\\\,q\\\\),\\\\[\\\\\\\\\\\\(e\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,p\\\\\\\\\\\\)\\\\,\\\\\\\\\\\\'
        '(s\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,p\\\\\\\\\\\\)\\\\])"},{"dirs":["(\\\\(e\\\\,*\\\\),\\\\('
        'e\\\\,*\\\\))","(\\\\(e\\\\,*\\\\),\\\\(s\\\\,*\\\\))","(\\\\(s\\\\,*\\\\),\\\\(e\\\\,*\\\\))","(\\\\(s\\\\,'
        '*\\\\),\\\\(s\\\\,*\\\\))"],"label":"(\\\\(m\\\\,q\\\\),\\\\[\\\\\\\\\\\\(e\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\'
        '\\(m\\\\\\\\\\\\,p\\\\\\\\\\\\)\\\\,\\\\\\\\\\\\(s\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,q\\\\\\\\\\\\)\\\\])"}'
        ',{"dirs":["(\\\\(e\\\\,*\\\\),\\\\(e\\\\,*\\\\))","(\\\\(e\\\\,*\\\\),\\\\(s\\\\,*\\\\))","(\\\\(s\\\\,*'
        '\\\\),\\\\(e\\\\,*\\\\))","(\\\\(s\\\\,*\\\\),\\\\(s\\\\,*\\\\))"],"label":"(\\\\(m\\\\,q\\\\),\\\\[\\\\\\\\'
        '\\\\(e\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,q\\\\\\\\\\\\)\\\\,\\\\\\\\\\\\(s\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\'
        '\\\\\\\\(m\\\\\\\\\\\\,p\\\\\\\\\\\\)\\\\])"},{"dirs":["(\\\\(e\\\\,*\\\\),\\\\(e\\\\,*\\\\))","(\\\\(e\\\\,*\\'
        '\\),\\\\(s\\\\,*\\\\))","(\\\\(s\\\\,*\\\\),\\\\(e\\\\,*\\\\))","(\\\\(s\\\\,*\\\\),\\\\(s\\\\,*\\\\))"],"l'
        'abel":"(\\\\(m\\\\,q\\\\),\\\\[\\\\\\\\\\\\(e\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,q\\\\\\\\\\\\)\\\\,\\'
        '\\\\\\\\\\(s\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,q\\\\\\\\\\\\)\\\\])"}]},"dom":{"positions":'
        '[{"dirs":["(e,*)","(s,*)"],"label":"(m,p)"},{"dirs":["(e,*)","(s,*)"],"label'
        '":"(m,q)"}]},"onDir":{"(m,p)":{"(\\\\(e\\\\,*\\\\),\\\\(e\\\\,*\\\\))":"(e,*)","(\\\\(e\\\\,'
        '*\\\\),\\\\(s\\\\,*\\\\))":"(s,*)","(\\\\(s\\\\,*\\\\),\\\\(e\\\\,*\\\\))":"(s,*)","(\\\\(s\\\\,*\\\\)'
        ',\\\\(s\\\\,*\\\\))":"(e,*)"},"(m,q)":{"(\\\\(e\\\\,*\\\\),\\\\(e\\\\,*\\\\))":"(e,*)","(\\\\(e\\'
        '\\,*\\\\),\\\\(s\\\\,*\\\\))":"(s,*)","(\\\\(s\\\\,*\\\\),\\\\(e\\\\,*\\\\))":"(s,*)","(\\\\(s\\\\,*\\'
        '\\),\\\\(s\\\\,*\\\\))":"(e,*)"}},"onPos":{"(m,p)":"(\\\\(m\\\\,p\\\\),\\\\[\\\\\\\\\\\\(e\\\\\\\\\\\\,'
        '*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,p\\\\\\\\\\\\)\\\\,\\\\\\\\\\\\(s\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\'
        '\\,p\\\\\\\\\\\\)\\\\])","(m,q)":"(\\\\(m\\\\,q\\\\),\\\\[\\\\\\\\\\\\(e\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\'
        '\\\\\\\\\\,q\\\\\\\\\\\\)\\\\,\\\\\\\\\\\\(s\\\\\\\\\\\\,*\\\\\\\\\\\\)\\\\:\\\\\\\\\\\\(m\\\\\\\\\\\\,q\\\\\\\\\\\\)\\\\])"}},"c'
        'ounit":{"cod":{"positions":[{"dirs":["*"],"label":"*"}]},"dom":{"positions":'
        '[{"dirs":["(e,*)","(s,*)"],"label":"(m,p)"},{"dirs":["(e,*)","(s,*)"],"label'
        '":"(m,q)"}]},"onDir":{"(m,p)":{"*":"(e,*)"},"(m,q)":{"*":"(e,*)"}},"onPos":{'
        '"(m,p)":"*","(m,q)":"*"}}}'
    ),
}

GOLDEN_CASES = {
    "contractible": lambda: contractible(FinSet(("a", "b"))),
    "discrete": lambda: discrete_comonoid(FinSet(("p", "q"))),
    "cyclic2": lambda: category_to_comonoid(cyclic2_category()),
    "sum": lambda: comonoid_sum(
        contractible(FinSet(("a", "b"))), discrete_comonoid(FinSet(("p",)))
    ),
    "tensor": lambda: comonoid_tensor(
        category_to_comonoid(cyclic2_category()), discrete_comonoid(FinSet(("p", "q")))
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_comonoid_json_matches_golden(name):
    got = canonical_json(comonoid_to_json(GOLDEN_CASES[name]()))
    assert got == canonical_json(json.loads(GOLDEN_JSON[name]))


def walking_arrow(order) -> FinCat:
    mors = {"ia": ("ia", "a", "a"), "f": ("f", "a", "b"), "ib": ("ib", "b", "b")}
    return FinCat(
        FinSet(("a", "b")),
        [mors[m] for m in order],
        {"a": "ia", "b": "ib"},
        {
            ("ia", "ia"): "ia",
            ("ib", "ib"): "ib",
            ("f", "ia"): "f",
            ("ib", "f"): "f",
        },
    )


def test_comult_does_not_depend_on_cache_history():
    # The two carriers are equal as polynomials but list the directions at
    # "a" in different orders; carrier∘carrier labels follow that order, so
    # a cache that confuses them hands the second comonoid foreign labels.
    orders = (["ia", "f", "ib"], ["f", "ia", "ib"])
    for history in (orders, orders[::-1]):
        for order in history:
            c = category_to_comonoid(walking_arrow(order))
            assert c.carrier.directions("a").elements == tuple(
                m for m in order if m != "ib"
            )
            comult = c.comult
            assert comult.cod.num_positions() == 2**2 + 2**1
            assert comult.cod is c.comult.cod  # built once per comonoid
            back = comonoid_from_json(comonoid_to_json(c))
            assert back == c
            assert check_comonoid_laws(c)["ok"]


def test_sum_and_tensor_carriers_do_not_depend_on_cache_history():
    x = discrete_comonoid(FinSet(("p",)))
    orders = (["ia", "f", "ib"], ["f", "ia", "ib"])
    cases = (
        (comonoid_sum, tag_label("0", "a"), lambda m: m),
        (comonoid_tensor, pair_label("a", "p"), lambda m: pair_label(m, "*")),
    )
    for build, pos, direction in cases:
        for history in (orders, orders[::-1]):
            for order in history:
                c = build(category_to_comonoid(walking_arrow(order)), x)
                want = tuple(direction(m) for m in order if m != "ib")
                assert c.carrier.directions(pos).elements == want
                comonoid_to_json(c)  # the derived comult builds from any history
                assert check_comonoid_laws(c)["ok"]


def test_comult_is_derived_read_only_and_not_needed_for_equality():
    c = contractible(FinSet(("a", "b", "c")))
    d = contractible(FinSet(("a", "b", "c")))
    assert c == d and hash(c) == hash(d)
    assert c._comult is None and d._comult is None
    assert c.comult is c.comult
    with pytest.raises(AttributeError):
        c.comult = d.comult


def test_mutating_the_derived_comult_leaves_laws_and_runs_alone():
    m = MooreMachine.from_tables(
        ["s0", "s1", "s2"],
        ["x", "y"],
        ["lo", "hi"],
        {"s0": "lo", "s1": "hi", "s2": "hi"},
        {("x", "s0"): "s1", ("x", "s1"): "s2", ("x", "s2"): "s0",
         ("y", "s0"): "s0", ("y", "s1"): "s0", ("y", "s2"): "s1"},
        "s0",
    )
    system = moore_to_mdds(m)
    stream = ["x", "x", "y", "x", "y", "y", "x"]
    before = run_open(system, stream, "s0")
    comult = system.state.comult
    for i in comult.on_dir:
        for key in comult.on_dir[i]:
            comult.on_dir[i][key] = "s0"
    assert check_comonoid_laws(system.state)["ok"]
    assert run_open(system, stream, "s0") == before
    assert before.history == tag_label("s0", before.final_state)


def test_comonoid_shape_check_is_structural():
    c2 = contractible(FinSet(("a", "b")))
    with pytest.raises(ValueError, match="not a position"):
        Comonoid._from_tables(
            c2.carrier,
            dict(c2.identity),
            {"a": {"a": "a", "b": "z"}, "b": c2.codomain["b"]},
            dict(c2.composite),
        )
    with pytest.raises(ValueError, match="not a direction"):
        Comonoid._from_tables(
            c2.carrier,
            dict(c2.identity),
            dict(c2.codomain),
            {"a": {**c2.composite["a"], ("a", "b"): "z"}, "b": c2.composite["b"]},
        )
    with pytest.raises(ValueError, match="non-composable"):
        Comonoid._from_tables(
            c2.carrier,
            dict(c2.identity),
            dict(c2.codomain),
            {"a": {**c2.composite["a"], ("z", "z"): "a"}, "b": c2.composite["b"]},
        )


def test_contractible_on_sixty_states_builds_fast():
    states = FinSet(tuple(f"s{k}" for k in range(60)))
    t0 = time.perf_counter()
    c = contractible(states)
    assert time.perf_counter() - t0 < 1.0
    assert c.is_contractible()
    assert c.codomain["s3"]["s7"] == "s7"
    assert c.composite["s3"][("s7", "s9")] == "s9"


def test_comult_of_seven_states_is_refused_before_allocating():
    c = contractible(FinSet(tuple(f"s{k}" for k in range(7))))
    with pytest.raises(SizeLimitError) as info:
        c.comult
    assert info.value.operation == "poly_compose"
    assert info.value.predicted == 7 * 7**7 == 5_764_801
    assert info.value.limit == COMPOSE_LIMIT == 2**22
    assert "5764801" in str(info.value) and str(2**22) in str(info.value)
