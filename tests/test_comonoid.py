import gc
import itertools
import json
import random
import sys
import time
import tracemalloc

import pytest

from polydyn.core import (
    Lens,
    SetFn,
    FinPoly,
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
from polydyn import algebra
from polydyn.algebra import (
    COMPOSE_LIMIT,
    compose_associator,
    compose_left_unitor,
    compose_map,
    compose_power,
    compose_right_unitor,
    poly_compose,
)
from polydyn.comonoid import (
    _comult_label,
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
from polydyn.catalog import generate_categories
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


def _golden_lawless_category() -> FinCat:
    # Two objects, morphisms listed out of object order so that the walk
    # over composable triples must keep the label order; e∘iX = iX breaks
    # one identity law and e∘e = iX with g∘f = e breaks associativity.
    return FinCat(
        FinSet(("X", "Y")),
        [("f", "X", "Y"), ("iX", "X", "X"), ("g", "Y", "X"), ("iY", "Y", "Y"),
         ("e", "X", "X")],
        {"X": "iX", "Y": "iY"},
        {
            ("g", "f"): "e", ("iY", "f"): "f", ("f", "iX"): "f",
            ("iX", "iX"): "iX", ("e", "iX"): "iX", ("f", "e"): "f",
            ("iX", "e"): "e", ("e", "e"): "iX", ("f", "g"): "iY",
            ("iX", "g"): "g", ("e", "g"): "g", ("g", "iY"): "g",
            ("iY", "iY"): "iY",
        },
    )


# captured from the implementation that filtered all label triples
GOLDEN_CATEGORY_REPORT = {
    "ok": False,
    "violations": [
        {"law": "right_identity", "morphism": "e", "got": "iX"},
        {"law": "associativity", "triple": ["e", "g", "f"], "left": "iX", "right": "e"},
        {"law": "associativity", "triple": ["g", "f", "iX"], "left": "e", "right": "iX"},
        {"law": "associativity", "triple": ["g", "f", "e"], "left": "e", "right": "iX"},
        {"law": "associativity", "triple": ["e", "iX", "e"], "left": "iX", "right": "e"},
        {"law": "associativity", "triple": ["e", "e", "e"], "left": "iX", "right": "e"},
    ],
}
GOLDEN_AXIOMS_ERROR = (
    "category axioms fail: {'law': 'right_identity', 'morphism': 'e', 'got': 'iX'}"
)


def test_check_category_report_matches_golden():
    k = _golden_lawless_category()
    assert check_category(k) == GOLDEN_CATEGORY_REPORT
    with pytest.raises(ValueError) as info:
        category_to_comonoid(k)
    assert str(info.value) == GOLDEN_AXIOMS_ERROR


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
    with pytest.raises(ValueError, match=r"^composite of \('idb', 'idb'\) is not a morphism: 'f'$"):
        FinCat(objs, loops, ident, {**full, ("idb", "idb"): "f"})
    with pytest.raises(
        ValueError, match=r"^composition table mismatch: missing \[\], extra \[\('f', 'ida'\)\]$"
    ):
        FinCat(objs, loops, ident, {**full, ("f", "ida"): "ida"})
    # a mistyped composite listed before a key that is not composable: the
    # key set is still reported first
    for first in ("idb", ["ida"]):
        with pytest.raises(ValueError, match="composition table mismatch"):
            FinCat(objs, loops, ident, {("ida", "ida"): first, ("ida", "idb"): "ida"})


class _Label(str):
    pass


def test_fincat_keeps_string_triples_and_converts_the_rest():
    objs = FinSet(("x", "1"))
    kept = ("a", "x", "x")
    odd = (_Label("b"), "1", "1")
    k = FinCat(
        objs,
        [kept, ["c", "x", "x"], (2, 1, 1), odd],
        {"x": "a", "1": "2"},
        {
            ("a", "a"): "a", ("c", "a"): "c", ("a", "c"): "c", ("c", "c"): "c",
            ("2", "2"): "2", ("b", "2"): "b", ("2", "b"): "b", ("b", "b"): "b",
        },
    )
    assert k.morphisms[0] is kept
    assert k.morphisms[1:] == (("c", "x", "x"), ("2", "1", "1"), ("b", "1", "1"))
    assert all(type(e) is tuple for e in k.morphisms)
    assert all(type(s) is str for e in k.morphisms for s in e)
    assert k.morphisms[3] is not odd
    with pytest.raises(ValueError) as info:
        FinCat(objs, [("a", "x")], {"x": "a"}, {("a", "a"): "a"})
    assert str(info.value) == "not enough values to unpack (expected 3, got 2)"


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


def _reference_check_cofunctor(f: Cofunctor) -> dict:
    """check_cofunctor as it was before it read the morphism walk: the
    three laws walked on labels, through FinCat.compose2 and f.pull."""
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


def _random_cofunctor(rng, src: FinCat, tgt: FinCat) -> Cofunctor:
    """Objects sent anywhere, and each pulled morphism drawn from those out
    of its source object: typed, and lawless more often than not."""
    images = {c: rng.choice(tgt.objects.elements) for c in src.objects.elements}
    pull = {(c, g): rng.choice(src.out[c]) for c, j in images.items() for g in tgt.out[j]}
    return Cofunctor(src, tgt, SetFn(src.objects, tgt.objects, images), pull)


def test_check_cofunctor_reports_what_the_label_walk_reported():
    rng = random.Random(31)
    small = generate_categories(2, 3)
    laws = set()
    for src, tgt in itertools.product(small, repeat=2):
        if len(tgt.objects) == 0 < len(src.objects):
            continue
        for _ in range(3):
            f = _random_cofunctor(rng, src, tgt)
            report = check_cofunctor(f)
            assert report == _reference_check_cofunctor(f)
            laws.update(v["law"] for v in report["violations"])
    assert laws == {"i", "ii", "iii"}
    catalog = generate_categories(3, 6)
    for index in sorted(rng.sample(range(len(catalog)), 200)):
        f = identity_cofunctor(catalog[index])
        assert check_cofunctor(f) == _reference_check_cofunctor(f) == {"ok": True, "violations": []}


def test_check_cofunctor_reports_on_categories_that_break_their_axioms():
    # the categories here fail check_category, so category_to_comonoid
    # refuses them; check_cofunctor reads them as comonoids all the same
    rng = random.Random(32)
    catalog = generate_categories(3, 6)
    lawless = [_golden_lawless_category()]
    for index in sorted(rng.sample(range(len(catalog)), 80)):
        got = _corrupted(catalog[index], rng)
        if got is not None and not check_category(got[0])["ok"]:
            lawless.append(got[0])
    assert len(lawless) > 40
    laws = set()
    for k in lawless:
        with pytest.raises(ValueError, match="category axioms fail"):
            category_to_comonoid(k)
        other = rng.choice([m for m in catalog if len(m.objects)])
        cofunctors = [identity_cofunctor(k)]
        cofunctors += [_random_cofunctor(rng, s, t) for s, t in ((k, k), (k, other), (other, k))]
        for f in cofunctors:
            report = check_cofunctor(f)
            assert report == _reference_check_cofunctor(f)
            laws.update(v["law"] for v in report["violations"])
    assert laws == {"i", "ii", "iii"}


def test_check_cofunctor_builds_each_carrier_once(monkeypatch):
    # the lens of the walk is taken over unchecked (the Cofunctor
    # constructor checked its typing), and the comonoids the walk reads
    # share its carriers
    from polydyn import _comonoid_cold, comonoid

    built = []

    def counted(k):
        built.append(k)
        return category_carrier(k)

    monkeypatch.setattr(comonoid, "category_carrier", counted)
    monkeypatch.setattr(_comonoid_cold, "category_carrier", counted)
    rng = random.Random(33)
    catalog = generate_categories(3, 6)
    picked = [catalog[i] for i in sorted(rng.sample(range(len(catalog)), 30))]
    lawless = [_golden_lawless_category()]
    lawless += [got[0] for k in picked if (got := _corrupted(k, rng)) is not None]
    assert any(not check_category(k)["ok"] for k in lawless)
    cofunctors = [identity_cofunctor(k) for k in picked + lawless]
    for src in picked + lawless:
        tgt = rng.choice([k for k in picked if len(k.objects)])
        cofunctors += [_random_cofunctor(rng, src, tgt), _random_cofunctor(rng, tgt, src)]
    laws = set()
    for f in cofunctors:
        built.clear()
        report = check_cofunctor(f)
        # at most one carrier per category, and one in all when src is tgt
        assert sorted(map(id, built)) == sorted({id(f.src), id(f.tgt)})
        assert report == _reference_check_cofunctor(f)
        laws.update(v["law"] for v in report["violations"])
    assert laws == {"i", "ii", "iii"}


def _complete_category(names) -> FinCat:
    """The category with one morphism x>y between any two objects."""
    mors = [(f"{x}>{y}", x, y) for x in names for y in names]
    compose = {(f"{y}>{z}", f"{x}>{y}"): f"{x}>{z}" for x in names for y in names for z in names}
    return FinCat(FinSet(names), mors, {x: f"{x}>{x}" for x in names}, compose)


def test_law_ii_skips_law_iii_per_morphism_and_the_squares_per_position():
    # at a, a>b is pulled to a>c, which leads to c and not b (law ii); a>c
    # is pulled to itself (law ii holds), but (c>b)∘(a>c) = a>b is pulled
    # to a>c, not to (c>b)∘(a>c) (law iii).  The comult square at a fails
    # as a whole, so check_comonoid_morphism reports none of its directions
    # there.  (Objects b and c break law iii through a>b as well.)
    k = _complete_category(("a", "b", "c"))
    c = category_to_comonoid(k)
    on_dir = {x: {m: m for m in k.out[x]} for x in k.objects.elements}
    on_dir["a"]["a>b"] = "a>c"
    phi = Lens(c.carrier, c.carrier, {x: x for x in k.objects.elements}, on_dir)
    laws = check_cofunctor(lens_to_cofunctor(phi, k, k))["violations"]
    assert [v for v in laws if v["object"] == "a"] == [
        {"law": "ii", "object": "a", "morphism": "a>b", "pulled": "a>c",
         "cod_image": "c", "cod": "b"},
        {"law": "iii", "object": "a", "first": "a>c", "second": "c>b",
         "left": "a>c", "right": "a>b"},
    ]
    squares = check_comonoid_morphism(phi, c, c)["violations"]
    at_a = [(v["law"], "direction" in v) for v in squares if v["position"] == "a"]
    assert at_a == [("comult_square", False)]


def test_comonoid_reads_of_one_category_share_its_composite_table():
    k = _complete_category(("a", "b"))
    assert category_to_comonoid(k).composite is category_to_comonoid(k).composite
    assert category_to_comonoid(k).composite == {
        x: {(f"{x}>{y}", f"{y}>{z}"): f"{x}>{z}" for y in "ab" for z in "ab"} for x in "ab"
    }


def test_check_cofunctor_costs_about_what_the_squares_cost():
    # the same walk on the same map; check_cofunctor also forms the lens
    # and reads the categories as comonoids, whose composite tables each
    # category keeps after the first read
    k = _complete_category(tuple(f"s{j}" for j in range(30)))
    f = identity_cofunctor(k)
    phi, c = cofunctor_to_lens(f), category_to_comonoid(k)
    runs = {"cofunctor": lambda: check_cofunctor(f), "squares": lambda: check_comonoid_morphism(phi, c, c)}
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(5):
        for name, run in runs.items():
            start = time.perf_counter()
            assert run()["ok"]
            best[name] = min(best[name], time.perf_counter() - start)
    assert best["cofunctor"] < 1.5 * best["squares"], best


def test_comult_is_refused_before_its_labels_are_written():
    c = contractible(FinSet(tuple(f"s{j}" for j in range(256))))
    for read in (lambda: c.comult, lambda: comonoid_to_json(c)):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError):
            read()
        assert time.perf_counter() - start < 0.05


def _six_states() -> Comonoid:
    return contractible(FinSet(tuple(f"s{j}" for j in range(6))))


def _traced_peak(read) -> tuple:
    """(read(), the peak bytes tracemalloc sees while it runs)."""
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        value = read()
        return value, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_comult_of_six_states_lists_none_of_its_codomain():
    # carrier∘carrier is read from the carrier, so its 279,936 positions
    # are counted, and the lens checks its six targets, without writing
    # their labels; listing them took about 60 MB
    algebra._poly_compose.cache_clear()
    c = _six_states()
    start = time.perf_counter()
    comult = c.comult
    assert time.perf_counter() - start < 0.05
    assert comult.cod.num_positions() == 6 * 6**6 == 279_936
    algebra._poly_compose.cache_clear()
    comult, peak = _traced_peak(lambda: _six_states().comult)
    assert peak < 1 << 20
    assert comult.cod.num_positions() == 279_936


def test_a_missing_position_of_the_comult_codomain_is_named_without_listing():
    # the message used to carry the repr of all 279,936 positions (126 MB)
    cod = _six_states().comult.cod
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        cod.directions("(s0,{2}[])")
    assert time.perf_counter() - start < 0.05
    assert str(info.value) == "no position '(s0,{2}[])' among the 279936 of this polynomial"


def test_comonoid_rebuilt_from_its_own_lenses_lists_nothing():
    # the constructor recognises the codomain poly_compose built from the
    # carrier, instead of decoding each of its 279,936 positions
    one = contractible(FinSet(("a",)))
    Comonoid(one.carrier, one.counit, one.comult)  # loads the constructor's cold half
    algebra._poly_compose.cache_clear()
    c = _six_states()
    counit, comult = c.counit, c.comult
    rebuilt, peak = _traced_peak(lambda: Comonoid(c.carrier, counit, comult))
    assert peak < 1 << 20
    assert rebuilt == c


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


def test_is_cat_isomorphism_rejects_maps_that_are_not_bijections():
    k = comonoid_to_category(contractible(FinSet(("a", "b"))))
    objs = {"a": "a", "b": "b"}
    mors = {m: m for m, _, _ in k.morphisms}
    for obj_map in ({"a": "a"}, {**objs, "c": "a"}, {"a": "a", "b": "a"}, {"a": "a", "b": "c"}):
        assert not is_cat_isomorphism(k, k, obj_map, mors)
    first = k.morphisms[0][0]
    partial = {m: v for m, v in mors.items() if m != first}
    second = k.morphisms[1][0]
    for mor_map in (partial, {**mors, "x": first}, {**mors, first: second}, {**mors, first: "x"}):
        assert not is_cat_isomorphism(k, k, objs, mor_map)


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


def test_cofree_position_cap_is_a_size_limit_error():
    # the other caps raise SizeLimitError; this one raised a plain ValueError
    p = make_poly([("a", ("d", "e")), ("b", ("f", "g"))])
    with pytest.raises(SizeLimitError, match=r"^stage 4 would have 32768 positions \(cap 20000\)$") as info:
        cofree_truncation(p, 4)
    assert (info.value.operation, info.value.predicted, info.value.limit) == (
        "cofree_truncation",
        32768,
        20000,
    )


def test_cofree_position_cap_names_a_huge_stage_by_its_digit_count():
    # stage 2 has 3^10000 + 2 positions, 4772 digits, too many for str()
    # under the interpreter's default limit; it raised a plain ValueError
    p = make_poly([("a", [f"d{i}" for i in range(10000)]), ("b", []), ("c", [])])
    with pytest.raises(SizeLimitError) as info:
        cofree_truncation(p, 3)
    assert info.value.predicted == 3**10000 + 2
    if 0 < getattr(sys, "get_int_max_str_digits", int)() < 4772:
        assert str(info.value) == "stage 2 would have a 4772-digit number of positions (cap 20000)"


def test_comonoid_entry_points_name_an_argument_of_the_wrong_type():
    for build in (contractible, discrete_comonoid):
        with pytest.raises(TypeError, match="s must be a FinSet, not int"):
            build(3)
    with pytest.raises(TypeError, match="c must be a Comonoid, not int"):
        check_comonoid_laws(5)


def test_category_entry_points_name_an_argument_of_the_wrong_type():
    c = contractible(FinSet(("a", "b")))
    k = comonoid_to_category(c)
    with pytest.raises(TypeError, match="^objects must be a FinSet, not list$"):
        FinCat(["a"], [("ia", "a", "a")], {"a": "ia"}, {("ia", "ia"): "ia"})
    for call in (check_category, category_to_comonoid, category_carrier):
        with pytest.raises(TypeError, match="^k must be a FinCat, not Comonoid$"):
            call(c)
    for call, maps in ((is_cat_isomorphism, ({}, {})), (cat_isomorphic, ())):
        with pytest.raises(TypeError, match="^k1 must be a FinCat, not NoneType$"):
            call(None, k, *maps)
        with pytest.raises(TypeError, match="^k2 must be a FinCat, not Comonoid$"):
            call(k, c, *maps)
    # the same message before and after check_category keeps a verdict on k
    with pytest.raises(TypeError, match="^c must be a Comonoid, not FinCat$"):
        comonoid_to_category(k)
    assert check_category(k)["ok"]
    with pytest.raises(TypeError, match="^c must be a Comonoid, not FinCat$"):
        comonoid_to_category(k)


def test_cold_entry_points_name_an_argument_of_the_wrong_type():
    # each of these raised an AttributeError or a TypeError about iteration
    c = contractible(FinSet(("a", "b")))
    k = comonoid_to_category(c)
    cases = [
        (lambda: FinCat(FinSet(()), [], None, {}), "identity must be a Mapping, not NoneType"),
        (lambda: FinCat(FinSet(()), [], {}, [0]), "compose2 must be a Mapping, not list"),
        (lambda: check_cofunctor(k), "f must be a Cofunctor, not FinCat"),
        (lambda: comonoid_sum(k, c), "c must be a Comonoid, not FinCat"),
        (lambda: comonoid_tensor(c, "x"), "d must be a Comonoid, not str"),
        (lambda: check_comonoid_morphism("x", c, c), "phi must be a Lens, not str"),
        (lambda: nstep_behavior(k, None, 1), "c must be a Comonoid, not FinCat"),
        (lambda: fincat_to_json(c), "k must be a FinCat, not Comonoid"),
        (lambda: comonoid_to_json(k), "c must be a Comonoid, not FinCat"),
        (lambda: identity_cofunctor(c), "k must be a FinCat, not Comonoid"),
        (lambda: lens_to_cofunctor(None, k, k), "phi must be a Lens, not NoneType"),
        (lambda: cofunctor_to_lens(k), "f must be a Cofunctor, not FinCat"),
        (lambda: Cofunctor(k, k, None, {}), "on_obj must be a SetFn, not NoneType"),
    ]
    for call, message in cases:
        with pytest.raises(TypeError, match=f"^{message}$"):
            call()


def test_cofree_truncation_refuses_bounds_that_are_not_ints():
    p = make_poly([("a", ("l", "r")), ("b", ())])
    for args, message in (
        ((2.5,), "depth must be an int, not float"),
        (("2",), "depth must be an int, not str"),
        ((2, 1e4), "max_positions must be an int, not float"),
    ):
        with pytest.raises(TypeError, match=f"^{message}$"):
            cofree_truncation(p, *args)


def test_cofree_labels_grow_linearly_with_the_trees():
    # Each part of a nested label is embedded once; when every level escaped
    # its parts again, depth 4 of y^2 + 1 carried 54 MB of labels and took
    # seconds to build.
    p = make_poly([("a", ("l", "r")), ("b", ())])
    start = time.perf_counter()
    stages, projections = cofree_truncation(p, 4)
    elapsed = time.perf_counter() - start
    assert [len(s.positions) for s in stages] == [1, 2, 5, 26, 677]
    assert sum(len(i) for i in stages[-1].position_labels) < 1 << 20
    assert elapsed < 0.5
    assert projections[-1].dom == stages[-1]


def test_cofree_depth_five_is_refused_before_building_the_stage():
    # p∘c_4 has 458,330 positions, under the position cap; y × (p∘c_4)
    # would carry 12,816,966 positions plus direction labels.  Building
    # p∘c_4 to find that out took seconds and 446 MB.
    p = make_poly([("a", ("l", "r")), ("b", ())])
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as info:
        cofree_truncation(p, 5, max_positions=10**6)
    assert time.perf_counter() - start < 1
    assert info.value.operation == "product_many"
    assert info.value.predicted == 12_816_966
    assert str(info.value) == (
        "product_many would build 12816966 positions plus direction labels, "
        f"above the limit of {COMPOSE_LIMIT}"
    )


def test_cofree_refusals_predict_what_compose_and_product_would_build(monkeypatch):
    for spec, depth in (
        ([("a", ("l", "r")), ("b", ())], 4),
        ([("a", ("d", "e")), ("b", ("d",))], 3),
        ([("h", ("d",)), ("t", ("d",)), ("n", ())], 4),
    ):
        p = make_poly(spec)
        stages, _ = cofree_truncation(p, depth)
        # per stage, the positions of p∘c_k and then the positions plus
        # direction labels of y × (p∘c_k), in the order they are built
        sizes = [
            (
                ("poly_compose", poly_compose(p, prev).num_positions()),
                ("product_many", nxt.num_positions() + sum(len(d) for _, d in nxt.positions)),
            )
            for prev, nxt in zip(stages, stages[1:])
        ]
        limits = {size + d for stage in sizes for _, size in stage for d in (-1, 0)}
        for limit in sorted(limits):
            refused = next(
                ((op, size) for stage in sizes for op, size in stage if size > limit), None
            )
            with monkeypatch.context() as m:
                m.setattr(algebra, "COMPOSE_LIMIT", limit)
                if refused is None:
                    assert cofree_truncation(p, depth)[0] == stages
                    continue
                with pytest.raises(SizeLimitError) as info:
                    cofree_truncation(p, depth)
            assert (info.value.operation, info.value.predicted) == refused


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


@pytest.mark.parametrize(
    "load, data, kind",
    [
        (comonoid_from_json, [], "comonoid"),
        (comonoid_from_json, {"carrier": 1}, "polynomial"),
        (fincat_from_json, [], "category"),
        (fincat_from_json, {"objects": ["a"], "morphisms": [3], "identity": {}, "compose": []}, "category"),
        (fincat_from_json, {"objects": [], "morphisms": {}, "identity": {}, "compose": []}, "category"),
        (fincat_from_json, {"objects": [], "morphisms": [], "identity": [], "compose": []}, "category"),
        (fincat_from_json, {"objects": [], "morphisms": [], "identity": {}, "compose": [[]]}, "category"),
    ],
)
def test_json_loaders_name_a_node_of_the_wrong_type(load, data, kind):
    with pytest.raises(ValueError, match=f"expected an (object|array) in {kind} JSON"):
        load(data)


def test_fincat_from_json_refuses_a_repeated_compose_pair():
    # x∘x listed twice, as 1 and as x: a loader that kept the last entry
    # would answer compose2("x", "x") == "x"
    data = {
        "objects": ["*"],
        "morphisms": [{"label": m, "dom": "*", "cod": "*"} for m in ("1", "x")],
        "identity": {"*": "1"},
        "compose": [
            {"after": g, "first": f, "result": f if g == "1" else g}
            for g in ("1", "x")
            for f in ("1", "x")
        ],
    }
    data["compose"][3]["result"] = "1"
    assert fincat_from_json(data).compose2("x", "x") == "1"
    data["compose"].append({"after": "x", "first": "x", "result": "x"})
    with pytest.raises(ValueError) as info:
        fincat_from_json(data)
    assert str(info.value) == "repeated compose entry for ('x', 'x')"


@pytest.mark.parametrize("objects, got", [(3, "int"), ("ab", "str"), ({"a": 1}, "dict")])
def test_fincat_from_json_checks_the_objects_array(objects, got):
    data = {"objects": objects, "morphisms": [], "identity": {}, "compose": []}
    with pytest.raises(ValueError) as info:
        fincat_from_json(data)
    assert str(info.value) == f"expected an array in category JSON, got {got}"


def test_comonoid_shape_validation():
    c2 = contractible(FinSet(("a", "b")))
    d2 = discrete_comonoid(FinSet(("a", "b")))
    with pytest.raises(ValueError, match="carrier → y"):
        Comonoid(c2.carrier, d2.counit, c2.comult)
    with pytest.raises(ValueError, match="carrier∘carrier"):
        Comonoid(c2.carrier, c2.counit, c2.counit)


def _with_cod_position(data, label, new_label=None, drop_dir=None):
    """Comonoid JSON with one comult codomain position, not the image of any
    state, relabelled or stripped of one direction."""
    data = json.loads(json.dumps(data))
    for entry in data["comult"]["cod"]["positions"]:
        if entry["label"] == label:
            entry["label"] = new_label or label
            entry["dirs"] = [d for d in entry["dirs"] if d != drop_dir]
    return data


def test_comult_codomain_is_recognised_from_its_decoded_labels():
    c = contractible(FinSet(("a", "b")))
    data = comonoid_to_json(c)
    unused = "(a,{9}[a:b,b:a])"
    assert unused not in data["comult"]["onPos"].values()
    # the older form of the same position is the same position
    older = _with_cod_position(data, unused, "(a,\\[a\\:b\\,b\\:a\\])")
    assert comonoid_from_json(older) == c
    for broken in (
        _with_cod_position(data, unused, "junk"),
        _with_cod_position(data, unused, "(a,{9}[a:b,b:c])"),
        _with_cod_position(data, unused, "(a,{5}[a:b])"),
        # decodes to (a, [a:a,b:a]), which is there already
        _with_cod_position(data, unused, "(a,\\[a\\:a\\,b\\:a\\])"),
        _with_cod_position(data, unused, drop_dir="(b,b)"),
    ):
        with pytest.raises(ValueError, match="carrier∘carrier"):
            comonoid_from_json(broken)


# ---------------------------------------------------------------------------
# The tables-first representation: JSON contract, derived comult, sizes.

# The comonoid JSON of each constructor in the older label form, where a
# nested part escaped its special characters with a backslash at every level.
# Recorded when the comultiplication lens was the stored data; such JSON must
# still load.
LEGACY_GOLDEN_JSON = {
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

# canonical_json(comonoid_to_json(c)) of each constructor, in the
# length-prefixed label form: the comonoid JSON is a public contract.  Kept
# compact here; canonical re-serialization compares byte-for-byte.
GOLDEN_JSON = {
    "contractible": (
        '{"carrier":{"positions":[{"dirs":["a","b"],"label":"a"},{"dirs":["a","b"],"la'
        'bel":"b"}]},"comult":{"cod":{"positions":[{"dirs":["(a,a)","(a,b)","(b,a)","('
        'b,b)"],"label":"(a,{9}[a:a,b:a])"},{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],'
        '"label":"(a,{9}[a:a,b:b])"},{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label"'
        ':"(a,{9}[a:b,b:a])"},{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"(a,{9'
        '}[a:b,b:b])"},{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"(b,{9}[a:a,b'
        ':a])"},{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"(b,{9}[a:a,b:b])"},'
        '{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"(b,{9}[a:b,b:a])"},{"dirs"'
        ':["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"(b,{9}[a:b,b:b])"}]},"dom":{"posi'
        'tions":[{"dirs":["a","b"],"label":"a"},{"dirs":["a","b"],"label":"b"}]},"onDi'
        'r":{"a":{"(a,a)":"a","(a,b)":"b","(b,a)":"a","(b,b)":"b"},"b":{"(a,a)":"a","('
        'a,b)":"b","(b,a)":"a","(b,b)":"b"}},"onPos":{"a":"(a,{9}[a:a,b:b])","b":"(b,{'
        '9}[a:a,b:b])"}},"counit":{"cod":{"positions":[{"dirs":["*"],"label":"*"}]},"d'
        'om":{"positions":[{"dirs":["a","b"],"label":"a"},{"dirs":["a","b"],"label":"b'
        '"}]},"onDir":{"a":{"*":"a"},"b":{"*":"b"}},"onPos":{"a":"*","b":"*"}}}'
    ),
    "discrete": (
        '{"carrier":{"positions":[{"dirs":["*"],"label":"p"},{"dirs":["*"],"label":"q"'
        '}]},"comult":{"cod":{"positions":[{"dirs":["(*,*)"],"label":"(p,{5}[*:p])"},{'
        '"dirs":["(*,*)"],"label":"(p,{5}[*:q])"},{"dirs":["(*,*)"],"label":"(q,{5}[*:'
        'p])"},{"dirs":["(*,*)"],"label":"(q,{5}[*:q])"}]},"dom":{"positions":[{"dirs"'
        ':["*"],"label":"p"},{"dirs":["*"],"label":"q"}]},"onDir":{"p":{"(*,*)":"*"},"'
        'q":{"(*,*)":"*"}},"onPos":{"p":"(p,{5}[*:p])","q":"(q,{5}[*:q])"}},"counit":{'
        '"cod":{"positions":[{"dirs":["*"],"label":"*"}]},"dom":{"positions":[{"dirs":'
        '["*"],"label":"p"},{"dirs":["*"],"label":"q"}]},"onDir":{"p":{"*":"*"},"q":{"'
        '*":"*"}},"onPos":{"p":"*","q":"*"}}}'
    ),
    "cyclic2": (
        '{"carrier":{"positions":[{"dirs":["e","s"],"label":"m"}]},"comult":{"cod":{"p'
        'ositions":[{"dirs":["(e,e)","(e,s)","(s,e)","(s,s)"],"label":"(m,{9}[e:m,s:m]'
        ')"}]},"dom":{"positions":[{"dirs":["e","s"],"label":"m"}]},"onDir":{"m":{"(e,'
        'e)":"e","(e,s)":"s","(s,e)":"s","(s,s)":"e"}},"onPos":{"m":"(m,{9}[e:m,s:m])"'
        '}},"counit":{"cod":{"positions":[{"dirs":["*"],"label":"*"}]},"dom":{"positio'
        'ns":[{"dirs":["e","s"],"label":"m"}]},"onDir":{"m":{"*":"e"}},"onPos":{"m":"*'
        '"}}}'
    ),
    "sum": (
        '{"carrier":{"positions":[{"dirs":["a","b"],"label":"0|a"},{"dirs":["a","b"],"'
        'label":"0|b"},{"dirs":["*"],"label":"1|p"}]},"comult":{"cod":{"positions":[{"'
        'dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"({3}0|a,{19}[a:{3}0|a,b:{3}0'
        '|a])"},{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"({3}0|a,{19}[a:{3}0'
        '|a,b:{3}0|b])"},{"dirs":["(a,a)","(a,b)","(b,*)"],"label":"({3}0|a,{19}[a:{3}'
        '0|a,b:{3}1|p])"},{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"({3}0|a,{'
        '19}[a:{3}0|b,b:{3}0|a])"},{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"label":"'
        '({3}0|a,{19}[a:{3}0|b,b:{3}0|b])"},{"dirs":["(a,a)","(a,b)","(b,*)"],"label":'
        '"({3}0|a,{19}[a:{3}0|b,b:{3}1|p])"},{"dirs":["(a,*)","(b,a)","(b,b)"],"label"'
        ':"({3}0|a,{19}[a:{3}1|p,b:{3}0|a])"},{"dirs":["(a,*)","(b,a)","(b,b)"],"label'
        '":"({3}0|a,{19}[a:{3}1|p,b:{3}0|b])"},{"dirs":["(a,*)","(b,*)"],"label":"({3}'
        '0|a,{19}[a:{3}1|p,b:{3}1|p])"},{"dirs":["(a,a)","(a,b)","(b,a)","(b,b)"],"lab'
        'el":"({3}0|b,{19}[a:{3}0|a,b:{3}0|a])"},{"dirs":["(a,a)","(a,b)","(b,a)","(b,'
        'b)"],"label":"({3}0|b,{19}[a:{3}0|a,b:{3}0|b])"},{"dirs":["(a,a)","(a,b)","(b'
        ',*)"],"label":"({3}0|b,{19}[a:{3}0|a,b:{3}1|p])"},{"dirs":["(a,a)","(a,b)","('
        'b,a)","(b,b)"],"label":"({3}0|b,{19}[a:{3}0|b,b:{3}0|a])"},{"dirs":["(a,a)","'
        '(a,b)","(b,a)","(b,b)"],"label":"({3}0|b,{19}[a:{3}0|b,b:{3}0|b])"},{"dirs":['
        '"(a,a)","(a,b)","(b,*)"],"label":"({3}0|b,{19}[a:{3}0|b,b:{3}1|p])"},{"dirs":'
        '["(a,*)","(b,a)","(b,b)"],"label":"({3}0|b,{19}[a:{3}1|p,b:{3}0|a])"},{"dirs"'
        ':["(a,*)","(b,a)","(b,b)"],"label":"({3}0|b,{19}[a:{3}1|p,b:{3}0|b])"},{"dirs'
        '":["(a,*)","(b,*)"],"label":"({3}0|b,{19}[a:{3}1|p,b:{3}1|p])"},{"dirs":["(*,'
        'a)","(*,b)"],"label":"({3}1|p,{10}[*:{3}0|a])"},{"dirs":["(*,a)","(*,b)"],"la'
        'bel":"({3}1|p,{10}[*:{3}0|b])"},{"dirs":["(*,*)"],"label":"({3}1|p,{10}[*:{3}'
        '1|p])"}]},"dom":{"positions":[{"dirs":["a","b"],"label":"0|a"},{"dirs":["a","'
        'b"],"label":"0|b"},{"dirs":["*"],"label":"1|p"}]},"onDir":{"0|a":{"(a,a)":"a"'
        ',"(a,b)":"b","(b,a)":"a","(b,b)":"b"},"0|b":{"(a,a)":"a","(a,b)":"b","(b,a)":'
        '"a","(b,b)":"b"},"1|p":{"(*,*)":"*"}},"onPos":{"0|a":"({3}0|a,{19}[a:{3}0|a,b'
        ':{3}0|b])","0|b":"({3}0|b,{19}[a:{3}0|a,b:{3}0|b])","1|p":"({3}1|p,{10}[*:{3}'
        '1|p])"}},"counit":{"cod":{"positions":[{"dirs":["*"],"label":"*"}]},"dom":{"p'
        'ositions":[{"dirs":["a","b"],"label":"0|a"},{"dirs":["a","b"],"label":"0|b"},'
        '{"dirs":["*"],"label":"1|p"}]},"onDir":{"0|a":{"*":"a"},"0|b":{"*":"b"},"1|p"'
        ':{"*":"*"}},"onPos":{"0|a":"*","0|b":"*","1|p":"*"}}}'
    ),
    "tensor": (
        '{"carrier":{"positions":[{"dirs":["(e,*)","(s,*)"],"label":"(m,p)"},{"dirs":['
        '"(e,*)","(s,*)"],"label":"(m,q)"}]},"comult":{"cod":{"positions":[{"dirs":["('
        '{5}(e,*),{5}(e,*))","({5}(e,*),{5}(s,*))","({5}(s,*),{5}(e,*))","({5}(s,*),{5'
        '}(s,*))"],"label":"({5}(m,p),{37}[{5}(e,*):{5}(m,p),{5}(s,*):{5}(m,p)])"},{"d'
        'irs":["({5}(e,*),{5}(e,*))","({5}(e,*),{5}(s,*))","({5}(s,*),{5}(e,*))","({5}'
        '(s,*),{5}(s,*))"],"label":"({5}(m,p),{37}[{5}(e,*):{5}(m,p),{5}(s,*):{5}(m,q)'
        '])"},{"dirs":["({5}(e,*),{5}(e,*))","({5}(e,*),{5}(s,*))","({5}(s,*),{5}(e,*)'
        ')","({5}(s,*),{5}(s,*))"],"label":"({5}(m,p),{37}[{5}(e,*):{5}(m,q),{5}(s,*):'
        '{5}(m,p)])"},{"dirs":["({5}(e,*),{5}(e,*))","({5}(e,*),{5}(s,*))","({5}(s,*),'
        '{5}(e,*))","({5}(s,*),{5}(s,*))"],"label":"({5}(m,p),{37}[{5}(e,*):{5}(m,q),{'
        '5}(s,*):{5}(m,q)])"},{"dirs":["({5}(e,*),{5}(e,*))","({5}(e,*),{5}(s,*))","({'
        '5}(s,*),{5}(e,*))","({5}(s,*),{5}(s,*))"],"label":"({5}(m,q),{37}[{5}(e,*):{5'
        '}(m,p),{5}(s,*):{5}(m,p)])"},{"dirs":["({5}(e,*),{5}(e,*))","({5}(e,*),{5}(s,'
        '*))","({5}(s,*),{5}(e,*))","({5}(s,*),{5}(s,*))"],"label":"({5}(m,q),{37}[{5}'
        '(e,*):{5}(m,p),{5}(s,*):{5}(m,q)])"},{"dirs":["({5}(e,*),{5}(e,*))","({5}(e,*'
        '),{5}(s,*))","({5}(s,*),{5}(e,*))","({5}(s,*),{5}(s,*))"],"label":"({5}(m,q),'
        '{37}[{5}(e,*):{5}(m,q),{5}(s,*):{5}(m,p)])"},{"dirs":["({5}(e,*),{5}(e,*))","'
        '({5}(e,*),{5}(s,*))","({5}(s,*),{5}(e,*))","({5}(s,*),{5}(s,*))"],"label":"({'
        '5}(m,q),{37}[{5}(e,*):{5}(m,q),{5}(s,*):{5}(m,q)])"}]},"dom":{"positions":[{"'
        'dirs":["(e,*)","(s,*)"],"label":"(m,p)"},{"dirs":["(e,*)","(s,*)"],"label":"('
        'm,q)"}]},"onDir":{"(m,p)":{"({5}(e,*),{5}(e,*))":"(e,*)","({5}(e,*),{5}(s,*))'
        '":"(s,*)","({5}(s,*),{5}(e,*))":"(s,*)","({5}(s,*),{5}(s,*))":"(e,*)"},"(m,q)'
        '":{"({5}(e,*),{5}(e,*))":"(e,*)","({5}(e,*),{5}(s,*))":"(s,*)","({5}(s,*),{5}'
        '(e,*))":"(s,*)","({5}(s,*),{5}(s,*))":"(e,*)"}},"onPos":{"(m,p)":"({5}(m,p),{'
        '37}[{5}(e,*):{5}(m,p),{5}(s,*):{5}(m,p)])","(m,q)":"({5}(m,q),{37}[{5}(e,*):{'
        '5}(m,q),{5}(s,*):{5}(m,q)])"}},"counit":{"cod":{"positions":[{"dirs":["*"],"l'
        'abel":"*"}]},"dom":{"positions":[{"dirs":["(e,*)","(s,*)"],"label":"(m,p)"},{'
        '"dirs":["(e,*)","(s,*)"],"label":"(m,q)"}]},"onDir":{"(m,p)":{"*":"(e,*)"},"('
        'm,q)":{"*":"(e,*)"}},"onPos":{"(m,p)":"*","(m,q)":"*"}}}'
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


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_comonoid_json_in_the_older_label_form_still_loads(name):
    expected = GOLDEN_CASES[name]()
    got = comonoid_from_json(json.loads(LEGACY_GOLDEN_JSON[name]))
    assert got == expected
    assert comonoid_to_json(got) == comonoid_to_json(expected)


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


def test_counit_is_derived_on_first_read_and_kept():
    # building a comonoid builds no counit lens; equality and hashing never
    # do, and the lens derived from the identities is the one passed in
    c = category_to_comonoid(walking_arrow(["ia", "f", "ib"]))
    d = contractible(FinSet(("a", "b", "c")))
    e = contractible(FinSet(("a", "b", "c")))
    assert d == e and hash(d) == hash(e) and c != d and hash(c) != hash(d)
    assert c._counit is d._counit is e._counit is None
    assert c.counit.on_dir == {o: {"*": m} for o, m in c.identity.items()}
    labels = d.carrier.position_labels
    counit = Lens(d.carrier, Y, dict.fromkeys(labels, "*"), {x: {"*": x} for x in labels})
    assert d.counit == counit and d.counit is d.counit
    built = Comonoid(d.carrier, counit, d.comult)
    assert built._counit is None
    assert built.counit == counit
    with pytest.raises(AttributeError):
        d.counit = counit


def _unshared_tables(c):
    """_from_tables' arguments for c, as plain dicts: one fresh dict per
    position, so no two positions share a table."""
    return (
        c.carrier,
        dict(c.identity),
        {i: dict(t) for i, t in c.codomain.items()},
        {i: dict(t) for i, t in c.composite.items()},
        dict(c.base),
    )


def _with_entry(tables, i, key, value):
    """A copy of a position → table dict whose table at i has key → value."""
    out = dict(tables)
    out[i] = {**tables[i], key: value}
    return out


def _equality_cases(n):
    """Pairs of comonoids on n states that share tables per position, some
    equal and some lawless ones differing in one codomain or composite entry."""
    elems = tuple(f"s{k}" for k in range(n))
    c = contractible(FinSet(elems))
    yield c, contractible(FinSet(elems))
    yield c, Comonoid._from_tables(*_unshared_tables(c))
    yield c, discrete_comonoid(FinSet(elems))
    if n < 2:
        return
    first, last = elems[0], elems[-1]
    for i in (first, last):
        cod = _with_entry(c.codomain, i, first, last)
        yield c, Comonoid._from_tables(c.carrier, c.identity, cod, c.composite)
        comp = _with_entry(c.composite, i, (last, first), last)
        yield c, Comonoid._from_tables(c.carrier, c.identity, c.codomain, comp)
        # the same change made twice, in tables that share nothing
        yield (
            Comonoid._from_tables(c.carrier, c.identity, c.codomain, comp),
            Comonoid._from_tables(*_unshared_tables(
                Comonoid._from_tables(c.carrier, c.identity, c.codomain, comp)
            )),
        )


@pytest.mark.parametrize("n", range(1, 11))
def test_comonoid_equality_agrees_with_unshared_plain_dicts(n):
    verdicts = set()
    for c, d in _equality_cases(n):
        want = _unshared_tables(c) == _unshared_tables(d)
        assert (c == d) is want and (d == c) is want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_comonoid_equality_compares_shared_tables_once():
    elems = FinSet(tuple(f"s{k}" for k in range(200)))
    c, d = contractible(elems), contractible(elems)
    t0 = time.perf_counter()
    assert c == d
    assert time.perf_counter() - t0 < 0.05


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


def test_laws_of_contractible_on_sixty_states_check_fast():
    c = contractible(FinSet(tuple(f"s{k}" for k in range(60))))
    t0 = time.perf_counter()
    report = check_comonoid_laws(c)
    assert time.perf_counter() - t0 < 1.0
    assert report == {"ok": True, "violations": []}


def _unshared(c: Comonoid) -> Comonoid:
    """The same comonoid with its own copy of every table at every position."""
    return Comonoid._from_tables(
        c.carrier,
        dict(c.identity),
        {i: dict(c.codomain[i]) for i in c.carrier.position_labels},
        {i: dict(c.composite[i]) for i in c.carrier.position_labels},
        dict(c.base),
    )


def _lawless_with_shared_tables():
    # every direction leads to the state it names, but composing is the
    # non-associative (t, u) ↦ 2t + u mod 3: position-level failures
    three = contractible(FinSet(("0", "1", "2"))).carrier
    skew = {(t, u): str((2 * int(t) + int(u)) % 3) for t in "012" for u in "012"}
    yield Comonoid._from_tables(
        three,
        {x: x for x in "012"},
        dict.fromkeys("012", {t: t for t in "012"}),
        dict.fromkeys("012", skew),
    )
    # two positions sharing a non-associative monoid table whose directions
    # all lead to p: per-direction failures at both, counit failures at q
    dirs = FinSet(("1", "x", "y"))
    table = {("1", d): d for d in dirs.elements}
    table.update({(d, "1"): d for d in dirs.elements})
    table.update({("x", "x"): "y", ("x", "y"): "x", ("y", "x"): "y", ("y", "y"): "y"})
    yield Comonoid._from_tables(
        FinPoly([("p", dirs), ("q", dirs)]),
        {"p": "1", "q": "1"},
        dict.fromkeys("pq", dict.fromkeys(dirs.elements, "p")),
        dict.fromkeys("pq", table),
    )
    # contractible on a, b, c with one composite changed at c only: a and b
    # still share their tables but read c's through the codomains
    c3 = contractible(FinSet(("a", "b", "c")))
    composite = dict(c3.composite)
    composite["c"] = {**c3.composite["c"], ("a", "b"): "a"}
    yield Comonoid._from_tables(
        c3.carrier, dict(c3.identity), dict(c3.codomain), composite
    )


def test_law_report_is_the_same_with_shared_or_copied_tables():
    for c in _lawless_with_shared_tables():
        shared = check_comonoid_laws(c)
        assert not shared["ok"]
        assert any(v["law"] == "coassociativity" for v in shared["violations"])
        assert shared == check_comonoid_laws(_unshared(c))
    lawful = contractible(FinSet(tuple(f"s{k}" for k in range(5))))
    assert check_comonoid_laws(lawful) == check_comonoid_laws(_unshared(lawful))


def test_contractible_is_refused_before_its_composite_is_built():
    # 2049 states ask for 2049^2 composite entries, 4097 past 2^22
    states = FinSet(tuple(f"s{k}" for k in range(2049)))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(SizeLimitError) as info:
            contractible(states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 0.1
    assert peak < 1_000_000
    assert (info.value.operation, info.value.predicted) == ("contractible", 2049**2)
    assert str(info.value) == (
        f"contractible would build {2049**2} composite entries, above the limit of {COMPOSE_LIMIT}"
    )


def test_contractible_predicts_its_composite_exactly(monkeypatch):
    for n in (0, 1, 2, 5):
        states = FinSet(tuple(f"s{k}" for k in range(n)))
        with monkeypatch.context() as m:
            m.setattr(algebra, "COMPOSE_LIMIT", n * n)
            c = contractible(states)
            # one composite table, shared by every position
            tables = {id(c.composite[x]): c.composite[x] for x in states.elements}
            assert [len(t) for t in tables.values()] == [n * n][:n]
            if n:
                m.setattr(algebra, "COMPOSE_LIMIT", n * n - 1)
                with pytest.raises(SizeLimitError) as info:
                    contractible(states)
                assert info.value.predicted == n * n


def test_comult_of_seven_states_is_refused_before_allocating():
    c = contractible(FinSet(tuple(f"s{k}" for k in range(7))))
    with pytest.raises(SizeLimitError) as info:
        c.comult
    assert info.value.operation == "poly_compose"
    assert info.value.predicted == 7 * 7**7 == 5_764_801
    assert info.value.limit == COMPOSE_LIMIT == 2**22
    assert "5764801" in str(info.value) and str(2**22) in str(info.value)


# ---------------------------------------------------------------------------
# The conversions reuse the verdict of the last full check.


def test_checked_lawless_category_is_still_refused_with_the_golden_text():
    k = _golden_lawless_category()
    assert not check_category(k)["ok"]
    with pytest.raises(ValueError) as info:
        category_to_comonoid(k)
    assert str(info.value) == GOLDEN_AXIOMS_ERROR


def _conversion_error(convert, x) -> str:
    with pytest.raises(ValueError) as info:
        convert(x)
    return str(info.value)


def test_checked_lawless_comonoid_is_refused_with_the_same_text():
    for fresh, checked in zip(_lawless_with_shared_tables(), _lawless_with_shared_tables()):
        assert fresh == checked
        assert not check_comonoid_laws(checked)["ok"]
        want = _conversion_error(comonoid_to_category, fresh)
        assert want.startswith("comonoid laws fail: ")
        assert _conversion_error(comonoid_to_category, checked) == want


def _lawful_categories():
    yield cyclic2_category()
    yield arrow_category()
    yield comonoid_to_category(contractible(FinSet(("a", "b", "c"))))
    yield from generate_categories(2, 4)


def test_conversions_do_not_depend_on_whether_the_check_ran_first():
    for k in _lawful_categories():
        fresh = category_to_comonoid(fincat_from_json(fincat_to_json(k)))
        checked = fincat_from_json(fincat_to_json(k))
        assert check_category(checked)["ok"]
        after = category_to_comonoid(checked)
        assert after == fresh
        assert after.carrier.positions == fresh.carrier.positions
        # a comonoid built from a checked category is not taken as checked
        assert after._lawful is None
        back = comonoid_to_category(after)
        assert check_comonoid_laws(fresh)["ok"]
        assert fincat_to_json(comonoid_to_category(fresh)) == fincat_to_json(back)
        assert back._lawful is None


def test_cleared_reports_do_not_change_the_next_report():
    k = _golden_lawless_category()
    check_category(k)["violations"].clear()
    assert check_category(k) == GOLDEN_CATEGORY_REPORT
    for c in _lawless_with_shared_tables():
        want = check_comonoid_laws(c)
        want_records = list(want["violations"])
        want["violations"].clear()
        assert check_comonoid_laws(c) == {"ok": False, "violations": want_records}
    lawful = contractible(FinSet(("a", "b")))
    check_comonoid_laws(lawful)["violations"].append({"law": "planted"})
    assert check_comonoid_laws(lawful) == {"ok": True, "violations": []}


def test_category_of_contractible_on_sixty_states_builds_fast():
    c = contractible(FinSet(tuple(f"s{k}" for k in range(60))))
    t0 = time.perf_counter()
    k = comonoid_to_category(c)
    assert time.perf_counter() - t0 < 1.0
    assert len(k.morphisms) == 3600 and len(k._compose) == 216_000
    assert k.compose2(tag_label("s7", "s9"), tag_label("s3", "s7")) == tag_label("s3", "s9")


def _contractible_category():
    """The category of contractible(20), 400 morphisms and 8000
    composites, and a copy rebuilt from its labels."""
    k = comonoid_to_category(contractible(FinSet(tuple(f"s{j}" for j in range(20)))))
    k1 = FinCat(k.objects, k.morphisms, k.identity, k._compose)
    assert len(k1.morphisms) == 400 and len(k1._compose) == 8000
    return k, k1


def _round_trip(k, k1) -> tuple:
    """The five calls of a round trip of k1, the last against k; returns
    the seconds of the first four and of cat_isomorphic."""
    start = time.perf_counter()
    assert check_category(k1)["ok"]
    c = category_to_comonoid(k1)
    assert check_comonoid_laws(c)["ok"]
    k2 = comonoid_to_category(c)
    middle = time.perf_counter()
    assert cat_isomorphic(k, k2)
    return middle - start, time.perf_counter() - middle


def test_round_trip_of_the_category_of_contractible_on_twenty_states_stays_small():
    # Before the integer core, the four conversions and checks took
    # 0.20 s, cat_isomorphic 0.35 s and the five calls' traced peak was
    # 1.7 MB.  The core keeps one entry per composable pair; one with all
    # n² = 160,000 cells would hold about 1.3 MB in its rows alone.
    four, iso = _round_trip(*_contractible_category())
    assert four < 0.20 and iso < 0.35
    k, k1 = _contractible_category()
    tracemalloc.start()
    try:
        _round_trip(k, k1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * 2**20


# ---------------------------------------------------------------------------
# The law walks as they were before they read curried tables: every lookup
# builds a (g, f) or (d, e) key.  Kept verbatim, apart from the docstrings
# and the verdict the library keeps on its argument, so that the reports of
# the curried walks are pinned record for record, in order.


def _tuple_keyed_check_category(k: FinCat) -> dict:
    comp, cod_of, out, identity = k._compose, k.cod_of, k.out, k.identity
    labels = k.morphism_labels()
    violations = []
    for m in labels:
        left = comp[(identity[cod_of[m]], m)]
        if left != m:
            violations.append({"law": "left_identity", "morphism": m, "got": left})
        right = comp[(m, identity[k.dom_of[m]])]
        if right != m:
            violations.append({"law": "right_identity", "morphism": m, "got": right})
    for f in labels:
        for g in out[cod_of[f]]:
            gf = comp[(g, f)]
            for h in out[cod_of[g]]:
                left = comp[(h, gf)]
                right = comp[(comp[(h, g)], f)]
                if left != right:
                    violations.append(
                        {
                            "law": "associativity",
                            "triple": [h, g, f],
                            "left": left,
                            "right": right,
                        }
                    )
    return {"ok": not violations, "violations": violations}


def _tuple_keyed_law_report(c: Comonoid) -> dict:
    carrier = c.carrier
    # every key read below is a position: _check_tables guarantees that
    # bases and codomains are
    dirs = carrier._dirs
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
        for e in dirs[i].elements:
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
        for d in dirs[i1].elements:
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
    # Where base[i] is i, the check at i reads only the direction set, the
    # codomain and the composite table at i (plus tables at the positions
    # they lead to), so positions sharing those three objects pass or fail
    # together: a set that passed once is not walked again.
    passed = set()
    for i in carrier.position_labels:
        i1 = base[i]
        phi = cod[i]
        shared = (id(dirs[i]), id(phi), id(comp[i])) if i1 == i else None
        if shared in passed:
            continue
        before = len(violations)
        i2 = base[i1]
        psi = cod[i1]
        comp1 = comp[i1]
        i1dirs = dirs[i1].elements
        if i2 != i1 or any(
            psi[e] != base[phi[e]]
            or any(phi[comp1[(e, g)]] != cod[phi[e]][g] for g in dirs[psi[e]].elements)
            for e in i1dirs
        ):
            chi = {}
            for e in dirs[i2].elements:
                j = psi[e]
                jdirs = dirs[j].elements
                inner = {g: phi[comp1[(e, g)]] for g in jdirs}
                chi[e] = pair_label(j, fn_label(inner, jdirs))
            table = {d: _comult_label(c, phi[d]) for d in i1dirs}
            violations.append(
                {
                    "law": "coassociativity",
                    "position": i,
                    "left": pair_label(i2, fn_label(chi, dirs[i2].elements)),
                    "right": pair_label(i1, fn_label(table, i1dirs)),
                }
            )
            continue
        composite = comp[i]
        for d in i1dirs:
            k = phi[d]
            inner = comp[k]
            for e in dirs[base[k]].elements:
                for g in dirs[cod[k][e]].elements:
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
        if shared is not None and len(violations) == before:
            passed.add(shared)

    return {"ok": not violations, "violations": violations}


def _random_shaped_comonoid(rng):
    """A comonoid of random well-shaped tables on two or three positions:
    identities, bases, codomains and composites drawn at random, so that
    coassociativity mostly fails already at the level of positions."""
    names = ["p", "q", "r"][: rng.randint(2, 3)]
    dirs = {i: FinSet(tuple(f"{i}{j}" for j in range(rng.randint(1, 3)))) for i in names}
    carrier = FinPoly((i, dirs[i]) for i in names)
    base = {i: i if rng.random() < 0.7 else rng.choice(names) for i in names}
    codomain = {}
    composite = {}
    for i in names:
        codomain[i] = {
            d: i if rng.random() < 0.3 else rng.choice(names) for d in dirs[base[i]].elements
        }
        composite[i] = {
            (d, e): rng.choice(dirs[i].elements)
            for d, j in codomain[i].items()
            for e in dirs[j].elements
        }
    identity = {i: rng.choice(dirs[i].elements) for i in names}
    return Comonoid._from_tables(carrier, identity, codomain, composite, base)


def test_law_reports_on_position_level_failures_match_the_reference():
    # _tuple_keyed_law_report keeps the coassociativity pre-check as nested
    # generators over every direction; the checker stops at the first
    # direction that fails, with the same records in the same order
    rng = random.Random(489)
    position_level = direction_level = 0
    for _ in range(400):
        c = _random_shaped_comonoid(rng)
        report = check_comonoid_laws(c)
        assert report == _tuple_keyed_law_report(c)
        for v in report["violations"]:
            if v["law"] == "coassociativity":
                if "direction" in v:
                    direction_level += 1
                else:
                    position_level += 1
    assert position_level > 500 and direction_level > 500


def _corrupted(k: FinCat, rng):
    """k with one composition cell changed to another well-typed morphism,
    as a FinCat and as a comonoid built through the public constructor,
    with the identity at one object moved to another loop there, when k
    has one, in about half of the cases; None if no cell has a choice."""
    choices = []
    for (g, f), gf in sorted(k._compose.items()):
        typed = [h for h, d, c in k.morphisms if (d, c) == (k.dom_of[f], k.cod_of[g])]
        if len(typed) > 1:
            choices.append(((g, f), [h for h in typed if h != gf]))
    if not choices:
        return None
    (g, f), hs = rng.choice(choices)
    h = rng.choice(hs)
    identity = dict(k.identity)
    loops = [(d, m) for m, d, c in k.morphisms if c == d and m != identity[d]]
    if loops and rng.random() < 0.5:
        o, m = rng.choice(loops)
        identity[o] = m
    bad = FinCat(k.objects, k.morphisms, identity, {**k._compose, (g, f): h})
    lawful = category_to_comonoid(k)
    on_dir = {i: dict(t) for i, t in lawful.comult.on_dir.items()}
    on_dir[k.dom_of[f]][pair_label(f, g)] = h
    comult = Lens(lawful.carrier, lawful.comult.cod, dict(lawful.comult.on_pos), on_dir)
    counit_dir = {o: {"*": m} for o, m in identity.items()}
    counit = Lens(lawful.carrier, Y, dict(lawful.counit.on_pos), counit_dir)
    return bad, Comonoid(lawful.carrier, counit, comult)


def test_curried_law_walks_match_the_tuple_keyed_ones():
    rng = random.Random(18)
    cats = generate_categories(3, 6)
    laws = set()
    lawless = 0
    for index in sorted(rng.sample(range(len(cats)), 400)):
        got = _corrupted(cats[index], rng)
        if got is None:
            continue
        k, c = got
        report = check_category(k)
        assert report == _tuple_keyed_check_category(k)
        laws.update(v["law"] for v in report["violations"])
        report = check_comonoid_laws(c)
        assert report == _tuple_keyed_law_report(c)
        laws.update(v["law"] for v in report["violations"])
        lawless += not report["ok"]
    assert lawless > 300
    assert laws >= {
        "left_identity", "right_identity", "associativity",
        "left_counit", "right_counit", "coassociativity",
    }
    shared = list(_lawless_with_shared_tables())
    for n in (1, 2, 5):
        states = FinSet(tuple(f"s{j}" for j in range(n)))
        shared += [contractible(states), discrete_comonoid(states)]
    for c in shared:
        assert check_comonoid_laws(c) == _tuple_keyed_law_report(c)
        assert check_comonoid_laws(_unshared(c)) == _tuple_keyed_law_report(c)
        if check_comonoid_laws(c)["ok"]:
            k = comonoid_to_category(c)
            assert check_category(k) == _tuple_keyed_check_category(k)
    k = _golden_lawless_category()
    assert check_category(k) == _tuple_keyed_check_category(k) == GOLDEN_CATEGORY_REPORT


# ---------------------------------------------------------------------------
# Sums and tensors share the tables their factors share.


def _share_nothing(c: Comonoid) -> Comonoid:
    """c on plain-dict copies that share nothing: every position gets its
    own direction set and its own copy of every table."""
    carrier = FinPoly((i, FinSet(d.elements)) for i, d in c.carrier._dirs.items())
    return Comonoid._from_tables(
        carrier,
        dict(c.identity),
        {i: dict(c.codomain[i]) for i in carrier.position_labels},
        {i: dict(c.composite[i]) for i in carrier.position_labels},
        dict(c.base),
    )


def _layout(c: Comonoid) -> tuple:
    """Everything a comonoid shows, as plain data in its own order: the
    carrier's positions and directions in order, and each position's tables."""
    return (
        [(i, d.elements) for i, d in c.carrier._dirs.items()],
        list(c.identity.items()),
        list(c.base.items()),
        [(i, list(t.items())) for i, t in c.codomain.items()],
        [(i, list(t.items())) for i, t in c.composite.items()],
    )


def _json_or_refusal(c: Comonoid):
    try:
        return comonoid_to_json(c)
    except SizeLimitError as exc:
        return ("refused", exc.operation, exc.predicted)


def _construction_factors(n):
    """Comonoids on n states whose positions share tables, lawful and
    lawless, and small ones to pair them with."""
    elems = tuple(f"s{k}" for k in range(n))
    c = contractible(FinSet(elems))
    big = [c, discrete_comonoid(FinSet(elems))]
    if n >= 2:
        first, last = elems[0], elems[-1]
        comp = _with_entry(c.composite, last, (last, first), last)
        big.append(Comonoid._from_tables(c.carrier, c.identity, c.codomain, comp))
        cod = _with_entry(c.codomain, first, first, last)
        big.append(Comonoid._from_tables(c.carrier, c.identity, cod, c.composite))
    # lawless, with per-direction failures at both positions
    small = [contractible(FinSet(("a", "b"))), list(_lawless_with_shared_tables())[1]]
    return big, small


@pytest.mark.parametrize("n", range(1, 11))
def test_sum_and_tensor_agree_with_builds_that_share_nothing(n):
    big, small = _construction_factors(n)
    cases = [(comonoid_sum, a, b) for a in big for b in big + small]
    cases += [(comonoid_sum, b, a) for a in big for b in small]
    cases += [(comonoid_tensor, a, b) for a in big for b in small]
    cases += [(comonoid_tensor, b, a) for a in big for b in small]
    verdicts = set()
    for build, a, b in cases:
        shared = build(a, b)
        plain = build(_share_nothing(a), _share_nothing(b))
        assert _layout(shared) == _layout(plain)
        assert shared == plain and hash(shared) == hash(plain)
        report = check_comonoid_laws(shared)
        assert report == check_comonoid_laws(plain)
        assert report == check_comonoid_laws(_share_nothing(shared))
        verdicts.add(report["ok"])
        if algebra._compose_positions(shared.carrier, shared.carrier.num_positions()) <= 5000:
            assert _json_or_refusal(shared) == _json_or_refusal(plain)
    assert verdicts == {True, False}


def test_sum_and_tensor_build_one_table_per_distinct_factor_table():
    c = contractible(FinSet(tuple(f"s{k}" for k in range(4))))
    d = contractible(FinSet(tuple(f"t{k}" for k in range(5))))
    s = comonoid_sum(c, d)
    # the summands' composite tables are taken over; each codomain table
    # is relabeled once
    assert {id(t) for t in s.composite.values()} == {id(c.composite["s0"]), id(d.composite["t0"])}
    assert len({id(t) for t in s.codomain.values()}) == 2
    t = comonoid_tensor(c, d)
    assert len({id(x) for x in t.codomain.values()}) == 1
    assert len({id(x) for x in t.composite.values()}) == 1
    assert len({id(t.carrier.directions(i)) for i in t.carrier.position_labels}) == 1
    assert t.is_contractible() and check_comonoid_laws(t)["ok"]


def test_laws_of_a_sum_and_a_tensor_cost_about_their_factors():
    elems = tuple(f"s{k}" for k in range(100))
    c = contractible(FinSet(elems))
    t0 = time.perf_counter()
    check_comonoid_laws(c)
    one = time.perf_counter() - t0
    s = comonoid_sum(c, contractible(FinSet(tuple(f"t{k}" for k in range(100)))))
    t0 = time.perf_counter()
    assert check_comonoid_laws(s)["ok"]
    # two summands walked once each; before sharing this took over 200×
    assert time.perf_counter() - t0 < 6 * one + 0.5
    t0 = time.perf_counter()
    comonoid_tensor(contractible(FinSet(elems[:12])), contractible(FinSet(elems[:12])))
    assert time.perf_counter() - t0 < 1.0  # several seconds before sharing
