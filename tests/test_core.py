import gc
import itertools
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydyn.algebra import COMPOSE_LIMIT, poly_compose, tensor_many
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
    coequalizer_set,
    constant,
    eval_poly,
    finset_from_json,
    fn_label,
    is_cartesian,
    is_epi,
    is_monomial,
    is_vertical,
    lens_compose,
    lens_from_json,
    lens_id,
    lens_to_json,
    linear,
    make_poly,
    monomial,
    pair_label,
    poly_from_json,
    poly_to_json,
    pullback_set,
    representable,
    setfn_from_json,
    split_fn,
    split_pair,
    split_tag,
    tag_label,
)

from conftest import (
    all_lenses,
    all_maps,
    count_lenses,
    enumerate_small_polys,
    iso_exists,
    random_lens,
    random_poly,
    two_sided_inverse,
)


# ---------------------------------------------------------------------------
# Finite sets and functions.


def test_finset_equality_ignores_order_and_label():
    assert FinSet(("a", "b"), "X") == FinSet(("b", "a"), "Y")
    assert FinSet(("a",)) != FinSet(("b",))
    assert hash(FinSet(("a", "b"))) == hash(FinSet(("b", "a")))


def test_finset_rejects_bad_input():
    with pytest.raises(ValueError):
        FinSet(("a", "a"))
    with pytest.raises(TypeError):
        FinSet("ab")


def test_finset_duplicate_message_names_the_elements_in_order():
    with pytest.raises(ValueError) as info:
        FinSet(["a", "b", "a"])
    assert str(info.value) == "duplicate element labels in ('a', 'b', 'a')"


def test_setfn_validation_and_composition():
    a = FinSet(("x", "y"))
    b = FinSet(("u",))
    f = SetFn(a, b, {"x": "u", "y": "u"})
    assert f("x") == "u"
    with pytest.raises(ValueError):
        SetFn(a, b, {"x": "u"})
    with pytest.raises(ValueError):
        SetFn(a, b, {"x": "u", "y": "v"})
    g = SetFn(b, a, {"u": "y"})
    assert g.after(f).mapping == {"x": "y", "y": "y"}
    assert SetFn.identity(b).after(f) == f
    assert f.after(SetFn.identity(a)) == f


def test_setfn_inverse():
    a = FinSet(("x", "y"))
    f = SetFn(a, a, {"x": "y", "y": "x"})
    assert f.inverse().after(f) == SetFn.identity(a)
    g = SetFn(a, a, {"x": "x", "y": "x"})
    assert not g.is_injective() and not g.is_surjective()
    with pytest.raises(ValueError):
        g.inverse()


# ---------------------------------------------------------------------------
# Structured labels.


def test_label_round_trips_with_special_characters():
    cases = [("a", "b"), ("x|y", "(z)"), ("", "a\\b"), ("d:e", "u,v"), ()]
    for parts in cases:
        assert split_pair(pair_label(*parts)) == parts
    for tag, value in [("we|ird", "va(l"), ("t", "u\x00v("), ("a\x00b", "x|")]:
        assert split_tag(tag_label(tag, value)) == (tag, value)
    table = {"d:1": "v,2", "d2": "[x]", "": "|"}
    assert split_fn(fn_label(table, ["d:1", "d2", ""])) == table


def test_labels_nest():
    inner = pair_label(tag_label("0", "d"), fn_label({"a": "b"}, ["a"]))
    outer = pair_label(inner, "plain")
    first, second = split_pair(outer)
    assert first == inner and second == "plain"
    t, v = split_tag(tag_label("t", inner))
    assert v == inner


def test_the_empty_one_tuple_is_not_the_empty_tuple():
    assert pair_label("") == "({0})" != pair_label() == "()"
    assert split_pair(pair_label("")) == ("",)
    assert split_pair(pair_label()) == ()
    t = tensor_many([make_poly([("", ["x"])])])
    assert t.position_labels == (pair_label(""),)
    assert split_pair(t.position_labels[0]) == ("",)


def test_parts_with_special_characters_are_length_prefixed_once():
    assert pair_label("q0", "p0") == "(q0,p0)"
    assert pair_label("x|y", "a") == "({3}x|y,a)"
    assert tag_label("{", "}") == "{1}{|}"
    inner = pair_label("a", fn_label({"d": "0|x"}, ["d"]))
    assert inner == "(a,{10}[d:{3}0|x])"
    assert pair_label(inner, "b") == "({18}(a,{10}[d:{3}0|x]),b)"


def test_labels_in_the_older_escaped_form_still_decode():
    assert split_pair("(a,\\(b\\,c\\))") == ("a", "(b,c)")
    assert split_pair("(,)") == ("", "")
    assert split_tag("0\\|a|x\\\\y") == ("0|a", "x\\y")
    assert split_tag("a|b|c") == ("a", "b|c")
    assert split_fn("[a\\:b:c\\,d,e:]") == {"a:b": "c,d", "e": ""}
    # a comultiplication label of comonoid JSON written in the older form
    i, table = split_pair("(0\\|a,\\[a\\:0\\\\\\|a\\,b\\:1\\\\\\|p\\])")
    assert i == "0|a" and split_fn(table) == {"a": "0|a", "b": "1|p"}
    # "{" was not special before; a part that starts with it is a length prefix
    assert split_pair("(a{b,c)") == ("a{b", "c")
    with pytest.raises(ValueError, match="bad length prefix"):
        split_pair("({x},a)")


def test_malformed_length_prefixes_are_refused():
    for bad in ["({9}ab)", "({2}abc,d)", "({-1}a)", "({1a)"]:
        with pytest.raises(ValueError):
            split_pair(bad)
    with pytest.raises(ValueError):
        split_tag("{1}ab|c")
    with pytest.raises(ValueError, match="bad entry"):
        split_fn("[{1}ab:c]")
    with pytest.raises(ValueError, match="bad entry"):
        split_fn("[a:{1}bc,d:e]")


def test_split_fn_rejects_a_dangling_escape_like_split_pair():
    with pytest.raises(ValueError, match="dangling escape"):
        split_pair("(a\\)")
    with pytest.raises(ValueError, match="dangling escape"):
        split_fn("[a\\]")
    with pytest.raises(ValueError, match="dangling escape"):
        split_tag("a\\")


def test_split_fn_rejects_an_entry_without_colon_whether_or_not_escaped():
    with pytest.raises(ValueError, match="bad entry 'c'"):
        split_fn("[a:b,c]")
    with pytest.raises(ValueError, match="bad entry 'c'"):
        split_fn("[a\\(:b,c]")


# Label trees for the codec properties: a leaf is a plain label, and a node
# is ("pair", children), ("tag", tag, value) or ("fn", ((key, value), ...)).
# Leaves draw on every special character, braces and digits.
_LEAVES = st.text(alphabet=list("(),[]:|\\{}\x00ab09"), max_size=3)


def _encode(tree):
    if isinstance(tree, str):
        return tree
    if tree[0] == "pair":
        return pair_label(*map(_encode, tree[1]))
    if tree[0] == "tag":
        return tag_label(_encode(tree[1]), _encode(tree[2]))
    keys = [_encode(k) for k, _ in tree[1]]
    return fn_label({key: _encode(v) for key, (_, v) in zip(keys, tree[1])}, keys)


def _decode(shape, label, encode=_encode):
    """Decode label along the shape of the tree it was encoded from."""
    if isinstance(shape, str):
        return label
    if shape[0] == "pair":
        parts = split_pair(label)
        assert len(parts) == len(shape[1])
        return ("pair", tuple(_decode(s, x, encode) for s, x in zip(shape[1], parts)))
    if shape[0] == "tag":
        tag, value = split_tag(label)
        return ("tag", _decode(shape[1], tag, encode), _decode(shape[2], value, encode))
    table = split_fn(label)
    assert list(table) == [encode(k) for k, _ in shape[1]]
    return (
        "fn",
        tuple(
            (_decode(k, key, encode), _decode(v, table[key], encode))
            for (k, v), key in zip(shape[1], table)
        ),
    )


def _children(tree):
    if tree[0] == "pair":
        return list(tree[1])
    if tree[0] == "tag":
        return [tree[1], tree[2]]
    return [x for kv in tree[1] for x in kv]


@st.composite
def _trees(draw, depth, leaves=_LEAVES, encode=_encode):
    kind = draw(st.sampled_from(("leaf", "pair", "tag", "fn"))) if depth else "leaf"
    if kind == "leaf":
        return draw(leaves)
    sub = _trees(depth - 1, leaves, encode)
    if kind == "pair":
        return ("pair", tuple(draw(st.lists(sub, max_size=3))))
    if kind == "tag":
        return ("tag", draw(sub), draw(sub))
    entries = st.lists(st.tuples(sub, sub), max_size=3, unique_by=lambda kv: encode(kv[0]))
    return ("fn", tuple(draw(entries)))


@settings(max_examples=150, deadline=None)
@given(_trees(4))
def test_label_trees_round_trip(tree):
    assert _decode(tree, _encode(tree)) == tree


def _census(tree):
    """(leaf characters, nodes plus leaves) of a label tree."""
    if isinstance(tree, str):
        return len(tree), 1
    sizes = [_census(c) for c in _children(tree)]
    return sum(b for b, _ in sizes), 1 + sum(n for _, n in sizes)


@settings(max_examples=100, deadline=None)
@given(_trees(8))
def test_deep_label_trees_round_trip_in_linear_size(tree):
    label = _encode(tree)
    assert _decode(tree, label) == tree
    leaf_bytes, items = _census(tree)
    assert len(label) <= leaf_bytes + 10 * items


def _old_part(s):
    return "".join("\\" + ch if ch in "(),[]:|\\" else ch for ch in s)


def _encode_old(tree):
    """The older label form: specials escaped with a backslash at every level."""
    if isinstance(tree, str):
        return tree
    if tree[0] == "pair":
        return "(" + ",".join(_old_part(_encode_old(c)) for c in tree[1]) + ")"
    if tree[0] == "tag":
        return _old_part(_encode_old(tree[1])) + "|" + _old_part(_encode_old(tree[2]))
    entries = (_old_part(_encode_old(k)) + ":" + _old_part(_encode_old(v)) for k, v in tree[1])
    return "[" + ",".join(entries) + "]"


def _has_empty_one_tuple(tree):
    if isinstance(tree, str):
        return False
    if tree[0] == "pair" and tree[1] == ("",):
        return True
    return any(map(_has_empty_one_tuple, _children(tree)))


# In the older form "()" was both the empty tuple and the empty 1-tuple, and
# a part that starts with "{" now reads as a length prefix.
_OLD_LEAVES = _LEAVES.filter(lambda s: not s.startswith("{"))


@settings(max_examples=150, deadline=None)
@given(_trees(4, _OLD_LEAVES, _encode_old).filter(lambda t: not _has_empty_one_tuple(t)))
def test_label_trees_in_the_older_form_still_decode(tree):
    assert _decode(tree, _encode_old(tree), _encode_old) == tree


def _nested_reference(p: FinPoly, values) -> list[str]:
    """Every "(i,[d:x,...])" label of p at values, from the two encoders."""
    return [
        pair_label(i, fn_label(dict(zip(dirs.elements, xs)), dirs.elements))
        for i, dirs in p.positions
        for xs in itertools.product(values, repeat=len(dirs))
    ]


_LABEL_SETS = st.lists(_LEAVES, max_size=3, unique=True)
_POLYS = st.lists(st.tuples(_LEAVES, _LABEL_SETS), max_size=3, unique_by=lambda e: e[0]).map(
    make_poly
)


@settings(max_examples=150, deadline=None)
@given(_LEAVES, _LABEL_SETS, _LABEL_SETS)
def test_table_labels_match_the_nested_encoders(i, domain, values):
    expected = _nested_reference(make_poly([(i, domain)]), values)
    assert list(_table_labels(i, domain, values)) == expected


@settings(max_examples=100, deadline=None)
@given(_POLYS, _POLYS)
def test_eval_and_compose_positions_match_the_nested_encoders(p, q):
    assert list(eval_poly(p, q.positions_set())) == _nested_reference(p, q.position_labels)
    assert poly_compose(p, q).position_labels == tuple(_nested_reference(p, q.position_labels))


# ---------------------------------------------------------------------------
# Polynomials and evaluation.


def test_constructors():
    assert str(make_poly([("a", ["d", "e"]), ("b", ["d"]), ("c", [])])) == "y^2 + y + 1"
    assert constant(FinSet(("u", "v"))).num_positions() == 2
    assert linear(FinSet(("u", "v"))) == make_poly([("u", ["*"]), ("v", ["*"])])
    assert representable(FinSet(("a", "b"))) == make_poly([("*", ["a", "b"])])
    assert monomial(FinSet(("s", "t")), FinSet(("d",))).position_labels == ("s", "t")
    assert ZERO.num_positions() == 0
    assert ONE == constant(UNIT_SET)
    assert Y == representable(UNIT_SET)


def test_finpoly_error_messages():
    d = FinSet(("d",))
    with pytest.raises(ValueError) as info:
        FinPoly([("a", d), ("b", d), ("a", FinSet(()))])
    assert str(info.value) == "duplicate position labels in ['a', 'b', 'a']"
    with pytest.raises(TypeError) as info:
        FinPoly([("a", d), (3, d)])
    assert str(info.value) == "position labels must be strings, got 3"
    with pytest.raises(TypeError) as info:
        FinPoly([("a", ["d"])])
    assert str(info.value) == "directions at 'a' must be a FinSet"
    # checked entry by entry, so a bad type is named before a later duplicate
    with pytest.raises(TypeError, match="must be strings, got 3"):
        FinPoly([("a", d), (3, d), ("a", d)])


def test_finpoly_accepts_generators_and_lists_and_keeps_input_order():
    d, e = FinSet(("d",)), FinSet(("x", "y"))
    from_gen = FinPoly((label, d) for label in ("c", "a", "b"))
    assert from_gen.positions == (("c", d), ("a", d), ("b", d))
    assert from_gen.position_labels == ("c", "a", "b")
    from_lists = FinPoly([["b", e], ["a", d]])
    assert from_lists.positions == (("b", e), ("a", d))
    assert all(type(entry) is tuple for entry in from_lists.positions)
    assert from_lists.position_labels == ("b", "a")
    assert from_lists.directions("b") is e


def test_finpoly_streamed_input_keeps_the_error_contract():
    d = FinSet(("d",))
    # a duplicate in a generator still lists every input label, in order
    with pytest.raises(ValueError) as info:
        FinPoly((label, d) for label in ("a", "b", "a", "c", "b"))
    assert str(info.value) == "duplicate position labels in ['a', 'b', 'a', 'c', 'b']"
    # entries after a duplicate are still checked, and a bad one wins
    with pytest.raises(TypeError) as info:
        FinPoly(iter([("a", d), ("a", d), ("c", ["d"])]))
    assert str(info.value) == "directions at 'c' must be a FinSet"
    with pytest.raises(TypeError, match="must be strings, got 3"):
        FinPoly(entry for entry in [("a", d), ("a", d), (3, d)])


def test_finpoly_positions_is_a_read_only_tuple_in_input_order():
    d, e = FinSet(("d",)), FinSet(("x", "y"))
    pairs = [("c", d), ("a", e), ("b", d)]
    p = FinPoly(iter(pairs))
    assert type(p.positions) is tuple
    assert p.positions == tuple(pairs)
    assert p.positions == p.positions
    with pytest.raises(AttributeError):
        p.positions = ()
    assert p.positions == tuple(pairs)
    # no positions tuple and no per-position tuple is stored
    assert "positions" not in vars(p)
    assert not any(
        type(value) is tuple and value and type(value[0]) is tuple for value in vars(p).values()
    )


def test_finpoly_hash_ignores_position_and_direction_order():
    rng = random.Random(3)
    for _ in range(30):
        p = random_poly(rng)
        spec = [(i, list(dirs.elements)) for i, dirs in p.positions]
        rng.shuffle(spec)
        for _, dirs in spec:
            rng.shuffle(dirs)
        q = make_poly(spec)
        assert p == q
        assert hash(p) == hash(q)
    assert make_poly([("a", ["x"])]) != make_poly([("b", ["x"])])
    assert make_poly([("a", ["x"])]) != make_poly([("a", ["y"])])


def test_compose_peaks_near_what_it_keeps():
    # each entry is stored once and the hash waits for its first use, so the
    # transient peak of listing p∘p stays close to what p∘p itself holds;
    # building it lists nothing, so the window reads its labels
    c = make_poly([(f"peak-s{i}", [f"peak-d{j}" for j in range(5)]) for i in range(5)])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cc = poly_compose(c, c)
        cc.position_labels
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cc.num_positions() == 5 * 5**5 == 15_625
    assert peak - before <= 1.15 * (kept - before)


def test_compose_keeps_little_beyond_its_labels():
    # the listed label → directions dict is the only per-position store,
    # and the positions are streamed into it, so the listing, read here
    # inside the window, peaks at what it keeps
    c = make_poly([(f"keep-s{i}", [f"keep-d{j}" for j in range(5)]) for i in range(5)])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cc = poly_compose(c, c)
        cc.position_labels
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = cc.num_positions()
    assert n == 15_625
    kept -= before
    label_bytes = sum(map(sys.getsizeof, cc.position_labels))
    assert (kept - label_bytes) / n <= 60
    assert peak - before <= 1.03 * kept


def test_make_poly_rejects_duplicates():
    with pytest.raises(ValueError):
        make_poly([("a", []), ("a", ["d"])])
    with pytest.raises(ValueError):
        make_poly([("a", ["d", "d"])])


def test_make_poly_and_monomial_refuse_a_bare_string():
    for build in (
        lambda: make_poly([("a", "xy")]),
        lambda: monomial("ab", FinSet(("x",))),
        lambda: monomial(FinSet(("a",)), "xy"),
    ):
        with pytest.raises(TypeError, match="not a string"):
            build()


def test_eval_known_counts():
    cube = representable(FinSet(("1", "2", "3")))
    assert len(eval_poly(cube, FinSet(("x", "y")))) == 8
    p = make_poly(
        [("i1", ["a", "b"]), ("i2", ["a"]), ("i3", ["a"]), ("i4", ["a"]), ("i5", []), ("i6", [])]
    )
    assert len(eval_poly(p, UNIT_SET)) == 6
    assert len(eval_poly(p, FinSet(()))) == 2
    assert len(eval_poly(ZERO, FinSet(("x",)))) == 0
    assert len(eval_poly(ONE, FinSet(()))) == 1


def test_eval_refuses_an_oversized_result_before_building():
    big = representable(FinSet(tuple(str(d) for d in range(23))))
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as info:
        eval_poly(big, FinSet(("x", "y")))
    assert time.perf_counter() - start < 0.05
    assert str(info.value) == (
        f"eval_poly would build 8388608 elements, above the limit of {COMPOSE_LIMIT}"
    )
    assert len(eval_poly(representable(FinSet(("1", "2"))), FinSet(("x", "y")))) == 4


def test_eval_count_matches_recount():
    rng = random.Random(7)
    for _ in range(30):
        p = random_poly(rng)
        x = FinSet(tuple(f"x{i}" for i in range(rng.randint(0, 3))))
        expected = sum(len(x) ** len(p.directions(i)) for i in p.position_labels)
        got = eval_poly(p, x)
        assert len(got) == expected
        assert len(set(got.elements)) == len(got.elements)


def test_eval_elements_decode():
    p = make_poly([("i", ["d", "e"])])
    x = FinSet(("u", "v"))
    for elem in eval_poly(p, x):
        pos, table = split_pair(elem)
        assert pos == "i"
        decoded = split_fn(table)
        assert set(decoded) == {"d", "e"}
        assert all(v in ("u", "v") for v in decoded.values())


def test_is_monomial():
    assert is_monomial(monomial(FinSet(("a", "b")), FinSet(("d",))))
    assert is_monomial(Y) and is_monomial(ONE)
    assert not is_monomial(make_poly([("a", ["d"]), ("b", [])]))
    assert not is_monomial(ZERO)


# ---------------------------------------------------------------------------
# Lenses.


def test_lens_validation():
    p = make_poly([("a", ["d"])])
    q = make_poly([("j", ["e", "f"])])
    with pytest.raises(ValueError):
        Lens(p, q, {}, {})
    with pytest.raises(ValueError):
        Lens(p, q, {"a": "nope"}, {"a": {}})
    with pytest.raises(ValueError):
        Lens(p, q, {"a": "j"}, {"a": {"e": "d"}})
    with pytest.raises(ValueError):
        Lens(p, q, {"a": "j"}, {"a": {"e": "d", "f": "zzz"}})
    # a direction-less source position cannot sit over a position with directions
    with pytest.raises(ValueError):
        Lens(constant(UNIT_SET), Y, {"*": "*"}, {"*": {}})


def test_lens_identity_laws():
    rng = random.Random(11)
    for _ in range(40):
        p = random_poly(rng)
        q = random_poly(rng)
        f = random_lens(rng, p, q)
        if f is None:
            continue
        assert lens_compose(f, lens_id(p)) == f
        assert lens_compose(lens_id(q), f) == f


def test_lens_compose_associative_exhaustive():
    polys = enumerate_small_polys(max_positions=2, max_dirs=1)
    small = [p for p in polys if p.num_positions() <= 2]
    for p in small:
        for q in small:
            for r in small:
                fs = list(all_lenses(p, q))[:4]
                gs = list(all_lenses(q, r))[:4]
                for s in small:
                    hs = list(all_lenses(r, s))[:2]
                    for f in fs:
                        for g in gs:
                            for h in hs:
                                lhs = lens_compose(lens_compose(h, g), f)
                                rhs = lens_compose(h, lens_compose(g, f))
                                assert lhs == rhs


def test_lens_compose_associative_random():
    rng = random.Random(13)
    done = 0
    while done < 25:
        p = random_poly(rng, max_positions=3, max_dirs=2)
        q = random_poly(rng, max_positions=3, max_dirs=2)
        r = random_poly(rng, max_positions=3, max_dirs=2)
        s = random_poly(rng, max_positions=3, max_dirs=2)
        f = random_lens(rng, p, q)
        g = random_lens(rng, q, r)
        h = random_lens(rng, r, s)
        if f is None or g is None or h is None:
            continue
        assert lens_compose(lens_compose(h, g), f) == lens_compose(h, lens_compose(g, f))
        done += 1


def test_lens_enumeration_matches_count_formula():
    rng = random.Random(17)
    for _ in range(15):
        p = random_poly(rng, max_positions=2, max_dirs=2)
        q = random_poly(rng, max_positions=2, max_dirs=2)
        lenses = list(all_lenses(p, q))
        assert len(lenses) == count_lenses(p, q)
        assert len(set(lenses)) == len(lenses)


def test_vertical_and_cartesian():
    p = make_poly([("a", ["d", "e"]), ("b", ["d"])])
    q = make_poly([("a", ["d"]), ("b", ["d"])])
    v = Lens(p, q, {"a": "a", "b": "b"}, {"a": {"d": "e"}, "b": {"d": "d"}})
    assert is_vertical(v) and not is_cartesian(v)
    swap = Lens(
        p,
        make_poly([("b2", ["x", "y"]), ("a2", ["x"])]),
        {"a": "b2", "b": "a2"},
        {"a": {"x": "e", "y": "d"}, "b": {"x": "d"}},
    )
    assert is_cartesian(swap) and not is_vertical(swap)
    assert is_vertical(lens_id(p)) and is_cartesian(lens_id(p))


def test_epi_matches_cancellation_oracle():
    """is_epi must agree with right-cancellation against a separating family."""
    family = [
        representable(UNIT_SET),
        make_poly([("m0", ["*"]), ("m1", [])]),
        linear(FinSet(("0", "1"))),
        constant(FinSet(("0", "1"))),
    ]

    def epi_oracle(f):
        for t in family:
            gs = list(all_lenses(f.cod, t))
            for a in range(len(gs)):
                for b in range(a + 1, len(gs)):
                    if lens_compose(gs[a], f) == lens_compose(gs[b], f):
                        return False
        return True

    polys = enumerate_small_polys(max_positions=2, max_dirs=2)
    checked = 0
    for p in polys:
        for q in polys:
            for f in all_lenses(p, q):
                assert is_epi(f) == epi_oracle(f), (f.on_pos, f.on_dir)
                checked += 1
    assert checked > 100


def test_epi_known_cases():
    # joint injectivity across a fiber: neither component is injective alone
    p = make_poly([("a", ["d1"]), ("b", ["e1", "e2"])])
    q = make_poly([("j", ["x", "y"])])
    f = Lens(
        p,
        q,
        {"a": "j", "b": "j"},
        {"a": {"x": "d1", "y": "d1"}, "b": {"x": "e1", "y": "e2"}},
    )
    assert is_epi(f)
    g = Lens(
        p,
        q,
        {"a": "j", "b": "j"},
        {"a": {"x": "d1", "y": "d1"}, "b": {"x": "e1", "y": "e1"}},
    )
    assert not is_epi(g)
    # missing a codomain position
    h = Lens(linear(UNIT_SET), make_poly([("j", ["x"]), ("k", [])]), {"*": "j"}, {"*": {"x": "*"}})
    assert not is_epi(h)


# ---------------------------------------------------------------------------
# Set-level pullbacks and coequalizers.


def test_pullback_universal_property():
    a = FinSet(("a1", "a2", "a3"))
    b = FinSet(("b1", "b2"))
    c = FinSet(("c1", "c2"))
    f = SetFn(a, c, {"a1": "c1", "a2": "c1", "a3": "c2"})
    g = SetFn(b, c, {"b1": "c1", "b2": "c2"})
    apex, p1, p2 = pullback_set(f, g)
    assert f.after(p1) == g.after(p2)
    x = FinSet(("x1", "x2"))
    for m1 in all_maps(x.elements, a.elements):
        for m2 in all_maps(x.elements, b.elements):
            x1 = SetFn(x, a, m1)
            x2 = SetFn(x, b, m2)
            if f.after(x1) != g.after(x2):
                continue
            mediators = [
                u
                for um in all_maps(x.elements, apex.elements)
                for u in [SetFn(x, apex, um)]
                if p1.after(u) == x1 and p2.after(u) == x2
            ]
            assert len(mediators) == 1


def test_pullback_counts():
    rng = random.Random(23)
    for _ in range(20):
        a = FinSet(tuple(f"a{i}" for i in range(rng.randint(0, 3))))
        b = FinSet(tuple(f"b{i}" for i in range(rng.randint(0, 3))))
        c = FinSet(tuple(f"c{i}" for i in range(1, rng.randint(2, 4))))
        f = SetFn(a, c, {e: rng.choice(c.elements) for e in a.elements})
        g = SetFn(b, c, {e: rng.choice(c.elements) for e in b.elements})
        apex, _, _ = pullback_set(f, g)
        expected = sum(
            1
            for x in a.elements
            for y in b.elements
            if f.mapping[x] == g.mapping[y]
        )
        assert len(apex) == expected


def _partition_oracle(f: SetFn, g: SetFn):
    """Equivalence closure by repeated merging, independent of union-find."""
    classes = [{e} for e in f.cod.elements]

    def merge(x, y):
        cx = next(c for c in classes if x in c)
        cy = next(c for c in classes if y in c)
        if cx is not cy:
            classes.remove(cy)
            cx |= cy

    for e in f.dom.elements:
        merge(f.mapping[e], g.mapping[e])
    return {frozenset(c) for c in classes}


def test_coequalizer_matches_partition_oracle():
    rng = random.Random(29)
    for _ in range(25):
        dom = FinSet(tuple(f"d{i}" for i in range(rng.randint(0, 4))))
        cod = FinSet(tuple(f"e{i}" for i in range(1, rng.randint(2, 6))))
        f = SetFn(dom, cod, {e: rng.choice(cod.elements) for e in dom.elements})
        g = SetFn(dom, cod, {e: rng.choice(cod.elements) for e in dom.elements})
        quot, qmap = coequalizer_set(f, g)
        assert qmap.after(f) == qmap.after(g)
        expected = _partition_oracle(f, g)
        got = {}
        for e in cod.elements:
            got.setdefault(qmap.mapping[e], set()).add(e)
        assert {frozenset(c) for c in got.values()} == expected
        # representatives are actual members of their class
        for rep, members in got.items():
            assert rep in members


def test_coequalizer_universal_property():
    dom = FinSet(("d0", "d1"))
    cod = FinSet(("e0", "e1", "e2"))
    f = SetFn(dom, cod, {"d0": "e0", "d1": "e1"})
    g = SetFn(dom, cod, {"d0": "e1", "d1": "e1"})
    quot, qmap = coequalizer_set(f, g)
    x = FinSet(("x0", "x1"))
    for hm in all_maps(cod.elements, x.elements):
        h = SetFn(cod, x, hm)
        if h.after(f) != h.after(g):
            continue
        mediators = [
            u
            for um in all_maps(quot.elements, x.elements)
            for u in [SetFn(quot, x, um)]
            if u.after(qmap) == h
        ]
        assert len(mediators) == 1


# ---------------------------------------------------------------------------
# Canonical form and isomorphism.


def test_canonical_form_matches_isomorphism_search():
    rng = random.Random(31)
    pairs = []
    while len(pairs) < 25:
        p = random_poly(rng, max_positions=2, max_dirs=2)
        q = random_poly(rng, max_positions=2, max_dirs=2)
        pairs.append((p, q))
    for p, q in pairs:
        assert (canonical_form(p) == canonical_form(q)) == iso_exists(p, q)


def test_canonical_form_idempotent_and_iso():
    rng = random.Random(37)
    for _ in range(20):
        p = random_poly(rng)
        c = canonical_form(p)
        assert canonical_form(c) == c
        assert iso_exists(p, c) or p.num_positions() > 2  # search only at small size
        if p.num_positions() <= 2:
            assert iso_exists(p, c)


def test_canonical_form_sorts_by_size_then_label():
    p = make_poly([("z", ["d"]), ("a", ["d", "e"]), ("m", [])])
    c = canonical_form(p)
    assert c.position_labels == ("0", "1", "2")
    assert [len(c.directions(i)) for i in c.position_labels] == [2, 1, 0]
    assert c.directions("0").elements == ("0", "1")


# ---------------------------------------------------------------------------
# JSON round trips.


def test_poly_json_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        p = random_poly(rng)
        data = poly_to_json(p)
        assert poly_from_json(data) == p
        s = canonical_json(data)
        assert canonical_json(poly_to_json(poly_from_json(data))) == s


def test_lens_json_round_trip():
    rng = random.Random(43)
    done = 0
    while done < 15:
        p = random_poly(rng)
        q = random_poly(rng)
        f = random_lens(rng, p, q)
        if f is None:
            continue
        data = lens_to_json(f)
        g = lens_from_json(data)
        assert g == f
        assert canonical_json(lens_to_json(g)) == canonical_json(data)
        done += 1


def test_poly_json_shape():
    p = make_poly([("a", ["d", "e"]), ("b", [])])
    assert poly_to_json(p) == {
        "positions": [
            {"label": "a", "dirs": ["d", "e"]},
            {"label": "b", "dirs": []},
        ]
    }
    with pytest.raises(ValueError):
        poly_from_json({"posns": []})


def test_poly_from_json_names_a_missing_key():
    with pytest.raises(ValueError, match="missing key in polynomial JSON: 'label'"):
        poly_from_json({"positions": [{"dirs": []}]})


def test_lens_from_json_names_a_missing_key():
    p = {"positions": [{"label": "a", "dirs": []}]}
    with pytest.raises(ValueError, match="missing key in lens JSON: 'onDir'"):
        lens_from_json({"dom": p, "cod": p, "onPos": {"a": "a"}})


def test_finset_from_json_names_a_missing_key():
    with pytest.raises(ValueError, match="missing key in finite set JSON: 'elements'"):
        finset_from_json({"label": "A"})


def test_setfn_from_json_names_a_missing_key():
    a = {"elements": ["x"]}
    with pytest.raises(ValueError, match="missing key in function JSON: 'mapping'"):
        setfn_from_json({"dom": a, "cod": a})


@pytest.mark.parametrize(
    "load, data, kind",
    [
        (finset_from_json, [], "finite set"),
        (setfn_from_json, "x", "function"),
        (setfn_from_json, {"dom": {"elements": []}, "cod": {"elements": []}, "mapping": []}, "function"),
        (poly_from_json, [], "polynomial"),
        (poly_from_json, {"positions": {"a": []}}, "polynomial"),
        (poly_from_json, {"positions": [["a", []]]}, "polynomial"),
        (lens_from_json, None, "lens"),
        (lens_from_json, {"dom": {"positions": []}, "cod": {"positions": []}, "onPos": [], "onDir": {}}, "lens"),
        (lens_from_json, {"dom": {"positions": []}, "cod": {"positions": []}, "onPos": {}, "onDir": {"a": []}}, "lens"),
    ],
)
def test_json_loaders_name_a_node_of_the_wrong_type(load, data, kind):
    with pytest.raises(ValueError, match=f"expected an (object|array) in {kind} JSON"):
        load(data)


@pytest.mark.parametrize(
    "load, data, kind, got",
    [
        (finset_from_json, {"elements": 5}, "finite set", "int"),
        (finset_from_json, {"elements": "ab"}, "finite set", "str"),
        (poly_from_json, {"positions": [{"label": "a", "dirs": 5}]}, "polynomial", "int"),
        (poly_from_json, {"positions": [{"label": "a", "dirs": "de"}]}, "polynomial", "str"),
        (poly_from_json, {"positions": [{"label": "a", "dirs": {"d": 1}}]}, "polynomial", "dict"),
    ],
)
def test_json_loaders_check_label_arrays(load, data, kind, got):
    # the arrays that hold labels are checked like the arrays of objects,
    # so a number or a string there is named instead of iterated
    with pytest.raises(ValueError) as info:
        load(data)
    assert str(info.value) == f"expected an array in {kind} JSON, got {got}"


def test_json_loaders_keep_label_type_errors():
    with pytest.raises(TypeError, match="position labels must be strings"):
        poly_from_json({"positions": [{"label": 3, "dirs": []}]})


def test_internal_fast_path_lenses_revalidate():
    # lens_id, lens_compose, and the hom enumerator skip constructor checks
    # for speed; their outputs must still satisfy every lens invariant.
    from polydyn.algebra import hom_iter

    p = make_poly([("a", ["d", "e"]), ("b", ["f"])])
    q = make_poly([("u", ["x"]), ("v", [])])
    seen = 0
    for f in hom_iter(p, q):
        g = Lens(f.dom, f.cod, f.on_pos, f.on_dir)
        assert g == f
        seen += 1
    assert seen > 0
    for f in (lens_id(p), lens_compose(lens_id(p), lens_id(p))):
        assert Lens(f.dom, f.cod, f.on_pos, f.on_dir) == f
