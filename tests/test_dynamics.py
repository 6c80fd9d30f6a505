import copy
import itertools
import json
import os
import pickle
import random
import re
import subprocess
import time
import tracemalloc
from sys import executable

import pytest

import polydyn

from polydyn.core import (
    FinPoly,
    FinSet,
    Lens,
    SetFn,
    Y,
    canonical_form,
    fn_label,
    is_monomial,
    lens_compose,
    lens_id,
    make_poly,
    monomial,
    pair_label,
    tag_label,
)
from polydyn.algebra import compose_power, poly_tensor, product_proj
from polydyn.catalog import generate_categories, monoid_tables
from polydyn.comonoid import (
    Comonoid,
    FinCat,
    category_to_comonoid,
    comonoid_to_category,
    cofree_truncation,
    contractible,
    nstep_behavior,
)
from polydyn.dynamics import (
    MDDS,
    MooreMachine,
    StrategyTree,
    Trace,
    apply_wiring,
    input_state_pairs,
    juxtapose,
    lens_to_moore,
    moore_to_lens,
    moore_to_mdds,
    overlay,
    run_closed,
    run_moore,
    run_open,
    step,
    strategy_tree_to_dot,
    strategy_tree_to_json,
    trace_history,
    trace_to_csv,
    trace_to_json,
    unroll,
)
from polydyn.wiring import compile_system, parse, random_spec

from conftest import all_lenses, all_maps, count_lenses
from test_wiring import (
    FORWARD_BACKWARD,
    _read,
    _ring_tables,
    _ring_text,
    _switched_ring_tables,
    _switched_ring_text,
    _with_random_machines,
)


# ---------------------------------------------------------------------------
# Builders and oracles.


def _toggle():
    return MooreMachine.from_tables(
        ["0", "1"],
        ["t"],
        ["0", "1"],
        {"0": "0", "1": "1"},
        {("t", "0"): "1", ("t", "1"): "0"},
        "0",
    )


def _echo():
    """Readout is the state, the update stores the incoming input."""
    return MooreMachine.from_tables(
        ["x", "y"],
        ["x", "y"],
        ["x", "y"],
        {"x": "x", "y": "y"},
        {(a, s): a for a in "xy" for s in "xy"},
        "x",
    )


def _all_machines(ns, na, nb):
    """Every machine with the given sizes and the first state initial."""
    states = FinSet(tuple(f"s{i}" for i in range(ns)))
    inputs = FinSet(tuple(f"a{i}" for i in range(na)))
    outputs = FinSet(tuple(f"b{i}" for i in range(nb)))
    pairs = input_state_pairs(inputs, states)
    for r in all_maps(states.elements, outputs.elements):
        for u in all_maps(pairs.elements, states.elements):
            yield MooreMachine(
                states,
                inputs,
                outputs,
                SetFn(states, outputs, r),
                SetFn(pairs, states, u),
                states.elements[0],
            )


def _control_wiring(a, b, c):
    """Controller B·y^C next to plant C·y^{A×B}, wired as a feedback loop.

    Forward projects the plant's output; backward hands the plant's
    output to the controller and the pair (external input, controller
    output) to the plant.
    """
    a, b, c = FinSet(tuple(a)), FinSet(tuple(b)), FinSet(tuple(c))
    ab = FinSet(tuple(pair_label(x, y) for x in a.elements for y in b.elements))
    dom = poly_tensor(monomial(b, c), monomial(c, ab))
    cod = monomial(c, a)
    on_pos = {}
    on_dir = {}
    for bv in b.elements:
        for cv in c.elements:
            lab = pair_label(bv, cv)
            on_pos[lab] = cv
            on_dir[lab] = {x: pair_label(cv, pair_label(x, bv)) for x in a.elements}
    return Lens(dom, cod, on_pos, on_dir)


def _coupled_oracle(ctrl, plant, stream):
    """The hand recurrence for the control loop, no lenses involved."""
    q, p = ctrl.initial, plant.initial
    states = [(q, p)]
    outs = []
    for x in stream:
        bv = ctrl.readout(q)
        cv = plant.readout(p)
        outs.append(cv)
        q = ctrl.update(pair_label(cv, q))
        p = plant.update(pair_label(pair_label(x, bv), p))
        states.append((q, p))
    outs.append(plant.readout(p))
    return states, outs


def _check_trace(sys, trace):
    """Consecutive states must follow the comultiplication's successor."""
    for (s, b, d), (s2, _, _) in zip(trace.steps, trace.steps[1:]):
        assert b == sys.dynamics.on_pos[s]
        e = sys.dynamics.on_dir[s][d]
        assert s2 == sys.state.codomain[s][e]


def _parallel_pair_category():
    """Two objects with a parallel pair of arrows between them."""
    return FinCat(
        FinSet(("u", "v")),
        [("iu", "u", "u"), ("iv", "v", "v"), ("al", "u", "v"), ("be", "u", "v")],
        {"u": "iu", "v": "iv"},
        {
            ("iu", "iu"): "iu",
            ("iv", "iv"): "iv",
            ("al", "iu"): "al",
            ("iv", "al"): "al",
            ("be", "iu"): "be",
            ("iv", "be"): "be",
        },
    )


def _cyclic2_comonoid():
    k = FinCat(
        FinSet(("x",)),
        [("e", "x", "x"), ("s", "x", "x")],
        {"x": "e"},
        {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"},
    )
    return category_to_comonoid(k)


# ---------------------------------------------------------------------------
# Machines and the lens equivalence.


def test_machine_constructor_validates():
    s = FinSet(("0", "1"))
    r = SetFn(s, s, {"0": "0", "1": "1"})
    u = SetFn(input_state_pairs(s, s), s, {p: "0" for p in input_state_pairs(s, s)})
    with pytest.raises(ValueError, match="readout"):
        MooreMachine(s, s, FinSet(("z",)), r, u, "0")
    with pytest.raises(ValueError, match="update"):
        MooreMachine(s, FinSet(("z",)), s, r, u, "0")
    with pytest.raises(ValueError, match="initial"):
        MooreMachine(s, s, s, r, u, "7")


def test_from_tables_matches_manual_build():
    m = _toggle()
    s = FinSet(("0", "1"))
    a = FinSet(("t",))
    r = SetFn(s, s, {"0": "0", "1": "1"})
    u = SetFn(
        input_state_pairs(a, s),
        s,
        {pair_label("t", "0"): "1", pair_label("t", "1"): "0"},
    )
    assert m == MooreMachine(s, a, s, r, u, "0")


def test_moore_lens_round_trip_exhaustive_small():
    for ns, na, nb in itertools.product((1, 2), repeat=3):
        for m in _all_machines(ns, na, nb):
            f = moore_to_lens(m)
            assert lens_to_moore(f, m.initial) == m


def test_machine_lens_bijection_two_two_two():
    # 64 machines (readout × update tables) and 64 lenses, matched exactly
    machines = list(_all_machines(2, 2, 2))
    assert len(machines) == 64
    dom = monomial(FinSet(("s0", "s1")), FinSet(("s0", "s1")))
    cod = monomial(FinSet(("b0", "b1")), FinSet(("a0", "a1")))
    assert count_lenses(dom, cod) == 64
    lenses = {moore_to_lens(m) for m in machines}
    assert len(lenses) == 64
    assert lenses == set(all_lenses(dom, cod))


def test_one_state_machine_gives_constant_forward_lens():
    m = MooreMachine.from_tables(
        ["s"], ["a0", "a1"], ["b0", "b1"], {"s": "b1"},
        {("a0", "s"): "s", ("a1", "s"): "s"}, "s",
    )
    f = moore_to_lens(m)
    assert set(f.on_pos.values()) == {"b1"}


def test_lens_to_moore_rejects_bad_shapes():
    p = make_poly([("i", ("d",)), ("j", ())])
    with pytest.raises(ValueError, match="S·y\\^S"):
        lens_to_moore(lens_id(p), "i")
    dom = monomial(FinSet(("s",)), FinSet(("s",)))
    f = Lens(dom, p, {"s": "j"}, {"s": {}})
    with pytest.raises(ValueError, match="monomial"):
        lens_to_moore(f, "s")
    g = moore_to_lens(_toggle())
    with pytest.raises(ValueError, match="initial"):
        lens_to_moore(g, "nope")


# ---------------------------------------------------------------------------
# Running machines.


def test_run_moore_empty_input_records_initial_readout():
    t = run_moore(_toggle(), [])
    assert t.steps == (("0", "0", None),)
    assert t.final_state == "0"
    assert len(t) == 0
    assert t.history == tag_label("0", "0")


def test_run_moore_echoes_delayed_by_one():
    stream = ["y", "y", "x", "y"]
    t = run_moore(_echo(), stream)
    assert list(t.positions()) == ["x"] + stream[:-1] + [stream[-1]]
    assert t.final_state == "y"


def test_run_moore_toggle_alternates():
    t = run_moore(_toggle(), ["t"] * 5)
    assert t.positions() == ("0", "1", "0", "1", "0", "1")
    assert t.states() == t.positions()


def test_run_moore_rejects_unknown_input():
    with pytest.raises(ValueError, match="unknown input"):
        run_moore(_toggle(), ["t", "zap"])


def test_run_moore_traces_are_valid():
    for m in (_toggle(), _echo()):
        sys = moore_to_mdds(m)
        for stream in itertools.product(m.inputs.elements, repeat=3):
            t = run_moore(m, stream)
            _check_trace(sys, t)
            assert t.history == tag_label(m.initial, t.final_state)


# ---------------------------------------------------------------------------
# Stepping.


def test_step_agrees_with_run_moore():
    m = _toggle()
    sys = moore_to_mdds(m)
    t = run_moore(m, ["t", "t", "t"])
    s = m.initial
    for (s_rec, b_rec, d), _ in zip(t.steps, t.steps[1:]):
        assert s == s_rec
        b, s = step(sys, s, d)
        assert b == b_rec
    assert s == t.final_state


def test_step_closed_interface_is_the_unique_self_evolution():
    c = contractible(FinSet(("u", "v")))
    f = Lens(c.carrier, Y, {"u": "*", "v": "*"}, {"u": {"*": "v"}, "v": {"*": "u"}})
    sys = MDDS(c, Y, f)
    assert step(sys, "u", "*") == ("*", "v")
    assert step(sys, "v", "*") == ("*", "u")


def test_step_rejects_directions_from_the_wrong_mode():
    # two modes with different direction sets: what is legal depends on
    # where the system currently sits
    iface = make_poly([("listen", ("a0", "a1")), ("mute", ("*",))])
    c = contractible(FinSet(("s1", "s2")))
    f = Lens(
        c.carrier,
        iface,
        {"s1": "listen", "s2": "mute"},
        {"s1": {"a0": "s1", "a1": "s2"}, "s2": {"*": "s1"}},
    )
    sys = MDDS(c, iface, f)
    assert step(sys, "s1", "a1") == ("listen", "s2")
    with pytest.raises(ValueError, match="not available at position 'mute'"):
        step(sys, "s2", "a0")
    with pytest.raises(ValueError, match="unknown state"):
        step(sys, "s3", "a0")


def test_step_serves_a_state_that_is_not_contractible():
    # the successor is the codomain of the pulled-back direction: both
    # loops of the group return to x, and the parallel pair's al and be
    # both lead from u to v, where only iv is legal
    c = _cyclic2_comonoid()
    sys = MDDS(c, c.carrier, lens_id(c.carrier))
    assert step(sys, "x", "e") == step(sys, "x", "s") == ("x", "x")
    c = category_to_comonoid(_parallel_pair_category())
    sys = MDDS(c, c.carrier, lens_id(c.carrier))
    assert [step(sys, "u", d) for d in ("iu", "al", "be")] == [("u", "u"), ("u", "v"), ("u", "v")]
    assert step(sys, "v", "iv") == ("v", "v")
    with pytest.raises(ValueError, match="unknown input element 'al': not available at position 'v'"):
        step(sys, "v", "al")


def _step_systems():
    for name in ("control.wd", "supplier.wd", "attach.wd"):
        yield compile_system(parse(_read(name)))[0]
    c = _cyclic2_comonoid()
    yield MDDS(c, c.carrier, lens_id(c.carrier))
    yield _cyclic2_open_system()
    tables = _switched_ring_tables(10, 3, 3, FORWARD_BACKWARD)
    yield compile_system(parse(_switched_ring_text(*tables)))[0]


def test_step_is_the_first_position_and_final_state_of_a_one_input_run():
    # every state and every direction legal there, on the demos, the group
    # state and the switched ring 3 × 3 (54 states, two modes)
    moves = 0
    for sys in _step_systems():
        f, codomain = sys.dynamics, sys.state.codomain
        for s in sys.state.carrier.position_labels:
            b = f.on_pos[s]
            for d in sys.interface.directions(b).elements:
                t = run_open(sys, [d], s)
                want = (b, codomain[s][f.on_dir[s][d]])
                assert step(sys, s, d) == (t.steps[0][1], t.final_state) == want
                moves += 1
    assert moves > 54 * 2


def test_20k_steps_on_512_states_take_under_half_a_second():
    # the state check is one membership test, not a fresh set of all
    # positions per call
    n = 512
    states = [f"s{i}" for i in range(n)]
    m = MooreMachine.from_tables(
        states,
        ["a", "b"],
        ["0", "1"],
        {s: str(i % 2) for i, s in enumerate(states)},
        {
            (a, s): states[(i + 1) % n if a == "a" else 2 * i % n]
            for i, s in enumerate(states)
            for a in "ab"
        },
        "s0",
    )
    sys = moore_to_mdds(m)
    s = step(sys, "s0", "a")[1]
    t0 = time.perf_counter()
    for k in range(20_000):
        s = step(sys, s, "ab"[k % 3 == 0])[1]
    assert time.perf_counter() - t0 < 0.5
    assert s == run_moore(m, ["a"] + ["ab"[k % 3 == 0] for k in range(20_000)]).final_state
    with pytest.raises(ValueError, match="unknown state 's512'"):
        step(sys, "s512", "a")


# ---------------------------------------------------------------------------
# Unrolling.


def test_unroll_depth_zero_and_one():
    sys = moore_to_mdds(_toggle())
    assert unroll(sys, "0", 0) == StrategyTree.empty()
    t1 = unroll(sys, "0", 1)
    assert t1.depth == 1 and t1.position == "0"
    assert t1.to_label() == "0"
    with pytest.raises(ValueError, match="non-negative"):
        unroll(sys, "0", -1)


def test_unroll_and_nstep_refuse_a_depth_that_is_not_an_int():
    # a float depth never reaches 0 in unroll's recursion, and reaches
    # range() in nstep_behavior's compose_power, which itself raised
    # range()'s error for a float and a comparison's for a str
    sys = moore_to_mdds(_toggle())
    with pytest.raises(TypeError, match="^depth must be an int, not float$"):
        unroll(sys, "0", 2.5)
    with pytest.raises(TypeError, match="^n must be an int, not float$"):
        nstep_behavior(sys.state, sys.dynamics, 2.0)
    for n, kind in ((2.0, "float"), ("2", "str")):
        with pytest.raises(TypeError, match=f"^n must be an int, not {kind}$"):
            compose_power(sys.interface, n)


def test_unroll_toggle_alternates_along_every_branch():
    sys = moore_to_mdds(_toggle())
    t = unroll(sys, "0", 3)
    assert t.position == "0"
    assert t.branches["t"].position == "1"
    assert t.branches["t"].branches["t"].position == "0"
    assert set(t.branches) == {"t"}


def test_unroll_matches_nstep_behavior():
    three = MooreMachine.from_tables(
        ["p", "q", "r"],
        ["a", "b"],
        ["lo", "hi"],
        {"p": "lo", "q": "hi", "r": "hi"},
        {
            ("a", "p"): "q",
            ("b", "p"): "p",
            ("a", "q"): "r",
            ("b", "q"): "p",
            ("a", "r"): "r",
            ("b", "r"): "q",
        },
        "p",
    )
    cases = [moore_to_mdds(_toggle()), moore_to_mdds(three)]
    c2 = _cyclic2_comonoid()
    iface = monomial(FinSet(("out",)), FinSet(("go", "stay")))
    cases.append(
        MDDS(
            c2,
            iface,
            Lens(c2.carrier, iface, {"x": "out"}, {"x": {"go": "s", "stay": "e"}}),
        )
    )
    for sys in cases:
        for n in range(4):
            beh = nstep_behavior(sys.state, sys.dynamics, n)
            for s in sys.state.carrier.position_labels:
                assert unroll(sys, s, n).to_label() == beh.mapping[s]


def _reference_unroll(sys, s, depth):
    """unroll as it was before it shared _observations: no memo, a fresh
    node on every path."""
    f, p = sys.dynamics, sys.interface
    base, codomain = sys.state.base, sys.state.codomain
    empty = StrategyTree.empty()

    def grow(state, k):
        if k == 0:
            return empty
        if k == 1:
            b = f.on_pos[state]
            return StrategyTree(1, b, {d: empty for d in p.directions(b).elements})
        s1 = base[state]
        phi = codomain[state]
        b = f.on_pos[s1]
        pulled = f.on_dir[s1]
        return StrategyTree(
            k, b, {d: grow(phi[pulled[d]], k - 1) for d in p.directions(b).elements}
        )

    return grow(s, depth)


def _reference_nstep_behavior(c, f, n):
    """nstep_behavior as it was before it shared _observations."""
    p = f.cod
    cod = compose_power(p, n).positions_set()
    memo = {}

    def img(s, k):
        if k == 0:
            return "*"
        if k == 1:
            return f.on_pos[s]
        got = memo.get((s, k))
        if got is None:
            s1 = c.base[s]
            phi = c.codomain[s]
            b = f.on_pos[s1]
            fsharp = f.on_dir[s1]
            pdirs = p.directions(b).elements
            table = {dp: img(phi[fsharp[dp]], k - 1) for dp in pdirs}
            got = memo[(s, k)] = pair_label(b, fn_label(table, pdirs))
        return got

    mapping = {s: img(s, n) for s in c.carrier.position_labels}
    return SetFn(c.carrier.positions_set(), cod, mapping)


def _ring_27():
    """The 27-state ring of tests/test_wiring.py and its start state."""
    return compile_system(parse(_ring_text(*_ring_tables(10, 3, 3))))


def _unroll_reference_cases():
    three = MooreMachine.from_tables(
        ["p", "q", "r"],
        ["a", "b"],
        ["lo", "hi"],
        {"p": "lo", "q": "hi", "r": "hi"},
        {
            ("a", "p"): "q",
            ("b", "p"): "p",
            ("a", "q"): "r",
            ("b", "q"): "p",
            ("a", "r"): "r",
            ("b", "r"): "q",
        },
        "p",
    )
    c2 = _cyclic2_comonoid()
    iface = monomial(FinSet(("out",)), FinSet(("go", "stay")))
    cyclic2 = MDDS(c2, iface, Lens(c2.carrier, iface, {"x": "out"}, {"x": {"go": "s", "stay": "e"}}))
    # a lawless state comonoid whose base moves every state, with codomains
    # that are not the contractible ones, seen through a mode-dependent
    # interface; the MDDS lists that interface's directions in the other
    # order, which unroll's branches follow
    states = ("0", "1", "2")
    carrier = contractible(FinSet(states)).carrier
    lawless = Comonoid._from_tables(
        carrier,
        {x: x for x in states},
        {x: {t: str((int(t) + int(x)) % 3) for t in states} for x in states},
        dict.fromkeys(states, {(t, u): u for t in states for u in states}),
        {"0": "1", "1": "2", "2": "0"},
    )
    p = make_poly([("lo", ("a", "b")), ("hi", ("a",))])
    f = Lens(
        carrier,
        p,
        {"0": "lo", "1": "hi", "2": "lo"},
        {"0": {"a": "2", "b": "1"}, "1": {"a": "0"}, "2": {"a": "2", "b": "0"}},
    )
    flipped = make_poly([("lo", ("b", "a")), ("hi", ("a",))])
    return [
        moore_to_mdds(_toggle()),
        moore_to_mdds(three),
        cyclic2,
        _ring_27()[0],
        MDDS(lawless, p, f),
        MDDS(lawless, flipped, f),
    ]


def test_unroll_and_nstep_behavior_equal_their_old_recursions():
    cases = _unroll_reference_cases()
    assert any(s != b for s, b in cases[-1].state.base.items())
    orders = set()
    for sys in cases:
        for n in range(4):
            beh = nstep_behavior(sys.state, sys.dynamics, n)
            assert beh == _reference_nstep_behavior(sys.state, sys.dynamics, n)
            for s in sys.state.carrier.position_labels:
                tree, want = unroll(sys, s, n), _reference_unroll(sys, s, n)
                assert tree == want
                assert tree.to_label() == want.to_label()
                if n > 1 and tree.position == "lo":
                    orders.add(tuple(tree.branches))
    # the two lawless systems differ only in the interface's direction order
    assert orders == {("a", "b"), ("b", "a")}


def _distinct_nodes(tree):
    seen, todo = set(), [tree]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            todo.extend((t.branches or {}).values())
    return len(seen)


def test_unroll_of_the_27_state_ring_at_depth_16_shares_its_subtrees():
    # without sharing the tree has 2^16 leaves and a 16 MB peak
    sys, start = _ring_27()
    t0 = time.perf_counter()
    tree = unroll(sys, start, 16)
    assert time.perf_counter() - t0 < 0.1
    tracemalloc.start()
    try:
        unroll(sys, start, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # one node per (state, depth) at most, and the empty tree
    assert _distinct_nodes(tree) <= 27 * 16 + 1
    assert tree.depth == 16 and set(tree.branches) == {"a0", "a1"}


def test_unroll_of_the_clock_at_depth_5000_does_not_recurse():
    # the tree builder took two interpreter frames per level, so depth 500
    # raised RecursionError; hash and to_label took one frame per level
    c = contractible(FinSet(("u", "v")))
    f = Lens(c.carrier, Y, {"u": "*", "v": "*"}, {"u": {"*": "v"}, "v": {"*": "u"}})
    sys = MDDS(c, Y, f)
    t0 = time.perf_counter()
    tree = unroll(sys, "u", 5000)
    assert time.perf_counter() - t0 < 0.5
    assert _distinct_nodes(tree) <= 2 * 5000 + 1
    again = unroll(sys, "u", 5000)
    assert tree is not again and tree == again and hash(tree) == hash(again)
    assert tree.to_label() == again.to_label()
    assert nstep_behavior(c, f, 2000)("u") == unroll(sys, "u", 2000).to_label()



def test_the_clock_at_depth_5000_exports_and_copies_without_recursing():
    # the exports, pickle and deepcopy took one frame per level (JSON and
    # pickle raised RecursionError from depth 500, deepcopy from 300)
    c = contractible(FinSet(("u", "v")))
    f = Lens(c.carrier, Y, {"u": "*", "v": "*"}, {"u": {"*": "v"}, "v": {"*": "u"}})
    tree = unroll(MDDS(c, Y, f), "u", 5000)
    times = {}
    for name, export in (
        ("json", lambda: json.dumps(strategy_tree_to_json(tree))),
        ("dot", lambda: strategy_tree_to_dot(tree)),
        ("pickle", lambda: pickle.loads(pickle.dumps(tree))),
        ("deepcopy", lambda: copy.deepcopy(tree)),
    ):
        t0 = time.perf_counter()
        result = export()
        times[name] = time.perf_counter() - t0
        if isinstance(result, StrategyTree):
            assert result is not tree and result == tree
            assert _distinct_nodes(result) <= 2 * 5000 + 1
    assert max(times.values()) < 1, times


def test_the_json_of_the_27_state_ring_at_depth_64_lists_each_node_once():
    # written one entry per path, it had 2^64 leaves
    sys, start = _ring_27()
    tree = unroll(sys, start, 64)
    t0 = time.perf_counter()
    data = json.loads(json.dumps(strategy_tree_to_json(tree)))
    assert time.perf_counter() - t0 < 0.1
    assert data["depth"] == 64 and len(data["nodes"]) <= 27 * 64 + 1
    assert data["nodes"][-1]["depth"] == 64


class _OldTree:
    """A StrategyTree under == and hash as they were: a walk over every
    path, however many paths share a node."""

    __slots__ = ("t",)

    def __init__(self, t):
        self.t = t

    def _branches(self):
        b = self.t.branches
        return None if b is None else {d: _OldTree(s) for d, s in b.items()}

    def __eq__(self, other):
        a, b = self.t, other.t
        return a.depth == b.depth and a.position == b.position and self._branches() == other._branches()

    def __hash__(self):
        if self.t.depth == 0:
            return hash((0,))
        return hash((self.t.depth, self.t.position, frozenset(self._branches().items())))


def _with_leaf(tree, directions, position):
    """A copy of tree whose depth-1 node at the end of directions shows
    position; every other subtree is shared with tree."""
    if tree.depth == 1:
        return StrategyTree(1, position, tree.branches)
    d, rest = directions[0], directions[1:]
    branches = dict(tree.branches)
    branches[d] = _with_leaf(branches[d], rest, position)
    return StrategyTree(tree.depth, tree.position, branches)


def _deep_leaf_pair(depth):
    """unroll's tree of the ring's start, built twice, and a copy that
    differs from it only at the depth-1 node at the end of a1 a1 ... a1."""
    sys, start = _ring_27()
    a, b = unroll(sys, start, depth), unroll(sys, start, depth)
    leaf = a
    while leaf.depth > 1:
        leaf = leaf.branches["a1"]
    other = next(v for v in ("v0", "v1", "v2") if v != leaf.position)
    return a, b, _with_leaf(a, ["a1"] * (depth - 1), other)


def test_strategy_tree_equality_and_hash_equal_their_old_walks():
    trees = [
        unroll(sys, s, n)
        for sys in _unroll_reference_cases()
        for s in sys.state.carrier.position_labels
        for n in range(4)
    ]
    for depth in (1, 2, 6, 10):
        trees.extend(_deep_leaf_pair(depth))
    for t in trees:
        assert hash(t) == hash(_OldTree(t))
    verdicts = set()
    for a, b in itertools.product(trees, repeat=2):
        verdict = a == b
        assert verdict == (_OldTree(a) == _OldTree(b))
        verdicts.add(verdict)
    assert verdicts == {True, False}
    a, b, c = _deep_leaf_pair(10)
    assert (a == b, a == c, c == a) == (True, False, False)


def test_strategy_tree_equality_and_hash_visit_each_node_once_at_depth_20():
    # every path: 2^20 leaves, where unroll builds at most 27 * 20 nodes
    a, b, c = _deep_leaf_pair(20)
    times = []
    for compare in (lambda: hash(a), lambda: hash(c), lambda: a == b, lambda: a == c):
        t0 = time.perf_counter()
        compare()
        times.append(time.perf_counter() - t0)
    assert (hash(a) == hash(b), a == b, a == c) == (True, True, False)
    assert max(times) < 0.02, times


def test_a_strategy_tree_hash_is_not_pickled():
    # a node keeps its hash, and string hashes differ between processes
    code = (
        "import pickle, sys\n"
        "from polydyn.dynamics import StrategyTree\n"
        "t = StrategyTree(1, 'p', {'d': StrategyTree.empty()})\n"
        "if sys.argv[1] == 'dump':\n"
        "    hash(t)\n"
        "    sys.stdout.write(pickle.dumps(t).hex())\n"
        "else:\n"
        "    print(hash(pickle.loads(bytes.fromhex(sys.stdin.read()))) == hash(t))\n"
    )

    src = os.path.dirname(os.path.dirname(polydyn.__file__))

    def run(seed, *args, stdin=""):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        return subprocess.run(
            [executable, "-B", "-c", code, *args],
            input=stdin, capture_output=True, text=True, check=True, env=env,
        ).stdout

    assert run("2", "load", stdin=run("1", "dump")).strip() == "True"


def test_a_finpoly_hash_is_not_pickled():
    # a polynomial keeps its hash, and string hashes differ between processes
    code = (
        "import pickle, sys\n"
        "from polydyn.core import FinPoly, FinSet\n"
        "p = FinPoly([('p', FinSet(('d', 'e'))), ('q', FinSet(()))])\n"
        "if sys.argv[1] == 'dump':\n"
        "    hash(p)\n"
        "    sys.stdout.write(pickle.dumps(p).hex())\n"
        "else:\n"
        "    q = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
        "    print(q == p, q in {p}, hash(q) == hash(p))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(polydyn.__file__)))

    def run(seed, *args, stdin=""):
        return subprocess.run(
            [executable, "-B", "-c", code, *args], input=stdin, capture_output=True,
            text=True, check=True, env=dict(env, PYTHONHASHSEED=seed),
        ).stdout

    assert run("2", "load", stdin=run("1", "dump")).split() == ["True"] * 3
    # in one process the copy is equal and hashes alike
    p = FinPoly([("p", FinSet(("d",)))])
    assert pickle.loads(pickle.dumps(p)) == p and hash(copy.deepcopy(p)) == hash(p)


def test_strategy_tree_validation():
    with pytest.raises(ValueError, match="depth"):
        StrategyTree(-1)
    with pytest.raises(ValueError, match="no position"):
        StrategyTree(0, position="i")
    with pytest.raises(ValueError, match="position label"):
        StrategyTree(2)
    with pytest.raises(ValueError, match="expected 1"):
        StrategyTree(2, "i", {"d": StrategyTree.empty()})
    # a depth that is not an int was truncated, and a direction that is
    # not a str was kept, breaking to_label at depth 2
    for depth in (1.9, "1"):
        with pytest.raises(TypeError, match="depth must be an int"):
            StrategyTree(depth, "a", {})
    with pytest.raises(TypeError, match="direction must be a str, not int"):
        StrategyTree(1, "a", {1: StrategyTree.empty()})
    assert type(StrategyTree(True, "a", {}).depth) is int


# ---------------------------------------------------------------------------
# Overlay and juxtaposition.


def test_overlay_projections_recover_the_parts():
    c = contractible(FinSet(("s0", "s1", "s2", "s3")))
    r = FinSet(("lo", "hi"))
    pa = monomial(r, FinSet(("r", "b")))
    pb = monomial(r, FinSet(("g",)))
    fa = Lens(
        c.carrier,
        pa,
        {s: ("lo" if s in ("s0", "s1") else "hi") for s in c.carrier.position_labels},
        {
            s: {"r": "s0", "b": "s2"}
            for s in c.carrier.position_labels
        },
    )
    fb = Lens(
        c.carrier,
        pb,
        {s: ("lo" if s == "s0" else "hi") for s in c.carrier.position_labels},
        {s: {"g": "s3"} for s in c.carrier.position_labels},
    )
    both = overlay(MDDS(c, pa, fa), MDDS(c, pb, fb))
    assert lens_compose(product_proj(pa, pb, 0), both.dynamics) == fa
    assert lens_compose(product_proj(pa, pb, 1), both.dynamics) == fb
    # the paper's shape: four states over a product interface whose
    # positions are pairs and whose direction sets have three elements
    assert both.interface.num_positions() == 4
    for i in both.interface.position_labels:
        assert len(both.interface.directions(i)) == 3
    assert canonical_form(both.interface) == canonical_form(
        monomial(FinSet(("00", "01", "10", "11")), FinSet(("r", "b", "g")))
    )


def test_overlay_requires_shared_state():
    m1 = moore_to_mdds(_toggle())
    m2 = moore_to_mdds(_echo())
    with pytest.raises(ValueError, match="shared state"):
        overlay(m1, m2)


def test_overlay_with_itself_projects_back():
    sys = moore_to_mdds(_toggle())
    both = overlay(sys, sys)
    p = sys.interface
    assert lens_compose(product_proj(p, p, 0), both.dynamics) == sys.dynamics
    assert lens_compose(product_proj(p, p, 1), both.dynamics) == sys.dynamics


def test_juxtapose_with_trivial_system_pads_the_original():
    sys = moore_to_mdds(_toggle())
    one = contractible(FinSet(("*",)))
    triv = MDDS(one, Y, Lens(one.carrier, Y, {"*": "*"}, {"*": {"*": "*"}}))
    jux = juxtapose(sys, triv)
    assert jux.interface == poly_tensor(sys.interface, Y)
    f = sys.dynamics
    for s in sys.state.carrier.position_labels:
        padded = pair_label(s, "*")
        b = f.on_pos[s]
        assert jux.dynamics.on_pos[padded] == pair_label(b, "*")
        for d in sys.interface.directions(b).elements:
            assert jux.dynamics.on_dir[padded][pair_label(d, "*")] == pair_label(
                f.on_dir[s][d], "*"
            )


def test_juxtapose_positions_multiply_and_state_stays_contractible():
    a = moore_to_mdds(_toggle())
    b = moore_to_mdds(_echo())
    jux = juxtapose(a, b)
    assert jux.interface.num_positions() == (
        a.interface.num_positions() * b.interface.num_positions()
    )
    assert set(jux.state.carrier.position_labels) == {
        pair_label(x, y)
        for x in a.state.carrier.position_labels
        for y in b.state.carrier.position_labels
    }
    assert jux.state == contractible(jux.state.carrier.positions_set())


# ---------------------------------------------------------------------------
# Wiring application and closed loops.


def test_apply_wiring_requires_matching_interface():
    sys = moore_to_mdds(_toggle())
    w = _control_wiring(("a0", "a1"), ("b0", "b1"), ("c0", "c1"))
    with pytest.raises(ValueError, match="wiring domain"):
        apply_wiring(w, sys)


def test_control_loop_matches_hand_recurrence_exhaustively():
    a = ("a0", "a1")
    b = ("b0", "b1")
    c = ("c0", "c1")
    ctrl = MooreMachine.from_tables(
        ["q0", "q1"],
        c,
        b,
        {"q0": "b0", "q1": "b1"},
        {(cv, q): ("q1" if cv == "c1" else "q0") for cv in c for q in ("q0", "q1")},
        "q0",
    )
    ab = [pair_label(x, y) for x in a for y in b]
    plant = MooreMachine.from_tables(
        ["p0", "p1"],
        ab,
        c,
        {"p0": "c0", "p1": "c1"},
        {
            (d, p): ("p1" if (d.startswith("(a1") != (p == "p1")) else "p0")
            for d in ab
            for p in ("p0", "p1")
        },
        "p0",
    )
    w = _control_wiring(a, b, c)
    composite = apply_wiring(w, juxtapose(moore_to_mdds(ctrl), moore_to_mdds(plant)))
    start = pair_label(ctrl.initial, plant.initial)
    for n in range(6):
        for stream in itertools.product(a, repeat=n):
            t = run_open(composite, stream, start)
            states, outs = _coupled_oracle(ctrl, plant, stream)
            assert t.states() == tuple(pair_label(q, p) for q, p in states)
            assert t.positions() == tuple(outs)
            _check_trace(composite, t)


def test_run_closed_toggles_forever():
    c = contractible(FinSet(("u", "v")))
    f = Lens(c.carrier, Y, {"u": "*", "v": "*"}, {"u": {"*": "v"}, "v": {"*": "u"}})
    sys = MDDS(c, Y, f)
    t = run_closed(sys, 5, "u")
    assert t.states() == ("u", "v", "u", "v", "u", "v")
    assert t.history == tag_label("u", "v")
    _check_trace(sys, t)
    t0 = run_closed(sys, 0, "u")
    assert t0.steps == (("u", "*", None),)
    assert t0.history == tag_label("u", "u")


def test_run_closed_requires_closed_interface():
    sys = moore_to_mdds(_toggle())
    with pytest.raises(ValueError, match="closed interface"):
        run_closed(sys, 3, "0")


def test_run_closed_refuses_steps_that_are_not_an_int():
    # a float reached itertools.repeat and a str the comparison with 0
    c = contractible(FinSet(("u", "v")))
    f = Lens(c.carrier, Y, {"u": "*", "v": "*"}, {"u": {"*": "v"}, "v": {"*": "u"}})
    sys = MDDS(c, Y, f)
    with pytest.raises(TypeError, match="^steps must be an int, not float$"):
        run_closed(sys, 2.5, "u")
    with pytest.raises(TypeError, match="^steps must be an int, not str$"):
        run_closed(sys, "3", "u")


def _closed_swap() -> MDDS:
    c = contractible(FinSet(("u", "v")))
    f = Lens(c.carrier, Y, {"u": "*", "v": "*"}, {"u": {"*": "v"}, "v": {"*": "u"}})
    return MDDS(c, Y, f)


@pytest.mark.parametrize(
    "name, call",
    [
        ("n", lambda sys: compose_power(sys.state.carrier, True)),
        ("steps", lambda sys: run_closed(sys, True, "u")),
        ("depth", lambda sys: unroll(sys, "u", True)),
        ("n", lambda sys: nstep_behavior(sys.state, sys.dynamics, True)),
        ("depth", lambda sys: cofree_truncation(sys.state.carrier, True)),
        ("order", lambda sys: monoid_tables(True)),
        ("max_objects", lambda sys: generate_categories(True, 3)),
    ],
    ids=[
        "compose_power", "run_closed", "unroll", "nstep_behavior",
        "cofree_truncation", "monoid_tables", "generate_categories",
    ],
)
def test_entry_points_refuse_a_bool_where_an_int_is_required(name, call):
    # a bool is an int to isinstance, so each of these ran with the value 1;
    # monoid_tables(True) also hit a cached monoid_tables(1)
    monoid_tables(1)
    with pytest.raises(TypeError, match=f"^{name} must be an int, not bool$"):
        call(_closed_swap())


def test_run_closed_on_a_group_state_accumulates_history():
    # one object, two loops forming the 2-element group: the history
    # records the parity of the step count even though the state never
    # moves
    c = _cyclic2_comonoid()
    f = Lens(c.carrier, Y, {"x": "*"}, {"x": {"*": "s"}})
    sys = MDDS(c, Y, f)
    for n in range(6):
        t = run_closed(sys, n, "x")
        assert t.history == tag_label("x", "s" if n % 2 else "e")
        assert t.states() == ("x",) * (n + 1)


def test_run_open_runs_each_mode_of_a_mode_dependent_interface():
    # the parallel pair as its own interface: at u the inputs are the
    # three arrows out of u, at v only iv; an input of the other mode
    # names the position it was read at
    c = category_to_comonoid(_parallel_pair_category())
    sys = MDDS(c, c.carrier, lens_id(c.carrier))
    assert not is_monomial(sys.interface)
    for stream in ([], ["iu", "iu"], ["iu", "al", "iv"], ["be", "iv", "iv"]):
        t = run_open(sys, stream, "u")
        _check_trace(sys, t)
        assert t.directions() == tuple(stream)
        assert t.history == _reference_trace_history(sys, "u", stream)
    assert run_open(sys, ["iu", "be", "iv"], "u").states() == ("u", "u", "v", "v")
    assert run_open(sys, ["iv"], "v").positions() == ("v", "v")
    for stream, start, a, b in ((["al", "be"], "u", "be", "v"), (["iv"], "u", "iv", "u")):
        with pytest.raises(ValueError, match=f"unknown input element '{a}': not available at position '{b}'"):
            run_open(sys, stream, start)


def test_run_open_runs_a_system_behind_a_mode_dependent_wiring():
    # the echo machine behind a wiring that offers "flip" only while the
    # machine shows x: stay keeps the shown value, flip stores the other
    echo = moore_to_mdds(_echo())
    outer = make_poly([("x", ("stay", "flip")), ("y", ("stay",))])
    w = Lens(
        echo.interface,
        outer,
        {"x": "x", "y": "y"},
        {"x": {"stay": "x", "flip": "y"}, "y": {"stay": "y"}},
    )
    sys = apply_wiring(w, echo)
    assert not is_monomial(sys.interface)
    t = run_open(sys, ["stay", "flip", "stay"], "x")
    assert t.steps == (
        ("x", "x", "stay"), ("x", "x", "flip"), ("y", "y", "stay"), ("y", "y", None),
    )
    assert t.states() == run_open(echo, ["x", "y", "y"], "x").states()
    with pytest.raises(ValueError, match="unknown input element 'flip': not available at position 'y'"):
        run_open(sys, ["flip", "flip"], "x")


def test_every_entry_point_names_an_illegal_input_and_its_position():
    sys = _cyclic2_open_system()
    message = "unknown input element 'z': not available at position 'o'"
    for call in (
        lambda: run_open(sys, ["a", "z"], "x"),
        lambda: step(sys, "x", "z"),
        lambda: trace_history(sys, "x", ["b", "z"]),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_run_open_refuses_a_str_of_inputs():
    # "xy" used to run as the inputs x, y, and "a0" to fail on input a
    echo = moore_to_mdds(_echo())
    with pytest.raises(TypeError, match="inputs must be an iterable of input labels, not a str"):
        run_open(echo, "xy", "x")
    two = MooreMachine.from_tables(
        ["0", "1"],
        ["a0", "a1"],
        ["0", "1"],
        {"0": "0", "1": "1"},
        {(a, s): a[1] for a in ("a0", "a1") for s in "01"},
        "0",
    )
    with pytest.raises(TypeError, match="not a str"):
        run_open(moore_to_mdds(two), "a0", "0")
    assert run_open(moore_to_mdds(two), ["a1"], "0").final_state == "1"


def test_run_open_agrees_with_run_moore():
    m = _toggle()
    sys = moore_to_mdds(m)
    for stream in itertools.product(m.inputs.elements, repeat=3):
        assert run_open(sys, stream, m.initial) == run_moore(m, stream)


def _cyclic2_open_system():
    # the two-element group as state: input a pulls back to the identity,
    # b to the generator, so the history is the parity of the b inputs
    c = _cyclic2_comonoid()
    iface = monomial(FinSet(("o",)), FinSet(("a", "b")))
    f = Lens(c.carrier, iface, {"x": "o"}, {"x": {"a": "e", "b": "s"}})
    return MDDS(c, iface, f)


def test_run_open_on_a_group_state_folds_the_parity_of_b():
    sys = _cyclic2_open_system()
    for n in range(6):
        for stream in itertools.product("ab", repeat=n):
            t = run_open(sys, stream, "x")
            parity = stream.count("b") % 2
            assert t.history == tag_label("x", "s" if parity else "e")
            assert t.steps == tuple(("x", "o", a) for a in stream) + (("x", "o", None),)


def test_run_open_rejects_an_unknown_input_mid_stream():
    sys = moore_to_mdds(_echo())
    with pytest.raises(ValueError, match="unknown input element 'z'"):
        run_open(sys, ["x", "y", "y", "z", "x"], "x")
    with pytest.raises(ValueError, match="unknown input element 'x'"):
        run_open(_cyclic2_open_system(), ["a", "b", "x"], "x")


def test_run_open_reads_tables_changed_between_calls():
    sys = moore_to_mdds(_toggle())
    assert run_open(sys, ["t", "t"], "0").states() == ("0", "1", "0")
    sys.dynamics.on_dir["0"]["t"] = "0"
    assert run_open(sys, ["t", "t"], "0").states() == ("0", "0", "0")
    sys.dynamics.on_pos["0"] = "1"
    assert run_open(sys, ["t"], "0").positions() == ("1", "1")


# The stepping loops of run_closed and run_open as they were before the
# runs read per-state transition rows, kept as a plain reference.


def _reference_run_closed(sys, steps, start):
    assert sys.interface == Y and steps >= 0
    assert start in sys.state.carrier.positions_set()
    f = sys.dynamics
    codomain = sys.state.codomain
    composite = sys.state.composite[start]
    s = start
    acc = sys.state.identity[start]
    out = []
    for _ in range(steps):
        e = f.on_dir[s]["*"]
        out.append((s, f.on_pos[s], "*"))
        acc = composite[(acc, e)]
        s = codomain[s][e]
    out.append((s, f.on_pos[s], None))
    return Trace(tuple(out), s, tag_label(start, acc))


def _reference_run_open(sys, inputs, start):
    assert is_monomial(sys.interface)
    assert start in sys.state.carrier.positions_set()
    f = sys.dynamics
    legal = sys.interface.positions[0][1]
    codomain = sys.state.codomain
    composite = sys.state.composite[start]
    s = start
    acc = sys.state.identity[start]
    out = []
    for a in inputs:
        if a not in legal:
            raise ValueError(f"unknown input element {a!r}")
        b = f.on_pos[s]
        e = f.on_dir[s][a]
        out.append((s, b, a))
        acc = composite[(acc, e)]
        s = codomain[s][e]
    out.append((s, f.on_pos[s], None))
    return Trace(tuple(out), s, tag_label(start, acc))


def _assert_runs_match_the_reference(sys, start, rng, length):
    if sys.interface == Y:
        for steps in (0, 1, length):
            assert run_closed(sys, steps, start) == _reference_run_closed(sys, steps, start)
        return
    legal = sys.interface.positions[0][1].elements
    for n in (0, 1, length):
        stream = [rng.choice(legal) for _ in range(n)]
        assert run_open(sys, stream, start) == _reference_run_open(sys, stream, start)


def _systems_for_the_reference():
    for name in ("control.wd", "supplier.wd", "attach.wd"):
        yield compile_system(parse(_read(name)))
    for boxes, k in ((3, 3), (4, 4)):
        yield compile_system(parse(_ring_text(*_ring_tables(10, boxes, k))))
    rng = random.Random(20261018)
    for _ in range(20):
        yield compile_system(_with_random_machines(random_spec(rng), rng))
    yield _cyclic2_open_system(), "x"
    c = _cyclic2_comonoid()
    yield MDDS(c, Y, Lens(c.carrier, Y, {"x": "*"}, {"x": {"*": "s"}})), "x"


def test_runs_match_the_reference_loops():
    # the demos, two rings, 20 seeded random specs and the group state
    rng = random.Random(5)
    seen = []
    for sys, start in _systems_for_the_reference():
        _assert_runs_match_the_reference(sys, start, rng, 2000)
        seen.append("closed" if sys.interface == Y else "open")
    assert len(seen) == 27
    assert "closed" in seen and "open" in seen


def _seeded_dynamics(c, rng):
    """An open system on c (3 inputs, 2 outputs) and a closed one, with
    seeded readouts and pulled-back directions."""
    dirs = {i: c.carrier.directions(i).elements for i in c.carrier.position_labels}
    iface = monomial(FinSet(("o0", "o1")), FinSet(("a", "b", "c")))
    open_lens = Lens(
        c.carrier,
        iface,
        {i: rng.choice(("o0", "o1")) for i in dirs},
        {i: {a: rng.choice(ds) for a in "abc"} for i, ds in dirs.items()},
    )
    closed_lens = Lens(
        c.carrier,
        Y,
        dict.fromkeys(dirs, "*"),
        {i: {"*": rng.choice(ds)} for i, ds in dirs.items()},
    )
    return MDDS(c, iface, open_lens), MDDS(c, Y, closed_lens)


def _monoid_states():
    """Every monoid of order at most 4 and a seeded sample of order 6, as
    one-object state comonoids: every direction leads back to the one
    state, so a history can take as many values as the monoid has."""
    monoids = [k for k in generate_categories(1, 6) if len(k.objects) == 1]
    small = [k for k in monoids if len(k.morphisms) <= 4]
    order6 = [k for k in monoids if len(k.morphisms) == 6]
    assert (len(small), len(order6)) == (1 + 2 + 7 + 35, 2237)
    for k in small + random.Random(6).sample(order6, 25):
        yield category_to_comonoid(k)


def test_runs_on_monoid_states_match_the_reference_loops():
    rng = random.Random(15)
    for c in _monoid_states():
        start = c.carrier.position_labels[0]
        for sys in _seeded_dynamics(c, rng):
            _assert_runs_match_the_reference(sys, start, rng, 300)


class _CountingTable(dict):
    """A composite table that counts the lookups made in it."""

    def __init__(self, table):
        super().__init__(table)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def _pairs_met(sys, trace, start):
    """The distinct (history, pulled-back direction) pairs of a run."""
    composite = sys.state.composite[start]
    acc = sys.state.identity[start]
    pairs = set()
    for s, _, d in trace.steps[:-1]:
        e = sys.dynamics.on_dir[s][d]
        pairs.add((acc, e))
        acc = dict.__getitem__(composite, (acc, e))
    return pairs


def _seeded_run(sys, start, rng):
    """A run of 200 steps from start, on a seeded stream when it is open."""
    if sys.interface == Y:
        return lambda: run_closed(sys, 200, start)
    legal = sys.interface.positions[0][1].elements
    stream = [rng.choice(legal) for _ in range(200)]
    return lambda: run_open(sys, stream, start)


def test_runs_fill_the_history_folds_lazily_and_for_one_call_only():
    rng = random.Random(16)
    systems = [
        (sys, c.carrier.position_labels[0])
        for c in _monoid_states()
        for sys in _seeded_dynamics(c, rng)
    ]
    systems += list(_systems_for_the_reference())
    several = 0
    for sys, start in systems:
        table = sys.state.composite[start] = _CountingTable(sys.state.composite[start])
        run = _seeded_run(sys, start, rng)
        trace = run()
        pairs = _pairs_met(sys, trace, start)
        assert table.lookups == len(pairs)
        # nothing survives the call: the same run looks each pair up again
        assert run() == trace
        assert table.lookups == 2 * len(pairs)
        several += len(pairs) > len({e for _, e in pairs})
    # on monoid states one direction meets several histories
    assert several > 10

    # 200 contractible states: the start has 200 directions and a
    # 40,000-entry composite table, of which a 3-step run reads at most 3
    states = FinSet(tuple(f"s{k}" for k in range(200)))
    c = contractible(states)
    iface = monomial(FinSet(("o",)), FinSet(("a", "b")))
    f = Lens(
        c.carrier,
        iface,
        dict.fromkeys(states.elements, "o"),
        {s: {"a": rng.choice(states.elements), "b": s} for s in states.elements},
    )
    sys = MDDS(c, iface, f)
    assert len(c.carrier.directions("s0")) == 200
    assert len(c.composite["s0"]) == 40_000
    table = c.composite["s0"] = _CountingTable(c.composite["s0"])
    first = run_open(sys, ["a", "b", "a"], "s0")
    assert 1 <= table.lookups <= 3
    assert run_open(sys, ["a", "b", "a"], "s0") == first
    assert table.lookups == 2 * len(_pairs_met(sys, first, "s0"))


def test_a_missing_composite_pair_raises_at_the_step_that_needs_it():
    sys = _cyclic2_open_system()
    table = dict(sys.state.composite["x"])
    del table[("s", "s")]
    sys.state.composite["x"] = table
    # b pulls back to s; the history is s after one b, and the second b
    # needs the missing pair
    assert run_open(sys, ["a", "b", "a"], "x").history == tag_label("x", "s")
    for run in (run_open, _reference_run_open):
        with pytest.raises(KeyError) as info:
            run(sys, ["a", "b", "a", "b", "a"], "x")
        assert info.value.args == (("s", "s"),)


def test_run_traces_pass_the_public_trace_checks():
    # the run loop builds its traces unchecked; rebuilding each one through
    # the validating constructor must accept it and give an equal trace
    rng = random.Random(17)
    systems = [
        (sys, c.carrier.position_labels[0])
        for c in _monoid_states()
        for sys in _seeded_dynamics(c, rng)
    ]
    systems += list(_systems_for_the_reference())
    seen = set()
    for sys, start in systems:
        for n in (0, 1, 300):
            if sys.interface == Y:
                t = run_closed(sys, n, start)
            else:
                legal = sys.interface.positions[0][1].elements
                t = run_open(sys, [rng.choice(legal) for _ in range(n)], start)
            # equal only if steps and every entry are tuples, as rebuilt
            assert t == Trace(t.steps, t.final_state, t.history)
        seen.add(sys.interface == Y)
    assert seen == {True, False}


def _states_met_by_history(sys, trace, start):
    """The states at which each history of a run is met, step by step as
    the reference loops fold them."""
    composite = sys.state.composite[start]
    acc = sys.state.identity[start]
    met = {}
    for s, _, d in trace.steps:
        met.setdefault(acc, set()).add(s)
        if d is not None:
            acc = composite[(acc, sys.dynamics.on_dir[s][d])]
    return met


def _contractible_pair(n, rng):
    """An open and a closed system on n contractible states whose
    pulled-back directions are s1 and s2 wherever they are read."""
    states = FinSet(tuple(f"s{k}" for k in range(n)))
    c = contractible(states)
    iface = monomial(FinSet(("o0", "o1")), FinSet(("a", "b")))
    open_lens = Lens(
        c.carrier,
        iface,
        {s: rng.choice(iface.position_labels) for s in states.elements},
        dict.fromkeys(states.elements, {"a": "s1", "b": "s2"}),
    )
    closed_lens = Lens(
        c.carrier,
        Y,
        dict.fromkeys(states.elements, "*"),
        dict.fromkeys(states.elements, {"*": "s1"}),
    )
    return MDDS(c, iface, open_lens), MDDS(c, Y, closed_lens)


def test_runs_stay_right_when_a_history_no_longer_fixes_its_state():
    # on contractible state the history is the current state; each table
    # change below, made after construction, makes one history met at two
    # different states, where a loop keyed by the history alone goes wrong
    rng = random.Random(18)

    def flatten_composite(sys, start):
        # every history stays the identity at the start
        sys.state.composite[start] = dict.fromkeys(sys.state.composite[start], start)

    def cycle_codomain(sys, start):
        # every direction at s leads to the state after s, whatever it is
        states = sys.state.carrier.position_labels
        for k, s in enumerate(states):
            sys.state.codomain[s] = dict.fromkeys(states, states[(k + 1) % len(states)])

    for change in (flatten_composite, cycle_codomain):
        for sys in _contractible_pair(7, rng):
            start = "s0"
            change(sys, start)
            if sys.interface == Y:
                got = run_closed(sys, 200, start)
                want = _reference_run_closed(sys, 200, start)
            else:
                stream = [rng.choice("ab") for _ in range(200)]
                got = run_open(sys, stream, start)
                want = _reference_run_open(sys, stream, start)
            assert got == want
            met = _states_met_by_history(sys, want, start)
            assert any(len(states) > 1 for states in met.values())


# ---------------------------------------------------------------------------
# Histories.


def test_trace_history_identity_at_depth_zero():
    sys = moore_to_mdds(_toggle())
    assert trace_history(sys, "0", []) == tag_label("0", "0")


def test_trace_history_contractible_is_the_unique_morphism():
    m = _toggle()
    sys = moore_to_mdds(m)
    for stream in itertools.product(m.inputs.elements, repeat=3):
        t = run_moore(m, stream)
        assert trace_history(sys, m.initial, t.directions()) == tag_label(
            m.initial, t.final_state
        )


def test_trace_history_distinguishes_parallel_arrows():
    k = _parallel_pair_category()
    c = category_to_comonoid(k)
    sys = MDDS(c, c.carrier, lens_id(c.carrier))
    via_al = trace_history(sys, "u", ["al"])
    via_be = trace_history(sys, "u", ["be"])
    assert via_al == tag_label("u", "al")
    assert via_be == tag_label("u", "be")
    assert via_al != via_be
    # both are genuine morphisms of the state category, and both end at v
    cat = comonoid_to_category(c)
    assert cat.dom_of[via_al] == "u" and cat.cod_of[via_al] == "v"
    assert cat.dom_of[via_be] == "u" and cat.cod_of[via_be] == "v"
    with pytest.raises(ValueError, match="not available"):
        trace_history(sys, "u", ["iv"])


# trace_history and its legality check as they were before trace_history
# became the history of the run loop, kept as a plain reference.


def _reference_pull_direction(sys, s, d):
    b = sys.dynamics.on_pos[s]
    if d not in sys.interface.directions(b):
        raise ValueError(f"direction {d!r} is not available at position {b!r}")
    return sys.dynamics.on_dir[s][d]


def _reference_trace_history(sys, s0, directions):
    assert s0 in sys.state.carrier.positions_set()
    composite = sys.state.composite[s0]
    s = s0
    acc = sys.state.identity[s0]
    for d in directions:
        e = _reference_pull_direction(sys, s, d)
        acc = composite[(acc, e)]
        s = sys.state.codomain[s][e]
    return tag_label(s0, acc)


def _history_or_raised(sys, s0, directions):
    """The history both give, or the exception type both raise, after
    checking that they name the same direction and position or carry the
    same missing pair."""
    try:
        want = _reference_trace_history(sys, s0, directions)
    except (KeyError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            trace_history(sys, s0, directions)
        if isinstance(exc, KeyError):
            assert info.value.args == exc.args
        else:
            d, where = re.fullmatch(r"direction (.*) is (not available .*)", str(exc)).groups()
            assert d in str(info.value) and where in str(info.value)
        return type(exc)
    assert trace_history(sys, s0, directions) == want
    return want


def _seeded_walk(sys, s0, rng, n):
    """n directions, each drawn from those at the position the walk's
    current state emits."""
    f, codomain = sys.dynamics, sys.state.codomain
    s, out = s0, []
    for _ in range(n):
        d = rng.choice(sys.interface.directions(f.on_pos[s]).elements)
        out.append(d)
        s = codomain[s][f.on_dir[s][d]]
    return out


def _drop_a_composite_pair(sys, start, walk, rng):
    """Remove from the start's composite table a seeded one of the pairs
    the walk meets."""
    composite = dict(sys.state.composite[start])
    f = sys.dynamics
    s, acc, met = start, sys.state.identity[start], []
    for d in walk:
        e = f.on_dir[s][d]
        met.append((acc, e))
        acc = composite[acc, e]
        s = sys.state.codomain[s][e]
    del composite[rng.choice(met)]
    sys.state.composite[start] = composite


def _listen_mute_system():
    # the system of test_step_rejects_directions_from_the_wrong_mode
    iface = make_poly([("listen", ("a0", "a1")), ("mute", ("*",))])
    c = contractible(FinSet(("s1", "s2")))
    f = Lens(
        c.carrier,
        iface,
        {"s1": "listen", "s2": "mute"},
        {"s1": {"a0": "s1", "a1": "s2"}, "s2": {"*": "s1"}},
    )
    return MDDS(c, iface, f)


def test_trace_history_matches_the_reference():
    # the demos, the listen/mute modes, the group state and the parallel
    # pair, on seeded walks and on copies with an illegal direction put in
    # at a seeded step; then again with one composite pair removed
    c = category_to_comonoid(_parallel_pair_category())
    systems = [compile_system(parse(_read(name))) for name in ("control.wd", "supplier.wd", "attach.wd")]
    systems += [
        (_listen_mute_system(), "s1"),
        (_cyclic2_open_system(), "x"),
        (MDDS(c, c.carrier, lens_id(c.carrier)), "u"),
    ]
    rng = random.Random(34)
    for sys, start in systems:
        offered = sorted({d for _, ds in sys.interface.positions for d in ds.elements})
        walks = [[]] + [_seeded_walk(sys, start, rng, n) for n in (1, 2, 5, 200)]
        for walk in walks[1:]:
            for bad in (rng.choice(offered), "zz"):
                stream = list(walk)
                stream.insert(rng.randrange(len(stream) + 1), bad)
                walks.append(stream)
        outcomes = [_history_or_raised(sys, start, w) for w in walks]
        _drop_a_composite_pair(sys, start, walks[4], rng)
        outcomes += [_history_or_raised(sys, start, w) for w in walks]
        assert KeyError in outcomes and ValueError in outcomes
        assert any(isinstance(o, str) for o in outcomes)
    # a direction of the other mode
    assert _history_or_raised(_listen_mute_system(), "s1", ["a1", "a0"]) is ValueError


def test_trace_history_refuses_a_str_of_directions():
    # "ab" would otherwise run as the directions a, b
    with pytest.raises(TypeError, match="inputs must be an iterable of input labels, not a str"):
        trace_history(_cyclic2_open_system(), "x", "ab")


def test_trace_history_of_200k_directions_on_512_states_takes_under_60_ms():
    # the run loop pulls each (state, direction) back once, not once per
    # step as the reference does
    n = 512
    states = [f"s{i}" for i in range(n)]
    m = MooreMachine.from_tables(
        states,
        ["a", "b"],
        ["0", "1"],
        {s: str(i % 2) for i, s in enumerate(states)},
        {
            (a, s): states[(i + 1) % n if a == "a" else 2 * i % n]
            for i, s in enumerate(states)
            for a in "ab"
        },
        "s0",
    )
    sys = moore_to_mdds(m)
    directions = ["ab"[k % 3 == 0] for k in range(200_000)]
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        got = trace_history(sys, "s0", directions)
        best = min(best, time.perf_counter() - t0)
    assert got == run_moore(m, directions).history
    assert best < 0.06


# ---------------------------------------------------------------------------
# Trace and tree plumbing.


def test_trace_validation():
    with pytest.raises(ValueError, match="at least"):
        Trace((), "s")
    with pytest.raises(ValueError, match="consumes no direction"):
        Trace((("s", "b", "d"),), "s")
    with pytest.raises(ValueError, match="only the last"):
        Trace((("s", "b", None), ("s", "b", None)), "s")
    with pytest.raises(ValueError, match="final_state"):
        Trace((("s", "b", None),), "t")


def test_trace_refuses_a_string_entry_instead_of_splitting_it():
    # "abc" would otherwise read as state a, position b, direction c
    with pytest.raises(TypeError, match="trace entry 0 is a str"):
        Trace(["abc", ("s", "b", None)], "s")
    with pytest.raises(TypeError, match="trace entry 1 is a str"):
        Trace([("a", "b", "c"), "sb", ("s", "b", None)], "s")
    t = Trace([["a", "b", "c"], ("s", "b", None)], "s")
    assert t.steps == (("a", "b", "c"), ("s", "b", None))
    assert t == Trace(iter([("a", "b", "c"), ("s", "b", None)]), "s")


def test_trace_json_round_shape():
    t = run_moore(_toggle(), ["t"])
    assert trace_to_json(t) == {
        "steps": [
            {"state": "0", "position": "0", "direction": "t"},
            {"state": "1", "position": "1", "direction": None},
        ],
        "final_state": "1",
        "history": tag_label("0", "1"),
    }
    json.dumps(trace_to_json(t))


def test_trace_csv_golden():
    t = run_moore(_toggle(), ["t"])
    assert trace_to_csv(t) == "step,state,position,direction\n0,0,0,t\n1,1,1,\n"


def test_strategy_tree_json_and_dot():
    sys = moore_to_mdds(_toggle())
    t = unroll(sys, "0", 2)
    assert strategy_tree_to_json(t) == {
        "depth": 2,
        "nodes": [
            {"depth": 0},
            {"depth": 1, "position": "1", "branches": {"t": 0}},
            {"depth": 2, "position": "0", "branches": {"t": 1}},
        ],
    }
    assert strategy_tree_to_dot(t) == (
        'digraph strategy {\n'
        '  n0 [label="0"];\n'
        '  n1 [label="1"];\n'
        '  n0 -> n1 [label="t"];\n'
        "}\n"
    )
    assert strategy_tree_to_dot(StrategyTree.empty()) == "digraph strategy {\n}\n"



def _reference_tree_json(t):
    """strategy_tree_to_json as it was: nested dicts, every path written out."""
    if t.depth == 0:
        return {"depth": 0}
    return {
        "depth": t.depth,
        "position": t.position,
        "branches": {d: _reference_tree_json(u) for d, u in t.branches.items()},
    }


def _nested(data):
    """The node list of a tree's JSON unfolded into the old nested dicts."""
    built = []
    for node in data["nodes"]:
        if node["depth"]:
            node = dict(node, branches={d: built[i] for d, i in node["branches"].items()})
        built.append(node)
    assert built[-1]["depth"] == data["depth"]
    return built[-1]


def test_strategy_tree_exports_list_each_distinct_node_once():
    for sys in _unroll_reference_cases():
        for s in sys.state.carrier.position_labels:
            for n in range(5):
                shared, unshared = unroll(sys, s, n), _reference_unroll(sys, s, n)
                data = strategy_tree_to_json(shared)
                assert len(data["nodes"]) == _distinct_nodes(shared)
                assert _nested(data) == _reference_tree_json(shared)
                assert _nested(strategy_tree_to_json(unshared)) == _reference_tree_json(shared)
                # one statement per distinct node of positive depth, and one
                # edge per branch between two such nodes
                dot = strategy_tree_to_dot(shared).splitlines()
                listed = [u for u in data["nodes"] if u["depth"]]
                edges = sum(len(u["branches"]) for u in listed if u["depth"] > 1)
                assert len(dot) == 2 + len(listed) + edges
                assert sum("->" in line for line in dot) == edges
                for copied in (pickle.loads(pickle.dumps(shared)), copy.deepcopy(shared)):
                    assert copied == shared and copied.to_label() == shared.to_label()
                    assert _distinct_nodes(copied) == _distinct_nodes(shared)


def test_tree_labels_for_toggle():
    sys = moore_to_mdds(_toggle())
    assert unroll(sys, "0", 1).to_label() == "0"
    assert unroll(sys, "0", 2).to_label() == pair_label(
        "0", fn_label({"t": "1"}, ["t"])
    )
    inner = pair_label("1", fn_label({"t": "0"}, ["t"]))
    assert unroll(sys, "0", 3).to_label() == pair_label(
        "0", fn_label({"t": inner}, ["t"])
    )


def test_mdds_validation():
    c = contractible(FinSet(("u",)))
    f = Lens(c.carrier, Y, {"u": "*"}, {"u": {"*": "u"}})
    with pytest.raises(ValueError, match="carrier"):
        MDDS(contractible(FinSet(("z",))), Y, f)
    with pytest.raises(ValueError, match="interface"):
        MDDS(c, make_poly([("i", ())]), f)
