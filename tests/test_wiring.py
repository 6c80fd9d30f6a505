import itertools
import pathlib
import random

import pytest

from polydyn.core import (
    UNIT_SET,
    FinSet,
    Lens,
    Y,
    lens_id,
    monomial,
    pair_label,
    tag_label,
)
from polydyn.algebra import tensor_many
from polydyn.dynamics import MooreMachine, run_closed, run_open, step
from polydyn.wiring import (
    BoxDecl,
    Connect,
    Default,
    MachineDecl,
    ModeBlock,
    ModesDecl,
    OuterDecl,
    PortDecl,
    ReadoutRow,
    SetDecl,
    UpdateRow,
    WiringSpec,
    WiringSyntaxError,
    compile_machines,
    compile_system,
    compile_wiring,
    parse,
    print_spec,
    random_spec,
    validate,
)
from polydyn.wiring import _split, _tokenize

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def _read(name):
    return (DEMOS / name).read_text(encoding="utf-8")


def _control_hand_lens():
    a, b, c = FinSet(("a0", "a1")), FinSet(("b0", "b1")), FinSet(("c0", "c1"))
    ab = FinSet(tuple(pair_label(x, y) for x in a.elements for y in b.elements))
    dom = tensor_many([monomial(b, c), monomial(c, ab)])
    cod = monomial(c, a)
    on_pos = {}
    on_dir = {}
    for bv in b.elements:
        for cv in c.elements:
            lab = pair_label(bv, cv)
            on_pos[lab] = cv
            on_dir[lab] = {x: pair_label(cv, pair_label(x, bv)) for x in a.elements}
    return Lens(dom, cod, on_pos, on_dir)


def _tokens(text):
    return [(t.kind, t.value) for t in _tokenize(text)]


# ---------------------------------------------------------------------------
# Parsing.


def test_control_program_parses_to_two_boxes_four_connections():
    spec = parse(_read("control.wd"))
    assert len(spec.boxes()) == 2
    assert len(spec.connects()) == 4
    assert spec.outer().name == "System"
    assert [m.box for m in spec.machines()] == ["Controller", "Plant"]


def test_empty_file_parses_to_empty_spec():
    assert parse("") == WiringSpec(())
    assert parse("  # only a comment\n") == WiringSpec(())


def test_undeclared_set_reference_is_a_parse_error():
    with pytest.raises(WiringSyntaxError, match="undeclared set 'Q'"):
        parse("box B { in p : Q; }")


def test_syntax_errors_carry_line_and_column():
    with pytest.raises(WiringSyntaxError, match=r"line 2, column 9"):
        parse("set A = {a0}\nset B = ?")
    with pytest.raises(WiringSyntaxError, match="expected"):
        parse("connect A.b -> ")
    with pytest.raises(WiringSyntaxError, match="unexpected character"):
        parse("set A = {a@}")


def test_duplicate_declarations_are_parse_errors():
    with pytest.raises(WiringSyntaxError, match="duplicate set"):
        parse("set A = {x}\nset A = {y}")
    with pytest.raises(WiringSyntaxError, match="duplicate declaration"):
        parse("set A = {x}\nbox B { in p : A; }\nbox B { }")
    with pytest.raises(WiringSyntaxError, match="duplicate port"):
        parse("set A = {x}\nbox B { in p : A; out p : A; }")
    with pytest.raises(WiringSyntaxError, match="duplicate outer"):
        parse("outer O { }\nouter P { }")
    with pytest.raises(WiringSyntaxError, match="duplicate element"):
        parse("set A = {x, x}")
    with pytest.raises(WiringSyntaxError, match="duplicate machine"):
        parse(
            "set A = {x}\nbox B { }\n"
            "machine B { states = {s}; init = s; readout s = () }\n"
            "machine B { states = {s}; init = s; readout s = () }"
        )


def test_keywords_are_reserved():
    with pytest.raises(WiringSyntaxError):
        parse("set box = {x}")


# ---------------------------------------------------------------------------
# Printing.


@pytest.mark.parametrize("name", ["control.wd", "supplier.wd", "attach.wd"])
def test_parse_print_round_trips_the_ast(name):
    spec = parse(_read(name))
    assert parse(print_spec(spec)) == spec


@pytest.mark.parametrize("name", ["control.wd", "supplier.wd", "attach.wd"])
def test_print_parse_is_identity_up_to_whitespace(name):
    # token streams agree, so the printed form differs from the source
    # only in whitespace and comments
    text = _read(name)
    assert _tokens(print_spec(parse(text))) == _tokens(text)


def test_print_empty_spec():
    assert print_spec(WiringSpec(())) == ""


# ---------------------------------------------------------------------------
# Validation.


def test_golden_programs_validate_cleanly():
    for name in ("control.wd", "supplier.wd", "attach.wd"):
        report = validate(parse(_read(name)))
        assert report["ok"], report["violations"]


def test_two_drivers_on_one_port_is_fan_in():
    spec = parse(
        "set A = {x, y}\n"
        "box P { out o : A; }\n"
        "box Q { out o : A; in i : A; }\n"
        "connect P.o -> Q.i\n"
        "connect Q.o -> Q.i\n"
    )
    report = validate(spec)
    assert not report["ok"]
    assert any("fan-in at Q.i" in v for v in report["violations"])


def test_mode_block_missing_a_driver_names_the_mode():
    text = _read("supplier.wd").replace("    connect S2.w -> Company.w\n", "")
    report = validate(parse(text))
    assert not report["ok"]
    assert any("Company.w in mode 2" in v for v in report["violations"])
    # mode 1 is still fully wired
    assert not any("mode 1" in v for v in report["violations"])


def test_unwired_input_without_default_is_reported():
    spec = parse("set A = {x}\nbox B { in i : A; }")
    report = validate(spec)
    assert any("no driver or default for B.i" in v for v in report["violations"])
    with_default = parse("set A = {x}\nbox B { in i : A; }\ndefault B.i = x")
    assert validate(with_default)["ok"]


def test_outer_passthrough_is_forbidden():
    spec = parse(
        "set A = {x}\n"
        "outer O { in i : A; out o : A; }\n"
        "connect O.i -> O.o\n"
    )
    report = validate(spec)
    assert any("forbidden" in v for v in report["violations"])


def test_connection_reference_and_direction_violations():
    spec = parse(
        "set A = {x}\n"
        "set B = {y}\n"
        "box P { out o : A; in i : A; in j : B; }\n"
        "connect P.o -> P.nope\n"
        "connect Nope.o -> P.i\n"
        "connect P.i -> P.j\n"
    )
    report = validate(spec)
    v = report["violations"]
    assert any("undeclared port P.nope" in s for s in v)
    assert any("undeclared box 'Nope'" in s for s in v)
    assert any("must be a box out port" in s for s in v)


def test_type_mismatch_is_reported():
    spec = parse(
        "set A = {x}\n"
        "set B = {y}\n"
        "box P { out o : A; }\n"
        "box Q { in i : B; }\n"
        "connect P.o -> Q.i\n"
    )
    report = validate(spec)
    assert any("type mismatch" in s for s in report["violations"])


def test_default_violations():
    spec = parse(
        "set A = {x, y}\n"
        "box P { out o : A; in i : A; }\n"
        "default P.o = x\n"
        "default P.i = z\n"
    )
    v = validate(spec)["violations"]
    assert any("not an in port" in s for s in v)
    assert any("'z' is not in set 'A'" in s for s in v)


def test_mode_box_restrictions():
    spec = parse(
        "set A = {x}\n"
        "box P { out o : A; out p : A; }\n"
        "modes from P {\n  mode x { }\n}\n"
    )
    v = validate(spec)["violations"]
    assert any("exactly one out port" in s for s in v)
    spec2 = parse(
        "set A = {x}\n"
        "box P { out o : A; }\n"
        "modes from P {\n  mode y { }\n}\n"
    )
    v2 = validate(spec2)["violations"]
    assert any("mode 'y' is not a position" in s for s in v2)


def test_validate_reports_all_violations_at_once():
    spec = parse(
        "set A = {x}\n"
        "box P { in i : A; in j : A; }\n"
        "machine Ghost { states = {s}; init = s; readout s = () }\n"
    )
    v = validate(spec)["violations"]
    assert len(v) >= 3
    assert any("P.i" in s for s in v)
    assert any("P.j" in s for s in v)
    assert any("undeclared box 'Ghost'" in s for s in v)


# ---------------------------------------------------------------------------
# Compiling wiring.


def test_control_diagram_compiles_to_the_hand_lens():
    w = compile_wiring(parse(_read("control.wd")))
    assert w == _control_hand_lens()


def test_supplier_diagram_compiles_to_the_evaluation():
    w = compile_wiring(parse(_read("supplier.wd")))
    company = monomial(FinSet(("1", "2")), FinSet(("red", "blue")))
    supplier = monomial(FinSet(("red", "blue")), UNIT_SET)
    assert w.dom == tensor_many([company, supplier, supplier])
    assert w.cod == Y
    for m in ("1", "2"):
        for w1 in ("red", "blue"):
            for w2 in ("red", "blue"):
                pos = pair_label(m, w1, w2)
                assert w.on_pos[pos] == "*"
                chosen = w1 if m == "1" else w2
                assert w.on_dir[pos]["*"] == pair_label(chosen, "*", "*")


def test_attach_diagram_compiles_by_cases():
    w = compile_wiring(parse(_read("attach.wd")))
    assert w.cod == Y
    for m in ("1", "2"):
        for x in ("x0", "x1"):
            pos = pair_label(m, x, "*")
            routed = "x0" if m == "1" else x
            assert w.on_dir[pos]["*"] == pair_label("*", "*", routed)


def test_compile_rejects_invalid_specs():
    spec = parse("set A = {x}\nbox B { in i : A; }")
    with pytest.raises(ValueError, match="invalid wiring spec"):
        compile_wiring(spec)


def test_empty_spec_compiles_to_the_closed_identity():
    assert compile_wiring(WiringSpec(())) == lens_id(Y)


def test_single_box_compiles_without_tuple_wrapping():
    spec = parse(
        "set A = {x, y}\n"
        "box B { out o : A; in i : A; }\n"
        "outer O { out o : A; in i : A; }\n"
        "connect B.o -> O.o\n"
        "connect O.i -> B.i\n"
    )
    w = compile_wiring(spec)
    assert w.dom == monomial(FinSet(("x", "y")), FinSet(("x", "y")))
    assert w.on_pos == {"x": "x", "y": "y"}
    assert w.on_dir["x"]["y"] == "y"


def test_missing_outer_means_a_closed_diagram():
    spec = parse("set A = {x, y}\nbox B { out o : A; in i : A; }\ndefault B.i = y")
    w = compile_wiring(spec)
    assert w.cod == Y
    assert w.on_dir["x"]["*"] == "y"


def test_fan_out_duplicates_one_source():
    spec = parse(
        "set A = {x, y}\n"
        "box P { out o : A; }\n"
        "box Q { in i : A; in j : A; }\n"
        "connect P.o -> Q.i\n"
        "connect P.o -> Q.j\n"
    )
    w = compile_wiring(spec)
    for v in ("x", "y"):
        pos = pair_label(v, "*")
        assert w.on_dir[pos]["*"] == pair_label("*", pair_label(v, v))


# ---------------------------------------------------------------------------
# Compiling machines and whole systems.


def test_control_machines_round_trip_to_hand_tables():
    machines = dict(compile_machines(parse(_read("control.wd"))))
    ctrl = MooreMachine.from_tables(
        ["q0", "q1"],
        ["c0", "c1"],
        ["b0", "b1"],
        {"q0": "b0", "q1": "b1"},
        {
            ("c0", "q0"): "q0",
            ("c1", "q0"): "q1",
            ("c0", "q1"): "q0",
            ("c1", "q1"): "q1",
        },
        "q0",
    )
    assert machines["Controller"] == ctrl
    plant = machines["Plant"]
    assert plant.initial == "p0"
    assert plant.readout("p1") == "c1"
    assert plant.update(pair_label(pair_label("a1", "b0"), "p0")) == "p1"
    assert plant.update(pair_label(pair_label("a0", "b1"), "p1")) == "p1"


def test_machine_errors_name_the_problem():
    base = "set A = {x, y}\nbox B { out o : A; in i : A; }\n"
    with pytest.raises(ValueError, match="undeclared box 'Ghost'"):
        compile_machines(
            parse(base + "machine Ghost { states = {s}; init = s; readout s = () }")
        )
    with pytest.raises(ValueError, match=r"missing update for \('s', 'y'\)"):
        compile_machines(
            parse(
                base
                + "machine B { states = {s}; init = s;\n"
                + "  readout s = (o = x)\n  update s (i = x) = s\n}"
            )
        )
    with pytest.raises(ValueError, match="missing readout for 's'"):
        compile_machines(
            parse(
                base
                + "machine B { states = {s}; init = s;\n"
                + "  update s (i = x) = s\n  update s (i = y) = s\n}"
            )
        )
    with pytest.raises(ValueError, match="init 'zz' is not a state"):
        compile_machines(parse(base + "machine B { states = {s}; init = zz; }"))
    with pytest.raises(ValueError, match="assign exactly the ports"):
        compile_machines(
            parse(
                base
                + "machine B { states = {s}; init = s;\n"
                + "  readout s = (wrong = x)\n"
                + "  update s (i = x) = s\n  update s (i = y) = s\n}"
            )
        )
    with pytest.raises(ValueError, match="'q' is not a state"):
        compile_machines(
            parse(
                base
                + "machine B { states = {s}; init = s;\n"
                + "  readout s = (o = x)\n"
                + "  update s (i = x) = q\n  update s (i = y) = s\n}"
            )
        )


def test_compile_system_requires_a_machine_per_box():
    text = (
        "set A = {x}\nbox B { out o : A; }\nbox C { out o : A; }\n"
        "machine B { states = {s}; init = s; readout s = (o = x) update s () = s }\n"
    )
    with pytest.raises(ValueError, match="no machine table for box 'C'"):
        compile_system(parse(text))


def test_control_system_matches_the_coupled_recurrence():
    sys, start = compile_system(parse(_read("control.wd")))
    machines = dict(compile_machines(parse(_read("control.wd"))))
    ctrl, plant = machines["Controller"], machines["Plant"]
    assert start == pair_label("q0", "p0")
    for n in range(4):
        for stream in itertools.product(("a0", "a1"), repeat=n):
            t = run_open(sys, stream, start)
            q, p = ctrl.initial, plant.initial
            states = [(q, p)]
            outs = []
            for x in stream:
                bv, cv = ctrl.readout(q), plant.readout(p)
                outs.append(cv)
                q = ctrl.update(pair_label(cv, q))
                p = plant.update(pair_label(pair_label(x, bv), p))
                states.append((q, p))
            outs.append(plant.readout(p))
            assert t.states() == tuple(pair_label(*s) for s in states)
            assert t.positions() == tuple(outs)


def test_supplier_system_switches_source_with_the_mode():
    sys, start = compile_system(parse(_read("supplier.wd")))
    t = run_closed(sys, 6, start)
    # mode 1 delivers red, which flips the company to mode 2; mode 2
    # delivers blue, which flips it back
    assert t.states() == (
        "(m1,only,only)",
        "(m2,only,only)",
        "(m1,only,only)",
        "(m2,only,only)",
        "(m1,only,only)",
        "(m2,only,only)",
        "(m1,only,only)",
    )


def test_attach_system_runs_closed():
    sys, start = compile_system(parse(_read("attach.wd")))
    t = run_closed(sys, 4, start)
    assert t.states()[0] == pair_label("t1", "sx0", "z")
    assert len(t) == 4


# ---------------------------------------------------------------------------
# Fuzzing.


def test_fuzz_random_specs_compile_to_well_formed_lenses():
    rng = random.Random(20260823)
    for _ in range(500):
        spec = random_spec(rng)
        report = validate(spec)
        assert report["ok"], report["violations"]
        assert parse(print_spec(spec)) == spec
        w = compile_wiring(spec)
        assert isinstance(w, Lens)


def test_random_spec_is_seed_deterministic():
    a = [random_spec(random.Random(7)) for _ in range(10)]
    b = [random_spec(random.Random(7)) for _ in range(10)]
    assert a == b


def test_fixed_wiring_on_dir_factors_through_wired_sources():
    # without modes, the backward pass may read only the outer direction
    # and the positions of boxes that actually drive something
    rng = random.Random(99)
    checked = 0
    for _ in range(200):
        spec = random_spec(rng)
        if spec.modes() is not None:
            continue
        w = compile_wiring(spec)
        wired = sorted(
            {(c.src_owner, c.src_port) for c in spec.connects()}
            - {(spec.outer().name, p.name) for p in spec.outer().ports}
        )
        boxes = list(spec.boxes().values())

        def source_view(pos):
            vals = {}
            for decl, part in zip(boxes, _split(pos, len(boxes))):
                outs = [p for p in decl.ports if p.kind == "out"]
                for p, v in zip(outs, _split(part, len(outs))):
                    vals[(decl.name, p.name)] = v
            return tuple(vals.get(key) for key in wired)

        groups = {}
        for pos in w.dom.position_labels:
            groups.setdefault(source_view(pos), []).append(pos)
        for members in groups.values():
            first = w.on_dir[members[0]]
            for other in members[1:]:
                assert w.on_dir[other] == first
        checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# A 27-state system: three 3-state machines in a ring.


def _ring_tables(seed):
    """Seeded tables for boxes M0, M1, M2, each with states q<k>0..q<k>2.

    M0 reads the outside input a and M2's output, M1 reads M0's, M2 reads
    M1's; the system shows M2's output.
    """
    rng = random.Random(seed)
    inputs, values = ("a0", "a1"), ("v0", "v1", "v2")
    states = [tuple(f"q{k}{j}" for j in range(3)) for k in range(3)]
    readout = [{q: rng.choice(values) for q in states[k]} for k in range(3)]
    update = [
        {(q, a, v): rng.choice(states[0]) for q in states[0] for a in inputs for v in values},
        {(q, v): rng.choice(states[1]) for q in states[1] for v in values},
        {(q, v): rng.choice(states[2]) for q in states[2] for v in values},
    ]
    return inputs, values, states, readout, update


def _ring_text(inputs, values, states, readout, update):
    lines = [
        f"set A = {{{', '.join(inputs)}}}",
        f"set V = {{{', '.join(values)}}}",
        "box M0 { out o : V; in a : A; in x : V; }",
        "box M1 { out o : V; in x : V; }",
        "box M2 { out o : V; in x : V; }",
        "outer System { out o : V; in a : A; }",
        "connect M2.o -> System.o",
        "connect System.a -> M0.a",
        "connect M2.o -> M0.x",
        "connect M0.o -> M1.x",
        "connect M1.o -> M2.x",
    ]
    for k in range(3):
        lines += [
            f"machine M{k} {{",
            f"  states = {{{', '.join(states[k])}}};",
            f"  init = {states[k][0]};",
        ]
        lines += [f"  readout {q} = (o = {readout[k][q]})" for q in states[k]]
        for key, nxt in update[k].items():
            if k == 0:
                q, a, v = key
                lines.append(f"  update {q} (a = {a}, x = {v}) = {nxt}")
            else:
                q, v = key
                lines.append(f"  update {q} (x = {v}) = {nxt}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _ring_oracle(states, readout, update, stream):
    """run_open's steps, from plain dicts and string joins only."""
    q = [s[0] for s in states]
    steps = []
    for a in stream:
        steps.append(("(" + ",".join(q) + ")", readout[2][q[2]], a))
        o0, o1, o2 = (readout[k][q[k]] for k in range(3))
        q = [update[0][q[0], a, o2], update[1][q[1], o0], update[2][q[2], o1]]
    steps.append(("(" + ",".join(q) + ")", readout[2][q[2]], None))
    return steps


def test_ring_of_27_states_runs_100k_inputs_against_an_oracle():
    tables = _ring_tables(10)
    inputs, _, states, readout, update = tables
    spec = parse(_ring_text(*tables))
    assert validate(spec)["ok"]
    sys, start = compile_system(spec)
    assert sys.state.carrier.num_positions() == 27
    assert start == "(q00,q10,q20)"
    # seed 10 visits 19 of the 27 states and two of the three outputs
    rng = random.Random(12)
    stream = [rng.choice(inputs) for _ in range(100_000)]
    trace = run_open(sys, stream, start)
    want = _ring_oracle(states, readout, update, stream)
    assert len(trace.steps) == len(want)
    for got, expected in zip(trace.steps, want):
        assert got == expected
    assert trace.final_state == want[-1][0]
    # the state comonoid is contractible, so the run traces out the unique
    # morphism from the start to the final state
    assert trace.history == tag_label(start, trace.final_state)


def test_step_works_on_a_27_state_system():
    tables = _ring_tables(10)
    _, _, states, readout, update = tables
    sys, start = compile_system(parse(_ring_text(*tables)))
    s = start
    want = _ring_oracle(states, readout, update, ["a1", "a0", "a1"])
    for (state, out, a), (nxt, _, _) in zip(want, want[1:]):
        assert s == state
        b, s = step(sys, s, a)
        assert (b, s) == (out, nxt)
