import copy
import itertools
import json
import pathlib
import pickle
import random
import time

import pytest

from polydyn.core import (
    UNIT_SET,
    FinSet,
    Lens,
    SizeLimitError,
    Y,
    lens_compose,
    lens_id,
    monomial,
    pair_label,
    split_pair,
    tag_label,
)
from polydyn.algebra import tensor_many
from polydyn.comonoid import comonoid_to_json, contractible
from polydyn.dynamics import MDDS, MooreMachine, moore_to_lens, run_closed, run_open, step
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
import polydyn.wiring
from polydyn.wiring import _Resolved, _at, _split, _structural_problems, _tokenize

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
DATA = pathlib.Path(__file__).resolve().parent / "data"


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
# The syntax-tree records.


@pytest.mark.parametrize("name", ["control.wd", "supplier.wd", "attach.wd"])
def test_demo_spec_repr_is_unchanged(name):
    recorded = json.loads((DATA / "demo_spec_reprs.json").read_text(encoding="utf-8"))
    assert repr(parse(_read(name))) == recorded[name]


def test_node_equality_and_hash_ignore_span():
    a = SetDecl("S", ("x", "y"), span=(1, 1))
    b = SetDecl("S", ("x", "y"), span=(7, 3))
    assert a == b and hash(a) == hash(b)
    assert SetDecl("S", ("x",)) != a
    assert repr(a) == "SetDecl(name='S', elements=('x', 'y'))"
    spec = parse(_read("control.wd"))
    assert spec == parse(print_spec(spec)) and hash(spec) == hash(parse(print_spec(spec)))


def test_nodes_of_different_classes_are_never_equal():
    box, outer = BoxDecl("B", ()), OuterDecl("B", ())
    assert box != outer and outer != box
    assert ReadoutRow("s", ()) != UpdateRow("s", (), "s")
    assert box != ("B", (), None) and box != "B"
    assert len({box, outer}) == 2


def test_nodes_take_positional_or_keyword_fields():
    positional = Connect("A", "o", "B", "i", (3, 1))
    keyword = Connect(dst_port="i", src_owner="A", span=(3, 1), dst_owner="B", src_port="o")
    assert positional == keyword and keyword.span == (3, 1)
    assert Connect("A", "o", "B", "i").span is None
    assert WiringSpec() == WiringSpec(()) == WiringSpec(statements=())
    with pytest.raises(TypeError):
        Connect("A", "o", "B")
    with pytest.raises(TypeError):
        SetDecl(elements=("x",))
    with pytest.raises(TypeError):
        SetDecl("S", ("x",), None, "extra")
    with pytest.raises(TypeError):
        SetDecl("S", ("x",), name="T")
    with pytest.raises(TypeError):
        SetDecl("S", ("x",), size=1)


def test_port_kind_must_be_in_or_out():
    assert PortDecl(kind="in", name="p", set_name="S").kind == "in"
    with pytest.raises(ValueError, match="port kind"):
        PortDecl("x", "p", "S")
    with pytest.raises(ValueError, match="port kind"):
        PortDecl(kind="x", name="p", set_name="S")


def test_nodes_refuse_assignment_and_deletion():
    node = Default("B", "i", "x", span=(2, 1))
    with pytest.raises(AttributeError):
        node.value = "y"
    with pytest.raises(AttributeError):
        node.span = None
    with pytest.raises(AttributeError):
        node.extra = 1
    with pytest.raises(AttributeError):
        del node.owner
    assert node == Default("B", "i", "x") and node.span == (2, 1)


def _spans(node):
    if isinstance(node, tuple):
        return [s for x in node for s in _spans(x)]
    if not hasattr(node, "span"):
        return [s for x in node.statements for s in _spans(x)]
    nested = [getattr(node, f, None) for f in ("ports", "connects", "blocks", "readouts", "updates")]
    return [node.span] + [s for x in nested if x is not None for s in _spans(x)]


@pytest.mark.parametrize("name", ["control.wd", "supplier.wd", "attach.wd"])
def test_specs_survive_copy_deepcopy_and_pickle_with_their_spans(name):
    spec = parse(_read(name))
    spans = _spans(spec)
    assert all(s is not None for s in spans)
    for other in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert other == spec and repr(other) == repr(spec)
        assert _spans(other) == spans


# ---------------------------------------------------------------------------
# Validation.


def test_golden_programs_validate_cleanly():
    for name in ("control.wd", "supplier.wd", "attach.wd"):
        report = validate(parse(_read(name)))
        assert report["ok"], report["violations"]


def test_entry_points_refuse_unparsed_text_and_point_to_parse():
    text = _read("control.wd")
    for entry in (validate, compile_wiring, compile_machines, compile_system):
        with pytest.raises(TypeError, match=r"spec must be a WiringSpec, not str; parse\(text\)"):
            entry(text)
    assert validate(parse(text))["ok"]


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



def test_driver_violations_give_the_line_of_the_port_per_mode():
    spec = parse(
        "set A = {x, y}\n"
        "box M { out m : A; in i : A; }\n"
        "box P { out o : A; out u : A; }\n"
        "outer O {\n"
        "  out o : A;\n"
        "}\n"
        "modes from M {\n"
        "  mode x { connect P.o -> M.i connect P.u -> M.i }\n"
        "  mode y { }\n"
        "}\n"
    )
    assert validate(spec)["violations"] == [
        "line 2: fan-in at M.i in mode x",
        "line 5: no driver for O.o in mode x",
        "line 2: no driver or default for M.i in mode y",
        "line 5: no driver for O.o in mode y",
    ]

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


def test_whole_machine_errors_give_the_line_of_the_machine_or_row():
    base = "set A = {x, y}\nbox B { out o : A; in i : A; }\n"
    cases = [
        ("machine Ghost { states = {s}; init = s; readout s = () }",
         "line 3: machine bound to undeclared box 'Ghost'"),
        ("machine B { states = {s, s}; init = s;\n"
         "  readout s = (o = x)\n  update s (i = x) = s\n  update s (i = y) = s\n}",
         "line 3: machine 'B': duplicate states"),
        ("machine B { states = {s}; init = zz; }",
         "line 3: machine 'B': init 'zz' is not a state"),
        ("machine B { states = {s}; init = s;\n"
         "  update s (i = x) = s\n  update s (i = y) = s\n}",
         "line 3: machine 'B': missing readout for 's'"),
        ("machine B { states = {s}; init = s;\n  readout s = (o = x)\n"
         "  readout s = (o = y)\n  update s (i = x) = s\n  update s (i = y) = s\n}",
         "line 5: machine 'B': duplicate readout for 's'"),
        ("machine B { states = {s}; init = s;\n  readout s = (o = x)\n"
         "  update s (i = x) = s\n  update s (i = y) = s\n  update s (i = y) = s\n}",
         "line 7: machine 'B': duplicate update for ('s', 'y')"),
        ("machine B { states = {s}; init = s;\n  readout s = (o = x)\n"
         "  readout q = (o = x)\n  update s (i = x) = s\n  update s (i = y) = s\n}",
         "line 5: machine 'B': readout for unknown state 'q'"),
        ("machine B { states = {s}; init = s;\n  readout s = (o = x)\n"
         "  update q (i = x) = s\n  update s (i = x) = s\n  update s (i = y) = s\n}",
         "line 5: machine 'B': update for unknown state 'q'"),
        ("machine B { states = {s}; init = s;\n  readout s = (o = z)\n"
         "  update s (i = x) = s\n  update s (i = y) = s\n}",
         "line 4: machine 'B': 'z' is not in set 'A'; "
         "line 3: machine 'B': missing readout for 's'"),
        ("machine B { states = {s}; init = s;\n  readout s = (o = x)\n"
         "  update s (i = x) = s\n  update s (i = z) = s\n  update s (i = y) = s\n}",
         "line 6: machine 'B': 'z' is not in set 'A'"),
    ]
    for text, error in cases:
        with pytest.raises(ValueError) as info:
            compile_machines(parse(base + text))
        assert str(info.value) == error


def test_compile_system_requires_a_machine_per_box():
    text = (
        "set A = {x}\nbox B { out o : A; }\nbox C { out o : A; }\n"
        "machine B { states = {s}; init = s; readout s = (o = x) update s () = s }\n"
    )
    with pytest.raises(ValueError, match="^line 3: no machine table for box 'C'$"):
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
# Rings of machines: B boxes of k states each, k^B states in all.


def _ring_tables(seed, boxes, k):
    """Seeded tables for boxes M0..M<B-1>, box b with states q<b>0..q<b><k-1>.

    Every box reads the outside input a and the previous box's output on
    i (M0 reads the last box's); the system shows M0's output.
    """
    rng = random.Random(seed)
    inputs, values = ("a0", "a1"), tuple(f"v{j}" for j in range(k))
    states = [tuple(f"q{b}{j}" for j in range(k)) for b in range(boxes)]
    readout = [{q: rng.choice(values) for q in qs} for qs in states]
    update = [
        {(q, v, a): rng.choice(qs) for q in qs for v in values for a in inputs}
        for qs in states
    ]
    return inputs, values, states, readout, update


def _ring_text(inputs, values, states, readout, update):
    boxes = len(states)
    lines = [
        f"set A = {{{', '.join(inputs)}}}",
        f"set V = {{{', '.join(values)}}}",
    ]
    lines += [f"box M{b} {{ out o : V; in i : V; in a : A; }}" for b in range(boxes)]
    lines += ["outer System { out o : V; in a : A; }", "connect M0.o -> System.o"]
    for b in range(boxes):
        lines += [
            f"connect System.a -> M{b}.a",
            f"connect M{b}.o -> M{(b + 1) % boxes}.i",
        ]
    for b in range(boxes):
        lines += [
            f"machine M{b} {{",
            f"  states = {{{', '.join(states[b])}}};",
            f"  init = {states[b][0]};",
        ]
        lines += [f"  readout {q} = (o = {readout[b][q]})" for q in states[b]]
        lines += [
            f"  update {q} (i = {v}, a = {a}) = {nxt}"
            for (q, v, a), nxt in update[b].items()
        ]
        lines.append("}")
    return "\n".join(lines) + "\n"


def _ring_oracle(states, readout, update, stream):
    """run_open's steps for two or more boxes, from plain dicts and string joins."""
    q = [s[0] for s in states]
    steps = []
    for a in stream:
        steps.append(("(" + ",".join(q) + ")", readout[0][q[0]], a))
        outs = [readout[b][q[b]] for b in range(len(q))]
        q = [update[b][q[b], outs[b - 1], a] for b in range(len(q))]
    steps.append(("(" + ",".join(q) + ")", readout[0][q[0]], None))
    return steps


def _ring_runs_against_the_oracle(boxes, k, steps):
    tables = _ring_tables(10, boxes, k)
    inputs, _, states, readout, update = tables
    spec = parse(_ring_text(*tables))
    assert validate(spec)["ok"]
    t0 = time.perf_counter()
    sys, start = compile_system(spec)
    compile_s = time.perf_counter() - t0
    assert sys.state.carrier.num_positions() == k**boxes
    assert start == "(" + ",".join(qs[0] for qs in states) + ")"
    rng = random.Random(12)
    stream = [rng.choice(inputs) for _ in range(steps)]
    trace = run_open(sys, stream, start)
    want = _ring_oracle(states, readout, update, stream)
    assert len(trace.steps) == len(want)
    for got, expected in zip(trace.steps, want):
        assert got == expected
    assert trace.final_state == want[-1][0]
    # the state comonoid is contractible, so the run traces out the unique
    # morphism from the start to the final state
    assert trace.history == tag_label(start, trace.final_state)
    return compile_s, {s for s, _, _ in want}, {b for _, b, _ in want}


def test_ring_of_27_states_runs_100k_inputs_against_an_oracle():
    _, visited, shown = _ring_runs_against_the_oracle(3, 3, 100_000)
    # seed 10 visits 18 of the 27 states and shows all three outputs
    assert (len(visited), len(shown)) == (18, 3)


def test_ring_of_256_states_compiles_in_under_2s_and_runs_against_an_oracle():
    compile_s, _, _ = _ring_runs_against_the_oracle(4, 4, 10_000)
    assert compile_s < 2.0


def test_ring_of_1024_states_is_refused_before_building_the_inner_interface():
    # M0..M4 of 4 states each: the inner interface has 4^5 positions and
    # (2*4)^5 directions at each, 2^25 + 2^10 labels in all
    spec = parse(_ring_text(*_ring_tables(10, 5, 4)))
    t0 = time.perf_counter()
    msg = "tensor_many would build 33555456 positions plus direction labels"
    with pytest.raises(SizeLimitError, match=msg):
        compile_system(spec)
    assert time.perf_counter() - t0 < 0.1


def test_step_works_on_a_27_state_system():
    tables = _ring_tables(10, 3, 3)
    _, _, states, readout, update = tables
    sys, start = compile_system(parse(_ring_text(*tables)))
    s = start
    want = _ring_oracle(states, readout, update, ["a1", "a0", "a1"])
    for (state, out, a), (nxt, _, _) in zip(want, want[1:]):
        assert s == state
        b, s = step(sys, s, a)
        assert (b, s) == (out, nxt)


# ---------------------------------------------------------------------------
# The switched ring: the ring's boxes plus a switch Sw, one state per mode,
# whose output picks which neighbour feeds each box.


def _switched_ring_tables(seed, boxes, k, shifts, defaulted=False):
    """The ring's tables, the shift of each mode, and an optional default.

    In the mode with shift s, Mb.o feeds M<b+s>.i.  With defaulted, the
    last mode leaves a seeded box's i to a seeded default value.
    """
    inputs, values, states, readout, update = _ring_tables(seed, boxes, k)
    default = None
    if defaulted:
        rng = random.Random(seed + 1)
        default = (list(shifts)[-1], rng.randrange(boxes), rng.choice(values))
    return inputs, values, states, readout, update, dict(shifts), default


def _switched_ring_text(inputs, values, states, readout, update, shifts, default):
    """Sw has states w0..w<n-1> showing the n modes in order; it stays on
    input a0 and moves to the next mode on a1."""
    boxes, labels = len(states), list(shifts)
    lines = [
        f"set A = {{{', '.join(inputs)}}}",
        f"set V = {{{', '.join(values)}}}",
        f"set L = {{{', '.join(labels)}}}",
    ]
    lines += [f"box M{b} {{ out o : V; in i : V; in a : A; }}" for b in range(boxes)]
    lines += ["box Sw { out s : L; in a : A; }", "outer System { out o : V; in a : A; }"]
    lines += ["connect M0.o -> System.o", "connect System.a -> Sw.a"]
    lines += [f"connect System.a -> M{b}.a" for b in range(boxes)]
    if default is not None:
        lines.append(f"default M{default[1]}.i = {default[2]}")
    lines.append("modes from Sw {")
    for label, shift in shifts.items():
        lines.append(f"  mode {label} {{")
        for b in range(boxes):
            if default is None or (label, (b + shift) % boxes) != default[:2]:
                lines.append(f"    connect M{b}.o -> M{(b + shift) % boxes}.i")
        lines.append("  }")
    lines.append("}")
    for b in range(boxes):
        lines += [
            f"machine M{b} {{",
            f"  states = {{{', '.join(states[b])}}};",
            f"  init = {states[b][0]};",
        ]
        lines += [f"  readout {q} = (o = {readout[b][q]})" for q in states[b]]
        lines += [
            f"  update {q} (i = {v}, a = {a}) = {nxt}"
            for (q, v, a), nxt in update[b].items()
        ]
        lines.append("}")
    n = len(labels)
    lines += ["machine Sw {", f"  states = {{{', '.join(f'w{j}' for j in range(n))}}};"]
    lines.append("  init = w0;")
    lines += [f"  readout w{j} = (s = {label})" for j, label in enumerate(labels)]
    for j in range(n):
        lines.append(f"  update w{j} (a = {inputs[0]}) = w{j}")
        lines.append(f"  update w{j} (a = {inputs[1]}) = w{(j + 1) % n}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _switched_ring_oracle(inputs, values, states, readout, update, shifts, default, stream):
    """run_open's steps from plain dicts: the switch's state picks the mode
    before any input is routed."""
    boxes, labels = len(states), list(shifts)
    q, w = [s[0] for s in states], 0
    steps = []
    for a in stream:
        steps.append(("(" + ",".join(q + [f"w{w}"]) + ")", readout[0][q[0]], a))
        mode = labels[w]
        outs = [readout[b][q[b]] for b in range(boxes)]
        ins = [outs[(b - shifts[mode]) % boxes] for b in range(boxes)]
        if default is not None and default[0] == mode:
            ins[default[1]] = default[2]
        q = [update[b][q[b], ins[b], a] for b in range(boxes)]
        w = (w + 1) % len(labels) if a == inputs[1] else w
    steps.append(("(" + ",".join(q + [f"w{w}"]) + ")", readout[0][q[0]], None))
    return steps


def _switched_ring_runs_against_the_oracle(tables, steps):
    spec = parse(_switched_ring_text(*tables))
    assert validate(spec)["ok"]
    t0 = time.perf_counter()
    sys, start = compile_system(spec)
    compile_s = time.perf_counter() - t0
    states = tables[2]
    assert sys.state.carrier.num_positions() == 2 * len(states[0]) ** len(states)
    rng = random.Random(12)
    stream = [rng.choice(tables[0]) for _ in range(steps)]
    trace = run_open(sys, stream, start)
    want = _switched_ring_oracle(*tables, stream)
    assert list(trace.steps) == want
    assert trace.final_state == want[-1][0]
    # both modes are run: Sw's state is the last component of the label
    assert {s.rsplit(",", 1)[1] for s, _, _ in want} == {"w0)", "w1)"}
    return compile_s


FORWARD_BACKWARD = {"f": 1, "r": -1}


def test_switched_ring_of_54_states_runs_100k_inputs_against_an_oracle():
    tables = _switched_ring_tables(10, 3, 3, FORWARD_BACKWARD)
    _switched_ring_runs_against_the_oracle(tables, 100_000)


def test_switched_ring_of_128_states_compiles_in_under_2s_and_runs_against_an_oracle():
    tables = _switched_ring_tables(10, 3, 4, FORWARD_BACKWARD)
    assert _switched_ring_runs_against_the_oracle(tables, 100_000) < 2.0


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_switched_ring_with_an_input_left_to_its_default_runs_against_an_oracle(seed):
    # as in demos/attach.wd, mode r leaves one box's i to its default
    tables = _switched_ring_tables(seed, 3, 3, FORWARD_BACKWARD, defaulted=True)
    _, b, value = tables[-1]
    text = _switched_ring_text(*tables)
    assert f"default M{b}.i = {value}" in text
    assert text.count(f"-> M{b}.i") == 1
    _switched_ring_runs_against_the_oracle(tables, 100_000)


# ---------------------------------------------------------------------------
# compile_system against the composite it stands for: the wiring lens after
# the flat tensor of the machine lenses.


def _old_composite(spec):
    machines = dict(compile_machines(spec))
    lenses = [moore_to_lens(machines[name]) for name in spec.boxes()]
    if not lenses:
        inner = lens_id(Y)
    elif len(lenses) == 1:
        inner = lenses[0]
    else:
        dom = tensor_many([f.dom for f in lenses])
        cod = tensor_many([f.cod for f in lenses])
        on_pos = {}
        on_dir = {}
        for pos in dom.position_labels:
            parts = split_pair(pos)
            on_pos[pos] = pair_label(*[f.on_pos[p] for f, p in zip(lenses, parts)])
            on_dir[pos] = {
                d: pair_label(
                    *[f.on_dir[p][dp] for f, p, dp in zip(lenses, parts, split_pair(d))]
                )
                for d in cod.directions(on_pos[pos]).elements
            }
        inner = Lens(dom, cod, on_pos, on_dir)
    wiring = compile_wiring(spec)
    state = contractible(FinSet(inner.dom.position_labels))
    inits = [machines[name].initial for name in spec.boxes()]
    start = "*" if not inits else inits[0] if len(inits) == 1 else pair_label(*inits)
    return MDDS(state, wiring.cod, lens_compose(wiring, inner)), start


def _assert_same_system(spec):
    sys, start = compile_system(spec)
    old, old_start = _old_composite(spec)
    assert start == old_start
    assert sys == old
    carrier, old_carrier = sys.state.carrier, old.state.carrier
    assert carrier.position_labels == old_carrier.position_labels
    for i in carrier.position_labels:
        assert carrier.directions(i).elements == old_carrier.directions(i).elements
    got, want = sys.dynamics, old.dynamics
    assert list(got.on_pos.items()) == list(want.on_pos.items())
    assert list(got.on_dir) == list(want.on_dir)
    for i, row in got.on_dir.items():
        assert list(row.items()) == list(want.on_dir[i].items())
    if carrier.num_positions() <= 4:
        # the derived comultiplication has n^n * n positions at n states
        # (and refuses above 6), so the JSON form is compared only on the
        # small cases; the tables themselves were compared above
        assert comonoid_to_json(sys.state) == comonoid_to_json(old.state)


def _with_random_machines(spec, rng):
    """The spec plus a random machine table for every box, every row given."""
    elements = {name: decl.elements for name, decl in spec.sets().items()}
    machines = []
    for box in spec.boxes().values():
        outs = [p for p in box.ports if p.kind == "out"]
        ins = [p for p in box.ports if p.kind == "in"]
        states = tuple(f"s{j}" for j in range(rng.randint(1, 3)))
        readouts = tuple(
            ReadoutRow(q, tuple((p.name, rng.choice(elements[p.set_name])) for p in outs))
            for q in states
        )
        updates = tuple(
            UpdateRow(q, tuple(zip([p.name for p in ins], combo)), rng.choice(states))
            for q in states
            for combo in itertools.product(*[elements[p.set_name] for p in ins])
        )
        machines.append(MachineDecl(box.name, states, rng.choice(states), readouts, updates))
    return WiringSpec(spec.statements + tuple(machines))


@pytest.mark.parametrize("name", ["control.wd", "supplier.wd", "attach.wd"])
def test_compile_system_equals_the_old_composite_on_the_demos(name):
    _assert_same_system(parse(_read(name)))


@pytest.mark.parametrize("text", ["", "outer T { }"])
def test_compile_system_equals_the_old_composite_without_boxes(text):
    _assert_same_system(parse(text))


@pytest.mark.parametrize("boxes,k", [(1, 3), (2, 2), (3, 3), (3, 5), (4, 4)])
def test_compile_system_equals_the_old_composite_on_rings(boxes, k):
    _assert_same_system(parse(_ring_text(*_ring_tables(10, boxes, k))))


def test_compile_system_equals_the_old_composite_on_random_specs():
    rng = random.Random(20261018)
    for _ in range(40):
        _assert_same_system(_with_random_machines(random_spec(rng), rng))


# ---------------------------------------------------------------------------
# validate against the driver analysis it replaced, which checked every
# connection again for each mode and scanned all connections per port.


def _reference_port(r, owner, name):
    for p in r.in_ports.get(owner, []) + r.out_ports.get(owner, []):
        if p.name == name:
            return p
    return None


def _reference_mode_labels(r):
    if r.modes is None:
        return [None]
    outs = r.out_ports.get(r.modes.box, [])
    if len(outs) != 1 or outs[0].set_name not in r.sets:
        return [None]
    return list(r.sets[outs[0].set_name].elements)


def _reference_connects_for(r, spec, label):
    conns = list(spec.connects())
    if r.modes is not None and label is not None:
        for b in r.modes.blocks:
            if b.label == label:
                conns.extend(b.connects)
    return conns


def _reference_connect_problems(r, c, where):
    problems = []
    loc = _at(c.span)
    for owner, port in ((c.src_owner, c.src_port), (c.dst_owner, c.dst_port)):
        if owner not in r.in_ports:
            problems.append(f"{loc}undeclared box {owner!r}{where}")
        elif _reference_port(r, owner, port) is None:
            problems.append(f"{loc}undeclared port {owner}.{port}{where}")
    if problems:
        return problems
    src = _reference_port(r, c.src_owner, c.src_port)
    dst = _reference_port(r, c.dst_owner, c.dst_port)
    src_is_outer = c.src_owner == r.outer_name
    dst_is_outer = c.dst_owner == r.outer_name
    if (src.kind == "out") == src_is_outer:
        want = "an outer in port" if src_is_outer else "a box out port"
        problems.append(
            f"{loc}connection source {c.src_owner}.{c.src_port} must be {want}{where}"
        )
    if (dst.kind == "in") == dst_is_outer:
        want = "an outer out port" if dst_is_outer else "a box in port"
        problems.append(
            f"{loc}connection target {c.dst_owner}.{c.dst_port} must be {want}{where}"
        )
    if src_is_outer and dst_is_outer:
        problems.append(
            f"{loc}direct connection from outer input {c.src_port} to outer "
            f"output {c.dst_port} is forbidden{where}"
        )
    if not problems and src.set_name != dst.set_name:
        problems.append(
            f"{loc}type mismatch: {c.src_owner}.{c.src_port} : {src.set_name} "
            f"-> {c.dst_owner}.{c.dst_port} : {dst.set_name}{where}"
        )
    return problems


def _reference_validate(spec):
    violations = [_at(span) + msg for msg, span in _structural_problems(spec)]
    r = _Resolved(spec)

    for c in spec.connects():
        violations.extend(_reference_connect_problems(r, c, ""))
    for d in spec.defaults():
        loc = _at(d.span)
        if d.owner not in r.boxes:
            violations.append(f"{loc}default on undeclared box {d.owner!r}")
            continue
        p = _reference_port(r, d.owner, d.port)
        if p is None:
            violations.append(f"{loc}default on undeclared port {d.owner}.{d.port}")
        elif p.kind != "in":
            violations.append(
                f"{loc}default on {d.owner}.{d.port}, which is not an in port"
            )
        elif p.set_name in r.sets and d.value not in r.sets[p.set_name]:
            violations.append(
                f"{loc}default value {d.value!r} is not in set {p.set_name!r}"
            )

    modes = r.modes
    if modes is not None:
        loc = _at(modes.span)
        if modes.box not in r.boxes:
            violations.append(f"{loc}modes from undeclared box {modes.box!r}")
        else:
            outs = r.out_ports[modes.box]
            if len(outs) != 1:
                violations.append(
                    f"{loc}mode box {modes.box!r} must have exactly one out port, "
                    f"has {len(outs)}"
                )
            else:
                elements = r.sets.get(outs[0].set_name, FinSet(()))
                for b in modes.blocks:
                    if b.label not in elements:
                        violations.append(
                            f"{_at(b.span)}mode {b.label!r} is not a position of "
                            f"box {modes.box!r}"
                        )
        for b in modes.blocks:
            for c in b.connects:
                violations.extend(
                    _reference_connect_problems(r, c, f" (mode {b.label})")
                )

    for m in spec.machines():
        if m.box not in r.boxes:
            violations.append(
                f"{_at(m.span)}machine bound to undeclared box {m.box!r}"
            )

    targets = []
    for name in r.box_order:
        targets.extend((name, p, True) for p in r.in_ports[name])
    if r.outer is not None:
        targets.extend((r.outer_name, p, False) for p in r.out_ports[r.outer_name])
    for label in _reference_mode_labels(r):
        conns = [
            c for c in _reference_connects_for(r, spec, label)
            if not _reference_connect_problems(r, c, "")
        ]
        suffix = f" in mode {label}" if label is not None else ""
        for owner, decl, is_inner in targets:
            port = decl.name
            drivers = [
                c for c in conns if c.dst_owner == owner and c.dst_port == port
            ]
            if len(drivers) > 1:
                violations.append(f"{_at(decl.span)}fan-in at {owner}.{port}{suffix}")
            elif not drivers:
                if is_inner and (owner, port) in r.defaults:
                    continue
                kind = "no driver or default" if is_inner else "no driver"
                violations.append(f"{_at(decl.span)}{kind} for {owner}.{port}{suffix}")

    return {"ok": not violations, "violations": violations}


def _text_mutants(text, rng):
    """Edits of a program's connect lines that parse still accepts: one
    dropped, one copied to another place (a mode block, say), one aimed
    at an undeclared port."""
    lines = text.split("\n")
    at = [j for j, line in enumerate(lines) if line.strip().startswith("connect")]
    if not at:
        return []
    drop, copy, aim = (rng.choice(at) for _ in range(3))
    where = rng.choice(at)
    return [
        lines[:drop] + lines[drop + 1:],
        lines[:where] + [lines[copy]] + lines[where:],
        lines[:aim] + [lines[aim].rsplit(".", 1)[0] + ".zz"] + lines[aim + 1:],
    ]


def _ast_mutants(spec):
    """Edits parse would refuse: every base connection stated twice, and
    the first mode block stated twice under its label."""
    modes = spec.modes()
    out = [WiringSpec(spec.statements + spec.connects())]
    if modes is not None:
        doubled = ModesDecl(modes.box, modes.blocks + modes.blocks[:1], modes.span)
        out.append(
            WiringSpec(tuple(doubled if s is modes else s for s in spec.statements))
        )
    return out


def _assert_same_report(spec):
    got = validate(spec)
    assert got == _reference_validate(spec)
    return got["violations"]


def test_validate_equals_the_reference_on_the_demos_and_random_specs():
    rng = random.Random(20261019)
    texts = [_read(name) for name in ("control.wd", "supplier.wd", "attach.wd")]
    texts += [print_spec(random_spec(rng)) for _ in range(200)]
    kinds = {"fan-in", "no driver", "undeclared port", " (mode ", " in mode "}
    seen = set()
    for text in texts:
        spec = parse(text)
        assert _assert_same_report(spec) == []
        specs = [parse("\n".join(lines)) for lines in _text_mutants(text, rng)]
        for mutant in specs + _ast_mutants(spec):
            for v in _assert_same_report(mutant):
                seen.update(kind for kind in kinds if kind in v)
    assert seen == kinds


def _switch_text(shifts=FORWARD_BACKWARD, boxes=3):
    return _switched_ring_text(*_switched_ring_tables(10, boxes, 2, shifts))


@pytest.mark.parametrize(
    "edit,expected",
    [
        # fan-in in mode f only
        (
            lambda t: t.replace("  mode f {\n", "  mode f {\n    connect M1.o -> M0.i\n"),
            ["line 4: fan-in at M0.i in mode f"],
        ),
        # a missing driver in mode r only
        (
            lambda t: t.replace("    connect M1.o -> M0.i\n", "", 1),
            ["line 4: no driver or default for M0.i in mode r"],
        ),
        # a mode block naming an undeclared port
        (
            lambda t: t.replace("  mode f {\n", "  mode f {\n    connect M0.o -> M1.zz\n"),
            ["line 16: undeclared port M1.zz (mode f)"],
        ),
        # a mode box with two out ports: only the base connections count
        (
            lambda t: t.replace("box Sw { out s : L;", "box Sw { out s : L; out t : L;"),
            ["line 14: mode box 'Sw' must have exactly one out port, has 2"]
            + [f"line {b + 4}: no driver or default for M{b}.i" for b in range(3)],
        ),
    ],
    ids=["fan-in", "missing-driver", "undeclared-port", "two-out-ports"],
)
def test_validate_equals_the_reference_on_one_mode_faults(edit, expected):
    assert _assert_same_report(parse(edit(_switch_text()))) == expected


def test_validate_checks_each_connection_statement_once(monkeypatch):
    # 128 modes of 16 boxes: 2048 mode connections and 18 base ones
    spec = parse(_switch_text(shifts={f"m{j}": j + 1 for j in range(128)}, boxes=16))
    statements = len(spec.connects()) + sum(len(b.connects) for b in spec.modes().blocks)
    calls = []
    checked = polydyn.wiring._connect_problems

    def counted(r, c):
        calls.append(c)
        return checked(r, c)

    monkeypatch.setattr(polydyn.wiring, "_connect_problems", counted)
    assert validate(spec)["ok"]
    assert len(calls) == len({id(c) for c in calls}) == statements == 2066


def test_compile_wiring_resolves_its_spec_once(monkeypatch):
    # compile_wiring reads its violations from the resolution it compiles
    # from; compile_system resolves once more, in compile_machines
    spec = parse(_read("control.wd"))
    resolved = []
    init = _Resolved.__init__

    def counted(self, spec):
        resolved.append(spec)
        init(self, spec)

    monkeypatch.setattr(_Resolved, "__init__", counted)
    compile_wiring(spec)
    assert len(resolved) == 1
    compile_system(spec)
    assert len(resolved) == 3
    # an invalid spec is refused with validate's first violation
    bad = parse(_read("control.wd").replace("connect Controller.b -> Plant.b", ""))
    first = validate(bad)["violations"][0]
    del resolved[:]
    with pytest.raises(ValueError) as info:
        compile_wiring(bad)
    assert str(info.value) == f"invalid wiring spec: {first}"
    assert len(resolved) == 1
