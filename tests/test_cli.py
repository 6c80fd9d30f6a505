import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from polydyn.cli import main
from polydyn.dynamics import run_closed, run_open, trace_to_csv, trace_to_json
from polydyn.wiring import compile_system, parse

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def _demo_system(name):
    return compile_system(parse((DEMOS / name).read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", ["control.wd", "supplier.wd", "attach.wd"])
def test_check_passes_the_demos(name, capsys):
    path = str(DEMOS / name)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == f"{path}: ok\n"


def test_check_prints_every_violation_and_fails(tmp_path, capsys):
    path = tmp_path / "bad.wd"
    path.write_text(
        "set A = {x}\nbox B { in i : A; }\nbox C { in j : A; }\nconnect B.i -> C.j\n"
    )
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{path}: line 4: connection source B.i must be a box out port",
        f"{path}: line 2: no driver or default for B.i",
        f"{path}: line 3: no driver or default for C.j",
    ]
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 3



def test_check_reports_machine_table_errors(tmp_path, capsys):
    path = tmp_path / "short.wd"
    path.write_text(
        "set S = {s, t}\nset X = {x, y}\nbox B { out o : S; in i : X; }\n"
        "default B.i = x\n"
        "machine B {\n  states = {s, t};\n  init = s;\n"
        "  readout s = (o = s)\n  readout t = (o = t)\n  update s (i = x) = t\n}\n"
    )
    error = (
        "line 5: machine 'B': missing update for ('t', 'x'); "
        "line 5: machine 'B': missing update for ('s', 'y'); "
        "line 5: machine 'B': missing update for ('t', 'y')"
    )
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == f"{path}: {error}\n"
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}: {error}\n"

def test_syntax_errors_go_to_stderr(tmp_path, capsys):
    path = tmp_path / "broken.wd"
    path.write_text("box {")
    assert main(["check", str(path)]) == 1
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("line 1") == 2


@pytest.mark.parametrize("command", ["check", "run"])
def test_a_file_that_is_not_utf8_is_reported_on_stderr(command, tmp_path, capsys):
    path = tmp_path / "latin1.wd"
    path.write_bytes("set A = {caf\u00e9}\n".encode("latin-1"))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}: ")
    assert "utf-8" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "run"])
def test_a_missing_file_is_reported_on_stderr(command, tmp_path, capsys):
    path = tmp_path / "absent.wd"
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}: ")
    assert "No such file" in captured.err and captured.err.count("\n") == 1


def test_run_feeds_stdin_to_an_open_system(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("a1 a0\n a1\n"))
    assert main(["run", str(DEMOS / "control.wd")]) == 0
    sys_, start = _demo_system("control.wd")
    want = trace_to_csv(run_open(sys_, ["a1", "a0", "a1"], start))
    assert capsys.readouterr().out == want
    assert len(want.splitlines()) == 5


@pytest.mark.parametrize("name", ["supplier.wd", "attach.wd"])
def test_run_steps_a_closed_system(name, capsys):
    assert main(["run", str(DEMOS / name), "--steps", "6"]) == 0
    sys_, start = _demo_system(name)
    want = trace_to_csv(run_closed(sys_, 6, start))
    assert capsys.readouterr().out == want
    assert len(want.splitlines()) == 8


@pytest.mark.parametrize("name", ["control.wd", "supplier.wd", "attach.wd"])
def test_run_json_prints_the_trace_as_one_document(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("a1 a0 a1 a1"))
    assert main(["run", str(DEMOS / name), "--steps", "6", "--json"]) == 0
    sys_, start = _demo_system(name)
    if name == "control.wd":
        want = trace_to_json(run_open(sys_, ["a1", "a0", "a1", "a1"], start))
    else:
        want = trace_to_json(run_closed(sys_, 6, start))
    out = capsys.readouterr().out
    assert json.loads(out) == want
    assert out.count("\n") == 1
    assert len(want["steps"]) == (5 if name == "control.wd" else 7)


def test_run_reports_an_illegal_input(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("a1 zz"))
    assert main(["run", str(DEMOS / "control.wd")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown input element 'zz'" in captured.err


def test_the_package_does_not_import_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys, polydyn, polydyn.wiring, polydyn.catalog\n"
        "print('polydyn.cli' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
