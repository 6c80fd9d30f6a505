"""Static checks on the package source."""

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polydyn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # a name listed in __all__ is re-exported, which is a use
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []



# requires-python in pyproject.toml; CI runs this oldest version too
OLDEST_PYTHON = (3, 10)
ROOT = SRC.parent.parent
PYTHON_FILES = sorted(
    path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")
)


def test_requires_python_is_the_oldest_version_parsed():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=%d.%d"' % OLDEST_PYTHON in text


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_file_parses_as_the_oldest_supported_python(path):
    # feature_version rejects syntax newer than that version, so a file
    # that needs a newer interpreter fails here and not only on its CI leg
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST_PYTHON)


def test_every_private_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    orphans = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert orphans == []


# The private helpers of core's label codec.  _table_labels is not among
# them: poly_compose builds its positions with it.
LABEL_CODEC_HELPERS = ("_NEEDS_PREFIX", "_RUN_END", "_part", "_read_part", "_split_top")


def _imported_or_attribute_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def test_only_core_imports_the_label_escape_helpers():
    # The label format lives in core; other modules go through its encoders
    # and decoders.
    core = importlib.import_module("polydyn.core")
    assert all(hasattr(core, name) for name in LABEL_CODEC_HELPERS)
    leaks = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "core.py"
        for line, name in _imported_or_attribute_names(ast.parse(path.read_text(encoding="utf-8")))
        if name in LABEL_CODEC_HELPERS
    ]
    assert leaks == []


def test_no_package_module_reads_finpoly_positions():
    # FinPoly.positions builds a fresh tuple on each access; package code
    # reads the label → directions dict through _dirs, position_labels and
    # directions() instead.  The property's own definition is not a read.
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "positions"
    ]
    assert reads == []


def test_every_console_script_resolves_to_a_callable():
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    pyproject = SRC.parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_importing_the_entry_points_loads_no_cold_module():
    # algebra's cold half (polydyn._structure), dataclasses and csv are
    # loaded only by a call that needs them
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "import polydyn.cli, polydyn.catalog, polydyn.comonoid\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('polydyn'))))\n"
        "print('dataclasses' in sys.modules, 'csv' in sys.modules)\n"
    )
    # -I: no environment variables or user site-packages to import extras;
    # -B: no bytecode written into the checkout
    out = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[0].split() == [
        "polydyn",
        "polydyn.algebra",
        "polydyn.catalog",
        "polydyn.cli",
        "polydyn.comonoid",
        "polydyn.core",
        "polydyn.dynamics",
        "polydyn.wiring",
    ]
    assert out[1] == "False False"


def _unbound_global_reads(source: str, filename: str) -> list[str]:
    import builtins
    import symtable

    top = symtable.symtable(source, filename, "exec")
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    found = []

    def walk(table):
        for child in table.get_children():
            if child.get_type() != "class":  # a class body runs at import
                found.extend(
                    f"{child.get_name()}:{child.get_lineno()} {s.get_name()}"
                    for s in child.get_symbols()
                    if s.is_global()
                    and s.is_referenced()
                    and s.get_name() not in bound
                    and not hasattr(builtins, s.get_name())
                )
            walk(child)

    walk(top)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_global_a_function_reads_is_bound_at_import(path):
    # A name a module loads on first use (core._lazy_names) reaches its
    # globals only after some caller read it from outside: a module
    # __getattr__ never serves a bare global read inside a function, so a
    # function that reads such a name, or one imported from another
    # module's lazy table, imports it where it calls it.
    assert _unbound_global_reads(path.read_text(encoding="utf-8"), str(path)) == []


def test_only_the_lazy_name_helper_defines_a_module_getattr():
    hooks = [
        f"{path.name} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in ("__getattr__", "__dir__")
    ]
    assert hooks == ["core.py __getattr__", "core.py __dir__"]


def _calls(node, cls=None, fn=None):
    """(class, function, call) for each call under node, with the class
    and the function it is made in (None outside one)."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        fn = node.name
    elif isinstance(node, ast.Call):
        yield cls, fn, node
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, cls, fn)


def test_a_fincat_and_a_core_are_built_in_one_place_each():
    # Every FinCat holds its core from construction: one built on a core
    # goes through FinCat._on_core, and cores are made only where the
    # category and comonoid code or the catalog's search build them.
    fincats, cores = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for cls, fn, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            name = ast.unparse(call.func)
            if name.endswith("__new__") and call.args:
                built = ast.unparse(call.args[0])
                if built == "FinCat" or (cls == "FinCat" and built == "cls"):
                    fincats.add(f"{path.name} {cls}.{fn}")
            if name.split(".")[-1] == "_Core":
                cores.add(path.name)
    assert fincats == {"comonoid.py FinCat._on_core"}
    assert cores == {"comonoid.py", "catalog.py"}


def test_a_fincat_keeps_no_label_table():
    # dom_of, cod_of, out, identity and the composition table are read from
    # the core on every access: no slot of FinCat holds one, and none is a
    # table kept on first read (_derived)
    from polydyn.comonoid import FinCat

    tables = {"dom_of", "cod_of", "out", "identity", "compose", "composites", "outgoing", "table"}
    assert not {slot.strip("_") for slot in FinCat.__slots__} & tables
    tree = ast.parse((SRC / "comonoid.py").read_text(encoding="utf-8"))
    fincat = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FinCat")
    derived = [
        node.targets[0].id
        for node in fincat.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "_derived"
    ]
    assert "_names" in derived
    assert not {name.strip("_") for name in derived} & tables


def test_each_modes_drivers_are_resolved_in_one_place():
    # _Resolved.__init__ checks each connection statement once and builds
    # the per-mode driver tables, keyed by a connection's target; validate
    # and compile_wiring read them, and only the check itself reads targets
    tree = ast.parse((SRC / "wiring.py").read_text(encoding="utf-8"))
    checks, targets = set(), set()

    def walk(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "_connect_problems":
            checks.add(where)
        elif isinstance(node, ast.Attribute) and node.attr in ("dst_owner", "dst_port"):
            targets.add(where)
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(tree, "")
    assert checks == {"_Resolved.__init__"}
    assert targets == {"_Resolved.__init__", "_connect_problems"}


def test_the_cold_comonoid_checks_compose_no_labels():
    # check_cofunctor and check_comonoid_morphism read the comonoids'
    # tables through one walk (_square_cells); nothing in their module
    # composes labels through FinCat.compose2
    tree = ast.parse((SRC / "_comonoid_cold.py").read_text(encoding="utf-8"))
    calls = [
        f"{fn} line {call.lineno}"
        for _, fn, call in _calls(tree)
        if ast.unparse(call.func).split(".")[-1] == "compose2"
    ]
    assert calls == []


def test_only_algebra_writes_and_reads_compose_positions():
    # a p∘q position "(i,[d:v,...])" is written by algebra._compose_label
    # and read back by algebra._split_compose, which calls split_fn as a
    # global of algebra, where the benchmark's tracer records it.  Apart
    # from the codec itself, only adjunction_suite calls split_fn, on
    # global sections.
    writers, readers = [], []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.name} {getattr(top, 'name', None)}"
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = ast.unparse(node.func)
                if name == "pair_label" and any(
                    isinstance(arg, ast.Call) and ast.unparse(arg.func) == "fn_label"
                    for arg in node.args
                ):
                    writers.append(where)
                elif name == "split_fn":
                    readers.append(where)
    assert writers == ["algebra.py _compose_label"]
    assert readers == ["_structure.py adjunction_suite", "algebra.py _split_compose"]


def test_unroll_and_nstep_behavior_share_one_recursion():
    # both build observation trees through _observations, memoised per
    # (state, depth); neither keeps a recursion of its own
    found = {}
    for name, module in (("unroll", "_dynamics_cold.py"), ("nstep_behavior", "_comonoid_cold.py")):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
        nested = [
            n.name for n in ast.walk(fn)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n is not fn
        ]
        called = {ast.unparse(call.func) for _, _, call in _calls(fn)}
        found[name] = (nested, "_observations" in called)
    assert found == {"unroll": ([], True), "nstep_behavior": ([], True)}
    defined = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_observations"
    ]
    assert defined == ["_comonoid_cold.py"]


def test_every_history_is_folded_by_the_run_loop():
    # run_open, run_closed, step and trace_history run through _run; no
    # other function of the dynamics modules reads a state comonoid's
    # composite or codomain table, or the interface's direction sets, so
    # none keeps a lookup or a legality check of its own
    read = (".composite", "state.codomain", "interface._dirs", "interface.directions")
    readers, defined = set(), []
    for module in ("dynamics.py", "_dynamics_cold.py"):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and ast.unparse(node).endswith(read):
                    readers.add(f"{module} {getattr(top, 'name', None)}")
                elif isinstance(node, ast.FunctionDef) and node.name == "_pull_direction":
                    defined.append(module)
    assert readers == {"dynamics.py _run"}
    assert defined == []


def test_each_job_has_one_helper():
    # argument types are refused through core._require, and Moore machines
    # are built from their tables by dynamics alone (MooreMachine.from_tables)
    requires, int_raises, machines = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        requires += [
            path.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_require"
        ]
        int_raises += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and "must be an int" in ast.unparse(node)
        ]
        machines += [
            f"{path.name}:{call.lineno} {fn}"
            for _, fn, call in _calls(tree)
            if path.name != "dynamics.py"
            and ast.unparse(call.func) in ("MooreMachine", "input_state_pairs")
        ]
    assert requires == ["core.py"]
    assert int_raises == []
    assert machines == []


def test_every_kept_hash_is_left_out_of_pickles():
    # a hash of string labels kept in one process is stale in another, so
    # every class that keeps one in _hash says what it pickles
    keepers, unguarded = [], []
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            if any(
                isinstance(n, ast.Attribute) and n.attr == "_hash" and isinstance(n.ctx, ast.Store)
                for n in ast.walk(cls)
            ):
                keepers.append(cls.name)
                methods = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
                if not methods & {"__reduce__", "__getstate__"}:
                    unguarded.append(f"{path.name} {cls.name}")
    assert {"FinPoly", "StrategyTree"} <= set(keepers)
    assert unguarded == []


def test_no_strategy_tree_reader_recurses():
    # the exports, pickle and deepcopy read StrategyTree._nodes; no function
    # of the module calls itself or keeps a nested walk
    tree = ast.parse((SRC / "_dynamics_cold.py").read_text(encoding="utf-8"))
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            found += [
                f"{fn.name} nests {n.name}"
                for n in ast.walk(fn)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n is not fn
            ]
            called = {ast.unparse(call.func).split(".")[-1] for _, _, call in _calls(fn)}
            found += [f"{fn.name} calls itself"] * (fn.name in called)
    assert found == []


def _fresh(code: str, *args: str, stdin: str = "") -> str:
    # -I: no environment variables or user site-packages; -B: no bytecode
    # written into the checkout
    prelude = f"import sys\nsys.path.insert(0, {str(SRC.parent)!r})\n"
    return subprocess.run(
        [sys.executable, "-I", "-B", "-c", prelude + code, *args],
        input=stdin, capture_output=True, text=True, check=True,
    ).stdout


# Each runs in a fresh interpreter, where no earlier call has loaded a
# cold module that the code under test needs.
SMOKE = {
    "public Comonoid constructor": (
        "from polydyn.core import FinSet\n"
        "from polydyn.comonoid import Comonoid, contractible\n"
        "c = contractible(FinSet(('a', 'b')))\n"
        "print(Comonoid(c.carrier, c.counit, c.comult) == c)\n"
    ),
    "counit of a comonoid built from tables": (
        "from polydyn.core import FinPoly, FinSet\n"
        "from polydyn.comonoid import Comonoid\n"
        "dirs = FinSet(('1', 'x'))\n"
        "comp = {('1', '1'): '1', ('1', 'x'): 'x', ('x', '1'): 'x', ('x', 'x'): '1'}\n"
        "c = Comonoid._from_tables(FinPoly([('p', dirs)]), {'p': '1'},\n"
        "                          {'p': {'1': 'p', 'x': 'p'}}, {'p': comp})\n"
        "print(c.counit.on_dir == {'p': {'*': '1'}})\n"
    ),
    "comonoid_from_json": (
        "import json\n"
        "from polydyn.comonoid import comonoid_from_json\n"
        "data = {'carrier': {'positions': [{'label': 'a', 'dirs': ['*']}]},\n"
        "        'counit': {'dom': {'positions': [{'label': 'a', 'dirs': ['*']}]},\n"
        "                   'cod': {'positions': [{'label': '*', 'dirs': ['*']}]},\n"
        "                   'onPos': {'a': '*'}, 'onDir': {'a': {'*': '*'}}},\n"
        "        'comult': {'dom': {'positions': [{'label': 'a', 'dirs': ['*']}]},\n"
        "                   'cod': {'positions': [{'label': '(a,[*:a])', 'dirs': ['(*,*)']}]},\n"
        "                   'onPos': {'a': '(a,[*:a])'}, 'onDir': {'a': {'(*,*)': '*'}}}}\n"
        "print(comonoid_from_json(json.loads(json.dumps(data))).identity == {'a': '*'})\n"
    ),
}


@pytest.mark.parametrize("case", sorted(SMOKE))
def test_cold_paths_run_in_a_fresh_interpreter(case):
    assert _fresh(SMOKE[case]) == "True\n"


def test_run_json_runs_in_a_fresh_interpreter():
    demo = SRC.parent.parent / "demos" / "control.wd"
    out = _fresh("from polydyn.cli import main\nsys.exit(main(sys.argv[1:]))\n",
                 "run", str(demo), "--json", stdin="a0 a1 a0\n")
    trace = json.loads(out)
    assert [step["direction"] for step in trace["steps"]] == ["a0", "a1", "a0", None]
