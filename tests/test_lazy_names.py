"""The names each module loads on first use, through core._lazy_names."""

import ast
import importlib
import inspect

import pytest

from polydyn import core

# (module, its table of lazy names, the module those names are read from)
LAZY = [
    ("polydyn", "_CORE_NAMES", "polydyn.core"),
    ("polydyn.core", "_COLD_NAMES", "polydyn._core_cold"),
    ("polydyn.algebra", "_STRUCTURE_NAMES", "polydyn._structure"),
    ("polydyn.comonoid", "_COLD_NAMES", "polydyn._comonoid_cold"),
    ("polydyn.dynamics", "_COLD_NAMES", "polydyn._dynamics_cold"),
    ("polydyn.wiring", "_COLD_NAMES", "polydyn._wiring_cold"),
]
IDS = [name for name, _, _ in LAZY]


def _top_level_definitions(module) -> set:
    defined = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return defined


@pytest.mark.parametrize("name, table, source", LAZY, ids=IDS)
def test_lazy_table_is_what_the_source_defines(name, table, source):
    module = importlib.import_module(name)
    names = getattr(module, table)
    cold = importlib.import_module(source)
    if name == "polydyn":
        # the package re-exports the lazy part of core's public names
        assert names == set(module.__all__) & core._COLD_NAMES
    else:
        assert names == _top_level_definitions(cold)
    assert all(getattr(module, lazy) is getattr(cold, lazy) for lazy in names)


@pytest.mark.parametrize("name", IDS)
def test_every_public_name_resolves_once(name):
    module = importlib.import_module(name)
    for public in module.__all__:
        first = getattr(module, public)
        assert getattr(module, public) is first, public


@pytest.mark.parametrize("name", IDS)
def test_star_import_binds_every_public_name(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
    assert all(namespace[public] is getattr(module, public) for public in module.__all__)


@pytest.mark.parametrize("name, table, source", LAZY, ids=IDS)
def test_unknown_names_are_missing(name, table, source):
    module = importlib.import_module(name)
    assert not hasattr(module, "no_such_name")
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'no_such_name'"):
        module.no_such_name
    assert set(module.__all__) | getattr(module, table) <= set(dir(module))


def test_one_helper_serves_every_module():
    for name, _, _ in LAZY:
        hook = importlib.import_module(name).__getattr__
        assert hook.__qualname__ == "_lazy_names.<locals>.__getattr__", name

