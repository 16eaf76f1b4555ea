"""The package's lazy public API: each name loads its home module on first use and is that module's object."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import torusbundles
import torusbundles.bundle
import torusbundles.classify

from support import fresh_python


@pytest.mark.parametrize("name", torusbundles.__all__)
def test_every_public_name_is_its_home_modules_object(name):
    value = getattr(torusbundles, name)
    assert value is getattr(sys.modules[value.__module__], name)
    assert vars(torusbundles)[name] is value  # cached after the first access


def test_star_import_binds_exactly_all_and_dir_covers_it():
    namespace: dict = {}
    exec("from torusbundles import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(torusbundles.__all__)
    assert set(torusbundles.__all__) <= set(dir(torusbundles))


def test_an_unknown_name_raises_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        torusbundles.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from torusbundles import no_such_name", {})


def test_a_bare_import_reaches_a_submodule_and_loads_a_name_on_first_use():
    code = (
        "import sys, torusbundles\n"
        "before = 'torusbundles.bundle' in sys.modules\n"
        "print(before, torusbundles.swcalc.__name__, torusbundles.parse_bundle.__module__)"
    )
    assert fresh_python(code).split() == ["False", "torusbundles.swcalc", "torusbundles.bundle"]


def test_the_moved_errors_keep_their_bases_and_every_import_path():
    assert issubclass(torusbundles.ValidationError, ValueError)
    assert issubclass(torusbundles.InternalInconsistencyError, RuntimeError)
    assert torusbundles.bundle.ValidationError is torusbundles.ValidationError
    assert torusbundles.classify.InternalInconsistencyError is torusbundles.InternalInconsistencyError
    assert torusbundles.bundle.require_genus is torusbundles._record.require_genus


def test_every_name_the_benchmark_worker_imports_from_the_package_resolves():
    # read, not imported: the worker times its own import of the package at module level
    worker = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(worker.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "torusbundles"
        for alias in node.names
    ]
    assert ("torusbundles", "integer_kernel") in imported
    missing = [f"{module}.{name}" for module, name in imported if not hasattr(importlib.import_module(module), name)]
    assert missing == []


# public names that no package module, benchmark op or acceptance test reads, each with the reason it stays
UNREAD_PUBLIC_NAMES = {
    "sw4_zero_gcd": "the O(g) degree-zero form that ROADMAP item 3 wires into sw4_zero_coset above a budget",
}


def test_every_public_name_is_read_by_the_package_the_benchmark_or_the_acceptance_suite():
    # a name counts where it appears as a Name, an Attribute or an import alias, outside its own definition;
    # a name only other tests read belongs in tests/support.py
    root = Path(__file__).resolve().parent.parent
    package = [p for p in (root / "src" / "torusbundles").glob("*.py") if p.name != "__init__.py"]
    readers = (*package, root / "perfbench" / "worker.py", root / "tests" / "test_acceptance.py")
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    reads = set()  # (name, file stem, enclosing top-level definition)
    for path in readers:
        for top in ast.parse(path.read_text()).body:
            reads |= {
                (getattr(node, field[type(node)]), path.stem, getattr(top, "name", None))
                for node in ast.walk(top)
                if type(node) in field
            }

    def is_read(name):
        home = getattr(torusbundles, name).__module__.rpartition(".")[2]
        return any(n == name and (stem, owner) != (home, name) for n, stem, owner in reads)

    unread = {name for name in torusbundles.__all__ if not is_read(name)}
    assert unread == set(UNREAD_PUBLIC_NAMES)
