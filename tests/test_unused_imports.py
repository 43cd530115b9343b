"""Every module-level import in the package and the scripts is read, and
every function, method and class the package defines is named elsewhere.

An import left behind when the code that used it goes still costs its
load time and misleads the reader about what a module depends on. A name
counts as read when some expression loads it, or when the module lists
it in ``__all__``. A definition left behind when its last caller goes is
dead code: its name then appears nowhere but in its own definition, in
no expression, attribute, import or string of the package, the scripts,
the tests or the benchmark. Dunder names are called by Python itself.
A module-level name the package assigns (a constant, a sentinel, a
table) is dead once nothing loads it: no expression reads it as a name or
an attribute, and no string names it. Dunders such as ``__all__`` are
read by Python itself.
"""

import ast
import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "relaystream", "*.py")))
SOURCES = PACKAGE + sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))
READERS = SOURCES + sorted(
    glob.glob(os.path.join(ROOT, "tests", "*.py")) + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_finds_an_unused_import():
    source = "import itertools\nimport sys\nfrom typing import Optional\n\nprint(sys.argv)\n"
    assert unused_imports(source) == ["line 1: itertools", "line 3: Optional"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: os.path.relpath(p, ROOT))
def test_module_imports_are_all_read(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def named(source: str, loads: bool = False) -> set[str]:
    """Every name some expression, attribute, import or string other than
    a docstring uses; with ``loads``, only names and attributes read, not
    assigned, and strings."""
    tree = ast.parse(source)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes) and ast.get_docstring(node)
    }
    names = set()
    for node in ast.walk(tree):
        if id(node) in docstrings or loads and isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and not loads:
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    return names


def dead_definitions(definers: dict[str, str], readers: list[str]) -> list[str]:
    """Functions, methods and classes of the definers, by file, whose name
    no reader uses."""
    used = set().union(*map(named, readers))
    dead = []
    for path, source in definers.items():
        for node in ast.walk(ast.parse(source)):
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if defines and not re.fullmatch(r"__\w+__", node.name) and node.name not in used:
                dead.append((path, node.lineno, node.name))
    return [f"{path} line {line}: {name}" for path, line, name in sorted(dead)]


def test_finds_a_dead_definition():
    source = (
        "class Used:\n    def __init__(self):\n        pass\n\n    def unused(self):\n        pass\n\n"
        "def helper():\n    pass\n\ndef called_by_name():\n    pass\n"
    )
    reader = '"""helper is named here, in a docstring only."""\nUsed()\ngetattr(m, "called_by_name")\n'
    dead = dead_definitions({"m.py": source}, [source, reader])
    assert dead == ["m.py line 5: unused", "m.py line 8: helper"]


def package_and_readers() -> tuple[dict[str, str], list[str]]:
    """The package's sources by path, and every reader's source."""
    sources = {}
    for path in READERS:
        with open(path) as fh:
            sources[os.path.relpath(path, ROOT)] = fh.read()
    package = {os.path.relpath(path, ROOT) for path in PACKAGE}
    return {path: source for path, source in sources.items() if path in package}, list(sources.values())


def test_every_package_definition_is_named_elsewhere():
    assert dead_definitions(*package_and_readers()) == []


def dead_assignments(definers: dict[str, str], readers: list[str]) -> list[str]:
    """Module-level names the definers assign, by file, that no reader
    loads."""
    read = set().union(*(named(source, loads=True) for source in readers))
    dead = []
    for path, source in definers.items():
        assigns = (ast.Assign, ast.AnnAssign, ast.AugAssign)
        for node in ast.parse(source).body:
            for name in ast.walk(node) if isinstance(node, assigns) else ():
                stored = isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                if stored and not re.fullmatch(r"__\w+__", name.id) and name.id not in read:
                    dead.append((path, node.lineno, name.id))
    return [f"{path} line {line}: {name}" for path, line, name in sorted(dead)]


def test_finds_a_dead_assignment():
    source = (
        "__all__ = []\nLIMIT = 3\n_SENTINEL: dict = {}\nA, B = 1, 2\nTABLE = {}\n"
        "def f():\n    return LIMIT + A\n"
    )
    reader = '"""_SENTINEL and B are named here, in a docstring only."""\nm.TABLE.clear()\n'
    dead = dead_assignments({"m.py": source}, [source, reader])
    assert dead == ["m.py line 3: _SENTINEL", "m.py line 4: B"]


def test_every_package_assignment_is_read():
    assert dead_assignments(*package_and_readers()) == []
