"""Every module-level import in the package and the scripts is read.

An import left behind when the code that used it goes still costs its
load time and misleads the reader about what a module depends on. A name
counts as read when some expression loads it, or when the module lists
it in ``__all__``.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(
    glob.glob(os.path.join(ROOT, "src", "relaystream", "*.py"))
    + glob.glob(os.path.join(ROOT, "scripts", "*.py"))
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
