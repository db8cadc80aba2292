"""Every imported name is read in its file, in the package and the tests.

A name counts as read when the file loads it somewhere (a call, an
attribute base, an annotation). Names listed in the file's ``__all__``,
``from __future__`` imports and import statements whose first line carries
``# noqa: F401`` (a re-export that another module binds) are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "qtperm").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each imported name the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exempt = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exempt |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exempt:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom re import match, sub\n"
                          "sub('a', 'b', 'c')\n") == ["1: os", "2: match"]
    assert unused_imports("import os.path\n__all__ = ['x']\nfrom y import x\n"
                          "import z  # noqa: F401  bound elsewhere\n"
                          "os.path.join('a')\n") == []


@pytest.mark.parametrize("path", FILES,
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
