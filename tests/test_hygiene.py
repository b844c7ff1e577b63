"""Source hygiene: no module of src, scripts or tests imports a name it never
uses.  A name listed in the module's `__all__` counts as used; an import line
marked `# noqa: F401` is kept on purpose (the line's comment says why)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            bound = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, bound))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [(line, name) for line, name in imported if name not in used]


def test_scanner_flags_an_unused_import_and_honours_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import a.b\n"
        "from m import kept, dropped\n"
        "from m import traced  # noqa: F401\n"
        "from m import exported\n"
        "__all__ = ['exported']\n"
        "a.b.c(kept)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dropped")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
