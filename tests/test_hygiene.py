"""Source hygiene.

No module of src, scripts or tests imports a name it never uses.  A name
listed in the module's `__all__` counts as used; an import line marked
`# noqa: F401` is kept on purpose (the line's comment says why).

Every function, class and method defined under src, dunders aside, is read
by name somewhere in src or scripts, and so is every field of a dataclass
under src, as an attribute, and every module-level constant assigned under
src.  A definition only the tests read is test-only API and goes, and so does
a field or a constant that is written and never read.  A function decorated
by a call to `check` is read by the check registry it is registered in."""

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


def _decorator_name(dec):
    """The name a decorator, called or bare, plain or dotted, looks up."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def _registered_check(node) -> bool:
    """Decorated by a call to `check`, which registers the function."""
    return any(isinstance(d, ast.Call) and _decorator_name(d) == "check" for d in node.decorator_list)


def unreferenced_definitions(defining: dict, others=()) -> list:
    """(label, line, name) of every non-dunder function, class and method of
    the `defining` sources ({label: text}) whose name no source, of those or
    of the `others` texts, reads as a variable or an attribute.  A function
    decorated by a call to `check` counts as read: the registry reads it."""
    read = set()
    found = []
    for label, text in [*defining.items(), *((None, t) for t in others)]:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif label is not None and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and not _registered_check(node):
                    found.append((label, node.lineno, node.name))
    return sorted(d for d in found if d[2] not in read)


def test_definition_scanner_flags_what_nothing_reads():
    defining = {
        "m.py": (
            "class Kept:\n"
            "    def used(self):\n"
            "        return self.helper()\n"
            "    def helper(self):\n"
            "        pass\n"
            "    def __repr__(self):\n"
            "        return ''\n"
            "    def dropped(self):\n"
            "        pass\n"
            "def orphan():\n"
            "    pass\n"
            "def called_elsewhere():\n"
            "    pass\n"
            "@check('x')\n"
            "def registered():\n"
            "    pass\n"
            "@verify.check('y_{}', (1,))\n"
            "def registered_dotted(n):\n"
            "    pass\n"
            "@other('z')\n"
            "def decorated_otherwise():\n"
            "    pass\n"
            "@check\n"
            "def bare_check():\n"
            "    pass\n"
        ),
    }
    others = ["from m import Kept, orphan\nKept().used()\nm.called_elsewhere()\n"]
    assert unreferenced_definitions(defining, others) == [
        ("m.py", 8, "dropped"),
        ("m.py", 10, "orphan"),
        ("m.py", 21, "decorated_otherwise"),
        ("m.py", 24, "bare_check"),
    ]


def test_every_src_definition_is_read_by_src_or_scripts():
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    others = [p.read_text() for p in sorted((ROOT / "scripts").rglob("*.py"))]
    assert unreferenced_definitions(defining, others) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_decorator_name(dec) == "dataclass" for dec in node.decorator_list)


def unread_dataclass_fields(defining: dict, others=()) -> list:
    """(label, class, field) of every field of a dataclass of the `defining`
    sources ({label: text}) that no source, of those or of the `others`
    texts, reads as an attribute."""
    read = set()
    found = []
    for label, text in [*defining.items(), *((None, t) for t in others)]:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif label is not None and isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [
                    (label, node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    return sorted(d for d in found if d[2] not in read)


def test_field_scanner_flags_a_field_that_is_only_written():
    defining = {
        "m.py": (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class A:\n"
            "    kept: int\n"
            "    written: int\n"
            "    unread: list = field(default_factory=list)\n"
            "@dataclasses.dataclass\n"
            "class B:\n"
            "    other: int\n"
            "class NotData:\n"
            "    ignored: int\n"
            "a = A(1, 2)\n"
            "a.written = 3\n"
        ),
    }
    others = ["print(a.kept, unread, other)\n"]
    assert unread_dataclass_fields(defining, others) == [
        ("m.py", "A", "unread"),
        ("m.py", "A", "written"),
        ("m.py", "B", "other"),
    ]


def test_every_src_dataclass_field_is_read_by_src_or_scripts():
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    others = [p.read_text() for p in sorted((ROOT / "scripts").rglob("*.py"))]
    assert unread_dataclass_fields(defining, others) == []


def _assigned_names(stmt) -> list:
    """Names a module-level assignment binds, tuple targets unpacked."""
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    names = []
    for target in targets:
        nodes = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [n.id for n in nodes if isinstance(n, ast.Name)]
    return names


def unread_module_constants(defining: dict, others=()) -> list:
    """(label, line, name) of every non-dunder name assigned at the top level
    of the `defining` sources ({label: text}) that no source, of those or of
    the `others` texts, reads as a variable or an attribute."""
    read = set()
    found = []
    for label, text in [*defining.items(), *((None, t) for t in others)]:
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        if label is not None:
            found += [
                (label, stmt.lineno, name)
                for stmt in tree.body
                if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                for name in _assigned_names(stmt)
                if not (name.startswith("__") and name.endswith("__"))
            ]
    return sorted(d for d in found if d[2] not in read)


def test_constant_scanner_flags_a_constant_nothing_reads():
    defining = {
        "m.py": (
            "KEPT = 1\n"
            "SPARE = 2\n"
            "LOW, HIGH = 3, 4\n"
            "TYPED: int = 5\n"
            "__version__ = '1'\n"
            "TABLE = {}\n"
            "TABLE[1] = KEPT\n"
            "def f():\n"
            "    LOCAL = 6\n"
            "    return LOCAL + LOW\n"
        ),
    }
    others = ["import m\nprint(m.TYPED)\nSPARE = 7\n"]
    assert unread_module_constants(defining, others) == [
        ("m.py", 2, "SPARE"),
        ("m.py", 3, "HIGH"),
    ]


def test_every_src_constant_is_read_by_src_or_scripts():
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    others = [p.read_text() for p in sorted((ROOT / "scripts").rglob("*.py"))]
    assert unread_module_constants(defining, others) == []
