"""Guards against dead code: every module-level import in the package and
in its tests is referenced by the module that makes it, or exported in its
__all__, every private module-level name of the package (a `_x`
function, class or constant) is referenced somewhere in the package,
every public name of a module is reached by the package itself, not only
by the tests, and the package root binds no name: the modules are the
API."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "framekit"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_every_test_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = "import math\nimport numpy as np\nfrom x import y, z\n__all__ = ['z']\nnp.eye\n"
    assert unused_imports(source) == ["math (line 1)", "y (line 3)"]


def private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names
            if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def referenced_names(trees) -> set[str]:
    """Every name that one of ``trees`` loads, reads as an attribute or
    imports."""
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return referenced


def orphans(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private module-level name that no module
    of ``sources`` loads, reads as an attribute or imports."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced = referenced_names(trees.values())
    return [f"{module}:{name}" for module, tree in trees.items()
            for name in private_definitions(tree) if name not in referenced]


def test_every_private_name_is_used():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert orphans(sources) == []


def test_the_guard_sees_an_orphan():
    sources = {
        "a.py": "_LIMIT = 1\n_spare = 2\n__version__ = '1'\n"
                "def _helper():\n    return _LIMIT\n"
                "def _left_behind():\n    pass\nclass _Unused:\n    pass\n",
        "b.py": "from .a import _helper\n_helper()\n",
    }
    assert orphans(sources) == ["a.py:_spare", "a.py:_left_behind", "a.py:_Unused"]


def public_names(tree: ast.Module) -> list[str]:
    """The names a module lists in ``__all__``."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def unreached(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each ``__all__`` name of a module of ``sources``
    that no module loads, reads as an attribute or imports: a name that
    only the tests reach."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced = referenced_names(trees.values())
    return [f"{module}:{name}" for module, tree in trees.items()
            for name in public_names(tree) if name not in referenced]


def test_every_public_name_is_reached():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreached(sources) == []


def test_the_guard_sees_an_unreached_public_name():
    sources = {
        "a.py": "__all__ = ['shown', 'spare', 'LIMIT', 'used']\nLIMIT = 1\n"
                "def shown():\n    return LIMIT\ndef spare():\n    pass\n"
                "def used():\n    pass\n",
        "b.py": "from .a import shown\nimport a\na.used()\n",
    }
    assert unreached(sources) == ["a.py:spare"]


def test_oracles_import_no_checker():
    # the tests' oracles check the checkers, so they may not call them:
    # no framekit.theorems or framekit.instances
    tree = ast.parse((TESTS / "oracles.py").read_text())
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    framekit = {m for m in modules if m.split(".")[0] == "framekit"}
    assert framekit <= {"framekit.errors", "framekit.frame_core", "framekit.numerics"}


def test_checkers_import_no_random_streams():
    # every hypothesis is decided by a certificate or a witness vector,
    # never on seeded random vectors
    tree = ast.parse((PACKAGE / "theorems.py").read_text())
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    assert not any(m and m.split(".")[-1] == "_rng" for m in modules)


def private_imports(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private name that a module of ``sources``
    imports from the package, by a relative or a ``framekit`` import."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").split(".")[0] == "framekit")):
                found += [f"{module}:{alias.name}" for alias in node.names
                          if alias.name.startswith("_")
                          and not alias.name.startswith("__")]
    return found


def test_only_the_certificate_is_imported_privately():
    # a hypothesis decides and refutes from its own pencil; a second
    # closed form reached through a private import would duplicate it
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert private_imports(sources) == ["theorems.py:_certify_psd_scale"]


def test_the_guard_sees_a_private_import():
    sources = {
        "a.py": "from .b import _closed, shared\nfrom numpy import _private\n"
                "from __future__ import annotations\n",
        "b.py": "from . import _rng\nfrom framekit.a import _helper\n"
                "def f():\n    from .a import _late\n",
    }
    assert private_imports(sources) == [
        "a.py:_closed", "b.py:_rng", "b.py:_helper", "b.py:_late"]


def root_bindings(source: str) -> list[str]:
    """Every statement of a package root but its docstring, by line: each
    imports, assigns or defines a name."""
    body = ast.parse(source).body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return [f"line {node.lineno}" for node in body]


def test_the_package_root_binds_no_name():
    # `from framekit import X` re-exported names no caller used; every
    # caller imports the module that defines X
    assert root_bindings((PACKAGE / "__init__.py").read_text()) == []


def test_the_guard_sees_a_root_binding():
    source = '"""Docs."""\nfrom .a import b\n__version__ = "1"\n'
    assert root_bindings(source) == ["line 2", "line 3"]
    assert root_bindings('"""Docs only."""\n') == []
