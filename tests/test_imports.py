import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "specrad"


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never reads; ``from __future__``
    imports are exempt."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_src_modules_use_every_name_they_import():
    """Every ``src/specrad`` module but ``__init__`` (which re-exports) reads
    each name it imports."""
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(ast.parse(p.read_text(encoding="utf-8")))
              for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_import_scan_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import itertools\nimport os.path\nfrom math import inf as INF, pi\n"
                     "x = pi + os.path.sep\n")
    assert _unused_imports(tree) == ["itertools (line 2)", "INF (line 4)"]
