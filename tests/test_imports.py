import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "specrad"


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


def _unused_by_file(files) -> dict[str, list[str]]:
    """``_unused_imports`` of each file that has any, keyed by its path."""
    assert files
    unused = {p.relative_to(ROOT).as_posix(): _unused_imports(ast.parse(p.read_text("utf-8")))
              for p in files}
    return {name: names for name, names in unused.items() if names}


def test_src_modules_use_every_name_they_import():
    """Every ``src/specrad`` module but ``__init__`` (which re-exports) reads
    each name it imports."""
    assert _unused_by_file(sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")) == {}


def test_tests_and_tools_use_every_name_they_import():
    """Every ``tests/*.py`` and ``tools/*.py`` file reads each name it
    imports."""
    assert _unused_by_file(sorted([*(ROOT / "tests").glob("*.py"),
                                   *(ROOT / "tools").glob("*.py")])) == {}


def test_the_import_scan_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import itertools\nimport os.path\nfrom math import inf as INF, pi\n"
                     "x = pi + os.path.sep\n")
    assert _unused_imports(tree) == ["itertools (line 2)", "INF (line 4)"]
