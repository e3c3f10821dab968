import ast
from collections import Counter
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


def _reads(node: ast.AST) -> Counter:
    """How many times each name is read as a plain name under ``node``."""
    return Counter(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and classes of the modules (path
    -> source) that nothing names outside their own definition: not their
    own module as a plain name, and no module as an attribute or as a name
    imported from theirs.  A recursive call lies inside the definition, a
    docstring's mention is no name, and a live helper of the same name in
    another module keeps no definition alive."""
    trees = {Path(path): ast.parse(source) for path, source in sources.items()}
    outside = Counter()  # (module, name) imported from it; (None, name) read as an attribute
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").rpartition(".")[2]
                outside.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                outside[None, node.attr] += 1
    dead = []
    for path, tree in trees.items():
        reads = _reads(tree)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and reads[node.name] == _reads(node)[node.name]
                    and not outside[path.stem, node.name] and not outside[None, node.name]):
                dead.append(f"{path.as_posix()}: {node.name} (line {node.lineno})")
    return dead


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


def test_every_private_src_definition_is_named_elsewhere():
    """Every private module-level function and class of ``src/specrad`` is
    named in ``src/`` outside its own definition, so a helper that lost its
    last caller goes with it."""
    files = sorted(SRC.glob("*.py"))
    assert files
    assert _unreferenced_private_names(
        {p.relative_to(ROOT).as_posix(): p.read_text("utf-8") for p in files}) == []


def test_the_private_name_scan_finds_an_unreferenced_definition():
    sources = {
        "a.py": ('"""``_gone`` is only mentioned here."""\n'
                 "import b\nfrom b import _imported\n"
                 "def _used():\n    return b._attr() + _imported() + _shared()\n"
                 "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
                 "class _Gone:\n    pass\n"
                 "def _gone():\n    return _used()\n"
                 "def _shared():\n    return 3\n"
                 "def __getattr__(name):\n    return name\n"),
        "b.py": ("def _attr():\n    return 1\n"
                 "def _imported():\n    return 2\n"
                 "def _shared():\n    return 4\n"),
    }
    assert _unreferenced_private_names(sources) == [
        "a.py: _recursive (line 6)", "a.py: _Gone (line 8)", "a.py: _gone (line 10)",
        "b.py: _shared (line 5)"]
