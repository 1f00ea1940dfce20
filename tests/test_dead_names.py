"""Every module-level function, class and constant of the package, and
every module-level helper of the tests, has a reader.  A private name of
the package needs a reader in the package, the demos or the benchmark: a
helper that only tests read is dead code with a test."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "demos", "perfbench")


def _definitions(path):
    """(name, node) of each module-level function, class and constant of
    the file; dunder names such as __version__ are left out."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, node


def _found_by_pytest(name, node):
    """Test functions, fixtures and hooks, which pytest reads by itself."""
    return name.startswith(("test_", "pytest_")) or any(
        "fixture" in ast.unparse(d)
        for d in getattr(node, "decorator_list", ()))


def test_every_top_level_name_is_read_somewhere():
    texts = {p: p.read_text()
             for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py"))}
    files = [(p, lambda name, node: False)
             for p in sorted((ROOT / "src" / "rectlab").glob("*.py"))]
    files += [(p, _found_by_pytest)
              for p in sorted((ROOT / "tests").rglob("*.py"))]
    tests = ROOT / "tests"
    dead = []
    for path, exempt in files:
        lines = texts[path].splitlines()
        rest = "\n".join(t for p, t in texts.items() if p != path)
        rest_of_code = "\n".join(t for p, t in texts.items()
                                 if p != path and tests not in p.parents)
        for name, node in _definitions(path):
            if exempt(name, node):
                continue
            private = name.startswith("_") and tests not in path.parents
            own = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not (word.search(own)
                    or word.search(rest_of_code if private else rest)):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not dead, dead


def test_every_import_is_read_in_its_module():
    """Each name a package module imports is read in that module, unless
    its import statement is marked "# noqa: F401" (a re-export).
    __init__.py, which only re-exports, and __future__ imports are left
    out."""
    unused = []
    for path in sorted((ROOT / "src" / "rectlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or any("# noqa: F401" in line for line in
                           lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                                  f"{name}")
    assert not unused, unused
