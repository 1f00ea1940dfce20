"""Every module-level function and constant of the package has a reader."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "demos", "perfbench")


def _definitions(path):
    """(name, first line, last line) of each module-level function and
    constant of the file; dunder names such as __version__ are left out."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
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
                yield name, node.lineno, node.end_lineno


def test_every_top_level_name_is_read_somewhere():
    texts = {p: p.read_text()
             for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py"))}
    dead = []
    for path in sorted((ROOT / "src" / "rectlab").glob("*.py")):
        lines = texts[path].splitlines()
        rest = "\n".join(t for p, t in texts.items() if p != path)
        for name, first, last in _definitions(path):
            own = "\n".join(lines[:first - 1] + lines[last:])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not (word.search(own) or word.search(rest)):
                dead.append(f"{path.name}:{first} {name}")
    assert not dead, dead
