"""No top-level name of the package is dead: each one is used, or named,
somewhere in the package, its tests, its scripts or its benchmark other
than in its own definition."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "scripts", "perfbench")


def _defined_names(tree):
    """(name, first line, last line) of each top-level function, class and
    assigned name, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def test_every_top_level_name_is_used():
    sources = {p: p.read_text().splitlines()
               for top in SEARCHED for p in sorted((ROOT / top).rglob("*.py"))}
    dead = []
    for path in sorted((ROOT / "src" / "oldb2d").rglob("*.py")):
        lines = sources[path]
        for name, first, last in _defined_names(ast.parse("\n".join(lines))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(word.search(line)
                       for p, text in sources.items()
                       for i, line in enumerate(text, 1)
                       if not (p == path and first <= i <= last))
            if not used:
                dead.append(f"{path.relative_to(ROOT)}:{name}")
    assert dead == []
