"""No top-level name of the package is dead: each one is used, or named,
somewhere in the package, its tests, its scripts or its benchmark other
than in its own definition. The package holds no name that only its
tests or scripts name: such a name belongs with them. And no module of
the package imports a name it never uses."""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "scripts", "perfbench")

#: names that only tests name, kept in the package because a command is
#: planned to call them: ``compare`` against a reference on a grid twice as
#: fine restricts each reference snapshot
AWAITING_A_CALLER = {"src/oldb2d/entropy.py:restrict_state"}

#: modules whose imports are their API: ``perfbench`` reads the kernels
#: through the package's re-exports
REEXPORTING = {"src/oldb2d/kernels/__init__.py"}


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


@functools.cache
def _namers() -> dict:
    """``path:name`` of each top-level name of the package -> the searched
    top directories that name it outside its own definition."""
    sources = {p: p.read_text().splitlines()
               for top in SEARCHED for p in sorted((ROOT / top).rglob("*.py"))}
    out = {}
    for path in sorted((ROOT / "src" / "oldb2d").rglob("*.py")):
        lines = sources[path]
        for name, first, last in _defined_names(ast.parse("\n".join(lines))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            out[f"{path.relative_to(ROOT)}:{name}"] = {
                p.relative_to(ROOT).parts[0]
                for p, text in sources.items()
                if any(word.search(line) for i, line in enumerate(text, 1)
                       if not (p == path and first <= i <= last))}
    return out


def test_every_top_level_name_is_used():
    assert [key for key, tops in _namers().items() if not tops] == []


def test_no_name_in_the_package_serves_only_tests_or_scripts():
    """A name the package does not use itself, and that the benchmark does
    not name (its tracer wraps names by their place in the package), moves
    to ``tests/`` or ``scripts/``."""
    only = [key for key, tops in _namers().items()
            if tops and tops <= {"tests", "scripts"}]
    assert sorted(set(only) - AWAITING_A_CALLER) == []


def test_no_module_imports_a_name_it_never_uses():
    """Each name a module's top-level imports bind (``from __future__``
    aside) is used in the module's code."""
    unused = []
    for path in sorted((ROOT / "src" / "oldb2d").rglob("*.py")):
        key = str(path.relative_to(ROOT))
        if key in REEXPORTING:
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
            unused += [f"{key}:{name}" for name in bound if name not in used]
    assert unused == []
