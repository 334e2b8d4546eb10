"""Every file the package opens in text mode names its encoding, so that
reading a config and writing a CSV do not depend on the locale."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oldb2d"

#: the calls that open a file in text mode unless their mode says binary,
#: keyed by whether they are methods (of ``Path``), and the argument index
#: of that mode
_OPENERS = {(False, "open"): 1, (True, "open"): 0,
            (True, "read_text"): None, (True, "write_text"): None}


def _mode(call: ast.Call, index):
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    if index is not None and len(call.args) > index:
        return call.args[index]
    return None


def _text_opens_without_encoding(tree: ast.AST):
    """Line of each call in ``tree`` that opens a text file and passes no
    ``encoding=``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        key = ((False, func.id) if isinstance(func, ast.Name)
               else (True, getattr(func, "attr", None)))
        if key not in _OPENERS:
            continue
        mode = _mode(node, _OPENERS[key])
        if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "b" in mode.value):
            continue
        if not any(kw.arg == "encoding" for kw in node.keywords):
            yield node.lineno


def test_every_text_mode_open_names_its_encoding():
    found = [f"{path.relative_to(PACKAGE.parent)}:{line}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for line in _text_opens_without_encoding(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


@pytest.mark.parametrize("code,flagged", [
    ("open(p)", [1]),
    ("open(p, 'w', newline='\\n')", [1]),
    ("open(p, mode='w')", [1]),
    ("p.open()", [1]),
    ("p.open('w')", [1]),
    ("p.open('rb')", []),
    ("p.read_text()", [1]),
    ("p.write_text(s)", [1]),
    ("open(p, encoding='utf-8')", []),
    ("open(p, 'rb')", []),
    ("open(p, mode='wb')", []),
    ("p.read_text(encoding='utf-8')", []),
])
def test_the_check_tells_text_from_binary_opens(code, flagged):
    assert list(_text_opens_without_encoding(ast.parse(code))) == flagged
