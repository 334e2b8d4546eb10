"""Write ``src/oldb2d/mms_sources.py``, the numpy functions behind
``oldb2d.verify.make_ms``.

Usage: python scripts/gen_mms.py [OUT]

Runs the symbolic derivation of ``tests/mms_symbolic.py`` once for each
solution in ``oldb2d.verify.MMS_NAMES``, with the ``[params]`` values and
the box lengths ``lx``, ``ly`` as symbols, and prints each field, source
and force with ``sympy.lambdify(..., cse=True)``. Every subexpression that
depends on those symbols alone moves into one constants function per
solution, which ``make_ms`` calls once. A residual that expands to
exactly 0 becomes the zero function. The script needs sympy (the ``test``
extra); the module it writes needs only numpy. Its output does not depend
on the hash seed, and a tier-1 test checks that the checked-in module is
what it writes.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import mms_symbolic as sym  # noqa: E402
from oldb2d.constitutive import ModelParams  # noqa: E402
from oldb2d.verify import MMS_NAMES  # noqa: E402

OUT = ROOT / "src" / "oldb2d" / "mms_sources.py"

#: the ``[params]`` values, in ``ModelParams`` order, then lx and ly
PARAMS = tuple(sp.Symbol(f.name, real=True)
               for f in dataclasses.fields(ModelParams) if f.init)
LX, LY = sp.symbols("lx ly", real=True)
#: the constants tuple every field, source and force function takes
C = sp.Symbol("c")
_XYT = {sym.X, sym.Y, sym.T}

HEADER = '''"""Fields, sources and forces of the manufactured solutions of
:func:`oldb2d.verify.make_ms`, as numpy functions.

Generated by scripts/gen_mms.py from the symbolic derivation in
tests/mms_symbolic.py; do not edit. Regenerate with

    python scripts/gen_mms.py

For each solution, ``<name>_constants`` takes the ``[params]`` values and
the box lengths and returns the tuple ``c`` of every subexpression that
depends on them alone. Every other function takes the cell-centre axes
``x`` and ``y``, the time ``t`` and that tuple. A residual that vanishes
identically returns 0.
"""

'''


def _collect(e):
    """``e`` with the terms of each sum that share their (x, y, t) factor
    added into one, as sympy does for numeric coefficients."""
    if e.is_Atom:
        return e
    e = e.func(*map(_collect, e.args))
    if not e.is_Add:
        return e
    terms = {}
    for a in e.args:
        coeff, var = a.as_independent(*_XYT, as_Add=False)
        terms[var] = terms.get(var, 0) + coeff
    return sp.Add(*(coeff * var for var, coeff in terms.items()))


class _Constants:
    """The parameter-only subexpressions of one solution, each replaced by
    a symbol printed as ``c[i]``, in first-seen order."""

    def __init__(self):
        self.exprs = []
        self._slots = {}

    def _slot(self, e):
        if e not in self._slots:
            self._slots[e] = sp.Symbol(f"c[{len(self.exprs)}]", real=True)
            self.exprs.append(e)
        return self._slots[e]

    def hoist(self, e):
        """``e`` with each largest parameter-only part replaced by a slot;
        numbers stay inline."""
        if not e.free_symbols & _XYT:
            return e if e.is_Atom and not e.is_Symbol else self._slot(e)
        if e.is_Atom:
            return e
        if e.is_Add or e.is_Mul:
            const = [a for a in e.args if not a.free_symbols & _XYT]
            rest = [self.hoist(a) for a in e.args if a.free_symbols & _XYT]
            if len(const) > 1 or const and not const[0].is_Number:
                const = [self.hoist(e.func(*const))]
            return e.func(*const, *rest)
        return e.func(*map(self.hoist, e.args))


def _axes(e, axes: dict) -> tuple:
    """The cell axes, of "x" and "y", that ``e`` varies along."""
    return tuple(sorted(set().union(*(axes.get(s, ()) for s in e.free_symbols))))


def _ordered(e, axes: dict):
    """``e``, unevaluated, with the factors of each product and the terms
    of each sum ordered scalars first, then x-lines, then y-lines, then
    planes. Python applies them left to right, so numpy broadcasts each
    scalar into the smallest array it can, and a line reaches a full plane
    as late as it can."""
    if e.is_Atom:
        return e
    args = [_ordered(a, axes) for a in e.args]
    if e.is_Mul or e.is_Add:
        args.sort(key=lambda a: (len(_axes(a, axes)), _axes(a, axes)))
    return e.func(*args, evaluate=False)


def _cse(expr) -> tuple:
    """sympy's common subexpressions of ``expr``, each ordered by
    :func:`_ordered`."""
    subs, reduced = sp.cse(expr, list=False)
    axes = {sym.X: ("x",), sym.Y: ("y",)}
    out = []
    for s, d in subs:
        d = _ordered(d, axes)
        axes[s] = _axes(d, axes)
        out.append((s, d))
    return out, _ordered(reduced, axes)


#: lambdify's numpy printer, printing products and sums in their stored
#: order, which :func:`_cse` sets
_PRINTER = NumPyPrinter({"fully_qualified_modules": False, "inline": True,
                         "allow_unknown_functions": True, "user_functions": {},
                         "order": "none"})


def _function(name: str, args: tuple, expr) -> str:
    fn = sp.lambdify(args, expr, modules=np, cse=_cse, printer=_PRINTER,
                     docstring_limit=0)
    src = inspect.getsource(fn)
    return src.replace("def _lambdifygenerated(", f"def {name}(", 1)


def _tuple(names: list, indent: str) -> str:
    inner = "".join(f"{indent}    {n},\n" for n in names)
    return f"(\n{inner}{indent})"


def solution_code(name: str) -> tuple:
    """(function definitions, table entry) of one solution."""
    prm = sym.SymbolicParams(**{p.name: p for p in PARAMS})
    exprs, force = sym.field_exprs(name, prm, LX, LY)
    sol = sym.SymbolicSolution(name, exprs, prm, force_from_momentum=force)
    stem = name.replace("-", "_")
    consts = _Constants()
    xytc = (sym.X, sym.Y, sym.T, C)
    groups = [[(f"{stem}_{k}", exprs[k]) for k in sym.FIELD_NAMES],
              [(f"{stem}_source_{k}", sp.Integer(0) if sp.expand(e) == 0 else e)
               for k, e in zip(sym.STATE_NAMES, sol.source_exprs)]]
    if sol.force_exprs is not None:
        groups.append([(f"{stem}_force_{k}", e)
                       for k, e in zip("xy", sol.force_exprs)])
    # powsimp: the pressure gradient's rho**gamma/rho is rho**(gamma - 1)
    defs = [_function(n, xytc,
                      consts.hoist(_collect(sp.powsimp(e, combine="exp"))))
            for g in groups for n, e in g]
    defs.insert(0, _function(f"{stem}_constants", PARAMS + (LX, LY),
                             sp.Tuple(*map(sp.factor_terms, consts.exprs))))
    names = [[n for n, _ in g] for g in groups]
    entry = ",\n".join([f"        {stem}_constants"]
                       + [f"        {_tuple(g, '        ')}" for g in names]
                       + ([] if force else ["        None"]))
    return defs, f'    "{name}": (\n{entry}),\n'


def module_code() -> str:
    defs, entries = [], []
    for name in MMS_NAMES:
        d, e = solution_code(name)
        defs += d
        entries.append(e)
    body = "\n\n".join(defs)
    used = sorted(set(re.findall(r"(?<!def )\b([a-z]\w*)\(", body)
                      + re.findall(r"\bpi\b", body)))
    assert all(hasattr(np, n) for n in used), used
    return (HEADER + f"from numpy import {', '.join(used)}\n\n\n" + body
            + "\n\n#: name -> (constants, the 7 fields, the 7 sources, "
            "the 2 forces or None)\nSOLUTIONS = {\n" + "".join(entries) + "}\n")


def main(argv: list) -> int:
    out = Path(argv[1]) if len(argv) > 1 else OUT
    out.write_text(module_code())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
