"""Write ``src/oldb2d/mms_sources.py``, the numpy functions behind
``oldb2d.verify.make_ms``.

Usage: python scripts/gen_mms.py [OUT]

Runs the symbolic derivation of ``tests/mms_symbolic.py`` once for each
solution in ``oldb2d.verify.MMS_NAMES``, with the ``[params]`` values and
the box lengths ``lx``, ``ly`` as symbols. Every subexpression that
depends on those symbols alone moves into one constants function per
solution, which ``make_ms`` calls once. The rest is written as one
function per solution and group, its fields, its sources and its forces,
that returns the group's outputs as a tuple. Each output keeps the common
subexpressions sympy finds in it alone, printed with lambdify's numpy
printer, so it keeps the bits it has when lambdified alone; definitions
of equal value are computed once for the whole group, and each array is
deleted after its last use. A residual that expands to exactly 0 is
returned as 0. The script needs sympy (the ``test`` extra); the module it
writes needs only numpy. Its output does not depend on the hash seed, and
a tier-1 test checks that the checked-in module is what it writes.
"""

from __future__ import annotations

import dataclasses
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
depends on them alone. ``<name>_fields``, ``<name>_sources`` and, for
steady-ws, ``<name>_forces`` take the cell-centre axes ``x`` and ``y``,
the time ``t`` and that tuple, and return the group's outputs in order:
the fields as rho, ux, uy, eta, t11, t12, t22, the sources as the state
planes rho, mx, my, eta, t11, t12, t22, and the forces as fx, fy. A
definition shared by several outputs is computed once; each output is
computed by the same operations, in the same order, as on its own, so it
has the same bits. A residual that vanishes identically is returned as 0,
and an output may be returned twice.
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


#: the names in printed code that :func:`_function` follows: definitions
#: and the cell axes
_NAME = re.compile(r"\b(?:x\d+|x|y)\b")


def _renamed(e, local: dict) -> str:
    """``e`` printed, with the definitions it uses renamed by ``local``.

    The text is renamed, not the expression: sympy would sort a product
    rebuilt with new names by those names, and so change its operations."""
    return _NAME.sub(lambda m: local.get(m[0], m[0]), _PRINTER.doprint(e))


def _function(name: str, args: tuple, blocks: list, names: tuple = ()) -> str:
    """The source of ``name(*args)``, which returns a tuple of outputs.

    ``blocks`` holds pairs (definitions, outputs) of :func:`_cse`, in output
    order. A definition that prints like an earlier one is merged into it,
    so each output is still computed by the operations of its own block,
    in their order, and keeps its bits. An array, a definition or output
    that varies along x or y, is assigned right after the last definition
    it needs and deleted after its last use. An output that would be
    assigned after the last definition anyway, or is a scalar, is written
    into the return tuple, unless it is returned twice; output i is
    otherwise assigned to ``names[i]``."""
    defs, outs = {}, []           # printed definition -> its name; outputs
    for subs, reduced in blocks:
        local = {}
        for s, d in subs:
            local[str(s)] = defs.setdefault(_renamed(d, local), f"x{len(defs)}")
        outs += [_renamed(e, local) for e in reduced]
    body = [(n, d) for d, n in defs.items()]
    pos = {n: i for i, (n, _) in enumerate(body)}
    last = len(body) - 1
    array = {"x": True, "y": True}
    for n, d in body:
        array[n] = any(array[m] for m in _NAME.findall(d))
    assigned, ret = {}, {}        # position -> [(name, output)]; output -> text
    for i, o in enumerate(outs):
        uses = _NAME.findall(o)
        p = max((pos[m] for m in uses if m in pos), default=last)
        if o not in ret and any(array[m] for m in uses) and (
                p < last or outs.count(o) > 1):
            assigned.setdefault(p, []).append((names[i], o))
            ret[o] = names[i]
        ret.setdefault(o, o)
    # the position after which each definition is last used; the return
    # tuple's count as after the last
    users = [(i, d) for i, (_, d) in enumerate(body)]
    users += [(p, o) for p, a in assigned.items() for _, o in a]
    users += [(last + 1, o) for o in ret.values()]
    used = {m: i for i, u in sorted(users) for m in _NAME.findall(u)}
    lines = [f"def {name}({', '.join(map(str, args))}):"]
    # position -1, before the first definition, holds the outputs of a
    # function with none
    for i in range(-1, len(body)):
        if i >= 0:
            lines.append("{} = {}".format(*body[i]))
        lines += [f"{n} = {o}" for n, o in assigned.get(i, [])]
        gone = [n for n, _ in body if used.get(n) == i and array[n]]
        if gone and i < last:
            lines.append("del " + ", ".join(gone))
    lines.append(f"return ({', '.join(ret[o] for o in outs)})")
    return "\n    ".join(lines) + "\n"


#: the outputs of each group's function, in the order it returns them
GROUPS = {"fields": sym.FIELD_NAMES, "sources": sym.STATE_NAMES,
          "forces": ("fx", "fy")}


def solution_exprs(name: str) -> tuple:
    """(constants, groups) of one solution: every subexpression that depends
    on the ``[params]`` values and the box lengths alone, and, for each
    group of :data:`GROUPS` the solution has, its outputs with those
    subexpressions replaced by ``c[i]``."""
    prm = sym.SymbolicParams(**{p.name: p for p in PARAMS})
    exprs, force = sym.field_exprs(name, prm, LX, LY)
    sol = sym.SymbolicSolution(name, exprs, prm, force_from_momentum=force)
    groups = {"fields": [exprs[k] for k in sym.FIELD_NAMES],
              "sources": [sp.Integer(0) if sp.expand(e) == 0 else e
                          for e in sol.source_exprs]}
    if sol.force_exprs is not None:
        groups["forces"] = list(sol.force_exprs)
    consts = _Constants()
    # powsimp: the pressure gradient's rho**gamma/rho is rho**(gamma - 1)
    groups = {g: [consts.hoist(_collect(sp.powsimp(e, combine="exp")))
                  for e in es] for g, es in groups.items()}
    return [sp.factor_terms(e) for e in consts.exprs], groups


def solution_code(name: str) -> tuple:
    """(function definitions, table entry) of one solution."""
    stem = name.replace("-", "_")
    consts, groups = solution_exprs(name)
    subs, reduced = _cse(sp.Tuple(*consts))
    defs = [_function(f"{stem}_constants", PARAMS + (LX, LY), [(subs, reduced)])]
    defs += [_function(f"{stem}_{g}", (sym.X, sym.Y, sym.T, C),
                       [(s, [r]) for s, r in map(_cse, es)], GROUPS[g])
             for g, es in groups.items()]
    fns = [f"{stem}_constants"] + [f"{stem}_{g}" if g in groups else "None"
                                   for g in GROUPS]
    return defs, f'    "{name}": ({", ".join(fns)}),\n'


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
            + "\n\n#: name -> (constants, fields, sources, forces or None)\n"
            "SOLUTIONS = {\n" + "".join(entries) + "}\n")


def main(argv: list) -> int:
    out = Path(argv[1]) if len(argv) > 1 else OUT
    out.write_text(module_code())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
