"""The symbolic derivation behind ``oldb2d.mms_sources``.

Each manufactured solution of ``oldb2d.verify.make_ms`` is seven
closed-form fields in (x, y, t); their equation residuals, differentiated
here by sympy, are the sources that make them an exact solution of the
forced system. ``scripts/gen_mms.py`` runs this derivation once, with the
``[params]`` values and the box lengths as symbols, and writes the numpy
module. The tests run it with numbers, as the reference the generated
functions are checked against. Nothing here touches the finite-difference
stencils.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from oldb2d.constitutive import viscosity_coeffs
from oldb2d.fields import upper_convected_source
from oldb2d.verify import _STATE_NAMES as STATE_NAMES

#: the fields of a solution, in the order its fields function returns them
FIELD_NAMES = ("rho", "ux", "uy", "eta", "t11", "t12", "t22")

# sympy caches symbols by name and assumptions: every x, y, t here is one
X, Y, T = sp.symbols("x y t", real=True)


class SymbolicParams:
    """The model constants the residuals use, from the ``[params]`` values
    as sympy symbols or numbers: mu, nu and kL by the formulas of
    ``ModelParams``."""

    def __init__(self, **values):
        self.__dict__.update(values)
        self.mu, self.nu = viscosity_coeffs(self.mu_s, self.mu_b)
        self.kL = self.k * self.L


def _exact(v):
    # an exact exponent: with a float one (rho**2.0) the order of the
    # residual's terms, and so its rounding, follows the hash seed
    return v if isinstance(v, sp.Basic) else sp.Rational(repr(v))


def field_exprs(name: str, prm, lx, ly) -> tuple:
    """(fields, force_from_momentum) of the named solution (see
    ``oldb2d.verify.make_ms``): the seven fields as a dict of sympy
    expressions in (x, y, t), and whether its momentum residual is recast
    as a body force."""
    kx = 2 * sp.pi / lx
    ky = 2 * sp.pi / ly
    sx, cx_ = sp.sin(kx * X), sp.cos(kx * X)
    sy, cy_ = sp.sin(ky * Y), sp.cos(ky * Y)

    if name == "periodic-smooth":
        wob = sp.cos(T)
        rho = 1 + sp.Rational(3, 20) * sx * cy_ * wob
        ux = sp.Rational(1, 20) * sx * cy_ * (1 + sp.Rational(1, 2) * sp.sin(T))
        uy = sp.Rational(1, 20) * cx_ * sy * (1 - sp.Rational(1, 2) * sp.sin(T))
        eta = 1 + sp.Rational(1, 10) * cx_ * sy * wob
        t11 = prm.k * eta + sp.Rational(1, 20) * sx * sy * wob
        t22 = prm.k * eta - sp.Rational(1, 20) * sx * sy * wob
        t12 = sp.Rational(3, 100) * cx_ * cy_ * sp.sin(T)
        return dict(rho=rho, ux=ux, uy=uy, eta=eta, t11=t11, t12=t12,
                    t22=t22), False

    if name == "diffusion-eta":
        decay = sp.exp(-prm.eps * (kx ** 2 + ky ** 2) * T)
        eta = 1 + sp.Rational(1, 2) * cx_ * cy_ * decay
        return dict(rho=sp.Integer(1), ux=sp.Integer(0), uy=sp.Integer(0),
                    eta=eta, t11=prm.k * eta, t12=sp.Integer(0),
                    t22=prm.k * eta), False

    if name == "steady-ws":
        # psi = (amp/ky) sin sin; u = (psi_y, -psi_x) is divergence free and
        # tangent to level sets of psi, so rho = R(psi) satisfies the
        # unforced continuity equation; eta constant satisfies its equation
        amp = sp.Rational(1, 10)
        psi_hat = sx * sy
        ux = amp * sx * cy_
        uy = -amp * (kx / ky) * cx_ * sy
        rho = 1 + sp.Rational(1, 5) * psi_hat
        t11 = prm.k + sp.Rational(1, 20) * sx * cy_
        t22 = prm.k + sp.Rational(1, 20) * cx_ * sy
        t12 = sp.Rational(3, 100) * sx * sy
        return dict(rho=rho, ux=ux, uy=uy, eta=sp.Integer(1), t11=t11,
                    t12=t12, t22=t22), True

    raise ValueError(f"unknown manufactured solution {name!r}")


def residual_exprs(exprs: dict, prm) -> tuple:
    """The seven equation residuals of the fields ``exprs``, in the order
    of ``STATE_NAMES``."""
    rho, ux, uy, eta = (exprs[k] for k in ("rho", "ux", "uy", "eta"))
    t11, t12, t22 = (exprs[k] for k in ("t11", "t12", "t22"))

    def dx(e):
        return sp.diff(e, X)

    def dy(e):
        return sp.diff(e, Y)

    def dt(e):
        return sp.diff(e, T)

    def lap(e):
        return sp.diff(e, X, 2) + sp.diff(e, Y, 2)

    div_u = dx(ux) + dy(uy)
    p = prm.a * rho ** _exact(prm.gamma)
    q = prm.kL * eta + prm.zfrak * eta ** 2

    f_rho = dt(rho) + dx(rho * ux) + dy(rho * uy)
    f_eta = dt(eta) + dx(eta * ux) + dy(eta * uy) - prm.eps * lap(eta)

    f_mx = (dt(rho * ux) + dx(rho * ux * ux) + dy(rho * ux * uy)
            + dx(p + q) - prm.mu * lap(ux) - prm.nu * dx(div_u)
            - dx(t11) - dy(t12))
    f_my = (dt(rho * uy) + dx(rho * ux * uy) + dy(rho * uy * uy)
            + dy(p + q) - prm.mu * lap(uy) - prm.nu * dy(div_u)
            - dx(t12) - dy(t22))

    uc11, uc12, uc22 = upper_convected_source(dx(ux), dy(ux), dx(uy), dy(uy),
                                              t11, t12, t22)
    relax = 1 / (2 * prm.lam)
    f_t11 = (dt(t11) + dx(ux * t11) + dy(uy * t11) - uc11
             - prm.eps * lap(t11) - relax * (prm.k * eta - t11))
    f_t12 = (dt(t12) + dx(ux * t12) + dy(uy * t12) - uc12
             - prm.eps * lap(t12) + relax * t12)
    f_t22 = (dt(t22) + dx(ux * t22) + dy(uy * t22) - uc22
             - prm.eps * lap(t22) - relax * (prm.k * eta - t22))
    return (f_rho, f_mx, f_my, f_eta, f_t11, f_t12, f_t22)


class SymbolicSolution:
    """Closed-form fields, their residuals as sources, and, with
    ``force_from_momentum``, the momentum residual recast as a body force
    f = residual / rho, leaving the momentum sources identically zero."""

    def __init__(self, name: str, exprs: dict, prm,
                 force_from_momentum: bool = False):
        self.name = name
        self.exprs = dict(exprs)
        sources = residual_exprs(self.exprs, prm)
        if force_from_momentum:
            rho = self.exprs["rho"]
            self.force_exprs = (sources[1] / rho, sources[2] / rho)
            sources = (sources[0], sp.Integer(0), sp.Integer(0)) + sources[3:]
        else:
            self.force_exprs = None
        self.source_exprs = sources
        self.field_fns = {k: closure(v) for k, v in self.exprs.items()}

    def source_fn(self, grid):
        """t -> the 7 source planes on ``grid``'s cell centres."""
        fns = [closure(e) for e in self.source_exprs]
        xc, yc = grid.cell_axes()
        return lambda t: tuple(np.broadcast_to(f(xc, yc, t), grid.shape)
                               for f in fns)

    def residual_is_zero(self, which: str, tol: float = 1e-12) -> bool:
        """True if the named equation residual is symbolically zero (up to
        floating-point dust from float-valued parameters)."""
        expr = sp.expand(sp.simplify(self.source_exprs[STATE_NAMES.index(which)]))
        if expr == 0:
            return True
        coeffs = [abs(complex(term.as_coeff_Mul()[0]))
                  for term in expr.as_ordered_terms()]
        return max(coeffs) < tol


def make_symbolic(name: str, prm, lx=1.0, ly=1.0) -> SymbolicSolution:
    """The named solution of ``oldb2d.verify.make_ms``, in sympy."""
    exprs, force = field_exprs(name, prm, lx, ly)
    return SymbolicSolution(name, exprs, prm, force_from_momentum=force)


def closure(expr):
    """A plain numpy closure of ``expr`` in (x, y, t), no CSE."""
    return sp.lambdify((X, Y, T), expr, modules="numpy")

