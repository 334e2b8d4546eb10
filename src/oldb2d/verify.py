"""Manufactured solutions, convergence-order estimation, and the
brute-force oracles backing the certified inequalities.

Manufactured fields are sympy expressions in (x, y, t); their equation
residuals are differentiated symbolically and added as source terms, so
the closed forms solve the forced system exactly. The oracles here are
deliberately independent of the production stencils (naive loops and
symbolic derivatives only).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .constitutive import (ModelParams, bregman_G, bregman_H,
                           calibrate_H_constants, lower_bound_G, lower_bound_H)
from .fields import upper_convected_source
from .grid import Grid
from .state import State


_FIELD_NAMES = ("rho", "ux", "uy", "eta", "t11", "t12", "t22")
_STATE_NAMES = ("rho", "mx", "my", "eta", "t11", "t12", "t22")


@functools.cache
def _sympy():
    """sympy and the real symbols x, y, t of every manufactured field.

    Imported on the first manufactured solution, so ``lemma-check``, and
    ``run`` and ``compare`` without an ``mms:`` preset, never load sympy."""
    import sympy as sp
    return (sp, *sp.symbols("x y t", real=True))


def _compile(exprs) -> tuple:
    """numpy closures of source expressions, with their common
    subexpressions computed once per call.

    ``docstring_limit=0`` skips printing each expression into the closure's
    docstring, which would cost about as much set-up time as the CSE pass.
    ``modules=np`` selects the same printer as ``"numpy"`` but takes the
    namespace from the module object, skipping ``from numpy import *``
    and the ~230 numpy submodules it loads.
    """
    sp, x, y, t = _sympy()
    return tuple(sp.lambdify((x, y, t), e, modules=np, cse=True,
                             docstring_limit=0)
                 for e in exprs)


class ManufacturedSolution:
    """Closed-form (rho*, u*, eta*, T*) with machine-differentiated
    equation residuals used as sources.

    ``exprs`` maps the seven field names (rho, ux, uy, eta, t11, t12, t22)
    to sympy expressions in (x, y, t). All derivative bookkeeping is
    symbolic; nothing here touches the finite-difference stencils.
    """

    def __init__(self, name: str, exprs: dict, prm: ModelParams,
                 lx: float, ly: float, force_from_momentum: bool = False):
        self.name = name
        self.exprs = dict(exprs)
        self.prm = prm
        self.lx = lx
        self.ly = ly
        self.force_from_momentum = force_from_momentum
        sp, x, y, t = _sympy()
        self._field_fns = {k: sp.lambdify((x, y, t), v, modules=np)
                           for k, v in self.exprs.items()}
        self._source_exprs = self._build_source_exprs()
        if force_from_momentum:
            # momentum residual recast as a body force f = residual / rho,
            # leaving the momentum *source* identically zero
            rho = self.exprs["rho"]
            self._force_exprs = (self._source_exprs[1] / rho,
                                 self._source_exprs[2] / rho)
            self._source_exprs = (self._source_exprs[0], sp.Integer(0),
                                  sp.Integer(0)) + tuple(self._source_exprs[3:])
            self._force_fns = _compile(self._force_exprs)
        else:
            self._force_exprs = None
            self._force_fns = None
        self._source_fns = _compile(self._source_exprs)

    # -- symbolic residuals of the governing equations ----------------------

    def _build_source_exprs(self) -> tuple:
        sp, x, y, t = _sympy()
        prm = self.prm
        rho, ux, uy, eta = (self.exprs[k] for k in ("rho", "ux", "uy", "eta"))
        t11, t12, t22 = (self.exprs[k] for k in ("t11", "t12", "t22"))

        def dx(e):
            return sp.diff(e, x)

        def dy(e):
            return sp.diff(e, y)

        def dt(e):
            return sp.diff(e, t)

        def lap(e):
            return sp.diff(e, x, 2) + sp.diff(e, y, 2)

        div_u = dx(ux) + dy(uy)
        # an exact exponent: with a float one (rho**2.0) the order of the
        # residual's terms, and so its rounding, follows the hash seed
        p = prm.a * rho ** sp.Rational(repr(prm.gamma))
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

    # -- grid sampling ------------------------------------------------------

    def _eval(self, fn, grid: Grid, t: float) -> np.ndarray:
        xc, yc = grid.cell_centers()
        # x on an (nx, 1) axis and y on a (1, ny) axis: subexpressions of
        # one variable cost a line of cells, not the whole mesh
        out = fn(xc[:, :1], yc[:1, :], t)
        return np.broadcast_to(np.asarray(out, dtype=np.float64), grid.shape).copy()

    def sample_state(self, grid: Grid, t: float) -> State:
        v = {k: self._eval(self._field_fns[k], grid, t) for k in _FIELD_NAMES}
        return State(grid, t, v["rho"], v["rho"] * v["ux"], v["rho"] * v["uy"],
                     v["eta"], v["t11"], v["t12"], v["t22"])

    def source_fn(self, grid: Grid):
        """t -> the 7 per-equation source arrays making the closed forms
        an exact solution of the forced system."""
        def fn(t: float):
            return tuple(self._eval(f, grid, t) for f in self._source_fns)
        return fn

    def force_fn(self, grid: Grid):
        """t -> (fx, fy) body force; only for force_from_momentum solutions."""
        if self._force_fns is None:
            return None

        def fn(t: float):
            return tuple(self._eval(f, grid, t) for f in self._force_fns)
        return fn

    def residual_is_zero(self, which: str, tol: float = 1e-12) -> bool:
        """True if the named equation residual is symbolically zero (up to
        floating-point dust from float-valued domain sizes)."""
        sp = _sympy()[0]
        idx = _STATE_NAMES.index(which)
        expr = sp.expand(sp.simplify(self._source_exprs[idx]))
        if expr == 0:
            return True
        terms = expr.as_ordered_terms()
        coeffs = [abs(complex(t.as_coeff_Mul()[0])) for t in terms]
        return max(coeffs) < tol


# -- named manufactured solutions -------------------------------------------

#: the solutions of :func:`make_ms`, config preset ``mms:<name>``
MMS_NAMES = ("periodic-smooth", "diffusion-eta", "steady-ws")


def make_ms(name: str, prm: ModelParams, lx: float = 1.0, ly: float = 1.0) -> ManufacturedSolution:
    """Registry of manufactured solutions (periodic boxes), one per name
    in :data:`MMS_NAMES`.

    - ``periodic-smooth``: gently time-dependent fully coupled fields.
    - ``diffusion-eta``: u = 0, rho = 1, eta an exact heat kernel mode,
      T = k eta I; the eta and T residuals vanish identically.
    - ``steady-ws``: steady divergence-free velocity from a streamfunction,
      density constant on streamlines, constant eta, steady positive
      stress; continuity and the eta equation hold unforced and the
      momentum residual is recast as a body force. Suitable as a strong
      reference for the remainder-equivalence checks.
    """
    if name not in MMS_NAMES:
        raise ValueError(f"unknown manufactured solution {name!r}")
    sp, x, y, t = _sympy()
    kx = 2 * sp.pi / lx
    ky = 2 * sp.pi / ly
    sx, cx_ = sp.sin(kx * x), sp.cos(kx * x)
    sy, cy_ = sp.sin(ky * y), sp.cos(ky * y)

    if name == "periodic-smooth":
        wob = sp.cos(t)
        rho = 1 + sp.Rational(3, 20) * sx * cy_ * wob
        ux = sp.Rational(1, 20) * sx * cy_ * (1 + sp.Rational(1, 2) * sp.sin(t))
        uy = sp.Rational(1, 20) * cx_ * sy * (1 - sp.Rational(1, 2) * sp.sin(t))
        eta = 1 + sp.Rational(1, 10) * cx_ * sy * wob
        t11 = prm.k * eta + sp.Rational(1, 20) * sx * sy * wob
        t22 = prm.k * eta - sp.Rational(1, 20) * sx * sy * wob
        t12 = sp.Rational(3, 100) * cx_ * cy_ * sp.sin(t)
        exprs = dict(rho=rho, ux=ux, uy=uy, eta=eta, t11=t11, t12=t12, t22=t22)
        return ManufacturedSolution(name, exprs, prm, lx, ly)

    if name == "diffusion-eta":
        decay = sp.exp(-prm.eps * (kx ** 2 + ky ** 2) * t)
        eta = 1 + sp.Rational(1, 2) * cx_ * cy_ * decay
        exprs = dict(rho=sp.Integer(1), ux=sp.Integer(0), uy=sp.Integer(0),
                     eta=eta, t11=prm.k * eta, t12=sp.Integer(0),
                     t22=prm.k * eta)
        return ManufacturedSolution(name, exprs, prm, lx, ly)

    # steady-ws
    # psi = (amp/ky) sin sin; u = (psi_y, -psi_x) is divergence free and
    # tangent to level sets of psi, so rho = R(psi) satisfies the
    # unforced continuity equation; eta constant satisfies its equation
    amp = sp.Rational(1, 10)
    psi_hat = sx * sy
    ux = amp * sx * cy_
    uy = -amp * (kx / ky) * cx_ * sy
    rho = 1 + sp.Rational(1, 5) * psi_hat
    eta = sp.Integer(1)
    t11 = prm.k + sp.Rational(1, 20) * sx * cy_
    t22 = prm.k + sp.Rational(1, 20) * cx_ * sy
    t12 = sp.Rational(3, 100) * sx * sy
    exprs = dict(rho=rho, ux=ux, uy=uy, eta=eta, t11=t11, t12=t12, t22=t22)
    return ManufacturedSolution(name, exprs, prm, lx, ly,
                                force_from_momentum=True)


# -- convergence studies ----------------------------------------------------


@dataclass
class ConvergenceReport:
    ms_name: str
    levels: list
    l2_errors: dict      # field -> list of errors, coarse to fine
    linf_errors: dict
    l2_orders: dict      # field -> list of observed orders (len = levels-1)
    valid: bool
    invalid_reason: str | None = None

    def table_rows(self) -> list:
        rows = []
        for f in self.l2_errors:
            for i, n in enumerate(self.levels):
                order = self.l2_orders[f][i - 1] if i > 0 else float("nan")
                rows.append((f, n, self.l2_errors[f][i],
                             self.linf_errors[f][i], order))
        return rows


def convergence_study(ms: ManufacturedSolution, prm: ModelParams,
                      levels=(32, 64, 128), t_end: float = 0.05,
                      dt_over_dx2: float = 0.5,
                      fields=_STATE_NAMES) -> ConvergenceReport:
    """Run the forced simulator against the manufactured solution on a
    sequence of grids with dt proportional to dx^2 and report L2/Linf
    errors and observed orders log2(e_h / e_{h/2})."""
    from .dynamics import SolverOptions, run_simulation

    if len(levels) < 3:
        raise ValueError("need at least 3 grid levels")
    l2 = {f: [] for f in fields}
    linf = {f: [] for f in fields}
    for n in levels:
        grid = Grid(nx=n, ny=n, lx=ms.lx, ly=ms.ly, boundary_mode="periodic")
        dt = dt_over_dx2 * grid.dx ** 2
        nsteps = max(1, round(t_end / dt))
        dt = t_end / nsteps
        init = ms.sample_state(grid, 0.0)
        opts = SolverOptions(dt=dt, snapshot_stride=10 ** 9)
        traj = run_simulation(init, prm, t_end, opts,
                              force_fn=ms.force_fn(grid),
                              source_fn=ms.source_fn(grid))
        exact = ms.sample_state(grid, traj.final.t)
        for f in fields:
            err = getattr(traj.final, f) - getattr(exact, f)
            l2[f].append(float(np.sqrt(np.mean(err ** 2))))
            linf[f].append(float(np.max(np.abs(err))))

    orders = {}
    valid, reason = True, None
    for f in fields:
        e = l2[f]
        if 0.0 in e:
            valid, reason = False, (f"L2 errors of exactly 0 for field {f}: "
                                    f"t_end = {t_end:g} is too short to "
                                    f"measure an order")
        elif any(e[i + 1] >= e[i] for i in range(len(e) - 1)):
            valid, reason = False, f"non-monotone L2 errors for field {f}"
        # an error of exactly 0 gives an order of nan or inf, not a
        # ZeroDivisionError
        orders[f] = [float(np.log2(np.divide(e[i], e[i + 1])))
                     for i in range(len(e) - 1)]
    return ConvergenceReport(ms.name, list(levels), l2, linf, orders,
                             valid, reason)


# -- lemma-scan oracle ------------------------------------------------------


@dataclass
class LemmaCertificate:
    """Record of a quasi-random scan of the pointwise lower bounds."""

    kind: str                 # "H" or "G"
    corrected: bool
    n_samples: int
    seed: int
    delta: float | None
    c: float | None
    min_slack: float
    argmin: tuple             # (value, reference) pair attaining min slack
    passed: bool


#: Sobol pairs drawn and checked per block of the lemma scan
_SCAN_CHUNK = 1 << 16

_SOBOL_BITS = 30
#: points of the lemma scan's Sobol sequence, the most ``[lemma] samples``
SOBOL_POINTS = 1 << _SOBOL_BITS

#: Joe & Kuo (SIAM J. Sci. Comput. 2008) primitive polynomials, with the
#: leading and trailing 1, and initial direction numbers of dimensions
#: 2-4; dimension 1 is all ones
_JOE_KUO = ((3, (1,)), (7, (1, 3)), (11, (1, 3, 1)))


def _sobol_directions() -> np.ndarray:
    """(4, 30) uint32 direction numbers; column j is aligned to bit 29 - j."""
    rows = [[1] * _SOBOL_BITS]
    for poly, m in _JOE_KUO:
        s, v = len(m), list(m)
        for j in range(s, _SOBOL_BITS):
            new = v[j - s]
            for k in range(s):
                if poly >> (s - 1 - k) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        rows.append(v)
    return (np.array(rows, dtype=np.uint32)
            << np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32))


def _sobol_scramble(seed: int) -> tuple:
    """(shift, directions) of scipy's ``qmc.Sobol(d=4, scramble=True,
    seed=seed)``: Matoušek's linear matrix scramble (J. Complexity 1998)
    plus a digital shift, drawn from ``default_rng(seed)`` in scipy's order.

    Bit 29 - p of scrambled column j is the parity of row p of the unit
    lower triangular matrix dotted with the bits of column j."""
    bits = _SOBOL_BITS
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, size=(4, bits), dtype=np.uint32) @ (
        np.uint32(1) << np.arange(bits, dtype=np.uint32))
    ltm = np.tril(rng.integers(0, 2, size=(4, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    high_first = np.arange(bits - 1, -1, -1, dtype=np.uint32)
    v_bits = _sobol_directions()[:, :, None] >> high_first & 1  # (d, j, i)
    parity = ltm @ v_bits.transpose(0, 2, 1) & 1                # (d, p, j)
    return shift, (parity << high_first[:, None]).sum(axis=1, dtype=np.uint32)


def _sobol_blocks(seed: int, n: int, chunk: int):
    """The first ``n`` points of scipy's ``qmc.Sobol(d=4, scramble=True,
    seed=seed)`` with the same bits, as (chunk, 4) float64 blocks.

    Point i, in Gray-code order, is the shift XOR the direction columns of
    the set bits of gray(i) = i ^ (i >> 1). With chunk = 2^k and
    i = c 2^k + r, gray(i) = (gray(c) << k) ^ ((c & 1) << (k - 1)) ^ gray(r),
    so block c is one table over r XOR a constant."""
    shift, v = _sobol_scramble(seed)
    k = chunk.bit_length() - 1
    table = np.zeros((chunk, 4), dtype=np.uint32)  # row r: gray(r)'s columns
    for b in range(k):
        # reflected Gray code: gray(2^b + r) = 2^b | gray(2^b - 1 - r)
        table[1 << b:2 << b] = table[(1 << b) - 1::-1] ^ v[:, b]
    for c in range(n // chunk):
        const = shift ^ (v[:, k - 1] if c & 1 else 0)
        gray = c ^ (c >> 1)
        for b in range(gray.bit_length()):
            if gray >> b & 1:
                const = const ^ v[:, k + b]
        yield (table ^ const) * (1.0 / SOBOL_POINTS)


def _fold_min(best, slack, value, ref):
    """Fold one block of slacks into the running (min_slack, value, ref)
    with ``np.argmin``'s rules: the first minimum wins, and the first NaN
    wins over every number."""
    i = int(np.argmin(slack))
    cand = (float(slack[i]), float(value[i]), float(ref[i]))
    if (best is None or cand[0] < best[0]
            or (np.isnan(cand[0]) and not np.isnan(best[0]))):
        return cand
    return best


def oracle_lemma_scan(prm: ModelParams, n_samples: int = 1 << 20,
                      seed: int = 20240817, corrected: bool = True) -> dict:
    """Scan bregman_H >= lower_bound_H (with freshly calibrated constants)
    and bregman_G >= lower_bound_G over log-uniform quasi-random pairs in
    [1e-6, 1e6]^2; returns {"H": certificate, "G": certificate}.

    ``n_samples`` rounds up to a power of two of at least 2^10. The pairs
    are drawn and checked in blocks of ``_SCAN_CHUNK``, so memory stays
    bounded; consecutive draws continue one Sobol sequence, and the result
    equals a single draw of all the pairs.

    With ``corrected=False`` the G bound uses the uncorrected constants
    1/(2 eta_t) and 1/4, which the scan falsifies near eta = 2 eta_t.
    """
    m = max(10, int(np.ceil(np.log2(n_samples))))
    n = 1 << m
    if n > SOBOL_POINTS:
        raise ValueError(f"n_samples={n_samples} exceeds the {SOBOL_POINTS} "
                         "points of the Sobol sequence")
    lo, hi = -6.0, 6.0
    hb = calibrate_H_constants(prm)
    chunk = min(n, _SCAN_CHUNK)
    best_h = best_g = None
    for pts in _sobol_blocks(seed, n, chunk):
        vals = 10.0 ** (lo + (hi - lo) * pts)
        rho, rho_t, eta, eta_t = vals.T
        slack_h = (bregman_H(rho, rho_t, prm)
                   - lower_bound_H(rho, rho_t, prm, hb.delta, hb.c))
        best_h = _fold_min(best_h, slack_h, rho, rho_t)
        slack_g = (bregman_G(eta, eta_t, prm)
                   - lower_bound_G(eta, eta_t, prm, corrected=corrected))
        best_g = _fold_min(best_g, slack_g, eta, eta_t)

    # the uncorrected bound fails exactly near eta = 2 eta_t; make sure the
    # scan visits that ridge instead of relying on Sobol luck
    ridge_t = 10.0 ** np.linspace(lo, hi, 4096)
    ridge_e = 2.0 * ridge_t
    slack_ridge = (bregman_G(ridge_e, ridge_t, prm)
                   - lower_bound_G(ridge_e, ridge_t, prm, corrected=corrected))
    best_g = _fold_min(best_g, slack_ridge, ridge_e, ridge_t)

    cert_h = LemmaCertificate(
        kind="H", corrected=True, n_samples=n, seed=seed,
        delta=hb.delta, c=hb.c, min_slack=best_h[0], argmin=best_h[1:],
        passed=best_h[0] >= 0.0)
    cert_g = LemmaCertificate(
        kind="G", corrected=corrected, n_samples=n, seed=seed,
        delta=None, c=None, min_slack=best_g[0], argmin=best_g[1:],
        passed=best_g[0] >= 0.0)
    return {"H": cert_h, "G": cert_g}


# -- scalar ODE oracle ------------------------------------------------------


def ode_oracle_relaxation(T0: np.ndarray, lam: float, t: float) -> np.ndarray:
    """Exact solution of dT/dt = -T/(2 lam): T0 * exp(-t / (2 lam))."""
    return np.asarray(T0, dtype=np.float64) * np.exp(-t / (2.0 * lam))
