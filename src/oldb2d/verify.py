"""Manufactured solutions, convergence-order estimation, and the
brute-force oracles backing the certified inequalities.

A manufactured solution is seven closed-form fields whose equation
residuals, added as source terms, make them an exact solution of the
forced system. The fields and residuals are differentiated symbolically
once, by ``scripts/gen_mms.py``, into the numpy functions of
:mod:`oldb2d.mms_sources`; no command imports sympy. The oracles here are
deliberately independent of the production stencils (naive loops and
closed forms only).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .constitutive import (ModelParams, bregman_G, bregman_H,
                           calibrate_H_constants, lower_bound_G, lower_bound_H)
from .dynamics import SolverOptions, run_simulation
from .grid import Grid
from .rng import default_rng
from .state import State


_STATE_NAMES = ("rho", "mx", "my", "eta", "t11", "t12", "t22")


class ManufacturedSolution:
    """Closed-form (rho*, u*, eta*, T*) with their equation residuals as
    sources, and, for ``steady-ws``, the momentum residual as a body force.

    ``fns`` is a solution's entry of ``mms_sources.SOLUTIONS``: its
    constants function, then the functions of the 7 fields, of the 7
    sources and of the 2 forces (or None), each of (x, y, t) and the
    constants, which are computed here once.
    """

    def __init__(self, name: str, prm: ModelParams, lx: float, ly: float,
                 fns: tuple):
        self.name = name
        self.lx = lx
        self.ly = ly
        constants, *groups = fns
        c = constants(**{f.name: getattr(prm, f.name)
                         for f in dataclasses.fields(prm) if f.init},
                      lx=lx, ly=ly)
        self._fields, self._sources, self._forces = (
            None if fn is None else functools.partial(fn, c=c) for fn in groups)

    # -- grid sampling ------------------------------------------------------

    def _planes(self, fn, axes: tuple, t: float) -> tuple:
        """The outputs of ``fn`` on ``Grid.cell_axes`` as fresh, writable
        (nx, ny) planes: subexpressions of one variable cost a line of
        cells, not the whole mesh."""
        x, y = axes
        out = fn(x, y, t)
        shape = (x.shape[0], y.shape[1])
        return tuple(self._eval(v, shape, any(v is w for w in out[:i]))
                     for i, v in enumerate(out))

    def _eval(self, value, shape: tuple, returned_before: bool) -> np.ndarray:
        """One output as a fresh plane: a plane computed from both axes is
        new unless the function returned it before; a line or a scalar is
        broadcast."""
        if np.shape(value) == shape and not returned_before:
            return value
        return np.full(shape, value, dtype=np.float64)

    def sample_state(self, grid: Grid, t: float) -> State:
        rho, ux, uy, eta, t11, t12, t22 = self._planes(
            self._fields, grid.cell_axes(), t)
        return State(grid, t, rho, rho * ux, rho * uy, eta, t11, t12, t22)

    def source_fn(self, grid: Grid):
        """t -> the 7 per-equation source arrays making the closed forms
        an exact solution of the forced system."""
        axes = grid.cell_axes()

        def fn(t: float):
            return self._planes(self._sources, axes, t)
        return fn

    def force_fn(self, grid: Grid):
        """t -> (fx, fy) body force; only for ``steady-ws``."""
        if self._forces is None:
            return None
        axes = grid.cell_axes()

        def fn(t: float):
            return self._planes(self._forces, axes, t)
        return fn


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

    Imports :mod:`oldb2d.mms_sources` on the first call, so ``lemma-check``,
    and ``run`` and ``compare`` without an ``mms:`` preset, never load it.
    """
    if name not in MMS_NAMES:
        raise ValueError(f"unknown manufactured solution {name!r}")
    from .mms_sources import SOLUTIONS
    return ManufacturedSolution(name, prm, lx, ly, SOLUTIONS[name])


# -- convergence studies ----------------------------------------------------

#: the grid levels of a convergence study, whose error ratios are orders
LEVELS_RULE = "3 or more grid sizes from 8 up, each twice the previous"


def doubling_levels(levels) -> bool:
    """Whether ``levels`` follow :data:`LEVELS_RULE`."""
    return (len(levels) >= 3 and levels[0] >= 8
            and all(b == 2 * a for a, b in zip(levels, levels[1:])))


def study_levels(ms: ManufacturedSolution, levels, t_end: float,
                 dt_over_dx2: float):
    """Yield (n, grid, dt) of each level of a study: n x n periodic cells
    on the solution's box, and the step near dt_over_dx2 * dx^2 that
    reaches t_end in t_end / dt rounded (at least 1) equal steps. A step
    of 0, or one too small for t_end / dt to be finite, is yielded as is."""
    for n in levels:
        grid = Grid(nx=n, ny=n, lx=ms.lx, ly=ms.ly, boundary_mode="periodic")
        dt = dt_over_dx2 * grid.dx ** 2
        if dt > 0 and t_end / dt < np.inf:
            dt = t_end / max(1, round(t_end / dt))
        yield n, grid, dt


@dataclass
class ConvergenceReport:
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
    if not doubling_levels(levels):
        raise ValueError(f"levels must be {LEVELS_RULE}, got {tuple(levels)}")
    l2 = {f: [] for f in fields}
    linf = {f: [] for f in fields}
    for n, grid, dt in study_levels(ms, levels, t_end, dt_over_dx2):
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
    return ConvergenceReport(list(levels), l2, linf, orders, valid, reason)


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


#: Sobol pairs drawn and checked per block of the lemma scan. A float64 row
#: of 2^14 pairs is 128 KiB, so the dozen or so rows the bounds keep alive
#: at once fit in a 2 MiB L2 cache; on a 2-core Xeon with that cache, 2^14
#: was fastest, and 2^16 took 1.15x and 2^17 1.4x as long. The certificate
#: does not depend on it.
_SCAN_CHUNK = 1 << 14

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
    plus a digital shift, drawn from ``default_rng(seed)`` (numpy's bits,
    from :mod:`oldb2d.rng`) in scipy's order.

    Bit 29 - p of scrambled column j is the parity of row p of the unit
    lower triangular matrix dotted with the bits of column j."""
    bits = _SOBOL_BITS
    rng = default_rng(seed)
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
    seed=seed)`` with the same bits, as (4, chunk) float64 blocks: row d
    holds coordinate d of the block's points, contiguous, so the scan's
    elementwise passes stream one row per variable.

    Point i, in Gray-code order, is the shift XOR the direction columns of
    the set bits of gray(i) = i ^ (i >> 1). With chunk = 2^k and
    i = c 2^k + r, gray(i) = (gray(c) << k) ^ ((c & 1) << (k - 1)) ^ gray(r),
    so block c is one table over r XOR a constant."""
    shift, v = _sobol_scramble(seed)
    k = chunk.bit_length() - 1
    table = np.zeros((4, chunk), dtype=np.uint32)  # column r: gray(r)'s columns
    for b in range(k):
        # reflected Gray code: gray(2^b + r) = 2^b | gray(2^b - 1 - r)
        table[:, 1 << b:2 << b] = table[:, (1 << b) - 1::-1] ^ v[:, b:b + 1]
    for c in range(n // chunk):
        const = shift ^ (v[:, k - 1] if c & 1 else 0)
        gray = c ^ (c >> 1)
        for b in range(gray.bit_length()):
            if gray >> b & 1:
                const = const ^ v[:, k + b]
        yield (table ^ const[:, None]) * (1.0 / SOBOL_POINTS)


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
    are drawn and checked in blocks of ``_SCAN_CHUNK``, each one contiguous
    row per variable (``_sobol_blocks``), so memory stays bounded and the
    working set fits in cache; consecutive blocks continue one Sobol
    sequence, and the result equals a single draw of all the pairs.

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
        # 10^(lo + (hi - lo) pts), formed in the block's own buffer
        pts *= hi - lo
        pts += lo
        rho, rho_t, eta, eta_t = np.power(10.0, pts, out=pts)
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
