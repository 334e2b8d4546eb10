"""A-priori diagnostics over states and trajectories: energy breakdown,
energy-inequality residual, trace and stress-L2 balance residuals,
blow-up monitors, velocity moments and stress positivity."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import ModelParams
from .fields import (advective_div_array, face_velocities, grad_array,
                     integrate_array, upper_convected_source)
from .state import State, Trajectory


@dataclass
class EnergyBreakdown:
    """Instantaneous integrals of the total energy."""

    kinetic: float        # int 1/2 rho |u|^2
    pressure_pot: float   # int a/(gamma-1) rho^gamma
    polymer_pot: float    # int kL (eta log eta + 1) + z eta^2
    stress_tr: float      # int 1/2 tr T

    @property
    def total(self) -> float:
        return self.kinetic + self.pressure_pot + self.polymer_pot + self.stress_tr


def total_energy(state: State, prm: ModelParams) -> EnergyBreakdown:
    grid = state.grid
    rho = state.rho
    with np.errstate(divide="ignore", invalid="ignore"):
        u2 = (state.mx ** 2 + state.my ** 2) / np.maximum(rho, 1e-300)
    kinetic = integrate_array(0.5 * u2, grid)
    pressure_pot = integrate_array(
        prm.a / (prm.gamma - 1.0) * np.power(np.maximum(rho, 0.0), prm.gamma), grid)
    eta = np.maximum(state.eta, 0.0)
    # eta log eta with the 0 log 0 = 0 convention
    xlx = np.where(eta > 0, eta * np.log(np.where(eta > 0, eta, 1.0)), 0.0)
    polymer_pot = integrate_array(prm.kL * (xlx + 1.0) + prm.zfrak * eta ** 2, grid)
    stress_tr = integrate_array(0.5 * (state.t11 + state.t22), grid)
    return EnergyBreakdown(kinetic, pressure_pot, polymer_pot, stress_tr)


def energy_inequality_residual(traj: Trajectory, prm: ModelParams) -> np.ndarray:
    """residual(t_j) = [E(t_j) + visc + poly + relax] - [E(0) + src_f + src_eta]
    with the cumulative terms taken from the trajectory's accumulators.

    Exactly zero at j = 0; the continuous statement is residual <= 0, the
    signed discrete value is returned."""
    if not traj.accumulators:
        raise ValueError("trajectory carries no accumulators")
    e0 = total_energy(traj.states[0], prm).total
    out = np.empty(len(traj))
    for j, (s, acc) in enumerate(zip(traj.states, traj.accumulators)):
        e = total_energy(s, prm).total
        out[j] = (e + acc.visc + acc.poly + acc.relax) - (e0 + acc.src_f + acc.src_eta)
    return out


def _ddt(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Centered time derivative, one-sided second order at the endpoints."""
    if len(times) < 2:
        return np.zeros_like(np.asarray(series, dtype=np.float64))
    return np.gradient(series, times, edge_order=2 if len(times) > 2 else 1)


def trace_identity_residual(traj: Trajectory, prm: ModelParams) -> np.ndarray:
    """d/dt int 1/2 tr T + (1/4 lambda) int tr T
       - int [(k/2 lambda) eta + T : grad u]  ~ 0."""
    grid = traj.grid
    n = len(traj)
    half_tr = np.empty(n)
    rhs = np.empty(n)
    for j, s in enumerate(traj.states):
        tr = s.t11 + s.t22
        half_tr[j] = integrate_array(0.5 * tr, grid)
        ux, uy = s.velocity()
        gxx, gxy = grad_array(ux, grid, "odd")
        gyx, gyy = grad_array(uy, grid, "odd")
        t_gradu = s.t11 * gxx + s.t12 * (gxy + gyx) + s.t22 * gyy
        rhs[j] = (integrate_array(prm.k / (2.0 * prm.lam) * s.eta + t_gradu, grid)
                  - integrate_array(tr, grid) / (4.0 * prm.lam))
    return _ddt(half_tr, np.asarray(traj.times)) - rhs


def stress_l2_balance_residual(traj: Trajectory, prm: ModelParams) -> np.ndarray:
    """Residual of d/dt int 1/2|T|^2 + eps int |grad T|^2 + (1/2l) int |T|^2
       = -int Div(uT):T + int (grad u T + T grad u^T):T + (k/2l) int eta tr T."""
    grid = traj.grid
    n = len(traj)
    half_t2 = np.empty(n)
    rhs = np.empty(n)
    for j, s in enumerate(traj.states):
        t11, t12, t22 = s.t11, s.t12, s.t22
        frob = t11 ** 2 + 2.0 * t12 ** 2 + t22 ** 2
        half_t2[j] = integrate_array(0.5 * frob, grid)

        g11x, g11y = grad_array(t11, grid, "even")
        g12x, g12y = grad_array(t12, grid, "even")
        g22x, g22y = grad_array(t22, grid, "even")
        grad_t_sq = (g11x ** 2 + g11y ** 2 + 2.0 * (g12x ** 2 + g12y ** 2)
                     + g22x ** 2 + g22y ** 2)

        ux, uy = s.velocity()
        uf, vf = face_velocities(ux, uy, grid)
        adv = 0.0
        for a, w in ((t11, 1.0), (t12, 2.0), (t22, 1.0)):
            adv += w * integrate_array(
                advective_div_array(a, uf, vf, grid, "even") * a, grid)

        gxx, gxy = grad_array(ux, grid, "odd")
        gyx, gyy = grad_array(uy, grid, "odd")
        uc11, uc12, uc22 = upper_convected_source(gxx, gxy, gyx, gyy, t11, t12, t22)
        # (grad u T + T grad u^T) : T on the stored planes
        deform = integrate_array(uc11 * t11 + 2.0 * uc12 * t12 + uc22 * t22, grid)

        src = prm.k / (2.0 * prm.lam) * integrate_array(s.eta * (t11 + t22), grid)
        rhs[j] = (-adv + deform + src - prm.eps * integrate_array(grad_t_sq, grid)
                  - integrate_array(frob, grid) / (2.0 * prm.lam))
    return _ddt(half_t2, np.asarray(traj.times)) - rhs


# --- blow-up monitors ------------------------------------------------------


@dataclass
class BlowupReport:
    """Running maxima and time integrals of the blow-up criteria."""

    sup_rho: float = 0.0
    sup_eta: float = 0.0
    l2t_linf_tau: float = 0.0   # int_0^t ||T(s)||_Linf^2 ds (trapezoidal)
    moment_alpha: float = 0.0   # latest int rho |u|^alpha
    min_eig_tau: float = np.inf
    _last_t: float | None = field(default=None, repr=False)
    _last_linf_sq: float = field(default=0.0, repr=False)


def _tau_eigs(state: State) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper eigenvalue of the symmetric 2x2 stress per cell."""
    mid = 0.5 * (state.t11 + state.t22)
    rad = np.sqrt(0.25 * (state.t11 - state.t22) ** 2 + state.t12 ** 2)
    return mid - rad, mid + rad


def linf_tau(state: State) -> float:
    """sup over cells of the spectral norm of the symmetric 2x2 stress."""
    lo, hi = _tau_eigs(state)
    return float(np.max(np.maximum(np.abs(hi), np.abs(lo))))


def min_eig_tau(state: State) -> tuple[float, tuple[int, int]]:
    """Minimum eigenvalue of T over cells and the cell attaining it."""
    eig = _tau_eigs(state)[0]
    idx = np.unravel_index(np.argmin(eig), eig.shape)
    return float(eig[idx]), (int(idx[0]), int(idx[1]))


def velocity_moment(state: State, alpha: float) -> float:
    """int rho |u|^alpha with the admissible window 2 < alpha <= 3."""
    if not 2.0 < alpha <= 3.0:
        raise ValueError(f"alpha must lie in (2, 3], got {alpha}")
    ux, uy = state.velocity(1e-300)
    speed = np.sqrt(ux ** 2 + uy ** 2)
    return integrate_array(state.rho * np.power(speed, alpha), state.grid)


def blowup_monitor(state: State, report: BlowupReport,
                   alpha: float) -> BlowupReport:
    """Update the running monitors with one state and return the report.
    Only sup_rho may stop a run, and ``run_simulation`` alone decides that."""
    state.check_finite()
    report.sup_rho = max(report.sup_rho, float(np.max(state.rho)))
    report.sup_eta = max(report.sup_eta, float(np.max(state.eta)))
    linf_sq = linf_tau(state) ** 2
    if report._last_t is not None:
        dt = state.t - report._last_t
        report.l2t_linf_tau += 0.5 * dt * (report._last_linf_sq + linf_sq)
    report._last_t = state.t
    report._last_linf_sq = linf_sq
    report.moment_alpha = velocity_moment(state, alpha)
    report.min_eig_tau = min(report.min_eig_tau, min_eig_tau(state)[0])
    return report
