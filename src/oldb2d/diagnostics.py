"""A-priori diagnostics over states and runs: energy breakdown,
energy-inequality residual, trace and stress-L2 balance residuals,
blow-up monitors, velocity moments and stress positivity."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import ModelParams, _xlogx, potential_H
from .fields import (advective_div_array, face_velocities, frob_ip,
                     integrate_array, stress_grad_sq, upper_convected_source,
                     velocity_gradient)
from .state import Accumulators, State


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
    rho, eta = state.rho, state.eta
    u2 = (state.mx ** 2 + state.my ** 2) / rho
    kinetic = integrate_array(0.5 * u2, grid)
    pressure_pot = integrate_array(potential_H(rho, prm), grid)
    polymer_pot = integrate_array(prm.kL * (_xlogx(eta) + 1.0) + prm.zfrak * eta ** 2,
                                  grid)
    stress_tr = integrate_array(0.5 * (state.t11 + state.t22), grid)
    return EnergyBreakdown(kinetic, pressure_pot, polymer_pot, stress_tr)


def energy_residual(state: State, acc: Accumulators, e0: float,
                    prm: ModelParams) -> float:
    """[E(t) + visc + poly + relax] - [E(0) + src_f + src_eta] at one
    snapshot, given E(0) and the accumulators at the snapshot's time."""
    e = total_energy(state, prm).total
    return ((e + acc.visc_diss_cum + acc.poly_diss_cum + acc.relax_cum)
            - (e0 + acc.src_f_cum + acc.src_eta_cum))


def energy_inequality_residual(states: list, accumulators: list,
                               prm: ModelParams) -> np.ndarray:
    """:func:`energy_residual` at each of a run's snapshots ``states``, with
    the cumulative terms taken from the accumulators added with them.

    Exactly zero at j = 0; the continuous statement is residual <= 0, the
    signed discrete value is returned."""
    e0 = total_energy(states[0], prm).total
    return np.array([energy_residual(s, acc, e0, prm)
                     for s, acc in zip(states, accumulators)])


def _ddt(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Centered time derivative, one-sided second order at the endpoints."""
    if len(times) < 2:
        return np.zeros_like(np.asarray(series, dtype=np.float64))
    return np.gradient(series, times, edge_order=2 if len(times) > 2 else 1)


def trace_identity_terms(state: State, prm: ModelParams,
                         grad_u: tuple) -> tuple[float, float]:
    """int 1/2 tr T and int [(k/2 lambda) eta + T : grad u] - (1/4 lambda)
    int tr T at one state, given ``grad_u``, the gradient of
    ``state.velocity()``; see :func:`trace_identity_series`."""
    grid = state.grid
    tr = state.t11 + state.t22
    gxx, gxy, gyx, gyy = grad_u
    t_gradu = state.t11 * gxx + state.t12 * (gxy + gyx) + state.t22 * gyy
    return (integrate_array(0.5 * tr, grid),
            integrate_array(prm.k / (2.0 * prm.lam) * state.eta + t_gradu, grid)
            - integrate_array(tr, grid) / (4.0 * prm.lam))


def trace_identity_series(terms: list, times) -> np.ndarray:
    """d/dt int 1/2 tr T + (1/4 lambda) int tr T
       - int [(k/2 lambda) eta + T : grad u]  ~ 0
    from the :func:`trace_identity_terms` of each snapshot."""
    half_tr, rhs = (np.array([term[k] for term in terms]) for k in (0, 1))
    return _ddt(half_tr, np.asarray(times)) - rhs


def trace_identity_residual(states: list, prm: ModelParams) -> np.ndarray:
    """:func:`trace_identity_series` over a run's snapshots ``states``."""
    return trace_identity_series(
        [trace_identity_terms(s, prm, velocity_gradient(*s.velocity(), s.grid))
         for s in states], [s.t for s in states])


def _stress_balance(states: list, refs, prm: ModelParams) -> np.ndarray:
    """Residual of the L2 balance of D = T - T~ against one reference state
    per snapshot of a run's ``states``:

    d/dt int 1/2|D|^2 + eps int |grad D|^2 + (1/2 lambda) int |D|^2
      = -int [Div(uT) - Div(u~T~)] : D
        + int [(grad u T + T grad u^T) - (grad u~ T~ + T~ grad u~^T)] : D
        + (k/2 lambda) int (eta - eta~) tr D.

    Time derivative by centered differences (one-sided at the ends)."""
    grid = states[0].grid
    n = len(states)
    half_d2 = np.empty(n)
    rhs = np.empty(n)
    for j, (s, r) in enumerate(zip(states, refs)):
        d11, d12, d22 = s.t11 - r.t11, s.t12 - r.t12, s.t22 - r.t22
        d2 = frob_ip(d11, d12, d22, d11, d12, d22)
        half_d2[j] = integrate_array(0.5 * d2, grid)
        decay = (prm.eps * integrate_array(stress_grad_sq(d11, d12, d22, grid), grid)
                 + integrate_array(d2, grid) / (2.0 * prm.lam))

        ux, uy = s.velocity()
        tux, tuy = r.velocity()
        uf, vf = face_velocities(ux, uy, grid)
        tf, sf = face_velocities(tux, tuy, grid)
        adv = 0.0
        for (a, b, w) in ((s.t11, r.t11, 1.0), (s.t12, r.t12, 2.0), (s.t22, r.t22, 1.0)):
            da = (advective_div_array(a, uf, vf, grid, "even")
                  - advective_div_array(b, tf, sf, grid, "even"))
            adv += w * integrate_array(da * (a - b), grid)

        w11, w12, w22 = upper_convected_source(*velocity_gradient(ux, uy, grid),
                                               s.t11, s.t12, s.t22)
        v11, v12, v22 = upper_convected_source(*velocity_gradient(tux, tuy, grid),
                                               r.t11, r.t12, r.t22)
        deform = integrate_array(
            frob_ip(w11 - v11, w12 - v12, w22 - v22, d11, d12, d22), grid)

        relaxsrc = (prm.k / (2.0 * prm.lam)) * integrate_array(
            (s.eta - r.eta) * (d11 + d22), grid)
        rhs[j] = -adv + deform + relaxsrc - decay

    return _ddt(half_d2, np.array([s.t for s in states])) - rhs


def stress_l2_balance_residual(states: list, prm: ModelParams) -> np.ndarray:
    """The a-priori stress L2 estimate: the stress-distance balance against
    the state at rest with zero stress and zero polymer density, where
    every subtraction of the reference is exact."""
    rest = State.uniform(states[0].grid, 1.0, 0.0)
    return _stress_balance(states, [rest] * len(states), prm)


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


def linf_tau(lo: np.ndarray, hi: np.ndarray) -> float:
    """sup over cells of the spectral norm of the symmetric 2x2 stress,
    from its :func:`_tau_eigs` planes."""
    return float(np.max(np.maximum(np.abs(hi), np.abs(lo))))


def min_eig_tau(lo: np.ndarray) -> float:
    """Minimum eigenvalue of T over cells, from its lower :func:`_tau_eigs`
    plane."""
    # the first least element, not np.min's: it fixes the sign of a zero
    return float(lo.flat[np.argmin(lo)])


def velocity_moment(state: State, alpha: float) -> float:
    """int rho |u|^alpha with the admissible window 2 < alpha <= 3."""
    if not 2.0 < alpha <= 3.0:
        raise ValueError(f"alpha must lie in (2, 3], got {alpha}")
    ux, uy = state.velocity()
    speed = np.sqrt(ux ** 2 + uy ** 2)
    return integrate_array(state.rho * np.power(speed, alpha), state.grid)


def blowup_monitor(state: State, report: BlowupReport,
                   alpha: float) -> BlowupReport:
    """Update the running monitors with one state and return the report.
    Only sup_rho may stop a run, and ``run_simulation`` alone decides that."""
    report.sup_rho = max(report.sup_rho, float(np.max(state.rho)))
    report.sup_eta = max(report.sup_eta, float(np.max(state.eta)))
    lo, hi = _tau_eigs(state)
    linf_sq = float(np.float64(linf_tau(lo, hi)) ** 2)
    if report._last_t is not None:
        dt = state.t - report._last_t
        report.l2t_linf_tau += 0.5 * dt * (report._last_linf_sq + linf_sq)
    report._last_t = state.t
    report._last_linf_sq = linf_sq
    report.moment_alpha = velocity_moment(state, alpha)
    report.min_eig_tau = min(report.min_eig_tau, min_eig_tau(lo))
    return report
