"""Relative entropies between a candidate trajectory and a reference
("strong") trajectory, the two equivalent forms of the remainder functional,
the relative-entropy inequality residual, and the Gronwall decay experiment.

The relative entropies take a (state, ref) pair. Both remainder forms and
the relative dissipation take the pair's :class:`RemainderInputs` instead,
which :func:`remainder_inputs` checks and builds once, so every consumer
of one snapshot shares its velocity, gradient and square-root planes.

The reference must be strictly positive in density and polymer density,
the candidate nonnegative (as every state a run hands its sink is); the
reference's time derivatives are formed by centered differences of
adjacent snapshots (one-sided second order at the ends).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import (ModelParams, bregman_G, bregman_H,
                           polymer_potential_G_prime, polymer_pressure_q,
                           polymer_pressure_q_prime, potential_H_prime,
                           pressure, pressure_prime)
from .diagnostics import _stress_balance
from .fields import (dissipation_density, frob_ip, grad_array, integrate_array,
                     laplacian_array, velocity_gradient)
from .grid import Grid, require_same_grid
from .state import NumericalError, State


def require_shared_times(times, ref: RefTrajectory) -> None:
    """Raise unless snapshot times ``times`` are the reference's."""
    if len(times) != len(ref) or not all(ref.shares_time(i, t)
                                         for i, t in enumerate(times)):
        raise NumericalError("trajectories must share snapshot times")


def _check_positive_ref(ref: State) -> None:
    if np.min(ref.rho) <= 0:
        raise NumericalError("reference density must be strictly positive")
    if np.min(ref.eta) <= 0:
        raise NumericalError("reference polymer density must be strictly positive")


# --- relative entropies ----------------------------------------------------


def rel_entropy_E1(state: State, ref: State, prm: ModelParams) -> float:
    """Kinetic + pressure-potential relative entropy
    int 1/2 rho |u - u~|^2 + bregman_H(rho, rho~)."""
    require_same_grid(state, ref)
    ux, uy = state.velocity()
    tux, tuy = ref.velocity()
    kin = 0.5 * state.rho * ((ux - tux) ** 2 + (uy - tuy) ** 2)
    return integrate_array(kin + bregman_H(state.rho, ref.rho, prm), state.grid)


def rel_entropy_E2(state: State, ref: State, prm: ModelParams) -> float:
    require_same_grid(state, ref)
    return integrate_array(bregman_G(state.eta, ref.eta, prm), state.grid)


def stress_distance_ET(state: State, ref: State) -> float:
    """int 1/2 |T - T~|^2 (Frobenius)."""
    require_same_grid(state, ref)
    d11, d12, d22 = state.t11 - ref.t11, state.t12 - ref.t12, state.t22 - ref.t22
    return integrate_array(0.5 * frob_ip(d11, d12, d22, d11, d12, d22), state.grid)


def combined_E(state: State, ref: State, prm: ModelParams) -> float:
    return (rel_entropy_E1(state, ref, prm) + rel_entropy_E2(state, ref, prm)
            + stress_distance_ET(state, ref))


# --- reference trajectories and their time derivatives ---------------------


def spacing_exceeds_dx(spacing: float, grid: Grid) -> bool:
    """Whether reference snapshots ``spacing`` apart are too sparse: the
    spacing must not exceed dx (up to a relative 1e-12, so a stride times dt
    that rounds to dx passes), so the O(spacing^2) time differencing stays
    subordinate to the O(dx^2) space discretization."""
    return spacing > min(grid.dx, grid.dy) * (1 + 1e-12)


@dataclass
class RefTrajectory:
    """The strong reference solution: the sink its run streams into.

    Keeps every snapshot it is given, after checking strict positivity of
    density and polymer density, so a non-positive reference stops its run
    at the first bad snapshot. Exposes centered-difference time derivatives
    of the quantities the remainder needs (u~, H'(rho~), G'(eta~)), which
    each call evaluates afresh on the snapshots of its window."""

    states: list = field(default_factory=list, init=False)

    def __call__(self, state: State, acc=None, grad_u=None) -> None:
        """Keep one snapshot; the accumulators and gradient go unused."""
        _check_positive_ref(state)
        self.states.append(state)

    def __len__(self) -> int:
        return len(self.states)

    def state(self, i: int) -> State:
        return self.states[i]

    def shares_time(self, i: int, t: float) -> bool:
        """Whether snapshot i exists and lies exactly at time t (runs that
        step from t = 0 by the same dt share their times bit for bit)."""
        return i < len(self) and t == self.states[i].t

    def time_derivs(self, i: int, prm: ModelParams) -> dict:
        """d/dt of (u~, H'(rho~), G'(eta~)) at snapshot i, second order
        (a difference quotient for a two-snapshot reference)."""
        n = len(self)
        if n < 2:
            raise NumericalError("reference needs at least two snapshots")
        # the 3-snapshot window: centered at i, shifted inward at the ends
        lo = max(min(i - 1, n - 3), 0)
        window = self.states[lo:lo + 3]
        q = [(*s.velocity(), potential_H_prime(s.rho, prm),
              polymer_potential_G_prime(s.eta, prm)) for s in window]
        if n == 2:
            dt = window[1].t - window[0].t
            d = tuple((b - a) / dt for a, b in zip(*q))
            return dict(zip(("dut_x", "dut_y", "dHp", "dGp"), d))
        t0, t1, t2 = (s.t for s in window)
        h1, h2 = t1 - t0, t2 - t1
        if 0 < i < n - 1:
            # centered over a possibly nonuniform stencil
            c0 = -h2 / (h1 * (h1 + h2))
            c1 = (h2 - h1) / (h1 * h2)
            c2 = h1 / (h2 * (h1 + h2))
        elif i == 0:
            c0 = -(2 * h1 + h2) / (h1 * (h1 + h2))
            c1 = (h1 + h2) / (h1 * h2)
            c2 = -h1 / (h2 * (h1 + h2))
        else:
            c0 = h2 / (h1 * (h1 + h2))
            c1 = -(h1 + h2) / (h1 * h2)
            c2 = (h1 + 2 * h2) / (h2 * (h1 + h2))
        d = tuple(c0 * a + c1 * b + c2 * c for a, b, c in zip(*q))
        return dict(zip(("dut_x", "dut_y", "dHp", "dGp"), d))


@dataclass(frozen=True)
class RemainderInputs:
    """The planes of a (candidate, reference) pair that both remainder
    forms and the relative dissipation share, built once by
    :func:`remainder_inputs`. Its consumers only read them: a row hands
    one bundle to several of them."""

    state: State
    ref: State
    u: tuple            # (ux, uy)
    tu: tuple           # (u~x, u~y)
    du: tuple           # u~ - u
    grad_u: tuple       # (gxx, gxy, gyx, gyy), g_ij = d u_i / d x_j
    grad_tu: tuple      # the same of u~
    div_tu: np.ndarray
    sym_du: tuple       # stored planes (11, 12, 22) of sym grad(u~ - u)
    sq_eta: np.ndarray
    grad_sq_eta: tuple
    sq_teta: np.ndarray
    grad_sq_teta: tuple


def remainder_inputs(state: State, ref: State) -> RemainderInputs:
    """Check the pair (same grid, strictly positive reference) and build
    the planes it shares."""
    require_same_grid(state, ref)
    _check_positive_ref(ref)
    grid = state.grid
    ux, uy = state.velocity()
    tux, tuy = ref.velocity()
    g, gt = velocity_gradient(ux, uy, grid), velocity_gradient(tux, tuy, grid)
    (gxx, gxy, gyx, gyy), (gtxx, gtxy, gtyx, gtyy) = g, gt
    sq, tsq = np.sqrt(state.eta), np.sqrt(ref.eta)
    return RemainderInputs(
        state, ref, (ux, uy), (tux, tuy), (tux - ux, tuy - uy), g, gt,
        gtxx + gtyy, (gtxx - gxx, 0.5 * ((gtxy - gxy) + (gtyx - gyx)), gtyy - gyy),
        sq, grad_array(sq, grid, "even"), tsq, grad_array(tsq, grid, "even"))


# --- remainder, definitional form (five terms) -----------------------------


def remainder_R_def(pair: RemainderInputs, ref_derivs: dict, prm: ModelParams,
                    force: tuple[np.ndarray, np.ndarray] | None = None) -> dict:
    """The five remainder integrals of ``pair`` in their defining form,
    with the reference time derivatives supplied externally (see
    RefTrajectory).

    Returns {"R1", ..., "R5", "total"}.
    """
    state, ref = pair.state, pair.ref
    (ux, uy), (tux, tuy), (dux, duy) = pair.u, pair.tu, pair.du
    (gxx, gxy, gyx, gyy), (gtxx, gtxy, gtyx, gtyy) = pair.grad_u, pair.grad_tu
    div_tu, (s11, s12, s22) = pair.div_tu, pair.sym_du
    sq_eta, (gsx, gsy) = pair.sq_eta, pair.grad_sq_eta
    sq_teta, (gtsx, gtsy) = pair.sq_teta, pair.grad_sq_teta
    grid = state.grid
    rho, eta = state.rho, state.eta
    trho, teta = ref.rho, ref.eta

    # R1: momentum-equation pairing
    adv_x = state.rho * (ref_derivs["dut_x"] + ux * gtxx + uy * gtxy)
    adv_y = state.rho * (ref_derivs["dut_y"] + ux * gtyx + uy * gtyy)
    r1 = integrate_array(adv_x * dux + adv_y * duy, grid)
    r1 += integrate_array(
        prm.mu * (gtxx * s11 + gtxy * (gtxy - gxy)
                  + gtyx * (gtyx - gyx) + gtyy * s22)
        + prm.nu * div_tu * (s11 + s22), grid)
    if force is not None:
        r1 += integrate_array(state.rho * (force[0] * (-dux) + force[1] * (-duy)), grid)
    hp_x, hp_y = grad_array(potential_H_prime(trho, prm), grid, "generic")
    r1 += integrate_array(
        (trho - rho) * ref_derivs["dHp"]
        + (trho * tux - rho * ux) * hp_x + (trho * tuy - rho * uy) * hp_y, grid)
    r1 += integrate_array(div_tu * (pressure(trho, prm) - pressure(rho, prm)), grid)

    # R2: polymer-density pairing
    gp_x, gp_y = grad_array(polymer_potential_G_prime(teta, prm), grid, "generic")
    r2 = integrate_array(
        (teta - eta) * ref_derivs["dGp"]
        + (teta * tux - eta * ux) * gp_x + (teta * tuy - eta * uy) * gp_y, grid)
    r2 += integrate_array(div_tu * (polymer_pressure_q(teta, prm)
                                    - polymer_pressure_q(eta, prm)), grid)

    # R3/R4: cross terms of the eta dissipation
    cross = (gtsx * (gsx - gtsx) + gtsy * (gsy - gtsy)
             + (gsx * gtsx + gsy * gtsy) * (1.0 - sq_eta / sq_teta))
    r3 = -4.0 * prm.eps * prm.kL * integrate_array(cross, grid)
    gex, gey = grad_array(eta, grid, "even")
    gtex, gtey = grad_array(teta, grid, "even")
    r4 = -2.0 * prm.eps * prm.zfrak * integrate_array(
        gtex * (gex - gtex) + gtey * (gey - gtey), grid)

    # R5: elastic stress against the velocity-difference gradient
    # T : grad(w) equals T : sym(grad w) for symmetric T
    r5 = integrate_array(frob_ip(state.t11, state.t12, state.t22, s11, s12, s22),
                         grid)
    out = {"R1": r1, "R2": r2, "R3": r3, "R4": r4, "R5": r5}
    out["total"] = r1 + r2 + r3 + r4 + r5
    return out


# --- remainder, recombined form (eight terms) ------------------------------


def remainder_R_new(pair: RemainderInputs, prm: ModelParams) -> dict:
    """The derivative-free form of the remainder of ``pair``, valid when
    the reference solves the strong system; eight named terms and their
    total.

    Terms: convective, viscous_density, pressure_bregman, polymer_bregman,
    polymer_pressure_grad, stress_div, eta_sqrt_cross, stress_deformation.
    """
    state, ref = pair.state, pair.ref
    (tux, tuy), (dux, duy), (gtxx, gtxy, gtyx, gtyy) = pair.tu, pair.du, pair.grad_tu
    div_tu, sym_du = pair.div_tu, pair.sym_du
    sq_eta, (gsx, gsy) = pair.sq_eta, pair.grad_sq_eta
    sq_teta, (gtsx, gtsy) = pair.sq_teta, pair.grad_sq_teta
    grid = state.grid
    rho, eta = state.rho, state.eta
    trho, teta = ref.rho, ref.eta

    # 1) rho (u - u~) . grad(u~) . (u~ - u)
    t1 = integrate_array(
        rho * (-(dux * gtxx + duy * gtxy) * dux - (dux * gtyx + duy * gtyy) * duy),
        grid)

    # 2) (mu Lap u~ + nu grad div u~) (rho - rho~)/rho~ . (u~ - u)
    lap_tux = laplacian_array(tux, grid, "odd")
    lap_tuy = laplacian_array(tuy, grid, "odd")
    gd_x, gd_y = grad_array(div_tu, grid, "generic")
    fac = (rho - trho) / trho
    t2 = integrate_array(fac * ((prm.mu * lap_tux + prm.nu * gd_x) * dux
                                + (prm.mu * lap_tuy + prm.nu * gd_y) * duy), grid)

    # 3) div u~ * Bregman distance of the pressure potential (times gamma-1
    #    gives the pressure Bregman identity)
    p_breg = (pressure(trho, prm) - pressure(rho, prm)
              - pressure_prime(trho, prm) * (trho - rho))
    t3 = integrate_array(div_tu * p_breg, grid)

    # 4) div u~ * Bregman of the polymer pressure
    q_breg = (polymer_pressure_q(teta, prm) - polymer_pressure_q(eta, prm)
              - polymer_pressure_q_prime(teta, prm) * (teta - eta))
    t4 = integrate_array(div_tu * q_breg, grid)

    # 5) (rho~ - rho)/rho~ grad q(eta~) . (u~ - u)
    gq_x, gq_y = grad_array(polymer_pressure_q(teta, prm), grid, "generic")
    t5 = integrate_array(((trho - rho) / trho) * (gq_x * dux + gq_y * duy), grid)

    # 6) (rho - rho~)/rho~ div T~ . (u~ - u)
    d11x, _ = grad_array(ref.t11, grid, "even")
    d12x, d12y = grad_array(ref.t12, grid, "even")
    _, d22y = grad_array(ref.t22, grid, "even")
    divT_x = d11x + d12y
    divT_y = d12x + d22y
    t6 = integrate_array(((rho - trho) / trho) * (divT_x * dux + divT_y * duy), grid)

    # 7) eps kL [ 4 (1/sqrt(eta~)) (sqrt(eta~)-sqrt(eta)) grad sqrt(eta~) .
    #    grad(sqrt(eta~)-sqrt(eta)) - (Lap eta~ / eta~)(sqrt(eta)-sqrt(eta~))^2 ]
    lap_teta = laplacian_array(teta, grid, "even")
    diff_s = sq_teta - sq_eta
    t7 = prm.eps * prm.kL * integrate_array(
        4.0 / sq_teta * diff_s * (gtsx * (gtsx - gsx) + gtsy * (gtsy - gsy))
        - lap_teta / teta * diff_s ** 2, grid)

    # 8) (T - T~) : grad(u~ - u)
    t8 = integrate_array(frob_ip(state.t11 - ref.t11, state.t12 - ref.t12,
                                 state.t22 - ref.t22, *sym_du), grid)

    out = {"convective": t1, "viscous_density": t2, "pressure_bregman": t3,
           "polymer_bregman": t4, "polymer_pressure_grad": t5,
           "stress_div": t6, "eta_sqrt_cross": t7, "stress_deformation": t8}
    out["total"] = sum(out.values())
    return out


# --- inequality residual ---------------------------------------------------


def relative_dissipation(pair: RemainderInputs, prm: ModelParams) -> float:
    """Instantaneous integrand of the relative dissipation of ``pair``:
    mu |grad(u-u~)|^2 + nu |div(u-u~)|^2
    + 2 eps (2 kL |grad(sqrt eta - sqrt eta~)|^2 + z |grad(eta-eta~)|^2)."""
    (ux, uy), (tux, tuy), grid = pair.u, pair.tu, pair.state.grid
    visc, bracket = dissipation_density(
        velocity_gradient(ux - tux, uy - tuy, grid), pair.sq_eta - pair.sq_teta,
        pair.state.eta - pair.ref.eta, grid, prm)
    return integrate_array(visc + 2.0 * prm.eps * bracket, grid)


def entropy_inequality_terms(pair: RemainderInputs, ref_derivs: dict,
                             prm: ModelParams, force=None) -> tuple:
    """(E1 + E2, relative dissipation, R_def total) of ``pair``, a
    candidate state against the reference snapshot at its time, with the
    reference time derivatives and the body force as
    :func:`remainder_R_def` takes them; see
    :func:`entropy_inequality_series`."""
    state, ref = pair.state, pair.ref
    return (rel_entropy_E1(state, ref, prm) + rel_entropy_E2(state, ref, prm),
            relative_dissipation(pair, prm),
            remainder_R_def(pair, ref_derivs, prm, force)["total"])


def entropy_inequality_series(terms: list, times) -> np.ndarray:
    """residual(t_j) = [E1 + E2](t_j) + diss(0, t_j)
                        - [E1 + E2](0) - int_0^{t_j} R dt
    from the :func:`entropy_inequality_terms` of each snapshot, the time
    integrals by the trapezoidal rule.

    Exactly zero at j = 0; the continuous theorem asserts <= 0, discretely
    the signed value is reported."""
    e12, diss, rem = (np.array([term[k] for term in terms]) for k in range(3))
    dts = np.diff(times)
    diss_cum, rem_cum = (np.concatenate([[0.0], np.cumsum(0.5 * dts * (y[:-1] + y[1:]))])
                         for y in (diss, rem))
    return (e12 - e12[0]) + diss_cum - rem_cum


def entropy_inequality_residual(states: list, ref: RefTrajectory,
                                prm: ModelParams, force_fn=None) -> np.ndarray:
    """:func:`entropy_inequality_series` over a run's snapshots ``states``,
    which must share snapshot times and grid with the reference."""
    times = [s.t for s in states]
    require_shared_times(times, ref)
    return entropy_inequality_series(
        [entropy_inequality_terms(remainder_inputs(s, ref.state(j)),
                                  ref.time_derivs(j, prm), prm,
                                  force_fn(s.t) if force_fn else None)
         for j, s in enumerate(states)], times)


# --- stress distance balance ----------------------------------------------


def stress_distance_balance(states: list, ref: RefTrajectory,
                            prm: ModelParams) -> np.ndarray:
    """Residual of the L2 balance of T - T~ (see diagnostics._stress_balance)
    over a run's snapshots ``states`` at the reference's times."""
    require_shared_times([s.t for s in states], ref)
    return _stress_balance(states, ref.states, prm)


# --- Gronwall decay experiment --------------------------------------------


@dataclass
class GronwallReport:
    times: np.ndarray
    E_series: np.ndarray
    E0: float
    C_hat: float | None
    bounded: bool


def restrict_state(state: State, coarse: Grid) -> State:
    """2x2 block average onto a grid with half the resolution per axis."""
    g = state.grid
    if coarse.nx * 2 != g.nx or coarse.ny * 2 != g.ny:
        raise ValueError("coarse grid must halve the resolution of the fine grid")
    def down(a):
        return 0.25 * (a[0::2, 0::2] + a[1::2, 0::2] + a[0::2, 1::2] + a[1::2, 1::2])
    return State(coarse, state.t, *(down(a) for a in state.arrays()))


def weak_strong_experiment(states: list, ref: RefTrajectory,
                           prm: ModelParams) -> GronwallReport:
    """Combined relative entropy E(t) = E1 + E2 + ET over a run's snapshots
    ``states`` at the reference's times, with the fitted exponential growth
    constant C_hat such that E(t) <= E(0) exp(C_hat t) (least squares on
    log E where E > 0)."""
    times = np.array([s.t for s in states])
    require_shared_times(times, ref)
    series = np.array([combined_E(s, ref.state(j), prm)
                       for j, s in enumerate(states)])
    e0 = float(series[0])
    c_hat = None
    if e0 > 0 and np.all(series > 0) and len(series) > 1:
        # slope of log(E/E0) against t; clamp at 0 (decay still satisfies
        # the Gronwall bound with C_hat = 0)
        logr = np.log(series / e0)
        c_hat = float(max(0.0, np.polyfit(times - times[0], logr, 1)[0]))
    bounded = bool(np.max(series) <= max(10.0 * e0, 1e-30)) if e0 > 0 else \
        bool(np.max(series) <= 1e-20)
    return GronwallReport(times=times, E_series=series, E0=e0,
                          C_hat=c_hat, bounded=bounded)
