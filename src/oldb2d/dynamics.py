"""Semi-discrete right-hand sides, time-step control and the explicit
SSP-RK2 integrator.

Advective fluxes use MUSCL/minmod upwinding; diffusion, pressure and
elastic terms use central stencils. Boundary conditions enter through the
ghost-extension rules (periodic wrap, or odd/even reflection for no-slip
velocity and zero-flux scalars).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .constitutive import ModelParams, polymer_pressure_q, pressure
from .fields import (advective_div_array, dissipation_density,
                     face_velocities, integrate_array, laplacian_array, pad1,
                     upper_convected_source, velocity_gradient)
from .grid import extend
from .state import Accumulators, NumericalError, State, Trajectory


class BlowupAbort(RuntimeError):
    """Raised when a blow-up monitor crosses its configured threshold."""

    def __init__(self, monitor: str, value: float, threshold: float):
        super().__init__(f"blow-up monitor {monitor} crossed threshold: "
                         f"{value:g} > {threshold:g}")
        self.monitor = monitor
        self.value = value
        self.threshold = threshold


#: the most steps a run takes: one that has not reached t_end by then fails
#: before its next step
MAX_STEPS = 10_000_000


@dataclass
class SolverOptions:
    """Step control, the blow-up threshold and the snapshot stride of a run.

    ``resolved`` sets, from the initial state, the floors ``_apply_floors``
    applies to it and after each RK stage: the density floor, 1e-10 times
    the mean initial density, and the tolerance of ``eta`` undershoot clipping.
    """

    cfl: float = 0.4
    dt: float | None = None            # fixed step; None = CFL-adaptive
    sup_rho_threshold: float = np.inf
    snapshot_stride: int = 10
    rho_floor: float = field(default=0.0, init=False)
    eta_clip_tol: float = field(default=0.0, init=False)

    def resolved(self, init: State) -> "SolverOptions":
        out = replace(self)
        out.rho_floor = 1e-10 * float(np.mean(init.rho))
        out.eta_clip_tol = 1e-12 * float(np.max(np.abs(init.eta)))
        return out


#: t -> (fx, fy), arrays that broadcast to the grid
ForceFn = Callable[[float], tuple[np.ndarray, np.ndarray]]
SourceFn = Callable[[float], tuple[np.ndarray, ...]]


def _pad(a: np.ndarray, mode: str) -> np.ndarray:
    # no caller in the package; perfbench/tracer.py wraps this name
    return extend(a, mode, mode, width=1)


def _scaled(c: float, a: np.ndarray) -> np.ndarray:
    """``c * a`` written into ``a``'s buffer."""
    return np.multiply(c, a, out=a)


def _negated(a: np.ndarray) -> np.ndarray:
    """``-a`` written into ``a``'s buffer."""
    return np.negative(a, out=a)


def compute_rhs(state: State, prm: ModelParams,
                force: tuple[np.ndarray, np.ndarray] | None = None,
                sources: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, ...]:
    """Semi-discrete RHS of the full system at the state's own time.

    Each of the 7 outputs is accumulated in place in the buffer of its
    first term, term by term in the order its formula is written, so its
    bits are those of the plain left-to-right expression. The terms are
    built in the order that lets each padded plane and the velocity
    gradient be freed after its last use: the upper-convected source right
    after the gradient, then momentum, the stresses, and continuity and eta
    last. Momentum takes its terms one padded plane at a time, the two
    components together: advection, the pressure plane, the velocity
    planes' Laplacians, the div u plane, and only then the stress planes,
    which the stresses reuse. The memory held above the input state peaks
    at 15.3 planes of the grid at 256^2 (16.4 at 64^2, where the ghost
    layers weigh more), the outputs included.
    """
    grid = state.grid
    dx, dy = grid.dx, grid.dy

    rho, mx, my, eta = state.rho, state.mx, state.my, state.eta
    t11, t12, t22 = state.t11, state.t12, state.t22
    ux, uy = state.velocity()
    uf, vf = face_velocities(ux, uy, grid)

    # velocity gradient: the upper-convected stress source and div u
    pux, puy = pad1(ux, grid, "odd"), pad1(uy, grid, "odd")
    del ux, uy
    gxx, gxy = kernels.ddx(pux, dx), kernels.ddy(pux, dy)
    gyx, gyy = kernels.ddx(puy, dx), kernels.ddy(puy, dy)
    uc11, uc12, uc22 = upper_convected_source(gxx, gxy, gyx, gyy, t11, t12, t22)
    gxx += gyy  # div u
    pdiv = pad1(gxx, grid, "generic")
    del gxx, gxy, gyx, gyy

    # momentum: advection + pressure/polymer-pressure gradients + viscosity
    # + elastic stress divergence
    dmx = _negated(advective_div_array(mx, uf, vf, grid, "odd"))
    dmy = _negated(advective_div_array(my, uf, vf, grid, "odd"))
    pp = pad1(pressure(rho, prm) + polymer_pressure_q(eta, prm), grid, "even")
    dmx -= kernels.ddx(pp, dx)
    dmy -= kernels.ddy(pp, dy)
    del pp
    dmx += _scaled(prm.mu, kernels.laplacian(pux, dx, dy))
    dmy += _scaled(prm.mu, kernels.laplacian(puy, dx, dy))
    del pux, puy
    dmx += _scaled(prm.nu, kernels.ddx(pdiv, dx))
    dmy += _scaled(prm.nu, kernels.ddy(pdiv, dy))
    del pdiv
    p11, p12, p22 = (pad1(t11, grid, "even"), pad1(t12, grid, "even"),
                     pad1(t22, grid, "even"))
    dmx += kernels.ddx(p11, dx)
    dmx += kernels.ddy(p12, dy)
    dmy += kernels.ddx(p12, dx)
    dmy += kernels.ddy(p22, dy)
    if force is not None:
        fx, fy = force
        dmx += rho * fx
        dmy += rho * fy

    # extra stress: conservative advection, upper-convected deformation,
    # diffusion, relaxation toward k eta I
    relax = 1.0 / (2.0 * prm.lam)
    dt11 = _negated(advective_div_array(t11, uf, vf, grid, "even"))
    dt11 += uc11
    dt11 += _scaled(prm.eps, kernels.laplacian(p11, dx, dy))
    dt11 += _scaled(relax, prm.k * eta - t11)
    del uc11, p11
    dt12 = _negated(advective_div_array(t12, uf, vf, grid, "even"))
    dt12 += uc12
    dt12 += _scaled(prm.eps, kernels.laplacian(p12, dx, dy))
    dt12 -= relax * t12
    del uc12, p12
    dt22 = _negated(advective_div_array(t22, uf, vf, grid, "even"))
    dt22 += uc22
    dt22 += _scaled(prm.eps, kernels.laplacian(p22, dx, dy))
    dt22 += _scaled(relax, prm.k * eta - t22)
    del uc22, p22

    # continuity and polymer density
    drho = _negated(advective_div_array(rho, uf, vf, grid, "even"))
    deta = _negated(advective_div_array(eta, uf, vf, grid, "even"))
    deta += _scaled(prm.eps, laplacian_array(eta, grid, "even"))

    out = (drho, dmx, dmy, deta, dt11, dt12, dt22)
    if sources is not None:
        for o, s in zip(out, sources):
            o += s
    return out


def cfl_dt(state: State, prm: ModelParams, cfl: float) -> float:
    """Advective and diffusive step limits combined.

    dt = cfl * min( dx/(|u|+c_s), dy/(|v|+c_s),
                    dx^2 / (4 max(eps, mu/rho_min, (mu+nu)/rho_min)), same in y )
    with sound speed c_s = sqrt(gamma p / rho).
    """
    grid = state.grid
    rho = state.rho
    ux, uy = state.velocity()
    cs = np.sqrt(prm.gamma * pressure(rho, prm) / rho)
    speed_x = np.max(np.abs(ux) + cs)
    speed_y = np.max(np.abs(uy) + cs)
    adv_x = grid.dx / speed_x
    adv_y = grid.dy / speed_y
    rho_min = np.min(rho)  # a numpy scalar: mu / 0 is inf, not ZeroDivisionError
    diff = max(prm.eps, prm.mu / rho_min, (prm.mu + prm.nu) / rho_min)
    diff_x = grid.dx ** 2 / (4.0 * diff)
    diff_y = grid.dy ** 2 / (4.0 * diff)
    dt = cfl * min(adv_x, adv_y, diff_x, diff_y)
    if not dt > 0:
        diffusivity = f"max(eps, mu/rho_min, (mu+nu)/rho_min) = {diff:g}"
        causes = [f"{name} limit is {val:g} ({cause})" for name, val, cause in (
            ("advective x", adv_x, f"max |u| + c_s = {speed_x:g}"),
            ("advective y", adv_y, f"max |v| + c_s = {speed_y:g}"),
            ("diffusive x", diff_x, diffusivity),
            ("diffusive y", diff_y, diffusivity)) if not val > 0]
        head = "time step is nan" if np.isnan(dt) else f"nonpositive time step {dt:g}"
        raise NumericalError(
            f"{head} at t={state.t:g}: "
            + ("; ".join(causes) or "cfl * min of the limits underflows"))
    return float(dt)


def start_state(init: State, opts: SolverOptions) -> State:
    """The state a run of ``init`` starts from: a copy that
    ``_apply_floors`` (``opts`` resolved on ``init``) floors, as it does
    every RK stage."""
    state = init.copy()
    _apply_floors(state.arrays(), opts, state.t, "initial state")
    return state


def _apply_floors(arrays: Sequence[np.ndarray], opts: SolverOptions,
                  t: float, stage: str) -> None:
    """Floor rho, and clip eta undershoots within the tolerance to 0; an
    undershoot beyond it is named by its cell, ``t`` and ``stage``."""
    rho, eta = arrays[0], arrays[3]
    np.maximum(rho, opts.rho_floor, out=rho)
    emin = float(np.min(eta))
    if -emin > opts.eta_clip_tol:
        i, j = np.unravel_index(np.argmin(eta), eta.shape)
        raise NumericalError(
            f"eta undershoot {emin:g} exceeds clip tolerance {opts.eta_clip_tol:g} "
            f"at cell ({i}, {j}), t={t:g}, {stage}")
    if emin < 0.0:
        np.maximum(eta, 0.0, out=eta)


def step_ssprk2(state: State, dt: float, prm: ModelParams, opts: SolverOptions,
                force_fn: ForceFn | None = None,
                source_fn: SourceFn | None = None) -> State:
    """One two-stage SSP Runge-Kutta step; returns the new state."""
    grid = state.grid

    def rhs(s: State) -> tuple[np.ndarray, ...]:
        return compute_rhs(s, prm, force_fn(s.t) if force_fn else None,
                           source_fn(s.t) if source_fn else None)

    # the first stage a + dt da is written into the planes of its RHS, so
    # a step allocates no state planes of its own
    stage1 = list(rhs(state))
    for a, da in zip(state.arrays(), stage1):
        _scaled(dt, da)
        da += a
    _apply_floors(stage1, opts, state.t + dt, "RK stage 1")
    s1 = State(grid, state.t + dt, *stage1)
    s1.check_finite()

    # the final stage 0.5 a + 0.5 (b + dt db) overwrites the transient s1
    final = list(s1.arrays())
    for a, b, db in zip(state.arrays(), final, rhs(s1)):
        b += _scaled(dt, db)
        _scaled(0.5, b)
        b += np.multiply(0.5, a, out=db)
    _apply_floors(final, opts, state.t + dt, "RK stage 2")
    out = State(grid, state.t + dt, *final)
    out.check_finite()
    return out


def balance_rates(state: State, prm: ModelParams,
                  force: tuple[np.ndarray, np.ndarray] | None = None) -> tuple:
    """Instantaneous integrands of the energy-balance accumulators, in the
    order of the fields of :class:`Accumulators`, and the velocity gradient
    they were computed from, that of ``state.velocity()``."""
    grid, eta = state.grid, state.eta
    ux, uy = state.velocity()
    grad_u = velocity_gradient(ux, uy, grid)
    visc, bracket = dissipation_density(grad_u, np.sqrt(eta), eta, grid, prm)
    visc = integrate_array(visc, grid)
    poly = 2.0 * prm.eps * integrate_array(bracket, grid)

    relax = integrate_array(state.t11 + state.t22, grid) / (4.0 * prm.lam)
    src_eta = prm.k * 2 / (4.0 * prm.lam) * integrate_array(eta, grid)
    src_f = 0.0
    if force is not None:
        src_f = integrate_array(state.rho * (force[0] * ux + force[1] * uy), grid)
    return (visc, poly, relax, src_f, src_eta), grad_u


# every non-finite value a step makes is caught by check_finite or
# _apply_floors, which name the field; numpy's warnings would only precede them
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_simulation(init: State, prm: ModelParams, t_end: float,
                   opts: SolverOptions | None = None,
                   force_fn: ForceFn | None = None,
                   source_fn: SourceFn | None = None,
                   step_callback=None, *, sink=None) -> Trajectory:
    """Integrate a copy of ``init`` to t_end, accumulating energy-balance
    integrals with the trapezoidal rule and adding snapshots at the
    configured stride to a trajectory with ``sink`` (see
    :class:`Trajectory`), which is returned. Every state a sink is handed
    is finite, has rho >= ``opts.rho_floor`` and eta >= 0 (``start_state``
    and every RK stage apply ``_apply_floors``) and a time above the last
    snapshot's; each, t = 0 included, comes with the velocity gradient its
    energy balance used, so a sink need not recompute it.

    Raises :class:`BlowupAbort` when sup rho crosses the configured
    threshold, after adding the crossing state, and :class:`NumericalError`
    when a step fails; either way the sink already holds the run so far.
    """
    opts = (opts or SolverOptions()).resolved(init)
    traj = Trajectory(init.grid, sink)
    acc = Accumulators()
    state = start_state(init, opts)
    state.check_finite()
    rates, grad_u = balance_rates(state, prm,
                                  force_fn(state.t) if force_fn else None)
    traj.add(state, acc, grad_u=grad_u)
    t_stop = t_end - 1e-14 * max(t_end, 1.0)
    nstep = 0
    while state.t < t_stop:
        if nstep >= MAX_STEPS:
            raise NumericalError(f"exceeded max_steps={MAX_STEPS} before t_end")
        grad_u = None  # not held through the step
        dt = opts.dt if opts.dt is not None else cfl_dt(state, prm, opts.cfl)
        dt = min(dt, t_end - state.t)
        if not state.t + dt > state.t:
            raise NumericalError(f"time step dt={dt:g} does not advance t={state.t:g}")
        state = step_ssprk2(state, dt, prm, opts, force_fn, source_fn)
        traj.states.clear()  # stepped past: a stride > 1 pins no stale state

        new_rates, grad_u = balance_rates(state, prm,
                                          force_fn(state.t) if force_fn else None)
        acc = Accumulators(*(a + 0.5 * dt * (r + q) for a, r, q in
                             zip(vars(acc).values(), rates, new_rates)))
        rates = new_rates

        sup_rho = float(np.max(state.rho))
        if sup_rho > opts.sup_rho_threshold:
            traj.add(state, acc, grad_u=grad_u)
            raise BlowupAbort("sup_rho", sup_rho, opts.sup_rho_threshold)

        nstep += 1
        if nstep % opts.snapshot_stride == 0 or state.t >= t_stop:
            traj.add(state, acc, grad_u=grad_u)
        if step_callback is not None:
            step_callback(state, acc)
    return traj
