"""Time integration: fixed points, conservation, relaxation, floors and
blow-up handling."""

import tracemalloc
import weakref

import numpy as np
import pytest

from oldb2d import dynamics
from oldb2d.dynamics import (BlowupAbort, SolverOptions, _apply_floors, cfl_dt,
                             compute_rhs, run_simulation, step_ssprk2)
from oldb2d.fields import integrate_array
from oldb2d.grid import Grid
from oldb2d.state import NumericalError, State

from conftest import Keep, periodic_grid, physical_grid, smooth_state


@pytest.mark.parametrize("mode", ["periodic", "physical"])
def test_uniform_equilibrium_is_fixed_point(mode, prm):
    g = periodic_grid(16) if mode == "periodic" else physical_grid(16)
    s = State.uniform(g, 1.2, 0.8, k=prm.k)
    traj = run_simulation(s, prm, 0.05, SolverOptions(dt=1e-3))
    for a, b in zip(traj.final.arrays(), s.arrays()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["periodic", "physical"])
def test_mass_and_eta_conservation(mode, prm):
    g = periodic_grid(24) if mode == "periodic" else physical_grid(24)
    s = smooth_state(g, prm) if mode == "periodic" else _walled(g, prm)
    m0 = integrate_array(s.rho, g)
    e0 = integrate_array(s.eta, g)
    traj = run_simulation(s, prm, 0.02, SolverOptions(dt=2e-4))
    assert integrate_array(traj.final.rho, g) == pytest.approx(m0, rel=1e-13)
    assert integrate_array(traj.final.eta, g) == pytest.approx(e0, rel=1e-13)


def _walled(g, prm):
    # zero-velocity variant so the no-slip walls see compatible data
    s = smooth_state(g, prm)
    s.mx[:] = 0.0
    s.my[:] = 0.0
    return s


def test_relaxation_matches_ode_oracle(prm):
    g = periodic_grid(8)
    T0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    s = State.uniform(g, 1.0, 0.0, tau0=T0)
    t_end = 0.4
    traj = run_simulation(s, prm, t_end, SolverOptions(dt=1e-3))
    ex = T0 * np.exp(-traj.final.t / (2 * prm.lam))  # dT/dt = -T / (2 lam)
    assert traj.final.t11[0, 0] == pytest.approx(ex[0, 0], rel=1e-5)
    assert traj.final.t12[0, 0] == pytest.approx(ex[0, 1], rel=1e-5)
    assert traj.final.t22[0, 0] == pytest.approx(ex[1, 1], rel=1e-5)


def test_stress_symmetry_is_structural(prm):
    # only three planes are stored and evolved; symmetry cannot drift
    g = periodic_grid(16)
    s = smooth_state(g, prm)
    traj = run_simulation(s, prm, 0.01, SolverOptions(dt=2e-4))
    assert traj.final.t12 is not None and traj.final.t12.shape == g.shape


def test_cfl_dt_positive_and_scales(prm):
    g = periodic_grid(32)
    s = smooth_state(g, prm)
    dt1 = cfl_dt(s, prm, cfl=0.4)
    dt2 = cfl_dt(s, prm, cfl=0.2)
    assert dt1 > 0 and dt2 == pytest.approx(dt1 / 2)
    g2 = periodic_grid(64)
    s2 = smooth_state(g2, prm)
    # diffusion-limited regime: halving dx quarters the step
    assert cfl_dt(s2, prm, 0.4) == pytest.approx(dt1 / 4, rel=0.2)


def test_cfl_dt_names_a_vanishing_diffusive_limit(prm):
    s = State.uniform(periodic_grid(8), 1.0, 1.0, k=prm.k)
    s.rho[3, 4] = 5e-324  # mu / rho_min overflows to inf
    with pytest.raises(NumericalError) as ei, np.errstate(all="ignore"):
        cfl_dt(s, prm, 0.4)
    diff = "(max(eps, mu/rho_min, (mu+nu)/rho_min) = inf)"
    assert str(ei.value) == ("nonpositive time step 0 at t=0: "
                             f"diffusive x limit is 0 {diff}; "
                             f"diffusive y limit is 0 {diff}")


def test_cfl_dt_names_a_nan_time_step(prm):
    s = State.uniform(periodic_grid(8), 1.0, 1.0, k=prm.k)
    s.rho[3, 4] = 0.0  # c_s = sqrt(0 / 0) is nan, mu / rho_min is inf
    with pytest.raises(NumericalError) as ei, np.errstate(all="ignore"):
        cfl_dt(s, prm, 0.4)
    diff = "(max(eps, mu/rho_min, (mu+nu)/rho_min) = inf)"
    assert str(ei.value) == ("time step is nan at t=0: "
                             "advective x limit is nan (max |u| + c_s = nan); "
                             "advective y limit is nan (max |v| + c_s = nan); "
                             f"diffusive x limit is 0 {diff}; "
                             f"diffusive y limit is 0 {diff}")


def test_eta_clipping_and_undershoot_error(prm):
    g = periodic_grid(8)
    # derived tolerance 1e-12 * max|eta0| = 1e-6
    opts = SolverOptions().resolved(State.uniform(g, 1.0, 1e6, k=prm.k))
    assert opts.eta_clip_tol == pytest.approx(1e-6)
    rho = np.ones(g.shape)
    eta = np.ones(g.shape)
    eta[0, 0] = -1e-8  # inside tolerance: set to 0
    arrays = [rho, rho * 0, rho * 0, eta, rho, rho * 0, rho.copy()]
    _apply_floors(arrays, opts, 0.0, "RK stage 1")
    assert arrays[3][0, 0] == 0.0
    eta2 = np.ones(g.shape)
    eta2[0, 0] = -1e-3  # beyond tolerance: hard error
    arrays2 = [rho, rho * 0, rho * 0, eta2, rho, rho * 0, rho.copy()]
    with pytest.raises(NumericalError):
        _apply_floors(arrays2, opts, 0.0, "RK stage 1")


@pytest.mark.parametrize("sink, low, stage, t, last", [
    (100.0, "-0.4744", 1, "0.05", "0.04"), (500.0, "-1.5", 2, "0.04", "0.03")],
    ids=["100.0-1-0.05", "500.0-2-0.04"])
def test_mid_run_eta_undershoot_names_time_cell_and_stage(prm, sink, low, stage,
                                                          t, last):
    # an eta sink at cell (2, 5) from t = 0.04 on, first seen by stage 2 of
    # the step from t = 0.03: the strong sink empties the cell there, the
    # weak one halves it, and stage 1 of the next step empties it. The
    # fixed step is compared with the limit of the state the step left from.
    g = periodic_grid(8)

    def source_fn(time):
        planes = tuple(np.zeros(g.shape) for _ in range(7))
        if time > 0.035:
            planes[3][2, 5] = -sink
        return planes
    with pytest.raises(NumericalError) as ei:
        run_simulation(State.uniform(g, 1.0, 1.0, k=prm.k), prm, 0.1,
                       SolverOptions(dt=0.01), source_fn=source_fn)
    assert str(ei.value) == (
        f"eta undershoot {low} exceeds clip tolerance 1e-12 at cell (2, 5), "
        f"t={t}, RK stage {stage}; the fixed step dt=0.01 is 0.256 times the "
        f"diffusive x step limit 0.0390625 of the state at t={last}")


def test_nonfinite_state_raises(prm):
    g = periodic_grid(8)
    s = State.uniform(g, 1.0, 1.0, k=prm.k)
    s.rho[2, 3] = np.inf
    with pytest.raises(NumericalError) as ei:
        s.check_finite()
    assert "rho" in str(ei.value) and "(2, 3)" in str(ei.value)


def test_blowup_abort_carries_partial_trajectory(prm):
    g = periodic_grid(16)
    s = smooth_state(g, prm)
    X, Y = g.cell_axes()
    fx = -3.0 * np.sin(2 * np.pi * (X - 0.5))
    fy = -3.0 * np.sin(2 * np.pi * (Y - 0.5))
    opts = SolverOptions(dt=5e-4, sup_rho_threshold=1.2 * float(np.max(s.rho)),
                         snapshot_stride=5)
    kept = Keep()
    with pytest.raises(BlowupAbort) as ei:
        run_simulation(s, prm, 5.0, opts, force_fn=lambda t: (fx, fy), sink=kept)
    exc = ei.value
    assert exc.monitor == "sup_rho"
    assert len(kept.states) >= 2
    assert float(np.max(kept.states[-1].rho)) == exc.value
    assert exc.value > exc.threshold


def test_infinite_threshold_never_aborts(prm):
    g = periodic_grid(16)
    s = smooth_state(g, prm)
    traj = run_simulation(s, prm, 0.01, SolverOptions(dt=5e-4))
    assert traj.final.t == pytest.approx(0.01)


def test_step_budget_admits_a_run_that_reaches_t_end(prm, monkeypatch):
    """A run may take exactly MAX_STEPS steps; one that needs another fails
    before taking it, and its sink holds the steps it took."""
    monkeypatch.setattr(dynamics, "MAX_STEPS", 3)
    s = State.uniform(periodic_grid(8), 1.0, 1.0, k=prm.k)
    opts = SolverOptions(dt=0.25, snapshot_stride=1)
    assert run_simulation(s, prm, 0.75, opts).final.t == 0.75
    kept = Keep()
    with pytest.raises(NumericalError, match="exceeded max_steps=3 before t_end"):
        run_simulation(s, prm, 1.0, opts, sink=kept)
    assert [k.t for k in kept.states] == [0.0, 0.25, 0.5, 0.75]


def test_step_is_deterministic(prm):
    g = periodic_grid(16)
    s = smooth_state(g, prm)
    opts = SolverOptions().resolved(s)
    a = step_ssprk2(s, 1e-4, prm, opts)
    b = step_ssprk2(s, 1e-4, prm, opts)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)


def test_trapezoidal_accumulators_monotone(prm):
    g = periodic_grid(16)
    s = smooth_state(g, prm)
    kept = Keep()
    run_simulation(s, prm, 0.02, SolverOptions(dt=2e-4, snapshot_stride=10), sink=kept)
    accs = kept.accumulators
    for key in ("visc_diss_cum", "poly_diss_cum", "relax_cum"):
        vals = [getattr(a, key) for a in accs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0


def test_sink_gets_the_states_the_steps_return(prm, monkeypatch):
    """A run copies only its initial state; every later snapshot is the
    very state ``step_ssprk2`` returned."""
    g = periodic_grid(8)
    stepped, copies = [], []
    step, copy = dynamics.step_ssprk2, State.copy

    def spy_step(*args, **kwargs):
        out = step(*args, **kwargs)
        stepped.append(out)
        return out

    def spy_copy(state):
        copies.append(copy(state))
        return copies[-1]

    monkeypatch.setattr(dynamics, "step_ssprk2", spy_step)
    monkeypatch.setattr(State, "copy", spy_copy)
    kept = Keep()
    run_simulation(smooth_state(g, prm), prm, 1e-3,
                   SolverOptions(dt=2.5e-4, snapshot_stride=1), sink=kept)
    assert len(copies) == 1 and len(stepped) == 4 and len(kept.states) == 5
    assert kept.states[0] is copies[0]
    assert all(a is b for a, b in zip(kept.states[1:], stepped))


def _peak_planes(fn, grid) -> float:
    """Peak of the memory ``fn()`` allocates, in planes of ``grid``, with
    its result dropped."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / (grid.nx * grid.ny * 8)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make_grid", [periodic_grid, physical_grid])
def test_rhs_and_step_stay_within_their_working_set(make_grid, prm):
    """The RHS builds its 7 outputs in place and frees each padded plane
    after its last use, and a step writes its final stage over the first
    stage's planes; each stays within its budget of grid planes above the
    input state, with room for the ghost layers of a small grid."""
    g = make_grid(64)
    s = smooth_state(g, prm)
    opts = SolverOptions(dt=1e-5).resolved(s)
    step_ssprk2(s, 1e-5, prm, opts)  # warm
    assert _peak_planes(lambda: compute_rhs(s, prm), g) <= 24
    assert _peak_planes(lambda: step_ssprk2(s, 1e-5, prm, opts), g) <= 30


@pytest.mark.parametrize("mode", ["periodic", "physical"])
def test_rhs_planes_own_their_exact_size_buffers(mode, prm):
    """A step writes its first stage into the planes of its RHS, so they
    become state, and ``compare`` holds every reference state: a plane that
    viewed a larger scratch buffer would keep all of that buffer alive."""
    g = Grid(nx=20, ny=13, lx=1.0, ly=1.5, boundary_mode=mode)
    for a in compute_rhs(smooth_state(g, prm), prm):
        assert a.shape == g.shape
        assert a.flags.c_contiguous
        assert a.base is None


def test_strided_run_lets_each_snapshot_go_once_past_it(prm):
    """With a snapshot stride above 1 the run holds no snapshot it has
    stepped past, and the returned trajectory's final state is the last."""
    refs, held = [], []

    def sink(state, acc, grad_u):
        refs.append(weakref.ref(state))

    def alive(state, acc):
        held.append([r() is not None for r in refs])

    dt = 2.0 ** -12
    traj = run_simulation(smooth_state(periodic_grid(8), prm), prm, 8 * dt,
                          SolverOptions(dt=dt, snapshot_stride=3),
                          step_callback=alive, sink=sink)
    # snapshots at steps 0, 3, 6 and 8; after each step only the one just
    # added, if any, is alive
    no, yes = False, True
    assert held == [[no], [no], [no, yes], [no, no], [no, no], [no, no, yes],
                    [no, no, no], [no, no, no, yes]]
    assert traj.final is refs[-1]() and traj.final.t == 8 * dt
