"""Energy breakdown, balance residuals and blow-up monitors."""

import numpy as np
import pytest

from oldb2d import diagnostics
from oldb2d.constitutive import ModelParams
from oldb2d.diagnostics import (BlowupReport, _tau_eigs, blowup_monitor,
                                linf_tau, min_eig_tau, total_energy,
                                velocity_moment)
from oldb2d.dynamics import SolverOptions, run_simulation
from oldb2d.fields import velocity_gradient
from oldb2d.state import State

from conftest import Keep, periodic_grid, random_smooth_state, smooth_state


def test_total_energy_reference_point():
    # rho=1, u=0, eta=1, T=0, z=0, kL=1, a=1, gamma=2 on the unit square:
    # kinetic 0, pressure 1, polymer kL(1 log 1 + 1) = 1, stress 0
    prm = ModelParams(a=1.0, gamma=2.0, k=1.0, L=1.0, zfrak=0.0)
    g = periodic_grid(16)
    s = State.uniform(g, 1.0, 1.0, tau0=np.zeros((2, 2)))
    eb = total_energy(s, prm)
    assert eb.kinetic == pytest.approx(0.0, abs=1e-15)
    assert eb.pressure_pot == pytest.approx(1.0, rel=1e-13)
    assert eb.polymer_pot == pytest.approx(1.0, rel=1e-13)
    assert eb.stress_tr == pytest.approx(0.0, abs=1e-15)


def test_total_energy_zero_eta_convention():
    # 0 log 0 = 0, so polymer_pot = kL |Omega|
    prm = ModelParams(k=2.0, L=1.5, zfrak=0.5)
    g = periodic_grid(8)
    s = State.uniform(g, 1.0, 0.0, tau0=np.zeros((2, 2)))
    eb = total_energy(s, prm)
    assert eb.polymer_pot == pytest.approx(prm.kL * g.lx * g.ly, rel=1e-13)


def test_total_energy_matches_naive_loop(prm):
    g = periodic_grid(12)
    s = random_smooth_state(g, prm, np.random.default_rng(3))
    eb = total_energy(s, prm)
    kin = pres = poly = tr = 0.0
    for i in range(g.nx):
        for j in range(g.ny):
            r = s.rho[i, j]
            kin += 0.5 * (s.mx[i, j] ** 2 + s.my[i, j] ** 2) / r
            pres += prm.a / (prm.gamma - 1) * r ** prm.gamma
            e = s.eta[i, j]
            poly += prm.kL * (e * np.log(e) + 1) + prm.zfrak * e ** 2
            tr += 0.5 * (s.t11[i, j] + s.t22[i, j])
    area = g.cell_area
    assert eb.kinetic == pytest.approx(kin * area, rel=1e-13)
    assert eb.pressure_pot == pytest.approx(pres * area, rel=1e-13)
    assert eb.polymer_pot == pytest.approx(poly * area, rel=1e-13)
    assert eb.stress_tr == pytest.approx(tr * area, rel=1e-13)


def test_equilibrium_residuals_are_roundoff(prm):
    g = periodic_grid(16)
    s = State.uniform(g, 1.0, 1.0, k=prm.k)
    kept = Keep()
    run_simulation(s, prm, 0.05, SolverOptions(dt=1e-3, snapshot_stride=5), sink=kept)
    er = diagnostics.energy_inequality_residual(kept.states, kept.accumulators, prm)
    tr = diagnostics.trace_identity_residual(kept.states, prm)
    assert er[0] == 0.0
    assert np.max(np.abs(er)) <= 1e-12
    assert np.max(np.abs(tr)) <= 1e-12


def test_streamed_trace_terms_have_the_stored_bits(prm):
    """The velocity gradient run_simulation hands a sink gives the trace
    terms of a fresh evaluation, bit for bit, at t = 0 too; a density below
    the solver's floor reads the floor in the first state the sink gets."""
    g = periodic_grid(16)
    opts = SolverOptions(dt=2e-4, snapshot_stride=2)
    init = smooth_state(g, prm)
    stored = Keep()
    run_simulation(init, prm, 1e-3, opts, sink=stored)
    streamed, handed, states = [], [], []

    def sink(s, acc, grad_u):
        handed.append(grad_u is not None)
        streamed.append(diagnostics.trace_identity_terms(s, prm, grad_u))
        states.append(s)

    run_simulation(init, prm, 1e-3, opts, sink=sink)
    assert all(handed) and len(streamed) == len(stored.states) == 4
    assert streamed == [diagnostics.trace_identity_terms(
        s, prm, velocity_gradient(*s.velocity(), g)) for s in stored.states]

    init.rho[3, 4] = 1e-12  # below 1e-10 * mean(rho), at rest
    init.mx[3, 4] = init.my[3, 4] = 0.0
    handed.clear()
    streamed.clear()
    states.clear()
    run_simulation(init, prm, 2e-4, SolverOptions(dt=2e-4, snapshot_stride=1),
                   sink=sink)
    assert init.rho[3, 4] == 1e-12
    assert states[0].rho[3, 4] == 1e-10 * float(np.mean(init.rho))
    assert handed == [True, True]
    assert streamed == [diagnostics.trace_identity_terms(
        s, prm, velocity_gradient(*s.velocity(), g)) for s in states]


def test_stress_l2_balance_zero_stress(prm):
    g = periodic_grid(16)
    s = State.uniform(g, 1.0, 0.0, tau0=np.zeros((2, 2)))
    kept = Keep()
    run_simulation(s, prm, 0.02, SolverOptions(dt=1e-3, snapshot_stride=5), sink=kept)
    res = diagnostics.stress_l2_balance_residual(kept.states, prm)
    assert np.max(np.abs(res)) <= 1e-12


def test_relaxation_identities_match_ode(prm):
    # u = 0, eta = 0: trace obeys d/dt X = -X/(2 lam) with X = int tr T / 2
    g = periodic_grid(8)
    T0 = np.array([[3.0, 0.0], [0.0, 1.0]])
    s = State.uniform(g, 1.0, 0.0, tau0=T0)
    kept = Keep()
    run_simulation(s, prm, 0.2, SolverOptions(dt=2e-3, snapshot_stride=10), sink=kept)
    tr_res = diagnostics.trace_identity_residual(kept.states, prm)
    l2_res = diagnostics.stress_l2_balance_residual(kept.states, prm)
    # residual limited by the centered differencing of kept snapshots
    spacing = kept.states[1].t - kept.states[0].t
    assert np.max(np.abs(tr_res)) <= 2.0 * spacing ** 2
    assert np.max(np.abs(l2_res)) <= 20.0 * spacing ** 2


def test_min_eig_tau_examples(prm):
    g = periodic_grid(8)
    for tau, want in ((np.eye(2), 1.0),
                      (np.array([[1.0, 0.0], [0.0, -1.0]]), -1.0),
                      (np.array([[2.0, 1.0], [1.0, 2.0]]), 1.0)):
        s = State.uniform(g, 1.0, 1.0, tau0=tau)
        assert min_eig_tau(_tau_eigs(s)[0]) == pytest.approx(want, abs=1e-14)


def test_linf_tau_takes_the_larger_eigenvalue_magnitude(prm):
    """The spectral norm is |lo| where the lower eigenvalue has the larger
    magnitude."""
    g = periodic_grid(8)
    for tau, want in ((np.diag([1.0, -3.0]), 3.0),
                      (np.array([[1.0, 2.0], [2.0, -2.0]]), 3.0)):  # eigs -3, 2
        s = State.uniform(g, 1.0, 1.0, tau0=tau)
        assert linf_tau(*_tau_eigs(s)) == pytest.approx(want, rel=1e-14)


def test_velocity_moment_examples(prm):
    g = periodic_grid(8)
    s = State.uniform(g, 1.0, 1.0, k=prm.k)
    assert velocity_moment(s, 3.0) == 0.0
    s.mx = np.full(g.shape, 2.0)  # rho = 1 so |u| = 2
    assert velocity_moment(s, 3.0) == pytest.approx(8.0, rel=1e-13)
    with pytest.raises(ValueError):
        velocity_moment(s, 2.0)
    with pytest.raises(ValueError):
        velocity_moment(s, 3.5)


def test_velocity_moment_matches_naive_loop(prm):
    g = periodic_grid(10)
    s = random_smooth_state(g, prm, np.random.default_rng(4))
    alpha = 2.5
    naive = 0.0
    for i in range(g.nx):
        for j in range(g.ny):
            sp = np.hypot(s.mx[i, j] / s.rho[i, j], s.my[i, j] / s.rho[i, j])
            naive += s.rho[i, j] * sp ** alpha
    naive *= g.cell_area
    assert velocity_moment(s, alpha) == pytest.approx(naive, rel=1e-13)


def test_blowup_monitor_tracks_sup_and_integral(prm):
    g = periodic_grid(8)
    s = State.uniform(g, 2.5, 1.5, tau0=np.eye(2))
    rep = BlowupReport()
    rep = blowup_monitor(s, rep, alpha=3.0)
    assert rep.sup_rho == 2.5 and rep.sup_eta == 1.5
    assert rep.min_eig_tau == pytest.approx(1.0)
    # a later sample accumulates the Linf^2 time integral trapezoidally
    s2 = s.copy()
    s2.t = 1.0
    rep = blowup_monitor(s2, rep, alpha=3.0)
    assert rep.l2t_linf_tau == pytest.approx(1.0)  # |T|_inf = 1 on [0, 1]
    # suprema never decrease
    s3 = s.copy()
    s3.t = 2.0
    s3.rho = s3.rho * 0.5
    rep = blowup_monitor(s3, rep, alpha=3.0)
    assert rep.sup_rho == 2.5
    # a stress norm whose square overflows makes the integral inf
    s4 = s.copy()
    s4.t = 3.0
    s4.t11 = s4.t22 = np.full(g.shape, 1e200)
    with np.errstate(over="ignore"):
        rep = blowup_monitor(s4, rep, alpha=3.0)
    assert rep.l2t_linf_tau == np.inf


def test_blowup_monitor_decomposes_each_stress_once(prm, monkeypatch):
    """Both stress monitors read the one eigen decomposition of a state."""
    calls = []
    tau_eigs = diagnostics._tau_eigs
    monkeypatch.setattr(diagnostics, "_tau_eigs",
                        lambda s: calls.append(s.t) or tau_eigs(s))
    s = random_smooth_state(periodic_grid(8), prm, np.random.default_rng(6))
    rep = BlowupReport()
    for t in (0.0, 0.5, 1.0):
        s.t = t
        rep = blowup_monitor(s, rep, alpha=3.0)
    assert calls == [0.0, 0.5, 1.0]


def test_monitors_are_pure(prm):
    g = periodic_grid(12)
    s = random_smooth_state(g, prm, np.random.default_rng(5))
    assert min_eig_tau(_tau_eigs(s)[0]) == min_eig_tau(_tau_eigs(s)[0])
    assert velocity_moment(s, 2.5) == velocity_moment(s, 2.5)
    assert total_energy(s, prm).total == total_energy(s, prm).total
