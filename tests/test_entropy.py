"""Relative entropies, remainder forms, inequality residuals and the
Gronwall machinery."""

import numpy as np
import pytest

from oldb2d import entropy
from oldb2d.constitutive import ModelParams, bregman_H, potential_H, potential_H_prime
from oldb2d.dynamics import SolverOptions, run_simulation
from oldb2d.entropy import (GronwallReport, RefTrajectory, ReferenceError,
                            combined_E, entropy_inequality_residual,
                            rel_entropy_E1, rel_entropy_E2, remainder_R_def,
                            remainder_R_new, restrict_state,
                            stress_distance_ET, stress_distance_balance,
                            weak_strong_experiment)
from oldb2d.grid import GridError
from oldb2d.state import Accumulators, State, Trajectory

from conftest import (periodic_grid, physical_grid, random_smooth_state,
                      smooth_state)


def steady_ref_traj(state, times=(0.0, 0.01, 0.02)):
    traj = Trajectory(state.grid)
    for t in times:
        s = state.copy()
        s.t = t
        traj.add(s, Accumulators())
    return RefTrajectory(traj)


def test_E1_trivial_examples(prm):
    g = periodic_grid(16)
    ref = State.uniform(g, 1.0, 1.0, k=prm.k)
    s = ref.copy()
    assert rel_entropy_E1(s, ref, prm) == 0.0
    # rho = rho~ = 1, u - u~ = (1, 0) on the unit square: E1 = 1/2
    s.mx = np.ones(g.shape)
    assert rel_entropy_E1(s, ref, prm) == pytest.approx(0.5, rel=1e-13)


def test_E2_trivial_example():
    prm = ModelParams(zfrak=1.0, L=0.0)  # G = z eta^2 only
    g = periodic_grid(16)
    ref = State.uniform(g, 1.0, 1.0, k=prm.k)
    s = ref.copy()
    s.eta = s.eta + 1.0
    assert rel_entropy_E2(s, ref, prm) == pytest.approx(1.0, rel=1e-13)


def test_grids_equal_only_when_identical(prm):
    s = State.uniform(periodic_grid(16), 1.0, 1.0, k=prm.k)
    assert rel_entropy_E1(s, State.uniform(periodic_grid(16), 1.0, 1.0, k=prm.k),
                          prm) == 0.0
    # np.isclose would have paired these; the cell areas differ
    near = State.uniform(periodic_grid(16, lx=1.0 + 1e-9), 1.0, 1.0, k=prm.k)
    with pytest.raises(GridError, match="different grids"):
        rel_entropy_E1(s, near, prm)


def test_combined_E_identity_stress(prm):
    g = periodic_grid(16)
    ref = State.uniform(g, 1.0, 1.0, tau0=np.zeros((2, 2)))
    s = ref.copy()
    s.t11 = s.t11 + 1.0
    s.t22 = s.t22 + 1.0
    # |I|^2 = 2, so ET = int 1/2 |I|^2 = 1 on the unit square
    assert stress_distance_ET(s, ref) == pytest.approx(1.0, rel=1e-13)
    assert combined_E(s, ref, prm) == pytest.approx(1.0, rel=1e-13)


def test_E1_matches_naive_loop(prm):
    g = periodic_grid(10)
    rng = np.random.default_rng(11)
    s = random_smooth_state(g, prm, rng)
    ref = random_smooth_state(g, prm, rng)
    got = rel_entropy_E1(s, ref, prm)
    naive = 0.0
    for i in range(g.nx):
        for j in range(g.ny):
            du = (s.mx[i, j] / s.rho[i, j] - ref.mx[i, j] / ref.rho[i, j],
                  s.my[i, j] / s.rho[i, j] - ref.my[i, j] / ref.rho[i, j])
            naive += 0.5 * s.rho[i, j] * (du[0] ** 2 + du[1] ** 2)
            naive += bregman_H(s.rho[i, j], ref.rho[i, j], prm)
    naive *= g.cell_area
    assert got == pytest.approx(naive, rel=1e-12)


def test_nonnegativity_random_pairs(prm):
    g = periodic_grid(12)
    rng = np.random.default_rng(12)
    for _ in range(5):
        s = random_smooth_state(g, prm, rng)
        ref = random_smooth_state(g, prm, rng)
        assert rel_entropy_E1(s, ref, prm) >= 0.0
        assert rel_entropy_E2(s, ref, prm) >= 0.0
        assert stress_distance_ET(s, ref) >= 0.0


def test_ref_trajectory_rejects_nonpositive(prm):
    g = periodic_grid(8)
    s = State.uniform(g, 1.0, 1.0, k=prm.k)
    bad = s.copy()
    bad.rho[0, 0] = 0.0
    traj = Trajectory(g)
    traj.add(s, Accumulators())
    bad.t = 0.01
    with pytest.raises(ReferenceError):
        traj.add(bad, Accumulators())
        RefTrajectory(traj)
    bad2 = s.copy()
    bad2.eta[0, 0] = -1.0
    traj2 = Trajectory(g)
    traj2.add(s, Accumulators())
    bad2.t = 0.01
    traj2.add(bad2, Accumulators())
    with pytest.raises(ReferenceError):
        RefTrajectory(traj2)


def test_remainders_vanish_at_coincidence(prm):
    g = periodic_grid(16)
    rng = np.random.default_rng(13)
    for _ in range(3):
        s = random_smooth_state(g, prm, rng)
        ref = steady_ref_traj(s)
        rd = remainder_R_def(s, ref.state(1), ref.time_derivs(1, prm), prm)
        rn = remainder_R_new(s, ref.state(1), prm)
        for key in ("R1", "R2", "R3", "R4", "R5", "total"):
            assert rd[key] == 0.0
        assert rn["total"] == 0.0


def test_R5_zero_when_velocities_match(prm):
    g = periodic_grid(16)
    rng = np.random.default_rng(14)
    s = random_smooth_state(g, prm, rng)
    ref = random_smooth_state(g, prm, rng)
    # same velocity on both: u = m / rho must agree pointwise
    ux, uy = s.velocity()
    ref.mx = ref.rho * ux
    ref.my = ref.rho * uy
    rt = steady_ref_traj(ref)
    rd = remainder_R_def(s, rt.state(1), rt.time_derivs(1, prm), prm)
    # velocities agree up to the rho*(m/rho) roundoff of the setup
    assert abs(rd["R5"]) <= 1e-14


def test_R_new_terms_with_velocity_and_density_match(prm):
    # rho = rho~ and u = u~ annihilate the convective, viscous-density,
    # pressure-Bregman and the two density-weighted coupling terms
    g = periodic_grid(16)
    rng = np.random.default_rng(15)
    s = random_smooth_state(g, prm, rng)
    ref = s.copy()
    ref.eta = ref.eta * 1.1
    ref.t11 = ref.t11 + 0.05
    rn = remainder_R_new(s, ref, prm)
    for key in ("convective", "viscous_density", "pressure_bregman",
                "polymer_pressure_grad", "stress_div"):
        assert rn[key] == 0.0
    assert rn["polymer_bregman"] != 0.0


def test_bregman_gauge_invariance(prm):
    # adding a constant to H leaves H' and the Bregman difference unchanged
    rho, rho_t, c = 1.7, 0.9, 123.4
    direct = bregman_H(rho, rho_t, prm)
    shifted = ((potential_H(rho, prm) + c) - (potential_H(rho_t, prm) + c)
               - potential_H_prime(rho_t, prm) * (rho - rho_t))
    assert shifted == pytest.approx(direct, rel=1e-12)


def test_scaling_coherence_of_stress_terms(prm):
    g = periodic_grid(16)
    rng = np.random.default_rng(16)
    s = random_smooth_state(g, prm, rng)
    ref = random_smooth_state(g, prm, rng)
    et1 = stress_distance_ET(s, ref)
    s2, ref2 = s.copy(), ref.copy()
    for st in (s2, ref2):
        st.t11 = st.t11 * 3.0
        st.t12 = st.t12 * 3.0
        st.t22 = st.t22 * 3.0
    assert stress_distance_ET(s2, ref2) == pytest.approx(9.0 * et1, rel=1e-13)
    rt = steady_ref_traj(ref)
    rt2 = steady_ref_traj(ref2)
    r5_1 = remainder_R_def(s, rt.state(1), rt.time_derivs(1, prm), prm)["R5"]
    r5_3 = remainder_R_def(s2, rt2.state(1), rt2.time_derivs(1, prm), prm)["R5"]
    assert r5_3 == pytest.approx(3.0 * r5_1, rel=1e-12)


def test_time_derivs_evaluate_each_snapshot_once(prm, monkeypatch):
    """A sweep that asks for every snapshot's derivatives twice, as compare
    does, evaluates each snapshot's quantities once, and every derivative
    has the bits of a fresh reference's."""
    g = physical_grid(16)
    traj = run_simulation(smooth_state(g, prm), prm, 0.004,
                          SolverOptions(dt=2e-4, snapshot_stride=2))
    n = len(traj)
    want = [RefTrajectory(traj).time_derivs(i, prm) for i in range(n)]
    calls = []
    g_prime = entropy.polymer_potential_G_prime
    monkeypatch.setattr(entropy, "polymer_potential_G_prime",
                        lambda eta, p: calls.append(1) or g_prime(eta, p))
    ref = RefTrajectory(traj)
    for i in range(n):
        for _ in range(2):
            got = ref.time_derivs(i, prm)
            assert got.keys() == want[i].keys()
            for k in got:
                assert got[k].tobytes() == want[i][k].tobytes(), (i, k)
    assert n > 3 and len(calls) == n
    # two-snapshot references take both quantities from the cache
    short = Trajectory(g)
    for s in traj.states[:2]:
        short.add(s, Accumulators())
    calls.clear()
    two = RefTrajectory(short)
    assert two.time_derivs(0, prm)["dGp"].tobytes() == \
        two.time_derivs(1, prm)["dGp"].tobytes()
    assert len(calls) == 2


def test_entropy_residual_zero_at_t0_and_for_coincident_runs(prm):
    g = periodic_grid(16)
    s = smooth_state(g, prm)
    traj = run_simulation(s, prm, 0.01, SolverOptions(dt=2e-4, snapshot_stride=10))
    ref = RefTrajectory(traj)
    res = entropy_inequality_residual(traj, ref, prm)
    assert res[0] == 0.0
    assert np.max(np.abs(res)) == 0.0


def test_stress_distance_balance_coincidence(prm):
    g = periodic_grid(16)
    s = smooth_state(g, prm)
    traj = run_simulation(s, prm, 0.01, SolverOptions(dt=2e-4, snapshot_stride=10))
    ref = RefTrajectory(traj)
    res = stress_distance_balance(traj, ref, prm)
    assert np.max(np.abs(res)) == 0.0


def test_stress_distance_balance_relaxation_ode(prm):
    # u = u~ = 0, eta = eta~: D = T - T~ decays like exp(-t/2 lam), so the
    # balance closes to the snapshot-differencing accuracy
    g = periodic_grid(8)
    s = State.uniform(g, 1.0, 1.0, tau0=np.array([[2.0, 0.3], [0.3, 1.0]]))
    r = State.uniform(g, 1.0, 1.0, tau0=np.array([[1.0, 0.0], [0.0, 1.0]]))
    opts = SolverOptions(dt=1e-3, snapshot_stride=10)
    traj = run_simulation(s, prm, 0.2, opts)
    rtraj = run_simulation(r, prm, 0.2, opts)
    res = stress_distance_balance(traj, RefTrajectory(rtraj), prm)
    spacing = traj.times[1] - traj.times[0]
    assert np.max(np.abs(res)) <= 10.0 * spacing ** 2


def test_restrict_state_block_average(prm):
    g = periodic_grid(16)
    gc = periodic_grid(8)
    s = random_smooth_state(g, prm, np.random.default_rng(17))
    c = restrict_state(s, gc)
    assert c.rho[0, 0] == pytest.approx(np.mean(s.rho[0:2, 0:2]))
    with pytest.raises(ValueError):
        restrict_state(s, periodic_grid(12))


def test_weak_strong_identical_runs(prm):
    g = periodic_grid(16)
    s = smooth_state(g, prm)
    traj = run_simulation(s, prm, 0.01, SolverOptions(dt=2e-4, snapshot_stride=10))
    rep = weak_strong_experiment(traj, RefTrajectory(traj), prm)
    assert isinstance(rep, GronwallReport)
    assert np.all(rep.E_series == 0.0)
