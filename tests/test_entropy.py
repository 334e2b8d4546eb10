"""Relative entropies, remainder forms and inequality residuals, and the
rows ``compare`` writes from them."""

import dataclasses

import numpy as np
import pytest

from oldb2d import entropy
from oldb2d.config import perturb_state
from oldb2d.constitutive import ModelParams, bregman_H, potential_H, potential_H_prime
from oldb2d.dynamics import SolverOptions, run_simulation
from oldb2d.diagnostics import (energy_inequality_residual,
                                trace_identity_residual)
from oldb2d.entropy import (RefTrajectory, combined_E,
                            entropy_inequality_residual, rel_entropy_E1,
                            rel_entropy_E2, relative_dissipation,
                            remainder_inputs, remainder_R_def,
                            remainder_R_new, restrict_state,
                            stress_distance_ET, stress_distance_balance)
from oldb2d.grid import GridError
from oldb2d.state import NumericalError, State

from conftest import (Keep, csv_rows, periodic_grid, physical_grid,
                      random_smooth_state, smooth_state, tee)


def fed_ref(states):
    """A reference fed ``states`` one snapshot at a time."""
    ref = RefTrajectory()
    for s in states:
        ref(s)
    return ref


def steady_ref_traj(state, times=(0.0, 0.01, 0.02)):
    ref = RefTrajectory()
    for t in times:
        s = state.copy()
        s.t = t
        ref(s)
    return ref


def ref_run(init, prm, t_end, opts):
    """The reference that a run of ``init`` streams into."""
    ref = RefTrajectory()
    run_simulation(init, prm, t_end, opts, sink=ref)
    return ref


def test_E1_trivial_examples(prm):
    g = periodic_grid(16)
    ref = State.uniform(g, 1.0, 1.0, k=prm.k)
    s = ref.copy()
    assert rel_entropy_E1(remainder_inputs(s, ref), prm) == 0.0
    # rho = rho~ = 1, u - u~ = (1, 0) on the unit square: E1 = 1/2
    s.mx = np.ones(g.shape)
    assert rel_entropy_E1(remainder_inputs(s, ref), prm) == pytest.approx(
        0.5, rel=1e-13)


def test_E2_trivial_example():
    prm = ModelParams(zfrak=1.0, L=0.0)  # G = z eta^2 only
    g = periodic_grid(16)
    ref = State.uniform(g, 1.0, 1.0, k=prm.k)
    s = ref.copy()
    s.eta = s.eta + 1.0
    assert rel_entropy_E2(remainder_inputs(s, ref), prm) == pytest.approx(
        1.0, rel=1e-13)


def test_grids_equal_only_when_identical(prm):
    s = State.uniform(periodic_grid(16), 1.0, 1.0, k=prm.k)
    same = State.uniform(periodic_grid(16), 1.0, 1.0, k=prm.k)
    assert rel_entropy_E1(remainder_inputs(s, same), prm) == 0.0
    # np.isclose would have paired these; the cell areas differ
    near = State.uniform(periodic_grid(16, lx=1.0 + 1e-9), 1.0, 1.0, k=prm.k)
    with pytest.raises(GridError, match="different grids"):
        remainder_inputs(s, near)


def test_combined_E_identity_stress(prm):
    g = periodic_grid(16)
    ref = State.uniform(g, 1.0, 1.0, tau0=np.zeros((2, 2)))
    s = ref.copy()
    s.t11 = s.t11 + 1.0
    s.t22 = s.t22 + 1.0
    # |I|^2 = 2, so ET = int 1/2 |I|^2 = 1 on the unit square
    pair = remainder_inputs(s, ref)
    assert stress_distance_ET(pair) == pytest.approx(1.0, rel=1e-13)
    assert combined_E(pair, prm) == pytest.approx(1.0, rel=1e-13)


def test_E1_matches_naive_loop(prm):
    g = periodic_grid(10)
    rng = np.random.default_rng(11)
    s = random_smooth_state(g, prm, rng)
    ref = random_smooth_state(g, prm, rng)
    got = rel_entropy_E1(remainder_inputs(s, ref), prm)
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
        pair = remainder_inputs(s, ref)
        assert rel_entropy_E1(pair, prm) >= 0.0
        assert rel_entropy_E2(pair, prm) >= 0.0
        assert stress_distance_ET(pair) >= 0.0


def test_ref_trajectory_rejects_nonpositive(prm):
    g = periodic_grid(8)
    s = State.uniform(g, 1.0, 1.0, k=prm.k)
    for name, msg in (("rho", "reference density"),
                      ("eta", "reference polymer density")):
        bad = s.copy()
        getattr(bad, name)[0, 0] = 0.0 if name == "rho" else -1.0
        bad.t = 0.01
        ref = fed_ref([s])
        with pytest.raises(NumericalError, match=msg):
            ref(bad)
        assert len(ref.states) == 1


def test_remainders_vanish_at_coincidence(prm):
    g = periodic_grid(16)
    rng = np.random.default_rng(13)
    for _ in range(3):
        s = random_smooth_state(g, prm, rng)
        ref = steady_ref_traj(s)
        pair = remainder_inputs(s, ref.states[1])
        rd = remainder_R_def(pair, ref.time_derivs(1, prm), prm)
        rn = remainder_R_new(pair, prm)
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
    rd = remainder_R_def(remainder_inputs(s, rt.states[1]), rt.time_derivs(1, prm), prm)
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
    rn = remainder_R_new(remainder_inputs(s, ref), prm)
    for key in ("convective", "viscous_density", "pressure_bregman",
                "polymer_pressure_grad", "stress_div"):
        assert rn[key] == 0.0
    assert rn["polymer_bregman"] != 0.0


def _bundle_planes(pair):
    """Every array a remainder_inputs bundle holds, both states' included."""
    planes = []
    for f in dataclasses.fields(pair):
        v = getattr(pair, f.name)
        planes += (list(v.arrays()) if isinstance(v, State)
                   else list(v) if isinstance(v, tuple) else [v])
    return planes


def _result_bits(result):
    """(keys, int64 bit patterns) of a remainder dict or a float."""
    vals = result.values() if isinstance(result, dict) else [result]
    keys = list(result) if isinstance(result, dict) else None
    return keys, np.array(list(vals), dtype=np.float64).view(np.int64).tolist()


def test_one_bundle_serves_every_consumer_unchanged(prm):
    # a compare row hands one bundle to R_def twice (its columns and the
    # inequality terms), to R_new and to the relative dissipation: none may
    # write into a plane the others read
    g = physical_grid(16)
    rng = np.random.default_rng(31)
    s = random_smooth_state(g, prm, rng)
    refs = [random_smooth_state(g, prm, rng) for _ in range(3)]
    for i, r in enumerate(refs):
        r.t = 0.01 * i
    rt = fed_ref(refs)
    r, derivs = rt.states[1], rt.time_derivs(1, prm)
    force = (0.1 * s.rho, -0.2 * s.eta)
    calls = (lambda p: remainder_R_def(p, derivs, prm, force),
             lambda p: remainder_R_def(p, derivs, prm, force),
             lambda p: remainder_R_new(p, prm),
             lambda p: relative_dissipation(p, prm))
    pair = remainder_inputs(s, r)
    before = [a.copy() for a in _bundle_planes(pair)]
    shared = [call(pair) for call in calls]
    after = _bundle_planes(pair)
    assert len(after) == len(before)
    for a, b in zip(after, before):
        assert a.tobytes() == b.tobytes()
    for call, got in zip(calls, shared):
        assert _result_bits(got) == _result_bits(call(remainder_inputs(s, r)))


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
    et1 = stress_distance_ET(remainder_inputs(s, ref))
    s2, ref2 = s.copy(), ref.copy()
    for st in (s2, ref2):
        st.t11 = st.t11 * 3.0
        st.t12 = st.t12 * 3.0
        st.t22 = st.t22 * 3.0
    assert stress_distance_ET(remainder_inputs(s2, ref2)) == pytest.approx(
        9.0 * et1, rel=1e-13)
    rt = steady_ref_traj(ref)
    rt2 = steady_ref_traj(ref2)
    r5_1 = remainder_R_def(remainder_inputs(s, rt.states[1]),
                           rt.time_derivs(1, prm), prm)["R5"]
    r5_3 = remainder_R_def(remainder_inputs(s2, rt2.states[1]),
                           rt2.time_derivs(1, prm), prm)["R5"]
    assert r5_3 == pytest.approx(3.0 * r5_1, rel=1e-12)


def test_two_snapshot_time_derivs_are_the_difference_quotient(prm, monkeypatch):
    """A two-snapshot reference gives, at either index, (q1 - q0) / (t1 - t0)
    of each quantity bit for bit, evaluating both snapshots on every call."""
    g = physical_grid(16)
    kept = Keep()
    run_simulation(smooth_state(g, prm), prm, 2e-4,
                   SolverOptions(dt=2e-4, snapshot_stride=1), sink=kept)
    s0, s1 = kept.states
    dt = s1.t - s0.t
    want = {k: (b - a) / dt for k, a, b in zip(
        ("dut_x", "dut_y", "dHp", "dGp"),
        (*s0.velocity(), potential_H_prime(s0.rho, prm),
         entropy.polymer_potential_G_prime(s0.eta, prm)),
        (*s1.velocity(), potential_H_prime(s1.rho, prm),
         entropy.polymer_potential_G_prime(s1.eta, prm)))}
    calls = []
    g_prime = entropy.polymer_potential_G_prime
    monkeypatch.setattr(entropy, "polymer_potential_G_prime",
                        lambda eta, p: calls.append(1) or g_prime(eta, p))
    two = fed_ref([s0, s1])
    for i in (0, 1):
        got = two.time_derivs(i, prm)
        assert got.keys() == want.keys()
        for k in got:
            assert got[k].tobytes() == want[k].tobytes(), (i, k)
    assert len(calls) == 4


def test_time_derivs_are_numpys_second_order_gradient(prm):
    """A walled reference of five snapshots whose last interval is half the
    others gives, at every index, ``np.gradient(q, times, edge_order=2)``
    of each quantity bit for bit: the same one-sided end and nonuniform
    centered formulas."""
    ref = ref_run(smooth_state(physical_grid(16), prm), prm, 2.1e-3,
                  SolverOptions(dt=2e-4, snapshot_stride=3))
    times = [s.t for s in ref.states]
    assert np.allclose(np.diff(times), [6e-4, 6e-4, 6e-4, 3e-4], rtol=1e-12)
    quantities = zip(*[(*s.velocity(), potential_H_prime(s.rho, prm),
                        entropy.polymer_potential_G_prime(s.eta, prm))
                       for s in ref.states])
    want = {k: np.gradient(np.array(q), times, axis=0, edge_order=2)
            for k, q in zip(("dut_x", "dut_y", "dHp", "dGp"), quantities)}
    for i in range(len(times)):
        got = ref.time_derivs(i, prm)
        assert got.keys() == want.keys()
        for k in got:
            assert got[k].tobytes() == want[k][i].tobytes(), (i, k)


def test_entropy_residual_zero_at_t0_and_for_coincident_runs(prm):
    g = periodic_grid(16)
    s = smooth_state(g, prm)
    ref = ref_run(s, prm, 0.01, SolverOptions(dt=2e-4, snapshot_stride=10))
    res = entropy_inequality_residual(ref.states, ref, prm)
    assert res[0] == 0.0
    assert np.max(np.abs(res)) == 0.0


def test_stress_distance_balance_coincidence(prm):
    g = periodic_grid(16)
    s = smooth_state(g, prm)
    ref = ref_run(s, prm, 0.01, SolverOptions(dt=2e-4, snapshot_stride=10))
    res = stress_distance_balance(ref.states, ref, prm)
    assert np.max(np.abs(res)) == 0.0


def test_stress_distance_balance_relaxation_ode(prm):
    # u = u~ = 0, eta = eta~: D = T - T~ decays like exp(-t/2 lam), so the
    # balance closes to the snapshot-differencing accuracy
    g = periodic_grid(8)
    s = State.uniform(g, 1.0, 1.0, tau0=np.array([[2.0, 0.3], [0.3, 1.0]]))
    r = State.uniform(g, 1.0, 1.0, tau0=np.array([[1.0, 0.0], [0.0, 1.0]]))
    opts = SolverOptions(dt=1e-3, snapshot_stride=10)
    kept = Keep()
    run_simulation(s, prm, 0.2, opts, sink=kept)
    res = stress_distance_balance(kept.states, ref_run(r, prm, 0.2, opts), prm)
    spacing = kept.states[1].t - kept.states[0].t
    assert np.max(np.abs(res)) <= 10.0 * spacing ** 2


def test_restrict_state_block_average(prm):
    g = periodic_grid(16)
    gc = periodic_grid(8)
    s = random_smooth_state(g, prm, np.random.default_rng(17))
    c = restrict_state(s, gc)
    assert c.rho[0, 0] == pytest.approx(np.mean(s.rho[0:2, 0:2]))
    with pytest.raises(ValueError):
        restrict_state(s, periodic_grid(12))


def test_csv_rows_match_the_snapshot_list_residuals(prm):
    # walled, with a stride above 1: the rows reuse the run's velocity
    # gradient, and their time differences and trapezoids span 3 steps
    base = smooth_state(physical_grid(16), prm)
    opts = SolverOptions(dt=2e-4, snapshot_stride=3)
    ref = ref_run(base, prm, 4e-3, opts)
    kept, rows = Keep(), csv_rows(prm, ref)
    run_simulation(perturb_state(base, 1e-2, seed=3, k=prm.k), prm, 4e-3, opts,
                   sink=tee(kept, rows))
    rows.write_csv()
    states = kept.states
    assert len(rows.rows) == len(states) == len(ref.states) > 3
    want = {"energy_residual": energy_inequality_residual(states, kept.accumulators,
                                                          prm),
            "trace_residual": trace_identity_residual(states, prm),
            "entropy_residual": entropy_inequality_residual(states, ref, prm),
            "E_combined": [combined_E(remainder_inputs(s, ref.states[j]), prm)
                           for j, s in enumerate(states)]}
    for key, series in want.items():
        got = np.array([row[key] for row in rows.rows])
        assert got.tobytes() == np.asarray(series, dtype=np.float64).tobytes(), key
