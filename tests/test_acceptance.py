"""Acceptance suite: one test per numbered criterion, pinned tolerances.

Each test is a pass/fail gate for a headline property of the package:
constitutive identities, certified pointwise bounds, exact fixed points,
convergence orders of the scheme and of every balance/identity residual,
equivalence of the two remainder forms, the weak-strong (Gronwall)
experiment, blow-up exit-code semantics, and bitwise determinism. The
balance and weak-strong criteria read the columns of the rows ``run`` and
``compare`` write.
"""

import numpy as np
import pytest

from oldb2d import cli, diagnostics, entropy
from oldb2d.constitutive import (ModelParams, polymer_potential_G_prime,
                                 polymer_pressure_q, potential_H,
                                 potential_H_prime, pressure)
from oldb2d.dynamics import SolverOptions, run_simulation
from oldb2d.entropy import (RefTrajectory, combined_E, remainder_inputs,
                            remainder_R_def, remainder_R_new, restrict_state)
from oldb2d.state import State
from oldb2d.verify import convergence_study, make_ms, oracle_lemma_scan
from oldb2d.config import perturb_state

from conftest import (Keep, csv_rows, periodic_grid, polymer_potential_G,
                      random_smooth_state, smooth_state, tee)


def _column(rows, key):
    return np.array([row[key] for row in rows])


_PRM_SETS = [
    ModelParams(),
    ModelParams(a=2.5, gamma=1.4),
    ModelParams(gamma=3.0, k=0.7, L=2.0),
    ModelParams(zfrak=0.0, L=1.0),
    ModelParams(zfrak=2.0, L=0.5, k=3.0, a=0.3, gamma=1.7),
]


def test_criterion_01_constitutive_identities():
    s = np.geomspace(1e-4, 1e4, 64)
    for prm in _PRM_SETS:
        lhs_h = potential_H_prime(s, prm) * s - potential_H(s, prm)
        assert np.allclose(lhs_h, pressure(s, prm), rtol=1e-12, atol=0)
        lhs_g = polymer_potential_G_prime(s, prm) * s - polymer_potential_G(s, prm)
        q = polymer_pressure_q(s, prm)
        assert np.max(np.abs(lhs_g - q) / np.maximum(np.abs(q), 1e-300)) <= 1e-12


def test_criterion_02_lemma_certification():
    prm = ModelParams(zfrak=0.0, L=1.0)
    certs = oracle_lemma_scan(prm, n_samples=1 << 20)
    assert certs["H"].n_samples >= 10 ** 6
    assert certs["H"].passed and certs["H"].min_slack >= 0.0
    assert certs["G"].passed and certs["G"].min_slack >= 0.0
    # the original constant 1/(2 eta_t) fails on the ridge eta = 2 eta_t
    bad = oracle_lemma_scan(prm, n_samples=1 << 14, corrected=False)["G"]
    assert not bad.passed
    eta, eta_t = bad.argmin
    assert eta == pytest.approx(2.0 * eta_t, rel=1e-12)
    expected = (2.0 * np.log(2.0) - 1.5) * prm.kL * eta_t
    assert bad.min_slack == pytest.approx(expected, rel=1e-6)


def test_criterion_03_equilibrium_fixed_point(prm):
    g = periodic_grid(32)
    s = State.uniform(g, 1.3, 0.7, k=prm.k)
    dt = 5e-4
    kept, rows = Keep(), csv_rows(prm)
    run_simulation(s, prm, 100 * dt, SolverOptions(dt=dt, snapshot_stride=20),
                   sink=tee(kept, rows))
    rows.write_csv()
    states = kept.states
    for a, b in zip(states[-1].arrays(), states[0].arrays()):
        scale = max(np.max(np.abs(b)), 1.0)
        assert np.max(np.abs(a - b)) <= 1e-12 * scale
    assert np.max(np.abs(_column(rows.rows, "energy_residual"))) <= 1e-12
    assert np.max(np.abs(_column(rows.rows, "trace_residual"))) <= 1e-12


def test_criterion_04_relaxation_ode_order():
    prm = ModelParams(lam=0.5)
    g = periodic_grid(8)
    T0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    t_end = 0.5
    errs = []
    for dt in (0.02, 0.01, 0.005):
        s = State.uniform(g, 1.0, 0.0, tau0=T0)
        traj = run_simulation(s, prm, t_end, SolverOptions(dt=dt))
        ex = T0 * np.exp(-traj.final.t / (2 * prm.lam))  # dT/dt = -T / (2 lam)
        errs.append(max(abs(traj.final.t11[0, 0] - ex[0, 0]),
                        abs(traj.final.t12[0, 0] - ex[0, 1]),
                        abs(traj.final.t22[0, 0] - ex[1, 1])))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert 1.8 <= o <= 2.2


def test_criterion_05_mms_convergence(prm):
    ms = make_ms("periodic-smooth", prm)
    rep = convergence_study(ms, prm, levels=(32, 64, 128), t_end=0.02)
    assert rep.valid, rep.invalid_reason
    for f, orders in rep.l2_orders.items():
        assert 1.8 <= orders[-1] <= 2.2, (f, orders)
    heat = convergence_study(make_ms("diffusion-eta", prm), prm,
                             levels=(32, 64, 128), t_end=0.02, fields=("eta",))
    assert heat.valid
    assert 1.9 <= heat.l2_orders["eta"][-1] <= 2.1


def _smooth_run(n, prm, *sinks, t_end=0.02):
    """The CSV rows of a run of the smooth state at n^2, whose snapshots
    also go to ``sinks``."""
    g = periodic_grid(n)
    dt = 0.25 * g.dx ** 2
    nsteps = max(1, round(t_end / dt))
    rows = csv_rows(prm)
    run_simulation(smooth_state(g, prm), prm, t_end,
                   SolverOptions(dt=t_end / nsteps, snapshot_stride=max(1, n // 8)),
                   sink=tee(rows, *sinks))
    rows.write_csv()
    return rows.rows


def test_criterion_06_energy_inequality_refinement(prm):
    finals = []
    for n in (32, 64):
        res = _column(_smooth_run(n, prm), "energy_residual")
        assert res[0] == 0.0
        finals.append(abs(res[-1]))
    assert finals[0] / finals[1] >= 3.0


def test_criterion_07_trace_and_stress_balance_orders(prm):
    tr, l2 = [], []
    for n in (32, 64, 128):
        kept = Keep()
        rows = _smooth_run(n, prm, kept)
        tr.append(np.max(np.abs(_column(rows, "trace_residual"))))
        l2.append(np.max(np.abs(diagnostics.stress_l2_balance_residual(kept.states,
                                                                      prm))))
    for errs in (tr, l2):
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8, (errs, orders)


def _steady_ref(state, spacing=0.01):
    ref = RefTrajectory()
    for i in range(3):
        s = state.copy()
        s.t = state.t + i * spacing
        ref(s)
    return ref


def test_criterion_08_remainder_coincidence(prm):
    g = periodic_grid(24)
    rng = np.random.default_rng(2024)
    for _ in range(10):
        s = random_smooth_state(g, prm, rng)
        ref = _steady_ref(s)
        pair = remainder_inputs(s, ref.states[1])
        rd = remainder_R_def(pair, ref.time_derivs(1, prm), prm)
        rn = remainder_R_new(pair, prm)
        scale = max(abs(rd["R1"]), 1.0)
        assert abs(rd["total"]) <= 1e-13 * scale
        assert abs(rn["total"]) <= 1e-13 * scale


def test_criterion_09_remainder_form_equivalence(prm):
    ref_ms = make_ms("steady-ws", prm)
    cand_ms = make_ms("periodic-smooth", prm)
    diffs = []
    for n in (32, 64, 128):
        g = periodic_grid(n)
        ref = _steady_ref(ref_ms.sample_state(g, 0.0), spacing=0.5 * g.dx)
        cand = cand_ms.sample_state(g, 0.3)
        f = ref_ms.force_fn(g)(0.3)
        pair = remainder_inputs(cand, ref.states[1])
        rd = remainder_R_def(pair, ref.time_derivs(1, prm), prm, f)
        rn = remainder_R_new(pair, prm)
        diffs.append(abs(rd["total"] - rn["total"]))
    orders = [np.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8, (diffs, orders)


def _run_grid(init, prm, t_end, n, sink=None):
    dt = 0.25 * init.grid.dx ** 2
    nsteps = max(1, round(t_end / dt))
    opts = SolverOptions(dt=t_end / nsteps, snapshot_stride=max(1, n // 8))
    return run_simulation(init, prm, t_end, opts, sink=sink)


def test_criterion_10a_weak_strong_resolution_decay(prm):
    t_end = 0.02
    trajs = {n: _run_grid(smooth_state(periodic_grid(n), prm), prm, t_end, n)
             for n in (32, 64, 128)}
    e_pairs = []
    for n in (32, 64):
        coarse = trajs[n].final
        fine = restrict_state(trajs[2 * n].final, coarse.grid)
        e_pairs.append(combined_E(remainder_inputs(coarse, fine), prm))
    # E is quadratic in the O(dx^2) state error; expect roughly 2^4 decay
    assert e_pairs[0] / e_pairs[1] >= 4.0, e_pairs


def test_criterion_10b_perturbation_scaling_and_gronwall(prm):
    n, t_end = 32, 0.02
    g = periodic_grid(n)
    base = smooth_state(g, prm)
    ref = RefTrajectory()
    _run_grid(base, prm, t_end, n, sink=ref)
    assert not entropy.spacing_exceeds_dx(
        np.max(np.diff([s.t for s in ref.states])), g)
    ratios, chats = [], []
    for d0 in (1e-2, 1e-3, 1e-4):
        pert = perturb_state(base, d0, seed=77, k=prm.k)
        rows = csv_rows(prm, ref)
        _run_grid(pert, prm, t_end, n, sink=rows)
        rows.write_csv()
        assert len(rows.rows) == len(ref.states)  # a row at each reference snapshot
        t, e = _column(rows.rows, "t"), _column(rows.rows, "E_combined")
        assert np.all(e > 0)
        ratios.append(e[0] / d0 ** 2)
        # C_hat of E(t) <= E(0) exp(C_hat t): the slope of log(E/E0) against
        # t, clamped at 0 (decay still satisfies the bound with C_hat = 0)
        chats.append(max(0.0, np.polyfit(t - t[0], np.log(e / e[0]), 1)[0]))
    for r in ratios:
        assert abs(r / ratios[0] - 1.0) <= 0.10, ratios
    # fitted Gronwall constants agree within a factor of 2 (all may clamp
    # to 0 when the perturbation decays)
    lo, hi = min(chats), max(chats)
    assert hi <= 2.0 * lo or hi <= 1e-12, chats


def test_criterion_10c_entropy_residual_refinement(prm):
    t_end = 0.02
    maxres = []
    for n in (32, 64):
        base = smooth_state(periodic_grid(n), prm)
        ref = RefTrajectory()
        _run_grid(base, prm, t_end, n, sink=ref)
        pert = perturb_state(base, 1e-3, seed=77, k=prm.k)
        rows = csv_rows(prm, ref)
        _run_grid(pert, prm, t_end, n, sink=rows)
        rows.write_csv()
        assert len(rows.rows) == len(ref.states)
        res = _column(rows.rows, "entropy_residual")
        assert res[0] == 0.0
        maxres.append(np.max(np.abs(res)))
    assert maxres[0] / maxres[1] >= 2.0, maxres


_BLOWUP_CFG = """
[grid]
nx = 16
ny = 16

[time]
t_end = 1.0
dt = 5e-4
snapshot_stride = 20

[initial]
preset = gaussian-bump

[forcing]
preset = compress
amplitude = 5.0

[diagnostics]
sup_rho_threshold = {thr}
"""


def test_criterion_11_blowup_exit_codes(tmp_path, capsys):
    p = tmp_path / "blow.ini"
    p.write_text(_BLOWUP_CFG.format(thr="1.5"))
    rc = cli.main(["--out", str(tmp_path / "o1"), "run", str(p)])
    assert rc == cli.EXIT_BLOWUP
    assert "sup_rho" in capsys.readouterr().err
    p.write_text(_BLOWUP_CFG.format(thr="inf"))
    rc = cli.main(["--out", str(tmp_path / "o2"), "run", str(p)])
    assert rc in (cli.EXIT_OK, cli.EXIT_NUMERICAL)
    assert rc != cli.EXIT_BLOWUP


_DET_CFG = """
[grid]
nx = 32
ny = 32

[time]
t_end = 0.02
dt = 2e-4
snapshot_stride = 10

[initial]
preset = shear-layer
delta0 = 1e-3
seed = 42
"""


def test_criterion_12_determinism_across_workers(tmp_path):
    p = tmp_path / "det.ini"
    p.write_text(_DET_CFG)
    blobs = []
    for nthreads in (1, 2, 8):
        out = tmp_path / f"t{nthreads}"
        rc = cli.main(["--threads", str(nthreads), "--out", str(out),
                       "run", str(p)])
        assert rc == cli.EXIT_OK
        data = (out / "run.csv").read_bytes()
        for snap in sorted(out.glob("run_*.bin")):
            data += snap.read_bytes()
        blobs.append(data)
    assert blobs[0] == blobs[1] == blobs[2]
