"""End-to-end CLI behavior, driven in process through main() and once
through ``python -m oldb2d.cli``."""

import contextlib
import csv
import ctypes
import dataclasses
import io
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from oldb2d import (cli, config, dynamics, entropy, fields, grid, kernels,
                    verify)
from oldb2d.cli import (EXIT_BLOWUP, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                        main)
from oldb2d.snapshot_io import BASE_COLUMNS, COMPARE_COLUMNS, read_snapshot
from oldb2d.state import Accumulators, NumericalError, Trajectory
from oldb2d.verify import ManufacturedSolution


BASE = """
[grid]
nx = 16
ny = 16

[time]
t_end = 0.01
dt = 5e-4
snapshot_stride = 5
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _count_steps(monkeypatch) -> list:
    """A list that gains an item for each ``step_ssprk2`` call."""
    steps = []
    step = dynamics.step_ssprk2
    monkeypatch.setattr(dynamics, "step_ssprk2",
                        lambda *args, **kw: steps.append(1) or step(*args, **kw))
    return steps


def test_run_equilibrium_exit_ok(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", BASE)
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", cfg]) == EXIT_OK
    csv = (out / "run.csv").read_text().splitlines()
    assert len(csv) >= 2
    snaps = sorted(out.glob("run_*.bin"))
    assert snaps
    final = read_snapshot(snaps[-1])
    assert np.all(final.rho == 1.0)


def test_run_bad_config_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[grid]\nnx = 16\nny = 16\n"
                                      "[params]\ngamma = 0.5\n")
    assert main(["run", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "gamma" in err


def test_run_missing_file_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


BLOWUP = """
[grid]
nx = 16
ny = 16

[time]
t_end = 5.0
dt = 5e-4
snapshot_stride = 5

[initial]
preset = gaussian-bump

[forcing]
preset = compress
amplitude = 5.0

[diagnostics]
sup_rho_threshold = 1.3
"""


def test_run_blowup_exit_3_names_monitor(tmp_path, capsys):
    cfg = _write(tmp_path, "blow.ini", BLOWUP)
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", cfg]) == EXIT_BLOWUP
    err = capsys.readouterr().err
    assert "blow-up abort" in err and "sup_rho" in err
    # partial outputs still land on disk
    assert (out / "run.csv").exists()


def test_run_numerical_failure_exit_4_keeps_partial_outputs(tmp_path, capsys):
    # the compressive force empties the centre's ring of eta within a few steps
    text = (BLOWUP.replace("amplitude = 5.0", "amplitude = 1e5")
            .replace("sup_rho_threshold = 1.3", "sup_rho_threshold = auto")
            .replace("snapshot_stride = 5", "snapshot_stride = 1"))
    cfg = _write(tmp_path, "fail.ini", text)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["--out", str(out), "run", cfg]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: eta undershoot" in err
    # only the start is checked against the step limit; the advective limit
    # falls as the force compresses the bump
    assert err.endswith("; the fixed step dt=0.0005 is 1.31 times the advective "
                        "x step limit 0.000381454 of the state at t=0.0015\n")
    rows = (out / "run.csv").read_text().splitlines()[1:]
    snaps = sorted(out.glob("run_*.bin"))
    assert len(snaps) == len(rows) > 1
    assert [read_snapshot(p).t for p in snaps] == [float(r.split(",")[0]) for r in rows]


def test_run_out_of_memory_mid_run_exit_2_keeps_partial_outputs(
        tmp_path, capsys, monkeypatch):
    step, steps = dynamics.step_ssprk2, []

    def failing_step(*args, **kwargs):
        steps.append(None)
        if len(steps) == 12:
            raise MemoryError("forced failure on step 12")
        return step(*args, **kwargs)
    monkeypatch.setattr(dynamics, "step_ssprk2", failing_step)
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", _write(tmp_path, "x.ini", BASE)]) \
        == EXIT_CONFIG
    assert "not enough memory for the grid" in capsys.readouterr().err
    rows = (out / "run.csv").read_text().splitlines()[1:]
    # snapshots after steps 0, 5 and 10
    assert len(rows) == len(list(out.glob("run_*.bin"))) == 3


def test_run_numerical_failure_prints_no_numpy_warnings(tmp_path, capsys):
    text = (BLOWUP.replace("amplitude = 5.0", "amplitude = 1e200")
            .replace("sup_rho_threshold = 1.3", "sup_rho_threshold = auto"))
    cfg = _write(tmp_path, "fail.ini", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--out", str(tmp_path / "out"), "run", cfg]) == EXIT_NUMERICAL
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "numerical failure: eta undershoot" in capsys.readouterr().err


TINY = "[grid]\nnx = 8\nny = 8\n[time]\nt_end = 0.001\n[initial]\n"


@pytest.mark.parametrize("command,initial", [
    # eta ** 2 and rho ** gamma overflow in the energy of the rows kept on
    # failure; in compare, c_s overflows in the shared step
    ("run", "eta0 = 1e160"),
    ("run", "rho0 = 1e300"),
    ("compare", "rho0 = 1e300"),
], ids=["run-eta-square", "run-rho-power", "compare-rho-power"])
def test_failure_outside_the_step_prints_no_numpy_warnings(tmp_path, capsys,
                                                          command, initial):
    cfg = _write(tmp_path, "x.ini", TINY + initial + "\n")
    out = tmp_path / "out"
    args = [cfg, cfg] if command == "compare" else [cfg]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--out", str(out), command, *args]) == EXIT_NUMERICAL
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "numerical failure" in capsys.readouterr().err
    if command == "run":
        # the partial rows keep their non-finite energies
        assert "inf" in (out / "run.csv").read_text()


MMS_TINY = ("[grid]\nnx = 8\nny = 8\nlx = {l}\nly = {l}\n"
            "[initial]\npreset = mms:periodic-smooth\n"
            "[time]\ndt = 1e-4\nt_end = 1e-4\n[verify]\nlevels = 8,16,32\n")


@pytest.mark.parametrize("command,text,code,named", [
    # gamma = 1000 shrinks the CFL step below ulp(t) within ten steps
    ("run", "[grid]\nnx = 16\nny = 16\n[initial]\npreset = gaussian-bump\n"
     "[params]\ngamma = 1000\n[time]\nt_end = 0.01\n",
     EXIT_NUMERICAL, "does not advance t="),
    # |T|_Linf ~ 1e300: its square overflows after the run
    ("run", "[grid]\nnx = 8\nny = 8\n[initial]\npreset = gaussian-bump\n"
     "[params]\nk = 1e300\n[time]\nt_end = 0.002\n", EXIT_OK, ""),
    # the bump width squared overflows in the initial state
    ("run", "[grid]\nnx = 8\nny = 8\nlx = 1e200\nly = 1e200\n"
     "[initial]\npreset = gaussian-bump\n", EXIT_CONFIG, "finite squares"),
    # c_s overflows to inf, so both advective limits are dx / inf = 0
    ("run", TINY + "rho0 = 1e300\n", EXIT_NUMERICAL,
     "numerical failure: nonpositive time step 0 at t=0: "
     "advective x limit is 0 (max |u| + c_s = inf); "
     "advective y limit is 0 (max |v| + c_s = inf)\n"),
    # the perturbation halves rho = 5e-324 to 0 in some cells
    ("run", TINY + "rho0 = 5e-324\ndelta0 = 0.5\nseed = 3\n", EXIT_NUMERICAL,
     "diffusive x limit is 0 (max(eps, mu/rho_min, (mu+nu)/rho_min) = inf)"),
    # 1/dx^2 overflows, and so would the squared wavenumber of the source
    ("run", MMS_TINY.format(l="1e-200"), EXIT_CONFIG, "got lx = 1e-200, ly = 1e-200"),
    # so does [grid]'s, and dt_over_dx2 * dx ** 2 would underflow to 0
    ("verify", MMS_TINY.format(l="1e-200"), EXIT_CONFIG,
     "got lx = 1e-200, ly = 1e-200"),
    # [grid] has finite 1/dx^2, the 16 x 16 level does not
    ("verify", MMS_TINY.format(l="1e-153"), EXIT_CONFIG,
     "config error: levels in [verify]: lx / nx and ly / ny must be above "
     "about 7.5e-155, so that 1/dx^2 and 1/dy^2 are finite; got lx = 1e-153, "
     "ly = 1e-153 on 16x16\n"),
    ("verify", MMS_TINY.format(l="1") + "dt_over_dx2 = 5e-324\n", EXIT_CONFIG,
     "dt_over_dx2 in [verify] gives a step of 0 for level 8, too small to "
     "reach t_end = 0.05 within 10000000 steps"),
    # a step of 4.9e-304 would take about 1e302 steps
    ("verify", MMS_TINY.format(l="1e-150"), EXIT_CONFIG,
     "too small to reach t_end = 0.05 within 10000000 steps"),
    # gamma - 1 is one ulp: the H bound's Bregman distance cancels to noise
    ("lemma-check", TINY + "[params]\ngamma = 1.0000000000000002\n"
     "[lemma]\nsamples = 1024\n", EXIT_NUMERICAL,
     "numerical failure: no valid lower-bound constants found for "
     "gamma=1.0000000000000002\n"),
    # numpy refuses the 728 TiB state at once, without allocating
    ("run", "[grid]\nnx = 10000000\nny = 10000000\n", EXIT_CONFIG,
     "config error: not enough memory for the grid"),
], ids=["stalled-t", "tau-square-overflow", "length-square-overflow",
        "sound-speed-overflow", "zero-density", "mms-inverse-square-overflow",
        "verify-inverse-square-overflow", "verify-finest-level-overflow",
        "verify-zero-step", "verify-step-count-above-limit",
        "lemma-gamma-near-one", "grid-beyond-memory"])
def test_extreme_inputs_exit_with_a_code(tmp_path, capsys, command, text, code,
                                         named):
    cfg = _write(tmp_path, "x.ini", text)
    out = tmp_path / "out"
    assert main(["--out", str(out), command, cfg]) == code
    assert named in capsys.readouterr().err
    if code != EXIT_CONFIG and command == "run":
        assert (out / "run.csv").exists()


@pytest.mark.parametrize("steps,code", [(39.7, EXIT_OK), (40.3, EXIT_OK),
                                        (40.6, EXIT_CONFIG)])
def test_verify_step_budget_counts_the_study_steps(tmp_path, capsys, monkeypatch,
                                                   steps, code):
    """``verify``'s start pass counts the steps the study takes on each
    level, t_end / dt rounded (40 on the finest for 39.7 and 40.3 steps'
    time, 41 for 40.6), against the budget ``dynamics`` holds when the
    pass runs."""
    monkeypatch.setattr(dynamics, "MAX_STEPS", 40)
    dt = 0.5 / 32 ** 2  # dt_over_dx2 * dx ** 2 on the 32 x 32 level
    cfg = _write(tmp_path, "v.ini",
                 MMS_TINY.format(l="1") + f"t_end = {steps * dt!r}\n")
    assert main(["--out", str(tmp_path / "out"), "verify", cfg]) == code
    if code == EXIT_CONFIG:
        assert capsys.readouterr().err == (
            "config error: dt_over_dx2 in [verify] gives a step of 0.000483518 "
            "for level 32, too small to reach t_end = 0.0198242 within 40 "
            "steps\n")


#: extreme but parseable values, by the parser of a config.SCHEMA key;
#: [grid] sizes stay at most 16 and [output] directory is left to --out
_EXTREMES = {
    "int": ["0", "1", "3"],
    "_float": ["0", "-0.0", "0.5", "3", "1e-8", "0.99999999999", "1e-300",
               "5e-324", "1e300", "1.0000000000000002"],
    "_threshold": ["auto", "inf", "1.0001", "1e-300", "1e300"],
    "_formats": ["csv", "snapshots"],
    "_bool": ["true", "false"],
    "_levels": ["8,16,32"],
}
_KEY_EXTREMES = {
    ("grid", "nx"): ["8", "16"], ("grid", "ny"): ["8", "16"],
    ("grid", "boundary_mode"): ["physical"],
    ("initial", "preset"): ["uniform", "gaussian-bump", "shear-layer"]
    + [f"mms:{name}" for name in config.MMS_NAMES],
    ("forcing", "preset"): ["compress"],
}
_KEYS = [(sec, key) for sec, keys in config.SCHEMA.items() for key in keys
         if (sec, key) != ("output", "directory")]


@st.composite
def _sections(draw, base, keys=_KEYS, max_size=3):
    """``base`` with up to ``max_size`` of ``keys`` set to extreme values."""
    out = {sec: dict(kv) for sec, kv in base.items()}
    for sec, key in draw(st.lists(st.sampled_from(keys), max_size=max_size,
                                  unique=True)):
        conv = config.SCHEMA[sec][key][1]
        out.setdefault(sec, {})[key] = draw(st.sampled_from(
            _KEY_EXTREMES.get((sec, key), _EXTREMES.get(conv.__name__))))
    return out


def _ini(sections):
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for sec, kv in sections.items())


_BASE = {"grid": {"nx": "8", "ny": "8"},
         "time": {"t_end": "0.002", "snapshot_stride": "2"}}
#: the bump's density, 1.2 at most, crosses the threshold in the first step
_BLOWUP_BASE = {**_BASE, "initial": {"preset": "gaussian-bump"},
                "diagnostics": {"sup_rho_threshold": "1.0001"}}
_VERIFY_BASE = {**_BASE, "initial": {"preset": "mms:periodic-smooth"},
                "verify": {"levels": "8,16,32", "t_end": "0.001"}}
_LEMMA_BASE = {**_BASE, "lemma": {"samples": "1024"}}


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       command=st.sampled_from(["run", "compare", "verify", "lemma-check"]))
def test_any_extreme_config_exits_with_a_documented_code(data, command):
    """``main`` returns 0, 2, 3 or 4 and never raises; a non-zero exit
    prints a message; on exit 3/4 the rows written so far match the
    snapshot files written so far. Steps are capped, so a long run ends
    in exit 4. Every state a run adds to its trajectory is finite, has
    rho >= 0 and eta >= 0, and lies after the previous one it added."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "MAX_STEPS", 30)
        add, last = Trajectory.add, {}  # id -> (trajectory, its last t)

        def checked_add(traj, state, acc, grad_u=None):
            assert all(np.all(np.isfinite(a)) for a in state.arrays())
            assert np.all(state.rho >= 0) and np.all(state.eta >= 0)
            assert id(traj) not in last or state.t > last[id(traj)][1]
            last[id(traj)] = (traj, state.t)  # holding traj keeps its id
            add(traj, state, acc, grad_u)

        mp.setattr(Trajectory, "add", checked_add)
        tmp = Path(tmp)
        base = {"verify": _VERIFY_BASE, "lemma-check": _LEMMA_BASE}.get(
            command) or data.draw(st.sampled_from([_BASE, _BLOWUP_BASE]))
        sections = data.draw(_sections(base))
        configs = [tmp / "a.ini"]
        configs[0].write_text(_ini(sections))
        if command == "compare":
            weak = data.draw(_sections(sections, [k for k in _KEYS
                                                  if k[0] == "initial"], 2))
            configs.append(tmp / "b.ini")
            configs[1].write_text(_ini(weak))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--out", str(tmp / "out"), command, *map(str, configs)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP, EXIT_NUMERICAL)
        assert code == EXIT_OK or err.getvalue().strip()
        formats = sections.get("output", {}).get("formats", "csv,snapshots")
        if code in (EXIT_BLOWUP, EXIT_NUMERICAL) and formats == "csv,snapshots":
            stem = "compare" if command == "compare" else "run"
            csv = tmp / "out" / f"{stem}.csv"
            rows = csv.read_text().splitlines()[1:] if csv.exists() else []
            snaps = sorted((tmp / "out").glob(f"{stem}_*.bin"))
            times = [read_snapshot(p).t for p in snaps]
            # so the last row lies at the last snapshot's time
            assert [float(r.split(",")[0]) for r in rows] == times


def test_compare_identical_configs_zero_entropy(tmp_path, capsys):
    cfg = _write(tmp_path, "a.ini", BASE)
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", cfg, cfg]) == EXIT_OK
    lines = (out / "compare.csv").read_text().splitlines()
    cols = lines[0].split(",")
    assert cols == list(COMPARE_COLUMNS)
    iE = cols.index("E_combined")
    ires = cols.index("entropy_residual")
    for line in lines[1:]:
        vals = line.split(",")
        assert float(vals[iE]) == 0.0
        assert float(vals[ires]) == 0.0


BUMP = """
[grid]
nx = 16
ny = 16

[initial]
preset = gaussian-bump
{extra}
[time]
t_end = 1e-12
snapshot_stride = 1
"""


def test_compare_steps_at_the_cfl_step_of_the_floored_starts(tmp_path, monkeypatch):
    """compare's shared CFL step is chosen on the states both runs start
    from, whose densities are floored: a candidate cell below the floor
    does not shrink it."""
    steps = []
    run = cli.run_simulation

    def spy(init, prm, t_end, opts, **kwargs):
        steps.append(opts.dt)
        return run(init, prm, t_end, opts, **kwargs)

    monkeypatch.setattr(cli, "run_simulation", spy)
    ref = _write(tmp_path, "ref.ini", BUMP.format(extra=""))
    weak = _write(tmp_path, "weak.ini", BUMP.format(
        extra="delta0 = 0.99999999999\nseed = 3"))
    assert main(["--out", str(tmp_path / "out"), "compare", ref, weak]) == EXIT_OK
    cfgs = [config.parse_config(Path(p).read_text()) for p in (ref, weak)]
    starts = [config.build_initial(c)[0] for c in cfgs]
    prm, cfl = cfgs[0].params, cfgs[0].cfl
    raw = min(dynamics.cfl_dt(s, prm, cfl) for s in starts)
    for s in starts:
        s.rho = np.maximum(s.rho, 1e-10 * np.mean(s.rho))
    floored = min(dynamics.cfl_dt(s, prm, cfl) for s in starts)
    # the candidate's min rho is about 1e-11, a tenth of its floor
    assert floored > 5 * raw
    assert steps == [floored, floored]


def test_compare_blowup_exit_3_names_monitor(tmp_path, capsys):
    cfg = _write(tmp_path, "blow.ini", BLOWUP)
    assert main(["--out", str(tmp_path / "out"), "compare", cfg, cfg]) == EXIT_BLOWUP
    err = capsys.readouterr().err
    assert "blow-up abort" in err and "sup_rho" in err


def test_compare_zero_eta_reference_exit_4(tmp_path, capsys, monkeypatch):
    ref = _write(tmp_path, "ref.ini", BASE + "[initial]\neta0 = 0\n")
    weak = _write(tmp_path, "weak.ini", BASE)
    steps = _count_steps(monkeypatch)
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", ref, weak]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert ("numerical failure: reference polymer density must be strictly "
            f"positive, in the reference run of {ref}\n") in err
    # the reference stops at its first snapshot, before any step
    assert steps == [] and not out.exists()


def test_compare_reference_out_of_memory_names_the_reference(
        tmp_path, capsys, monkeypatch):
    keep, kept = entropy.RefTrajectory.__call__, []

    def failing_keep(self, *args, **kwargs):
        kept.append(None)
        if len(kept) == 4:
            raise MemoryError("forced failure at snapshot 4")
        return keep(self, *args, **kwargs)
    monkeypatch.setattr(entropy.RefTrajectory, "__call__", failing_keep)
    ref = _write(tmp_path, "ref.ini", BASE.replace("snapshot_stride = 5",
                                                   "snapshot_stride = 1"))
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", ref, ref]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "not enough memory for the grid" in err
    assert err.endswith(f"at snapshot 4, in the reference run of {ref}\n")
    assert not out.exists()


# the compressive force pushes sup rho past 1.3 near t = 0.08 (step ~163);
# the automatic threshold, 1e3 max rho, is never reached
FORCED = (BLOWUP.replace("t_end = 5.0", "t_end = 0.1")
          .replace("sup_rho_threshold = 1.3", "sup_rho_threshold = auto"))
FORCED_WEAK = FORCED.replace("preset = gaussian-bump\n",
                             "preset = gaussian-bump\ndelta0 = 1e-3\nseed = 5\n")


def _compare_outputs(out):
    """(header, rows, snapshot paths) of a compare output directory."""
    lines = (out / "compare.csv").read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]], \
        sorted(out.glob("compare_*.bin"))


def _assert_prefix_of_full_run(out, full):
    """The partial outputs are the full run's first rows and snapshots: every
    snapshot byte and every column, except the last row's one-sided
    trace_residual; the last row lies at the last snapshot's time."""
    cols, rows, snaps = _compare_outputs(out)
    _, full_rows, full_snaps = _compare_outputs(full)
    assert 1 < len(snaps) == len(rows) < len(full_rows)
    assert [read_snapshot(p, "periodic").t for p in snaps] == \
        [float(r[0]) for r in rows]
    for p in snaps:
        assert p.read_bytes() == (full / p.name).read_bytes()
    assert rows[:-1] == full_rows[:len(rows) - 1]
    itr = cols.index("trace_residual")
    last = full_rows[len(rows) - 1]
    assert rows[-1][:itr] + rows[-1][itr + 1:] == last[:itr] + last[itr + 1:]
    return cols, rows


@pytest.mark.parametrize("stride", ["1", "5"])
def test_compare_candidate_blowup_keeps_partial_outputs(tmp_path, capsys, stride):
    text = FORCED.replace("snapshot_stride = 5", f"snapshot_stride = {stride}")
    weak = FORCED_WEAK.replace("snapshot_stride = 5", f"snapshot_stride = {stride}")
    ref_cfg = _write(tmp_path, "ref.ini", text)
    full_cfg = _write(tmp_path, "full.ini", weak)
    weak_cfg = _write(tmp_path, "weak.ini", weak.replace(
        "sup_rho_threshold = auto", "sup_rho_threshold = 1.3"))
    full = tmp_path / "full"
    assert main(["--out", str(full), "compare", ref_cfg, full_cfg]) == EXIT_OK
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", ref_cfg, weak_cfg]) == EXIT_BLOWUP
    assert "blow-up abort: monitor sup_rho" in capsys.readouterr().err
    cols, rows = _assert_prefix_of_full_run(out, full)
    sup_rho = float(rows[-1][cols.index("sup_rho")])
    if stride == "1":
        # the aborting snapshot lies on a reference snapshot and has its row
        assert sup_rho > 1.3
    else:
        # it lies between two reference snapshots, so no row pairs it
        assert sup_rho <= 1.3


def test_compare_candidate_numerical_failure_keeps_partial_outputs(
        tmp_path, capsys, monkeypatch):
    ref_cfg = _write(tmp_path, "ref.ini", FORCED)
    weak_cfg = _write(tmp_path, "weak.ini", FORCED_WEAK)
    full = tmp_path / "full"
    assert main(["--out", str(full), "compare", ref_cfg, weak_cfg]) == EXIT_OK
    count = {"runs": 0, "steps": 0}
    run_simulation, step = cli.run_simulation, dynamics.step_ssprk2

    def counted_run(*args, **kwargs):
        count["runs"] += 1
        count["steps"] = 0
        return run_simulation(*args, **kwargs)

    def failing_step(*args, **kwargs):
        count["steps"] += 1
        if count["runs"] == 2 and count["steps"] == 48:
            raise NumericalError("forced failure on the candidate's step 48")
        return step(*args, **kwargs)

    monkeypatch.setattr(cli, "run_simulation", counted_run)
    monkeypatch.setattr(dynamics, "step_ssprk2", failing_step)
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", ref_cfg, weak_cfg]) == EXIT_NUMERICAL
    assert "numerical failure: forced failure" in capsys.readouterr().err
    _, rows = _assert_prefix_of_full_run(out, full)
    # snapshots at steps 0, 5, ..., 45
    assert len(rows) == 10


def test_compare_reference_failure_writes_nothing(tmp_path, capsys):
    ref_cfg = _write(tmp_path, "ref.ini", FORCED.replace(
        "sup_rho_threshold = auto", "sup_rho_threshold = 1.3"))
    weak_cfg = _write(tmp_path, "weak.ini", FORCED_WEAK)
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", ref_cfg, weak_cfg]) == EXIT_BLOWUP
    err = capsys.readouterr().err
    assert "blow-up abort: monitor sup_rho" in err
    assert err.endswith(f"(threshold 1.3), in the reference run of {ref_cfg}\n")
    assert not out.exists()


def test_run_and_candidate_hold_one_snapshot(tmp_path, monkeypatch):
    """Every ``Trajectory`` of ``run``, of both runs of ``compare`` and of
    ``verify`` holds only the latest state after each ``add``; compare's
    ``RefTrajectory`` keeps every reference snapshot."""
    adds, kept = [], []
    add, keep = Trajectory.add, entropy.RefTrajectory.__call__

    def spy(traj, state, acc, grad_u=None):
        add(traj, state, acc, grad_u)
        assert traj.states[-1].t == state.t
        adds.append((traj, len(traj.states)))

    def spy_ref(ref, state, acc=None, grad_u=None):
        keep(ref, state, acc, grad_u)
        kept.append(len(ref.states))

    monkeypatch.setattr(Trajectory, "add", spy)
    monkeypatch.setattr(entropy.RefTrajectory, "__call__", spy_ref)
    cfg = _write(tmp_path, "c.ini", BASE.replace("snapshot_stride = 5",
                                                 "snapshot_stride = 1"))
    weak = _write(tmp_path, "w.ini", BASE.replace("snapshot_stride = 5",
                                                  "snapshot_stride = 1")
                  + "[initial]\ndelta0 = 1e-3\nseed = 5\n")
    mms = _write(tmp_path, "v.ini", BASE + "[initial]\npreset = mms:diffusion-eta\n"
                 "[verify]\nlevels = 8,16,32\nt_end = 0.002\n")

    def held(command, *configs):
        adds.clear()
        kept.clear()
        out = tmp_path / command
        assert main(["--out", str(out), command, *configs]) == EXIT_OK
        trajs = {id(t): t for t, _ in adds}.values()
        return [[n for t, n in adds if t is traj] for traj in trajs]

    assert held("run", cfg) == [[1] * 21] and kept == []
    assert held("compare", cfg, weak) == [[1] * 21] * 2
    assert kept == list(range(1, 22))
    assert len((tmp_path / "compare" / "compare.csv").read_text().splitlines()) == 22
    # one run per level, adding its initial and its final state
    assert held("verify", mms) == [[1, 1]] * 3 and kept == []


def test_accumulator_fields_are_the_csv_columns(tmp_path, monkeypatch):
    """The fields of the record a sink is handed are, in order, the
    ``*_cum`` columns of ``run.csv``, and each row carries the values of
    its snapshot's record; a record handed out is never changed later."""
    handed = []
    rows_call = cli._Rows.__call__

    def tee(rows, state, acc, grad_u):
        handed.append((acc, tuple(vars(acc).values())))
        rows_call(rows, state, acc, grad_u)

    monkeypatch.setattr(cli._Rows, "__call__", tee)
    cfg = _write(tmp_path, "c.ini", BASE + "[initial]\ndelta0 = 1e-2\nseed = 5\n"
                 "[forcing]\npreset = compress\namplitude = 1.0\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", cfg]) == EXIT_OK
    cum = [c for c in BASE_COLUMNS if c.endswith("_cum")]
    assert [f.name for f in dataclasses.fields(Accumulators)] == cum
    with open(out / "run.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(handed) == 5
    for row, (acc, at_hand) in zip(rows, handed):
        assert tuple(vars(acc).values()) == at_hand
        assert tuple(float(row[c]) for c in cum) == at_hand
    assert all(v != 0.0 for v in handed[-1][1])


@pytest.mark.parametrize("extra,section,keys", [
    ("[params]\ngamma = 3.0\nmu_s = 0.5\n", "[params]", ("gamma", "mu_s")),
    ("[forcing]\npreset = compress\n", "[forcing]", ("preset",)),
])
def test_compare_candidate_params_or_forcing_differ_exit_2(tmp_path, capsys,
                                                           extra, section, keys):
    ref_cfg = _write(tmp_path, "ref.ini", BASE)
    weak_cfg = _write(tmp_path, "weak.ini", BASE + extra)
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", ref_cfg, weak_cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and section in err
    assert all(k in err for k in keys)
    assert not out.exists()


@pytest.mark.parametrize("command,extra,named", [
    ("run", "[initial]\npreset = mms:bogus\n", "'mms:bogus'"),
    ("compare", "[initial]\npreset = mms:bogus\n", "'mms:bogus'"),
    ("verify", "[initial]\npreset = mms:bogus\n", "'mms:bogus'"),
    ("run", "[initial]\ndelta0 = 3.0\nseed = 2\n", "delta0"),
    ("compare", "[initial]\ndelta0 = 1.0\n", "delta0"),
])
def test_bad_initial_data_exit_2(tmp_path, capsys, command, extra, named):
    cfg = _write(tmp_path, "bad.ini", BASE + extra)
    files = [cfg, cfg] if command == "compare" else [cfg]
    assert main(["--out", str(tmp_path / "out"), command, *files]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not (tmp_path / "out").exists()


def test_compare_candidate_time_differs_exit_2(tmp_path, capsys):
    ref_cfg = _write(tmp_path, "ref.ini", BASE)
    weak_cfg = _write(tmp_path, "weak.ini",
                      BASE.replace("t_end = 0.01", "t_end = 0.05")
                      .replace("snapshot_stride = 5", "snapshot_stride = 1")
                      + "cfl = 0.2\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", ref_cfg, weak_cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("config error: compare integrates both runs with the reference's "
            "[time]; the candidate's t_end, cfl, snapshot_stride differ") in err
    assert not out.exists()


@pytest.mark.parametrize("stride,t_end,code", [
    # 130 steps of 5e-4 is 0.065, above dx = 1/16
    ("130", "0.08", EXIT_CONFIG),
    # the spacing never exceeds t_end
    ("1000", "0.01", EXIT_OK),
])
def test_compare_snapshot_spacing_above_dx_exit_2(tmp_path, capsys, stride, t_end, code):
    cfg = _write(tmp_path, "c.ini", BASE.replace("snapshot_stride = 5",
                                                 f"snapshot_stride = {stride}")
                 .replace("t_end = 0.01", f"t_end = {t_end}"))
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", cfg, cfg]) == code
    if code == EXIT_CONFIG:
        err = capsys.readouterr().err
        assert "snapshot_stride" in err and "dt" in err and "lower" in err
        assert not out.exists()


def test_compare_snapshot_spacing_is_relative_to_dx(tmp_path, capsys):
    """On a box 1e-11 wide, reference snapshots 2.4 dx apart are refused as
    on the unit box, while a spacing that rounds to dx passes."""
    text = ("[grid]\nnx = 16\nny = 16\nlx = 1e-11\nly = 1e-11\n"
            "[params]\neps = 1e-20\nmu_s = 1e-20\n"
            "[time]\nt_end = 3e-12\ndt = 1.5e-13\nsnapshot_stride = 10\n")
    cfg = _write(tmp_path, "c.ini", text)
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", cfg, cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "at most min(dx, dy) = 6.25e-13 apart" in err
    assert "lower snapshot_stride" in err
    assert not out.exists()
    g = config.parse_config(text).grid
    assert not entropy.spacing_exceeds_dx(10 * (g.dx / 10), g)
    assert entropy.spacing_exceeds_dx(g.dx * (1 + 1e-11), g)


def test_compare_rows_match_reference_times_exactly(tmp_path):
    """A candidate snapshot off the reference's times gets no row, even
    when it lies less than 1e-12 from the next reference snapshot."""
    cfg = config.parse_config(BASE + "[initial]\ndelta0 = 1e-2\nseed = 5\n")
    cfg.out_dir = str(tmp_path / "out")
    init = config.build_initial(cfg)[0]
    ref = entropy.RefTrajectory()
    for t in (0.0, 8e-13, 1.6e-12):
        s = init.copy()
        s.t = t
        ref(s)
    rows = cli._Rows(cfg, ref)
    for t in (0.0, 4e-13):
        s = init.copy()
        s.t = t
        rows(s, Accumulators(0.0, 0.0, 0.0, 0.0, 0.0), None)
    assert [row["t"] for row in rows.rows] == [0.0]
    assert not ref.shares_time(1, 4e-13)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["compare_000000.bin"]


def test_compare_row_takes_reference_derivatives_and_force_once(tmp_path,
                                                                monkeypatch):
    """Each compare row asks the reference for its time derivatives once and
    evaluates the body force once, for both its columns and its
    entropy-inequality terms."""
    derivs, forces = [], []
    time_derivs = entropy.RefTrajectory.time_derivs
    monkeypatch.setattr(entropy.RefTrajectory, "time_derivs",
                        lambda ref, i, prm: derivs.append(i) or time_derivs(ref, i, prm))
    stream = cli._stream

    def counting_stream(rows, *args):
        force_fn = rows.force_fn
        rows.force_fn = lambda t: forces.append(t) or force_fn(t)
        stream(rows, *args)

    monkeypatch.setattr(cli, "_stream", counting_stream)
    cfg = _write(tmp_path, "c.ini", BASE + "[initial]\ndelta0 = 1e-2\nseed = 5\n"
                 "[forcing]\npreset = compress\namplitude = 1.0\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", cfg, cfg]) == EXIT_OK
    with open(out / "compare.csv", newline="") as fh:
        n = len(list(csv.DictReader(fh)))
    assert n == 5 and derivs == list(range(n)) and len(forces) == n


@pytest.mark.parametrize("t_end", ["0", "1e-14"])
def test_compare_t_end_below_one_step_exit_2(tmp_path, capsys, t_end):
    cfg = _write(tmp_path, "c.ini", BASE.replace("t_end = 0.01", f"t_end = {t_end}"))
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", cfg, cfg]) == EXIT_CONFIG
    assert "t_end in [time]" in capsys.readouterr().err
    assert not out.exists()


def test_compare_grid_mismatch_exit_2(tmp_path, capsys):
    a = _write(tmp_path, "a.ini", BASE)
    b = _write(tmp_path, "b.ini", BASE.replace("nx = 16", "nx = 32"))
    assert main(["compare", a, b]) == EXIT_CONFIG
    assert "the reference's [grid]; the candidate's nx differ" in capsys.readouterr().err


def test_compare_grid_and_time_mismatch_reported_together(tmp_path, capsys):
    # "same grid" is exact: lx 1.000000001 is refused, with the [time] key
    ref_cfg = _write(tmp_path, "ref.ini", BASE)
    weak_cfg = _write(tmp_path, "weak.ini",
                      BASE.replace("ny = 16\n", "ny = 16\nlx = 1.000000001\n")
                      .replace("dt = 5e-4", "dt = 4e-4"))
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", ref_cfg, weak_cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    for sec, key in (("grid", "lx"), ("time", "dt")):
        assert (f"config error: compare integrates both runs with the reference's "
                f"[{sec}]; the candidate's {key} differ\n") in err
    assert not out.exists()


def test_compare_pair_is_checked_before_any_state_is_built(tmp_path, capsys):
    ref_cfg = _write(tmp_path, "ref.ini", BASE)
    weak_cfg = _write(tmp_path, "weak.ini", BASE.replace("16", "10000000"))
    assert main(["compare", ref_cfg, weak_cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: compare integrates both runs with the reference's "
        "[grid]; the candidate's nx, ny differ\n")


@pytest.mark.parametrize("command", ["verify", "run", "compare"])
def test_mms_preset_on_walls_exit_2(tmp_path, capsys, command):
    text = (BASE.replace("ny = 16\n", "ny = 16\nboundary_mode = physical\n", 1)
            + "[initial]\npreset = mms:periodic-smooth\n"
            "[verify]\nlevels = 8,16,32\nt_end = 0.002\n")
    cfg = _write(tmp_path, "walls.ini", text)
    out = tmp_path / "out"
    args = [cfg, cfg] if command == "compare" else [cfg]
    assert main(["--out", str(out), command, *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "boundary_mode" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "run", "compare"])
def test_mms_preset_with_forcing_exit_2(tmp_path, capsys, command):
    text = (BASE + "[initial]\npreset = mms:steady-ws\n[forcing]\npreset = compress\n"
            "[verify]\nlevels = 8,16,32\nt_end = 0.002\n")
    cfg = _write(tmp_path, "forced.ini", text)
    out = tmp_path / "out"
    args = [cfg, cfg] if command == "compare" else [cfg]
    assert main(["--out", str(out), command, *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "preset in [forcing]" in err
    assert not out.exists()


def test_verify_requires_mms_preset(tmp_path, capsys):
    cfg = _write(tmp_path, "v.ini", BASE)
    assert main(["verify", cfg]) == EXIT_CONFIG
    assert "mms:" in capsys.readouterr().err


def test_verify_writes_convergence_table(tmp_path, capsys):
    text = """
[grid]
nx = 16
ny = 16

[initial]
preset = mms:diffusion-eta

[verify]
levels = 8,16,32
t_end = 0.02
"""
    cfg = _write(tmp_path, "v.ini", text)
    out = tmp_path / "out"
    assert main(["--out", str(out), "verify", cfg]) == EXIT_OK
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "field,n,l2_error,linf_error,l2_order"
    assert len(lines) == 1 + 7 * 3


def test_verify_with_zero_errors_exit_4(tmp_path, capsys):
    # a step of 1e-300 leaves L2 errors of exactly 0, whose orders are nan
    cfg = _write(tmp_path, "v.ini", MMS_TINY.format(l="1") + "t_end = 1e-300\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "verify", cfg]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "convergence study invalid: L2 errors of exactly 0 for field" in err
    assert "t_end = 1e-300 is too short to measure an order" in err
    assert (out / "convergence.csv").exists()


def test_verify_samples_no_initial_state(tmp_path, monkeypatch):
    levels = []
    sample = ManufacturedSolution.sample_state

    def counted(self, grid, t):
        levels.append(grid.nx)
        return sample(self, grid, t)

    monkeypatch.setattr(ManufacturedSolution, "sample_state", counted)
    text = (BASE + "[initial]\npreset = mms:diffusion-eta\ndelta0 = 0.5\n"
            "[verify]\nlevels = 8,16,32\nt_end = 0.002\n")
    cfg = _write(tmp_path, "v.ini", text)
    assert main(["--out", str(tmp_path / "out"), "verify", cfg]) == EXIT_OK
    # each level's start, for the step check before the study; then the
    # initial and the exact state of each level; nothing on [grid]
    assert levels == [8, 16, 32, 8, 8, 16, 16, 32, 32]


@pytest.mark.parametrize("command,extra,key", [
    ("verify", "[initial]\npreset = mms:diffusion-eta\n[verify]\nlevels = 16,32\n",
     "levels"),
    ("lemma-check", "[lemma]\nsamples = -5\n", "samples"),
    ("lemma-check", "[lemma]\nsamples = 2147483648\n", "samples"),
])
def test_study_settings_checked_before_running(tmp_path, capsys, command, extra, key):
    cfg = _write(tmp_path, "bad.ini", BASE + extra)
    assert main([command, cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_verify_ignores_grid_nx_ny(tmp_path):
    """verify's grids come from [verify] levels: configs that differ only in
    [grid] nx and ny write the same convergence table."""
    tables = []
    for nx, ny in ((16, 16), (8, 64)):
        cfg = _write(tmp_path, f"v{nx}.ini", f"[grid]\nnx = {nx}\nny = {ny}\n"
                     "[initial]\npreset = mms:diffusion-eta\n"
                     "[verify]\nlevels = 8,16,32\nt_end = 0.002\n")
        out = tmp_path / f"out{nx}"
        assert main(["--out", str(out), "verify", cfg]) == EXIT_OK
        tables.append((out / "convergence.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("command", ["run", "compare", "verify"])
@pytest.mark.parametrize("via", ["--out", "[output]"])
def test_unwritable_output_directory_exit_2_before_any_step(
        tmp_path, capsys, monkeypatch, command, via):
    """An output directory that is a file, or lies under one, is a config
    error named with its path and the OS reason, before any step runs; the
    check creates nothing."""
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    path = blocker if via == "--out" else blocker / "sub"
    text = BASE
    if command == "verify":
        text += ("[initial]\npreset = mms:diffusion-eta\n"
                 "[verify]\nlevels = 8,16,32\nt_end = 0.002\n")
    if via == "[output]":
        text += f"[output]\ndirectory = {path}\n"
    cfg = _write(tmp_path, "c.ini", text)
    steps = _count_steps(monkeypatch)
    out = ["--out", str(path)] if via == "--out" else []
    files = [cfg, cfg] if command == "compare" else [cfg]
    assert main([*out, command, *files]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: cannot write outputs to {path}: Not a directory" in err
    assert steps == [] and blocker.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "file"]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_no_output_format_creates_no_directory(tmp_path, command):
    cfg = _write(tmp_path, "c.ini", BASE + "[output]\nformats =\n")
    out = tmp_path / "out"
    files = [cfg, cfg] if command == "compare" else [cfg]
    assert main(["--out", str(out), command, *files]) == EXIT_OK
    assert not out.exists()


_WALLS_128 = (Path(__file__).parents[1] / "configs" / "compare_walls_reference.ini"
              ).read_text().replace("nx = 32", "nx = 128").replace("ny = 32", "ny = 128")


@pytest.mark.parametrize("command", ["run", "compare"])
def test_fixed_dt_above_the_start_limit_exit_2_before_any_step(
        tmp_path, capsys, monkeypatch, command):
    """The walled reference at 128^2 keeps its dt = 2e-4, above the
    diffusive limit dx^2 / (4 mu / rho_min) of its start: exit 2 names
    [time] dt, the limit and which one it is, before any step and with no
    output directory made; compare checks both starts."""
    cfg = _write(tmp_path, "w.ini", _WALLS_128)
    weak = _write(tmp_path, "p.ini", _WALLS_128.replace(
        "preset = gaussian-bump\n", "preset = gaussian-bump\ndelta0 = 1e-3\nseed = 4\n"))
    steps = _count_steps(monkeypatch)
    out = tmp_path / "out"
    files = [cfg, weak] if command == "compare" else [cfg]
    assert main(["--out", str(out), command, *files]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    whose = ["reference", "candidate"] if command == "compare" else ["run"]
    assert len(err) == len(whose)
    for line, who in zip(err, whose):
        assert line.startswith("config error: dt in [time] is 0.0002, above the "
                               "diffusive x step limit 0.00015"), line
        assert f"of the {who}'s initial state" in line
    assert steps == [] and not out.exists()


@pytest.mark.parametrize("dt,code", [("2.5e-4", EXIT_OK), ("2.4e-4", EXIT_CONFIG)])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_fixed_dt_over_the_step_budget_exit_2_before_any_step(
        tmp_path, capsys, monkeypatch, command, dt, code):
    """A [time] dt that reaches t_end = 0.01 only after more than
    ``dynamics.MAX_STEPS`` steps, 41.7 of 2.4e-4 against 40, is refused
    before any step and with no output directory made, one line per run;
    40 steps of 2.5e-4 end at t_end within the budget."""
    monkeypatch.setattr(dynamics, "MAX_STEPS", 40)
    cfg = _write(tmp_path, "c.ini", BASE.replace("dt = 5e-4", f"dt = {dt}"))
    steps = _count_steps(monkeypatch)
    out = tmp_path / "out"
    files = [cfg, cfg] if command == "compare" else [cfg]
    assert main(["--out", str(out), command, *files]) == code
    if code == EXIT_OK:
        assert len(steps) == 40 * len(files)
        return
    whose = ["reference", "candidate"] if command == "compare" else ["run"]
    assert capsys.readouterr().err.splitlines() == [
        f"config error: dt in [time] is 0.00024 for the {who}, too small to "
        f"reach t_end = 0.01 within 40 steps" for who in whose]
    assert steps == [] and not out.exists()


def test_compare_cfl_step_over_the_step_budget_exit_2_before_any_step(
        tmp_path, capsys, monkeypatch):
    """compare's shared CFL step is a fixed step for both runs, checked
    against the step budget like a [time] dt."""
    monkeypatch.setattr(dynamics, "MAX_STEPS", 40)
    cfg = _write(tmp_path, "c.ini", BASE.replace("dt = 5e-4\n", "")
                 .replace("t_end = 0.01", "t_end = 1"))
    steps = _count_steps(monkeypatch)
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", cfg, cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cfl in [time] gives a shared step of ")
    assert err.endswith(" for both runs, too small to reach t_end = 1 within "
                        "40 steps\n")
    assert steps == [] and not out.exists()


def test_run_of_an_mms_preset_ignores_its_verify_section(tmp_path, monkeypatch):
    """Only ``verify`` reads [verify]: a run of an ``mms:`` preset whose
    study step would underflow to 0 runs."""
    monkeypatch.setattr(dynamics, "MAX_STEPS", 40)
    cfg = _write(tmp_path, "m.ini",
                 MMS_TINY.format(l="1") + "dt_over_dx2 = 5e-324\n")
    assert main(["--out", str(tmp_path / "out"), "run", cfg]) == EXIT_OK


@pytest.mark.parametrize("dt_over_dx2,steps,limits", [
    ("3", ("0.01", "0.00333333", "0.000714286"), ("0.00835653", "0.00207871",
                                                  "0.000519019")),
    ("20", ("0.01", "0.01", "0.005"), ("0.00835653", "0.00207871", "0.000519019"))],
    ids=["3", "20"])
def test_verify_step_above_a_level_start_limit_exit_2_before_any_step(
        tmp_path, capsys, monkeypatch, dt_over_dx2, steps, limits):
    """Each study level's step is checked against the limit of that level's
    start before any level runs: at dt_over_dx2 = 3 the steps are 1.20,
    1.60 and 1.38 times the diffusive limits, at 20 they are 1.20, 4.81 and
    9.63 times; one message per level, and no output directory is made."""
    cfg = _write(tmp_path, "v.ini", "[grid]\nnx = 16\nny = 16\n[initial]\n"
                 "preset = mms:periodic-smooth\n[verify]\nlevels = 16,32,64\n"
                 f"t_end = 0.01\ndt_over_dx2 = {dt_over_dx2}\n")
    ran = _count_steps(monkeypatch)
    out = tmp_path / "out"
    assert main(["--out", str(out), "verify", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: dt_over_dx2 in [verify] gives a step of {dt}, above the "
        f"diffusive x step limit {limit} of level {n}'s initial state; "
        f"lower dt_over_dx2" for n, dt, limit in zip((16, 32, 64), steps, limits)]
    assert ran == [] and not out.exists()


_SLIVER = """
[grid]
nx = 16
ny = 16

[initial]
preset = gaussian-bump
{extra}
[time]
t_end = 1.0
dt = 2.5e-3
snapshot_stride = 10

[output]
formats = csv
"""


def test_fixed_step_run_ends_at_t_end_without_a_sliver_step(tmp_path):
    """400 steps of 2.5e-3 leave t about 1e-14 short of t_end = 1, more
    than the loop's stopping slack. The 400th step goes to t_end instead of
    leaving a step of rounding error, whose two snapshots would turn the
    columns that difference snapshots into noise. The compare rows are the
    perturbed run's rows with the relative-entropy columns added."""
    ref = _write(tmp_path, "ref.ini", _SLIVER.format(extra=""))
    weak = _write(tmp_path, "weak.ini", _SLIVER.format(extra="delta0 = 0.05\nseed = 3"))
    out = tmp_path / "out"
    assert main(["--out", str(out), "compare", ref, weak]) == EXIT_OK
    with open(out / "compare.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 41 and float(rows[-1]["t"]) == 1.0
    assert abs(float(rows[-1]["trace_residual"])) < 1e-6
    gap = [abs(float(r["R_def_total"]) - float(r["R_new_total"])) for r in rows]
    assert float(rows[-2]["t"]) == pytest.approx(0.975)
    assert gap[-1] <= 2 * gap[-2]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_fixed_dt_start_with_no_positive_limit_keeps_exit_4(tmp_path, capsys,
                                                           command):
    cfg = _write(tmp_path, "c.ini", BASE + "[initial]\nrho0 = 1e300\n")
    files = [cfg, cfg] if command == "compare" else [cfg]
    assert main(["--out", str(tmp_path / "out"), command, *files]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: nonpositive time step 0 at t=0: advective x limit "
        "is 0 (max |u| + c_s = inf); advective y limit is 0 (max |v| + c_s = inf)\n")


@pytest.mark.parametrize("command,text,code", [
    ("run", BASE, EXIT_CONFIG), ("compare", BASE, EXIT_CONFIG),
    ("run", BLOWUP + "[output]\nformats = csv\n", EXIT_BLOWUP)],
    ids=["run", "compare", "run-blowup-csv"])
def test_output_directory_replaced_mid_run(tmp_path, capsys, monkeypatch,
                                           command, text, code):
    """An output directory replaced by a file after the second row fails the
    next write: exit 2 with the start-up check's message; if the run has
    failed by then, its own code and message stand and stderr also names
    the failed write."""
    out = tmp_path / "out"
    call = cli._Rows.__call__

    def replace_after_second_row(rows, *args):
        call(rows, *args)
        if len(rows.rows) == 2:
            shutil.rmtree(out, ignore_errors=True)
            out.write_text("kept")

    monkeypatch.setattr(cli._Rows, "__call__", replace_after_second_row)
    cfg = _write(tmp_path, "c.ini", text)
    files = [cfg, cfg] if command == "compare" else [cfg]
    assert main(["--out", str(out), command, *files]) == code
    err = capsys.readouterr().err
    assert f"cannot write outputs to {out}: File exists" in err
    if code == EXIT_CONFIG:
        assert err.startswith("config error: ")
    else:
        assert "blow-up abort: monitor sup_rho" in err
    assert out.read_text() == "kept"


@pytest.mark.parametrize("blocked", ["table-is-a-directory",
                                     "directory-replaced-by-a-file"])
def test_verify_failed_table_write_exit_2(tmp_path, capsys, monkeypatch,
                                          blocked):
    """``verify`` writes ``convergence.csv`` under the output-write rule:
    a table path that is a directory, or an output directory replaced by a
    file during the study, exits 2 naming the directory and the OS reason."""
    out = tmp_path / "out"
    study = verify.convergence_study
    if blocked == "table-is-a-directory":
        (out / "convergence.csv").mkdir(parents=True)
        reason = "Is a directory"
    else:
        def replace_during_study(*args, **kw):
            rep = study(*args, **kw)
            out.write_text("kept")
            return rep
        monkeypatch.setattr(verify, "convergence_study", replace_during_study)
        reason = "File exists"
    cfg = _write(tmp_path, "v.ini", BASE + "[initial]\npreset = mms:diffusion-eta\n"
                 "[verify]\nlevels = 8,16,32\nt_end = 0.002\n")
    assert main(["--out", str(out), "verify", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: cannot write outputs to {out}: {reason}\n"


def test_lemma_check_writes_no_file_and_ignores_out(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    cfg = _write(tmp_path, "l.ini", BASE + "[lemma]\nsamples = 1024\n")
    assert main(["--out", str(blocker), "lemma-check", cfg]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_lemma_check_pass_and_fail(tmp_path, capsys):
    ok = _write(tmp_path, "ok.ini", BASE + "[lemma]\nsamples = 4096\n")
    assert main(["lemma-check", ok]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    bad = _write(tmp_path, "bad.ini",
                 BASE + "[lemma]\nsamples = 4096\ncorrected = false\n")
    assert main(["lemma-check", bad]) == EXIT_NUMERICAL
    out = capsys.readouterr().out
    assert "FAIL" in out and "min slack" in out


def test_threads_flag_does_not_change_output(tmp_path):
    text = BASE + "[initial]\npreset = shear-layer\n"
    cfg = _write(tmp_path, "run.ini", text)
    outs = []
    for n, tag in ((1, "o1"), (8, "o8")):
        out = tmp_path / tag
        assert main(["--threads", str(n), "--out", str(out), "run", cfg]) == EXIT_OK
        outs.append((out / "run.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("n", ["0", "-3"])
def test_threads_below_one_exit_2(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", n, "run", "unread.ini"])
    assert exc.value.code == EXIT_CONFIG
    assert "--threads" in capsys.readouterr().err


def test_unknown_key_exit_2_names_key(tmp_path, capsys):
    cfg = _write(tmp_path, "s.ini", BASE + "t_ned = 5\n")
    assert main(["--out", str(tmp_path / "out"), "run", cfg]) == EXIT_CONFIG
    assert "config error: unknown key 't_ned' in [time]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _module_cli(*args, cwd):
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "oldb2d.cli", *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


_TWO_RUNS = """
import atexit, gc, sys
from oldb2d.cli import main
before = atexit._ncallbacks()
for out in sys.argv[2:]:
    assert main(["--out", out, "run", sys.argv[1]]) == 0
print(atexit._ncallbacks() - before, gc.get_freeze_count())
atexit._run_exitfuncs()
print(gc.get_freeze_count() > 0)
"""


def test_exit_hook_registered_once_and_outputs_complete(tmp_path):
    cfg = _write(tmp_path, "run.ini", BASE)
    outs = [str(tmp_path / d) for d in ("a", "b")]
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _TWO_RUNS, cfg, *outs],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "0", "True"]
    # both runs' files are complete: byte-equal to a run in this process
    want = tmp_path / "want"
    assert main(["--out", str(want), "run", cfg]) == EXIT_OK
    names = sorted(p.name for p in want.iterdir())
    assert len(names) == 6
    for out in outs:
        assert sorted(os.listdir(out)) == names
        for n in names:
            assert (tmp_path / out / n).read_bytes() == (want / n).read_bytes()


def test_module_entry_point_exit_codes(tmp_path):
    missing = _module_cli("run", "nope.ini", cwd=tmp_path)
    assert missing.returncode == EXIT_CONFIG
    assert "config error: cannot read config nope.ini" in missing.stderr
    cfg = _write(tmp_path, "run.ini", BASE)
    ok = _module_cli("--out", "out", "run", cfg, cwd=tmp_path)
    assert ok.returncode == EXIT_OK, ok.stderr
    assert (tmp_path / "out" / "run.csv").exists()


WALLS = """
[grid]
nx = 16
ny = 16
boundary_mode = physical

[time]
t_end = 0.005
dt = 5e-4
snapshot_stride = 2

[initial]
preset = gaussian-bump
"""


def test_outputs_bitwise_equal_with_reference_kernels(tmp_path, monkeypatch):
    """A periodic run and a walled compare write the same bytes with the
    plain-numpy kernels and ghost fill of ``reference_kernels``."""
    run_cfg = _write(tmp_path, "run.ini", BASE + "[initial]\npreset = shear-layer\n"
                                                 "delta0 = 1e-3\nseed = 5\n")
    ref_cfg = _write(tmp_path, "ref.ini", WALLS)
    weak_cfg = _write(tmp_path, "weak.ini", WALLS + "delta0 = 1e-3\nseed = 3\n")

    def outputs(tag):
        out = tmp_path / tag
        assert main(["--out", str(out / "run"), "run", run_cfg]) == EXIT_OK
        assert main(["--out", str(out / "cmp"), "compare", ref_cfg, weak_cfg]) == EXIT_OK
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*.*")}

    used = set()

    def traced(name, fn):
        def call(*args, **kwargs):
            used.add(name)
            return fn(*args, **kwargs)
        return call

    got = outputs("new")
    with monkeypatch.context() as m:
        for name in ("laplacian", "muscl_div_x", "muscl_div_y"):
            m.setattr(kernels, name, traced(name, getattr(ref, name)))
        fill = traced("extend_axis", ref.extend_axis)
        m.setattr(grid, "_extend_axis", fill)
        m.setattr(fields, "_extend_axis", fill)
        want = outputs("reference")
    assert used == {"laplacian", "muscl_div_x", "muscl_div_y", "extend_axis"}
    assert len(got) > 10 and got.keys() == want.keys()
    assert got == want


FAULT_PROBE = textwrap.dedent("""
    import resource
    from oldb2d import cli, config
    from oldb2d.dynamics import start_state, step_ssprk2
    cli.keep_freed_memory()
    cfg = config.parse_config("[grid]\\nnx = 256\\nny = 256\\n[initial]\\n"
                              "preset = shear-layer\\n[time]\\ndt = 1e-5\\n")
    init = config.build_initial(cfg)[0]
    opts = cli._solver_options(cfg, init)
    s = start_state(init, opts)
    for _ in range(5):  # the heap settles within the first few steps
        s = step_ssprk2(s, opts.dt, cfg.params, opts)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        s = step_ssprk2(s, opts.dt, cfg.params, opts)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


def test_warm_steps_reuse_freed_memory(tmp_path):
    """After ``keep_freed_memory`` the step temporaries stay mapped: three
    warm 256^2 steps of a shear layer, built as ``run`` builds it, take
    well under 100 minor page faults, where glibc's defaults cost
    thousands per step."""
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        pytest.skip("the C library has no mallopt")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", FAULT_PROBE], cwd=tmp_path,
                           env=dict(os.environ, PYTHONPATH=path),
                           capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr
    assert int(probe.stdout) < 100
