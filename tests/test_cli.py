"""End-to-end CLI behavior, driven in process through main() and once
through ``python -m oldb2d.cli``."""

import ctypes
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import reference_kernels as ref
from oldb2d import fields, grid, kernels
from oldb2d.cli import (EXIT_BLOWUP, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                        main)
from oldb2d.snapshot_io import COMPARE_COLUMNS, read_snapshot


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


def test_compare_blowup_exit_3_names_monitor(tmp_path, capsys):
    cfg = _write(tmp_path, "blow.ini", BLOWUP)
    assert main(["--out", str(tmp_path / "out"), "compare", cfg, cfg]) == EXIT_BLOWUP
    err = capsys.readouterr().err
    assert "blow-up abort" in err and "sup_rho" in err


def test_compare_zero_eta_reference_exit_4(tmp_path, capsys):
    ref = _write(tmp_path, "ref.ini", BASE + "[initial]\neta0 = 0\n")
    weak = _write(tmp_path, "weak.ini", BASE)
    assert main(["--out", str(tmp_path / "out"), "compare", ref, weak]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert ("numerical failure: reference polymer density must be strictly "
            "positive") in err


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


def test_compare_grid_mismatch_exit_2(tmp_path, capsys):
    a = _write(tmp_path, "a.ini", BASE)
    b = _write(tmp_path, "b.ini", BASE.replace("nx = 16", "nx = 32"))
    assert main(["compare", a, b]) == EXIT_CONFIG
    assert "identical grids" in capsys.readouterr().err


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


def test_strict_flag_propagates(tmp_path):
    cfg = _write(tmp_path, "s.ini", BASE + "[time]\nbogus = 1\n")
    assert main(["--strict", "run", cfg]) == EXIT_CONFIG


def _module_cli(*args, cwd):
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "oldb2d.cli", *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


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
    import resource, sys
    sys.path.insert(0, sys.argv[1])
    from conftest import periodic_grid, smooth_state
    from oldb2d import cli
    from oldb2d.constitutive import ModelParams
    from oldb2d.dynamics import SolverOptions, step_ssprk2
    cli.keep_freed_memory()
    prm = ModelParams()
    s = smooth_state(periodic_grid(256), prm)
    opts = SolverOptions(dt=1e-5).resolved(s)
    for _ in range(5):  # the heap settles within the first few steps
        s, _ = step_ssprk2(s, 1e-5, prm, opts)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        s, _ = step_ssprk2(s, 1e-5, prm, opts)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


def test_warm_steps_reuse_freed_memory(tmp_path):
    """After ``keep_freed_memory`` the step temporaries stay mapped: three
    warm 256^2 steps take well under 100 minor page faults, where glibc's
    defaults cost thousands per step."""
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        pytest.skip("the C library has no mallopt")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", FAULT_PROBE, here], cwd=tmp_path,
                           env=dict(os.environ, PYTHONPATH=path),
                           capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr
    assert int(probe.stdout) < 100
