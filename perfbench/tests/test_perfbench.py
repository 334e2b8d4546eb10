"""Tests of the benchmark itself: tracer coverage and exact counts, the
output checks, seeded inputs, the speed rescaling, and the refusal to run
without sources.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

SHEAR_16 = """\
[grid]
nx = 16
ny = 16
[initial]
preset = shear-layer
delta0 = 1e-3
seed = 3
[time]
t_end = 5e-4
dt = 1e-4
snapshot_stride = 2
"""

MMS_16 = """\
[grid]
nx = 16
ny = 16
[initial]
preset = mms:periodic-smooth
[time]
t_end = 3e-4
dt = 1e-4
snapshot_stride = 1
"""

WALLS_16 = """\
[grid]
nx = 16
ny = 16
boundary_mode = physical
[initial]
preset = gaussian-bump
{extra}
[time]
t_end = 4e-4
dt = 1e-4
snapshot_stride = 1
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _traced(tmp_path, cli_args, tag="t"):
    """Run one traced child; returns (exit code, record, output dir)."""
    rec = tmp_path / f"{tag}.json"
    out = tmp_path / f"{tag}-out"
    cmd = [sys.executable, str(BENCH / "child.py"), str(rec), "--trace", "--",
           "--threads", "1", "--out", str(out)] + cli_args
    proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV,
                          timeout=300)
    assert rec.is_file(), proc.stderr
    return proc.returncode, json.loads(rec.read_text()), out


def _layers(record, snapshots=0):
    return layers.aggregate(record, snapshots, "")[0]


# --- tracer -----------------------------------------------------------------


BINDING_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
tracer.install(tracer.SolveHook(), tracer.Tracer())
import oldb2d.cli, oldb2d.entropy, oldb2d.verify, oldb2d.kernels.pure

originals = {}
for mod, names in tracer.TARGETS.items():
    m = sys.modules[mod]
    for attr in names:
        owner = m
        for part in attr.split(".")[:-1]:
            owner = getattr(owner, part)
        w = getattr(owner, attr.split(".")[-1])
        if not hasattr(w, "__wrapped__"):
            originals[id(w)] = f"{mod}.{attr} (not wrapped)"
        while hasattr(w, "__wrapped__"):
            w = w.__wrapped__
        originals[id(w)] = f"{mod}.{attr}"
missed = sorted(f"{name}.{key} -> {originals[id(val)]}"
                for name, mod in sys.modules.items()
                if name.startswith("oldb2d")
                for key, val in vars(mod).items() if id(val) in originals)
print(json.dumps(missed))
"""


def test_every_name_bound_copy_is_wrapped():
    proc = subprocess.run([sys.executable, "-c", BINDING_PROBE, str(BENCH)],
                          capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_untraced_run_wraps_only_the_solve_calls():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
             "tracer.install(tracer.SolveHook()); import oldb2d.cli as c; "
             "import oldb2d.fields as f; "
             "print(hasattr(c.run_simulation, '__wrapped__'), "
             "hasattr(f.advective_div_array, '__wrapped__'))")
    proc = subprocess.run([sys.executable, "-c", probe, str(BENCH)],
                          capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.stdout.split() == ["True", "False"], proc.stderr


def test_exact_per_step_counts_on_a_tiny_run(tmp_path):
    rc, rec, _ = _traced(tmp_path, ["run", _write(tmp_path, "s.ini", SHEAR_16)])
    assert rc == 0
    n = 5
    m = _layers(rec, snapshots=4)
    assert rec["steps"] == n and rec["cell_steps"] == n * 256
    assert m["dynamics.steps"] == n
    assert m["fields.advect_calls_per_step"] == 14
    # 64 axis fills per step in compute_rhs, 8 in balance_rates, plus the
    # balance_rates call before the first step
    assert m["grid.ghost_fills_per_step"] == (72 * n + 8) / n
    assert m["kernels.stencil_calls_per_step"] == (44 * n + 8) / n
    assert m["diagnostics.total_energy_per_snapshot"] == (2 * 4 + 1) / 4
    assert m["snapshot_io.files"] == 4 + 1
    for key in ("kernels.muscl_s", "kernels.bytes_computed", "grid.ghost_fill_s",
                "parallel.sum_calls", "dynamics.rhs_self_s", "state.copies",
                "state.held_bytes_peak", "cli.post_s", "config.parse_s",
                "snapshot_io.bytes"):
        assert m[key] > 0, key
    assert m["verify.source_evals_per_step"] == 0
    assert m["entropy.s"] == 0

    _, again, _ = _traced(tmp_path, ["run", _write(tmp_path, "s.ini", SHEAR_16)],
                          tag="again")
    m2 = _layers(again, snapshots=4)
    counts = [n for n, unit in layers.METRICS if unit in ("count", "B", "flop")]
    assert {k: m[k] for k in counts} == {k: m2[k] for k in counts}


def test_fourteen_mms_source_evaluations_per_step(tmp_path):
    rc, rec, _ = _traced(tmp_path, ["run", _write(tmp_path, "m.ini", MMS_16)])
    assert rc == 0
    m = _layers(rec)
    assert m["dynamics.steps"] == 3
    assert m["verify.source_evals_per_step"] == 14
    assert m["verify.source_eval_s"] > 0 and m["verify.make_ms_s"] > 0


def test_two_remainder_evaluations_per_snapshot(tmp_path):
    ref = _write(tmp_path, "ref.ini", WALLS_16.format(extra=""))
    weak = _write(tmp_path, "weak.ini",
                  WALLS_16.format(extra="delta0 = 1e-3\nseed = 5"))
    rc, rec, out = _traced(tmp_path, ["compare", ref, weak])
    assert rc == 0
    snapshots = len((out / "compare.csv").read_text().splitlines()) - 1
    assert snapshots == 5
    m = _layers(rec, snapshots)
    assert m["entropy.R_def_per_snapshot"] == 2
    assert m["entropy.E1_per_snapshot"] == 2
    assert m["fields.advect_calls_per_step"] == 14
    assert m["constitutive.bregman_s"] > 0 and m["entropy.s"] > 0


# --- output checks ----------------------------------------------------------


def _cli(args):
    from oldb2d import cli
    return cli.main(["--threads", "1"] + args)


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("run")
    rc = _cli(["--out", str(d / "out"), "run", _write(d, "s.ini", SHEAR_16)])
    return rc, d / "out"


@pytest.fixture(scope="module")
def compare_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cmp")
    ref = _write(d, "ref.ini", WALLS_16.format(extra=""))
    weak = _write(d, "weak.ini", WALLS_16.format(extra="delta0 = 1e-3\nseed = 5"))
    rc = _cli(["--out", str(d / "out"), "compare", ref, weak])
    return rc, d / "out"


def _copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _edit_csv(path, column, value, row=-1):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[row].split(",")
    fields[header.index(column)] = value
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_run_check_passes_on_real_outputs(run_outputs):
    rc, out = run_outputs
    outcome = workloads.check("shear-256", rc, out, "")
    assert outcome.problems == []
    assert outcome.snapshots == 4
    assert set(outcome.digests) == {"stdout", "run.csv"} | {
        f"run_{j:06d}.bin" for j in range(4)}


@pytest.mark.parametrize("corrupt, expect", [
    (lambda d: _edit_csv(d / "run.csv", "kinetic", "nan", row=2), "non-finite"),
    (lambda d: _edit_csv(d / "run.csv", "energy_residual", "1.0"), "energy_residual"),
    (lambda d: (d / "run_000003.bin").write_bytes(
        (d / "run_000003.bin").read_bytes()[:-8]), "read back"),
    (lambda d: (d / "run_000003.bin").unlink(), "missing final snapshot"),
    (lambda d: _edit_csv(d / "run.csv", "t", "0.25"), "last CSV row"),
    (lambda d: (d / "run.csv").unlink(), "missing run.csv"),
])
def test_run_check_fires_on_corrupted_outputs(run_outputs, tmp_path, corrupt, expect):
    rc, out = run_outputs
    d = _copy(out, tmp_path)
    corrupt(d)
    problems = workloads.check("shear-256", rc, d, "").problems
    assert any(expect in p for p in problems), problems


def test_check_fires_on_a_failed_exit(run_outputs):
    _, out = run_outputs
    problems = workloads.check("shear-256", 4, out, "").problems
    assert problems == ["exit code 4, expected 0"]


def test_compare_check_passes_and_fires(compare_outputs, tmp_path):
    rc, out = compare_outputs
    assert workloads.check("walls-compare", rc, out, "").problems == []
    d = _copy(out, tmp_path)
    _edit_csv(d / "compare.csv", "entropy_residual", "1e-3")
    problems = workloads.check("walls-compare", rc, d, "").problems
    assert any("entropy_residual" in p for p in problems), problems


def _convergence_csv(orders):
    lines = ["field,n,l2_error,linf_error,l2_order"]
    for f, (o1, o2) in orders.items():
        lines.append(f"{f},16,0.001,0.002,nan")
        lines.append(f"{f},32,0.00025,0.0005,{o1}")
        lines.append(f"{f},64,6.25e-05,0.000125,{o2}")
    return "\n".join(lines) + "\n"


def test_verify_check_compares_orders_to_two_decimals(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    csv_path = out / "convergence.csv"
    orders = dict(workloads.RECORDED_ORDERS)
    csv_path.write_text(_convergence_csv(orders))
    assert workloads.check("mms-verify", 0, out, "").problems == []

    orders["t11"] = ("1.76", "1.9351")      # still 1.94 to 2 decimals
    csv_path.write_text(_convergence_csv(orders))
    assert workloads.check("mms-verify", 0, out, "").problems == []

    orders["t11"] = ("1.76", "1.90")
    csv_path.write_text(_convergence_csv(orders))
    problems = workloads.check("mms-verify", 0, out, "").problems
    assert any("orders of t11" in p for p in problems), problems

    csv_path.write_text(_convergence_csv(workloads.RECORDED_ORDERS)
                        .replace("0.00025,", "inf,", 1))
    problems = workloads.check("mms-verify", 0, out, "").problems
    assert any("non-finite" in p for p in problems), problems


LEMMA_STDOUT = (
    "H bound [corrected]: PASS, 1048576 samples (seed 7), min slack "
    "4.981228e-22 at (value=1.28565e-05, ref=1.28566e-05), delta=0.02, c=0.9604\n"
    "G bound [corrected]: PASS, 1048576 samples (seed 7), min slack "
    "6.869942e-13 at (value=0.000105612, ref=0.000105629)\n")


@pytest.mark.parametrize("stdout, expect", [
    (LEMMA_STDOUT.replace("G bound [corrected]: PASS", "G bound [corrected]: FAIL"),
     "G bound FAIL"),
    (LEMMA_STDOUT.replace("min slack 6.869942e-13", "min slack -6.869942e-13"),
     "min slack"),
    (LEMMA_STDOUT.replace("1048576 samples (seed 7), min slack 4",
                          "1024 samples (seed 7), min slack 4"), "pairs"),
    (LEMMA_STDOUT.splitlines()[0] + "\n", "no G bound"),
])
def test_lemma_check_passes_and_fires(tmp_path, stdout, expect):
    assert workloads.check("lemma-scan", 0, tmp_path, LEMMA_STDOUT).problems == []
    assert workloads.check("lemma-scan", 0, tmp_path, LEMMA_STDOUT).pairs == 1 << 20
    problems = workloads.check("lemma-scan", 0, tmp_path, stdout).problems
    assert any(expect in p for p in problems), problems


# --- inputs and contract ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(tmp_path, name):
    def files(seed, tag):
        d = tmp_path / f"{tag}{seed}"
        d.mkdir()
        args = workloads.write_inputs(name, seed, d)
        assert args[0] == workloads.WORKLOADS[name].command
        return {p.name: p.read_text() for p in sorted(d.iterdir())}

    first = files(1, "a")
    assert files(1, "b") == first
    if name != "mms-verify":
        assert files(2, "a") != first


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_times_are_rescaled_to_the_reference_speed():
    sample = {"measured": {"wall_s": 4.0, "setup_s": 1.0}, "work": 300}
    run.rescale(sample, 2 * speed.REFERENCE_S)   # a machine half as fast
    assert sample["wall_s"] == pytest.approx(2.0)
    assert sample["setup_s"] == pytest.approx(0.5)
    assert sample["work_per_s"] == pytest.approx(200.0)
    assert sample["measured"] == {"wall_s": 4.0, "setup_s": 1.0}
    assert speed.probe() > 0.0
