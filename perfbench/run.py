"""End-to-end benchmark of the four ``oldb2d`` CLI commands.

Usage (from the repository root):

    python3 perfbench/run.py --workload shear-256 --seed 1 --seconds 20 --trace 0

Writes the workload's INI files from ``--seed`` into a scratch directory,
then runs the command as fresh single processes with ``--threads 1``, one
after another, for about ``--seconds`` seconds. Every run's exit code and
outputs are checked. Before and after every run the machine's speed is
probed (:mod:`speed`), and the run's times are rescaled to the reference
speed. With ``--trace 0`` the last stdout line reports the
end-to-end metrics (medians over the runs); with ``--trace 1`` untraced
and traced runs alternate and it reports the per-layer metrics of the
traced runs and the tracing overhead. A record with the environment,
every sample and the sha256 of every output goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

#: (name, unit) of the end-to-end metrics
E2E = (("wall_s", "s"), ("setup_s", "s"), ("work_per_s", "1/s"),
       ("peak_rss_mb", "MB"))

#: untraced runs a --trace 0 measurement needs before it may stop; a
#: --trace 1 measurement needs MIN_EACH untraced and MIN_EACH traced runs
MIN_RUNS = 3
MIN_EACH = 2
#: no run may start after this many seconds, and none may outlive it
HARD_LIMIT_S = 150.0


def run_child(name: str, cli_args: list, tmp: Path, index: int,
              traced: bool, deadline: float) -> dict:
    """Spawn one ``oldb2d`` process, wait for it and check its outputs."""
    out = tmp / f"out{index}"
    out.mkdir()
    record_path = tmp / f"record{index}.json"
    stdout_path, stderr_path = tmp / f"stdout{index}", tmp / f"stderr{index}"
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "child.py"), str(record_path)]
    if traced:
        cmd.append("--trace")
    cmd += ["--", "--threads", "1", "--out", str(out)] + cli_args
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    with open(stdout_path, "w") as fo, open(stderr_path, "w") as fe:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=tmp, stdout=fo, stderr=fe, env=env)
        killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)

    stdout = stdout_path.read_text()
    stderr = stderr_path.read_text()
    outcome = workloads.check(name, proc.returncode, out, stdout)
    record = {}
    if record_path.is_file():
        record = json.loads(record_path.read_text())
    elif not outcome.problems:
        outcome.problems.append("child wrote no record")
    shutil.rmtree(out)

    wall = t1 - t0
    first = record.get("first_entry")
    if first is None and not outcome.problems:
        outcome.problems.append("the solve call was never entered")
    setup = (first - t0) if first is not None else wall
    work = record.get("cell_steps", 0) or outcome.pairs
    sample = {"traced": traced, "exit": proc.returncode,
              "measured": {"wall_s": wall, "setup_s": setup},
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "work": work,
              "problems": outcome.problems, "digests": outcome.digests}
    if traced and "spans" in record:
        sample["layers"], sample["step_ms"] = layers.aggregate(
            record, outcome.snapshots, stderr)
    if outcome.problems:
        sample["stderr_tail"] = stderr.splitlines()[-5:]
    return sample


def rescale(sample: dict, probe_s: float) -> None:
    """Set the sample's time metrics to its measured times rescaled to the
    reference speed; ``probe_s`` is the probe time around the run."""
    factor = speed.REFERENCE_S / probe_s
    wall = sample["measured"]["wall_s"] * factor
    setup = sample["measured"]["setup_s"] * factor
    sample.update(probe_s=probe_s, wall_s=wall, setup_s=setup,
                  work_per_s=sample["work"] / (wall - setup)
                  if wall > setup else 0.0)


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> list:
    """Run children until ``seconds`` is used up (and the minimum count
    is reached); with ``trace`` untraced and traced children alternate.
    The speed probe runs before the first child and after every child."""
    cli_args = workloads.write_inputs(name, seed, tmp)
    speed.probe()   # warm-up: the first call pays numpy's lazy set-up
    start = time.monotonic()
    samples = []
    before = speed.probe()
    while True:
        traced = trace and len(samples) % 2 == 1
        sample = run_child(name, cli_args, tmp, len(samples), traced,
                           start + HARD_LIMIT_S + 20.0)
        after = speed.probe()
        rescale(sample, (before + after) / 2)
        samples.append(sample)
        before = after
        now = time.monotonic() - start
        plain = [s for s in samples if not s["traced"]]
        tr = [s for s in samples if s["traced"]]
        enough = (min(len(plain), len(tr)) >= MIN_EACH if trace
                  else len(plain) >= MIN_RUNS)
        nxt = tr if trace and len(samples) % 2 == 1 else plain
        est = (statistics.median(s["measured"]["wall_s"] for s in nxt)
               + after if nxt else 0.0)
        if now > HARD_LIMIT_S or (enough and now + est > seconds):
            return samples


def quartiles(vals: list) -> tuple:
    if len(vals) < 2:
        return vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], q[2]


def end_to_end(samples: list) -> dict:
    ok = [s for s in samples if not s["traced"] and not s["problems"]] \
        or [s for s in samples if not s["traced"]]
    return {n: statistics.median(s[n] for s in ok) for n, _ in E2E}


def per_layer(samples: list) -> tuple:
    traced = [s for s in samples if "layers" in s]
    plain = [s for s in samples if not s["traced"]]
    out = {}
    for n, _ in layers.METRICS:
        vals = [s["layers"][n] for s in traced if n in s["layers"]]
        out[n] = statistics.median(vals) if vals else 0.0
    steps, p = layers.step_stats([ms for s in traced for ms in s["step_ms"]])
    out.update(steps)
    if traced and plain:
        out["trace.overhead_s"] = (
            statistics.median(s["wall_s"] for s in traced)
            - statistics.median(s["wall_s"] for s in plain))
    return out, p


def _cache_sizes() -> dict:
    """Data cache sizes in bytes, as ``getconf`` reports them."""
    sizes = {}
    for level, key in (("L1d", "LEVEL1_DCACHE_SIZE"), ("L2", "LEVEL2_CACHE_SIZE"),
                       ("L3", "LEVEL3_CACHE_SIZE")):
        try:
            out = subprocess.run(["getconf", key], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            continue
        if out.isdigit():
            sizes[level] = int(out)
    return sizes


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(name: str) -> dict:
    from oldb2d import kernels, parallel

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    w = workloads.WORKLOADS[name]
    blocks = -(-w.state_cells // kernels.BLOCK)
    return {
        "git_sha": _git_sha(),
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "sympy": version("sympy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "state_bytes": 7 * w.state_cells * 8,
        "lemma_pair_bytes": (4 * workloads.LEMMA_SAMPLES * 8
                             if w.command == "lemma-check" else 0),
        # the thread pool of parallel.deterministic_sum engages only above
        # this many leaf blocks, so --threads changes nothing here
        "reduction_blocks": blocks,
        "thread_pool_min_blocks": parallel.CHUNK_BLOCKS + 1,
    }


def report(name, seed, trace, samples, metrics, units, tail_p, env) -> dict:
    failed = sum(1 for s in samples if s["problems"])
    print(f"workload {name}  seed {seed} (program seed "
          f"{workloads.sub_seed(name, seed)})  trace {int(trace)}  "
          f"backend {env['backend']}  runs {len(samples)}  failed {failed}")
    for s in samples:
        if s["problems"]:
            print(f"  failed run: {'; '.join(s['problems'])}")
    plain = [s for s in samples if not s["traced"]]
    if not trace:
        for n, unit in E2E:
            vals = [s[n] for s in plain]
            q1, q3 = quartiles(vals)
            p = layers.tail_percentile(len(vals))
            tail = (f"p{p:g} {layers.percentile(sorted(vals), p):.6g}" if p > 50
                    else "no percentile above p50 has 10 runs beyond it")
            print(f"  {n:<12} median {metrics[n]:.6g} {unit}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  {tail}  n={len(vals)}")
        print(f"  times above are rescaled to a probe of {speed.REFERENCE_S} s; "
              f"median probe {statistics.median(s['probe_s'] for s in plain):.4g} s, "
              "median measured wall_s "
              f"{statistics.median(s['measured']['wall_s'] for s in plain):.6g} s")
    else:
        for n, unit in layers.METRICS:
            print(f"  {n:<40} {metrics[n]:.6g} {unit}")
        steps = sum(len(s.get("step_ms", ())) for s in samples)
        if steps:
            print(f"  step_ms_tail is the p{tail_p:g} of {steps} steps")
    digests = [s["digests"] for s in samples if s["digests"]]
    stable = all(d == digests[0] for d in digests)
    print(f"  output sha256 identical across runs: {stable}")
    return {"workload": name, "seed": seed, "trace": int(trace),
            "program_seed": workloads.sub_seed(name, seed),
            "environment": env, "metrics": metrics, "units": units,
            "step_ms_tail_percentile": tail_p, "digests_identical": stable,
            "probe_reference_s": speed.REFERENCE_S,
            "samples": [{k: v for k, v in s.items()
                         if k not in ("layers", "step_ms")} for s in samples]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "oldb2d" / "cli.py").is_file():
        print(f"error: no oldb2d sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a fresh checkout has no bytecode; compile it here so that the first
    # run's setup_s does not include it
    compileall.compile_dir(str(SRC / "oldb2d"), quiet=1)

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        samples = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics, tail_p = per_layer(samples)
        units = dict(layers.METRICS)
    else:
        metrics, tail_p = end_to_end(samples), None
        units = dict(E2E)
    env = environment(args.workload)
    rec = report(args.workload, args.seed, bool(args.trace), samples,
                 metrics, units, tail_p, env)
    results = work / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(rec, indent=1))

    failed = sum(1 for s in samples if s["problems"])
    print(json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
