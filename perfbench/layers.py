"""Per-layer metrics from the spans of one traced run.

Layers are the ``oldb2d`` modules. Times are self time (a span's duration
minus the time its child spans cover), summed over the layer's spans.
``*_per_step`` counts take the calls made inside ``run_simulation`` and
divide by the SSP-RK2 steps; ``*_per_snapshot`` counts divide by the rows
of the time-series CSV. A metric whose layer a workload never calls is 0.
"""

from __future__ import annotations

from collections import defaultdict

import tracer

#: (name, unit) of every per-layer metric, in report order
METRICS = (
    ("kernels.muscl_s", "s"),
    ("kernels.muscl_ns_per_cell", "ns"),
    ("kernels.stencil_s", "s"),
    ("kernels.stencil_calls_per_step", "count"),
    ("kernels.reduce_s", "s"),
    ("kernels.bytes_computed", "B"),
    ("kernels.flops_computed", "flop"),
    ("grid.ghost_fills_per_step", "count"),
    ("grid.ghost_fill_s", "s"),
    ("grid.ghost_bytes_computed", "B"),
    ("fields.advect_calls_per_step", "count"),
    ("fields.self_s", "s"),
    ("parallel.sum_calls", "count"),
    ("parallel.sum_s", "s"),
    ("dynamics.steps", "count"),
    ("dynamics.step_ms_p50", "ms"),
    ("dynamics.step_ms_tail", "ms"),
    ("dynamics.ns_per_cell_step", "ns"),
    ("dynamics.rhs_self_s", "s"),
    ("dynamics.balance_s", "s"),
    ("dynamics.cfl_s", "s"),
    ("constitutive.bregman_s", "s"),
    ("constitutive.bound_s", "s"),
    ("diagnostics.s", "s"),
    ("diagnostics.total_energy_per_snapshot", "count"),
    ("entropy.s", "s"),
    ("entropy.R_def_per_snapshot", "count"),
    ("entropy.E1_per_snapshot", "count"),
    ("verify.import_s", "s"),
    ("verify.make_ms_s", "s"),
    ("verify.source_eval_s", "s"),
    ("verify.source_evals_per_step", "count"),
    ("verify.scan_s", "s"),
    ("snapshot_io.files", "count"),
    ("snapshot_io.bytes", "B"),
    ("snapshot_io.write_s", "s"),
    ("state.copies", "count"),
    ("state.held_bytes_peak", "B"),
    ("state.check_finite_s", "s"),
    ("cli.post_s", "s"),
    ("config.parse_s", "s"),
    ("config.initial_s", "s"),
    ("trace.overhead_s", "s"),
)

_SIM = "dynamics.run_simulation"
_SOLVES = (_SIM, "verify.oracle_lemma_scan")
_STEP = "dynamics.step_ssprk2"


def percentile(sorted_vals: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_vals) - 1,
                   int(-(-p * len(sorted_vals) // 100)) - 1))
    return sorted_vals[k]


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def step_stats(step_ms: list) -> tuple:
    """Median and tail step time (ms) and the tail's percentile."""
    vals = sorted(step_ms)
    if not vals:
        return {"dynamics.step_ms_p50": 0.0, "dynamics.step_ms_tail": 0.0}, 0.0
    p = tail_percentile(len(vals))
    return {"dynamics.step_ms_p50": percentile(vals, 50.0),
            "dynamics.step_ms_tail": percentile(vals, p)}, p


def import_seconds(stderr: str, module: str = "oldb2d.verify") -> float:
    """Cumulative import time of ``module`` from ``python -X importtime``."""
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.rstrip().endswith(f"| {module}"):
            fields = line.split("|")
            return int(fields[1]) * 1e-6
    return 0.0


def aggregate(record: dict, snapshots: int, stderr: str) -> tuple:
    """Per-layer metrics of one traced child, plus its step durations (ms).

    ``record`` is the child's JSON record, ``snapshots`` the rows of its
    time-series CSV and ``stderr`` its ``-X importtime`` output."""
    spans = sorted(record["spans"], key=lambda s: s[0])
    name_of = {s[0]: s[2] for s in spans}
    in_sim = {}
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    sim_calls = defaultdict(int)
    cost = defaultdict(lambda: [0, 0, 0])
    step_ms = []
    source_evals = 0
    last_cmd_end, last_solve_end = None, None
    for sid, parent, name, t0, t1, self_ns, c in spans:
        in_sim[sid] = parent >= 0 and (in_sim[parent] or name_of[parent] == _SIM)
        self_s[name] += self_ns * 1e-9
        incl_s[name] += (t1 - t0) * 1e-9
        calls[name] += 1
        if in_sim[sid]:
            sim_calls[name] += 1
        if c is not None:
            acc = cost[name]
            for i in range(3):
                acc[i] += c[i]
        if name == _STEP:
            step_ms.append((t1 - t0) * 1e-6)
        if name == "verify.ManufacturedSolution._eval" and parent >= 0 \
                and name_of[parent] == tracer.SOURCE_EVAL and in_sim[sid]:
            source_evals += 1
        if name.startswith("cli.cmd_"):
            last_cmd_end = max(last_cmd_end or t1, t1)
        if name in _SOLVES:
            last_solve_end = max(last_solve_end or t1, t1)

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    def total(names, table):
        return sum(table[n] for n in names)

    steps = calls[_STEP]

    def per_step(count):
        return count / steps if steps else 0.0

    def per_snapshot(count):
        return count / snapshots if snapshots else 0.0

    muscl = ("kernels.muscl_div_x", "kernels.muscl_div_y")
    stencil = ("kernels.laplacian", "kernels.ddx", "kernels.ddy")
    reduce_ = ("kernels.block_sums", "kernels.combine_block_sums",
               "kernels.pairwise_sum")
    muscl_cells = sum(cost[n][2] for n in muscl)
    kernel_cost = [sum(v[i] for k, v in cost.items() if k.startswith("kernels."))
                   for i in range(3)]
    step_total_s = sum(step_ms) * 1e-3
    config_other = layer_self("config") - self_s["config.parse_config"]

    m = {
        "kernels.muscl_s": total(muscl, self_s),
        "kernels.muscl_ns_per_cell":
            total(muscl, self_s) * 1e9 / muscl_cells if muscl_cells else 0.0,
        "kernels.stencil_s": total(stencil, self_s),
        "kernels.stencil_calls_per_step":
            per_step(sum(sim_calls[n] for n in stencil)),
        "kernels.reduce_s": total(reduce_, self_s),
        "kernels.bytes_computed": kernel_cost[0],
        "kernels.flops_computed": kernel_cost[1],
        "grid.ghost_fills_per_step": per_step(sim_calls["grid._extend_axis"]),
        "grid.ghost_fill_s": layer_self("grid"),
        "grid.ghost_bytes_computed": cost["grid._extend_axis"][0],
        "fields.advect_calls_per_step":
            per_step(sim_calls["fields.advective_div_array"]),
        "fields.self_s": layer_self("fields"),
        "parallel.sum_calls": calls["parallel.deterministic_sum"],
        "parallel.sum_s": layer_self("parallel"),
        "dynamics.steps": steps,
        "dynamics.ns_per_cell_step":
            step_total_s * 1e9 / record["cell_steps"] if record["cell_steps"] else 0.0,
        "dynamics.rhs_self_s": self_s["dynamics.compute_rhs"],
        "dynamics.balance_s": self_s["dynamics.balance_rates"],
        "dynamics.cfl_s": self_s["dynamics.cfl_dt"],
        "constitutive.bregman_s":
            self_s["constitutive.bregman_H"] + self_s["constitutive.bregman_G"],
        "constitutive.bound_s": (self_s["constitutive.lower_bound_H"]
                                 + self_s["constitutive.lower_bound_G"]
                                 + self_s["constitutive.calibrate_H_constants"]),
        "diagnostics.s": layer_self("diagnostics"),
        "diagnostics.total_energy_per_snapshot":
            per_snapshot(calls["diagnostics.total_energy"]),
        "entropy.s": layer_self("entropy"),
        "entropy.R_def_per_snapshot": per_snapshot(calls["entropy.remainder_R_def"]),
        "entropy.E1_per_snapshot": per_snapshot(calls["entropy.rel_entropy_E1"]),
        "verify.import_s": import_seconds(stderr),
        "verify.make_ms_s": incl_s["verify.make_ms"],
        "verify.source_eval_s": incl_s[tracer.SOURCE_EVAL],
        "verify.source_evals_per_step": per_step(source_evals),
        "verify.scan_s": self_s["verify.oracle_lemma_scan"],
        "snapshot_io.files": (calls["snapshot_io.write_snapshot"]
                              + calls["snapshot_io.write_timeseries"]),
        "snapshot_io.bytes": (cost["snapshot_io.write_snapshot"][0]
                              + cost["snapshot_io.write_timeseries"][0]),
        "snapshot_io.write_s": layer_self("snapshot_io"),
        "state.copies": calls["state.State.copy"],
        "state.held_bytes_peak": record["held_bytes_peak"],
        "state.check_finite_s": self_s["state.State.check_finite"],
        "cli.post_s": ((last_cmd_end - last_solve_end) * 1e-9
                       if last_cmd_end is not None and last_solve_end is not None
                       else 0.0),
        "config.parse_s": self_s["config.parse_config"],
        "config.initial_s": config_other,
    }
    return m, step_ms
