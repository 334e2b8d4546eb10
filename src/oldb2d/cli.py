"""Command-line entry points: run, compare, verify, lemma-check.

Exit codes: 0 success, 2 configuration error, 3 blow-up abort (the
triggering monitor is named on stderr), 4 numerical failure. The commands
raise; ``main`` alone maps the exceptions to codes and messages.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys

import numpy as np

from . import diagnostics, entropy
from .config import ConfigError, build_initial, compressive_force, parse_config
from .dynamics import BlowupAbort, SolverOptions, cfl_dt, run_simulation
from .snapshot_io import write_snapshot, write_timeseries
from .state import NumericalError, Trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NUMERICAL = 4


def keep_freed_memory() -> None:
    """Let glibc keep freed step temporaries in the heap.

    By default glibc serves large arrays with mmap, or trims freed heap
    tops, and hands the pages back to the kernel; each SSP-RK2 step then
    faults its ~20 MB of numpy temporaries back in (thousands of minor
    faults per step at 256^2). Both thresholds are set: fixing the trim
    threshold alone also pins glibc's adaptive mmap threshold at its
    128 KiB default, which faults more than before. Does nothing where
    the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 32 MiB
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: 64 MiB


def _load_config(path: str, strict: bool):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError([f"cannot read config {path}: {e}"]) from e
    return parse_config(text, strict=strict)


def _solver_options(cfg, init) -> SolverOptions:
    thr = cfg.sup_rho_threshold
    if thr is None:
        thr = 1e3 * float(np.max(init.rho))
    return SolverOptions(cfl=cfg.cfl, dt=cfg.dt,
                         snapshot_stride=cfg.snapshot_stride,
                         sup_rho_threshold=thr)


def _forcing(cfg, ms):
    """(force_fn, source_fn) of a run: the configured body force, else the
    manufactured solution's, and the manufactured sources."""
    force_fn = compressive_force(cfg) if cfg.force_preset == "compress" else None
    if ms is None:
        return force_fn, None
    source_fn = ms.source_fn(cfg.grid)
    if force_fn is None:
        force_fn = ms.force_fn(cfg.grid)
    return force_fn, source_fn


def _shared_sections(cfg) -> dict:
    """The sections ``compare`` integrates both runs with, as INI key ->
    value per section."""
    prm = cfg.params
    return {"params": {f.name.lower(): getattr(prm, f.name)
                       for f in dataclasses.fields(prm) if f.init},
            "forcing": {"preset": cfg.force_preset,
                        "amplitude": cfg.force_amplitude}}


def _base_rows(traj: Trajectory, cfg) -> list:
    prm = cfg.params
    n = len(traj)
    e_res = diagnostics.energy_inequality_residual(traj, prm)
    t_res = diagnostics.trace_identity_residual(traj, prm)
    report = diagnostics.BlowupReport()
    rows = []
    for j in range(n):
        s = traj.states[j]
        acc = traj.accumulators[j]
        eb = diagnostics.total_energy(s, prm)
        report = diagnostics.blowup_monitor(s, report, alpha=cfg.alpha)
        row = {"t": s.t, "kinetic": eb.kinetic,
               "pressure_pot": eb.pressure_pot,
               "polymer_pot": eb.polymer_pot, "stress_tr": eb.stress_tr,
               "energy_residual": e_res[j], "trace_residual": t_res[j],
               "sup_rho": report.sup_rho, "sup_eta": report.sup_eta,
               "l2t_linf_tau": report.l2t_linf_tau,
               "moment_alpha": report.moment_alpha,
               "min_eig_tau": report.min_eig_tau}
        row.update(acc.as_dict())
        rows.append(row)
    return rows


def _write_outputs(traj: Trajectory, cfg, rows, compare: bool = False,
                   stem: str = "run") -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    if "csv" in cfg.formats:
        write_timeseries(os.path.join(cfg.out_dir, f"{stem}.csv"), rows,
                         compare=compare)
    if "snapshots" in cfg.formats:
        for j, s in enumerate(traj.states):
            write_snapshot(os.path.join(cfg.out_dir, f"{stem}_{j:06d}.bin"), s)


def cmd_run(args) -> int:
    cfg = _load_config(args.config, args.strict)
    init, ms = build_initial(cfg)
    if args.out:
        cfg.out_dir = args.out
    opts = _solver_options(cfg, init)
    force_fn, source_fn = _forcing(cfg, ms)
    try:
        traj = run_simulation(init, cfg.params, cfg.t_end, opts,
                              force_fn=force_fn, source_fn=source_fn)
    except BlowupAbort as e:
        _write_outputs(e.trajectory, cfg, _base_rows(e.trajectory, cfg))
        raise
    _write_outputs(traj, cfg, _base_rows(traj, cfg))
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg_ref = _load_config(args.config_ref, args.strict)
    cfg_weak = _load_config(args.config_weak, args.strict)
    init_ref, ms_ref = build_initial(cfg_ref)
    init_weak, _ = build_initial(cfg_weak)
    if cfg_ref.grid != cfg_weak.grid:
        raise ConfigError(["compare requires identical grids"])
    errors = []
    weak_sections = _shared_sections(cfg_weak)
    for sec, ref_vals in _shared_sections(cfg_ref).items():
        keys = [k for k, v in ref_vals.items() if weak_sections[sec][k] != v]
        if keys:
            errors.append(f"compare integrates both runs with the reference's "
                          f"[{sec}]; the candidate's {', '.join(keys)} differ")
    if errors:
        raise ConfigError(errors)
    if args.out:
        cfg_weak.out_dir = args.out
    prm = cfg_ref.params
    # fixed shared step so both trajectories sample identical times
    dt = cfg_ref.dt
    if dt is None:
        dt = min(cfl_dt(init_ref, prm, cfg_ref.cfl),
                 cfl_dt(init_weak, prm, cfg_ref.cfl))
    opts_ref = _solver_options(cfg_ref, init_ref)
    opts_weak = _solver_options(cfg_weak, init_weak)
    opts_ref.dt = opts_weak.dt = dt
    opts_weak.snapshot_stride = opts_ref.snapshot_stride
    force_fn, src = _forcing(cfg_ref, ms_ref)
    traj_ref = run_simulation(init_ref, prm, cfg_ref.t_end, opts_ref,
                              force_fn=force_fn, source_fn=src)
    traj_weak = run_simulation(init_weak, prm, cfg_ref.t_end, opts_weak,
                               force_fn=force_fn, source_fn=src)
    ref = entropy.RefTrajectory(traj_ref)
    rows = _base_rows(traj_weak, cfg_weak)
    ent_res = entropy.entropy_inequality_residual(traj_weak, ref, prm,
                                                  force_fn=force_fn)
    for j, row in enumerate(rows):
        s, r = traj_weak.states[j], ref.state(j)
        e1 = entropy.rel_entropy_E1(s, r, prm)
        e2 = entropy.rel_entropy_E2(s, r, prm)
        et = entropy.stress_distance_ET(s, r)
        f = force_fn(traj_weak.times[j]) if force_fn else None
        rdef = entropy.remainder_R_def(s, r, ref.time_derivs(j, prm), prm, f)
        rnew = entropy.remainder_R_new(s, r, prm)
        row.update({"E1": e1, "E2": e2, "ET": et,
                    "E_combined": e1 + e2 + et,
                    "R1": rdef["R1"], "R2": rdef["R2"], "R3": rdef["R3"],
                    "R4": rdef["R4"], "R5": rdef["R5"],
                    "R_def_total": rdef["total"],
                    "R_new_total": rnew["total"],
                    "entropy_residual": ent_res[j]})
    _write_outputs(traj_weak, cfg_weak, rows, compare=True, stem="compare")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args.config, args.strict)
    if not cfg.preset.startswith("mms:"):
        raise ConfigError(["verify requires an mms:<name> initial preset"])
    if args.out:
        cfg.out_dir = args.out
    from .verify import convergence_study, make_ms
    ms = make_ms(cfg.preset[4:], cfg.params, cfg.grid.lx, cfg.grid.ly)
    rep = convergence_study(ms, cfg.params, levels=cfg.verify_levels,
                            t_end=cfg.verify_t_end,
                            dt_over_dx2=cfg.verify_dt_over_dx2)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "convergence.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("field,n,l2_error,linf_error,l2_order\n")
        for f, n, e2, einf, order in rep.table_rows():
            fh.write(f"{f},{n},{e2!r},{einf!r},{order!r}\n")
    if not rep.valid:
        print(f"convergence study invalid: {rep.invalid_reason}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    for f, orders in rep.l2_orders.items():
        print(f"{f}: observed L2 orders {['%.2f' % o for o in orders]}")
    return EXIT_OK


def cmd_lemma_check(args) -> int:
    cfg = _load_config(args.config, args.strict)
    import scipy.stats.qmc  # noqa: F401  the scan's sampler, loaded as set-up
    from .verify import oracle_lemma_scan
    certs = oracle_lemma_scan(cfg.params, n_samples=cfg.lemma_samples,
                              seed=cfg.lemma_seed,
                              corrected=cfg.lemma_corrected)
    ok = True
    for kind, cert in certs.items():
        status = "PASS" if cert.passed else "FAIL"
        print(f"{kind} bound [{'corrected' if cert.corrected else 'original'}]: "
              f"{status}, {cert.n_samples} samples (seed {cert.seed}), "
              f"min slack {cert.min_slack:.6e} at "
              f"(value={cert.argmin[0]:.6g}, ref={cert.argmin[1]:.6g})"
              + (f", delta={cert.delta:g}, c={cert.c:g}" if cert.delta else ""))
        ok = ok and cert.passed
    return EXIT_OK if ok else EXIT_NUMERICAL


def _thread_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def main(argv=None) -> int:
    keep_freed_memory()
    ap = argparse.ArgumentParser(
        prog="oldb2d",
        description="2D compressible viscoelastic flow simulator with "
                    "energy/relative-entropy diagnostics")
    ap.add_argument("--threads", type=_thread_count, default=1, metavar="N",
                    help="accepted for compatibility; the solver is "
                         "single-threaded and results never depend on N")
    ap.add_argument("--out", default=None, metavar="DIR",
                    help="override the configured output directory")
    ap.add_argument("--strict", action="store_true",
                    help="reject unknown config keys")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run a reference and a candidate, emit "
                                "relative-entropy diagnostics")
    p_cmp.add_argument("config_ref")
    p_cmp.add_argument("config_weak")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="manufactured-solution convergence study")
    p_ver.add_argument("config")
    p_ver.set_defaults(func=cmd_verify)

    p_lem = sub.add_parser("lemma-check",
                           help="quasi-random certification of the pointwise "
                                "lower bounds")
    p_lem.add_argument("config")
    p_lem.set_defaults(func=cmd_lemma_check)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowupAbort as e:
        print(f"blow-up abort: monitor {e.monitor} reached {e.value:g} "
              f"(threshold {e.threshold:g})", file=sys.stderr)
        return EXIT_BLOWUP
    except (NumericalError, entropy.ReferenceError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
