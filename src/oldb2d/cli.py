"""Command-line entry points: run, compare, verify, lemma-check.

Exit codes: 0 success, 2 configuration error, failed output write or a
grid too large for memory, 3 blow-up abort (monitor named on stderr), 4
numerical failure. The commands raise; ``main`` alone maps the exceptions
to codes and messages.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import ctypes
import errno
import functools
import gc
import os
import sys

import numpy as np

from . import diagnostics, entropy, verify
from .config import (ConfigError, build_initial, manufactured_solution,
                     parse_config, section_values)
from .constitutive import ParameterError
from .dynamics import (BlowupAbort, SolverOptions, cfl_dt, run_simulation,
                       start_state)
from .snapshot_io import write_snapshot, write_timeseries
from .state import NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NUMERICAL = 4


def keep_freed_memory() -> None:
    """Let glibc keep freed step temporaries in the heap.

    By default glibc serves large arrays with mmap, or trims freed heap
    tops, and hands the pages back to the kernel; each SSP-RK2 step then
    faults its numpy temporaries back in (at 256^2 a step holds up to
    ~12 MB of them at once, and takes thousands of minor faults). Both
    thresholds are set: fixing the trim threshold alone also pins glibc's
    adaptive mmap threshold at its 128 KiB default, which faults more
    than before. Does nothing where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 32 MiB
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: 64 MiB


@functools.cache
def freeze_at_exit() -> None:
    """Have the interpreter's exit-time collections skip every object
    alive at exit.

    Those passes would walk, and free one by one, the objects of every
    loaded module, numpy's above all, for memory the process hands back
    when it ends anyway. Every file is closed by a ``with`` block before
    ``main`` returns, and Python does not promise finalizers at exit.
    Cached, so ``gc.freeze`` is registered once per process."""
    atexit.register(gc.freeze)


def _load_config(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError([f"cannot read config {path}: {e}"]) from e
    return parse_config(text)


def _require_out_dir(path: str) -> None:
    """Raise a ConfigError, before any step runs, if ``path`` is not a
    writable directory and cannot be made one. Creates nothing: the outputs
    create it when they are first written."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    with _writing(path):
        if not os.path.isdir(probe):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if not os.access(probe, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


@contextlib.contextmanager
def _writing(path: str):
    """Raise an OSError of the ``with`` block, which writes into output
    directory ``path`` or checks it, as a ConfigError naming ``path``."""
    try:
        yield
    except OSError as e:
        raise ConfigError([f"cannot write outputs to {path}: {e.strerror or e}"]) from e


def _solver_options(cfg, init) -> SolverOptions:
    thr = cfg.sup_rho_threshold
    if thr is None:
        thr = 1e3 * float(np.max(init.rho))
    return SolverOptions(cfl=cfg.cfl, dt=cfg.dt,
                         snapshot_stride=cfg.snapshot_stride,
                         sup_rho_threshold=thr)


#: the sections ``compare`` needs equal in both runs
_SHARED_SECTIONS = ("grid", "params", "forcing", "time")

#: the failures that end a started run; ``main`` maps each to its code
_RUN_FAILURES = (BlowupAbort, NumericalError, MemoryError)


class _Rows:
    """The sink of ``run`` and of compare's candidate: evaluates each
    snapshot's CSV row when the snapshot is added and writes its snapshot
    file, holding only scalars. The energy, monitor and accumulator columns
    are named by the fields of the objects that compute them. With a
    reference, the rows carry ``compare``'s relative-entropy columns; a
    snapshot between reference snapshots (a blow-up abort off the stride)
    gets no row."""

    def __init__(self, cfg, ref: entropy.RefTrajectory | None = None,
                 force_fn=None):
        self.cfg, self.ref, self.force_fn = cfg, ref, force_fn
        self.stem = "run" if ref is None else "compare"
        self.report = diagnostics.BlowupReport()
        self.e0 = None
        self.rows = []
        self.trace, self.entropy = [], []   # the *_terms of each row

    def __call__(self, s, acc, grad_u) -> None:
        j, cfg, ref = len(self.rows), self.cfg, self.ref
        prm = cfg.params
        if ref is not None and not ref.shares_time(j, s.t):
            return
        if self.e0 is None:
            self.e0 = diagnostics.total_energy(s, prm).total
        eb = diagnostics.total_energy(s, prm)
        e_res = diagnostics.energy_residual(s, acc, self.e0, prm)
        self.trace.append(diagnostics.trace_identity_terms(s, prm, grad_u))
        self.report = diagnostics.blowup_monitor(s, self.report, alpha=cfg.alpha)
        row = {"t": s.t, **vars(eb), **vars(self.report), **vars(acc),
               "energy_residual": e_res}
        if ref is not None:
            r, derivs = ref.state(j), ref.time_derivs(j, prm)
            f = self.force_fn(s.t) if self.force_fn else None
            e1 = entropy.rel_entropy_E1(s, r, prm)
            e2 = entropy.rel_entropy_E2(s, r, prm)
            et = entropy.stress_distance_ET(s, r)
            pair = entropy.remainder_inputs(s, r)
            rdef = entropy.remainder_R_def(pair, derivs, prm, f)
            rnew = entropy.remainder_R_new(pair, prm)
            row.update(rdef)
            row.update({"E1": e1, "E2": e2, "ET": et, "E_combined": e1 + e2 + et,
                        "R_def_total": rdef["total"], "R_new_total": rnew["total"]})
            self.entropy.append(entropy.entropy_inequality_terms(pair, derivs, prm, f))
        self.rows.append(row)
        if "snapshots" in cfg.formats:
            with _writing(cfg.out_dir):
                os.makedirs(cfg.out_dir, exist_ok=True)
                write_snapshot(os.path.join(cfg.out_dir, f"{self.stem}_{j:06d}.bin"), s)

    def write_csv(self) -> None:
        """Write the rows so far; nothing if no snapshot got a row."""
        if not self.rows:
            return
        cfg = self.cfg
        times = [row["t"] for row in self.rows]
        residuals = {"trace_residual": diagnostics.trace_identity_series(
            self.trace, times)}
        if self.ref is not None:
            residuals["entropy_residual"] = entropy.entropy_inequality_series(
                self.entropy, times)
        for j, row in enumerate(self.rows):
            row.update({k: v[j] for k, v in residuals.items()})
        with _writing(cfg.out_dir):
            os.makedirs(cfg.out_dir, exist_ok=True)
            if "csv" in cfg.formats:
                write_timeseries(os.path.join(cfg.out_dir, f"{self.stem}.csv"),
                                 self.rows, compare=self.ref is not None)


def _stream(rows: _Rows, init, prm, t_end, opts, force_fn, source_fn) -> None:
    """Run ``init`` into the sink ``rows`` and write the rows' CSV, also
    when the run fails; then a failed write is only printed, and the run's
    own error stands."""
    try:
        run_simulation(init, prm, t_end, opts, force_fn=force_fn,
                       source_fn=source_fn, sink=rows)
    except _RUN_FAILURES:
        try:
            rows.write_csv()
        except ConfigError as e:
            print(e.errors[0], file=sys.stderr)
        raise
    rows.write_csv()


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    init, force_fn, source_fn = build_initial(cfg)
    if args.out:
        cfg.out_dir = args.out
    _require_out_dir(cfg.out_dir)
    _stream(_Rows(cfg), init, cfg.params, cfg.t_end,
            _solver_options(cfg, init), force_fn, source_fn)
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg_ref = _load_config(args.config_ref)
    cfg_weak = _load_config(args.config_weak)
    errors = []
    for sec in _SHARED_SECTIONS:
        weak_vals = section_values(cfg_weak, sec)
        keys = [k for k, v in section_values(cfg_ref, sec).items() if weak_vals[k] != v]
        if keys:
            errors.append(f"compare integrates both runs with the reference's "
                          f"[{sec}]; the candidate's {', '.join(keys)} differ")
    # run_simulation steps while t < t_end - 1e-14 * max(t_end, 1), from t = 0
    if not cfg_ref.t_end > 1e-14:
        errors.append(f"compare needs t_end in [time] long enough for one step, "
                      f"got {cfg_ref.t_end:g}")
    if errors:
        raise ConfigError(errors)
    init_ref, force_fn, src = build_initial(cfg_ref)
    init_weak = build_initial(cfg_weak)[0]
    if args.out:
        cfg_weak.out_dir = args.out
    prm = cfg_ref.params
    opts_ref = _solver_options(cfg_ref, init_ref).resolved(init_ref)
    opts_weak = _solver_options(cfg_weak, init_weak).resolved(init_weak)
    # fixed shared step so both trajectories sample identical times, the
    # CFL step of the floored states both runs start from
    dt = cfg_ref.dt
    if dt is None:
        dt = min(cfl_dt(start_state(init_ref, opts_ref), prm, cfg_ref.cfl),
                 cfl_dt(start_state(init_weak, opts_weak), prm, cfg_ref.cfl))
    # the reference stores every snapshot_stride steps and at t_end
    spacing = min(cfg_ref.snapshot_stride * dt, cfg_ref.t_end)
    if entropy.spacing_exceeds_dx(spacing, cfg_ref.grid):
        raise ConfigError([
            f"compare needs reference snapshots at most min(dx, dy) = "
            f"{min(cfg_ref.grid.dx, cfg_ref.grid.dy):g} apart, but snapshot_stride "
            f"* dt in [time] spaces them {spacing:g} apart; lower snapshot_stride"])
    opts_ref.dt = opts_weak.dt = dt
    _require_out_dir(cfg_weak.out_dir)
    # the reference keeps every snapshot: row j needs its snapshots j-1..j+1
    ref = entropy.RefTrajectory()
    # main prints ``where`` after the message: it names the run that failed
    try:
        run_simulation(init_ref, prm, cfg_ref.t_end, opts_ref, force_fn=force_fn,
                       source_fn=src, sink=ref)
    except _RUN_FAILURES as e:
        e.where = f", in the reference run of {args.config_ref}"
        raise
    _stream(_Rows(cfg_weak, ref, force_fn), init_weak, prm, cfg_ref.t_end,
            opts_weak, force_fn, src)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    ms = manufactured_solution(cfg)
    if ms is None:
        raise ConfigError(["verify requires an mms:<name> initial preset"])
    if args.out:
        cfg.out_dir = args.out
    _require_out_dir(cfg.out_dir)
    rep = verify.convergence_study(ms, cfg.params, levels=cfg.verify_levels,
                                   t_end=cfg.verify_t_end,
                                   dt_over_dx2=cfg.verify_dt_over_dx2)
    with _writing(cfg.out_dir):
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
    cfg = _load_config(args.config)
    certs = verify.oracle_lemma_scan(cfg.params, n_samples=cfg.lemma_samples,
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
    freeze_at_exit()
    ap = argparse.ArgumentParser(
        prog="oldb2d",
        description="2D compressible viscoelastic flow simulator with "
                    "energy/relative-entropy diagnostics")
    ap.add_argument("--threads", type=_thread_count, default=1, metavar="N",
                    help="accepted for compatibility; the solver is "
                         "single-threaded and results never depend on N")
    ap.add_argument("--out", default=None, metavar="DIR",
                    help="override the configured output directory")
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
        # a non-finite value ends the command with a message naming it, and
        # the CSV keeps its inf/nan; numpy's warnings would only precede them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:
        print(f"config error: not enough memory for the grid ([grid] nx and "
              f"ny, or [verify] levels): {e}{getattr(e, 'where', '')}",
              file=sys.stderr)
        return EXIT_CONFIG
    except BlowupAbort as e:
        print(f"blow-up abort: monitor {e.monitor} reached {e.value:g} "
              f"(threshold {e.threshold:g}){getattr(e, 'where', '')}",
              file=sys.stderr)
        return EXIT_BLOWUP
    # ParameterError: lemma-check calibrates no H bound for gamma this near 1
    except (NumericalError, ParameterError) as e:
        print(f"numerical failure: {e}{getattr(e, 'where', '')}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
