"""Wrappers around the public functions of each ``oldb2d`` module.

Nothing under ``src/`` is edited. A meta-path hook notices when an
``oldb2d`` module finishes executing, replaces the listed functions with
wrappers, and then sweeps every loaded ``oldb2d`` module for names that
were bound to an original by ``from .x import name``. Modules load in
dependency order, so a later ``from .grid import _extend_axis`` binds the
wrapper directly; the sweep catches re-exports such as
``kernels.ddx = _impl.ddx``.

Two wrappers exist:

* :class:`SolveHook` times the first entry into the workload's solve call
  (``dynamics.run_simulation`` or ``verify.oracle_lemma_scan``) and counts
  SSP-RK2 steps through ``run_simulation``'s ``step_callback``. It is the
  only hook in an untraced run.
* :class:`Tracer` records one span per call (start, end, parent, self
  time) plus counts and computed bytes at the same boundary. Spans stay in
  memory until the process ends.
"""

from __future__ import annotations

import functools
import importlib.abc
import os
import sys
import time
import weakref

#: module -> functions wrapped in a traced run. ``Class.method`` entries
#: patch the class attribute. The layer of a span is the module's last
#: dotted component.
TARGETS = {
    "oldb2d.kernels": ("muscl_div_x", "muscl_div_y", "laplacian", "ddx", "ddy",
                       "block_sums", "combine_block_sums", "pairwise_sum"),
    "oldb2d.grid": ("extend", "_extend_axis"),
    "oldb2d.fields": ("advective_div_array", "face_velocities", "grad_array",
                      "laplacian_array", "integrate_array", "l2_norm_array",
                      "pad1", "pad1_xy"),
    "oldb2d.parallel": ("deterministic_sum",),
    "oldb2d.state": ("State.copy", "State.check_finite", "Trajectory.add"),
    "oldb2d.constitutive": ("bregman_H", "bregman_G", "lower_bound_H",
                            "lower_bound_G", "calibrate_H_constants"),
    "oldb2d.dynamics": ("compute_rhs", "cfl_dt", "_apply_floors", "_pad",
                        "step_ssprk2", "balance_rates", "run_simulation"),
    "oldb2d.diagnostics": ("total_energy", "energy_inequality_residual",
                           "trace_identity_residual",
                           "stress_l2_balance_residual", "blowup_monitor",
                           "linf_tau", "min_eig_tau", "velocity_moment"),
    "oldb2d.entropy": ("rel_entropy_E1", "rel_entropy_E2", "stress_distance_ET",
                       "combined_E", "remainder_R_def", "remainder_R_new",
                       "relative_dissipation", "entropy_inequality_residual",
                       "stress_distance_balance", "RefTrajectory.time_derivs"),
    "oldb2d.verify": ("make_ms", "convergence_study", "oracle_lemma_scan",
                      "ManufacturedSolution.source_fn",
                      "ManufacturedSolution.force_fn",
                      "ManufacturedSolution.sample_state",
                      "ManufacturedSolution._eval"),
    "oldb2d.snapshot_io": ("write_snapshot", "write_timeseries"),
    "oldb2d.config": ("parse_config", "build_initial", "perturb_state",
                      "smooth_noise", "compressive_force"),
    "oldb2d.cli": ("cmd_run", "cmd_compare", "cmd_verify", "cmd_lemma_check"),
}

#: the solve calls whose first entry ends set-up
SOLVE_TARGETS = {
    "oldb2d.dynamics": ("run_simulation",),
    "oldb2d.verify": ("oracle_lemma_scan",),
}

#: span name of the closures returned by source_fn / force_fn
SOURCE_EVAL = "verify.source_eval"

_F8 = 8


def _cells(a) -> int:
    return int(a.shape[0]) * int(a.shape[1])


def _cost(name: str, args: tuple, result):
    """Computed (bytes, flops, cells) of one kernel or ghost-fill call.

    Bytes are one pass over every input and the output, ignoring
    temporaries and cache misses; flops count the floating-point adds,
    multiplies and divides per output cell of the numpy expressions in
    ``oldb2d.kernels.pure`` (both ``np.where`` branches are computed)."""
    if name in ("kernels.muscl_div_x", "kernels.muscl_div_y"):
        phi, vel = args[0], args[1]
        cells = _cells(result)
        # slope difference 1, minmod product 1, left 2, right 2,
        # two upwind products 2, flux difference and scale 2
        return phi.nbytes + vel.nbytes + result.nbytes, 10 * cells, cells
    if name == "kernels.laplacian":
        cells = _cells(result)
        return args[0].nbytes + result.nbytes, 9 * cells, cells
    if name in ("kernels.ddx", "kernels.ddy"):
        cells = _cells(result)
        return args[0].nbytes + result.nbytes, 2 * cells, cells
    if name == "kernels.block_sums":
        blocks = int(args[2]) - int(args[1])
        n = blocks * sys.modules["oldb2d.kernels"].BLOCK
        return n * _F8 + result.nbytes, n - blocks, n
    if name == "kernels.combine_block_sums":
        n = int(args[0].shape[0])
        return args[0].nbytes, max(n - 1, 0), n
    if name == "grid._extend_axis":
        return args[0].nbytes + result.nbytes, 0, 0
    return None


def _written_bytes(name: str, args: tuple, result):
    if name in ("snapshot_io.write_snapshot", "snapshot_io.write_timeseries"):
        return os.path.getsize(args[0]), 0, 0
    return None


class Tracer:
    """In-memory span recorder.

    A span is ``(id, parent, name, start_ns, end_ns, self_ns, cost)`` where
    ``cost`` is ``(bytes, flops, cells)`` for kernels, ghost fills and file
    writes, else None. Self time is the span's duration minus the time its
    child spans cover."""

    def __init__(self):
        self.spans = []
        self._stack = []          # [span id, ns covered by children]
        self._next = 0
        self.held_bytes = 0       # 7 planes of every snapshot still held
        self.held_bytes_peak = 0

    def _enter(self):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0]
        self._stack.append(frame)
        return sid, parent, frame

    def _exit(self, sid, parent, frame, name, t0, t1, cost):
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((sid, parent, name, t0, t1, dur - frame[1], cost))

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call records a span called ``name``."""
        measure = _cost if name.split(".")[0] in ("kernels", "grid") \
            else _written_bytes
        returns_closure = name in ("verify.ManufacturedSolution.source_fn",
                                   "verify.ManufacturedSolution.force_fn")
        holds_snapshot = name == "state.Trajectory.add"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, frame = tracer._enter()
            t0 = time.perf_counter_ns()
            result, done = None, False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = time.perf_counter_ns()
                cost = measure(name, args, result) if done else None
                tracer._exit(sid, parent, frame, name, t0, t1, cost)
            if holds_snapshot:
                tracer._hold(args[0])
            if returns_closure and result is not None:
                result = tracer.span(SOURCE_EVAL, result)
            return result
        return wrapper

    def _hold(self, traj) -> None:
        """Count the bytes of the snapshot just added to ``traj`` until the
        trajectory is garbage-collected."""
        state = traj.states[-1]
        nbytes = 7 * state.grid.nx * state.grid.ny * _F8
        self.held_bytes += nbytes
        self.held_bytes_peak = max(self.held_bytes_peak, self.held_bytes)
        weakref.finalize(traj, self._release, nbytes)

    def _release(self, nbytes: int) -> None:
        self.held_bytes -= nbytes


class SolveHook:
    """Times the first entry into the solve call and counts the work it
    does: SSP-RK2 steps and cell-steps of every ``run_simulation``."""

    def __init__(self):
        self.first_entry = None   # time.monotonic(), comparable across processes
        self.steps = 0
        self.cell_steps = 0

    def wrap(self, name: str, fn):
        hook = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook.first_entry is None:
                hook.first_entry = time.monotonic()
            if name == "dynamics.run_simulation":
                cells = args[0].grid.nx * args[0].grid.ny
                inner = kwargs.get("step_callback")

                def count(state, acc):
                    hook.steps += 1
                    hook.cell_steps += cells
                    if inner is not None:
                        inner(state, acc)
                if len(args) < 7:  # step_callback not passed positionally
                    kwargs["step_callback"] = count
            return fn(*args, **kwargs)
        return wrapper


def span_name(module: str, attr: str) -> str:
    """``oldb2d.state`` + ``Trajectory.add`` -> ``state.Trajectory.add``;
    the first component is the layer."""
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Patcher(importlib.abc.MetaPathFinder):
    """Installs wrappers on ``oldb2d`` modules as they finish loading.

    ``factories`` maps span names to a list of ``(name, fn) -> wrapper``
    callables applied innermost first."""

    def __init__(self, targets: dict, factories):
        self.targets = targets
        self.factories = factories
        self.wrapped = {}          # id(original) -> wrapper
        self._originals = {}       # id(original) -> original (kept alive)

    def install(self) -> None:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "") in self.targets:
                self._patch(mod)
        sys.meta_path.insert(0, self)

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.targets:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        exec_module = loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self._patch(module)
        loader.exec_module = exec_and_patch
        return spec

    def _patch(self, module) -> None:
        for attr in self.targets[module.__name__]:
            owner, leaf = module, attr
            if "." in attr:
                cls_name, leaf = attr.split(".")
                owner = getattr(module, cls_name)
            orig = getattr(owner, leaf)
            if id(orig) in self.wrapped:
                continue
            name = span_name(module.__name__, attr)
            fn = orig
            for factory in self.factories(name):
                fn = factory(name, fn)
            self.wrapped[id(orig)] = fn
            self._originals[id(orig)] = orig
            setattr(owner, leaf, fn)
        self._sweep()

    def _sweep(self) -> None:
        """Rebind every name an ``oldb2d`` module bound to an original."""
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("oldb2d") or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                w = self.wrapped.get(id(val))
                if w is not None and self._originals[id(val)] is val:
                    setattr(mod, key, w)


def install(hook: SolveHook, tracer: Tracer | None = None) -> None:
    """Patch the solve calls with ``hook`` and, when ``tracer`` is given,
    every function in :data:`TARGETS` with a span."""
    solve = {span_name(m, a) for m, names in SOLVE_TARGETS.items() for a in names}

    def factories(name):
        out = [hook.wrap] if name in solve else []
        if tracer is not None:
            out.append(tracer.span)
        return out

    targets = TARGETS if tracer is not None else SOLVE_TARGETS
    Patcher(targets, factories).install()
