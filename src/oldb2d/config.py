"""Run configuration: INI-style parsing with full-file error collection,
named initial-condition presets, and seeded smooth perturbations."""

from __future__ import annotations

import configparser
import dataclasses
import math

import numpy as np

from .constitutive import ModelParams, ParameterError
from .grid import Grid, GridError
from .rng import Generator, default_rng
from .state import State
from .verify import (LEVELS_RULE, MMS_NAMES, SOBOL_POINTS, doubling_levels,
                     make_ms)


class ConfigError(ValueError):
    """Carries every problem found in the file, not just the first."""

    def __init__(self, errors: list):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def _float(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(raw)
    return v


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def _threshold(raw: str) -> float | None:
    return None if raw == "auto" else float(raw)


def _formats(raw: str) -> tuple:
    return tuple(f.strip() for f in raw.split(",") if f.strip())


def _levels(raw: str) -> tuple:
    return tuple(int(v) for v in raw.split(","))


def usable_directory(path: str) -> bool:
    """Whether ``path`` can name an output directory: no OS call takes an
    empty path or one with a NUL byte."""
    return bool(path) and "\0" not in path


#: marks a key without a default
_REQUIRED = object()

#: section -> INI key -> (field, parser, default): the one list of the keys.
#: [grid] keys fill Grid fields, [params] keys ModelParams fields and every
#: other key a RunConfig field.
SCHEMA = {
    "grid": {"nx": ("nx", int, _REQUIRED), "ny": ("ny", int, _REQUIRED),
             "lx": ("lx", _float, 1.0), "ly": ("ly", _float, 1.0),
             "boundary_mode": ("boundary_mode", str, "periodic")},
    "params": {f.name.lower(): (f.name, _float, f.default)
               for f in dataclasses.fields(ModelParams) if f.init},
    "initial": {"preset": ("preset", str, "uniform"),
                "rho0": ("rho0", _float, 1.0), "eta0": ("eta0", _float, 1.0),
                "delta0": ("delta0", _float, 0.0), "seed": ("seed", int, 0)},
    "time": {"t_end": ("t_end", _float, 0.1), "cfl": ("cfl", _float, 0.4),
             "dt": ("dt", _float, None),  # None = CFL-adaptive
             "snapshot_stride": ("snapshot_stride", int, 10)},
    # sup_rho_threshold None = 1000 * initial max rho
    "diagnostics": {"sup_rho_threshold": ("sup_rho_threshold", _threshold, None),
                    "alpha": ("alpha", _float, 3.0)},
    "output": {"directory": ("out_dir", str, "."),
               "formats": ("formats", _formats, ("csv", "snapshots"))},
    "forcing": {"preset": ("force_preset", str, "none"),
                "amplitude": ("force_amplitude", _float, 0.0)},
    "lemma": {"corrected": ("lemma_corrected", _bool, True),
              "samples": ("lemma_samples", int, 1 << 20),
              "seed": ("lemma_seed", int, 20240817)},
    "verify": {"levels": ("verify_levels", _levels, (32, 64, 128)),
               "t_end": ("verify_t_end", _float, 0.05),
               "dt_over_dx2": ("verify_dt_over_dx2", _float, 0.5)},
}

_PRESETS = ("uniform", "gaussian-bump", "shear-layer")

#: a parsed configuration: ``grid``, ``params``, then one field per other
#: :data:`SCHEMA` key, in SCHEMA order
RunConfig = dataclasses.make_dataclass(
    "RunConfig", ["grid", "params"] + [
        name for sec, keys in SCHEMA.items() if sec not in ("grid", "params")
        for name, _, _ in keys.values()],
    namespace={"__module__": __name__})


def section_values(cfg: RunConfig, sec: str) -> dict:
    """INI key -> value of one section of a parsed configuration."""
    owner = {"grid": cfg.grid, "params": cfg.params}.get(sec, cfg)
    return {key: getattr(owner, name) for key, (name, _, _) in SCHEMA[sec].items()}


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError([f"syntax error: {e}"]) from e

    errors: list[str] = []
    for sec in cp.sections():
        if sec not in SCHEMA:
            errors.append(f"unknown section [{sec}]")
            continue
        errors += [f"unknown key '{key}' in [{sec}]"
                   for key in cp[sec] if key not in SCHEMA[sec]]

    # section -> field -> value; a value that fails to parse keeps the
    # default, so the checks below still see every other key
    vals = {sec: {} for sec in SCHEMA}
    for sec, keys in SCHEMA.items():
        for key, (name, conv, default) in keys.items():
            vals[sec][name] = default
            if not cp.has_option(sec, key):
                if default is _REQUIRED:
                    errors.append(f"missing mandatory key '{key}' in [{sec}]")
                continue
            raw = cp.get(sec, key)
            try:
                vals[sec][name] = conv(raw)
            except (ValueError, TypeError):
                errors.append(f"invalid value '{raw}' for '{key}' in [{sec}]")

    grid = params = None
    if _REQUIRED not in vals["grid"].values():
        try:
            grid = Grid(**vals["grid"])
        except (GridError, ValueError) as e:
            errors.append(str(e))
    try:
        params = ModelParams(**vals["params"])
    except ParameterError as e:
        errors.extend(str(e).split("; "))

    v = {name: val for sec, fields in vals.items() if sec not in ("grid", "params")
         for name, val in fields.items()}
    preset, thr, levels = v["preset"], v["sup_rho_threshold"], v["verify_levels"]
    errors += [msg for bad, msg in (
        (not (preset in _PRESETS
              or preset.startswith("mms:") and preset[4:] in MMS_NAMES),
         f"unknown initial preset '{preset}'"),
        # every make_ms solution is periodic
        (preset.startswith("mms:") and vals["grid"]["boundary_mode"] != "periodic",
         f"preset '{preset}' needs boundary_mode = periodic in [grid]"),
        # a manufactured solution brings its own force and sources
        (preset.startswith("mms:") and v["force_preset"] != "none",
         f"preset '{preset}' takes no forcing; remove preset in [forcing]"),
        # perturb_state scales rho and eta by 1 + delta0 * n with max|n| = 1
        (not 0 <= v["delta0"] < 1, "delta0 must lie in [0, 1)"),
        (v["rho0"] <= 0, "rho0 must be positive"),
        (v["eta0"] < 0, "eta0 must be nonnegative"),
        (v["t_end"] < 0, "t_end must be nonnegative"),
        (not 0 < v["cfl"] <= 1, "cfl must lie in (0, 1]"),
        (v["dt"] is not None and v["dt"] <= 0, "dt must be positive when given"),
        (v["snapshot_stride"] < 1, "snapshot_stride must be >= 1"),
        (thr is not None and not thr > 0,
         "sup_rho_threshold must be positive, 'inf' or 'auto'"),
        (not 2.0 < v["alpha"] <= 3.0, "alpha must lie in (2, 3]"),
        (v["force_preset"] not in ("none", "compress"),
         f"unknown forcing preset '{v['force_preset']}'"),
        (not 1 <= v["lemma_samples"] <= SOBOL_POINTS,
         f"samples in [lemma] must be in [1, {SOBOL_POINTS}]"),
        (v["seed"] < 0, "seed in [initial] must be nonnegative"),
        (v["lemma_seed"] < 0, "seed in [lemma] must be nonnegative"),
        (not doubling_levels(levels),
         f"levels in [verify] must be {LEVELS_RULE}, "
         f"got '{','.join(map(str, levels))}'"),
        (not v["verify_t_end"] > 0, "t_end in [verify] must be positive"),
        (not v["verify_dt_over_dx2"] > 0, "dt_over_dx2 in [verify] must be positive"),
    ) if bad]
    if not usable_directory(v["out_dir"]):
        errors.append(f"directory in [output] must be a nonempty path with no "
                      f"NUL byte, got {v['out_dir']!r}")
    errors += [f"unknown output format '{f}'" for f in v["formats"]
               if f not in ("csv", "snapshots")]
    if errors:
        raise ConfigError(errors)
    return RunConfig(grid=grid, params=params, **v)


# --- initial conditions ----------------------------------------------------


def smooth_noise(grid: Grid, rng: Generator,
                 vanish_on_walls: bool = False) -> np.ndarray:
    """Smooth random field of three low modes with sup norm about 1,
    deterministic for a given generator state. ``rng`` is an
    :class:`oldb2d.rng.Generator` or a ``numpy.random.Generator``: both
    draw the same bits from the same seed."""
    X, Y = grid.cell_axes()
    out = np.zeros(grid.shape)
    for _ in range(3):
        mx_, my_ = rng.integers(1, 4, size=2)
        phx, phy = rng.uniform(0.0, 2.0 * np.pi, size=2)
        amp = rng.uniform(0.5, 1.0)
        out += amp * np.sin(2 * np.pi * mx_ * X / grid.lx + phx) \
            * np.sin(2 * np.pi * my_ * Y / grid.ly + phy)
    out /= max(np.max(np.abs(out)), 1e-30)
    if vanish_on_walls:
        out *= np.sin(np.pi * X / grid.lx) * np.sin(np.pi * Y / grid.ly)
    return out


def manufactured_solution(cfg: RunConfig):
    """The manufactured solution of an ``mms:<name>`` preset, else None."""
    if not cfg.preset.startswith("mms:"):
        return None
    return make_ms(cfg.preset[4:], cfg.params, cfg.grid.lx, cfg.grid.ly)


def build_initial(cfg: RunConfig):
    """(state, force_fn, source_fn) of a run: the configured preset's initial
    state with the manufactured solution's force and sources, or else the
    configured body force and no sources."""
    grid, prm = cfg.grid, cfg.params
    ms = manufactured_solution(cfg)
    force_fn = compressive_force(cfg) if cfg.force_preset == "compress" else None
    source_fn = None
    if ms is not None:
        state = ms.sample_state(grid, 0.0)
        force_fn, source_fn = ms.force_fn(grid), ms.source_fn(grid)
    else:
        state = State.uniform(grid, cfg.rho0, cfg.eta0, k=prm.k)
        X, Y = grid.cell_axes()
        if cfg.preset == "gaussian-bump":
            sig = 0.1 * min(grid.lx, grid.ly)
            bump = np.exp(-((X - grid.lx / 2) ** 2 + (Y - grid.ly / 2) ** 2)
                          / (2.0 * sig ** 2))
            state.rho = cfg.rho0 * (1.0 + 0.2 * bump)
        elif cfg.preset == "shear-layer":
            w = 0.05 * grid.ly
            upper = Y > grid.ly / 2
            ux = np.where(upper,
                          0.1 * np.tanh((3 * grid.ly / 4 - Y) / w),
                          0.1 * np.tanh((Y - grid.ly / 4) / w))
            uy = 0.01 * np.sin(2 * np.pi * X / grid.lx)
            state.mx = state.rho * ux
            state.my = state.rho * uy

    if cfg.delta0 > 0:
        state = perturb_state(state, cfg.delta0, cfg.seed, prm.k)
    return state, force_fn, source_fn


def perturb_state(state: State, delta0: float, seed: int, k: float) -> State:
    """Multiplicative smooth perturbations of size delta0 on rho and eta,
    additive on velocity and stress; deterministic in the seed."""
    grid = state.grid
    rng = default_rng(seed)
    walls = not grid.periodic
    n_rho = smooth_noise(grid, rng)
    n_eta = smooth_noise(grid, rng)
    n_ux = smooth_noise(grid, rng, vanish_on_walls=walls)
    n_uy = smooth_noise(grid, rng, vanish_on_walls=walls)
    n_t = smooth_noise(grid, rng)
    ux, uy = state.velocity()
    rho = state.rho * (1.0 + delta0 * n_rho)
    scale = k * max(float(np.max(state.eta)), 1.0)
    return State(grid, state.t, rho, rho * (ux + delta0 * n_ux),
                 rho * (uy + delta0 * n_uy), state.eta * (1.0 + delta0 * n_eta),
                 state.t11 + delta0 * scale * n_t, state.t12.copy(),
                 state.t22 + delta0 * scale * n_t)


def compressive_force(cfg: RunConfig):
    """Body force pushing mass toward the domain center (periodic-friendly
    restoring field); used by the blow-up stress test. Its callback returns
    fx on an (nx, 1) and fy on a (1, ny) line, which broadcast to the grid."""
    grid = cfg.grid
    amp = cfg.force_amplitude
    X, Y = grid.cell_axes()
    fx = -amp * np.sin(2 * np.pi * (X - grid.lx / 2) / grid.lx)
    fy = -amp * np.sin(2 * np.pi * (Y - grid.ly / 2) / grid.ly)

    def fn(t: float):
        return fx, fy
    return fn
