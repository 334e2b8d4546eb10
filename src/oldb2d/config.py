"""Run configuration: INI-style parsing with full-file error collection,
named initial-condition presets, and seeded smooth perturbations."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .constitutive import ModelParams, ParameterError
from .grid import Grid, GridError
from .state import State


class ConfigError(ValueError):
    """Carries every problem found in the file, not just the first."""

    def __init__(self, errors: list):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


_KNOWN_KEYS = {
    "grid": {"nx", "ny", "lx", "ly", "boundary_mode"},
    "params": {"a", "gamma", "mu_s", "mu_b", "eps", "k", "lam", "zfrak", "l"},
    "initial": {"preset", "rho0", "eta0", "delta0", "seed"},
    "time": {"t_end", "cfl", "dt", "snapshot_stride"},
    "diagnostics": {"sup_rho_threshold", "alpha"},
    "output": {"directory", "formats"},
    "forcing": {"preset", "amplitude"},
    "lemma": {"corrected", "samples", "seed"},
    "verify": {"levels", "t_end", "dt_over_dx2"},
}

_PRESETS = ("uniform", "gaussian-bump", "shear-layer")

#: the manufactured solutions of ``verify.make_ms``, preset ``mms:<name>``
MMS_NAMES = ("periodic-smooth", "diffusion-eta", "steady-ws")

#: the Sobol sequence of the lemma scan has 2**30 points
_MAX_LEMMA_SAMPLES = 1 << 30


@dataclass
class RunConfig:
    """A parsed configuration; :func:`parse_config` states every default."""

    grid: Grid
    params: ModelParams
    preset: str
    rho0: float
    eta0: float
    delta0: float
    seed: int
    t_end: float
    cfl: float
    dt: float | None                  # None = CFL-adaptive
    snapshot_stride: int
    sup_rho_threshold: float | None   # None = 1000 * initial max rho
    alpha: float
    out_dir: str
    formats: tuple
    force_preset: str
    force_amplitude: float
    lemma_corrected: bool
    lemma_samples: int
    lemma_seed: int
    verify_levels: tuple
    verify_t_end: float
    verify_dt_over_dx2: float


def parse_config(text: str, strict: bool = True) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    errors: list[str] = []
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError([f"syntax error: {e}"]) from e

    for sec in cp.sections():
        if sec not in _KNOWN_KEYS:
            if strict:
                errors.append(f"unknown section [{sec}]")
            continue
        for key in cp[sec]:
            if key not in _KNOWN_KEYS[sec] and strict:
                errors.append(f"unknown key '{key}' in [{sec}]")

    def get(sec, key, conv, default, required=False):
        if not cp.has_option(sec, key):
            if required:
                errors.append(f"missing mandatory key '{key}' in [{sec}]")
            return default
        raw = cp.get(sec, key)
        try:
            return conv(raw)
        except (ValueError, TypeError):
            errors.append(f"invalid value '{raw}' for '{key}' in [{sec}]")
            return default

    def as_float(raw):
        v = float(raw)
        if not math.isfinite(v):
            raise ValueError(raw)
        return v

    def as_bool(raw):
        low = raw.strip().lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError(raw)

    nx = get("grid", "nx", int, 64, required=True)
    ny = get("grid", "ny", int, 64, required=True)
    lx = get("grid", "lx", as_float, 1.0)
    ly = get("grid", "ly", as_float, 1.0)
    bmode = get("grid", "boundary_mode", str, "periodic")
    grid = None
    try:
        grid = Grid(nx=nx, ny=ny, lx=lx, ly=ly, boundary_mode=bmode)
    except (GridError, ValueError) as e:
        errors.append(str(e))

    pkw = {}
    for key, attr in (("a", "a"), ("gamma", "gamma"), ("mu_s", "mu_s"),
                      ("mu_b", "mu_b"), ("eps", "eps"), ("k", "k"),
                      ("lam", "lam"), ("zfrak", "zfrak"), ("l", "L")):
        if cp.has_option("params", key):
            pkw[attr] = get("params", key, as_float, None)
    params = None
    try:
        params = ModelParams(**{k: v for k, v in pkw.items() if v is not None})
    except ParameterError as e:
        errors.extend(str(e).split("; "))

    preset = get("initial", "preset", str, "uniform")
    if not (preset in _PRESETS
            or preset.startswith("mms:") and preset[4:] in MMS_NAMES):
        errors.append(f"unknown initial preset '{preset}'")
    delta0 = get("initial", "delta0", as_float, 0.0)
    # perturb_state scales rho and eta by 1 + delta0 * n with max|n| = 1
    if not 0 <= delta0 < 1:
        errors.append("delta0 must lie in [0, 1)")
    rho0 = get("initial", "rho0", as_float, 1.0)
    eta0 = get("initial", "eta0", as_float, 1.0)
    if rho0 <= 0:
        errors.append("rho0 must be positive")
    if eta0 < 0:
        errors.append("eta0 must be nonnegative")
    seed = get("initial", "seed", int, 0)

    t_end = get("time", "t_end", as_float, 0.1)
    if t_end < 0:
        errors.append("t_end must be nonnegative")
    cfl = get("time", "cfl", as_float, 0.4)
    if not 0 < cfl <= 1:
        errors.append("cfl must lie in (0, 1]")
    dt = get("time", "dt", as_float, None)
    if dt is not None and dt <= 0:
        errors.append("dt must be positive when given")
    stride = get("time", "snapshot_stride", int, 10)
    if stride < 1:
        errors.append("snapshot_stride must be >= 1")

    thr_raw = get("diagnostics", "sup_rho_threshold", str, "auto")
    if thr_raw in ("auto", None):
        threshold = None
    else:
        try:
            threshold = float(thr_raw)
            if not threshold > 0:
                errors.append("sup_rho_threshold must be positive, 'inf' or 'auto'")
        except ValueError:
            errors.append(f"invalid sup_rho_threshold '{thr_raw}'")
            threshold = None
    alpha = get("diagnostics", "alpha", as_float, 3.0)
    if not 2.0 < alpha <= 3.0:
        errors.append("alpha must lie in (2, 3]")

    out_dir = get("output", "directory", str, ".")
    formats_raw = get("output", "formats", str, "csv,snapshots")
    formats = tuple(f.strip() for f in formats_raw.split(",") if f.strip())
    for f in formats:
        if f not in ("csv", "snapshots"):
            errors.append(f"unknown output format '{f}'")

    force_preset = get("forcing", "preset", str, "none")
    if force_preset not in ("none", "compress"):
        errors.append(f"unknown forcing preset '{force_preset}'")
    force_amp = get("forcing", "amplitude", as_float, 0.0)

    lemma_corrected = get("lemma", "corrected", as_bool, True)
    lemma_samples = get("lemma", "samples", int, 1 << 20)
    if not 1 <= lemma_samples <= _MAX_LEMMA_SAMPLES:
        errors.append(f"samples in [lemma] must be in [1, {_MAX_LEMMA_SAMPLES}]")
    lemma_seed = get("lemma", "seed", int, 20240817)
    for sec, value in (("initial", seed), ("lemma", lemma_seed)):
        if value < 0:
            errors.append(f"seed in [{sec}] must be nonnegative")

    levels_raw = get("verify", "levels", str, "32,64,128")
    try:
        verify_levels = tuple(int(v) for v in levels_raw.split(","))
    except ValueError:
        errors.append(f"invalid verify levels '{levels_raw}'")
        verify_levels = (32, 64, 128)
    if (len(verify_levels) < 3 or verify_levels[0] < 8
            or any(b != 2 * a for a, b in zip(verify_levels, verify_levels[1:]))):
        errors.append(f"levels in [verify] must be 3 or more grid sizes from 8 up, "
                      f"each twice the previous, got '{levels_raw}'")
    verify_t_end = get("verify", "t_end", as_float, 0.05)
    verify_ratio = get("verify", "dt_over_dx2", as_float, 0.5)
    if not verify_ratio > 0:
        errors.append("dt_over_dx2 in [verify] must be positive")

    if errors:
        raise ConfigError(errors)
    return RunConfig(grid=grid, params=params, preset=preset, rho0=rho0,
                     eta0=eta0, delta0=delta0,
                     seed=seed,
                     t_end=t_end, cfl=cfl, dt=dt, snapshot_stride=stride,
                     sup_rho_threshold=threshold, alpha=alpha,
                     out_dir=out_dir, formats=formats,
                     force_preset=force_preset, force_amplitude=force_amp,
                     lemma_corrected=lemma_corrected,
                     lemma_samples=lemma_samples, lemma_seed=lemma_seed,
                     verify_levels=verify_levels, verify_t_end=verify_t_end,
                     verify_dt_over_dx2=verify_ratio)


# --- initial conditions ----------------------------------------------------


def smooth_noise(grid: Grid, rng: np.random.Generator,
                 vanish_on_walls: bool = False) -> np.ndarray:
    """Smooth random field of three low modes with sup norm about 1,
    deterministic for a given generator state."""
    X, Y = grid.cell_centers()
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


def build_initial(cfg: RunConfig):
    """Initial state from the configured preset, plus the manufactured
    solution object when the preset is mms:<name> (None otherwise)."""
    grid, prm = cfg.grid, cfg.params
    ms = None
    if cfg.preset.startswith("mms:"):
        from .verify import make_ms
        ms = make_ms(cfg.preset[4:], prm, grid.lx, grid.ly)
        state = ms.sample_state(grid, 0.0)
    elif cfg.preset == "uniform":
        state = State.uniform(grid, cfg.rho0, cfg.eta0, k=prm.k)
    elif cfg.preset == "gaussian-bump":
        X, Y = grid.cell_centers()
        sig = 0.1 * min(grid.lx, grid.ly)
        bump = np.exp(-((X - grid.lx / 2) ** 2 + (Y - grid.ly / 2) ** 2)
                      / (2.0 * sig ** 2))
        state = State.uniform(grid, cfg.rho0, cfg.eta0, k=prm.k)
        state.rho = cfg.rho0 * (1.0 + 0.2 * bump)
    elif cfg.preset == "shear-layer":
        X, Y = grid.cell_centers()
        w = 0.05 * grid.ly
        upper = Y > grid.ly / 2
        ux = np.where(upper,
                      0.1 * np.tanh((3 * grid.ly / 4 - Y) / w),
                      0.1 * np.tanh((Y - grid.ly / 4) / w))
        uy = 0.01 * np.sin(2 * np.pi * X / grid.lx) * np.ones_like(Y)
        state = State.uniform(grid, cfg.rho0, cfg.eta0, k=prm.k)
        state.mx = state.rho * ux
        state.my = state.rho * uy
    else:
        raise ConfigError([f"unknown initial preset '{cfg.preset}'"])

    if cfg.delta0 > 0:
        state = perturb_state(state, cfg.delta0, cfg.seed, prm.k)
    return state, ms


def perturb_state(state: State, delta0: float, seed: int, k: float) -> State:
    """Multiplicative smooth perturbations of size delta0 on rho and eta,
    additive on velocity and stress; deterministic in the seed."""
    grid = state.grid
    rng = np.random.default_rng(seed)
    walls = not grid.periodic
    out = state.copy()
    n_rho = smooth_noise(grid, rng)
    n_eta = smooth_noise(grid, rng)
    n_ux = smooth_noise(grid, rng, vanish_on_walls=walls)
    n_uy = smooth_noise(grid, rng, vanish_on_walls=walls)
    n_t = smooth_noise(grid, rng)
    ux, uy = state.velocity(1e-300)
    out.rho = state.rho * (1.0 + delta0 * n_rho)
    out.eta = state.eta * (1.0 + delta0 * n_eta)
    out.mx = out.rho * (ux + delta0 * n_ux)
    out.my = out.rho * (uy + delta0 * n_uy)
    scale = k * max(float(np.max(state.eta)), 1.0)
    out.t11 = state.t11 + delta0 * scale * n_t
    out.t22 = state.t22 + delta0 * scale * n_t
    return out


def compressive_force(cfg: RunConfig):
    """Body force pushing mass toward the domain center (periodic-friendly
    restoring field); used by the blow-up stress test."""
    grid = cfg.grid
    amp = cfg.force_amplitude
    X, Y = grid.cell_centers()
    fx = -amp * np.sin(2 * np.pi * (X - grid.lx / 2) / grid.lx)
    fy = -amp * np.sin(2 * np.pi * (Y - grid.ly / 2) / grid.ly)

    def fn(t: float):
        return fx, fy
    return fn
