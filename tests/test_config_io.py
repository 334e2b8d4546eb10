"""Config parsing (full error collection) and binary/CSV round trips."""

import dataclasses
import importlib.util
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oldb2d.config import (SCHEMA, ConfigError, RunConfig, build_initial,
                           manufactured_solution, parse_config, perturb_state,
                           section_values, smooth_noise)
from oldb2d.constitutive import ModelParams
from oldb2d.grid import Grid
from oldb2d.snapshot_io import (BASE_COLUMNS, COMPARE_COLUMNS, MAGIC,
                                SnapshotFormatError, read_snapshot,
                                write_snapshot, write_timeseries)
from oldb2d.state import State
from oldb2d.verify import MMS_NAMES, make_ms

from conftest import periodic_grid, random_smooth_state

ROOT = Path(__file__).resolve().parent.parent

MINIMAL = """
[grid]
nx = 16
ny = 16
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.grid.nx == 16 and cfg.grid.boundary_mode == "periodic"
    assert cfg.params.gamma == 2.0
    assert cfg.preset == "uniform"
    assert cfg.cfl == 0.4 and cfg.dt is None
    assert cfg.sup_rho_threshold is None  # "auto"
    assert cfg.formats == ("csv", "snapshots")


def test_missing_mandatory_keys():
    with pytest.raises(ConfigError) as ei:
        parse_config("[grid]\nlx = 1.0\n")
    msg = str(ei.value)
    assert "'nx'" in msg and "'ny'" in msg


def test_error_collection_reports_everything_at_once():
    text = """
[grid]
nx = 16
ny = 16
[params]
gamma = 1.0
mu_s = -2.0
[time]
cfl = 1.5
[diagnostics]
alpha = 5.0
[initial]
preset = vortex
[nosuchsection]
x = 1
"""
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    errs = ei.value.errors
    joined = "; ".join(errs)
    assert "gamma must exceed 1" in joined
    assert "mu_s must be positive" in joined
    assert "cfl" in joined
    assert "alpha" in joined
    assert "preset 'vortex'" in joined
    assert "unknown section [nosuchsection]" in joined
    assert len(errs) >= 6


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError) as ei:
        parse_config(MINIMAL + "[time]\nt_ned = 5\n")
    assert ei.value.errors == ["unknown key 't_ned' in [time]"]


#: every SCHEMA key with a valid non-default value, the field it must land
#: in and the value read back there; values differ between keys, so a
#: table row pointing at another key's field fails
NON_DEFAULT = [
    ("grid", "nx", "24", "grid.nx", 24),
    ("grid", "ny", "20", "grid.ny", 20),
    ("grid", "lx", "2.0", "grid.lx", 2.0),
    ("grid", "ly", "1.5", "grid.ly", 1.5),
    ("grid", "boundary_mode", "physical", "grid.boundary_mode", "physical"),
    ("params", "a", "2.5", "params.a", 2.5),
    ("params", "gamma", "1.4", "params.gamma", 1.4),
    ("params", "mu_s", "0.3", "params.mu_s", 0.3),
    ("params", "mu_b", "0.1", "params.mu_b", 0.1),
    ("params", "eps", "0.05", "params.eps", 0.05),
    ("params", "k", "3.0", "params.k", 3.0),
    ("params", "lam", "0.7", "params.lam", 0.7),
    ("params", "zfrak", "0.25", "params.zfrak", 0.25),
    ("params", "l", "2.0", "params.L", 2.0),
    ("initial", "preset", "gaussian-bump", "preset", "gaussian-bump"),
    ("initial", "rho0", "1.7", "rho0", 1.7),
    ("initial", "eta0", "0.6", "eta0", 0.6),
    ("initial", "delta0", "0.2", "delta0", 0.2),
    ("initial", "seed", "7", "seed", 7),
    ("time", "t_end", "0.15", "t_end", 0.15),
    ("time", "cfl", "0.35", "cfl", 0.35),
    ("time", "dt", "1e-3", "dt", 1e-3),
    ("time", "snapshot_stride", "3", "snapshot_stride", 3),
    ("diagnostics", "sup_rho_threshold", "50.0", "sup_rho_threshold", 50.0),
    ("diagnostics", "alpha", "2.5", "alpha", 2.5),
    ("output", "directory", "elsewhere", "out_dir", "elsewhere"),
    ("output", "formats", "csv", "formats", ("csv",)),
    ("forcing", "preset", "compress", "force_preset", "compress"),
    ("forcing", "amplitude", "0.45", "force_amplitude", 0.45),
    ("lemma", "corrected", "false", "lemma_corrected", False),
    ("lemma", "samples", "4096", "lemma_samples", 4096),
    ("lemma", "seed", "11", "lemma_seed", 11),
    ("verify", "levels", "8,16,32,64", "verify_levels", (8, 16, 32, 64)),
    ("verify", "t_end", "0.02", "verify_t_end", 0.02),
    ("verify", "dt_over_dx2", "0.25", "verify_dt_over_dx2", 0.25),
]


def _field(cfg, path):
    for name in path.split("."):
        cfg = getattr(cfg, name)
    return cfg


def test_every_schema_key_reads_back_in_its_own_field():
    assert sorted((sec, key) for sec, key, *_ in NON_DEFAULT) == \
        sorted((sec, key) for sec, keys in SCHEMA.items() for key in keys)
    sections = {}
    for sec, key, raw, _, _ in NON_DEFAULT:
        sections.setdefault(sec, []).append(f"{key} = {raw}")
    cfg = parse_config("".join(f"[{sec}]\n" + "\n".join(lines) + "\n"
                               for sec, lines in sections.items()))
    defaults = parse_config(MINIMAL)
    for sec, key, _, path, want in NON_DEFAULT:
        assert _field(cfg, path) == want != _field(defaults, path), (sec, key)
        assert section_values(cfg, sec)[key] == want, (sec, key)


def test_invalid_values_are_named():
    text = MINIMAL + "[time]\nt_end = soon\n[diagnostics]\nsup_rho_threshold = big\n"
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    msg = str(ei.value)
    assert "'soon'" in msg and "'big'" in msg


@pytest.mark.parametrize("section,line,named", [
    ("grid", "lx = inf", "'lx'"),
    ("time", "t_end = inf", "'t_end'"),
    ("time", "t_end = -inf", "'t_end'"),
    ("time", "dt = inf", "'dt'"),
    ("time", "cfl = nan", "'cfl'"),
    ("params", "mu_s = inf", "'mu_s'"),
    # named by its INI key: "lam must", which "lambda must" does not contain
    ("params", "lam = -1", "lam must be positive"),
    ("forcing", "amplitude = inf", "'amplitude'"),
    ("diagnostics", "sup_rho_threshold = nan", "sup_rho_threshold"),
    ("diagnostics", "sup_rho_threshold = -inf", "sup_rho_threshold"),
    ("lemma", "samples = -5", "samples"),
    ("lemma", "samples = 0", "samples"),
    ("lemma", "samples = 2147483648", "samples"),
    ("lemma", "samples = 1073741825", "samples"),
    ("lemma", "samples = 1073741824", None),
    ("lemma", "seed = -1", "seed"),
    ("initial", "seed = -1", "seed"),
    ("initial", "seed = abc", "'seed'"),
    ("initial", "preset = mms:bogus", "'mms:bogus'"),
    ("initial", "preset = mms:", "'mms:'"),
    ("initial", "delta0 = 1.0", "delta0"),
    ("initial", "delta0 = 3.0", "delta0"),
    ("initial", "delta0 = -0.1", "delta0"),
    ("initial", "delta0 = 0.5", None),
    ("initial", "preset = mms:steady-ws", None),
    ("verify", "levels = 16,32", "levels"),
    ("verify", "levels = 32,16,8", "levels"),
    ("verify", "levels = 16,32,48", "levels"),
    ("verify", "levels = 4,8,16", "levels"),
    ("verify", "dt_over_dx2 = 0", "dt_over_dx2"),
    ("verify", "t_end = 0", "t_end in [verify]"),
    ("verify", "t_end = -0.05", "t_end in [verify]"),
    ("diagnostics", "sup_rho_threshold = inf", None),
    ("verify", "levels = 8,16,32,64", None),
    ("output", "directory = out_50%", None),
])
def test_value_checks(section, line, named):
    text = MINIMAL + (line if section == "grid" else f"[{section}]\n{line}") + "\n"
    if named is None:
        assert isinstance(parse_config(text), RunConfig)
        return
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    assert named in str(ei.value)


_VALUES = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e309", "0", "-5", "16,32",
                     "8,16,32", "auto", "50%", "%(x)s", ""]),
    st.floats().map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.text(max_size=12))


@st.composite
def _ini_text(draw):
    lines = []
    for sec in sorted(draw(st.sets(st.sampled_from(sorted(SCHEMA) + ["extra"])))):
        keys = sorted(SCHEMA.get(sec, ())) + ["bogus"]
        entries = draw(st.dictionaries(st.sampled_from(keys), _VALUES, max_size=4))
        lines.append(f"[{sec}]")
        lines += [f"{key} = {val}" for key, val in entries.items()]
    if "[grid]" not in lines:
        lines = ["[grid]", "nx = 16", "ny = 16"] + lines
    return "\n".join(lines)


def _float_fields(cfg: RunConfig) -> dict:
    vals = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    vals.update(lx=cfg.grid.lx, ly=cfg.grid.ly)
    vals.update({f.name: getattr(cfg.params, f.name)
                 for f in dataclasses.fields(cfg.params) if f.init})
    return {k: v for k, v in vals.items() if isinstance(v, float)}


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(_ini_text(), st.text()))
def test_any_text_gives_config_error_or_finite_config(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    for name, v in _float_fields(cfg).items():
        if name == "sup_rho_threshold":
            assert v > 0, name
        else:
            assert math.isfinite(v), name


def test_threshold_variants():
    assert parse_config(MINIMAL + "[diagnostics]\nsup_rho_threshold = auto\n") \
        .sup_rho_threshold is None
    assert parse_config(MINIMAL + "[diagnostics]\nsup_rho_threshold = inf\n") \
        .sup_rho_threshold == np.inf
    assert parse_config(MINIMAL + "[diagnostics]\nsup_rho_threshold = 50\n") \
        .sup_rho_threshold == 50.0
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[diagnostics]\nsup_rho_threshold = -1\n")


def test_build_initial_presets(prm):
    for preset in ("uniform", "gaussian-bump", "shear-layer"):
        cfg = parse_config(MINIMAL + f"[initial]\npreset = {preset}\n")
        state, force_fn, source_fn = build_initial(cfg)
        assert manufactured_solution(cfg) is None
        assert force_fn is None and source_fn is None
        assert np.min(state.rho) > 0
        assert state.t11.shape == cfg.grid.shape
    cfg = parse_config(MINIMAL + "[forcing]\npreset = compress\namplitude = 1\n")
    assert build_initial(cfg)[1] is not None
    cfg = parse_config(MINIMAL + "[initial]\npreset = mms:periodic-smooth\n")
    state, force_fn, source_fn = build_initial(cfg)
    ms = manufactured_solution(cfg)
    assert ms is not None and ms.name == "periodic-smooth"
    # periodic-smooth carries its momentum residual as a source, not a force
    assert force_fn is None and len(source_fn(0.0)) == 7


def test_perturbation_deterministic_and_scaled(prm):
    g = periodic_grid(16)
    base = State.uniform(g, 1.0, 1.0, k=prm.k)
    a = perturb_state(base, 1e-3, seed=5, k=prm.k)
    b = perturb_state(base, 1e-3, seed=5, k=prm.k)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)
    # the perturbed state owns its planes, t12 included
    assert not any(np.shares_memory(x, y) for x in a.arrays() for y in base.arrays())
    c = perturb_state(base, 1e-4, seed=5, k=prm.k)
    da = np.max(np.abs(a.rho - base.rho))
    dc = np.max(np.abs(c.rho - base.rho))
    assert da == pytest.approx(10.0 * dc, rel=1e-10)


def test_perturbation_keeps_the_velocity_of_a_tiny_density():
    # the velocity does not depend on the density's scale, down to rho0 =
    # 1e-305: no floor below the solver's own clamps m / rho
    speeds = []
    for rho0 in ("1", "1e-305"):
        cfg = parse_config(MINIMAL + "[initial]\npreset = shear-layer\n"
                           f"rho0 = {rho0}\ndelta0 = 1e-3\n")
        state = build_initial(cfg)[0]
        speeds.append(np.max(np.abs(state.mx / state.rho)))
    assert speeds[0] == pytest.approx(0.1, rel=0.01)
    assert speeds[1] == pytest.approx(speeds[0], rel=1e-12)


def test_smooth_noise_normalized(prm):
    g = periodic_grid(32)
    n = smooth_noise(g, np.random.default_rng(9))
    assert np.max(np.abs(n)) == pytest.approx(1.0)


_CELL_AXES = Grid.cell_axes


def _cell_meshes(grid):
    """Contiguous (nx, ny) planes of the cell-center coordinates, the
    coordinates fields were once built on."""
    x, y = _CELL_AXES(grid)
    return np.meshgrid(x.ravel(), y.ravel(), indexing="ij")


def _bits(planes, shape) -> list:
    return [np.ascontiguousarray(np.broadcast_to(a, shape)).view(np.int64)
            for a in planes]


def _axes_and_mesh_bits(build) -> tuple:
    """``build()``'s planes with fields built on ``Grid.cell_axes``, then
    with ``Grid.cell_axes`` handing out full meshes."""
    on_axes = build()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Grid, "cell_axes", _cell_meshes)
        return on_axes, build()


_SIZES = ("nx = 8\nny = 8\n", "nx = 13\nny = 9\nlx = 1.5\nly = 0.7\n",
          "nx = 24\nny = 16\nlx = 1.5\n")


@pytest.mark.parametrize("mode", ["periodic", "physical"])
@pytest.mark.parametrize("preset", ["uniform", "gaussian-bump", "shear-layer"])
def test_initial_data_on_axes_is_bitwise_that_on_meshes(preset, mode):
    """Every preset, seeded perturbation and compressive force built on the
    (nx, 1) and (1, ny) axes equals, to the bit, the one built on full
    coordinate planes; the force broadcast to the grid."""
    for size in _SIZES:
        for delta0 in (0.0, 1e-3, 0.5):
            for force in ("", "[forcing]\npreset = compress\namplitude = 1.3\n"):
                cfg = parse_config(
                    f"[grid]\n{size}boundary_mode = {mode}\n[initial]\n"
                    f"preset = {preset}\nrho0 = 1.1\neta0 = 0.9\n"
                    f"delta0 = {delta0}\nseed = 7\n{force}")

                def build():
                    state, force_fn, _ = build_initial(cfg)
                    planes = state.arrays() + (force_fn(0.0) if force_fn else ())
                    return _bits(planes, cfg.grid.shape)
                on_axes, on_meshes = _axes_and_mesh_bits(build)
                assert len(on_axes) == (9 if force else 7)
                for a, b in zip(on_axes, on_meshes):
                    assert np.array_equal(a, b)


@pytest.mark.parametrize("name", MMS_NAMES)
def test_manufactured_planes_on_axes_are_bitwise_those_on_meshes(name):
    """The sampled state, sources and force of every manufactured solution
    equal, to the bit, their evaluation on full coordinate planes."""
    for prm, lx, ly, (nx, ny) in ((ModelParams(), 1.0, 1.0, (8, 8)),
                                  (ModelParams(), 1.0, 1.5, (24, 16)),
                                  (ModelParams(gamma=1.4, k=1.7, lam=0.6),
                                   1.5, 0.7, (13, 9))):
        ms = make_ms(name, prm, lx, ly)
        g = Grid(nx=nx, ny=ny, lx=lx, ly=ly)

        def build():
            planes = []
            for t in (0.0, 0.3):
                planes += ms.sample_state(g, t).arrays()
                planes += ms.source_fn(g)(t)
                if ms.force_fn(g) is not None:
                    planes += ms.force_fn(g)(t)
            return _bits(planes, g.shape)
        on_axes, on_meshes = _axes_and_mesh_bits(build)
        assert len(on_axes) == (32 if name == "steady-ws" else 28)
        for a, b in zip(on_axes, on_meshes):
            assert np.array_equal(a, b)


def test_snapshot_round_trip_bitwise(tmp_path, prm):
    g = periodic_grid(12)
    s = random_smooth_state(g, prm, np.random.default_rng(21))
    s.t = 0.375
    p = tmp_path / "snap.bin"
    write_snapshot(p, s)
    r = read_snapshot(p)
    assert r.t == s.t
    assert r.grid.nx == g.nx and r.grid.dx == g.dx
    for a, b in zip(r.arrays(), s.arrays()):
        assert np.array_equal(a, b)
    # writing the read-back state reproduces the file byte for byte
    p2 = tmp_path / "snap2.bin"
    write_snapshot(p2, r)
    assert p.read_bytes() == p2.read_bytes()


def test_snapshot_bad_magic(tmp_path, prm):
    g = periodic_grid(8)
    s = State.uniform(g, 1.0, 1.0, k=prm.k)
    p = tmp_path / "snap.bin"
    write_snapshot(p, s)
    data = bytearray(p.read_bytes())
    data[:4] = b"JUNK"
    p.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError, match="magic"):
        read_snapshot(p)


def test_snapshot_unknown_version(tmp_path, prm):
    g = periodic_grid(8)
    s = State.uniform(g, 1.0, 1.0, k=prm.k)
    p = tmp_path / "snap.bin"
    write_snapshot(p, s)
    data = bytearray(p.read_bytes())
    data[7] = 99  # version field follows the 7-byte magic
    p.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError, match="version"):
        read_snapshot(p)


def test_snapshot_truncation_reports_byte_counts(tmp_path, prm):
    g = periodic_grid(8)
    s = State.uniform(g, 1.0, 1.0, k=prm.k)
    p = tmp_path / "snap.bin"
    write_snapshot(p, s)
    data = p.read_bytes()
    p.write_bytes(data[:-17])
    with pytest.raises(SnapshotFormatError) as ei:
        read_snapshot(p)
    msg = str(ei.value)
    assert "expected" in msg and "got" in msg
    p.write_bytes(data[:10])
    with pytest.raises(SnapshotFormatError, match="header"):
        read_snapshot(p)
    p.write_bytes(data + b"\x00")
    with pytest.raises(SnapshotFormatError, match="trailing"):
        read_snapshot(p)


#: the v1 header: magic, version, nx, ny, dx, dy, t
_HEADER_FMT = "<7sI II ddd"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
#: bytes of the 8x8 snapshot that _snapshot_bytes writes
_SNAP_SIZE = _HEADER_SIZE + 7 * 8 * 8 * 8
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _finite_states(draw):
    nx, ny = draw(st.integers(8, 12)), draw(st.integers(8, 12))
    lx, ly = draw(st.floats(1e-6, 1e6)), draw(st.floats(1e-6, 1e6))
    planes = [draw(arrays(np.float64, (nx, ny), elements=_FINITE)) for _ in range(7)]
    return State(Grid(nx, ny, lx, ly), draw(_FINITE), *planes)


@settings(max_examples=60, deadline=None)
@given(state=_finite_states())
def test_random_finite_states_round_trip_bitwise(tmp_path_factory, state):
    p = tmp_path_factory.getbasetemp() / "round_trip.bin"
    write_snapshot(p, state)
    r = read_snapshot(p)
    assert (r.grid.dx, r.grid.dy) == (state.grid.dx, state.grid.dy)
    assert np.float64(r.t).tobytes() == np.float64(state.t).tobytes()
    for a, b in zip(r.arrays(), state.arrays()):
        assert a.tobytes() == b.tobytes()


def _snapshot_bytes(tmp_path):
    s = State(Grid(8, 8, 1.0, 1.0), 0.375,
              *np.random.default_rng(4).standard_normal((7, 8, 8)))
    p = tmp_path / "good.bin"
    write_snapshot(p, s)
    return p.read_bytes()


@pytest.mark.parametrize("field,value,match", [
    ("nx", 4, "at least 8 cells"),
    ("dx", 0.0, "positive"),
    ("dx", -0.125, "positive"),
    ("dx", math.nan, "finite"),
    ("dy", math.inf, "finite"),
    ("t", math.nan, "time"),
    ("t", -math.inf, "time"),
    # claims 64 times the planes the file holds
    ("nx", 8 * 64, "expected"),
])
def test_bad_header_raises_format_error(tmp_path, field, value, match):
    data = _snapshot_bytes(tmp_path)
    header = dict(zip(("magic", "version", "nx", "ny", "dx", "dy", "t"),
                      struct.unpack_from(_HEADER_FMT, data)))
    header[field] = value
    p = tmp_path / "bad.bin"
    p.write_bytes(struct.pack(_HEADER_FMT, *header.values()) + data[_HEADER_SIZE:])
    with pytest.raises(SnapshotFormatError, match=match):
        read_snapshot(p)


@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(st.one_of(st.integers(0, _HEADER_SIZE - 1),
                                          st.integers(0, _SNAP_SIZE - 1)),
                                st.integers(1, 255)), max_size=3),
       cut=st.one_of(st.none(), st.integers(0, _SNAP_SIZE)))
@example(flips=[(11, 8)], cut=None)    # nx 8 -> 0
@example(flips=[(26, 0x80)], cut=None)  # dx 0.125 -> -0.125
def test_corrupt_snapshot_reads_back_or_raises_format_error(tmp_path_factory,
                                                            flips, cut):
    base = tmp_path_factory.getbasetemp()
    good = _snapshot_bytes(base)
    data = bytearray(good)
    for pos, mask in flips:
        data[pos] ^= mask
    data = bytes(data[:cut])
    if len(data) >= _HEADER_SIZE:
        # keep the plane sizes a header claims small
        nx, ny = struct.unpack_from(_HEADER_FMT, data)[2:4]
        assume(nx * ny <= 1 << 16)
    p = base / "corrupt.bin"
    p.write_bytes(data)
    try:
        s = read_snapshot(p)
    except SnapshotFormatError:
        return
    assert math.isfinite(s.t) and 0 < s.grid.dx < math.inf and 0 < s.grid.dy < math.inf
    write_snapshot(p, s)
    assert p.read_bytes() == data


def test_timeseries_columns_and_determinism(tmp_path):
    row = {c: 0.1 * i for i, c in enumerate(BASE_COLUMNS)}
    p = tmp_path / "run.csv"
    write_timeseries(p, [row])
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(BASE_COLUMNS)
    assert len(lines) == 2
    p2 = tmp_path / "run2.csv"
    write_timeseries(p2, [row])
    assert p.read_bytes() == p2.read_bytes()
    # empty rows still produce the header
    p3 = tmp_path / "empty.csv"
    write_timeseries(p3, [], compare=True)
    assert p3.read_text().splitlines() == [",".join(COMPARE_COLUMNS)]


def test_timeseries_missing_column(tmp_path):
    row = {c: 0.0 for c in BASE_COLUMNS[:-1]}
    with pytest.raises(ValueError, match="min_eig_tau"):
        write_timeseries(tmp_path / "bad.csv", [row])


def test_csv_values_round_trip_exactly(tmp_path):
    vals = [0.1, 1.0 / 3.0, 1e-300, np.pi]
    row = {c: v for c, v in zip(BASE_COLUMNS, vals + [0.0] * 13)}
    p = tmp_path / "run.csv"
    write_timeseries(p, [row])
    fields = p.read_text().splitlines()[1].split(",")
    for raw, v in zip(fields[:4], vals):
        assert float(raw) == v


def test_every_config_is_run_by_a_header_command(monkeypatch):
    """Each ``configs/*.ini`` is an argument of some ``# oldb2d`` header
    command, so ``scripts/output_digests.py`` digests what it writes."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds perfbench/
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "scripts" / "output_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    configs = ROOT / "configs"
    named = {arg for cmd in digests.header_commands(configs) for arg in cmd}
    inis = {f"configs/{p.name}" for p in configs.glob("*.ini")}
    assert inis and inis <= named, sorted(inis - named)
