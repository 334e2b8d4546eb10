"""Binary state snapshots and the diagnostics time-series CSV.

Snapshot layout (little-endian): magic "OLDB2D\\0", uint32 version,
uint32 nx, uint32 ny, float64 dx, dy, t, then 7 row-major float64 planes
in fixed order rho, (rho u)_x, (rho u)_y, eta, T11, T12, T22. Reads
reproduce writes bitwise.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .grid import Grid, GridError
from .state import State

MAGIC = b"OLDB2D\x00"
VERSION = 1

_HEADER = struct.Struct("<7sI II ddd")

BASE_COLUMNS = (
    "t", "kinetic", "pressure_pot", "polymer_pot", "stress_tr",
    "visc_diss_cum", "poly_diss_cum", "relax_cum", "src_f_cum",
    "src_eta_cum", "energy_residual", "trace_residual", "sup_rho",
    "sup_eta", "l2t_linf_tau", "moment_alpha", "min_eig_tau",
)
COMPARE_COLUMNS = BASE_COLUMNS + (
    "E1", "E2", "ET", "E_combined", "R1", "R2", "R3", "R4", "R5",
    "R_def_total", "R_new_total", "entropy_residual",
)


class SnapshotFormatError(ValueError):
    pass


def write_snapshot(path, state: State) -> None:
    grid = state.grid
    header = _HEADER.pack(MAGIC, VERSION, grid.nx, grid.ny,
                          grid.dx, grid.dy, state.t)
    with open(path, "wb") as fh:
        fh.write(header)
        for a in state.arrays():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_snapshot(path, boundary_mode: str = "periodic") -> State:
    """Read a snapshot back; any malformed file raises SnapshotFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise SnapshotFormatError(
                f"truncated header: expected {_HEADER.size} bytes, got {len(raw)}")
        magic, version, nx, ny, dx, dy, t = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise SnapshotFormatError(f"unsupported format version {version}")
        if not math.isfinite(t):
            raise SnapshotFormatError(f"bad header: time {t}")
        try:
            grid = Grid(nx=nx, ny=ny, lx=nx * dx, ly=ny * dy,
                        boundary_mode=boundary_mode)
        except GridError as e:
            raise SnapshotFormatError(f"bad header: {e}") from e
        plane_bytes = nx * ny * 8
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size + 7 * plane_bytes:
            raise SnapshotFormatError(
                f"truncated planes: expected {7 * plane_bytes} bytes, "
                f"got {size - _HEADER.size}")
        if size > _HEADER.size + 7 * plane_bytes:
            raise SnapshotFormatError("trailing bytes after final plane")
        planes = [np.frombuffer(fh.read(plane_bytes), dtype="<f8").reshape(nx, ny).copy()
                  for _ in range(7)]
    return State(grid, t, *planes)


def _fmt(v: float) -> str:
    # repr gives the shortest digits that round-trip; deterministic
    return repr(float(v))


def write_timeseries(path, rows: list, compare: bool = False) -> None:
    """Rows are dicts keyed by the column names; the column set and order
    are fixed per mode so files are byte-comparable across runs."""
    cols = COMPARE_COLUMNS if compare else BASE_COLUMNS
    lines = [",".join(cols)]
    for row in rows:
        missing = [c for c in cols if c not in row]
        if missing:
            raise ValueError(f"row missing columns: {missing}")
        lines.append(",".join(_fmt(row[c]) for c in cols))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
