"""Structured cell-centered grid and ghost-cell extension rules.

Arrays are indexed ``[i, j]`` with ``i`` along x and ``j`` along y.
Cell centers sit at ``((i + 1/2) dx, (j + 1/2) dy)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PERIODIC = "periodic"
PHYSICAL = "physical"

#: ghost-layer width; the MUSCL reconstruction needs two cells
NG = 2


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    nx: int
    ny: int
    lx: float
    ly: float
    boundary_mode: str = PERIODIC
    dx: float = field(init=False)
    dy: float = field(init=False)

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise GridError(f"need at least 8 cells per direction, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise GridError("domain extents must be positive")
        if self.boundary_mode not in (PERIODIC, PHYSICAL):
            raise GridError(f"unknown boundary mode {self.boundary_mode!r}")
        object.__setattr__(self, "dx", self.lx / self.nx)
        object.__setattr__(self, "dy", self.ly / self.ny)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def periodic(self) -> bool:
        return self.boundary_mode == PERIODIC

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of cell-center coordinates, shape (nx, ny) each."""
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def compatible(self, other: "Grid") -> bool:
        return (
            self.shape == other.shape
            and np.isclose(self.lx, other.lx)
            and np.isclose(self.ly, other.ly)
            and self.boundary_mode == other.boundary_mode
        )


def require_same_grid(a, b):
    """Raise unless the two states live on compatible grids."""
    if a.grid is not b.grid and not a.grid.compatible(b.grid):
        raise GridError("operands live on different grids")


# --- ghost extension -------------------------------------------------------
#
# Extension modes for a single axis:
#   periodic : wrap-around
#   even     : mirror across the boundary face (discrete homogeneous Neumann)
#   odd      : anti-mirror (zero value at the face; no-slip velocity)
#   extrap   : quadratic extrapolation through the first three interior
#              cells; makes a central difference at the boundary cell equal
#              to the one-sided second-order formula


def _extend_axis(a: np.ndarray, axis: int, mode: str, width: int = NG) -> np.ndarray:
    if not 1 <= width <= a.shape[axis]:
        raise GridError(f"ghost width {width} outside 1..{a.shape[axis]}")
    if mode == "extrap" and width > 2:
        raise GridError("extrap ghost width must be 1 or 2")
    shape = list(a.shape)
    shape[axis] += 2 * width
    out = np.empty(shape, dtype=a.dtype)
    # o and a index the extended axis first; o is a view of the C-ordered out
    o, a = (out, a) if axis == 0 else (out.T, a.T)
    o[width:-width] = a
    if mode == "periodic":
        o[:width] = a[-width:]
        o[-width:] = a[:width]
    elif mode == "even":
        o[:width] = a[width - 1 :: -1]
        o[-width:] = a[: -width - 1 : -1]
    elif mode == "odd":
        np.negative(a[width - 1 :: -1], out=o[:width])
        np.negative(a[: -width - 1 : -1], out=o[-width:])
    elif mode == "extrap":
        # p quadratic through cells 0,1,2 evaluated at -1 and -2
        o[width - 1] = 3.0 * a[0] - 3.0 * a[1] + a[2]
        o[-width] = 3.0 * a[-1] - 3.0 * a[-2] + a[-3]
        if width == 2:
            o[0] = 6.0 * a[0] - 8.0 * a[1] + 3.0 * a[2]
            o[-1] = 6.0 * a[-1] - 8.0 * a[-2] + 3.0 * a[-3]
    else:
        raise GridError(f"unknown extension mode {mode!r}")
    return out


def extend(a: np.ndarray, mode_x: str, mode_y: str, width: int = NG) -> np.ndarray:
    """Pad a (nx, ny) interior array with ghost layers along both axes."""
    return _extend_axis(_extend_axis(a, 0, mode_x, width), 1, mode_y, width)


def extension_mode(grid: Grid, kind: str) -> str:
    """Extension rule for a field of the given kind on this grid; the one
    place a ghost rule is chosen.

    Periodic grids always wrap. On physical grids:
      'odd'     -> odd reflection: velocity and momentum (no-slip walls)
      'even'    -> even reflection: rho, pressure, eta, sqrt(eta) and T
                   (zero normal flux)
      'generic' -> quadratic extrapolation (one-sided differencing at the
                   wall): derived quantities such as div u
    """
    if grid.periodic:
        return "periodic"
    if kind == "generic":
        return "extrap"
    if kind in ("even", "odd"):
        return kind
    raise GridError(f"unknown field kind {kind!r}")
