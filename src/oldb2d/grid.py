"""Structured cell-centered grid and ghost-cell extension rules.

Arrays are indexed ``[i, j]`` with ``i`` along x and ``j`` along y.
Cell centers sit at ``((i + 1/2) dx, (j + 1/2) dy)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PERIODIC = "periodic"
PHYSICAL = "physical"


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
        # the discretization squares lengths (dx ** 2, the bump width), and
        # a Python float ** raises where the result overflows
        if not (0 < self.lx and self.lx * self.lx < np.inf
                and 0 < self.ly and self.ly * self.ly < np.inf):
            raise GridError("domain extents must be positive and finite, "
                            "with finite squares (below 1.3e154)")
        if self.boundary_mode not in (PERIODIC, PHYSICAL):
            raise GridError(f"unknown boundary mode {self.boundary_mode!r}")
        dx, dy = self.lx / self.nx, self.ly / self.ny
        # the stencils divide by dx * dx; with nx >= 8 this also bounds the
        # squared wavenumbers (2 pi / lx) ** 2 of the manufactured solutions
        if not all(d * d > 0 and 1.0 / (d * d) < np.inf for d in (dx, dy)):
            raise GridError(f"lx / nx and ly / ny must be above about 7.5e-155, so "
                            f"that 1/dx^2 and 1/dy^2 are finite; got lx = "
                            f"{self.lx:g}, ly = {self.ly:g} on {self.nx}x{self.ny}")
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def periodic(self) -> bool:
        return self.boundary_mode == PERIODIC

    def cell_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center x on an (nx, 1) axis and y on a (1, ny) axis: the one
        coordinate API. A field built from them broadcasts to the mesh."""
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return x[:, None], y[None, :]


# --- ghost extension -------------------------------------------------------
#
# Extension modes for a single axis:
#   periodic : wrap-around
#   even     : mirror across the boundary face (discrete homogeneous Neumann)
#   odd      : anti-mirror (zero value at the face; no-slip velocity)
#   extrap   : quadratic extrapolation through the first three interior
#              cells, one ghost cell wide; makes a central difference at the
#              boundary cell equal to the one-sided second-order formula


def _extend_axis(a: np.ndarray, axis: int, mode: str, width: int) -> np.ndarray:
    if not 1 <= width <= a.shape[axis]:
        raise GridError(f"ghost width {width} outside 1..{a.shape[axis]}")
    if mode == "extrap" and width > 1:
        raise GridError("extrap ghost width must be 1")
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
        # p quadratic through cells 0,1,2 evaluated at -1
        o[0] = 3.0 * a[0] - 3.0 * a[1] + a[2]
        o[-1] = 3.0 * a[-1] - 3.0 * a[-2] + a[-3]
    else:
        raise GridError(f"unknown extension mode {mode!r}")
    return out


def extend(a: np.ndarray, mode_x: str, mode_y: str, width: int) -> np.ndarray:
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
