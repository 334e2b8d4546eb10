"""Discrete array operators and deterministic reductions.

All operators are pure: they read interior (nx, ny) samples, extend them
with ghost layers by the rule ``grid.extension_mode`` picks for the
caller's field kind, and return fresh arrays. Reductions go through the
fixed pairwise tree in ``parallel``.
"""

from __future__ import annotations

import numpy as np

from . import kernels, parallel
from .constitutive import ModelParams
from .grid import Grid, _extend_axis, extend, extension_mode


def pad1(a: np.ndarray, grid: Grid, kind: str) -> np.ndarray:
    mode = extension_mode(grid, kind)
    return extend(a, mode, mode, width=1)


def pad1_xy(a: np.ndarray, grid: Grid, kind_x: str, kind_y: str) -> np.ndarray:
    return extend(a, extension_mode(grid, kind_x), extension_mode(grid, kind_y), width=1)


def grad_array(a: np.ndarray, grid: Grid, kind: str) -> tuple[np.ndarray, np.ndarray]:
    p = pad1(a, grid, kind)
    return kernels.ddx(p, grid.dx), kernels.ddy(p, grid.dy)


def velocity_gradient(ux: np.ndarray, uy: np.ndarray,
                      grid: Grid) -> tuple[np.ndarray, ...]:
    """(gxx, gxy, gyx, gyy) with g_ij = d u_i / d x_j, under the no-slip
    (odd) ghost rule."""
    return (*grad_array(ux, grid, "odd"), *grad_array(uy, grid, "odd"))


def dissipation_density(ux: np.ndarray, uy: np.ndarray, sq_eta: np.ndarray,
                        eta: np.ndarray, grid: Grid,
                        prm: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Viscous density mu |grad u|^2 + nu (div u)^2 and polymer bracket
    2 kL |grad sqrt(eta)|^2 + z |grad eta|^2; the polymer dissipation is
    2 eps times the bracket. The relative dissipation passes differences
    for u, sqrt(eta) and eta."""
    gxx, gxy, gyx, gyy = velocity_gradient(ux, uy, grid)
    visc = (prm.mu * (gxx ** 2 + gxy ** 2 + gyx ** 2 + gyy ** 2)
            + prm.nu * (gxx + gyy) ** 2)
    sx, sy = grad_array(sq_eta, grid, "even")
    ex, ey = grad_array(eta, grid, "even")
    return visc, 2.0 * prm.kL * (sx ** 2 + sy ** 2) + prm.zfrak * (ex ** 2 + ey ** 2)


def laplacian_array(a: np.ndarray, grid: Grid, kind: str) -> np.ndarray:
    return kernels.laplacian(pad1(a, grid, kind), grid.dx, grid.dy)


def face_velocities(ux: np.ndarray, uy: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Linear-interpolation x-face and y-face normal velocities.

    On physical grids the odd reflection makes the wall-face velocity
    exactly zero, closing the advective fluxes."""
    mode = extension_mode(grid, "odd")
    px = _extend_axis(ux, 0, mode, width=1)
    py = _extend_axis(uy, 1, mode, width=1)
    uf = 0.5 * (px[:-1, :] + px[1:, :])
    vf = 0.5 * (py[:, :-1] + py[:, 1:])
    return uf, vf


def advective_div_array(phi: np.ndarray, uf: np.ndarray, vf: np.ndarray, grid: Grid,
                        kind: str) -> np.ndarray:
    """div(u phi) with MUSCL/minmod upwind fluxes and interpolated face
    velocities; ``kind`` sets the ghost rule for the advected quantity."""
    mode = extension_mode(grid, kind)
    phix = _extend_axis(phi, 0, mode, width=2)
    phiy = _extend_axis(phi, 1, mode, width=2)
    return (kernels.muscl_div_x(phix, uf, grid.dx)
            + kernels.muscl_div_y(phiy, vf, grid.dy))


def upper_convected_source(gxx, gxy, gyx, gyy, t11, t12, t22):
    """Stored planes (11, 12, 22) of grad(u) T + T grad(u)^T, with
    g_ij = d u_i / d x_j and T symmetric; symmetric by construction.

    Works on arrays and on sympy expressions alike (the integer 2 keeps
    the symbolic coefficients exact)."""
    a11 = gxx * t11 + gxy * t12
    a12 = gxx * t12 + gxy * t22
    a21 = gyx * t11 + gyy * t12
    a22 = gyx * t12 + gyy * t22
    return 2 * a11, a12 + a21, 2 * a22


def frob_ip(a11, a12, a22, b11, b12, b22):
    """Frobenius inner product of symmetric tensors stored as 3 planes."""
    return a11 * b11 + 2.0 * a12 * b12 + a22 * b22


def stress_grad_sq(d11: np.ndarray, d12: np.ndarray, d22: np.ndarray,
                   grid: Grid) -> np.ndarray:
    """|grad D|^2 of a symmetric tensor stored as 3 planes, under the
    zero-flux (even) ghost rule."""
    g11x, g11y = grad_array(d11, grid, "even")
    g12x, g12y = grad_array(d12, grid, "even")
    g22x, g22y = grad_array(d22, grid, "even")
    return g11x ** 2 + g11y ** 2 + 2.0 * (g12x ** 2 + g12y ** 2) + g22x ** 2 + g22y ** 2


def integrate_array(a: np.ndarray, grid: Grid) -> float:
    """Midpoint-rule integral with the deterministic pairwise reduction."""
    return parallel.deterministic_sum(a) * grid.cell_area


def l2_norm_array(a: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(integrate_array(a * a, grid)))
