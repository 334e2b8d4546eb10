"""Plain numpy forms of the hot kernels and of the ghost fill.

``oldb2d.kernels.pure`` and ``oldb2d.grid._extend_axis`` compute these
same expressions with fewer passes and in-place updates. Every value must
go through the same floating-point operations in the same operand order,
so the tests compare the two bit for bit, NaN payloads and signed zeros
included.
"""

import numpy as np


def laplacian(p, dx, dy):
    c = p[1:-1, 1:-1]
    tx = (p[2:, 1:-1] + p[:-2, 1:-1] - 2.0 * c) / (dx * dx)
    ty = (p[1:-1, 2:] + p[1:-1, :-2] - 2.0 * c) / (dy * dy)
    return tx + ty


def _minmod(a, b):
    return np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b))


def muscl_div_x(phi, uf, dx):
    dphi = phi[1:, :] - phi[:-1, :]
    slope = _minmod(dphi[:-1, :], dphi[1:, :])
    left = phi[1:-2, :] + 0.5 * slope[:-1, :]
    right = phi[2:-1, :] - 0.5 * slope[1:, :]
    flux = np.where(uf >= 0.0, uf * left, uf * right)
    return (flux[1:, :] - flux[:-1, :]) / dx


def muscl_div_y(phi, vf, dy):
    dphi = phi[:, 1:] - phi[:, :-1]
    slope = _minmod(dphi[:, :-1], dphi[:, 1:])
    left = phi[:, 1:-2] + 0.5 * slope[:, :-1]
    right = phi[:, 2:-1] - 0.5 * slope[:, 1:]
    flux = np.where(vf >= 0.0, vf * left, vf * right)
    return (flux[:, 1:] - flux[:, :-1]) / dy


def extend_axis(a, axis, mode, width=2):
    a = np.moveaxis(a, axis, 0)
    if mode == "periodic":
        lo, hi = a[-width:], a[:width]
    elif mode == "even":
        lo, hi = a[width - 1 :: -1], a[: -width - 1 : -1]
    elif mode == "odd":
        lo, hi = -a[width - 1 :: -1], -a[: -width - 1 : -1]
    elif mode == "extrap":
        g1_lo = 3.0 * a[0] - 3.0 * a[1] + a[2]
        g2_lo = 6.0 * a[0] - 8.0 * a[1] + 3.0 * a[2]
        g1_hi = 3.0 * a[-1] - 3.0 * a[-2] + a[-3]
        g2_hi = 6.0 * a[-1] - 8.0 * a[-2] + 3.0 * a[-3]
        lo = np.stack([g2_lo, g1_lo][2 - width :])
        hi = np.stack([g1_hi, g2_hi][:width])
    else:
        raise ValueError(mode)
    out = np.concatenate([lo, a, hi], axis=0)
    return np.moveaxis(out, 0, axis)


def special_values(rng, shape):
    """Random array drawn mostly from values that hit the edge cases of
    minmod and upwinding: NaN of either sign, both zeros, exact magnitude
    ties, and magnitudes whose products underflow to zero."""
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, np.nan, -np.nan,
                     1e-200, -1e-200, 3e-200, 1e-170])
    out = rng.choice(pool, size=shape)
    normal = rng.random(shape) < 0.3
    out[normal] = rng.standard_normal(int(normal.sum()))
    return out


def bits(a):
    """int64 view of a float64 array, so == compares bit patterns."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)
