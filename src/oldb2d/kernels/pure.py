"""Numpy implementation of the hot kernels.

Every kernel is a fixed sequence of elementwise numpy operations, so its
result does not depend on the thread count.
"""

from __future__ import annotations

import numpy as np

#: kernel implementation name, recorded in each perfbench run
BACKEND = "pure"

#: leaf-block size of the fixed pairwise reduction tree
BLOCK = 1024


def _fold(a: np.ndarray) -> np.ndarray:
    """Pairwise-fold the last axis (a power of two) down to length 1."""
    while a.shape[-1] > 1:
        a = a[..., 0::2] + a[..., 1::2]
    return a


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def block_sums(a: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Pairwise sums of leaf blocks ``start:stop`` of the flat array ``a``.

    Block ``b`` covers elements ``[b*BLOCK, (b+1)*BLOCK)``, zero-padded past
    the end of ``a``. The reduction tree inside a block is a fixed balanced
    binary tree; all full blocks are folded at once as the rows of a
    ``(nblocks, BLOCK)`` view, and only the tail block is padded. The
    ``start``/``stop`` signature is read by perfbench's cost model.
    """
    n = a.shape[0]
    lo, hi = min(start * BLOCK, n), min(stop * BLOCK, n)
    nfull, rest = divmod(hi - lo, BLOCK)
    out = np.zeros(stop - start, dtype=np.float64)
    mid = lo + nfull * BLOCK
    out[:nfull] = _fold(a[lo:mid].reshape(nfull, BLOCK))[:, 0]
    if rest:
        tail = np.zeros(BLOCK, dtype=np.float64)
        tail[:rest] = a[mid:hi]
        out[nfull] = _fold(tail)[0]
    return out


def combine_block_sums(sums: np.ndarray) -> float:
    """Final pairwise fold over the per-block sums."""
    m = _next_pow2(sums.shape[0])
    if m != sums.shape[0]:
        sums = np.concatenate([sums, np.zeros(m - sums.shape[0])])
    return float(_fold(sums)[0])


def pairwise_sum(a: np.ndarray) -> float:
    """Deterministic pairwise sum of a 1-D float64 array."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.shape[0] == 0:
        return 0.0
    nblocks = (a.shape[0] + BLOCK - 1) // BLOCK
    return combine_block_sums(block_sums(a, 0, nblocks))


def laplacian(p: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """5-point Laplacian of a (nx+2, ny+2) ghost-padded array."""
    c = p[1:-1, 1:-1]
    tx = (p[2:, 1:-1] + p[:-2, 1:-1] - 2.0 * c) / (dx * dx)
    ty = (p[1:-1, 2:] + p[1:-1, :-2] - 2.0 * c) / (dy * dy)
    return tx + ty


def ddx(p: np.ndarray, dx: float) -> np.ndarray:
    """Central x-derivative of a (nx+2, ny+2) ghost-padded array."""
    return (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * dx)


def ddy(p: np.ndarray, dy: float) -> np.ndarray:
    """Central y-derivative of a (nx+2, ny+2) ghost-padded array."""
    return (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * dy)


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b))


def muscl_div_x(phi: np.ndarray, uf: np.ndarray, dx: float) -> np.ndarray:
    """x-part of div(u phi) with MUSCL/minmod upwind fluxes.

    phi: (nx+4, ny) array padded with two ghost layers along x.
    uf:  (nx+1, ny) face-normal velocities at the x-faces.
    Returns (nx, ny) flux divergence.
    """
    dphi = phi[1:, :] - phi[:-1, :]  # (nx+3, ny)
    slope = _minmod(dphi[:-1, :], dphi[1:, :])  # slope in cells 1..nx+2
    # face i+1/2 between padded cells (i+1, i+2); left/right reconstructions
    left = phi[1:-2, :] + 0.5 * slope[:-1, :]
    right = phi[2:-1, :] - 0.5 * slope[1:, :]
    flux = np.where(uf >= 0.0, uf * left, uf * right)
    return (flux[1:, :] - flux[:-1, :]) / dx


def muscl_div_y(phi: np.ndarray, vf: np.ndarray, dy: float) -> np.ndarray:
    """y-part of div(u phi); see muscl_div_x."""
    dphi = phi[:, 1:] - phi[:, :-1]
    slope = _minmod(dphi[:, :-1], dphi[:, 1:])
    left = phi[:, 1:-2] + 0.5 * slope[:, :-1]
    right = phi[:, 2:-1] - 0.5 * slope[:, 1:]
    flux = np.where(vf >= 0.0, vf * left, vf * right)
    return (flux[:, 1:] - flux[:, :-1]) / dy
