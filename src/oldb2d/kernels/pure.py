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
    c2 = 2.0 * p[1:-1, 1:-1]
    tx = p[2:, 1:-1] + p[:-2, 1:-1]
    tx -= c2
    tx /= dx * dx
    ty = p[1:-1, 2:] + p[1:-1, :-2]
    ty -= c2
    ty /= dy * dy
    tx += ty
    return tx


def ddx(p: np.ndarray, dx: float) -> np.ndarray:
    """Central x-derivative of a (nx+2, ny+2) ghost-padded array."""
    d = p[2:, 1:-1] - p[:-2, 1:-1]
    d /= 2.0 * dx
    return d


def ddy(p: np.ndarray, dy: float) -> np.ndarray:
    """Central y-derivative of a (nx+2, ny+2) ghost-padded array."""
    d = p[1:-1, 2:] - p[1:-1, :-2]
    d /= 2.0 * dy
    return d


def _half_slopes(phi: np.ndarray) -> np.ndarray:
    """Half the minmod slope in cells 1..nx+2 of the axis-0 padded ``phi``:
    0 where the two one-sided differences differ in sign, else the smaller
    in magnitude. The product of the differences reuses the buffer of
    their magnitudes, and both are freed on return."""
    dphi = phi[1:] - phi[:-1]  # (nx+3, ny)
    a, b = dphi[:-1], dphi[1:]
    mag = np.abs(dphi)
    hs = np.where(mag[:-1] < mag[1:], a, b)
    hs[np.multiply(a, b, out=mag[:-1]) <= 0.0] = 0.0
    return np.multiply(0.5, hs, out=hs)


def _muscl_div(phi: np.ndarray, uf: np.ndarray, d: float) -> np.ndarray:
    """Axis-0 MUSCL/minmod flux divergence; see muscl_div_x. Both public
    kernels call this rather than each other, because perfbench counts the
    calls of each."""
    hs = _half_slopes(phi)
    # face i+1/2 between padded cells (i+1, i+2): the right reconstruction,
    # replaced by the left one where the face velocity is nonnegative
    flux = phi[2:-1] - hs[1:]
    np.add(phi[1:-2], hs[:-1], out=flux, where=uf >= 0.0)
    np.multiply(uf, flux, out=flux)
    out = flux[1:] - flux[:-1]
    out /= d
    return out


def muscl_div_x(phi: np.ndarray, uf: np.ndarray, dx: float) -> np.ndarray:
    """x-part of div(u phi) with MUSCL/minmod upwind fluxes.

    phi: (nx+4, ny) array padded with two ghost layers along x.
    uf:  (nx+1, ny) face-normal velocities at the x-faces.
    Returns (nx, ny) flux divergence.
    """
    return _muscl_div(phi, uf, dx)


def muscl_div_y(phi: np.ndarray, vf: np.ndarray, dy: float) -> np.ndarray:
    """y-part of div(u phi); muscl_div_x on transposed views."""
    return _muscl_div(phi.T, vf.T, dy).T
