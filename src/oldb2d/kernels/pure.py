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


def _fold(x: np.ndarray, n: int) -> np.ndarray:
    """Pairwise-fold the flat array ``x`` (``n`` times a power of two
    long) down to ``n`` sums: each pass adds adjacent pairs."""
    while x.shape[0] > n:
        x = x[0::2] + x[1::2]
    return x


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def block_sums(a: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Pairwise sums of leaf blocks ``start:stop`` of the flat array ``a``.

    Block ``b`` covers elements ``[b*BLOCK, (b+1)*BLOCK)``, zero-padded past
    the end of ``a``. The reduction tree inside a block is a fixed balanced
    binary tree: the range is folded flat, adjacent pairs first, so every
    pass adds the same pairs in every block at once, and a copy is made
    only to zero-pad a short range. The ``start``/``stop`` signature is
    read by perfbench's cost model.
    """
    n, nb = a.shape[0], stop - start
    x = a[min(start * BLOCK, n):min(stop * BLOCK, n)]
    if x.shape[0] < nb * BLOCK:
        x = np.concatenate([x, np.zeros(nb * BLOCK - x.shape[0])])
    return _fold(x, nb)


def combine_block_sums(sums: np.ndarray) -> float:
    """Final pairwise fold over the per-block sums."""
    m = _next_pow2(sums.shape[0])
    if m != sums.shape[0]:
        sums = np.concatenate([sums, np.zeros(m - sums.shape[0])])
    return float(_fold(sums, 1)[0])


def pairwise_sum(a: np.ndarray) -> float:
    """Deterministic pairwise sum of a 1-D float64 array."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.shape[0] == 0:
        return 0.0
    nblocks = (a.shape[0] + BLOCK - 1) // BLOCK
    return combine_block_sums(block_sums(a, 0, nblocks))


def laplacian(p: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """5-point Laplacian of a (nx+2, ny+2) ghost-padded array.

    Each term is one 1-D pass over the flat buffer of rows 1..nx, ghost
    columns included; the two ghost lanes of each row are computed and
    dropped by the final sum, which writes the (nx, ny) result."""
    w = p.shape[1]
    f = p.reshape(-1)
    c2 = 2.0 * f[w:-w]
    tx = f[2 * w:] + f[:-2 * w]
    tx -= c2
    tx /= dx * dx
    ty = f[w + 1:1 - w] + f[w - 1:-w - 1]
    ty -= c2
    ty /= dy * dy
    del c2
    return np.add(tx.reshape(-1, w)[:, 1:-1], ty.reshape(-1, w)[:, 1:-1])


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
    """Half the minmod slope in cells 1..n-2 of ``phi``, padded along
    axis 0: 0 where the two one-sided differences differ in sign, else the
    smaller in magnitude. The product of the differences reuses the buffer
    of their magnitudes, and both are freed on return."""
    dphi = phi[1:] - phi[:-1]
    a, b = dphi[:-1], dphi[1:]
    mag = np.abs(dphi)
    hs = np.where(mag[:-1] < mag[1:], a, b)
    hs[np.multiply(a, b, out=mag[:-1]) <= 0.0] = 0.0
    return np.multiply(0.5, hs, out=hs)


def _flux_difference(phi: np.ndarray, hs: np.ndarray, vf: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Axis-0 difference of the upwind MUSCL fluxes of ``phi``, from its
    :func:`_half_slopes` and the face velocities ``vf``; not yet divided
    by the cell width."""
    # face i+1/2 between padded cells (i+1, i+2): the right reconstruction,
    # replaced by the left one where the face velocity is nonnegative
    flux = phi[2:-1] - hs[1:]
    np.add(phi[1:-2], hs[:-1], out=flux, where=vf >= 0.0)
    np.multiply(vf, flux, out=flux)
    return np.subtract(flux[1:], flux[:-1], out=out)


def muscl_div_x(phi: np.ndarray, uf: np.ndarray, dx: float) -> np.ndarray:
    """x-part of div(u phi) with MUSCL/minmod upwind fluxes.

    phi: (nx+4, ny) array padded with two ghost layers along x.
    uf:  (nx+1, ny) face-normal velocities at the x-faces.
    Returns (nx, ny) flux divergence.
    """
    out = _flux_difference(phi, _half_slopes(phi), uf)
    out /= dx
    return out


def muscl_div_y(phi: np.ndarray, vf: np.ndarray, dy: float) -> np.ndarray:
    """y-part of div(u phi), the fluxes of :func:`muscl_div_x` along y.

    phi: (nx, ny+4) array padded with two ghost layers along y.
    vf:  (nx, ny+1) face-normal velocities at the y-faces.
    Returns (nx, ny) flux divergence.

    Every pass runs once over the flat buffer of ``phi``, on which a cell's
    y-neighbours are its flat neighbours; the lanes whose stencil
    straddles two rows are computed and dropped. The face velocities go
    into a buffer of phi's layout, zero in the 3 lanes of each row past its
    last face, allocated only once the slopes' scratch is freed; the flux
    difference then overwrites it.
    """
    f = phi.reshape(-1)
    hs = _half_slopes(f)
    v = np.empty(phi.shape)
    v[:, :-3] = vf
    v[:, -3:] = 0.0
    flat = v.reshape(-1)
    _flux_difference(f, hs, flat[:-3], out=flat[:-4])
    del hs
    return np.divide(v[:, :-4], dy)
