"""Grid extensions, the ghost-rule table and discrete array operators."""

import numpy as np
import pytest

from oldb2d.fields import (advective_div_array, face_velocities, grad_array,
                           integrate_array, laplacian_array,
                           upper_convected_source)
from oldb2d.grid import Grid, GridError, _extend_axis, extend, extension_mode

import reference_kernels as ref
from conftest import periodic_grid, physical_grid, smooth_state


def test_grid_validation():
    with pytest.raises(GridError):
        Grid(nx=4, ny=16, lx=1.0, ly=1.0, boundary_mode="periodic")
    with pytest.raises(GridError):
        Grid(nx=16, ny=16, lx=-1.0, ly=1.0, boundary_mode="periodic")
    for lx, ly in ((np.nan, 1.0), (1.0, np.inf)):
        with pytest.raises(GridError, match="finite"):
            Grid(nx=16, ny=16, lx=lx, ly=ly)
    with pytest.raises(GridError):
        Grid(nx=16, ny=16, lx=1.0, ly=1.0, boundary_mode="weird")


def test_extend_periodic_wraps():
    a = np.arange(12.0).reshape(4, 3)
    e = extend(a, "periodic", "periodic", width=2)
    assert e.shape == (8, 7)
    assert np.array_equal(e[2:-2, 2:-2], a)
    assert np.array_equal(e[0:2, 2:-2], a[-2:, :])
    assert np.array_equal(e[2:-2, -2:], a[:, :2])


def test_extend_even_odd_reflection():
    a = np.tile(np.arange(8.0).reshape(8, 1) + 1.0, (1, 4))
    even = extend(a, "even", "even", width=2)[:, 2]
    # ghost mirrors interior: g[-1] = a[0], g[-2] = a[1]
    assert even[1] == a[0, 0] and even[0] == a[1, 0]
    assert even[-2] == a[-1, 0] and even[-1] == a[-2, 0]
    odd = extend(a, "odd", "odd", width=2)[:, 2]
    assert odd[1] == -a[0, 0] and odd[0] == -a[1, 0]
    assert odd[-2] == -a[-1, 0] and odd[-1] == -a[-2, 0]


def test_extension_mode_table():
    periodic, physical = periodic_grid(8), physical_grid(8)
    for kind in ("even", "odd", "generic"):
        assert extension_mode(periodic, kind) == "periodic"
    assert extension_mode(physical, "even") == "even"
    assert extension_mode(physical, "odd") == "odd"
    assert extension_mode(physical, "generic") == "extrap"
    with pytest.raises(GridError):
        extension_mode(physical, "velocity")


def test_extrap_matches_one_sided_second_order():
    # quadratic data: quadratic ghost extrapolation keeps the centered
    # stencil exact at the boundary
    g = physical_grid(16)
    X = np.broadcast_to(g.cell_axes()[0], g.shape)
    a = 3.0 * X ** 2 - 2.0 * X + 1.0
    gx, _ = grad_array(a, g, "generic")
    assert np.allclose(gx, 6.0 * X - 2.0, atol=1e-10)


def test_grad_periodic_spectral_field(prm):
    g = periodic_grid(64)
    X, Y = g.cell_axes()
    a = np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    gx, gy = grad_array(a, g, "generic")
    assert np.allclose(gx, 2 * np.pi * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y),
                       atol=2e-2)
    assert np.allclose(gy, -2 * np.pi * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y),
                       atol=2e-2)


def test_integrate_matches_naive_loop():
    g = periodic_grid(16)
    rng = np.random.default_rng(0)
    a = rng.standard_normal(g.shape)
    naive = 0.0
    for i in range(g.nx):
        for j in range(g.ny):
            naive += a[i, j]
    naive *= g.cell_area
    assert abs(integrate_array(a, g) - naive) <= 1e-13 * max(1.0, abs(naive))


def test_face_velocities_vanish_on_walls():
    g = physical_grid(16)
    rng = np.random.default_rng(1)
    ux = rng.standard_normal(g.shape)
    uy = rng.standard_normal(g.shape)
    uf, vf = face_velocities(ux, uy, g)
    assert uf.shape == (g.nx + 1, g.ny)
    assert vf.shape == (g.nx, g.ny + 1)
    assert np.all(uf[0] == 0) and np.all(uf[-1] == 0)
    assert np.all(vf[:, 0] == 0) and np.all(vf[:, -1] == 0)


@pytest.mark.parametrize("mode", ["periodic", "physical"])
def test_advective_divergence_is_conservative(mode, prm):
    # flux form telescopes: total divergence integrates to zero (periodic)
    # or exactly balances the wall fluxes, which vanish (physical)
    g = periodic_grid(24) if mode == "periodic" else physical_grid(24)
    s = smooth_state(g, prm)
    ux, uy = s.velocity()
    uf, vf = face_velocities(ux, uy, g)
    div = advective_div_array(s.eta, uf, vf, g, "even")
    assert abs(integrate_array(div, g)) < 1e-13


def test_advection_exact_for_constant_field_periodic(prm):
    g = periodic_grid(24)
    s = smooth_state(g, prm)
    ux, uy = s.velocity()
    uf, vf = face_velocities(ux, uy, g)
    phi = np.full(g.shape, 2.5)
    div = advective_div_array(phi, uf, vf, g, "even")
    # div(c u) = c div(u); compare against the face-difference divergence
    divu = (np.diff(uf, axis=0) / g.dx + np.diff(vf, axis=1) / g.dy)
    assert np.allclose(div, 2.5 * divu, atol=1e-13)


def test_upper_convected_source_matches_matrix_algebra():
    g = periodic_grid(8)
    rng = np.random.default_rng(2)
    gxx, gxy, gyx, gyy = (rng.standard_normal(g.shape) for _ in range(4))
    t11, t12, t22 = (rng.standard_normal(g.shape) for _ in range(3))
    out = upper_convected_source(gxx, gxy, gyx, gyy, t11, t12, t22)
    i, j = 3, 5
    G = np.array([[gxx[i, j], gxy[i, j]], [gyx[i, j], gyy[i, j]]])
    M = np.array([[t11[i, j], t12[i, j]], [t12[i, j], t22[i, j]]])
    R = G @ M + M @ G.T
    assert np.isclose(out[0][i, j], R[0, 0])
    assert np.isclose(out[1][i, j], R[0, 1])
    assert np.isclose(out[2][i, j], R[1, 1])
    assert np.isclose(R[0, 1], R[1, 0])


def test_laplacian_even_mode_zero_for_constant():
    g = physical_grid(8)
    lap = laplacian_array(np.full(g.shape, 3.7), g, "even")
    assert np.all(lap == 0.0)


@pytest.mark.parametrize("width,axis,mode", [
    (width, axis, mode) for width in (1, 2) for axis in (0, 1)
    for mode in ("periodic", "even", "odd", "extrap")
    if not (mode == "extrap" and width == 2)])
def test_extend_axis_bitwise_equal_to_reference(mode, axis, width):
    rng = np.random.default_rng(7)
    for a in (ref.special_values(rng, (23, 21)), rng.standard_normal((23, 21))):
        with np.errstate(all="ignore"):
            got = _extend_axis(a, axis, mode, width)
            want = ref.extend_axis(a, axis, mode, width)
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        assert np.array_equal(ref.bits(got), ref.bits(want))


@pytest.mark.parametrize("mode,width", [("periodic", 0), ("periodic", 12),
                                        ("extrap", 2), ("extrap", 3)])
def test_extend_axis_rejects_bad_width(mode, width):
    with pytest.raises(GridError):
        _extend_axis(np.zeros((11, 9)), 0, mode, width)
