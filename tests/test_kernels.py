"""Kernels: numerical correctness against naive oracles, and bitwise
agreement with the plain numpy formulas of ``reference_kernels``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_kernels as ref
from oldb2d import parallel
from oldb2d.grid import _extend_axis
from oldb2d.kernels import pure


def naive_pairwise(a):
    """Reference pairwise tree, independent loop implementation."""
    vals = list(a)
    if not vals:
        return 0.0
    # pad each leaf block to a power of two with zeros, fold pairwise
    def fold(block):
        n = 1
        while n < len(block):
            n *= 2
        block = block + [0.0] * (n - len(block))
        while len(block) > 1:
            block = [block[i] + block[i + 1] for i in range(0, len(block), 2)]
        return block[0]
    sums = [fold(vals[i:i + 1024]) for i in range(0, len(vals), 1024)]
    return fold(sums)


def test_pairwise_sum_matches_naive_tree():
    rng = np.random.default_rng(1)
    for n in (1, 5, 1023, 1024, 1025, 4096, 10_000, 65_536, 300_001):
        a = rng.standard_normal(n)
        assert pure.pairwise_sum(a) == naive_pairwise(list(a))


def test_pairwise_sum_empty():
    assert pure.pairwise_sum(np.empty(0)) == 0.0


def test_laplacian_exact_on_quadratic():
    # u = x^2 + 3 y^2 has Laplacian 8 under the 5-point stencil exactly
    nx, ny, dx, dy = 16, 12, 0.1, 0.2
    x = np.arange(-1, nx + 1) * dx
    y = np.arange(-1, ny + 1) * dy
    p = x[:, None] ** 2 + 3.0 * y[None, :] ** 2
    lap = pure.laplacian(p, dx, dy)
    assert np.allclose(lap, 8.0, atol=1e-10)


def test_ddx_ddy_exact_on_linear():
    nx, ny, dx, dy = 9, 7, 0.3, 0.5
    x = np.arange(-1, nx + 1) * dx
    y = np.arange(-1, ny + 1) * dy
    p = 2.0 * x[:, None] - 5.0 * y[None, :]
    assert np.allclose(pure.ddx(p, dx), 2.0, atol=1e-12)
    assert np.allclose(pure.ddy(p, dy), -5.0, atol=1e-12)


def naive_muscl_div_x(phi, uf, dx):
    """Loop reference for the x-direction MUSCL/minmod flux divergence."""
    nxp4, ny = phi.shape
    nx = nxp4 - 4
    out = np.zeros((nx, ny))
    def minmod(a, b):
        if a * b <= 0:
            return 0.0
        return a if abs(a) < abs(b) else b
    for j in range(ny):
        flux = np.zeros(nx + 1)
        for f in range(nx + 1):
            il, ir = f + 1, f + 2  # padded indices of the cells astride face f
            sl = minmod(phi[il, j] - phi[il - 1, j], phi[il + 1, j] - phi[il, j])
            sr = minmod(phi[ir, j] - phi[ir - 1, j], phi[ir + 1, j] - phi[ir, j])
            left = phi[il, j] + 0.5 * sl
            right = phi[ir, j] - 0.5 * sr
            flux[f] = uf[f, j] * (left if uf[f, j] >= 0 else right)
        for i in range(nx):
            out[i, j] = (flux[i + 1] - flux[i]) / dx
    return out


def test_muscl_div_x_matches_naive():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((20 + 4, 9))
    uf = rng.standard_normal((21, 9))
    got = pure.muscl_div_x(phi, uf, 0.25)
    want = naive_muscl_div_x(phi, uf, 0.25)
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_muscl_div_y_is_transposed_x():
    rng = np.random.default_rng(4)
    phi = rng.standard_normal((9, 20 + 4))
    vf = rng.standard_normal((9, 21))
    got = pure.muscl_div_y(phi, vf, 0.25)
    want = naive_muscl_div_x(phi.T.copy(), vf.T.copy(), 0.25).T
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_deterministic_sum_matches_tree():
    rng = np.random.default_rng(6)
    a = rng.standard_normal(5000)
    assert parallel.deterministic_sum(a) == naive_pairwise(list(a))
    # non-contiguous 2-D input is summed in C order of its elements
    a = rng.standard_normal((300, 257)).T
    assert parallel.deterministic_sum(a) == naive_pairwise(list(np.ravel(a)))


def _kernel_inputs(seed, n=24, m=19):
    rng = np.random.default_rng(seed)
    phix = ref.special_values(rng, (n + 4, m))
    uf = ref.special_values(rng, (n + 1, m))
    phiy = ref.special_values(rng, (m, n + 4))
    vf = ref.special_values(rng, (m, n + 1))
    return phix, uf, phiy, vf


def test_special_values_reach_every_edge_case():
    phix, uf, _, _ = _kernel_inputs(0)
    dphi = phix[1:] - phix[:-1]
    a, b = dphi[:-1], dphi[1:]
    with np.errstate(invalid="ignore"):
        assert np.any(np.isnan(a * b))
        assert np.any((np.abs(a) == np.abs(b)) & (a * b > 0))   # ties
        assert np.any((a * b == 0) & (a != 0) & (b != 0))       # underflow
    assert np.any(np.signbit(dphi) & (dphi == 0))                # -0.0
    assert np.any((uf == 0) & np.signbit(uf))
    assert np.any((uf == 0) & ~np.signbit(uf))


def assert_same_bits(got, want):
    """Bit-equal wherever the reference is a number, and NaN at exactly its
    NaN positions; ``reference_kernels`` says why a NaN's sign and payload
    are not compared."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(ref.bits(got)[~nan], ref.bits(want)[~nan])


@pytest.mark.parametrize("seed", range(300))
def test_muscl_bitwise_equal_to_reference_formula(seed):
    phix, uf, phiy, vf = _kernel_inputs(seed)
    with np.errstate(all="ignore"):
        want_x = ref.muscl_div_x(phix, uf, 0.3)
        want_y = ref.muscl_div_y(phiy, vf, 0.3)
        got_x = pure.muscl_div_x(phix, uf, 0.3)
        got_y = pure.muscl_div_y(phiy, vf, 0.3)
    assert_same_bits(got_x, want_x)
    assert_same_bits(got_y, want_y)


@pytest.mark.parametrize("seed", range(300))
def test_laplacian_bitwise_equal_to_reference_formula(seed):
    p = ref.special_values(np.random.default_rng(seed), (26, 21))
    with np.errstate(all="ignore"):
        got = pure.laplacian(p, 0.3, 1e-160)
        want = ref.laplacian(p, 0.3, 1e-160)
    assert_same_bits(got, want)


#: finite values of at most 1e100 in magnitude that hit minmod's edge
#: cases: both zeros, magnitude ties, subnormals and products that underflow
_EDGE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 1e-200, -1e-200,
                         3e-200, 1e-170, 5e-324, -5e-324, 2.5e-310, 1e100, -1e100])
_VALUES = st.one_of(_EDGE, st.floats(-1e100, 1e100, allow_nan=False))


@st.composite
def _seam_inputs(draw):
    nx = draw(st.integers(8, 40))
    ny = draw(st.integers(8, 40).filter(lambda n: n != nx))
    return draw(arrays(np.float64, (nx, ny), elements=_VALUES)), draw(
        arrays(np.float64, (nx, ny + 1), elements=_VALUES))


_RULES = ["periodic", "even", "odd", "extrap"]


@settings(max_examples=150, deadline=None)
@given(inputs=_seam_inputs(), lap_rules=st.tuples(*[st.sampled_from(_RULES)] * 2),
       muscl_rule=st.sampled_from(_RULES[:3]))
def test_flat_kernels_keep_every_bit_at_the_row_seams(inputs, lap_rules, muscl_rule):
    """``muscl_div_y`` and ``laplacian`` run over the flat padded buffer;
    the lanes that straddle two rows must not reach the result, and on
    values of at most 1e100 they must raise no floating-point error. MUSCL
    pads two ghost layers, which ``extrap`` cannot."""
    a, vf = inputs
    p = _extend_axis(_extend_axis(a, 0, lap_rules[0], 1), 1, lap_rules[1], 1)
    phi = _extend_axis(a, 1, muscl_rule, 2)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got_lap, want_lap = pure.laplacian(p, 0.3, 1 / 7), ref.laplacian(p, 0.3, 1 / 7)
        got_y, want_y = pure.muscl_div_y(phi, vf, 1 / 7), ref.muscl_div_y(phi, vf, 1 / 7)
    assert_same_bits(got_lap, want_lap)
    assert_same_bits(got_y, want_y)
