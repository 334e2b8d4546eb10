"""Constitutive functions, Bregman distances and certified lower bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oldb2d.constitutive import (DomainError, HBoundConstants, ModelParams,
                                 ParameterError, bregman_G, bregman_H,
                                 calibrate_H_constants, lower_bound_G,
                                 lower_bound_H, polymer_potential_G_prime,
                                 polymer_pressure_q, potential_H,
                                 potential_H_prime, pressure,
                                 viscosity_coeffs)

from conftest import polymer_potential_G


def test_derived_viscosities_in_2d():
    # mu = mu_s/2 and nu = mu_b + mu_s/2 - mu_s/d collapses to nu = mu_b
    prm = ModelParams(mu_s=0.4, mu_b=0.3)
    assert prm.mu == pytest.approx(0.2)
    assert prm.nu == pytest.approx(0.3)
    assert viscosity_coeffs(0.4, 0.3) == (0.2, 0.3)
    # exactly mu_b, which mu_b + mu_s/2 - mu_s/2 would round away
    assert ModelParams(mu_b=1e-20).nu == 1e-20


def test_parameter_validation_collects_all_errors():
    with pytest.raises(ParameterError) as ei:
        ModelParams(gamma=1.0, mu_s=-1.0, zfrak=0.0, L=0.0)
    msg = str(ei.value)
    assert "gamma" in msg and "mu_s" in msg and "zfrak + L" in msg


def test_legendre_identities_spot():
    prm = ModelParams(a=2.0, gamma=1.7)
    s = np.geomspace(1e-3, 1e3, 50)
    assert np.allclose(potential_H_prime(s, prm) * s - potential_H(s, prm),
                       pressure(s, prm), rtol=1e-12)
    assert np.allclose(polymer_potential_G_prime(s, prm) * s
                       - polymer_potential_G(s, prm),
                       polymer_pressure_q(s, prm), rtol=1e-12)


@given(st.floats(1e-8, 1e8), st.floats(1e-8, 1e8))
@settings(max_examples=200, deadline=None)
def test_bregman_H_nonnegative(rho, rho_t):
    prm = ModelParams()
    assert bregman_H(rho, rho_t, prm) >= 0.0


@given(st.floats(0.0, 1e8), st.floats(1e-8, 1e8))
@settings(max_examples=200, deadline=None)
def test_bregman_G_nonnegative(eta, eta_t):
    prm = ModelParams()
    assert bregman_G(eta, eta_t, prm) >= 0.0


def test_bregman_zero_at_coincidence():
    prm = ModelParams()
    for v in (1e-6, 1.0, 42.0, 1e6):
        assert bregman_H(v, v, prm) == 0.0
        assert bregman_G(v, v, prm) == 0.0


def test_bregman_taylor_switch_continuous():
    # values straddling the switch agree to near machine precision
    prm = ModelParams(gamma=1.4)
    rt = 2.0
    eps_in = rt * 0.9e-5
    eps_out = rt * 1.1e-5
    quad = lambda e: bregman_H(rt + e, rt, prm) / e ** 2
    assert quad(eps_in) == pytest.approx(quad(eps_out), rel=1e-4)


def test_bregman_domain_errors():
    prm = ModelParams()
    with pytest.raises(DomainError):
        bregman_H(1.0, 0.0, prm)
    with pytest.raises(DomainError):
        bregman_H(-1.0, 1.0, prm)
    with pytest.raises(DomainError):
        bregman_G(1.0, -2.0, prm)


@pytest.mark.parametrize("gamma", [1.3, 1.5, 2.0, 3.0])
def test_calibrated_H_bound_holds(gamma):
    prm = ModelParams(gamma=gamma)
    hb = calibrate_H_constants(prm)
    assert isinstance(hb, HBoundConstants)
    assert hb.c > 0 and 0 < hb.delta < 1
    rng = np.random.default_rng(7)
    rho = 10.0 ** rng.uniform(-6, 6, 20_000)
    rho_t = 10.0 ** rng.uniform(-6, 6, 20_000)
    slack = bregman_H(rho, rho_t, prm) - lower_bound_H(rho, rho_t, prm,
                                                       hb.delta, hb.c)
    assert np.min(slack) >= -1e-15 * np.max(np.abs(slack))


def test_G_bound_corrected_vs_original():
    prm = ModelParams(zfrak=0.0)
    eta_t = 1.0
    # the corrected constants hold on the critical ridge eta = 2 eta_t
    eta = 2.0 * eta_t
    breg = bregman_G(eta, eta_t, prm)
    assert breg >= lower_bound_G(eta, eta_t, prm, corrected=True)
    # the uncorrected constants fail there by (2 log 2 - 3/2) kL eta_t
    gap = breg - lower_bound_G(eta, eta_t, prm, corrected=False)
    assert gap == pytest.approx((2 * np.log(2) - 1.5) * prm.kL * eta_t, rel=1e-12)
    assert gap < 0


def test_G_bound_corrected_on_random_samples():
    prm = ModelParams()
    rng = np.random.default_rng(8)
    eta = 10.0 ** rng.uniform(-6, 6, 20_000)
    eta_t = 10.0 ** rng.uniform(-6, 6, 20_000)
    slack = bregman_G(eta, eta_t, prm) - lower_bound_G(eta, eta_t, prm)
    assert np.min(slack) >= -1e-12 * np.max(np.abs(slack))
