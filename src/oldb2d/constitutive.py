"""Constitutive and thermodynamic scalar functions.

Pressure law p = a rho^gamma, the convex potentials behind the relative
entropies, their Bregman distances and certified pointwise lower bounds.
Everything here is pointwise and accepts numpy arrays as well as floats;
scalar input gives numpy's 0-d result, not a Python float.

The pointwise laws assume rho, eta >= 0 unchecked: the solver floors its
states and ``entropy.RefTrajectory`` checks each reference snapshot. Raising
:class:`DomainError`, the Bregman distances and lower bounds check their
pair (value >= 0, reference > 0) and ``polymer_potential_G_prime`` eta > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ParameterError(ValueError):
    pass


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the model with the derived Lame-form viscosities.

    mu = mu_s / 2 and nu = mu_b + mu_s/2 - mu_s/d with d = 2, so nu = mu_b.
    """

    a: float = 1.0
    gamma: float = 2.0
    mu_s: float = 0.2
    mu_b: float = 0.0
    eps: float = 0.02
    k: float = 1.0
    lam: float = 1.0
    zfrak: float = 0.5
    L: float = 1.0
    mu: float = field(init=False)
    nu: float = field(init=False)

    def __post_init__(self):
        errs = self.validation_errors()
        if errs:
            raise ParameterError("; ".join(errs))
        mu, nu = viscosity_coeffs(self.mu_s, self.mu_b)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    def validation_errors(self) -> list[str]:
        errs = []
        if not self.a > 0:
            errs.append("a must be positive")
        if not self.gamma > 1:
            errs.append("gamma must exceed 1")
        if not self.mu_s > 0:
            errs.append("mu_s must be positive")
        if self.mu_b < 0:
            errs.append("mu_b must be nonnegative")
        if not self.eps > 0:
            errs.append("eps must be positive")
        if not self.k > 0:
            errs.append("k must be positive")
        if not self.lam > 0:
            errs.append("lam must be positive")
        if self.zfrak < 0:
            errs.append("zfrak must be nonnegative")
        if self.L < 0:
            errs.append("L must be nonnegative")
        if self.zfrak == 0 and self.L == 0:
            errs.append("zfrak + L must be positive (degenerate polymer pressure)")
        return errs

    @property
    def kL(self) -> float:
        return self.k * self.L


def viscosity_coeffs(mu_s: float, mu_b: float) -> tuple[float, float]:
    """Lame-form coefficients (mu, nu) of div S = mu Lap u + nu grad div u
    in d = 2 dimensions."""
    return mu_s / 2.0, mu_b


def pressure(rho, prm: ModelParams):
    return prm.a * np.power(rho, prm.gamma)


def pressure_prime(rho, prm: ModelParams):
    return prm.a * prm.gamma * np.power(rho, prm.gamma - 1.0)


def potential_H(rho, prm: ModelParams):
    return prm.a / (prm.gamma - 1.0) * np.power(rho, prm.gamma)


def potential_H_prime(rho, prm: ModelParams):
    return prm.a * prm.gamma / (prm.gamma - 1.0) * np.power(rho, prm.gamma - 1.0)


def _potential_H_second(rho, prm: ModelParams):
    return prm.a * prm.gamma * np.power(rho, prm.gamma - 2.0)


def polymer_pressure_q(eta, prm: ModelParams):
    return prm.kL * eta + prm.zfrak * np.square(eta)


def polymer_pressure_q_prime(eta, prm: ModelParams):
    return prm.kL + 2.0 * prm.zfrak * np.asarray(eta, dtype=np.float64)


def _xlogx(x):
    """x log x with the continuity convention 0 log 0 = 0."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def polymer_potential_G_prime(eta, prm: ModelParams):
    eta = np.asarray(eta, dtype=np.float64)
    if np.any(eta <= 0):
        raise DomainError("G' needs eta > 0")
    return prm.kL * (np.log(eta) + 1.0) + 2.0 * prm.zfrak * eta


# --- Bregman distances -----------------------------------------------------

#: relative spread below which the quadratic Taylor form replaces the raw
#: difference of potentials; near the cube root of machine epsilon, where
#: the cancellation noise of the raw form and the truncation error of the
#: quadratic cross over
_TAYLOR_SWITCH = 1e-5


def _checked_pair(x, x_t, name: str, ref_name: str):
    """(x, x_t) as float64 arrays, after checking x >= 0 and x_t > 0."""
    x, x_t = np.asarray(x, dtype=np.float64), np.asarray(x_t, dtype=np.float64)
    if np.any(x < 0):
        raise DomainError(f"{name} must be nonnegative")
    if np.any(x_t <= 0):
        raise DomainError(f"{ref_name} must be positive")
    return x, x_t


def bregman_H(rho, rho_t, prm: ModelParams):
    """H(rho) - H(rho_t) - H'(rho_t)(rho - rho_t); nonnegative, zero iff
    the arguments coincide."""
    rho, rho_t = _checked_pair(rho, rho_t, "rho", "reference density")
    raw = (potential_H(rho, prm) - potential_H(rho_t, prm)
           - potential_H_prime(rho_t, prm) * (rho - rho_t))
    near = np.abs(rho - rho_t) <= _TAYLOR_SWITCH * rho_t
    taylor = 0.5 * _potential_H_second(rho_t, prm) * np.square(rho - rho_t)
    return np.where(near, taylor, raw)


def bregman_G(eta, eta_t, prm: ModelParams):
    """G(eta) - G(eta_t) - G'(eta_t)(eta - eta_t)."""
    eta, eta_t = _checked_pair(eta, eta_t, "eta", "reference polymer density")
    # kL part written as eta (log eta - log eta_t) - (eta - eta_t): stable,
    # immune to underflow of eta/eta_t, and respects 0 log 0 = 0
    log_ratio = np.log(np.where(eta > 0, eta, 1.0)) - np.log(eta_t)
    log_part = np.where(eta > 0, eta * log_ratio, 0.0) - (eta - eta_t)
    quad_part = np.square(eta - eta_t)
    near = np.abs(eta - eta_t) <= _TAYLOR_SWITCH * eta_t
    taylor_kl = 0.5 * (prm.kL / eta_t) * quad_part
    return np.where(near, taylor_kl, prm.kL * log_part) + prm.zfrak * quad_part


# --- certified lower bounds (case-split pointwise estimates) ---------------


@dataclass(frozen=True)
class HBoundConstants:
    """Calibrated (delta, c) for :func:`lower_bound_H`."""

    delta: float
    c: float


def lower_bound_H(rho, rho_t, prm: ModelParams, delta: float, c: float):
    """Case-split lower bound: c rho_t^(gamma-2) (rho-rho_t)^2 in the band
    delta rho_t <= rho <= rho_t / delta, else c max(rho, rho_t)^gamma."""
    rho, rho_t = _checked_pair(rho, rho_t, "rho", "reference density")
    inner = (rho >= delta * rho_t) & (rho <= rho_t / delta)
    quad = c * np.power(rho_t, prm.gamma - 2.0) * np.square(rho - rho_t)
    outer = c * np.power(np.maximum(rho, rho_t), prm.gamma)
    return np.where(inner, quad, outer)


def calibrate_H_constants(prm: ModelParams) -> HBoundConstants:
    """Search (delta, c) such that bregman_H >= lower_bound_H everywhere.

    Both sides scale as rho_t^gamma at fixed ratio t = rho / rho_t, so the
    search reduces to a dense 1-D scan in t per candidate delta; the pair
    maximizing c is returned. Failure to find a positive c is an error.
    """
    g = prm.gamma

    def phi(t):
        # Bregman distance at rho_t = 1, a = 1
        return (np.power(t, g) - 1.0 - g * (t - 1.0)) / (g - 1.0)

    best = None
    for delta in (0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05, 0.02):
        # inner band: bound = c (t-1)^2, handle t -> 1 by the Taylor limit
        t = np.linspace(delta, 1.0 / delta, 4096)
        tm1 = t - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_in = np.where(np.abs(tm1) < 1e-4, 0.5 * g, phi(t) / np.square(tm1))
        # outer regions: bound = c max(t,1)^gamma; scan both tails
        lo = np.linspace(0.0, delta, 512)
        hi = np.geomspace(1.0 / delta, 1e6, 512)
        ratio_lo = phi(lo)  # max(t,1)^gamma = 1 there
        ratio_hi = phi(hi) / np.power(hi, g)
        c = prm.a * min(ratio_in.min(), ratio_lo.min(), ratio_hi.min())
        if best is None or c > best[1]:
            best = (delta, c)
    delta, c = best
    if c <= 0:
        raise ParameterError(f"no valid lower-bound constants found for gamma={g}")
    c *= 1.0 - 1e-9  # keep a sliver of margin against sampling gaps
    return HBoundConstants(delta=delta, c=c)


def lower_bound_G(eta, eta_t, prm: ModelParams, corrected: bool = True):
    """Pointwise lower bound on bregman_G.

    With ``corrected=True`` (default) the kL coefficients are
    (eta-eta_t)^2 / (4 eta_t) for eta <= 2 eta_t and eta / 8 beyond, which
    follow from the Taylor remainder with its factor 1/2 kept.
    ``corrected=False`` evaluates the uncorrected published constants
    1/(2 eta_t) and 1/4, which fail near eta = 2 eta_t (see the lemma scan).
    """
    eta, eta_t = _checked_pair(eta, eta_t, "eta", "reference polymer density")
    quad = prm.zfrak * np.square(eta - eta_t)
    if corrected:
        inner = np.square(eta - eta_t) / (4.0 * eta_t)
        outer = eta / 8.0
    else:
        inner = np.square(eta - eta_t) / (2.0 * eta_t)
        outer = eta / 4.0
    return quad + prm.kL * np.where(eta <= 2.0 * eta_t, inner, outer)

