"""Conservative field set on a grid at one time, and trajectories of them."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .grid import Grid


class NumericalError(RuntimeError):
    """Raised when the solver produces invalid data (NaN/Inf, undershoots).
    It carries no trajectory: a run's sink already holds the snapshots
    added before the failure."""


@dataclass
class State:
    """Conservative unknowns at one instant: density, momentum, polymer
    number density and the symmetric extra stress (three stored planes)."""

    grid: Grid
    t: float
    rho: np.ndarray
    mx: np.ndarray
    my: np.ndarray
    eta: np.ndarray
    t11: np.ndarray
    t12: np.ndarray
    t22: np.ndarray

    def __post_init__(self):
        for name in ("rho", "mx", "my", "eta", "t11", "t12", "t22"):
            a = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if a.shape != self.grid.shape:
                raise ValueError(f"{name} has shape {a.shape}, grid is {self.grid.shape}")
            setattr(self, name, a)

    @classmethod
    def uniform(cls, grid: Grid, rho0: float, eta0: float, tau0: np.ndarray | None = None,
                k: float | None = None) -> "State":
        """Spatially uniform state; stress defaults to the relaxation
        equilibrium k*eta0*I when k is given, else zero."""
        if tau0 is None:
            d = k * eta0 if k is not None else 0.0
            tau0 = np.array([[d, 0.0], [0.0, d]])
        full = np.full(grid.shape, 1.0)
        return cls(grid, 0.0, rho0 * full, 0.0 * full, 0.0 * full, eta0 * full,
                   tau0[0, 0] * full, tau0[0, 1] * full, tau0[1, 1] * full)

    def velocity(self, rho_floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        den = np.maximum(self.rho, rho_floor) if rho_floor > 0 else self.rho
        return self.mx / den, self.my / den

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.rho, self.mx, self.my, self.eta, self.t11, self.t12, self.t22)

    def copy(self) -> "State":
        return State(self.grid, self.t, *(a.copy() for a in self.arrays()))

    def check_finite(self) -> None:
        for name, a in zip(("rho", "mom_x", "mom_y", "eta", "T11", "T12", "T22"),
                           self.arrays()):
            if not np.all(np.isfinite(a)):
                bad = np.argwhere(~np.isfinite(a))[0]
                raise NumericalError(
                    f"non-finite value in {name} at cell ({bad[0]}, {bad[1]}), t={self.t:g}")


@dataclass
class Accumulators:
    """Running time integrals of the energy-balance dissipation and source
    terms (trapezoidal in time)."""

    visc: float = 0.0        # mu |grad u|^2 + nu |div u|^2
    poly: float = 0.0        # 2 eps (2 k L |grad sqrt(eta)|^2 + z |grad eta|^2)
    relax: float = 0.0       # (1/4 lambda) tr T
    src_f: float = 0.0       # rho f . u
    src_eta: float = 0.0     # (k d / 4 lambda) eta
    clipped_eta: float = 0.0  # total mass removed by undershoot clipping

    def as_dict(self) -> dict:
        return {
            "visc_diss_cum": self.visc,
            "poly_diss_cum": self.poly,
            "relax_cum": self.relax,
            "src_f_cum": self.src_f,
            "src_eta_cum": self.src_eta,
        }

    def copy(self) -> "Accumulators":
        return replace(self)


@dataclass
class Trajectory:
    """The latest snapshot state of a run, which ``run_simulation`` lets
    go once it steps past it (so ``final`` is the last state once the run
    returns). ``add`` holds the state it is given, not a copy, and hands it
    to ``sink(state, acc, grad_u)``, which keeps what it needs and must not
    mutate the state: it is the run's own. The class stays for ``final``,
    and for ``add`` and ``states[-1]``, which ``perfbench/tracer.py`` hooks
    to count the snapshot bytes a run holds."""

    grid: Grid
    sink: Callable[[State, Accumulators, tuple | None], None] | None = None
    states: list = field(default_factory=list)  # the latest state, or none

    def add(self, state: State, acc: Accumulators, grad_u: tuple | None = None) -> None:
        """Add a snapshot, handing the sink a copy of ``acc``, which the
        run goes on accumulating into. ``grad_u`` is the velocity gradient
        of ``state`` when the caller has it (only a sink uses it)."""
        self.states[:] = [state]
        if self.sink is not None:
            self.sink(state, acc.copy(), grad_u)

    @property
    def final(self) -> State:
        return self.states[-1]
