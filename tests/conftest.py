import numpy as np
import pytest
from hypothesis import configuration, settings

from oldb2d import cli
from oldb2d.config import parse_config
from oldb2d.constitutive import ModelParams, _xlogx
from oldb2d.grid import Grid
from oldb2d.state import State

# the same examples on every run, and no example database; each test's own
# max_examples and deadline still apply
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session", autouse=True)
def _hypothesis_caches_outside_the_checkout(tmp_path_factory):
    """Hypothesis also caches the constants of the source files it reads,
    by default under ./.hypothesis; keep them with pytest's temporaries."""
    configuration.set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))


class Keep:
    """A ``run_simulation`` sink that keeps every snapshot it is handed and
    the accumulators added with it."""

    def __init__(self):
        self.states, self.accumulators = [], []

    def __call__(self, state, acc, grad_u):
        self.states.append(state)
        self.accumulators.append(acc)


def csv_rows(prm, ref=None, force_fn=None):
    """The sink ``run`` streams into, or with the reference ``ref`` the one
    ``compare``'s candidate streams into, for a config that writes no file:
    after ``write_csv()`` its ``rows`` are the CSV's rows, the residual
    columns filled in."""
    cfg = parse_config("[grid]\nnx = 8\nny = 8\n[output]\nformats =\n")
    cfg.params = prm
    return cli._Rows(cfg, ref, force_fn)


def polymer_potential_G(eta, prm):
    """The polymer potential G = kL eta log eta + zfrak eta^2, with
    0 log 0 = 0, for the identity eta G' - G = q that criterion 01 checks;
    the solver uses only G', ``constitutive.polymer_potential_G_prime``."""
    return prm.kL * _xlogx(eta) + prm.zfrak * np.square(np.asarray(eta, dtype=np.float64))


def tee(*sinks):
    """A ``run_simulation`` sink that hands each snapshot to every one of
    ``sinks``, in order."""
    def sink(state, acc, grad_u):
        for each in sinks:
            each(state, acc, grad_u)
    return sink


@pytest.fixture
def prm():
    return ModelParams()


def periodic_grid(n=32, lx=1.0, ly=1.0):
    return Grid(nx=n, ny=n, lx=lx, ly=ly, boundary_mode="periodic")


def physical_grid(n=32, lx=1.0, ly=1.0):
    return Grid(nx=n, ny=n, lx=lx, ly=ly, boundary_mode="physical")


def smooth_state(grid, prm, amp=1.0):
    """Smooth non-equilibrium state with positive density/eta and PSD stress."""
    X, Y = grid.cell_axes()
    kx = 2 * np.pi / grid.lx
    ky = 2 * np.pi / grid.ly
    s = State.uniform(grid, 1.0, 1.0, k=prm.k)
    s.rho = 1.0 + 0.15 * amp * np.sin(kx * X) * np.cos(ky * Y)
    s.mx = s.rho * 0.1 * amp * np.sin(kx * X) * np.cos(ky * Y)
    s.my = s.rho * (-0.1 * amp * np.cos(kx * X) * np.sin(ky * Y))
    s.eta = 1.0 + 0.1 * amp * np.cos(kx * X) * np.cos(ky * Y)
    s.t11 = prm.k * s.eta + 0.05 * amp * np.sin(kx * X) * np.sin(ky * Y)
    s.t22 = prm.k * s.eta - 0.05 * amp * np.sin(kx * X) * np.sin(ky * Y)
    s.t12 = 0.03 * amp * np.cos(kx * X) * np.cos(ky * Y)
    return s


def random_smooth_state(grid, prm, rng):
    """Random low-mode smooth state (positive rho/eta, PSD-margin stress)."""
    X, Y = grid.cell_axes()
    def noise():
        out = np.zeros(grid.shape)
        for _ in range(3):
            mx_, my_ = rng.integers(1, 4, size=2)
            phx, phy = rng.uniform(0, 2 * np.pi, size=2)
            out += rng.uniform(0.3, 1.0) * np.sin(
                2 * np.pi * mx_ * X / grid.lx + phx) * np.sin(
                2 * np.pi * my_ * Y / grid.ly + phy)
        return out / max(np.max(np.abs(out)), 1e-30)
    s = State.uniform(grid, 1.0, 1.0, k=prm.k)
    s.rho = 1.0 + 0.2 * noise()
    s.eta = 1.0 + 0.2 * noise()
    s.mx = s.rho * 0.1 * noise()
    s.my = s.rho * 0.1 * noise()
    s.t11 = prm.k * s.eta + 0.1 * noise()
    s.t22 = prm.k * s.eta + 0.1 * noise()
    s.t12 = 0.05 * noise()
    return s
