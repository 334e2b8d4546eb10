"""``oldb2d.rng`` draws numpy's bits: each call against
``numpy.random.default_rng``, and the two seeded consumers against copies
driven by numpy's generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oldb2d import config, rng, verify
from oldb2d.config import perturb_state
from oldb2d.state import State

from conftest import periodic_grid, physical_grid

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 9, 2**200 + 7]

# the calls of smooth_noise and of the Sobol scramble; a range of 3 * 2^30,
# whose Lemire threshold rejects a quarter of the 32-bit draws; a range
# from a negative low; and a range of one value, which draws nothing
CALLS = [
    ("integers", (1, 4), {"size": 2}),
    ("uniform", (0.0, 2.0 * np.pi), {"size": 2}),
    ("uniform", (0.5, 1.0), {}),
    ("integers", (0, 2), {"size": (4, 30), "dtype": np.uint32}),
    ("integers", (0, 2), {"size": (4, 30, 30), "dtype": np.uint32}),
    ("integers", (0, 3 << 30), {"size": 40}),
    ("integers", (-7, 1_000_003), {"size": 3}),
    ("integers", (5, 6), {"size": 3}),
]


def _same_draws(seed, calls):
    ours, numpys = rng.default_rng(seed), np.random.default_rng(seed)
    for name, args, kwargs in calls:
        got = getattr(ours, name)(*args, **kwargs)
        want = getattr(numpys, name)(*args, **kwargs)
        assert type(got) is type(want)
        got, want = np.atleast_1d(got), np.atleast_1d(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), (seed, name)


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_numpy(seed):
    _same_draws(seed, CALLS)


@settings(max_examples=200, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**300)))
def test_draws_match_numpy_for_any_seed(seed):
    _same_draws(seed, CALLS[:4])


@pytest.mark.parametrize("seed", SEEDS)
def test_half_of_a_64_bit_draw_carries_across_calls(seed):
    # one 32-bit draw leaves the high half buffered through a 64-bit uniform
    _same_draws(seed, [("integers", (0, 10), {"size": 1}),
                       ("uniform", (0.0, 1.0), {"size": 3}),
                       ("integers", (0, 10), {"size": 1}),
                       ("integers", (0, 10), {"size": 1})])


def test_bounded_integers_take_the_rejection_branch():
    g = rng.default_rng(3)
    drawn = []
    next32 = g._next32
    g._next32 = lambda: drawn.append(1) or next32()
    g.integers(0, 3 << 30, size=40)
    assert len(drawn) > 40
    _same_draws(3, [("integers", (0, 3 << 30), {"size": 40}),
                    ("integers", (0, 1_000_003), {"size": 40})])


@pytest.mark.parametrize("call", [
    lambda g: g.integers(0, 2, size=3, dtype=np.float64),
    lambda g: g.integers(0, 2, size=3, dtype=np.int32),
    lambda g: g.integers(3, 3, size=3),
    lambda g: g.integers(-1, 2, size=3, dtype=np.uint32),
    lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
    lambda g: g.uniform(1.0, 0.0),
    lambda g: g.uniform(0.0, np.inf),
    lambda g: g.uniform(np.zeros(2), 1.0),
], ids=["float", "int32", "empty", "below-uint32", "wide", "reversed", "inf",
        "array-bounds"])
def test_calls_outside_the_subset_raise(call):
    with pytest.raises((TypeError, ValueError)):
        call(rng.default_rng(0))


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises((TypeError, ValueError)):
        rng.default_rng(seed)


def _arrays(state):
    return [a.view(np.int64) for a in state.arrays()]


@pytest.mark.parametrize("grid", [periodic_grid(16), physical_grid(16)],
                         ids=["periodic", "walled"])
@pytest.mark.parametrize("seed", [0, 5, 77, 2**40 + 3])
def test_perturb_state_matches_numpy_generator(monkeypatch, prm, grid, seed):
    base = State.uniform(grid, 1.0, 1.0, k=prm.k)
    got = perturb_state(base, 1e-3, seed=seed, k=prm.k)
    monkeypatch.setattr(config, "default_rng", np.random.default_rng)
    want = perturb_state(base, 1e-3, seed=seed, k=prm.k)
    for x, y in zip(_arrays(got), _arrays(want)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("seed", [0, 1, 20240817, 2**32])
def test_sobol_scramble_matches_numpy_generator(monkeypatch, seed):
    got = verify._sobol_scramble(seed)
    monkeypatch.setattr(verify, "default_rng", np.random.default_rng)
    want = verify._sobol_scramble(seed)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype == np.uint32 and np.array_equal(x, y)
