"""The one-pass SPD checks, the split bubble point, the half-matrix Gram and the
CLI's trajectory CSV against the paths they replaced (``tests/oracles.py``).

Each result must equal the oracle's bit for bit, and each must raise where
the oracle raises. The one allowed difference: the old jitter step added
0 * I off the diagonal, which turns an entry -0.0 into +0.0; the factor is
compared by value, so such a sign of zero would not count.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from hybridkernel import cli, control, kernels, linalg, thermo_vle
from hybridkernel.errors import HybridKernelError, NotPositiveDefinite, NotSymmetric

SETTINGS = settings(max_examples=40, deadline=None)
TILE = linalg.SYMMETRY_TILE
# below, at and across the tile width of the symmetry check
DIMS = st.sampled_from([1, 2, 3, 17, TILE - 1, TILE, TILE + 1, 2 * TILE + 3, 4 * TILE + 5])


def outcome(fn, *args):
    """fn's result, or the type of the package error it raised."""
    try:
        return fn(*args)
    except HybridKernelError as e:
        return type(e)


def assert_same_factor(new, old):
    if isinstance(old, type):
        assert new is old
        return
    (L, jitter), (L_old, jitter_old) = new, old
    assert jitter == jitter_old
    assert L.shape == L_old.shape and np.array_equal(L, L_old)


def spd_matrix(dim: int, rank: int, seed: int) -> np.ndarray:
    """A A' for a dim x rank A; positive definite when rank >= dim."""
    A = np.random.default_rng(seed).standard_normal((dim, rank))
    return A @ A.T


@SETTINGS
@given(DIMS, st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_cholesky_matches_full_matrix_path(dim, extra, seed):
    M = spd_matrix(dim, dim + extra, seed)
    assert_same_factor(linalg.cholesky_with_jitter(M), oracles.cholesky_with_jitter(M))
    rhs = np.random.default_rng(seed + 1).standard_normal((dim, 2))
    for b in (rhs, rhs[:, 0]):
        x = linalg.solve_spd(M, b)
        assert x.shape == b.shape and np.array_equal(x, oracles.solve_spd(M, b))


@SETTINGS
@given(DIMS.filter(lambda d: d > 1), st.integers(0, 2 ** 32 - 1), st.integers(0, 6))
def test_jittered_cholesky_matches_full_matrix_path(dim, seed, step):
    # rank dim // 2, shifted down by half the jitter step `step`: the steps
    # before it fail, and step 6 is past the last one, so the solve raises
    M = spd_matrix(dim, dim // 2, seed)
    base = linalg.JITTER_INIT * np.trace(M) / dim
    M -= 0.5 * base * 10.0 ** step * np.eye(dim)
    new, old = (outcome(linalg.cholesky_with_jitter, M),
                outcome(oracles.cholesky_with_jitter, M))
    assert_same_factor(new, old)
    assert (old is NotPositiveDefinite) == (step > linalg.MAX_JITTER_RETRIES - 1)
    if old is not NotPositiveDefinite:
        assert old[1] > 0
    rhs = np.ones(dim)
    x, x_old = outcome(linalg.solve_spd, M, rhs), outcome(oracles.solve_spd, M, rhs)
    assert x is x_old if isinstance(x_old, type) else np.array_equal(x, x_old)


@SETTINGS
@given(DIMS.filter(lambda d: d > 1), st.integers(0, 2 ** 32 - 1), st.data())
def test_symmetry_threshold_matches_full_matrix_path(dim, seed, data):
    rng = np.random.default_rng(seed)
    B = rng.uniform(-1.0, 1.0, (dim, dim))
    # diagonally dominant: positive definite, or negative definite, so that
    # the largest magnitude is the most negative entry
    M = data.draw(st.sampled_from([1.0, -1.0])) * (B + B.T + 2.0 * dim * np.eye(dim))
    i, j = data.draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2,
                              unique=True))
    M[i, j] = M[j, i] = 0.0
    threshold = linalg.SYMMETRY_RTOL * np.abs(M).max()
    above = data.draw(st.booleans())
    # |M_ij - M_ji| is exactly the threshold (accepted) or the next float (rejected)
    M[i, j] = np.nextafter(threshold, np.inf) if above else threshold
    new, old = (outcome(linalg.cholesky_with_jitter, M),
                outcome(oracles.cholesky_with_jitter, M))
    assert_same_factor(new, old)
    assert (new is NotSymmetric) == above


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_matrix_rejected_like_the_oracle(bad):
    M = np.eye(3)
    M[1, 2] = bad
    assert outcome(linalg.cholesky_with_jitter, M) is outcome(oracles.cholesky_with_jitter, M)


unit = st.floats(0.0, 1.0, allow_nan=False, width=64)


@SETTINGS
@given(unit)
@example(0.0)
@example(1.0)
@example(5e-324)
def test_bubble_point_matches_per_step_uniquac(x1):
    assert thermo_vle.bubble_point(x1) == oracles.bubble_point(x1)


@SETTINGS
@given(unit, st.floats(200.0, 600.0))
@example(0.0, 350.0)
@example(1.0, 350.0)
def test_uniquac_gamma_matches_unsplit(x1, T):
    p = thermo_vle.ETHANOL_TOLUENE_UNIQUAC
    assert thermo_vle.uniquac_gamma(x1, T) == oracles.uniquac_gamma(p, x1, T)


gammas = st.floats(1e-2, 1e3)
coords = st.floats(-1.0, 1.0, allow_nan=False, width=64)


@SETTINGS
@given(gammas, st.integers(1, 60).flatmap(lambda n: arrays(np.float64, (n,), elements=coords)))
def test_gram_matches_symmetrized_full_gram_1d(gamma, x):
    k = kernels.KernelSpec(gamma=gamma)
    G = kernels.gram(k, x)
    assert G.tobytes() == oracles.gram(k, x).tobytes()


@SETTINGS
@given(gammas, st.integers(1, 60).flatmap(lambda n: arrays(np.float64, (n, 2),
                                                            elements=coords)))
def test_gram_matches_symmetrized_full_gram_2d(gamma, X):
    k = kernels.KernelSpec(gamma=gamma)
    G = kernels.gram(k, X)
    assert G.tobytes() == oracles.gram(k, X).tobytes()


values = st.floats(allow_nan=False, allow_infinity=False, width=64)


@SETTINGS
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    arrays(np.float64, (n, 2), elements=values), arrays(np.float64, (n,), elements=values))),
    st.booleans())
def test_save_csv_matches_csv_writer(states_and_controls, one_per_step):
    states, controls = states_and_controls
    n = states.shape[0]
    traj = control.Trajectory(times=np.arange(n) * 0.01, states=states,
                              controls=controls[:-1] if one_per_step else controls)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        cli.RunOutput(Path(tmp)).trajectory("new.csv", traj)
        oracles.save_csv(traj, old)
        with open(new, "rb") as a, open(old, "rb") as b:
            assert a.read() == b.read()
