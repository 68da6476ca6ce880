"""The one-pass SPD checks, the ctypes LAPACK calls behind the SPD solve and
the low-rank factor (against ``np.linalg.cholesky`` and scipy's f2py
wrappers), the split bubble point and its replayed bisection, the half-matrix
Gram, the numpy distances behind the Gram matrices and the 2-D duplicate
rule, the joint-fit matrix, the low-rank reference fit and the CLI's
trajectory CSV against the paths they replaced (``tests/oracles.py`` and
scipy's ``cdist`` and ``pdist``). One more test checks that the package
imports and runs every CLI experiment with scipy refused, and loads no numpy
module after its import.

Each result must equal the oracle's bit for bit, and each must raise where
the oracle raises. The one allowed difference: the old jitter step added
0 * I off the diagonal, which turns an entry -0.0 into +0.0; the factor is
compared by value, so such a sign of zero would not count. Three results
come from another LAPACK build than their oracle's, or sum in another order,
and are held to a stated tolerance instead: the SPD solves against scipy's
``cho_solve`` (scipy's own copy of OpenBLAS) to the forward-error bound of a
Cholesky solve, the low-rank factor against scipy's ``dpstrf`` to the sum of
the two tails, and the reference fit's RMSEs to 1e-10 relative of the dense
oracle, and at n = 2000 to 1e-11 relative of an exact solve from a full
eigendecomposition.
"""

import csv
import ctypes
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

import oracles
from hybridkernel import cli, control, experiments, hybrid_static, kernels, linalg, thermo_vle
from hybridkernel.errors import (DomainError, HybridKernelError, NoBracket,
                                 NotPositiveDefinite, NotSymmetric)

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


def assert_close_solve(x, x_old, L):
    """x from the bridge's dpotrs, x_old from scipy's cho_solve, both with the
    factor L. Each is the exact solution of (L L' + E) x = b with ||E||_2 <=
    (3n + 1) n eps ||L||_2^2 (Higham 2002, Thm 10.4, to first order), so each
    is within kappa(L)^2 (3n + 1) n eps of the exact solution, relative, and
    the two are within twice that of each other. Equal bits pass, infinite
    entries too (the 1 x 1 zero matrix's jitter is subnormal)."""
    if isinstance(x_old, type):
        assert x is x_old
        return
    assert x.shape == x_old.shape
    if np.array_equal(x, x_old):
        return
    n = L.shape[0]
    bound = 2 * (3 * n + 1) * n * np.finfo(float).eps * np.linalg.cond(L) ** 2
    assert np.linalg.norm(x - x_old) <= bound * np.linalg.norm(x_old)


def spd_matrix(dim: int, rank: int, seed: int) -> np.ndarray:
    """A A' for a dim x rank A; positive definite when rank >= dim."""
    A = np.random.default_rng(seed).standard_normal((dim, rank))
    return A @ A.T


@SETTINGS
@given(DIMS, st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_cholesky_matches_full_matrix_path(dim, extra, seed):
    M = spd_matrix(dim, dim + extra, seed)
    factor = linalg.cholesky_with_jitter(M)
    assert_same_factor(factor, oracles.cholesky_with_jitter(M))
    rhs = np.random.default_rng(seed + 1).standard_normal((dim, 2))
    for b in (rhs, rhs[:, 0]):
        assert_close_solve(linalg.solve_spd(M, b), oracles.solve_spd(M, b), factor[0])


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
    assert_close_solve(x, x_old, None if isinstance(old, type) else old[0])


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


def bridge_case(dim: int, kind: str, seed: int) -> np.ndarray:
    """A dim x dim symmetric matrix: "spd" factors with no jitter,
    "semidefinite" (rank dim // 2, shifted down by half a jitter step) needs
    one of the steps, and "indefinite" (one eigenvalue -1) fails them all."""
    rng = np.random.default_rng(seed)
    if kind == "spd":
        return spd_matrix(dim, dim + 2, seed)
    if kind == "semidefinite":
        M = spd_matrix(dim, dim // 2, seed)
        base = linalg.JITTER_INIT * max(np.trace(M) / dim, np.finfo(float).tiny)
        return M - 0.5 * base * 10.0 ** rng.integers(0, linalg.MAX_JITTER_RETRIES) * np.eye(dim)
    V, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    d = rng.uniform(1.0, 2.0, dim)
    d[rng.integers(dim)] = -1.0
    return (V * d) @ V.T


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 200), st.sampled_from(["spd", "semidefinite", "indefinite"]),
       st.sampled_from(["C", "F"]), st.booleans(), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
@example(1, "spd", "C", False, 1, 0)
@example(1, "semidefinite", "F", True, 1, 0)  # the 1 x 1 zero matrix
@example(200, "semidefinite", "F", False, 3, 1)
def test_lapack_bridge_matches_f2py_wrappers(dim, kind, order, exact, k, seed):
    """Bits, jitter and errors of the ctypes dpotrf bridge equal those of
    np.linalg.cholesky on the same private copy (the same dpotrf); its dpotrs
    solves are within the forward-error bound of scipy's f2py cho_solve."""
    M = bridge_case(dim, kind, seed)
    if not exact and dim > 1:  # an asymmetry below tolerance: the factored copy is M, not M'
        M[-1, 0] += 1e-3 * linalg.SYMMETRY_RTOL * max(np.abs(M).max(), 1.0)
    M = np.asarray(M, order=order)
    before = M.copy()
    new, old = (outcome(linalg.cholesky_with_jitter, M),
                outcome(oracles.copy_cholesky_with_jitter, M))
    assert_same_factor(new, old)
    assert (old is NotPositiveDefinite) == (kind == "indefinite")
    if old is not NotPositiveDefinite:
        L, jitter = new
        assert (jitter == 0.0) == (kind == "spd")
        assert L.flags.f_contiguous and not np.triu(L, 1).any()
    rhs = np.random.default_rng(seed + 1).standard_normal((dim, k))
    for b in (rhs, rhs[:, 0]):
        x, x_old = outcome(linalg.solve_spd, M, b), outcome(oracles.copy_solve_spd, M, b)
        assert_close_solve(x, x_old, None if isinstance(old, type) else old[0])
        if not isinstance(x, type):
            assert x.flags.f_contiguous
    np.testing.assert_array_equal(M, before)


def late_failure_case(seed: int) -> np.ndarray:
    """600 x 600, rank 500, shifted down by half the fifth jitter step: its
    leading 500 x 500 block is positive definite (eigenvalues in about
    [1, 9]), so dpotrf fails only past column 500, beyond a LAPACK block,
    once it has written most of the lower triangle; the steps before the
    fifth fail the same way."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((600, 500)) / np.sqrt(500)
    X[:500] += 2.0 * np.eye(500)
    M = X @ X.T
    base = linalg.JITTER_INIT * np.trace(M) / 600
    return M - 0.5 * base * 1e4 * np.eye(600)


def as_layout(M: np.ndarray, layout: str) -> np.ndarray:
    """M in C or F order, read-only, or as a strided (non-contiguous) view."""
    if layout == "strided":
        return np.repeat(M, 2, axis=0)[::2]
    A = np.array(M, order="F" if layout == "F" else "C")
    A.setflags(write=layout != "readonly")
    return A


@pytest.mark.parametrize("kind", ["late", "spd", "semidefinite", "indefinite"])
@pytest.mark.parametrize("overwrite", [False, True])
@pytest.mark.parametrize("layout", ["C", "F", "readonly", "strided"])
@pytest.mark.parametrize("exact", [True, False])
def test_in_place_jitter_loop_matches_full_matrix_path(kind, overwrite, layout, exact):
    """Each jitter attempt restores the lower triangle from the strict upper
    one and a saved diagonal; the factor and jitter equal those of the oracle,
    which adds the jitter to a fresh M each attempt, bit for bit. M is written
    only with overwrite=True, and only when it is writeable and contiguous."""
    M = late_failure_case(0) if kind == "late" else bridge_case(2 * TILE + 3, kind, 0)
    if not exact:  # an asymmetry below tolerance: dpotrf factors M's lower triangle
        M[-1, 0] += 1e-3 * linalg.SYMMETRY_RTOL * np.abs(M).max()
    if kind == "late":
        A, n = np.array(M, order="F"), ctypes.byref(ctypes.c_int64(600))
        assert linalg._lapack_info(linalg._dpotrf, "dpotrf", b"L", n, A.ctypes.data, n) > 500
    M = as_layout(M, layout)
    before = M.copy()
    expected = outcome(oracles.cholesky_with_jitter, M)
    assert_same_factor(outcome(linalg.cholesky_with_jitter, M, overwrite), expected)
    if kind == "late":
        assert expected[1] == linalg.JITTER_INIT * (np.trace(before) / 600) * 10.0 ** 4
    if not overwrite or layout in ("readonly", "strided"):
        np.testing.assert_array_equal(M, before)


unit = st.floats(0.0, 1.0, allow_nan=False, width=64)


@SETTINGS
@given(unit)
@example(0.0)
@example(1.0)
@example(5e-324)
# a replayed midpoint lies within 1e-10 of the located root, is evaluated,
# and takes the other branch than its side of the root would give
@example(0.8459850273806627)
@example(0.08008205388819944)
def test_bubble_point_matches_per_step_uniquac(x1):
    assert thermo_vle.bubble_point(x1) == oracles.bubble_point(x1)


def pressure_excess(x1):
    terms = thermo_vle._uniquac_composition_terms(x1)
    return lambda T: thermo_vle._pressure_excess(x1, terms, T)


def test_pressure_excess_rises_along_the_window():
    # the premise of skipping midpoints: a slope of at least 5.5 mmHg/K
    T = np.linspace(*thermo_vle.T_WINDOW_C, 551)
    for x1 in np.linspace(0.0, 1.0, 101):
        excess = pressure_excess(float(x1))
        f = np.array([excess(float(t)) for t in T])
        assert (np.diff(f) / np.diff(T)).min() >= 5.5, x1


def test_bubble_point_evaluates_about_a_third_of_the_bisection(monkeypatch):
    # the plain bisection calls the UNIQUAC terms 2 + 33 + 1 = 36 times a point
    calls = [0]
    gamma_at = thermo_vle._uniquac_gamma_at

    def counted(terms, T):
        calls[0] += 1
        return gamma_at(terms, T)

    monkeypatch.setattr(thermo_vle, "_uniquac_gamma_at", counted)
    per_point = []
    for x1 in thermo_vle.vle_compositions(2000, 0):
        before = calls[0]
        thermo_vle.bubble_point(float(x1))
        per_point.append(calls[0] - before)
    assert np.mean(per_point) <= 13 and max(per_point) <= 18


def recorded(f):
    """f, and the list of the temperatures it is called at."""
    calls = []

    def g(T):
        calls.append(T)
        return f(T)
    return g, calls


def elementwise(*fs):
    """The scalar functions fs as the array search's excess(T, i): fs[k] at
    each temperature of problem k; one function serves every problem."""
    return lambda T, i: np.array([fs[k % len(fs)](t) for k, t in zip(i.tolist(), T.tolist())])


def search_one(f) -> float:
    """The array search's root of the one function f."""
    (root,) = thermo_vle._illinois_roots(elementwise(f), 1).tolist()
    return root


x_unit = st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), unit)


@SETTINGS
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=x_unit),
    arrays(np.float64, n, elements=st.floats(*thermo_vle.T_WINDOW_C)))))
@example((np.array([0.0, 1.0, 5e-324]), np.array([60.0, 115.0, 87.5])))
def test_array_pressure_excess_matches_the_scalar_one(case):
    # the array search meets each value the scalar search would, bit for bit,
    # and those are the per-step oracle's (Python's ** for Antoine's 10^x)
    x1, T = case
    new = thermo_vle._pressure_excess(x1, thermo_vle._uniquac_composition_terms(x1), T)
    scalar = [thermo_vle._pressure_excess(a, thermo_vle._uniquac_composition_terms(a), t)
              for a, t in zip(x1.tolist(), T.tolist())]
    old = [oracles.pressure_excess(a, t) for a, t in zip(x1.tolist(), T.tolist())]
    assert new.tobytes() == np.array(scalar).tobytes() == np.array(old).tobytes()


@pytest.mark.parametrize("f", [
    lambda T: math.nan if T == 115.0 else T - 80.0,
    lambda T: math.inf if T == 115.0 else T - 80.0,
    lambda T: math.nan if T == 60.0 else T - 80.0,
    lambda T: -math.inf if T == 60.0 else T - 80.0,
    lambda T: (80.0 - T) ** 3,  # positive at the low end
    lambda T: 0.0 if T == 60.0 else T - 80.0,  # zero at the low end
])
def test_window_ends_that_fail_the_guard_give_the_plain_bisection(f):
    searched, search_calls = recorded(f)
    root = search_one(searched)
    assert math.isnan(root) and search_calls == [60.0, 115.0]
    new, new_calls = recorded(f)
    old, old_calls = recorded(f)
    assert thermo_vle._bubble_temperature(new, root) == oracles.bisect_window(old)
    assert new_calls == old_calls


def test_root_search_ends_on_a_bracket_narrower_than_1e_11():
    # 101 compositions in one search; each root is the scalar search's
    x1 = np.linspace(0.0, 1.0, 101)
    terms = thermo_vle._uniquac_composition_terms(x1)
    seen = []

    def excess(T, i):
        f = thermo_vle._pressure_excess(x1[i], tuple(t[i] for t in terms), T)
        seen.extend(zip(i.tolist(), T.tolist(), f.tolist()))
        return f

    roots = thermo_vle._illinois_roots(excess, x1.size)
    assert roots.tobytes() == thermo_vle.bubble_roots(x1).tobytes()
    for k, root in enumerate(roots.tolist()):
        scalar = pressure_excess(x1[k].item())
        assert root == oracles.illinois_root(scalar, 60.0, scalar(60.0), 115.0, scalar(115.0))
        values = [(T, v) for j, T, v in seen if j == k]
        assert all(v == scalar(T) for T, v in values)
        a = max(T for T, v in values if v < 0)
        b = min(T for T, v in values if v >= 0)
        assert a <= root <= b and (b - a < 1e-11 or scalar(root) == 0), k


def stalls(T):
    # a step from -1 to 1e12: regula falsi creeps from the low end
    return -1.0 if T < 80.0 else 1e12


@pytest.mark.parametrize("f", [
    stalls,
    lambda T: math.nan if 79.0 < T < 81.0 else T - 80.0,
    lambda T: -math.inf if 79.0 < T < 81.0 else T - 80.0,
])
def test_failed_root_search_gives_the_plain_bisection(f):
    root = search_one(f)
    assert math.isnan(root)
    assert thermo_vle._bubble_temperature(f, root) == oracles.bisect_window(f)


def test_root_search_gives_up_after_100_steps_or_a_nonfinite_value():
    for search in (search_one, lambda f: oracles.illinois_root(f, 60.0, -1.0, 115.0, 1e12)):
        f, calls = recorded(stalls)
        assert math.isnan(search(f))
        assert len([T for T in calls if T not in (60.0, 115.0)]) == 100
    f, calls = recorded(lambda T: math.nan if 79.0 < T < 81.0 else T - 80.0)
    assert math.isnan(search_one(f))
    assert calls == [60.0, 115.0, 80.0]


def test_root_search_solves_each_problem_as_alone():
    # converging, stalling, non-finite and guard-failing problems in one
    # search: each keeps the one-function oracle's root
    fs = [stalls, lambda T: T - 80.0, lambda T: math.nan if 79.0 < T < 81.0 else T - 80.0,
          lambda T: (T - 97.3) ** 3, lambda T: -1.0, lambda T: math.exp(T - 100.0) - 1.0,
          lambda T: math.inf if T == 115.0 else T - 80.0, lambda T: 0.0 if T > 70.0 else -1.0]
    expected = [oracles.illinois_root(f, 60.0, f(60.0), 115.0, f(115.0))
                if f(60.0) < 0 <= f(115.0) and math.isfinite(f(60.0) + f(115.0)) else math.nan
                for f in fs]
    for reps in (1, 3):
        roots = thermo_vle._illinois_roots(elementwise(*fs), reps * len(fs))
        np.testing.assert_array_equal(roots, expected * reps)


def test_vle_table_makes_a_few_scalar_pressure_evaluations_per_composition(monkeypatch):
    # the plain bisection makes 35 per composition, the scalar search about 11;
    # the array search's calls, on arrays of temperatures, are not counted
    calls = [0]
    excess = thermo_vle._pressure_excess

    def counted(x1, terms, T_c):
        calls[0] += np.ndim(T_c) == 0
        return excess(x1, terms, T_c)

    monkeypatch.setattr(thermo_vle, "_pressure_excess", counted)
    experiments._vle_rows.cache_clear()
    experiments.vle_table(thermo_vle.vle_compositions(2000, 0))
    assert calls[0] <= 0.1 * 2000


def test_bubble_point_errors_are_unchanged(monkeypatch):
    for x1 in (-0.1, 1.1, math.nan):
        assert outcome(thermo_vle.bubble_point, x1) is DomainError
        assert outcome(oracles.bubble_point, x1) is DomainError
        assert outcome(thermo_vle.bubble_roots, [0.5, x1]) is DomainError
    for f in (lambda T: T + 1.0, lambda T: -1.0):
        assert outcome(thermo_vle._bubble_temperature, f, search_one(f)) is NoBracket
        assert outcome(oracles.bisect_window, f) is NoBracket
    monkeypatch.setattr(thermo_vle, "ATM_MMHG", 1e6)  # no bubble point below 115 degC
    assert outcome(thermo_vle.bubble_point, 0.5) is NoBracket


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


@st.composite
def point_pairs(draw):
    """Two point sets of one dimension d = 1-3, each of 1-60 points, scaled
    by one of 1e-6 ... 1e3."""
    d = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3]))
    return tuple(scale * draw(arrays(np.float64, (draw(st.integers(1, 60)), d),
                                     elements=coords)) for _ in range(2))


@SETTINGS
@given(gammas, point_pairs())
@example(1.0, (np.array([[0.25]]), np.array([[0.5]])))
@example(1.0, (np.array([[0.1, 0.2, 0.3]]), np.linspace(-1.0, 1.0, 15).reshape(5, 3)))
@example(1.0, (np.linspace(-1.0, 1.0, 10).reshape(5, 2), np.array([[0.1, 0.2]])))
def test_cross_gram_and_distances_match_cdist(gamma, pair):
    A, B = pair
    k = kernels.KernelSpec(gamma=gamma)
    assert kernels.sq_distances(A, B).tobytes() == cdist(A, B, "sqeuclidean").tobytes()
    assert kernels.cross_gram(k, A, B).tobytes() == oracles.cross_gram(k, A, B).tobytes()


@pytest.mark.parametrize("gap, duplicate", [(0.5e-9, True), (2e-9, False)])
def test_duplicate_rule_in_2d_keeps_its_threshold(gap, duplicate):
    X = np.random.default_rng(4).uniform(0.0, 1.0, (50, 2))
    X[-1] = X[7] + gap * np.array([0.6, -0.8])
    assert (oracles.nearest_distance(X) < hybrid_static.DUPLICATE_TOL) is duplicate
    assert (outcome(hybrid_static.Dataset, X, np.zeros(50)) is DomainError) is duplicate


@SETTINGS
@given(st.integers(2, 3), st.floats(0.8e-9, 1.2e-9), st.integers(0, 2 ** 32 - 1))
def test_duplicate_rule_matches_pdist(d, gap, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (30, d))
    direction = rng.standard_normal(d)
    X[-1] = X[0] + gap * direction / np.linalg.norm(direction)
    duplicate = oracles.nearest_distance(X) < hybrid_static.DUPLICATE_TOL
    assert (outcome(hybrid_static.Dataset, X, np.zeros(30)) is DomainError) is duplicate


# every CLI experiment at a small size, in the interpreter that imported the CLI
IMPORT_PROBE = """
import json, sys, tempfile

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())
import hybridkernel.cli

def loaded(package):
    return sorted(name for name in sys.modules if name.split(".")[0] == package)

after_import = {"scipy": loaded("scipy"), "numpy": loaded("numpy")}
calls = [["vle-data", "--n", "5"], ["setting1", "--n", "12"], ["setting2", "--n", "12"],
         ["setting3", "--n", "12", "--m", "3"], ["koopman", "--n", "30", "--m", "5"],
         ["control", "--n", "30", "--m", "5", "--lambda", "1"]]
with tempfile.TemporaryDirectory() as tmp:
    codes = [hybridkernel.cli.main(call + ["--out", f"{tmp}/{i}"])
             for i, call in enumerate(calls)]
print(json.dumps({"after_import": after_import, "codes": codes,
                  "after_runs": {"scipy": loaded("scipy"), "numpy": loaded("numpy")}}))
"""


def test_package_runs_without_scipy_and_imports_numpy_modules_up_front():
    # scipy is refused at import; a numpy module first loaded by a CLI call
    # would be a lazy import timed inside the call instead of at start-up
    src = str(Path(hybrid_static.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["codes"] == [0] * 6
    assert seen["after_import"]["scipy"] == seen["after_runs"]["scipy"] == []
    assert seen["after_runs"]["numpy"] == seen["after_import"]["numpy"]


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
        cli.RunOutput(Path(tmp)).csv("new.csv", cli.TRAJECTORY_COLUMNS,
                                     cli.TimeColumn(traj.times).rows(traj))
        oracles.save_csv(traj, old)
        with open(new, "rb") as a, open(old, "rb") as b:
            assert a.read() == b.read()


@SETTINGS
@given(st.integers(1, 30).flatmap(lambda n: st.lists(st.tuples(
    arrays(np.float64, (n, 2), elements=values), arrays(np.float64, (n,), elements=values)),
    min_size=1, max_size=3)), st.floats(1e-3, 10.0), st.booleans())
def test_shared_time_column_matches_per_file_formatting(trajectories, dt, one_per_step):
    # the trajectories of one grid, written with one shared time column, give
    # the text of a file that formats its own time column
    n = trajectories[0][0].shape[0]
    column = cli.TimeColumn(np.arange(n) * dt)
    with tempfile.TemporaryDirectory() as tmp:
        out = cli.RunOutput(Path(tmp))
        for i, (states, controls) in enumerate(trajectories):
            traj = control.Trajectory(times=np.arange(n) * dt, states=states,
                                      controls=controls[:-1] if one_per_step else controls)
            out.csv(f"{i}.csv", cli.TRAJECTORY_COLUMNS, column.rows(traj))
            assert (Path(tmp) / f"{i}.csv").read_bytes() == oracles.trajectory_csv(traj).encode()


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.lists(st.floats(width=64), min_size=k, max_size=k), max_size=30))))
def test_table_csv_matches_csv_writer(width_and_table):
    # a table of k columns and 0 to 30 rows of repr'd float cells, written as
    # one text and row by row by csv.writer
    k, table = width_and_table
    columns = [f"c{j}" for j in range(k)]
    cells = [list(map(repr, row)) for row in table]
    with tempfile.TemporaryDirectory() as tmp:
        cli.RunOutput(Path(tmp)).csv("new.csv", columns, cells)
        with open(os.path.join(tmp, "old.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(cells)
        assert (Path(tmp) / "new.csv").read_bytes() == (Path(tmp) / "old.csv").read_bytes()


def point_set(n: int, d: int, seed: int) -> np.ndarray:
    """n points uniform on the unit cube in d dimensions, as an (n, d) array."""
    return np.random.default_rng(seed).uniform(0.0, 1.0, (n, d))


def coordinate(x) -> np.ndarray:
    """A 1-D feature input as it is, the coordinate sum of a 2-D one."""
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 1 else x.sum(axis=1)


def reference_design(n: int, d: int, gamma: float, seed: int):
    """Training and validation designs of a noisy sine around a linear reference."""
    def targets(X):
        noise = np.random.default_rng(seed + 7).normal(0.0, 0.05, X.shape[0])
        return np.sin(2 * np.pi * X.sum(axis=1)) + noise

    train, val = (hybrid_static.Dataset(inputs=X, targets=targets(X))
                  for X in (point_set(n, d, seed), point_set(n, d, seed + 1)))
    design = hybrid_static.design(train, lambda x: 0.5 * coordinate(x),
                                  kernels.KernelSpec(gamma=gamma))
    return design, design.at(val)


dims = st.sampled_from([1, 2])


@SETTINGS
@given(st.one_of(st.integers(1, 60), st.sampled_from([127, 128, 129, 300])), dims,
       st.integers(1, 4), st.floats(1e-4, 1e2), st.integers(0, 2 ** 32 - 1))
def test_joint_matrix_matches_copy_and_add(n, d, p, lambda_r, seed):
    # the joint buffer's factored triangle, written tile by tile over a
    # triangle that starts as NaN, holds the full joint matrix's bits when
    # dpotrf first reads it, and the fit equals the full-matrix path's
    X = point_set(n, d, seed)
    data = hybrid_static.Dataset(inputs=X, targets=np.cos(X.sum(axis=1)))
    features = lambda x: np.stack([coordinate(x) ** k for k in range(p)], axis=-1)
    design = hybrid_static.design(data, features, kernels.KernelSpec(gamma=50.0))
    lambda_theta = 10.0 ** np.random.default_rng(seed).uniform(-8, 2)
    (buf,) = hybrid_static.joint_buffers(design, 1)
    buf.M[np.triu_indices(n + p)] = np.nan
    factored, lapack_info = [], linalg._lapack_info

    def spy(routine, name, *args):
        if name == "dpotrf":
            factored.append(np.triu(buf.M))
        return lapack_info(routine, name, *args)

    linalg._lapack_info = spy
    try:
        new = outcome(hybrid_static.fit_subspace, design, lambda_theta, lambda_r, buf)
    finally:
        linalg._lapack_info = lapack_info
    M = oracles.joint_matrix(design, lambda_theta, lambda_r)
    assert factored[0].tobytes() == np.triu(M).tobytes()
    old = outcome(oracles.fit_subspace, design, lambda_theta, lambda_r)
    if isinstance(old, type):
        assert new is old
    else:
        assert new.weights.tobytes() == old[:p].tobytes()
        assert new.coeffs.tobytes() == old[p:].tobytes()


@SETTINGS
@given(st.integers(1, 300), dims, st.floats(10.0, 1e3), st.integers(0, 2 ** 32 - 1))
# full rank with tail 4.4e-16, yet ||G - W mu W'||_2 = 3.57e-14 (eigenvalues of
# the remainder from -3.57e-14 to 3.05e-14) at ||G||_2 = 6.7: above a slack
# of 10 n eps, which does not scale with G
@example(n=15, d=1, gamma=16.375, seed=240091)
def test_low_rank_factor_is_orthonormal_and_bounded_by_its_tail(n, d, gamma, seed):
    G = kernels.gram(kernels.KernelSpec(gamma=gamma), point_set(n, d, seed))
    W, mu, tail = linalg.low_rank_psd_factor(G)
    r = mu.size
    assert W.shape == (n, r) and np.all(mu > 0)
    assert np.abs(W.T @ W - np.eye(r)).max() <= 1e-12
    # the remainder is PSD up to rounding of order n eps ||G||_2, so its trace
    # bounds its 2-norm up to that; the slack covers the rounding in the
    # factor and in forming the remainder
    remainder = np.linalg.norm(G - (W * mu) @ W.T, 2)
    assert remainder <= tail + 10 * n * np.finfo(float).eps * np.linalg.norm(G, 2)


@SETTINGS
@given(st.integers(1, 300), dims, st.floats(10.0, 1e3), st.integers(0, 2 ** 32 - 1))
def test_low_rank_factor_matches_scipy_dpstrf(n, d, gamma, seed):
    # each of W mu W' and scipy's is within its tail of G, up to rounding of
    # order n eps ||G||_2 (the test above), so the two are within both tails
    G = kernels.gram(kernels.KernelSpec(gamma=gamma), point_set(n, d, seed))
    new, old = linalg.low_rank_psd_factor(G), oracles.low_rank_psd_factor(G)
    assert new.mu.size == old.mu.size
    gap = np.linalg.norm((new.W * new.mu) @ new.W.T - (old.W * old.mu) @ old.W.T, 2)
    assert gap <= new.tail + old.tail + 20 * n * np.finfo(float).eps * np.linalg.norm(G, 2)


@SETTINGS
@given(st.integers(5, 300), dims, st.floats(10.0, 1e3), st.floats(1e-3, 1e2),
       st.integers(0, 2 ** 32 - 1))
def test_reference_krr_matches_dense_solve(n, d, gamma, lam, seed):
    train, val = reference_design(n, d, gamma, seed)
    (new,) = hybrid_static.fit_reference_krr(train, [lam])
    old = oracles.fit_reference_krr(train, lam)
    for design in (train, val):
        (expected,) = hybrid_static.rmse([old], design)
        assert hybrid_static.rmse([new], design) == pytest.approx([expected], rel=1e-10)


@SETTINGS
@given(st.integers(5, 300), dims, st.floats(10.0, 1e3),
       st.lists(st.floats(-3.0, 2.0), min_size=1, max_size=13), st.integers(0, 2 ** 32 - 1))
def test_rmse_of_a_model_list_matches_one_product_per_model(n, d, gamma, exponents, seed):
    # one F W + K C product for every model against two matrix-vector
    # products per model: only the order of the sums changes
    train, val = reference_design(n, d, gamma, seed)
    models = hybrid_static.fit_reference_krr(train, 10.0 ** np.array(exponents))
    for design in (train, val):
        for got, model in zip(hybrid_static.rmse(models, design), models):
            assert got == pytest.approx(oracles.rmse(model, design), rel=1e-12, abs=1e-300)


def test_rmse_of_a_near_interpolating_fit_is_within_the_evaluation_bound():
    # at lam = 1e-12 the coefficients are of order 1e7 and F w + K c cancels
    # to the targets' last digits, so the order of the sums moves the RMSE
    # far above 1e-12 relative; each evaluation is still within
    # n eps rms(|F||w| + |K||c|) of the exact one (Higham 2002, "Accuracy and
    # Stability of Numerical Algorithms", section 3.5)
    train, val = reference_design(300, 1, 100.0, seed=3)
    grid = [1e-12, 1e-3, 100.0]
    models = hybrid_static.fit_reference_krr(train, grid)
    for design in (train, val):
        for got, model in zip(hybrid_static.rmse(models, design), models):
            scale = (np.abs(design.F) @ np.abs(model.weights)
                     + np.abs(design.K) @ np.abs(model.coeffs))
            bound = 300 * np.finfo(float).eps * np.sqrt(np.mean(scale ** 2))
            assert abs(got - oracles.rmse(model, design)) <= 2 * bound


def test_tiny_lambda_takes_the_dense_path():
    train, _ = reference_design(300, 1, 100.0, seed=3)
    lam = 1e-12
    assert train.factor.tail >= lam / 10  # the dense path's condition
    (new,) = hybrid_static.fit_reference_krr(train, [lam])
    assert np.array_equal(new.coeffs, oracles.fit_reference_krr(train, lam).coeffs)


@pytest.mark.parametrize("dataset, reference", [
    (experiments.xy_dataset, experiments.relative_volatility_reference),
    (experiments.gex_dataset, experiments.gex_reference)], ids=["xy", "gibbs"])
def test_reference_krr_at_n2000_matches_an_eigendecomposition(dataset, reference):
    train = hybrid_static.design(dataset(2000, 0), reference,
                                 kernels.KernelSpec(gamma=experiments.DEFAULT_GAMMA_X))
    val = train.at(dataset(2000, 1))
    e, V = np.linalg.eigh(train.K)
    Vr = V.T @ (train.y - train.F[:, 0])
    # the whole grid in one fit call, as run_setting1 and run_setting2 fit it
    grid = experiments.DEFAULT_LAMBDA_GRID
    exact = [train.model(np.ones(1), V @ (Vr / (np.maximum(e, 0.0) + lam))) for lam in grid]
    models = hybrid_static.fit_reference_krr(train, grid)
    for design in (train, val):
        for got, expected in zip(hybrid_static.rmse(models, design),
                                 hybrid_static.rmse(exact, design)):
            assert got == pytest.approx(expected, rel=1e-11)
