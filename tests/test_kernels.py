"""Gaussian kernel evaluation and Gram construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkernel.errors import DimensionMismatch
from hybridkernel.kernels import KernelSpec, cross_gram, gram
from hybridkernel.linalg import cholesky_with_jitter
from oracles import kernel_eval

GAMMA100 = KernelSpec(gamma=100.0)

# keep gamma * distance^2 < 700 so exp() stays above the float underflow limit
finite_floats = st.floats(min_value=-1.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False)


class TestKernelEval:
    def test_zero_distance(self):
        assert kernel_eval(GAMMA100, [0.3], [0.3]) == 1.0

    def test_hand_value(self):
        assert kernel_eval(GAMMA100, [0.0], [0.1]) == pytest.approx(np.exp(-1.0),
                                                                    abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(finite_floats, finite_floats)
    def test_symmetry_and_range(self, a, b):
        v = kernel_eval(GAMMA100, [a], [b])
        assert v == kernel_eval(GAMMA100, [b], [a])
        assert 0.0 < v <= 1.0
        if a == b:
            assert v == 1.0
        elif abs(a - b) > 1e-6:  # below this, gamma*d^2 can round to zero
            assert v < 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel_eval(GAMMA100, [0.0, 1.0], [0.0])

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelSpec(gamma=0.0)

    def test_round_trip_serialization(self):
        d = KernelSpec(gamma=100.0).to_dict()
        assert KernelSpec.from_dict(d) == KernelSpec(gamma=100.0)


class TestGram:
    def test_single_point(self):
        np.testing.assert_array_equal(gram(GAMMA100, [[0.5]]), [[1.0]])

    def test_identical_points(self):
        np.testing.assert_allclose(gram(GAMMA100, [[0.2], [0.2]]),
                                   [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)

    def test_two_point_hand_value(self):
        e1 = np.exp(-1.0)
        np.testing.assert_allclose(gram(GAMMA100, [[0.0], [0.1]]),
                                   [[1.0, e1], [e1, 1.0]], atol=1e-12)

    def test_psd_certificate(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(30, 2))
        G = gram(KernelSpec(gamma=10.0), pts)
        assert np.array_equal(G, G.T)
        cholesky_with_jitter(G)  # raises if not PSD up to jitter

    def test_cross_gram_matches_gram(self):
        pts = np.linspace(0, 1, 5)[:, None]
        np.testing.assert_allclose(cross_gram(GAMMA100, pts, pts),
                                   gram(GAMMA100, pts), atol=1e-14)

    def test_cross_gram_transpose(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, size=(4, 2))
        b = rng.uniform(0, 1, size=(6, 2))
        np.testing.assert_allclose(cross_gram(GAMMA100, a, b),
                                   cross_gram(GAMMA100, b, a).T, atol=1e-14)

    def test_cross_gram_single_pair(self):
        out = cross_gram(GAMMA100, [[0.0]], [[0.1]])
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(kernel_eval(GAMMA100, [0.0], [0.1]))
