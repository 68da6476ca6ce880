"""Ground-truth VLE simulator and the interpretable model families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from hybridkernel import cli, experiments, thermo_vle as tv
from hybridkernel.errors import DomainError

unit = st.floats(min_value=0.0, max_value=1.0, width=64)


def antoine_inversion_temperature(c: tv.AntoineConstants, P: float = 760.0) -> float:
    """T solving the Antoine equation at pressure P (oracle for boiling points)."""
    return c.B / (c.A - np.log10(P)) - c.C


class TestAntoine:
    def test_ethanol_boiling_point(self):
        T = antoine_inversion_temperature(tv.ETHANOL_ANTOINE)
        assert tv.antoine_psat(tv.ETHANOL_ANTOINE, T) == pytest.approx(760.0, abs=1e-8)
        assert T == pytest.approx(78.30, abs=0.02)

    def test_toluene_boiling_point(self):
        T = antoine_inversion_temperature(tv.TOLUENE_ANTOINE)
        assert tv.antoine_psat(tv.TOLUENE_ANTOINE, T) == pytest.approx(760.0, abs=1e-8)
        assert T == pytest.approx(110.61, abs=0.02)

    def test_monotone_increasing(self):
        Ts = np.linspace(60.0, 115.0, 200)
        for c in (tv.ETHANOL_ANTOINE, tv.TOLUENE_ANTOINE):
            p = np.array([tv.antoine_psat(c, T) for T in Ts])
            assert np.all(np.diff(p) > 0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tv.antoine_psat(tv.ETHANOL_ANTOINE, -300.0)
        with pytest.raises(DomainError):
            tv.antoine_psat(tv.ETHANOL_ANTOINE, np.array([80.0, -300.0]))

    def test_floats_and_arrays_have_the_bits_of_pythons_power(self):
        Ts = np.linspace(-50.0, 300.0, 101).reshape(1, -1)
        for c in (tv.ETHANOL_ANTOINE, tv.TOLUENE_ANTOINE):
            scalar = [oracles.antoine_psat(c, T) for T in Ts.ravel().tolist()]
            assert [float(tv.antoine_psat(c, T)) for T in Ts.ravel().tolist()] == scalar
            p = tv.antoine_psat(c, Ts)
            assert p.shape == Ts.shape and p.ravel().tolist() == scalar


class TestUniquacGamma:
    def test_pure_ethanol_limit(self):
        g1, _ = tv.uniquac_gamma(1.0, 350.0)
        assert g1 == pytest.approx(1.0, abs=1e-12)

    def test_pure_toluene_limit(self):
        _, g2 = tv.uniquac_gamma(0.0, 350.0)
        assert g2 == pytest.approx(1.0, abs=1e-12)

    def test_gibbs_duhem(self):
        # x1 dln(g1)/dx1 + x2 dln(g2)/dx1 = 0, central differences h = 1e-5
        x1, T, h = 0.5, 350.0, 1e-5
        lg = lambda x: np.log(tv.uniquac_gamma(x, T))
        d = (np.array(lg(x1 + h)) - np.array(lg(x1 - h))) / (2 * h)
        assert abs(x1 * d[0] + (1 - x1) * d[1]) < 1e-6

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            tv.uniquac_gamma(1.5, 350.0)
        with pytest.raises(DomainError):
            tv.uniquac_gamma(0.5, -1.0)


class TestBubblePoint:
    def test_pure_toluene_endpoint(self):
        T, y = tv.bubble_point(0.0)
        assert T == pytest.approx(antoine_inversion_temperature(tv.TOLUENE_ANTOINE),
                                  abs=1e-6)
        assert y == 0.0

    def test_pure_ethanol_endpoint(self):
        T, y = tv.bubble_point(1.0)
        assert T == pytest.approx(antoine_inversion_temperature(tv.ETHANOL_ANTOINE),
                                  abs=1e-6)
        assert y == pytest.approx(1.0, abs=1e-9)

    def test_azeotrope(self):
        az = oracles.find_azeotrope()
        assert az.y == pytest.approx(az.x, abs=1e-7)
        assert az.T == pytest.approx(76.7, abs=0.3)

    def test_temperature_has_unique_interior_minimum(self):
        xs = np.linspace(0.0, 1.0, 101)
        Ts = np.array([tv.bubble_point(x)[0] for x in xs])
        i = int(np.argmin(Ts))
        assert 0 < i < 100
        assert np.all(np.diff(Ts[:i + 1]) < 0)
        assert np.all(np.diff(Ts[i:]) > 0)

    def test_diagonal_crossed_exactly_once(self):
        xs = np.linspace(0.01, 0.99, 99)
        gap = np.array([tv.bubble_point(x)[1] - x for x in xs])
        assert int(np.sum(np.diff(np.sign(gap)) != 0)) == 1


class TestDatasetGeneration:
    def test_bounds(self):
        x = tv.vle_compositions(50, 0)
        T, y = experiments.vle_table(x)
        assert T.shape == y.shape == (50,)
        assert np.all((0.0 <= y) & (y <= 1.0))
        assert np.all((76.0 <= T) & (T <= 111.0))

    def test_determinism(self):
        runs = []
        for _ in range(2):
            # clear the bubble-point cache, so that each call solves the points
            experiments._vle_rows.cache_clear()
            runs.append(np.stack(experiments.vle_table(tv.vle_compositions(10, 3))))
        assert runs[0].tobytes() == runs[1].tobytes()

    def test_single_point(self):
        (x,) = tv.vle_compositions(1, 0)
        assert 0.01 <= x <= 0.99
        T, y = experiments.vle_table(x)
        assert T.shape == y.shape == ()
        assert (float(T), float(y)) == tv.bubble_point(x)

    def test_csv_round_trip(self, tmp_path):
        x = tv.vle_compositions(5, 1)
        T, y = experiments.vle_table(x)
        cli.RunOutput(tmp_path).vle_data("d", 5, 1)
        loaded = oracles.load_vle_csv(tmp_path / "d.csv")
        assert loaded == [oracles.VlePoint(x=a, y=b, T=c)
                          for a, b, c in zip(x.tolist(), y.tolist(), T.tolist())]
        assert (tmp_path / "d.csv.meta.json").exists()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda rows: arrays(
        np.float64, st.tuples(st.just(rows), st.integers(0, 4)),
        elements=unit | st.sampled_from([0.0, 1.0]))))
    def test_table_matches_per_composition_bubble_points_bit_for_bit(self, x):
        T, y = experiments.vle_table(x)
        expected = [tv.bubble_point(xi) for xi in x.ravel().tolist()]
        assert T.shape == y.shape == x.shape
        assert T.ravel().tobytes() == np.array([p[0] for p in expected]).tobytes()
        assert y.ravel().tobytes() == np.array([p[1] for p in expected]).tobytes()


@st.composite
def txy_cases(draw):
    """(x, y, T, P, antoine): up to 8 points with x, y in (0, 1) and T from 60 to
    115 degC, a pressure other than 760 mmHg, and the two species' Antoine
    constants in either order."""
    n = draw(st.integers(1, 8))
    inside = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True,
                       allow_subnormal=False)
    return (draw(arrays(np.float64, n, elements=inside)),
            draw(arrays(np.float64, n, elements=inside)),
            draw(arrays(np.float64, n, elements=st.floats(min_value=60.0, max_value=115.0))),
            draw(st.floats(min_value=100.0, max_value=2000.0).filter(lambda P: P != 760.0)),
            draw(st.sampled_from([(tv.ETHANOL_ANTOINE, tv.TOLUENE_ANTOINE),
                                  (tv.TOLUENE_ANTOINE, tv.ETHANOL_ANTOINE)])))


def scalar_txy(x, y, T, P, antoine) -> np.ndarray:
    """The oracle at every point, one scalar call each."""
    return np.array([oracles.excess_gibbs_from_txy(oracles.VlePoint(x=a, y=b, T=c), P, *antoine)
                     for a, b, c in zip(x.tolist(), y.tolist(), T.tolist())])


class TestExcessGibbsTarget:
    def test_matches_activity_form_on_simulated_point(self):
        # With modified Raoult and ideal vapor, the T-x-y conversion equals
        # x ln(x g1) + (1-x) ln((1-x) g2) -- excess part plus ideal mixing.
        x = 0.5
        T, y = tv.bubble_point(x)
        g1, g2 = tv.uniquac_gamma(x, T + tv.CELSIUS_TO_KELVIN)
        target = tv.excess_gibbs_from_txy(x, y, T)
        expected = x * np.log(x * g1) + (1 - x) * np.log((1 - x) * g2)
        assert target == pytest.approx(expected, abs=1e-8)

    def test_ideal_raoult_point_gives_ideal_mixing_term(self):
        # Construct y from Raoult's law with unit activity: the conversion
        # returns exactly the ideal-mixing contribution x ln x + (1-x) ln(1-x).
        x, T = 0.4, 90.0
        p1 = tv.antoine_psat(tv.ETHANOL_ANTOINE, T)
        p2 = tv.antoine_psat(tv.TOLUENE_ANTOINE, T)
        P = x * p1 + (1 - x) * p2
        y = x * p1 / P
        val = tv.excess_gibbs_from_txy(x, y, T, P=P)
        assert val == pytest.approx(x * np.log(x) + (1 - x) * np.log(1 - x), abs=1e-10)

    def test_species_relabeling_symmetry(self):
        x, y, T = 0.3, 0.55, 85.0
        direct = tv.excess_gibbs_from_txy(x, y, T)
        swapped = tv.excess_gibbs_from_txy(1 - x, 1 - y, T, antoine1=tv.TOLUENE_ANTOINE,
                                           antoine2=tv.ETHANOL_ANTOINE)
        assert swapped == pytest.approx(direct, abs=1e-12)

    def test_endpoint_rejection(self):
        with pytest.raises(DomainError):
            tv.excess_gibbs_from_txy(0.0, 0.0, 90.0)
        with pytest.raises(DomainError):
            tv.excess_gibbs_from_txy([0.3, 1.0], [0.5, 0.6], 90.0)

    def test_vapor_fraction_that_underflows_the_ratio_is_rejected(self):
        # y = 5e-324 lies inside (0, 1), but P y / Psat1 underflows to 0
        with pytest.raises(DomainError):
            tv.excess_gibbs_from_txy(0.5, 5e-324, 60.0, P=100.0)

    @pytest.mark.parametrize("antoine", [(tv.ETHANOL_ANTOINE, tv.TOLUENE_ANTOINE),
                                         (tv.TOLUENE_ANTOINE, tv.ETHANOL_ANTOINE)])
    def test_antoine_denominator_at_zero_is_rejected(self, antoine):
        # at T = -C of toluene, ethanol's T + C is 6.997 and toluene's is 0
        T = np.array([[90.0, -tv.TOLUENE_ANTOINE.C]])
        with pytest.raises(DomainError, match=r"T \+ C = 0\.0 <= 0"):
            tv.excess_gibbs_from_txy(0.5, 0.5, T, tv.ATM_MMHG, *antoine)
        with pytest.raises(DomainError, match=r"T \+ C = 0\.0 <= 0"):
            tv.antoine_psat(tv.TOLUENE_ANTOINE, -tv.TOLUENE_ANTOINE.C)

    def test_shapes(self):
        assert type(tv.excess_gibbs_from_txy(0.3, 0.5, 90.0)) is float
        assert tv.excess_gibbs_from_txy([0.3], 0.5, 90.0).shape == (1,)
        assert tv.excess_gibbs_from_txy([[0.3], [0.4]], [0.5, 0.6], 90.0).shape == (2, 2)

    @settings(max_examples=80, deadline=None)
    @given(txy_cases())
    def test_array_conversion_matches_scalar_oracle_bit_for_bit(self, case):
        x, y, T, P, antoine = case
        g = tv.excess_gibbs_from_txy(x, y, T, P, *antoine)
        expected = scalar_txy(*case)
        assert g.shape == expected.shape
        assert g.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(txy_cases(), st.data())
    def test_array_conversion_rejects_what_the_oracle_rejects(self, case, data):
        x, y, T, P, antoine = case
        i = data.draw(st.integers(0, x.size - 1))
        which = data.draw(st.sampled_from(["x", "y", "T"]))
        if which == "T":
            T[i] = data.draw(st.floats(max_value=-antoine[0].C))  # T + C1 <= 0
        else:
            (x if which == "x" else y)[i] = data.draw(
                st.floats().filter(lambda v: not 0.0 < v < 1.0))
        with pytest.raises(DomainError):
            scalar_txy(x, y, T, P, antoine)
        with pytest.raises(DomainError):
            tv.excess_gibbs_from_txy(x, y, T, P, *antoine)


class TestRelativeVolatility:
    def test_endpoints(self):
        assert tv.rel_volatility_model(2.973, 0.0) == 0.0
        assert tv.rel_volatility_model(2.973, 1.0) == 1.0

    def test_unit_alpha_is_identity(self):
        xs = np.linspace(0, 1, 11)
        np.testing.assert_allclose(tv.rel_volatility_model(1.0, xs), xs, atol=1e-15)

    def test_hand_value(self):
        assert tv.rel_volatility_model(2.973, 0.5) == pytest.approx(2.973 / 3.973,
                                                                    abs=1e-12)


class TestMargulesFeatures:
    def test_purity_endpoints(self):
        np.testing.assert_array_equal(tv.margules_features(0.0), [0.0, 0.0])
        np.testing.assert_array_equal(tv.margules_features(1.0), [0.0, 0.0])

    def test_hand_value(self):
        np.testing.assert_allclose(tv.margules_features(0.5), [0.125, 0.125],
                                   atol=1e-15)

    def test_swap_symmetry(self):
        xs = np.linspace(0, 1, 21)
        np.testing.assert_allclose(tv.margules_features(1 - xs),
                                   tv.margules_features(xs)[..., ::-1], atol=1e-15)


THETAS = np.array([[0.3, 0.7], [0.0, 1.0], [0.4, 0.6]])


@st.composite
def wilson_cases(draw):
    """(thetas, x1, T): up to 6 pairs on [0, 1]^2 and up to 8 points with
    endpoints likely, each at its own T from 300 to 420 K."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    return (draw(arrays(np.float64, (m, 2), elements=unit)),
            draw(arrays(np.float64, n, elements=unit | st.sampled_from([0.0, 1.0]))),
            draw(arrays(np.float64, n, elements=st.floats(min_value=300.0, max_value=420.0))))


def scalar_gex(thetas, xs, Ts) -> np.ndarray:
    """The oracle at every (point, pair), one scalar call each."""
    return np.array([[oracles.wilson_gex(oracles.WilsonParams(theta=(float(a), float(b))),
                                         float(x), float(T)) for a, b in thetas]
                     for x, T in zip(xs, Ts)])


class TestWilson:
    def test_purity_limits(self):
        gex = tv.wilson_gex(THETAS, [0.0, 1.0], 350.0)
        assert gex.tobytes() == np.zeros((2, 3)).tobytes()  # +0.0, not -0.0
        # Lambda12 underflows to 0 at A12 = 10^10: log(0) at x1 = 0, but no warning
        assert tv.wilson_gex([[3.0, 0.5]], [0.0, 0.5, 1.0], 350.0)[[0, 2]].tolist() == [[0.0]] * 2

    @pytest.mark.parametrize("x1", [-1e-12, -0.5, 1.0 + 1e-12, 2.0, float("nan")])
    def test_rejects_x_outside_unit_interval(self, x1):
        with pytest.raises(DomainError):
            tv.wilson_gex(THETAS, x1, 350.0)
        with pytest.raises(DomainError):
            tv.wilson_gex(THETAS, [0.2, x1, 0.5], [350.0, 360.0, 370.0])

    @pytest.mark.parametrize("T", [0.0, -1.0, -np.inf])
    def test_rejects_non_positive_temperature(self, T):
        with pytest.raises(DomainError):
            tv.wilson_gex(THETAS, [0.2, 0.5], [350.0, T])

    def test_shapes(self):
        assert tv.wilson_gex(THETAS, np.linspace(0.1, 0.9, 7), 350.0).shape == (7, 3)
        assert tv.wilson_gex(THETAS, 0.5, 350.0).shape == (3,)
        assert tv.wilson_gex(np.empty((0, 2)), [0.5, 0.6], 350.0).shape == (2, 0)

    def test_theta_encoding(self):
        # theta = (0, 1) encodes A12 = 1e-2 and A21 = 1e2 cal/mol
        T, x1, RT = 350.0, 0.4, 1.987 * 350.0
        l12 = 106.8 / 58.7 * np.exp(-1e-2 / RT)
        l21 = 58.7 / 106.8 * np.exp(-1e2 / RT)
        expected = -x1 * np.log(x1 + (1 - x1) * l12) - (1 - x1) * np.log(1 - x1 + x1 * l21)
        assert tv.wilson_gex([[0.0, 1.0]], x1, T)[0] == pytest.approx(expected, rel=1e-12)

    def test_hand_value_with_direct_lambdas(self):
        # Analytic A -> 0 limit: Lambda12 = V2/V1, Lambda21 = V1/V2
        l12, l21 = 106.8 / 58.7, 58.7 / 106.8
        expected = -(0.5 * np.log(0.5 + 0.5 * l12) + 0.5 * np.log(0.5 + 0.5 * l21))
        assert oracles.wilson_gex_from_lambdas(l12, l21, 0.5) == pytest.approx(expected,
                                                                               abs=1e-12)

    def test_lambdas_consistent_with_gex(self):
        w = oracles.WilsonParams(theta=(0.4, 0.6))
        l12, l21 = oracles.wilson_lambdas(w, 350.0)
        assert tv.wilson_gex([w.theta], 0.3, 350.0)[0] == \
            oracles.wilson_gex_from_lambdas(l12, l21, 0.3)

    def test_doubling_a_decreases_lambda(self):
        T = 350.0
        for theta in ([0.2, 0.2], [0.5, 0.5], [0.8, 0.3]):
            w = oracles.WilsonParams(theta=tuple(theta))
            l12, l21 = oracles.wilson_lambdas(w, T)
            # doubling A means adding log10(2)/4 to theta under A = 10^(4t-2)
            shift = np.log10(2.0) / 4.0
            w2 = oracles.WilsonParams(theta=(theta[0] + shift, theta[1] + shift))
            d12, d21 = oracles.wilson_lambdas(w2, T)
            assert d12 < l12
            assert d21 < l21

    @settings(max_examples=80, deadline=None)
    @given(wilson_cases())
    def test_array_gex_matches_scalar_oracle_bit_for_bit(self, case):
        thetas, xs, Ts = case
        gex = tv.wilson_gex(thetas, xs, Ts)
        expected = scalar_gex(thetas, xs, Ts)
        assert gex.shape == expected.shape
        assert gex.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(wilson_cases(), st.data())
    def test_array_gex_rejects_what_the_oracle_rejects(self, case, data):
        thetas, xs, Ts = case
        i = data.draw(st.integers(0, xs.size - 1))
        if data.draw(st.booleans()):
            xs[i] = data.draw(st.floats().filter(lambda v: not 0.0 <= v <= 1.0))
        else:
            Ts[i] = data.draw(st.floats(max_value=0.0))
        with pytest.raises(DomainError):
            scalar_gex(thetas, xs, Ts)
        with pytest.raises(DomainError):
            tv.wilson_gex(thetas, xs, Ts)
