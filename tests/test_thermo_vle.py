"""Ground-truth VLE simulator and the interpretable model families."""

import numpy as np
import pytest

import oracles
from hybridkernel import cli, experiments, thermo_vle as tv
from hybridkernel.errors import DomainError


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
        az = tv.find_azeotrope()
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
        pts = experiments.vle_points(50, 0)
        assert len(pts) == 50
        for p in pts:
            assert 0.0 <= p.y <= 1.0
            assert 76.0 <= p.T <= 111.0

    def test_determinism(self):
        runs = []
        for _ in range(2):
            # clear both caches, so that each call solves the points
            experiments._vle_point.cache_clear()
            experiments.vle_points.cache_clear()
            runs.append(experiments.vle_points(10, 3))
        assert runs[0] == runs[1]

    def test_single_point(self):
        (pt,) = experiments.vle_points(1, 0)
        assert 0.01 <= pt.x <= 0.99

    def test_csv_round_trip(self, tmp_path):
        pts = experiments.vle_points(5, 1)
        cli.RunOutput(tmp_path).vle_data("d", 5, 1)
        loaded = oracles.load_vle_csv(tmp_path / "d.csv")
        assert tuple(loaded) == pts
        assert (tmp_path / "d.csv.meta.json").exists()


class TestExcessGibbsTarget:
    def test_matches_activity_form_on_simulated_point(self):
        # With modified Raoult and ideal vapor, the T-x-y conversion equals
        # x ln(x g1) + (1-x) ln((1-x) g2) -- excess part plus ideal mixing.
        x = 0.5
        T, y = tv.bubble_point(x)
        g1, g2 = tv.uniquac_gamma(x, T + tv.CELSIUS_TO_KELVIN)
        target = tv.excess_gibbs_from_txy(tv.VlePoint(x=x, y=y, T=T))
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
        val = tv.excess_gibbs_from_txy(tv.VlePoint(x=x, y=y, T=T), P=P)
        assert val == pytest.approx(x * np.log(x) + (1 - x) * np.log(1 - x), abs=1e-10)

    def test_species_relabeling_symmetry(self):
        pt = tv.VlePoint(x=0.3, y=0.55, T=85.0)
        direct = tv.excess_gibbs_from_txy(pt)
        swapped = tv.excess_gibbs_from_txy(
            tv.VlePoint(x=1 - pt.x, y=1 - pt.y, T=pt.T),
            antoine1=tv.TOLUENE_ANTOINE, antoine2=tv.ETHANOL_ANTOINE)
        assert swapped == pytest.approx(direct, abs=1e-12)

    def test_endpoint_rejection(self):
        with pytest.raises(DomainError):
            tv.excess_gibbs_from_txy(tv.VlePoint(x=0.0, y=0.0, T=90.0))


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


class TestWilson:
    def test_purity_limits(self):
        w = tv.WilsonParams(theta=(0.3, 0.7))
        assert tv.wilson_gex(w, 0.0, 350.0) == 0.0
        assert tv.wilson_gex(w, 1.0, 350.0) == 0.0
        assert tv.wilson_gex_from_lambdas(0.4, 2.0, 0.0) == 0.0
        assert tv.wilson_gex_from_lambdas(0.4, 2.0, 1.0) == 0.0

    @pytest.mark.parametrize("x1", [-1e-12, -0.5, 1.0 + 1e-12, 2.0, float("nan")])
    def test_rejects_x_outside_unit_interval(self, x1):
        with pytest.raises(DomainError):
            tv.wilson_gex_from_lambdas(0.4, 2.0, x1)
        with pytest.raises(DomainError):
            tv.wilson_gex(tv.WilsonParams(theta=(0.3, 0.7)), x1, 350.0)

    def test_theta_encoding(self):
        w = tv.WilsonParams(theta=(0.0, 1.0))
        assert w.A12 == pytest.approx(1e-2)
        assert w.A21 == pytest.approx(1e2)

    def test_hand_value_with_direct_lambdas(self):
        # Analytic A -> 0 limit: Lambda12 = V2/V1, Lambda21 = V1/V2
        l12, l21 = 106.8 / 58.7, 58.7 / 106.8
        expected = -(0.5 * np.log(0.5 + 0.5 * l12) + 0.5 * np.log(0.5 + 0.5 * l21))
        assert tv.wilson_gex_from_lambdas(l12, l21, 0.5) == pytest.approx(expected,
                                                                          abs=1e-12)

    def test_lambdas_consistent_with_gex(self):
        w = tv.WilsonParams(theta=(0.4, 0.6))
        l12, l21 = tv.wilson_lambdas(w, 350.0)
        assert tv.wilson_gex(w, 0.3, 350.0) == pytest.approx(
            tv.wilson_gex_from_lambdas(l12, l21, 0.3), abs=1e-14)

    def test_doubling_a_decreases_lambda(self):
        T = 350.0
        for theta in ([0.2, 0.2], [0.5, 0.5], [0.8, 0.3]):
            w = tv.WilsonParams(theta=tuple(theta))
            l12, l21 = tv.wilson_lambdas(w, T)
            # doubling A means adding log10(2)/4 to theta under A = 10^(4t-2)
            shift = np.log10(2.0) / 4.0
            w2 = tv.WilsonParams(theta=(theta[0] + shift, theta[1] + shift))
            d12, d21 = tv.wilson_lambdas(w2, T)
            assert d12 < l12
            assert d21 < l21
