"""Tests for occupancy moments and expected-tour-length laws."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import poisson

from drcflex import TABLE1_MODEL, KStarModel
from drcflex.expectations import (
    RIDER_WEIGHTED_OFFSET,
    TOUR_LENGTH_OFFSET,
    YANG_TOUR_LAW,
    OccupancyLaw,
    PolynomialTourLaw,
    WeibullTourLaw,
    as_tour_law,
    expected_ff_wait_kernel,
    expected_weibull_power,
    mc_expectation_oracle,
    poisson_moments,
)


def weibull_f(model: KStarModel, offset: float):
    """Vectorized (Q+1)**(beta3+offset) * exp(beta4*(Q+1)**beta5) for MC audits."""

    def f(q: np.ndarray) -> np.ndarray:
        x = q + 1.0
        return x ** (model.beta3 + offset) * np.exp(model.beta4 * x**model.beta5)

    return f


class TestOccupancyLaw:
    def test_moments(self) -> None:
        mu, m2 = poisson_moments(OccupancyLaw(3.5))
        assert mu == 3.5
        assert m2 == pytest.approx(3.5**2 + 3.5)

    @pytest.mark.parametrize("mean", [-0.5, float("nan"), float("inf")])
    def test_invalid_mean(self, mean: float) -> None:
        with pytest.raises(ValueError):
            OccupancyLaw(mean)


class TestWeibullPower:
    def test_exact_at_zero_mean(self) -> None:
        # Q is surely 0, so the expectation collapses to exp(beta4).
        got = expected_weibull_power(OccupancyLaw(0.0), TABLE1_MODEL, TOUR_LENGTH_OFFSET)
        assert got == pytest.approx(math.exp(TABLE1_MODEL.beta4), abs=1e-12)

    @pytest.mark.parametrize("mean", [2.0, 10 / 3, 8.0])
    @pytest.mark.parametrize("offset", [TOUR_LENGTH_OFFSET, RIDER_WEIGHTED_OFFSET])
    def test_tracks_monte_carlo_at_moderate_means(self, mean: float, offset: float) -> None:
        # The second-order expansion is only trusted for means around 2 and up;
        # the acceptance suite documents how it degrades below that.
        got = expected_weibull_power(OccupancyLaw(mean), TABLE1_MODEL, offset)
        ref = mc_expectation_oracle(
            OccupancyLaw(mean), weibull_f(TABLE1_MODEL, offset), n_draws=400_000
        )
        assert got == pytest.approx(ref, rel=0.02)

    def test_offset_whitelist(self) -> None:
        with pytest.raises(ValueError, match="offset"):
            expected_weibull_power(OccupancyLaw(1.0), TABLE1_MODEL, 2.5)

    def test_wait_kernel_is_difference_of_moments(self) -> None:
        law = OccupancyLaw(4.2)
        expected = expected_weibull_power(
            law, TABLE1_MODEL, RIDER_WEIGHTED_OFFSET
        ) - expected_weibull_power(law, TABLE1_MODEL, TOUR_LENGTH_OFFSET)
        assert expected_ff_wait_kernel(law, TABLE1_MODEL) == pytest.approx(expected, abs=1e-15)

    def test_wait_kernel_positive_and_tracks_mc(self) -> None:
        law = OccupancyLaw(10 / 3)
        kernel = expected_ff_wait_kernel(law, TABLE1_MODEL)
        assert kernel > 0.0
        base = weibull_f(TABLE1_MODEL, TOUR_LENGTH_OFFSET)
        ref = mc_expectation_oracle(law, lambda q: q * base(q), n_draws=400_000)
        assert kernel == pytest.approx(ref, rel=0.02)


def poisson_sum(mean: float, f) -> float:
    """E[f(Q)] as a pmf sum truncated far beyond the mean, for Q ~ Poisson(mean)."""
    q = np.arange(int(mean + 40.0 * math.sqrt(mean + 1.0) + 60.0))
    return float(np.sum(poisson.pmf(q, mean) * f(q)))


class TestWaitKernelBand:
    """The wait kernel is a difference of two moments, so it is less accurate
    than either: -2.16% at mean 2.0, -1.99% at 2.11, -1.85% at 2.2."""

    @pytest.mark.parametrize("mean", [2.2, 2.5, 3.0, 10 / 3, 4.0, 6.0, 8.0, 12.0, 20.0])
    def test_within_two_percent_from_mean_2_2(self, mean: float) -> None:
        base = weibull_f(TABLE1_MODEL, TOUR_LENGTH_OFFSET)
        exact = poisson_sum(mean, lambda q: q * base(q))
        got = expected_ff_wait_kernel(OccupancyLaw(mean), TABLE1_MODEL)
        assert got == pytest.approx(exact, rel=0.02)

    def test_at_mean_2_only_the_difference_leaves_the_band(self) -> None:
        law = OccupancyLaw(2.0)
        for offset in (TOUR_LENGTH_OFFSET, RIDER_WEIGHTED_OFFSET):
            exact = poisson_sum(2.0, weibull_f(TABLE1_MODEL, offset))
            assert expected_weibull_power(law, TABLE1_MODEL, offset) == pytest.approx(exact, rel=0.02)
        base = weibull_f(TABLE1_MODEL, TOUR_LENGTH_OFFSET)
        exact = poisson_sum(2.0, lambda q: q * base(q))
        error = expected_ff_wait_kernel(law, TABLE1_MODEL) / exact - 1.0
        assert -0.022 < error < -0.02


class TestWeibullTourLaw:
    def test_deterministic_length_hand_value(self) -> None:
        # (0.1102 + 1.4569) * 4**(-0.1472 + 0.5) * exp(-2.5508 * 4**-2.6396)
        law = WeibullTourLaw(TABLE1_MODEL)
        assert law.tour_length_units(4.0, 1.0) == pytest.approx(2.3935, abs=1e-3)

    def test_aspect_ratio_raises_length(self) -> None:
        law = WeibullTourLaw(TABLE1_MODEL)
        assert law.tour_length_units(5.0, 3.0) > law.tour_length_units(5.0, 1.0)
        assert law.mean_tour_units(4.0, 2.0) > law.mean_tour_units(4.0, 1.0)

    def test_mean_matches_scaled_expectation(self) -> None:
        law = WeibullTourLaw(TABLE1_MODEL)
        mu, S = 3.0, 1.5
        expected = (TABLE1_MODEL.beta1 * S + TABLE1_MODEL.beta2) * expected_weibull_power(
            OccupancyLaw(mu), TABLE1_MODEL, TOUR_LENGTH_OFFSET
        )
        assert law.mean_tour_units(mu, S) == pytest.approx(expected, abs=1e-15)


class TestTourUnits:
    def test_weibull_scales_the_two_references(self) -> None:
        law = WeibullTourLaw(TABLE1_MODEL)
        for mu, S in ((0.4, 1.0), (10 / 3, 1.5), (9.0, 3.0)):
            size = TABLE1_MODEL.beta1 * S + TABLE1_MODEL.beta2
            mean, rider = law.tour_units(mu, S)
            assert mean == size * expected_weibull_power(
                OccupancyLaw(mu), TABLE1_MODEL, TOUR_LENGTH_OFFSET
            )
            assert rider == size * expected_ff_wait_kernel(OccupancyLaw(mu), TABLE1_MODEL)

    @pytest.mark.parametrize("law", [WeibullTourLaw(TABLE1_MODEL), YANG_TOUR_LAW])
    def test_takes_arrays(self, law) -> None:
        mu = np.array([0.4, 10 / 3, 9.0])
        mean, rider = law.tour_units(mu, 2.0)
        for i, m in enumerate(mu):
            assert mean[i] == pytest.approx(law.mean_tour_units(float(m), 2.0), rel=1e-14)
            assert rider[i] == pytest.approx(law.rider_tour_units(float(m), 2.0), rel=1e-14)


class TestPolynomialTourLaw:
    def test_yang_hand_value(self) -> None:
        # k = 1.1055 - 0.008*q + 1.0297*S/q, length = k * sqrt(q)
        got = YANG_TOUR_LAW.tour_length_units(4.0, 2.0)
        assert got == pytest.approx((1.1055 - 0.032 + 1.0297 / 2) * 2.0, abs=1e-12)

    def test_mean_tracks_monte_carlo(self) -> None:
        mu, S = 10 / 3, 2.0

        def f(q: np.ndarray) -> np.ndarray:
            x = q + 1.0
            return 1.1055 * x**0.5 - 0.008 * x**1.5 + 1.0297 * S * x**-0.5

        ref = mc_expectation_oracle(OccupancyLaw(mu), f, n_draws=400_000)
        assert YANG_TOUR_LAW.mean_tour_units(mu, S) == pytest.approx(ref, rel=0.02)

    def test_rider_weighting_tracks_monte_carlo(self) -> None:
        mu, S = 10 / 3, 2.0

        def f(q: np.ndarray) -> np.ndarray:
            x = q + 1.0
            return q * (1.1055 * x**0.5 - 0.008 * x**1.5 + 1.0297 * S * x**-0.5)

        ref = mc_expectation_oracle(OccupancyLaw(mu), f, n_draws=400_000)
        assert YANG_TOUR_LAW.rider_tour_units(mu, S) == pytest.approx(ref, rel=0.02)

    def test_tuple_length_validation(self) -> None:
        with pytest.raises(ValueError, match="equal length"):
            PolynomialTourLaw(exponents=(0.5,), coefficients=(1.0, 2.0), s_coefficients=(0.0,))


class TestAsTourLaw:
    def test_wraps_bare_model(self) -> None:
        law = as_tour_law(TABLE1_MODEL)
        assert isinstance(law, WeibullTourLaw)
        assert law.model is TABLE1_MODEL

    def test_passes_law_through(self) -> None:
        assert as_tour_law(YANG_TOUR_LAW) is YANG_TOUR_LAW


class TestMonteCarloOracle:
    def test_deterministic_given_seed(self) -> None:
        law = OccupancyLaw(2.0)
        a = mc_expectation_oracle(law, lambda q: q.astype(float), seed=5)
        b = mc_expectation_oracle(law, lambda q: q.astype(float), seed=5)
        assert a == b
        assert a == pytest.approx(2.0, rel=0.02)

    def test_rejects_tiny_samples(self) -> None:
        with pytest.raises(ValueError, match="draws"):
            mc_expectation_oracle(OccupancyLaw(1.0), lambda q: q, n_draws=100)
