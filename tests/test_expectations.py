"""Tests for occupancy moments and expected-tour-length laws."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import poisson

from drcflex import TABLE1_MODEL, KStarModel
from drcflex.expectations import (
    PRIOR_LAWS,
    RIDER_WEIGHTED_OFFSET,
    TOUR_LENGTH_OFFSET,
    WeibullTourLaw,
    as_tour_law,
    mc_expectation_oracle,
    _second_order,
    _second_order_slope,
)

YANG_TOUR_LAW = PRIOR_LAWS["yang"]


def weibull_f(model: KStarModel, offset: float):
    """Vectorized (Q+1)**(beta3+offset) * exp(beta4*(Q+1)**beta5) for MC audits."""

    def f(q: np.ndarray) -> np.ndarray:
        x = q + 1.0
        return x ** (model.beta3 + offset) * np.exp(model.beta4 * x**model.beta5)

    return f


def unit_moments(mean) -> tuple:
    """The expansion's moments of TABLE1_MODEL at an occupancy mean, read from ``tour_units``.

    With size factor 1 (beta1 = 0, beta2 = 1) a law's tour units are
    E[(Q+1)**(beta3+1/2) * exp(beta4*(Q+1)**beta5)] and the wait kernel
    E[Q * (Q+1)**(beta3+1/2) * exp(beta4*(Q+1)**beta5)].
    """
    b = TABLE1_MODEL
    return WeibullTourLaw((KStarModel(0.0, 1.0, b.beta3, b.beta4, b.beta5),)).tour_units(mean, 1.0)


def weibull_power(mean, offset: float) -> float:
    """E[(Q+1)**(beta3+offset) * exp(beta4*(Q+1)**beta5)] for TABLE1_MODEL, offset 1/2 or 3/2.

    The rider-weighted moment (3/2) is the tour-length moment plus the wait
    kernel, since (Q+1) * f(Q+1) = f(Q+1) + Q * f(Q+1).
    """
    tour, kernel = unit_moments(mean)
    return tour if offset == TOUR_LENGTH_OFFSET else tour + kernel


def ff_wait_kernel(mean) -> float:
    return unit_moments(mean)[1]


class TestOccupancyLaw:
    @pytest.mark.parametrize("mean", [-0.5, float("nan"), float("inf")])
    def test_invalid_mean(self, mean: float) -> None:
        # the oracle samples Q ~ Poisson(mean), so the mean must be finite and non-negative
        with pytest.raises(ValueError, match="occupancy mean"):
            mc_expectation_oracle(mean, lambda q: q)


class TestWeibullPower:
    def test_exact_at_zero_mean(self) -> None:
        # Q is surely 0, so the expectation collapses to exp(beta4).
        got = weibull_power(0.0, TOUR_LENGTH_OFFSET)
        assert got == pytest.approx(math.exp(TABLE1_MODEL.beta4), abs=1e-12)

    @pytest.mark.parametrize("mean", [2.0, 10 / 3, 8.0])
    @pytest.mark.parametrize("offset", [TOUR_LENGTH_OFFSET, RIDER_WEIGHTED_OFFSET])
    def test_tracks_monte_carlo_at_moderate_means(self, mean: float, offset: float) -> None:
        # The second-order expansion is only trusted for means around 2 and up;
        # the acceptance suite documents how it degrades below that.
        got = weibull_power(mean, offset)
        ref = mc_expectation_oracle(mean, weibull_f(TABLE1_MODEL, offset), n_draws=400_000)
        assert got == pytest.approx(ref, rel=0.02)

    def test_wait_kernel_is_difference_of_moments(self) -> None:
        args = (TABLE1_MODEL.beta4, TABLE1_MODEL.beta5)
        expected = _second_order(4.2, TABLE1_MODEL.beta3 + RIDER_WEIGHTED_OFFSET, *args) - _second_order(
            4.2, TABLE1_MODEL.beta3 + TOUR_LENGTH_OFFSET, *args
        )
        assert ff_wait_kernel(4.2) == pytest.approx(expected, abs=1e-15)

    def test_wait_kernel_positive_and_tracks_mc(self) -> None:
        kernel = ff_wait_kernel(10 / 3)
        assert kernel > 0.0
        base = weibull_f(TABLE1_MODEL, TOUR_LENGTH_OFFSET)
        ref = mc_expectation_oracle(10 / 3, lambda q: q * base(q), n_draws=400_000)
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
        got = ff_wait_kernel(mean)
        assert got == pytest.approx(exact, rel=0.02)

    def test_at_mean_2_only_the_difference_leaves_the_band(self) -> None:
        for offset in (TOUR_LENGTH_OFFSET, RIDER_WEIGHTED_OFFSET):
            exact = poisson_sum(2.0, weibull_f(TABLE1_MODEL, offset))
            assert weibull_power(2.0, offset) == pytest.approx(exact, rel=0.02)
        base = weibull_f(TABLE1_MODEL, TOUR_LENGTH_OFFSET)
        exact = poisson_sum(2.0, lambda q: q * base(q))
        error = ff_wait_kernel(2.0) / exact - 1.0
        assert -0.022 < error < -0.02


class TestWeibullTourLaw:
    def test_deterministic_length_hand_value(self) -> None:
        # (0.1102 + 1.4569) * 4**(-0.1472 + 0.5) * exp(-2.5508 * 4**-2.6396)
        law = WeibullTourLaw((TABLE1_MODEL,))
        assert law.tour_length_units(4.0, 1.0) == pytest.approx(2.3935, abs=1e-3)

    def test_aspect_ratio_raises_length(self) -> None:
        law = WeibullTourLaw((TABLE1_MODEL,))
        assert law.tour_length_units(5.0, 3.0) > law.tour_length_units(5.0, 1.0)
        assert law.mean_tour_units(4.0, 2.0) > law.mean_tour_units(4.0, 1.0)

    def test_mean_matches_scaled_expectation(self) -> None:
        law = WeibullTourLaw((TABLE1_MODEL,))
        mu, S = 3.0, 1.5
        expected = (TABLE1_MODEL.beta1 * S + TABLE1_MODEL.beta2) * weibull_power(mu, TOUR_LENGTH_OFFSET)
        assert law.mean_tour_units(mu, S) == pytest.approx(expected, abs=1e-15)

    def test_rejects_an_empty_law_or_a_term_that_is_not_a_model(self) -> None:
        with pytest.raises(ValueError, match="at least one KStarModel"):
            WeibullTourLaw(())
        with pytest.raises(ValueError, match="KStarModel instances, got 0.5"):
            WeibullTourLaw((TABLE1_MODEL, 0.5))


class TestSlopes:
    """The analytic slope in mu of the expansion, against a central difference."""

    LAWS = {
        "fitted": WeibullTourLaw((TABLE1_MODEL,)),
        "yang": YANG_TOUR_LAW,
        "constant": WeibullTourLaw((KStarModel(0.0, 0.93, 0.0, 0.0, 1.0),)),
    }

    @pytest.mark.parametrize("name", LAWS)
    def test_tour_slopes_match_a_central_difference(self, name: str) -> None:
        law = self.LAWS[name]
        mu = np.linspace(0.0, 40.0, 401)
        step = 1e-5 * (1.0 + mu)
        for S in (1.0, 1.5, 3.0):
            up, down = law.tour_units(mu + step, S), law.tour_units(mu - step, S)
            for slope, hi, lo in zip(law.tour_slopes(mu, S), up, down):
                np.testing.assert_allclose(slope, (hi - lo) / (2.0 * step), rtol=1e-7)

    def test_second_order_slope_at_each_exponent(self) -> None:
        mu = np.linspace(0.0, 40.0, 401)
        step = 1e-5 * (1.0 + mu)
        for m in (TABLE1_MODEL, *YANG_TOUR_LAW.terms):
            for offset in (TOUR_LENGTH_OFFSET, RIDER_WEIGHTED_OFFSET):
                args = (m.beta3 + offset, m.beta4, m.beta5)
                diff = (_second_order(mu + step, *args) - _second_order(mu - step, *args)) / (2.0 * step)
                np.testing.assert_allclose(_second_order_slope(mu, *args), diff, rtol=1e-7)


class TestTourUnits:
    def test_weibull_scales_the_two_references(self) -> None:
        law = WeibullTourLaw((TABLE1_MODEL,))
        for mu, S in ((0.4, 1.0), (10 / 3, 1.5), (9.0, 3.0)):
            size = TABLE1_MODEL.beta1 * S + TABLE1_MODEL.beta2
            mean, rider = law.tour_units(mu, S)
            assert mean == size * weibull_power(mu, TOUR_LENGTH_OFFSET)
            assert rider == size * ff_wait_kernel(mu)

    @pytest.mark.parametrize("law", [WeibullTourLaw((TABLE1_MODEL,)), YANG_TOUR_LAW])
    def test_takes_arrays(self, law) -> None:
        # a mean gives the same bits alone as inside an array
        mu = np.array([0.4, 10 / 3, 9.0])
        mean, rider = law.tour_units(mu, 2.0)
        for i, m in enumerate(mu):
            assert mean[i] == law.mean_tour_units(float(m), 2.0)
            assert rider[i] == law.rider_tour_units(float(m), 2.0)


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

        ref = mc_expectation_oracle(mu, f, n_draws=400_000)
        assert YANG_TOUR_LAW.mean_tour_units(mu, S) == pytest.approx(ref, rel=0.02)

    def test_rider_weighting_tracks_monte_carlo(self) -> None:
        mu, S = 10 / 3, 2.0

        def f(q: np.ndarray) -> np.ndarray:
            x = q + 1.0
            return q * (1.1055 * x**0.5 - 0.008 * x**1.5 + 1.0297 * S * x**-0.5)

        ref = mc_expectation_oracle(mu, f, n_draws=400_000)
        assert YANG_TOUR_LAW.rider_tour_units(mu, S) == pytest.approx(ref, rel=0.02)

    def test_keeps_the_bits_of_the_polynomial_arithmetic(self) -> None:
        # Yang's law used to be written as sum_i c_i(S) * q**e_i with c_i(S) = c + cs*S,
        # expanded moment by moment; its three k* terms must give the same bits.
        # The terms are added left to right, as sum() adds floats before Python 3.12.
        terms = tuple(zip((0.5, 1.5, -0.5), (1.1055, -0.008, 0.0), (0.0, 0.0, 1.0297)))  # e, c, cs

        def total(parts):
            first, *rest = parts
            for part in rest:
                first = first + part
            return first

        def moment(mu, e):
            return _second_order(mu, e, 0.0, 1.0)

        mu = np.linspace(0.0, 40.0, 801)
        for S in (1.0, 4 / 3, 1.5, 2.0, 3.0, 6.0):
            mean = total([(c + cs * S) * moment(mu, e) for e, c, cs in terms])
            rider = total([(c + cs * S) * (moment(mu, e + 1.0) - moment(mu, e)) for e, c, cs in terms])
            got_mean, got_rider = YANG_TOUR_LAW.tour_units(mu, S)
            assert np.array_equal(got_mean, mean) and np.array_equal(got_rider, rider)
            for q in (1.0, 2.0, 3.5, 7.0, 41.0):
                length = total([(c + cs * S) * q**e for e, c, cs in terms])
                assert YANG_TOUR_LAW.tour_length_units(q, S) == length


class TestAsTourLaw:
    def test_wraps_bare_model(self) -> None:
        law = as_tour_law(TABLE1_MODEL)
        assert isinstance(law, WeibullTourLaw)
        assert law.terms == (TABLE1_MODEL,)

    def test_passes_law_through(self) -> None:
        assert as_tour_law(YANG_TOUR_LAW) is YANG_TOUR_LAW


class TestMonteCarloOracle:
    def test_deterministic_given_seed(self) -> None:
        a = mc_expectation_oracle(2.0, lambda q: q.astype(float), seed=5)
        b = mc_expectation_oracle(2.0, lambda q: q.astype(float), seed=5)
        assert a == b
        assert a == pytest.approx(2.0, rel=0.02)

    def test_rejects_tiny_samples(self) -> None:
        with pytest.raises(ValueError, match="draws"):
            mc_expectation_oracle(1.0, lambda q: q, n_draws=100)
