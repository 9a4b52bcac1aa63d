"""Second-order expectations of tour-length terms under random occupancy.

The expected-cost model needs moments of the form

    E[(Q+1)**a * exp(beta4 * (Q+1)**beta5)]

with Q the Poisson number of requests sharing a dispatch and the exponent a
set by the k* law (a = beta3 + 3/2 for rider-weighted terms, beta3 + 1/2 for
plain tour length).  A closed form does not exist, so the terms are expanded
to second order around mu + 1 where mu = E[Q]; with Var[Q] = mu for Poisson
arrivals the expansion needs nothing beyond the mean.

The expansion is promised within 2% of the exact expectation for means of 2
and up (worst 1.8% on [2, 12] for TABLE1_MODEL).  Below that it degrades:
the 2% band ends at mean 1.75 for the tour-length term and 1.86 for the
rider-weighted term, and the error reaches 15% at mean 0.75.  The cost model
flags every design with a zone below ``costs.LOW_OCCUPANCY_MEAN`` (2.0) with
a ``LowOccupancyWarning`` and a "low_occupancy" search-log note.

A brute-force Monte Carlo oracle is included so the expansion's accuracy can
be audited for any occupancy mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .tourlength import KStarModel

RIDER_WEIGHTED_OFFSET = 1.5  # exponent offset for E[Q * (Q+1)**(beta3+1/2) ...] terms
TOUR_LENGTH_OFFSET = 0.5  # exponent offset for plain expected tour length


@dataclass(frozen=True)
class OccupancyLaw:
    """Poisson request count per dispatch, parameterized by its mean."""

    mean: float

    def __post_init__(self) -> None:
        if self.mean < 0 or not math.isfinite(self.mean):
            raise ValueError(f"occupancy mean must be finite and non-negative, got {self.mean}")


def poisson_moments(law: OccupancyLaw) -> tuple[float, float]:
    """(E[Q], E[Q**2]) for the occupancy law; E[Q**2] = mu**2 + mu."""
    mu = law.mean
    return mu, mu * mu + mu


# The expansions take floats or numpy values.  Numpy values go through the
# ufuncs, never numpy's scalar shortcuts, so that a 0-d call and a vector call
# agree bit for bit; floats go through libm.


def _exp(x):
    return np.exp(x) if isinstance(x, (np.ndarray, np.generic)) else math.exp(x)


def _pow(x, a: float):
    return np.power(x, a) if isinstance(x, (np.ndarray, np.generic)) else x ** a


def _second_order(mu, a: float, b4: float, b5: float, growth=None):
    """E[X**a * exp(b4 * X**b5)] for X = Q + 1, expanded around mu1 = mu + 1.

    Writing g(x) = x**a * exp(b4 * x**b5), the expansion E[g(X)] ~= g(mu1)
    + g''(mu1) * Var[X] / 2 with Var[X] = mu gives

        exp(b4 * mu1**b5) * ( mu1**a
            + ( a*(a-1)*mu1**(a-2)
              + b4*b5*(2*a + b5 - 1)*mu1**(a + b5 - 2)
              + b4**2 * b5**2 * mu1**(a + 2*b5 - 2) ) * mu / 2 )

    ``mu`` may be a float or an array.  ``growth``, when given, is the
    precomputed factor exp(b4 * mu1**b5), which every moment of one law shares.
    """
    mu1 = mu + 1.0
    head = _pow(mu1, a)
    curv = (
        a * (a - 1.0) * _pow(mu1, a - 2.0)
        + b4 * b5 * (2.0 * a + b5 - 1.0) * _pow(mu1, a + b5 - 2.0)
        + b4 * b4 * b5 * b5 * _pow(mu1, a + 2.0 * b5 - 2.0)
    )
    if growth is None:
        growth = _exp(b4 * _pow(mu1, b5))
    return growth * (head + curv * mu / 2.0)


def expected_weibull_power(law: OccupancyLaw, model: KStarModel, offset: float) -> float:
    """Second-order estimate of E[(Q+1)**(beta3+offset) * exp(beta4*(Q+1)**beta5)].

    ``offset`` selects the term: 1/2 for expected tour length, 3/2 for the
    rider-weighted variant.  At mean 0 the value is exact (Q is surely 0).
    Within 2% of the exact expectation for means >= 2; below that it may be
    up to 15% off, and the cost model flags such zones (see module notes).
    """
    if offset not in (RIDER_WEIGHTED_OFFSET, TOUR_LENGTH_OFFSET):
        raise ValueError(f"offset must be 0.5 or 1.5, got {offset}")
    return _second_order(law.mean, model.beta3 + offset, model.beta4, model.beta5)


def expected_ff_wait_kernel(law: OccupancyLaw, model: KStarModel) -> float:
    """Second-order estimate of E[Q * (Q+1)**(beta3+1/2) * exp(beta4*(Q+1)**beta5)].

    Follows from Q * f(Q+1) = (Q+1) * f(Q+1) - f(Q+1): the rider-weighted
    moment minus the tour-length moment.  The difference is a little less
    accurate than either moment: for TABLE1_MODEL it is 2.16% below the
    exact Poisson sum at mean 2.0, 1.99% below at 2.11 and 1.85% below at
    2.2, and 19% off at mean 0.5, below the low-occupancy flag.
    """
    return expected_weibull_power(law, model, RIDER_WEIGHTED_OFFSET) - expected_weibull_power(
        law, model, TOUR_LENGTH_OFFSET
    )


@runtime_checkable
class TourLengthLaw(Protocol):
    """Expected-tour-length law consumed by the cost model.

    Both methods return lengths in units of sqrt(zone area):
    ``mean_tour_units`` is E[L(Q+1)] / sqrt(l*w) and ``rider_tour_units`` is
    E[Q * L(Q+1)] / sqrt(l*w), where L(q) is the law's tour length over q
    stops in a unit-area zone of aspect ratio S.
    """

    def mean_tour_units(self, mu: float, S: float) -> float: ...

    def rider_tour_units(self, mu: float, S: float) -> float: ...

    def tour_length_units(self, q: float, S: float) -> float:
        """Deterministic L(q) / sqrt(l*w) at an exact stop count q."""
        ...

    def tour_units(self, mu, S: float) -> tuple:
        """(mean_tour_units, rider_tour_units) at once; ``mu`` may be an array."""
        ...


@dataclass(frozen=True)
class WeibullTourLaw:
    """Tour-length law L(q) = (beta1*S + beta2) * q**... * sqrt(q*l*w)."""

    model: KStarModel

    def _size_factor(self, S: float) -> float:
        return self.model.beta1 * S + self.model.beta2

    def mean_tour_units(self, mu: float, S: float) -> float:
        return self.tour_units(mu, S)[0]

    def rider_tour_units(self, mu: float, S: float) -> float:
        return self.tour_units(mu, S)[1]

    def tour_units(self, mu, S: float) -> tuple:
        # expected_weibull_power and expected_ff_wait_kernel scaled by the
        # size factor, sharing one growth factor
        m = self.model
        growth = _exp(m.beta4 * _pow(mu + 1.0, m.beta5))
        tour = _second_order(mu, m.beta3 + TOUR_LENGTH_OFFSET, m.beta4, m.beta5, growth)
        rider = _second_order(mu, m.beta3 + RIDER_WEIGHTED_OFFSET, m.beta4, m.beta5, growth)
        size = self._size_factor(S)
        return size * tour, size * (rider - tour)

    def tour_length_units(self, q: float, S: float) -> float:
        m = self.model
        return (
            self._size_factor(S)
            * q ** (m.beta3 + 0.5)
            * math.exp(m.beta4 * q ** m.beta5)
        )


@dataclass(frozen=True)
class PolynomialTourLaw:
    """Tour laws of the form L(q) = sum_i c_i(S) * q**e_i * sqrt(l*w).

    Covers the regression benchmark k* = 1.1055 - 0.008*q + 1.0297*S/q
    (terms q**0.5, q**1.5, S*q**-0.5 after multiplying by sqrt(q)).  The
    same second-order expansion used for the Weibull law applies with the
    exponential factor switched off.
    """

    exponents: tuple[float, ...]
    coefficients: tuple[float, ...]  # constant part of each c_i(S)
    s_coefficients: tuple[float, ...]  # S-proportional part of each c_i(S)

    def __post_init__(self) -> None:
        if not (len(self.exponents) == len(self.coefficients) == len(self.s_coefficients)):
            raise ValueError("exponent and coefficient tuples must have equal length")

    def _moment(self, mu: float, a: float) -> float:
        return _second_order(mu, a, 0.0, 1.0)

    def mean_tour_units(self, mu: float, S: float) -> float:
        return sum(
            (c + cs * S) * self._moment(mu, e)
            for e, c, cs in zip(self.exponents, self.coefficients, self.s_coefficients)
        )

    def rider_tour_units(self, mu: float, S: float) -> float:
        # Q * f(Q+1) = (Q+1) * f(Q+1) - f(Q+1), term by term
        return sum(
            (c + cs * S) * (self._moment(mu, e + 1.0) - self._moment(mu, e))
            for e, c, cs in zip(self.exponents, self.coefficients, self.s_coefficients)
        )

    def tour_units(self, mu, S: float) -> tuple:
        return self.mean_tour_units(mu, S), self.rider_tour_units(mu, S)

    def tour_length_units(self, q: float, S: float) -> float:
        return sum(
            (c + cs * S) * q ** e
            for e, c, cs in zip(self.exponents, self.coefficients, self.s_coefficients)
        )


YANG_TOUR_LAW = PolynomialTourLaw(
    exponents=(0.5, 1.5, -0.5),
    coefficients=(1.1055, -0.008, 0.0),
    s_coefficients=(0.0, 0.0, 1.0297),
)


def as_tour_law(model_or_law: KStarModel | TourLengthLaw) -> TourLengthLaw:
    """Wrap a bare coefficient set in its law; pass laws through unchanged."""
    if isinstance(model_or_law, KStarModel):
        return WeibullTourLaw(model_or_law)
    return model_or_law


def mc_expectation_oracle(
    law: OccupancyLaw,
    f: Callable[[np.ndarray], np.ndarray],
    n_draws: int = 100_000,
    seed: int = 0,
) -> float:
    """Monte Carlo E[f(Q)] under the occupancy law, for auditing the expansions.

    ``f`` must be vectorized over an integer array of Poisson draws.
    """
    if n_draws < 10_000:
        raise ValueError("need at least 10000 draws for a stable estimate")
    rng = np.random.default_rng(seed)
    draws = rng.poisson(law.mean, size=n_draws)
    return float(np.mean(f(draws)))
