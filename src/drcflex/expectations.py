"""Second-order expectations of tour-length terms under random occupancy.

The expected-cost model needs moments of the form

    E[(Q+1)**a * exp(beta4 * (Q+1)**beta5)]

with Q the Poisson number of requests sharing a dispatch and the exponent a
set by the k* law (a = beta3 + 3/2 for rider-weighted terms, beta3 + 1/2 for
plain tour length).  A closed form does not exist, so the terms are expanded
to second order around mu + 1 where mu = E[Q]; with Var[Q] = mu for Poisson
arrivals the expansion needs nothing beyond the mean.

Every tour-length law is one ``WeibullTourLaw``, a sum of such terms, one
per ``KStarModel``: the fitted k* law is one term, and the laws of earlier
studies, ``PRIOR_LAWS`` by ``--kstar-mode`` name, are one term for each
constant k* and three with beta4 = 0 for Yang's regression.  The expansion's
one entry point is ``WeibullTourLaw.tour_units``; ``KStarModel.units``
evaluates each term at an exact stop count.

The expansion is promised within 2% of the exact expectation for means of 2
and up (worst 1.8% on [2, 12] for TABLE1_MODEL).  Below that it degrades:
the 2% band ends at mean 1.75 for the tour-length term and 1.86 for the
rider-weighted term, and the error reaches 15% at mean 0.75.  The cost model
flags every design with a zone below ``costs.LOW_OCCUPANCY_MEAN`` (2.0) with
a ``LowOccupancyWarning`` and a "low_occupancy" search-log note.

A brute-force Monte Carlo oracle, ``mc_expectation_oracle``, is included so
the expansion's accuracy can be audited for any occupancy mean.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .tourlength import KStarModel

RIDER_WEIGHTED_OFFSET = 1.5  # exponent offset for E[Q * (Q+1)**(beta3+1/2) ...] terms
TOUR_LENGTH_OFFSET = 0.5  # exponent offset for plain expected tour length


def _curvature_terms(a: float, b4: float, b5: float) -> tuple:
    """(coefficient, power of mu1) of the three terms of the expansion's curvature factor."""
    return (
        (a * (a - 1.0), a - 2.0),
        (b4 * b5 * (2.0 * a + b5 - 1.0), a + b5 - 2.0),
        (b4 * b4 * b5 * b5, a + 2.0 * b5 - 2.0),
    )


def _second_order(mu, a: float, b4: float, b5: float, growth=None):
    """E[X**a * exp(b4 * X**b5)] for X = Q + 1, expanded around mu1 = mu + 1.

    Writing g(x) = x**a * exp(b4 * x**b5), the expansion E[g(X)] ~= g(mu1)
    + g''(mu1) * Var[X] / 2 with Var[X] = mu gives

        exp(b4 * mu1**b5) * ( mu1**a
            + ( a*(a-1)*mu1**(a-2)
              + b4*b5*(2*a + b5 - 1)*mu1**(a + b5 - 2)
              + b4**2 * b5**2 * mu1**(a + 2*b5 - 2) ) * mu / 2 )

    ``mu`` may be a float or an array.  The powers and the exponential are
    numpy ufuncs for both, so one mean gives the same bits alone or inside an
    array.  ``growth``, when given, is the precomputed factor
    exp(b4 * mu1**b5), which every moment of one law shares.
    """
    mu1 = mu + 1.0
    (k1, p1), (k2, p2), (k3, p3) = _curvature_terms(a, b4, b5)
    curv = k1 * np.power(mu1, p1) + k2 * np.power(mu1, p2) + k3 * np.power(mu1, p3)
    if growth is None:
        growth = np.exp(b4 * np.power(mu1, b5))
    return growth * (np.power(mu1, a) + curv * mu / 2.0)


def _second_order_slope(mu, a: float, b4: float, b5: float, growth=None):
    """d/dmu of ``_second_order``, analytic; ``growth`` as there.

    With G = exp(b4 * mu1**b5) and c the curvature factor, a sum of three
    powers of mu1, the expansion is G * (mu1**a + c * mu / 2), so its slope is
    G * (b4*b5*mu1**(b5-1) * (mu1**a + c*mu/2) + a*mu1**(a-1) + c'*mu/2 + c/2).
    """
    mu1 = mu + 1.0
    powers = _curvature_terms(a, b4, b5)
    curv = sum(k * np.power(mu1, p) for k, p in powers)
    dcurv = sum(k * p * np.power(mu1, p - 1.0) for k, p in powers)
    if growth is None:
        growth = np.exp(b4 * np.power(mu1, b5))
    rate = b4 * b5 * np.power(mu1, b5 - 1.0)
    return growth * (rate * (np.power(mu1, a) + curv * mu / 2.0) + a * np.power(mu1, a - 1.0) + dcurv * mu / 2.0 + curv / 2.0)


def _term_units(m: KStarModel, mu, S, moment) -> tuple:
    """One term's (tour, rider) units: its size times the tour-length moment and times the rider-weighted
    moment less it, as Q*f(Q+1) = (Q+1)*f(Q+1) - f(Q+1); their slopes with ``_second_order_slope``."""
    growth = np.exp(m.beta4 * np.power(mu + 1.0, m.beta5))
    tour = moment(mu, m.beta3 + TOUR_LENGTH_OFFSET, m.beta4, m.beta5, growth)
    rider = moment(mu, m.beta3 + RIDER_WEIGHTED_OFFSET, m.beta4, m.beta5, growth)
    size = m.beta1 * S + m.beta2
    return size * tour, size * (rider - tour)


@dataclass(frozen=True)
class WeibullTourLaw:
    """Expected-tour-length law consumed by the cost model.

    The tour over q stops in a zone of area l*w and aspect ratio S is
    L(q) = sqrt(l*w) * sum over ``terms`` of
    (beta1*S + beta2) * q**(beta3 + 1/2) * exp(beta4 * q**beta5),
    i.e. k*(q, S) * sqrt(q*l*w) with k* a sum of terms.  The fitted k* law is
    one term, a constant k* one term with only beta2 set, and Yang's
    regression three terms with beta4 = 0 (``PRIOR_LAWS``).

    Every method returns lengths in units of sqrt(zone area), adding the
    terms in order: ``mean_tour_units`` is E[L(Q+1)] / sqrt(l*w) and
    ``rider_tour_units`` is E[Q * L(Q+1)] / sqrt(l*w).
    """

    terms: tuple[KStarModel, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a tour-length law needs at least one KStarModel term")
        for term in self.terms:
            if not isinstance(term, KStarModel):
                raise ValueError(f"tour-law terms must be KStarModel instances, got {term!r}")

    def mean_tour_units(self, mu: float, S: float) -> float:
        return self.tour_units(mu, S)[0]

    def rider_tour_units(self, mu: float, S: float) -> float:
        return self.tour_units(mu, S)[1]

    def tour_units(self, mu, S: float) -> tuple:
        """(mean_tour_units, rider_tour_units) at once; ``mu`` may be an array."""
        return self._add_terms(_second_order, mu, S)

    def tour_slopes(self, mu, S: float) -> tuple:
        """d/dmu of ``tour_units``, added term by term."""
        return self._add_terms(_second_order_slope, mu, S)

    def _add_terms(self, moment, mu, S: float) -> tuple:
        first, *rest = self.terms
        mean, rider = _term_units(first, mu, S, moment)
        for tour, ride in (_term_units(m, mu, S, moment) for m in rest):
            mean, rider = mean + tour, rider + ride
        return mean, rider

    def tour_length_units(self, q: float, S: float) -> float:
        """Deterministic L(q) / sqrt(l*w) at an exact stop count q."""
        return float(reduce(operator.add, (m.units(q, S, TOUR_LENGTH_OFFSET) for m in self.terms)))


# Laws of earlier studies by --kstar-mode name: Chakraborti's and Daganzo's constant k*, and Yang's
# k* = 1.1055 - 0.008*q + 1.0297*S/q, whose tour k* * sqrt(q) has terms q**0.5, q**1.5 and S*q**-0.5.
PRIOR_LAWS = {
    "chakraborti": WeibullTourLaw((KStarModel(0.0, 0.93, 0.0, 0.0, 1.0),)),
    "daganzo115": WeibullTourLaw((KStarModel(0.0, 1.15, 0.0, 0.0, 1.0),)),
    "yang": WeibullTourLaw((
        KStarModel(0.0, 1.1055, 0.0, 0.0, 1.0),
        KStarModel(0.0, -0.008, 1.0, 0.0, 1.0),
        KStarModel(1.0297, 0.0, -1.0, 0.0, 1.0),
    )),
}


def as_tour_law(model_or_law: KStarModel | WeibullTourLaw) -> WeibullTourLaw:
    """Wrap a bare coefficient set as a one-term law; pass laws through unchanged."""
    if isinstance(model_or_law, KStarModel):
        return WeibullTourLaw((model_or_law,))
    return model_or_law


def mc_expectation_oracle(
    mean: float,
    f: Callable[[np.ndarray], np.ndarray],
    n_draws: int = 100_000,
    seed: int = 0,
) -> float:
    """Monte Carlo E[f(Q)] for Q Poisson with this mean, for auditing the expansions.

    ``f`` must be vectorized over an integer array of Poisson draws.
    """
    if not (math.isfinite(mean) and mean >= 0):
        raise ValueError(f"occupancy mean must be finite and non-negative, got {mean}")
    if n_draws < 10_000:
        raise ValueError("need at least 10000 draws for a stable estimate")
    rng = np.random.default_rng(seed)
    draws = rng.poisson(mean, size=n_draws)
    return float(np.mean(f(draws)))
