"""Hourly generalized-cost model for both feeder routing strategies.

Every component is an hourly cost in hours of equivalent patron time for one
zone, split across nine books: discounted waiting (C_W, outbound only), local
in-vehicle time per direction (C_Tp, C_Td), line-haul riding (C_Lp, C_Ld),
terminal transfers (C_Rp, C_Rd), and agency distance and time costs (C_vk,
C_vh).  The generalized cost GC is their sum over all zones; dividing by the
total hourly patronage gives the per-patron figure the experiments report.

Under fully-flexible routing each dispatch runs a door-to-door tour over the
Q requests of a headway plus the dispatch point, with expected length
k*(Q+1, S) * sqrt((Q+1)*l*w).  Under semi-flexible routing buses sweep fixed
serpentine paths of swath width w0 and patrons walk to the passing bus, so
waiting drops (no share of the collection tour) while the vehicle path
acquires the fixed lw/w0 + w0/2 sweep.

One kernel, ``zone_books``, computes every book of one zone and direction
for either strategy, at one headway or at a whole array of them: the
optimizer scans a zone's headways in a single call and refines on the same
kernel at scalar H.  The FF tour terms share one exp(beta4*(mu+1)**beta5)
factor per call.  ``zone_cost_terms`` and the per-book functions
(``ff_wait_cost_zone`` and the rest) are views of it.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Any, Iterator, Literal, NamedTuple

import numpy as np

from .expectations import TourLengthLaw, as_tour_law
from .params import ScenarioParams, ZoneGrid, ZoneIndex, line_haul_distance
from .tourlength import TABLE1_MODEL, KStarModel, feasible_swath_widths

FULLY_FLEXIBLE = "fully_flexible"
SEMI_FLEXIBLE = "semi_flexible"
STRATEGIES = (FULLY_FLEXIBLE, SEMI_FLEXIBLE)

Direction = Literal["outbound", "inbound"]
DIRECTIONS: tuple[Direction, Direction] = ("outbound", "inbound")

# Below this per-dispatch occupancy the second-order expansions in the
# expected tour terms are not promised to be within 2% of the exact Poisson
# expectation; callers are warned once.  For TABLE1_MODEL the error leaves
# the 2% band below mean 1.75 (tour-length term) and 1.86 (rider-weighted
# term) and reaches 15% at mean 0.75; from mean 2 to 12 it stays under 1.9%.
# expectations.expected_ff_wait_kernel, their difference, is less accurate:
# -2.16% at mean 2.0, -1.99% at 2.11, -1.85% at 2.2.  So zones at means 2.0
# to 2.11 are within 2% on both moments but not on their difference.  The
# flag stays at 2.0 because the base FF optimum's H_min zones sit at mean 2.0.
LOW_OCCUPANCY_MEAN = 2.0


class LowOccupancyWarning(UserWarning):
    """Some zone's mean occupancy is below ``LOW_OCCUPANCY_MEAN``.

    Below that mean the second-order tour expectations may be several
    percent off (up to 15% for TABLE1_MODEL, whose 2% band ends at mean 1.86).
    """


class InfeasibleDesignError(ValueError):
    """A design violates a hard constraint; names the constraint and zone."""

    def __init__(self, constraint: str, zone: ZoneIndex | None, detail: str):
        self.constraint = constraint
        self.zone = zone
        where = f" at zone {(zone.m, zone.n)}" if zone is not None else ""
        super().__init__(f"infeasible design: {constraint}{where}: {detail}")


@dataclass(frozen=True)
class ZoneDesign:
    """Operational variables of one zone: headways and the sync multiple."""

    z: ZoneIndex
    H_p: float  # outbound dispatch headway (h)
    H_d: float  # inbound dispatch headway (h), gamma * H_t by construction
    gamma: int

    def __post_init__(self) -> None:
        if self.H_p <= 0 or self.H_d <= 0:
            raise ValueError("headways must be positive")
        if self.gamma < 1:
            raise ValueError("gamma must be a positive integer")

    def headway(self, direction: Direction) -> float:
        return self.H_p if direction == "outbound" else self.H_d


@dataclass(frozen=True)
class DesignSolution:
    """A complete service design: strategy, grid, fleet size, zone variables."""

    strategy: str
    grid: ZoneGrid
    K: int
    zones: tuple[ZoneDesign, ...]
    w0: float | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.K < 1:
            raise ValueError("vehicle capacity K must be at least 1")
        expected = {(z.m, z.n) for z in self.grid.zones()}
        got = {(zd.z.m, zd.z.n) for zd in self.zones}
        if got != expected:
            raise ValueError("zone designs must cover every grid zone exactly once")
        if (self.w0 is not None) != (self.strategy == SEMI_FLEXIBLE):
            raise ValueError("w0 must be present exactly for the semi-flexible strategy")

    def zone(self, z: ZoneIndex) -> ZoneDesign:
        for zd in self.zones:
            if zd.z == z:
                return zd
        raise KeyError(f"no design for zone {(z.m, z.n)}")


@dataclass(frozen=True)
class ZoneCostTerms:
    """The nine hourly cost books for one zone (hours of equivalent time)."""

    C_W: float
    C_Tp: float
    C_Td: float
    C_Lp: float
    C_Ld: float
    C_Rp: float
    C_Rd: float
    C_vk: float
    C_vh: float

    FIELDS = ("C_W", "C_Tp", "C_Td", "C_Lp", "C_Ld", "C_Rp", "C_Rd", "C_vk", "C_vh")

    @property
    def total(self) -> float:
        return sum(getattr(self, f) for f in self.FIELDS)

    @property
    def user(self) -> float:
        return self.total - self.C_vk - self.C_vh

    @property
    def agency(self) -> float:
        return self.C_vk + self.C_vh


@dataclass(frozen=True)
class CostBreakdown:
    """Aggregate cost books plus the matrix of per-zone terms."""

    C_W: float
    C_Tp: float
    C_Td: float
    C_Lp: float
    C_Ld: float
    C_Rp: float
    C_Rd: float
    C_vk: float
    C_vh: float
    GC: float
    gc_per_patron_min: float
    per_zone: dict[tuple[int, int], ZoneCostTerms]

    @property
    def user(self) -> float:
        return self.C_W + self.C_Tp + self.C_Td + self.C_Lp + self.C_Ld + self.C_Rp + self.C_Rd

    @property
    def agency(self) -> float:
        return self.C_vk + self.C_vh

    def to_csv(self, path) -> None:
        """One row per zone per component, then an aggregate row."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["zone_m", "zone_n", *ZoneCostTerms.FIELDS, "total"])
            for (m, n), terms in sorted(self.per_zone.items()):
                writer.writerow(
                    [m, n]
                    + [f"{getattr(terms, f):.9f}" for f in ZoneCostTerms.FIELDS]
                    + [f"{terms.total:.9f}"]
                )
            writer.writerow(
                ["all", "all"]
                + [f"{getattr(self, f):.9f}" for f in ZoneCostTerms.FIELDS]
                + [f"{self.GC:.9f}"]
            )


# ---------------------------------------------------------------------------
# The cost kernel
# ---------------------------------------------------------------------------


class ZoneBooks(NamedTuple):
    """One zone-direction's hourly books, each a float or an array over H.

    ``wait`` is C_W outbound and 0 inbound; ``dist`` and ``time`` are this
    direction's shares of the agency books C_vk and C_vh.
    """

    wait: Any
    tour: Any  # C_Tp or C_Td
    line_haul: Any  # C_Lp or C_Ld
    transfer: Any  # C_Rp or C_Rd
    dist: Any
    time: Any

    @property
    def total(self):
        """Every book that depends on this direction's headway."""
        return self.wait + self.tour + self.line_haul + self.transfer + self.dist + self.time


def zone_books(
    params: ScenarioParams,
    grid: ZoneGrid,
    D: float,
    H,
    direction: Direction,
    strategy: str,
    model: KStarModel | TourLengthLaw | None = None,
    w0: float | None = None,
    K: int = 1,
    gamma=1,
) -> ZoneBooks:
    """The books of a zone at line-haul distance D for one direction.

    ``H`` is the direction's headway: a scalar, or an array to evaluate every
    book at many headways in one call (``gamma``, the inbound sync multiple,
    broadcasts with it).  Scalars are computed as Python floats with libm;
    arrays, 0-d ones included, with numpy ufuncs, which may differ from libm
    by an ulp.  ``model`` is needed only for fully flexible routing and
    ``w0`` only for semi-flexible; ``K`` matters only to the agency books.
    """
    if not isinstance(H, np.ndarray):
        H = float(H)
    outbound = direction == "outbound"
    tau = params.tau_p if outbound else params.tau_d
    area = grid.area
    mu = (params.lambda_p if outbound else params.lambda_d) * H * area
    q2 = mu * mu + mu
    v = params.v_l
    line_haul = D / (H * v) * mu
    if outbound:
        per_patron = params.t_ft + params.H_t / 2.0
        queue = params.tau_a
    else:
        per_patron = params.t_tf + (gamma - 1) * H / (2.0 * gamma)
        queue = params.tau_b
    transfer = mu / H * per_patron + queue / (2.0 * H) * q2
    if strategy == FULLY_FLEXIBLE:
        s = math.sqrt(area)
        tour_units, rider_units = as_tour_law(model).tour_units(mu, grid.S)
        half_tour = rider_units * s / (2.0 * H * v)
        tour = half_tour + tau / (2.0 * H) * q2
        wait = params.alpha * (mu / 2.0 + half_tour + params.tau_p / (2.0 * H) * q2) if outbound else 0.0
        dist_per_h = (D + tour_units * s) / H
    elif strategy == SEMI_FLEXIBLE:
        if w0 is None or w0 <= 0:
            raise ValueError("swath width must be positive")
        wait = params.alpha / H * mu * (H / 2.0 + w0 / (3.0 * v)) if outbound else 0.0
        sweep = area / (v * w0) + w0 / (2.0 * v)
        tour = (sweep * mu + (w0 / (3.0 * v) + tau) * q2) / (2.0 * H)
        dist_per_h = (area / w0 + w0 / 2.0 + D + mu * w0 / 3.0) / H
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    dist = params.pi_v(K) / params.theta * dist_per_h
    time = params.pi_m(K) / params.theta * (dist_per_h / v + tau * mu / H)
    return ZoneBooks(wait, tour, line_haul, transfer, dist, time)


def _books(
    params: ScenarioParams,
    grid: ZoneGrid,
    zd: ZoneDesign,
    direction: Direction,
    strategy: str,
    model: KStarModel | TourLengthLaw | None = None,
    w0: float | None = None,
    K: int = 1,
) -> ZoneBooks:
    D = line_haul_distance(grid, zd.z)
    return zone_books(params, grid, D, zd.headway(direction), direction, strategy, model, w0, K, zd.gamma)


# The per-book functions below are views of the kernel.  Line-haul and
# transfer books depend on neither the strategy nor the tour law, so their
# views read any one strategy's books.


def ff_wait_cost_zone(
    params: ScenarioParams, grid: ZoneGrid, zd: ZoneDesign, model: KStarModel | TourLengthLaw
) -> float:
    """Discounted at-home waiting: half headway, half tour, boarding queue."""
    return _books(params, grid, zd, "outbound", FULLY_FLEXIBLE, model).wait


def ff_local_tour_cost_zone(
    params: ScenarioParams,
    grid: ZoneGrid,
    zd: ZoneDesign,
    model: KStarModel | TourLengthLaw,
    direction: Direction,
) -> float:
    """In-vehicle share of the collection tour: half the tour plus dwells."""
    return _books(params, grid, zd, direction, FULLY_FLEXIBLE, model).tour


def line_haul_cost_zone(
    params: ScenarioParams, grid: ZoneGrid, zd: ZoneDesign, direction: Direction
) -> float:
    """Riding between the zone and the terminal: D/v per patron."""
    return _books(params, grid, zd, direction, FULLY_FLEXIBLE, TABLE1_MODEL).line_haul


def transfer_cost_zone(
    params: ScenarioParams, grid: ZoneGrid, zd: ZoneDesign, direction: Direction
) -> float:
    """Terminal transfer: walk, trunk-sync wait, and the boarding queue."""
    return _books(params, grid, zd, direction, FULLY_FLEXIBLE, TABLE1_MODEL).transfer


def ff_agency_cost_direction(
    params: ScenarioParams,
    grid: ZoneGrid,
    zd: ZoneDesign,
    model: KStarModel | TourLengthLaw,
    K: int,
    direction: Direction,
) -> tuple[float, float]:
    """One direction's (distance cost, time cost) for one zone."""
    return _books(params, grid, zd, direction, FULLY_FLEXIBLE, model, K=K)[4:]


def sf_wait_cost_zone(params: ScenarioParams, grid: ZoneGrid, zd: ZoneDesign, w0: float) -> float:
    """Curbside waiting: half headway plus the bus's lateral approach."""
    return _books(params, grid, zd, "outbound", SEMI_FLEXIBLE, w0=w0).wait


def sf_local_tour_cost_zone(
    params: ScenarioParams, grid: ZoneGrid, zd: ZoneDesign, w0: float, direction: Direction
) -> float:
    """In-vehicle time on the serpentine: half the sweep, detours, dwells."""
    return _books(params, grid, zd, direction, SEMI_FLEXIBLE, w0=w0).tour


def sf_agency_cost_direction(
    params: ScenarioParams,
    grid: ZoneGrid,
    zd: ZoneDesign,
    w0: float,
    K: int,
    direction: Direction,
) -> tuple[float, float]:
    """One direction's (distance cost, time cost) for one zone."""
    return _books(params, grid, zd, direction, SEMI_FLEXIBLE, w0=w0, K=K)[4:]


# ---------------------------------------------------------------------------
# Design-level aggregation
# ---------------------------------------------------------------------------


def mean_occupancy(params: ScenarioParams, grid: ZoneGrid, zd: ZoneDesign, direction: Direction) -> float:
    """Expected patrons per dispatch for one zone and direction."""
    lam = params.lambda_p if direction == "outbound" else params.lambda_d
    return lam * zd.headway(direction) * grid.area


def capacity_ok(mu: float, K: int) -> bool:
    """Occupancy mean plus two standard deviations fits the vehicle."""
    return mu + 2.0 * math.sqrt(mu) <= K + 1e-12


def validate_design(
    params: ScenarioParams, design: DesignSolution, check_capacity: bool = True
) -> None:
    """Raise InfeasibleDesignError on any violated hard constraint.

    ``check_capacity=False`` skips the occupancy-vs-K rule, for studying
    capacity-relaxed designs; every other constraint stays hard.
    """
    grid = design.grid
    if design.strategy == SEMI_FLEXIBLE:
        widths = [c.w0 for c in feasible_swath_widths(grid.l, grid.w)]
        if not any(abs(design.w0 - w) < 1e-9 for w in widths):
            raise InfeasibleDesignError(
                "swath_width",
                None,
                f"w0={design.w0} not among feasible widths {sorted(widths)}",
            )
    for zd in design.zones:
        if not (params.H_min - 1e-12 <= zd.H_p <= params.H_max + 1e-12):
            raise InfeasibleDesignError(
                "outbound_headway_bounds",
                zd.z,
                f"H_p={zd.H_p} outside [{params.H_min}, {params.H_max}]",
            )
        lo = max(params.H_min, params.H_t)
        if not (lo - 1e-12 <= zd.H_d <= params.H_max + 1e-12):
            raise InfeasibleDesignError(
                "inbound_headway_bounds",
                zd.z,
                f"H_d={zd.H_d} outside [{lo}, {params.H_max}]",
            )
        if abs(zd.H_d - zd.gamma * params.H_t) > 1e-9:
            raise InfeasibleDesignError(
                "inbound_sync",
                zd.z,
                f"H_d={zd.H_d} is not gamma*H_t={zd.gamma * params.H_t}",
            )
        if not check_capacity:
            continue
        for direction in DIRECTIONS:
            mu = mean_occupancy(params, grid, zd, direction)
            if not capacity_ok(mu, design.K):
                raise InfeasibleDesignError(
                    "capacity",
                    zd.z,
                    f"{direction} occupancy {mu:.4f} + 2*sqrt exceeds K={design.K}",
                )


def zone_cost_terms(
    params: ScenarioParams,
    grid: ZoneGrid,
    zd: ZoneDesign,
    strategy: str,
    K: int,
    model: KStarModel | TourLengthLaw,
    w0: float | None = None,
) -> ZoneCostTerms:
    """All nine hourly books for one zone under the given strategy."""
    if strategy == SEMI_FLEXIBLE and w0 is None:
        raise InfeasibleDesignError("swath_width", zd.z, "semi-flexible cost needs w0")
    out, inb = (_books(params, grid, zd, d, strategy, model, w0, K) for d in DIRECTIONS)
    return ZoneCostTerms(
        C_W=out.wait,
        C_Tp=out.tour,
        C_Td=inb.tour,
        C_Lp=out.line_haul,
        C_Ld=inb.line_haul,
        C_Rp=out.transfer,
        C_Rd=inb.transfer,
        C_vk=out.dist + inb.dist,
        C_vh=out.time + inb.time,
    )


def _low_occupancy_zones(params: ScenarioParams, design: DesignSolution) -> Iterator[tuple[int, int, str]]:
    for zd in design.zones:
        for direction in DIRECTIONS:
            if mean_occupancy(params, design.grid, zd, direction) < LOW_OCCUPANCY_MEAN:
                yield zd.z.m, zd.z.n, direction


def total_generalized_cost(
    params: ScenarioParams,
    design: DesignSolution,
    model: KStarModel | TourLengthLaw,
    check_capacity: bool = True,
) -> CostBreakdown:
    """Aggregate the nine books over every zone and report GC per patron."""
    validate_design(params, design, check_capacity=check_capacity)
    lows = list(_low_occupancy_zones(params, design))
    if lows:
        warnings.warn(
            f"mean occupancy below {LOW_OCCUPANCY_MEAN:g} in some zone; second-order "
            "tour expectations may be more than 2% off",
            LowOccupancyWarning,
            stacklevel=2,
        )
    per_zone: dict[tuple[int, int], ZoneCostTerms] = {}
    for zd in design.zones:
        per_zone[(zd.z.m, zd.z.n)] = zone_cost_terms(
            params, design.grid, zd, design.strategy, design.K, model, design.w0
        )
    sums = {f: sum(getattr(t, f) for t in per_zone.values()) for f in ZoneCostTerms.FIELDS}
    gc = sum(sums.values())
    patrons_per_h = (params.lambda_p + params.lambda_d) * params.L * params.W
    return CostBreakdown(
        **sums,
        GC=gc,
        gc_per_patron_min=gc * 60.0 / patrons_per_h,
        per_zone=per_zone,
    )
