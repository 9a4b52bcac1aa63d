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
for either strategy at an array of headways (0-d for one), with numpy ufuncs
only, so a headway's books have the same bits in any call.  D, K and the zone
geometry (area, aspect ratio S, swath width w0) broadcast against H, so one
call can evaluate many zones of different grids at once: the optimizer fits
the outbound cost of many (grid, K, w0, D) lanes per call and prices their
candidate headways.  The
FF tour terms share one exp(beta4*(mu+1)**beta5) factor per call.
``cost_books`` prices many zones in one kernel call per direction, for the
search's candidates and for ``total_generalized_cost`` alike, so a reported
cost has its search-log bits.  The per-book functions (``ff_wait_cost_zone``
and the rest) are views of the kernel, and the simulator's validation reads
its expected tour per dispatch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Literal, NamedTuple

import numpy as np

from .expectations import WeibullTourLaw, as_tour_law
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
# The FF wait kernel E[Q * f(Q+1)] behind WeibullTourLaw.rider_tour_units,
# the difference of the two moments, is less accurate: -2.16% at mean 2.0,
# -1.99% at 2.11, -1.85% at 2.2.  So zones at means 2.0 to 2.11 are within 2%
# on both moments but not on their difference.  The flag stays at 2.0
# because the base FF optimum's H_min zones sit at mean 2.0.
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
        self.detail = detail
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
        if got != expected or len(self.zones) != len(expected):
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
        return self.C_W + self.C_Tp + self.C_Td + self.C_Lp + self.C_Ld + self.C_Rp + self.C_Rd

    @property
    def agency(self) -> float:
        return self.C_vk + self.C_vh


@dataclass(frozen=True)
class CostBreakdown(ZoneCostTerms):
    """The nine books summed over every zone, their total GC, and the per-zone terms."""

    GC: float
    gc_per_patron_min: float
    per_zone: dict[tuple[int, int], ZoneCostTerms]


# ---------------------------------------------------------------------------
# The cost kernel
# ---------------------------------------------------------------------------


class ZoneBooks(NamedTuple):
    """One zone-direction's hourly books, each an array over H (a numpy scalar for 0-d H).

    ``wait`` is C_W outbound and 0 inbound; ``dist`` and ``time`` are this
    direction's shares of the agency books C_vk and C_vh.  ``tour_km``, the
    expected vehicle tour per dispatch (km), is not a book and is not in
    ``total``; validation compares it with the simulated tours.
    """

    wait: Any
    tour: Any  # C_Tp or C_Td
    line_haul: Any  # C_Lp or C_Ld
    transfer: Any  # C_Rp or C_Rd
    dist: Any
    time: Any
    tour_km: Any

    @property
    def total(self):
        """Every book that depends on this direction's headway."""
        return self.wait + self.tour + self.line_haul + self.transfer + self.dist + self.time


class ZoneShape(NamedTuple):
    """What the cost kernel reads of a zone grid: the zone area (km^2) and
    the aspect ratio S.  Either may be an array, one value per lane."""

    area: Any
    S: Any


def zone_books(
    params: ScenarioParams,
    grid: ZoneGrid | ZoneShape,
    D: float,
    H,
    direction: Direction,
    strategy: str,
    model: KStarModel | WeibullTourLaw | None = None,
    w0: float | None = None,
    K: int = 1,
    gamma=1,
) -> ZoneBooks:
    """The books of a zone at line-haul distance D for one direction.

    ``H`` is the direction's headway as an array (a float is taken as a 0-d
    one): every book is evaluated at each of its entries in one call.  ``D``,
    ``K``, ``gamma`` (the inbound sync multiple), ``w0`` and the fields of
    ``grid`` given as a :class:`ZoneShape` may be arrays that broadcast with
    it, so one call can cover zones of different grids.  ``model``, the
    tour-length law, is needed only for fully flexible routing and ``w0`` only
    for semi-flexible; ``K`` matters only to the agency books.
    """
    H = np.asarray(H, dtype=float)
    outbound = direction == "outbound"
    tau = params.tau_p if outbound else params.tau_d
    area = grid.area
    mu = occupancy(params, H, area, direction)
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
        if model is None:
            raise ValueError("fully flexible routing needs a tour-length law (model)")
        s = np.sqrt(area)
        tour_units, rider_units = as_tour_law(model).tour_units(mu, grid.S)
        half_tour = rider_units * s / (2.0 * H * v)
        tour = half_tour + tau / (2.0 * H) * q2
        wait = params.alpha * (mu / 2.0 + half_tour + params.tau_p / (2.0 * H) * q2) if outbound else 0.0
        tour_km = tour_units * s
    elif strategy == SEMI_FLEXIBLE:
        if w0 is None or not np.all(w0 > 0):
            raise ValueError("swath width must be positive")
        wait = params.alpha / H * mu * (H / 2.0 + w0 / (3.0 * v)) if outbound else 0.0
        sweep = area / (v * w0) + w0 / (2.0 * v)
        tour = (sweep * mu + (w0 / (3.0 * v) + tau) * q2) / (2.0 * H)
        tour_km = area / w0 + w0 / 2.0 + mu * w0 / 3.0
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    dist_per_h = (D + tour_km) / H
    dist = params.pi_v(K) / params.theta * dist_per_h
    time = params.pi_m(K) / params.theta * (dist_per_h / v + tau * mu / H)
    return ZoneBooks(wait, tour, line_haul, transfer, dist, time, tour_km)


def _books(
    params: ScenarioParams,
    grid: ZoneGrid,
    zd: ZoneDesign,
    direction: Direction,
    strategy: str,
    model: KStarModel | WeibullTourLaw | None = None,
    w0: float | None = None,
    K: int = 1,
) -> ZoneBooks:
    """One zone-direction's books as builtin floats."""
    D = line_haul_distance(grid, zd.z)
    books = zone_books(params, grid, D, zd.headway(direction), direction, strategy, model, w0, K, zd.gamma)
    return ZoneBooks(*map(float, books))


# The per-book functions below are views of the kernel.  Line-haul and
# transfer books depend on neither the strategy nor the tour law, so their
# views read any one strategy's books.


def ff_wait_cost_zone(
    params: ScenarioParams, grid: ZoneGrid, zd: ZoneDesign, model: KStarModel | WeibullTourLaw
) -> float:
    """Discounted at-home waiting: half headway, half tour, boarding queue."""
    return _books(params, grid, zd, "outbound", FULLY_FLEXIBLE, model).wait


def ff_local_tour_cost_zone(
    params: ScenarioParams,
    grid: ZoneGrid,
    zd: ZoneDesign,
    model: KStarModel | WeibullTourLaw,
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
    model: KStarModel | WeibullTourLaw,
    K: int,
    direction: Direction,
) -> tuple[float, float]:
    """One direction's (distance cost, time cost) for one zone."""
    return _books(params, grid, zd, direction, FULLY_FLEXIBLE, model, K=K)[4:6]


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
    return _books(params, grid, zd, direction, SEMI_FLEXIBLE, w0=w0, K=K)[4:6]


# ---------------------------------------------------------------------------
# Hard constraints and design-level aggregation
# ---------------------------------------------------------------------------

# A zone's checks, in the order validate_design and the search name the first
# one failed: headway bounds out and in, trunk sync, capacity out and in.
ZONE_CHECKS = ("outbound_headway_bounds", "inbound_headway_bounds", "inbound_sync", "capacity", "capacity")


def occupancy(params: ScenarioParams, H, area, direction: Direction):
    """Expected patrons per dispatch at headway ``H`` in zones of ``area``; arrays broadcast."""
    return (params.lambda_p if direction == "outbound" else params.lambda_d) * H * area


def mean_occupancy(params: ScenarioParams, grid: ZoneGrid, zd: ZoneDesign, direction: Direction) -> float:
    """Expected patrons per dispatch for one zone and direction."""
    return occupancy(params, zd.headway(direction), grid.area, direction)


def zone_means(params: ScenarioParams, design: DesignSolution) -> tuple[float, ...]:
    """The design's H_p, H_d (h) and outbound and inbound mean occupancies, each averaged over its zones."""
    stats = [(zd.H_p, zd.H_d, *(mean_occupancy(params, design.grid, zd, d) for d in DIRECTIONS))
             for zd in design.zones]
    return tuple(sum(col) / len(stats) for col in zip(*stats))


def headway_lower_bound(params: ScenarioParams, direction: Direction) -> float:
    """The shortest admitted headway: inbound buses also wait for a trunk arrival."""
    return params.H_min if direction == "outbound" else max(params.H_min, params.H_t)


def headway_ok(params: ScenarioParams, H, direction: Direction):
    """``H`` lies within the direction's headway bounds, to 1e-12 h."""
    return (headway_lower_bound(params, direction) - 1e-12 <= H) & (H <= params.H_max + 1e-12)


def sync_ok(params: ScenarioParams, H_d, gamma):
    """The inbound headway is ``gamma`` trunk headways, to 1e-9 h."""
    return abs(H_d - gamma * params.H_t) <= 1e-9


def capacity_ok(mu, K):
    """Occupancy mean plus two standard deviations fits the vehicle; ``mu`` and ``K`` may be arrays."""
    return mu + 2.0 * np.sqrt(mu) <= K + 1e-12


def headway_cap_from_capacity(lam: float, l, w, K):
    """Largest headway whose occupancy mean plus two sigmas still fits K; ``l``, ``w`` and ``K`` may be arrays.

    Solves x + 2*sqrt(x) <= K for x = lam*H*l*w: x_max = (sqrt(K+1) - 1)**2.
    """
    if np.any(lam * l * w <= 0):
        raise ValueError("demand rate times zone area must be positive")
    K = np.asarray(K, dtype=float)
    if (K < 1).any():
        raise ValueError("capacity must be at least 1")
    x_max = (np.sqrt(K + 1.0) - 1.0) ** 2
    return x_max / (lam * l * w)


def zone_failures(params: ScenarioParams, H_p, H_d, gamma, area, K) -> np.ndarray:
    """The (zones, ``ZONE_CHECKS``) matrix of failed checks, from one entry per zone in
    ``H_p``, ``H_d`` and ``gamma``; ``area`` and ``K`` broadcast."""
    fail = np.zeros(np.shape(H_p) + (len(ZONE_CHECKS),), dtype=bool)
    fail[..., 0] = ~headway_ok(params, H_p, "outbound")
    fail[..., 1] = ~headway_ok(params, H_d, "inbound")
    fail[..., 2] = ~sync_ok(params, H_d, gamma)
    fail[..., 3] = ~capacity_ok(occupancy(params, H_p, area, "outbound"), K)
    fail[..., 4] = ~capacity_ok(occupancy(params, H_d, area, "inbound"), K)
    return fail


def low_occupancy(params: ScenarioParams, H_p, H_d, area):
    """Which zones have a mean occupancy below ``LOW_OCCUPANCY_MEAN`` in either direction."""
    mu_out, mu_in = occupancy(params, H_p, area, "outbound"), occupancy(params, H_d, area, "inbound")
    return (mu_out < LOW_OCCUPANCY_MEAN) | (mu_in < LOW_OCCUPANCY_MEAN)


def _zone_variables(design: DesignSolution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The zones' (H_p, H_d, gamma) as arrays, in ``design.zones`` order."""
    return tuple(np.array([getattr(zd, f) for zd in design.zones]) for f in ("H_p", "H_d", "gamma"))


def validate_design(params: ScenarioParams, design: DesignSolution) -> None:
    """Raise InfeasibleDesignError on any violated hard constraint.

    The swath width is checked first, then the zones in order, each through
    every one of ``ZONE_CHECKS``, the capacity rule included.
    """
    grid = design.grid
    if design.strategy == SEMI_FLEXIBLE:
        widths = [c.w0 for c in feasible_swath_widths(grid.l, grid.w)]
        if not any(abs(design.w0 - w) < 1e-9 for w in widths):
            raise InfeasibleDesignError("swath_width", None, f"w0={design.w0} not among feasible widths {sorted(widths)}")
    fail = zone_failures(params, *_zone_variables(design), grid.area, design.K)
    if not fail.any():
        return
    i, check = divmod(int(fail.argmax()), len(ZONE_CHECKS))
    zd = design.zones[i]
    details = (  # one per check, in ZONE_CHECKS order
        *(f"{name}={zd.headway(d)} outside [{headway_lower_bound(params, d)}, {params.H_max}]"
          for name, d in zip(("H_p", "H_d"), DIRECTIONS)),
        f"H_d={zd.H_d} is not gamma*H_t={zd.gamma * params.H_t}",
        *(f"{d} occupancy {mean_occupancy(params, grid, zd, d):.4f} + 2*sqrt exceeds K={design.K}"
          for d in DIRECTIONS),
    )
    raise InfeasibleDesignError(ZONE_CHECKS[check], zd.z, details[check])


def cost_books(params: ScenarioParams, grid: ZoneGrid | ZoneShape, D, H_p, H_d, gamma, strategy: str,
               model: KStarModel | WeibullTourLaw | None = None, w0=None, K=1) -> np.ndarray:
    """The (``ZoneCostTerms.FIELDS``, zones) books of zones with one entry each (0-d for one zone)
    in ``D``, ``H_p``, ``H_d`` and ``gamma``: one ``zone_books`` call per direction over every zone,
    with the other inputs broadcast as there."""
    out = zone_books(params, grid, D, H_p, "outbound", strategy, model, w0, K)
    inb = zone_books(params, grid, D, H_d, "inbound", strategy, model, w0, K, gamma)
    return np.array([
        out.wait, out.tour, inb.tour, out.line_haul, inb.line_haul, out.transfer, inb.transfer,
        out.dist + inb.dist, out.time + inb.time,
    ])


def add_books(books: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(per-field sums, total) of (fields, ..., zones) books: over the zones, then the fields.

    Every GC is added in this order, left to right as ``cumsum`` adds (the
    builtin ``sum`` compensates rounding from Python 3.12 on).
    """
    sums = books.cumsum(axis=-1)[..., -1]
    return sums, sums.cumsum(axis=0)[-1]


def total_generalized_cost(
    params: ScenarioParams,
    design: DesignSolution,
    model: KStarModel | WeibullTourLaw,
) -> CostBreakdown:
    """Aggregate the nine books over every zone and report GC per patron.

    The books come from one ``cost_books`` call over the design's zones and
    are added by ``add_books``, as the search prices its candidates.
    """
    validate_design(params, design)
    grid = design.grid
    H_p, H_d, gamma = _zone_variables(design)
    if low_occupancy(params, H_p, H_d, grid.area).any():
        warnings.warn(
            f"mean occupancy below {LOW_OCCUPANCY_MEAN:g} in some zone; second-order "
            "tour expectations may be more than 2% off",
            LowOccupancyWarning,
            stacklevel=2,
        )
    D = np.array([line_haul_distance(grid, zd.z) for zd in design.zones])
    books = cost_books(params, grid, D, H_p, H_d, gamma, design.strategy, model, design.w0, design.K)
    per_zone = {(zd.z.m, zd.z.n): ZoneCostTerms(*terms) for zd, terms in zip(design.zones, books.T.tolist())}
    sums, gc = add_books(books)
    gc = float(gc)
    return CostBreakdown(*sums.tolist(), GC=gc, gc_per_patron_min=gc * 60.0 / params.patrons_per_h, per_zone=per_zone)
