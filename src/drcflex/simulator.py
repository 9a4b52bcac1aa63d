"""Monte Carlo operational simulation of both routing strategies.

Each run realizes spatial Poisson demand, executes the dispatch rules zone
by zone, and accumulates the same cost books the analytical model predicts:
waits, in-vehicle times, transfers, vehicle distance and time, dwell losses,
and overcapacity events.  Validation repeats runs with independent seeds
until the running mean of the generalized cost settles, then reports the
percentage gap between the analytical and simulated figures.

Two conventions keep the comparison unbiased.  Validation simulates each
zone and direction over its own horizon of round(1/H) whole headways, so no
dispatch window is ever truncated (a clipped window would distort occupancy
and dispatch-rate statistics by several percent, swamping the model errors
being measured).  And fully-flexible tours are closed cycles through the
zone's dispatch corner, the same construction the tour-length coefficients
were calibrated on.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .costs import (
    DIRECTIONS,
    FULLY_FLEXIBLE,
    SEMI_FLEXIBLE,
    DesignSolution,
    Direction,
    ZoneDesign,
    mean_occupancy,
    total_generalized_cost,
    validate_design,
)
from .expectations import TourLengthLaw, as_tour_law
from .params import ScenarioParams, ZoneGrid, line_haul_distance
from .tourlength import KStarModel, feasible_swath_widths
from .tsp import MAX_EXACT_POINTS, PointSet, exact_tour

VALIDATION_SE_TARGET = 0.05  # standard error of mean GC, min/patron
MAX_VALIDATION_RUNS = 100_000

TABLE_ROW_LABELS = (
    "Errors in GC",
    "Errors in outbound tour length",
    "Errors in inbound tour length",
    "Errors in cumulative pick-up time loss",
    "Errors in cumulative drop-off time loss",
    "Overcapacity",
)


class ValidationConvergenceError(RuntimeError):
    """The running mean failed to settle within the run budget."""


@dataclass(frozen=True)
class DemandRealization:
    """One horizon of requests: rows are (x, y, request time)."""

    outbound: np.ndarray
    inbound: np.ndarray
    horizon: float = 1.0

    def __post_init__(self) -> None:
        for arr in (self.outbound, self.inbound):
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError("demand arrays must have shape (n, 3)")


def generate_demand(
    params: ScenarioParams, rng_seed: int, horizon: float = 1.0
) -> DemandRealization:
    """Spatial Poisson demand over the region and the given horizon (hours)."""
    rng = np.random.default_rng(rng_seed)
    lists = []
    for lam in (params.lambda_p, params.lambda_d):
        n = rng.poisson(lam * params.L * params.W * horizon)
        xyt = np.empty((n, 3))
        xyt[:, 0] = rng.random(n) * params.L
        xyt[:, 1] = rng.random(n) * params.W
        xyt[:, 2] = rng.random(n) * horizon
        lists.append(xyt)
    return DemandRealization(outbound=lists[0], inbound=lists[1], horizon=horizon)


# ---------------------------------------------------------------------------
# Per-run accounting
# ---------------------------------------------------------------------------


@dataclass
class _Tally:
    """Raw totals for one zone-direction span (hours, km, counts)."""

    span_h: float = 0.0
    wait_h: float = 0.0
    invehicle_h: float = 0.0
    transfer_h: float = 0.0
    dist_km: float = 0.0
    veh_time_h: float = 0.0
    pickup_loss_h: float = 0.0
    dropoff_loss_h: float = 0.0
    tours: list = field(default_factory=list)
    dispatches: int = 0
    served: int = 0
    occupancy_sum: float = 0.0
    overcapacity_events: int = 0
    heuristic_dispatches: int = 0

    def merge(self, other: "_Tally") -> None:
        for name in (
            "wait_h",
            "invehicle_h",
            "transfer_h",
            "dist_km",
            "veh_time_h",
            "pickup_loss_h",
            "dropoff_loss_h",
            "dispatches",
            "served",
            "occupancy_sum",
            "overcapacity_events",
            "heuristic_dispatches",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.tours.extend(other.tours)


@dataclass(frozen=True)
class SimRun:
    """Realized quantities of one simulated horizon."""

    gc_hours: float  # equivalent hours of generalized cost over the horizon
    gc_min_per_patron: float  # normalized by nominal hourly patronage
    horizon: float
    tours_out: tuple[float, ...]  # realized tour length per outbound dispatch (km)
    tours_in: tuple[float, ...]
    pickup_loss_h: float
    dropoff_loss_h: float
    overcapacity_events: int
    dispatches: int
    served: int
    heuristic_dispatches: int


def _gc_hours(params: ScenarioParams, K: int, out: _Tally, inb: _Tally) -> float:
    """Assemble the generalized cost from raw totals (over the span)."""
    user = (
        params.alpha * out.wait_h
        + out.invehicle_h
        + inb.invehicle_h
        + out.transfer_h
        + inb.transfer_h
    )
    dist = out.dist_km + inb.dist_km
    veh_time = out.veh_time_h + inb.veh_time_h
    return user + params.pi_v(K) / params.theta * dist + params.pi_m(K) / params.theta * veh_time


# ---------------------------------------------------------------------------
# Fully-flexible dispatch mechanics
# ---------------------------------------------------------------------------


def _heuristic_closed_tour(dist: np.ndarray) -> tuple[float, list[int]]:
    """Nearest neighbour plus 2-opt for batches beyond the exact solver."""
    n = dist.shape[0]
    unvisited = set(range(1, n))
    order = [0]
    while unvisited:
        last = order[-1]
        nxt = min(unvisited, key=lambda j: dist[last, j])
        order.append(nxt)
        unvisited.remove(nxt)
    improved = True
    passes = 0
    while improved and passes < 30:
        improved = False
        passes += 1
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                a, b = order[i - 1], order[i]
                c, d = order[j], order[(j + 1) % n]
                if dist[a, b] + dist[c, d] > dist[a, c] + dist[b, d] + 1e-12:
                    order[i : j + 1] = reversed(order[i : j + 1])
                    improved = True
    length = sum(dist[order[i], order[(i + 1) % n]] for i in range(n))
    return float(length), order


def _closed_tour_through_depot(
    points: np.ndarray, depot: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, bool]:
    """Tour length, pickup positions along the tour, visit order, and a heuristic flag.

    ``points`` are the batch's local coordinates; the tour is the exact
    shortest cycle through the dispatch point and every stop.  Returns the
    cumulative distance from the dispatch point to each stop in visiting
    order, and the input index of each of those stops.
    """
    q = len(points)
    if q == 0:
        return 0.0, np.empty(0), np.empty(0, dtype=int), False
    nodes = np.vstack([depot, points])
    heuristic = False
    if q == 1:
        d = abs(points[0, 0] - depot[0]) + abs(points[0, 1] - depot[1])
        return 2.0 * d, np.array([d]), np.zeros(1, dtype=int), False
    if q + 1 <= MAX_EXACT_POINTS:
        ps = PointSet(nodes)
        length, order = exact_tour(ps, "closed_cycle")
    else:
        diff = np.abs(nodes[:, None, :] - nodes[None, :, :]).sum(axis=2)
        length, order = _heuristic_closed_tour(diff)
        heuristic = True
    # cumulative distance from the dispatch point to each visited stop
    path = nodes.take(order, axis=0)
    steps = np.abs(path[1:] - path[:-1])
    positions = np.add.accumulate(steps[:, 0] + steps[:, 1])
    return float(length), positions, np.subtract(order[1:], 1), heuristic


def _ff_zone_direction(
    params: ScenarioParams,
    grid: ZoneGrid,
    zd: ZoneDesign,
    K: int,
    direction: Direction,
    xy: np.ndarray,
    t: np.ndarray,
    H_sched: float,
    n_windows: int,
    rng: np.random.Generator,
) -> _Tally:
    """Batch, tour, and account one zone-direction over n_windows headways.

    The dispatch point is drawn uniformly in the zone per dispatch (the
    vehicle's staging position when the window closes is unmodeled), which
    makes the realized tour the same construction the tour-length law was
    calibrated on: an exact cycle through q + 1 exchangeable points.  An
    anchored dispatch corner would bias realized tours by over 20%.
    """
    tally = _Tally(span_h=n_windows * H_sched)
    D = line_haul_distance(grid, zd.z)
    v = params.v_l
    tau = params.tau_p if direction == "outbound" else params.tau_d
    window = np.minimum((t / H_sched).astype(int), n_windows - 1)
    zone_scale = np.array([grid.l, grid.w])
    for j in range(n_windows):
        sel = window == j
        q = int(sel.sum())
        tally.dispatches += 1
        tally.occupancy_sum += q
        if q > K:
            tally.overcapacity_events += 1
        depot = rng.random(2) * zone_scale
        length, positions, visited, heuristic = _closed_tour_through_depot(xy[sel], depot)
        if heuristic:
            tally.heuristic_dispatches += 1
        tally.tours.append(length)
        tally.dist_km += D + length
        tally.veh_time_h += (D + length) / v + q * tau
        if q == 0:
            continue
        tally.served += q
        dispatch_time = (j + 1) * H_sched
        t_batch = t[sel]
        ranks = np.arange(1, q + 1, dtype=float)  # visit order 1..q
        if direction == "outbound":
            waits = (dispatch_time - t_batch[visited]) + positions / v + (ranks - 0.5) * tau
            inveh = (length - positions) / v + (q - ranks + 0.5) * tau + D / v
            tally.wait_h += float(waits.sum())
            tally.invehicle_h += float(inveh.sum())
            tally.transfer_h += q * (params.t_ft + params.H_t / 2.0) + params.tau_a * q * q / 2.0
            tally.pickup_loss_h += tau * q * q
        else:
            inveh = D / v + positions / v + (ranks - 0.5) * tau
            tally.invehicle_h += float(inveh.sum())
            sync_wait = (zd.gamma - 1) * zd.H_d / (2.0 * zd.gamma)
            tally.transfer_h += q * (params.t_tf + sync_wait) + params.tau_b * q * q / 2.0
            tally.dropoff_loss_h += tau * q * q / 2.0
    return tally


# ---------------------------------------------------------------------------
# Semi-flexible dispatch mechanics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Serpentine:
    """Geometry of the swath sweep through one zone."""

    w0: float
    n_strips: int
    strip_len: float  # longitudinal length of each strip (km)
    along_l: bool  # strips run along the zone's l dimension

    @property
    def fixed_path(self) -> float:
        """Longitudinal sweep plus strip-connecting segments (km)."""
        return self.n_strips * self.strip_len + (self.n_strips - 1) * self.w0


def _serpentine_for(grid: ZoneGrid, w0: float) -> _Serpentine:
    for cfg in feasible_swath_widths(grid.l, grid.w):
        if abs(cfg.w0 - w0) < 1e-9:
            strip_len = grid.l if cfg.along == "l" else grid.w
            return _Serpentine(
                w0=cfg.w0,
                n_strips=cfg.n_strips,
                strip_len=strip_len,
                along_l=cfg.along == "l",
            )
    raise ValueError(f"w0={w0} is not a feasible swath width for zone {grid.l} x {grid.w}")


def _sf_progress(serp: _Serpentine, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(longitudinal progress along the sweep, lateral offset in strip)."""
    if serp.along_l:
        lon, lat = xy[:, 0], xy[:, 1]
    else:
        lon, lat = xy[:, 1], xy[:, 0]
    strip = np.minimum((lat / serp.w0).astype(int), serp.n_strips - 1)
    c = lat - strip * serp.w0
    forward = strip % 2 == 0
    within = np.where(forward, lon, serp.strip_len - lon)
    progress = strip * (serp.strip_len + serp.w0) + within
    return progress, c


def _sf_zone_direction(
    params: ScenarioParams,
    grid: ZoneGrid,
    zd: ZoneDesign,
    K: int,
    w0: float,
    direction: Direction,
    xy: np.ndarray,
    t: np.ndarray,
    H_sched: float,
    n_windows: int,
    rng: np.random.Generator,
) -> _Tally:
    """Sweep buses through one zone-direction over n_windows headways."""
    serp = _serpentine_for(grid, w0)
    tally = _Tally(span_h=n_windows * H_sched)
    D = line_haul_distance(grid, zd.z)
    v = params.v_l
    tau = params.tau_p if direction == "outbound" else params.tau_d
    progress, lat = _sf_progress(serp, xy)

    if direction == "outbound":
        # hailing: served by the first bus whose sweep has not passed yet
        passage_shift = progress / v
        bus = np.ceil((t - passage_shift) / H_sched - 1e-12).astype(int)
        bus = np.maximum(bus, 0)
        nominal = bus * H_sched + passage_shift
        window = bus % n_windows
    else:
        # boarding at the terminal: batched by departure windows
        window = np.minimum((t / H_sched).astype(int), n_windows - 1)

    end_fixed = serp.fixed_path + w0 / 2.0  # sweep, connections, end leg
    for j in range(n_windows):
        sel = np.flatnonzero(window == j)
        q = len(sel)
        tally.dispatches += 1
        tally.occupancy_sum += q
        if q > K:
            tally.overcapacity_events += 1
        order = sel[np.argsort(progress[sel], kind="stable")]
        prev_c = rng.random() * w0
        lateral_legs = np.empty(q)
        for i, idx in enumerate(order):
            lateral_legs[i] = abs(lat[idx] - prev_c)
            prev_c = lat[idx]
        tour = end_fixed + float(lateral_legs.sum())
        tally.tours.append(tour)
        tally.dist_km += D + tour
        tally.veh_time_h += (D + tour) / v + q * tau
        if q == 0:
            continue
        tally.served += q
        ranks = np.arange(1, q + 1, dtype=float)
        remaining_lat = (lateral_legs.sum() - np.cumsum(lateral_legs)) + lateral_legs / 2.0
        remaining_fixed = end_fixed - progress[order]
        if direction == "outbound":
            waits = (nominal[order] - t[order]) + lateral_legs / v
            inveh = remaining_fixed / v + remaining_lat / v + (q - ranks + 0.5) * tau + D / v
            tally.wait_h += float(waits.sum())
            tally.invehicle_h += float(inveh.sum())
            tally.transfer_h += q * (params.t_ft + params.H_t / 2.0) + params.tau_a * q * q / 2.0
            tally.pickup_loss_h += tau * q * q / 2.0
        else:
            inveh = (
                D / v
                + (progress[order] + np.cumsum(lateral_legs) - lateral_legs / 2.0) / v
                + (ranks - 0.5) * tau
            )
            tally.invehicle_h += float(inveh.sum())
            sync_wait = (zd.gamma - 1) * zd.H_d / (2.0 * zd.gamma)
            tally.transfer_h += q * (params.t_tf + sync_wait) + params.tau_b * q * q / 2.0
            tally.dropoff_loss_h += tau * q * q / 2.0
    return tally


# ---------------------------------------------------------------------------
# Region-level entry points
# ---------------------------------------------------------------------------


def _zone_slices(
    params: ScenarioParams, grid: ZoneGrid, xyt: np.ndarray
) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Split region demand into per-zone local coordinates and times."""
    if len(xyt) == 0:
        return {
            (z.m, z.n): (np.empty((0, 2)), np.empty(0)) for z in grid.zones()
        }
    n_idx = np.minimum((xyt[:, 0] / grid.l).astype(int), grid.N - 1)
    m_idx = np.minimum((xyt[:, 1] / grid.w).astype(int), grid.M - 1)
    out = {}
    for z in grid.zones():
        sel = (m_idx == z.m - 1) & (n_idx == z.n - 1)
        local = xyt[sel][:, :2] - np.array([(z.n - 1) * grid.l, (z.m - 1) * grid.w])
        out[(z.m, z.n)] = (local, xyt[sel][:, 2])
    return out


def _simulate_region(
    params: ScenarioParams,
    design: DesignSolution,
    demand: DemandRealization,
    rng: np.random.Generator,
) -> SimRun:
    """Serve a given region realization; schedule stretched to whole windows."""
    grid = design.grid
    out_by_zone = _zone_slices(params, grid, demand.outbound)
    in_by_zone = _zone_slices(params, grid, demand.inbound)
    out_tally = _Tally()
    in_tally = _Tally()
    horizon = demand.horizon
    for zd in design.zones:
        key = (zd.z.m, zd.z.n)
        for direction, (xy, t), tally in (
            ("outbound", out_by_zone[key], out_tally),
            ("inbound", in_by_zone[key], in_tally),
        ):
            H = zd.headway(direction)
            n_w = max(1, round(horizon / H))
            H_sched = horizon / n_w
            if design.strategy == FULLY_FLEXIBLE:
                zt = _ff_zone_direction(
                    params, grid, zd, design.K, direction, xy, t, H_sched, n_w, rng
                )
            else:
                zt = _sf_zone_direction(
                    params, grid, zd, design.K, design.w0, direction, xy, t, H_sched, n_w, rng
                )
            tally.merge(zt)
    gc = _gc_hours(params, design.K, out_tally, in_tally) / horizon
    patrons = (params.lambda_p + params.lambda_d) * params.L * params.W
    return SimRun(
        gc_hours=gc,
        gc_min_per_patron=gc * 60.0 / patrons,
        horizon=horizon,
        tours_out=tuple(out_tally.tours),
        tours_in=tuple(in_tally.tours),
        pickup_loss_h=out_tally.pickup_loss_h / horizon,
        dropoff_loss_h=in_tally.dropoff_loss_h / horizon,
        overcapacity_events=out_tally.overcapacity_events + in_tally.overcapacity_events,
        dispatches=out_tally.dispatches + in_tally.dispatches,
        served=out_tally.served + in_tally.served,
        heuristic_dispatches=out_tally.heuristic_dispatches + in_tally.heuristic_dispatches,
    )


def simulate_ff_hour(
    params: ScenarioParams,
    design: DesignSolution,
    demand: DemandRealization,
    rng_seed: int = 0,
) -> SimRun:
    """Serve one realization under fully-flexible dispatching.

    ``rng_seed`` drives only the simulator's internal draws (dispatch
    staging points); the demand realization is the caller's.
    """
    if design.strategy != FULLY_FLEXIBLE:
        raise ValueError("design is not fully flexible")
    validate_design(params, design)
    return _simulate_region(params, design, demand, np.random.default_rng(rng_seed))


def simulate_sf_hour(
    params: ScenarioParams,
    design: DesignSolution,
    demand: DemandRealization,
    rng_seed: int = 0,
) -> SimRun:
    """Serve one realization under semi-flexible sweeping.

    ``rng_seed`` drives only the simulator's internal draws (the sweep's
    lateral start offsets); the demand realization is the caller's.
    """
    if design.strategy != SEMI_FLEXIBLE:
        raise ValueError("design is not semi flexible")
    validate_design(params, design)
    return _simulate_region(params, design, demand, np.random.default_rng(rng_seed))


# ---------------------------------------------------------------------------
# Validation against the analytical model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    n_runs: int
    converged: bool
    analytic_gc_min_per_patron: float
    sim_gc_min_per_patron: float
    sim_gc_std: float  # across runs, min/patron
    sim_gc_se: float
    gc_error_pct: float
    outbound_tour_error_pct: float
    inbound_tour_error_pct: float
    pickup_loss_error_pct: float
    dropoff_loss_error_pct: float
    overcapacity_pct: float
    analytic_outbound_tour_km: float
    sim_outbound_tour_km: float
    analytic_inbound_tour_km: float
    sim_inbound_tour_km: float
    mean_occupancy_out: float
    mean_occupancy_in: float
    heuristic_dispatches: int

    def rows(self) -> tuple[tuple[str, float], ...]:
        return (
            (TABLE_ROW_LABELS[0], self.gc_error_pct),
            (TABLE_ROW_LABELS[1], self.outbound_tour_error_pct),
            (TABLE_ROW_LABELS[2], self.inbound_tour_error_pct),
            (TABLE_ROW_LABELS[3], self.pickup_loss_error_pct),
            (TABLE_ROW_LABELS[4], self.dropoff_loss_error_pct),
            (TABLE_ROW_LABELS[5], self.overcapacity_pct),
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "Average", "Maximum"])
            for label, value in self.rows():
                writer.writerow([label, f"{value:.4f}", f"{value:.4f}"])


def _analytic_references(
    params: ScenarioParams, design: DesignSolution, model: KStarModel | TourLengthLaw
) -> dict[str, float]:
    """Expected per-dispatch tours and hourly dwell losses per the cost model."""
    law = as_tour_law(model)
    grid = design.grid
    area = grid.l * grid.w
    s = math.sqrt(area)
    tour_w = {d: 0.0 for d in DIRECTIONS}
    tour_sum = {d: 0.0 for d in DIRECTIONS}
    pickup = 0.0
    dropoff = 0.0
    for zd in design.zones:
        for direction in DIRECTIONS:
            H = zd.headway(direction)
            mu = mean_occupancy(params, grid, zd, direction)
            q2 = mu * mu + mu
            n_w = max(1, round(1.0 / H))
            if design.strategy == FULLY_FLEXIBLE:
                tour = law.mean_tour_units(mu, grid.S) * s
                loss = (params.tau_p if direction == "outbound" else params.tau_d) * q2 / H
                if direction == "inbound":
                    loss /= 2.0
            else:
                tour = mu * design.w0 / 3.0 + area / design.w0 + design.w0 / 2.0
                loss = (params.tau_p if direction == "outbound" else params.tau_d) * q2 / (2.0 * H)
            tour_w[direction] += n_w
            tour_sum[direction] += n_w * tour
            if direction == "outbound":
                pickup += loss
            else:
                dropoff += loss
    return {
        "tour_out": tour_sum["outbound"] / tour_w["outbound"],
        "tour_in": tour_sum["inbound"] / tour_w["inbound"],
        "pickup_loss": pickup,
        "dropoff_loss": dropoff,
    }


def _pct_error(analytic: float, simulated: float) -> float:
    if simulated == 0.0:
        return 0.0 if analytic == 0.0 else math.inf
    return abs(analytic - simulated) / abs(simulated) * 100.0


def run_validation(
    params: ScenarioParams,
    design: DesignSolution,
    model: KStarModel | TourLengthLaw,
    min_runs: int = 1000,
    seed: int = 0,
) -> ValidationReport:
    """Repeat steady-state runs until the mean GC settles; compare to theory.

    Every zone-direction is simulated over its own whole number of headways
    (round(1/H) windows) per run, so realized rates are directly comparable
    to the hourly analytical model.
    """
    validate_design(params, design)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        analytic = total_generalized_cost(params, design, model)
    refs = _analytic_references(params, design, model)
    grid = design.grid
    patrons = (params.lambda_p + params.lambda_d) * params.L * params.W

    gcs: list[float] = []
    tours_out_sum = 0.0
    tours_out_n = 0
    tours_in_sum = 0.0
    tours_in_n = 0
    pickup_sum = 0.0
    dropoff_sum = 0.0
    overcap = 0
    dispatches = 0
    occ_out_sum = 0.0
    occ_out_n = 0
    occ_in_sum = 0.0
    occ_in_n = 0
    heuristic = 0

    run = 0
    while True:
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        gc_hourly = 0.0
        for zd in design.zones:
            for direction in DIRECTIONS:
                lam = params.lambda_p if direction == "outbound" else params.lambda_d
                H = zd.headway(direction)
                n_w = max(1, round(1.0 / H))
                span = n_w * H
                n = rng.poisson(lam * grid.l * grid.w * span)
                xy = rng.random((n, 2)) * np.array([grid.l, grid.w])
                t = rng.random(n) * span
                if design.strategy == FULLY_FLEXIBLE:
                    zt = _ff_zone_direction(
                        params, grid, zd, design.K, direction, xy, t, H, n_w, rng
                    )
                else:
                    zt = _sf_zone_direction(
                        params, grid, zd, design.K, design.w0, direction, xy, t, H, n_w, rng
                    )
                # hourly-rate contributions use this zone-direction's own span
                scale = 1.0 / zt.span_h
                if direction == "outbound":
                    gc_hourly += params.alpha * zt.wait_h * scale
                    pickup_sum += zt.pickup_loss_h * scale
                    tours_out_sum += sum(zt.tours)
                    tours_out_n += len(zt.tours)
                    occ_out_sum += zt.occupancy_sum
                    occ_out_n += zt.dispatches
                else:
                    dropoff_sum += zt.dropoff_loss_h * scale
                    tours_in_sum += sum(zt.tours)
                    tours_in_n += len(zt.tours)
                    occ_in_sum += zt.occupancy_sum
                    occ_in_n += zt.dispatches
                gc_hourly += (
                    zt.invehicle_h
                    + zt.transfer_h
                    + params.pi_v(design.K) / params.theta * zt.dist_km
                    + params.pi_m(design.K) / params.theta * zt.veh_time_h
                ) * scale
                overcap += zt.overcapacity_events
                dispatches += zt.dispatches
                heuristic += zt.heuristic_dispatches
        gcs.append(gc_hourly * 60.0 / patrons)
        run += 1
        if run >= min_runs:
            arr = np.asarray(gcs)
            se = float(arr.std(ddof=1)) / math.sqrt(run)
            if se < VALIDATION_SE_TARGET:
                break
            if run >= MAX_VALIDATION_RUNS:
                raise ValidationConvergenceError(
                    f"mean GC standard error {se:.4f} min/patron above "
                    f"{VALIDATION_SE_TARGET} after {run} runs "
                    f"(per-run std {float(arr.std(ddof=1)):.4f})"
                )

    arr = np.asarray(gcs)
    sim_gc = float(arr.mean())
    sim_tour_out = tours_out_sum / tours_out_n
    sim_tour_in = tours_in_sum / tours_in_n
    sim_pickup = pickup_sum / run
    sim_dropoff = dropoff_sum / run
    return ValidationReport(
        n_runs=run,
        converged=True,
        analytic_gc_min_per_patron=analytic.gc_per_patron_min,
        sim_gc_min_per_patron=sim_gc,
        sim_gc_std=float(arr.std(ddof=1)),
        sim_gc_se=float(arr.std(ddof=1)) / math.sqrt(run),
        gc_error_pct=_pct_error(analytic.gc_per_patron_min, sim_gc),
        outbound_tour_error_pct=_pct_error(refs["tour_out"], sim_tour_out),
        inbound_tour_error_pct=_pct_error(refs["tour_in"], sim_tour_in),
        pickup_loss_error_pct=_pct_error(refs["pickup_loss"], sim_pickup),
        dropoff_loss_error_pct=_pct_error(refs["dropoff_loss"], sim_dropoff),
        overcapacity_pct=overcap / dispatches * 100.0,
        analytic_outbound_tour_km=refs["tour_out"],
        sim_outbound_tour_km=sim_tour_out,
        analytic_inbound_tour_km=refs["tour_in"],
        sim_inbound_tour_km=sim_tour_in,
        mean_occupancy_out=occ_out_sum / occ_out_n,
        mean_occupancy_in=occ_in_sum / occ_in_n,
        heuristic_dispatches=heuristic,
    )
