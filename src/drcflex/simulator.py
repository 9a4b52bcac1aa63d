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

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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
from .tsp import MAX_EXACT_POINTS, closed_tours_batch
# Bound here only for perfbench/tracer.py, which wraps it by name; the
# simulator solves its tours with closed_tours_batch.
from .tsp import exact_tour  # noqa: F401

VALIDATION_SE_TARGET = 0.05  # standard error of mean GC, min/patron
MAX_VALIDATION_RUNS = 100_000
# Runs per validation chunk: enough to amortize the batched tour DP over many
# windows, few enough that a chunk's requests stay a few MB (one 450-run
# chunk raised peak RSS by 20-25 MB) and few runs past the stopping point are
# simulated.
_CHUNK_RUNS = 32

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
# Spans and per-span accounting
# ---------------------------------------------------------------------------


class _Spans(NamedTuple):
    """Zone-directions to serve over whole headways, run by run, then zone by
    zone with outbound first.  Requests (local xy, time from the span's start)
    and per-window staging draws are concatenated in span order.
    """

    zone: np.ndarray  # index into design.zones
    outbound: np.ndarray
    H_sched: np.ndarray
    n_windows: np.ndarray
    n_points: np.ndarray
    xy: np.ndarray
    t: np.ndarray
    staging: np.ndarray


def _spans(rows: list[tuple]) -> _Spans:
    """Pack (zone, outbound, H_sched, n_windows, xy, t, staging) rows."""
    zone, outbound, H_sched, n_windows, xy, t, staging = zip(*rows)
    per_span = (zone, outbound, H_sched, n_windows, [len(a) for a in t])
    return _Spans(*map(np.array, per_span), *map(np.concatenate, (xy, t, staging)))


def _staging(design: DesignSolution, rng: np.random.Generator, n_windows: int) -> np.ndarray:
    """One span's per-window draws, in the order the dispatches use them."""
    if design.strategy == FULLY_FLEXIBLE:
        return rng.random((n_windows, 2)) * np.array([design.grid.l, design.grid.w])
    return rng.random(n_windows) * design.w0


class _Tally(NamedTuple):
    """Raw totals (hours, km, counts) per span, or merged.  ``loss_h`` is the
    dwell lost at pick-ups (outbound) or drop-offs (inbound).
    """

    wait_h: np.ndarray
    invehicle_h: np.ndarray
    transfer_h: np.ndarray
    dist_km: np.ndarray
    veh_time_h: np.ndarray
    loss_h: np.ndarray
    tour_km: np.ndarray
    dispatches: np.ndarray
    served: np.ndarray
    overcapacity_events: np.ndarray
    heuristic_dispatches: np.ndarray


_BOOKS = 7  # the float fields of _Tally, summed in window order


def _merged(tally: _Tally, spans: np.ndarray) -> _Tally:
    """The selected spans' totals, added one span at a time (sum() adds pairwise)."""
    books = (float(np.add.accumulate(f[spans])[-1]) for f in tally[:_BOOKS])
    return _Tally(*books, *(int(f[spans].sum()) for f in tally[_BOOKS:]))


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


def _serve(
    params: ScenarioParams, design: DesignSolution, spans: _Spans
) -> tuple[_Tally, np.ndarray]:
    """Dispatch every window of every span: per-span totals and per-window tours.

    Each window's books are added to its span's totals in window order, so
    the totals do not depend on how many spans are served together.
    """
    ff = design.strategy == FULLY_FLEXIBLE
    n_w = spans.n_windows
    D = np.array([line_haul_distance(design.grid, zd.z) for zd in design.zones])[spans.zone]
    tau = np.where(spans.outbound, params.tau_p, params.tau_d)
    tour, q, wait, inveh = (_ff_windows if ff else _sf_windows)(params, design, spans, D, tau)
    sync = np.array([(zd.gamma - 1) * zd.H_d / (2.0 * zd.gamma) for zd in design.zones])
    rate = np.where(spans.outbound, params.t_ft + params.H_t / 2.0, params.t_tf + sync[spans.zone])
    dwell = np.where(spans.outbound, params.tau_a, params.tau_b)
    qf = q.astype(float)
    tau_w = np.repeat(tau, n_w)
    dist = np.repeat(D, n_w) + tour
    veh = dist / params.v_l + qf * tau_w
    transfer = qf * np.repeat(rate, n_w) + np.repeat(dwell, n_w) * qf * qf / 2.0
    loss = tau_w * qf * qf
    loss[np.repeat(~spans.outbound | (not ff), n_w)] /= 2.0  # FF pick-ups lose the whole dwell
    first = np.cumsum(n_w) - n_w
    totals = np.zeros((_BOOKS, len(n_w)))
    for j in range(int(n_w.max())):  # add each span's j-th window
        live = np.flatnonzero(n_w > j)
        for total, book in zip(totals, (wait, inveh, transfer, dist, veh, loss, tour)):
            total[live] += book[first[live] + j]
    span_of = np.repeat(np.arange(len(n_w)), n_w)
    flagged = (q > design.K, ff & (q >= MAX_EXACT_POINTS))  # overcapacity, heuristic tour
    overcapacity, heuristic = (np.bincount(span_of[f], minlength=len(n_w)) for f in flagged)
    return _Tally(*totals, n_w, spans.n_points, overcapacity, heuristic), tour


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


def _ff_windows(
    params: ScenarioParams, design: DesignSolution, spans: _Spans, D: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Tour and account every fully flexible window of the spans.

    Returns per window: the tour length, the load q, and the summed waits
    and in-vehicle times of its riders.  Windows are solved grouped by q,
    one batched exact DP per group, and each group's riders are accounted
    as one (windows, q) array; q >= 20 falls back to a heuristic per window.

    The dispatch point is drawn uniformly in the zone per dispatch (the
    vehicle's staging position when the window closes is unmodeled), which
    makes the realized tour the same construction the tour-length law was
    calibrated on: an exact cycle through q + 1 exchangeable points.  An
    anchored dispatch corner would bias realized tours by over 20%.
    """
    n_w, n_pts, v = spans.n_windows, spans.n_points, params.v_l
    first = np.cumsum(n_w) - n_w  # each span's first window
    local = np.minimum((spans.t / np.repeat(spans.H_sched, n_pts)).astype(int), np.repeat(n_w - 1, n_pts))
    window = np.repeat(first, n_pts) + local
    by_window = np.argsort(window, kind="stable")  # a window's requests keep their order
    q = np.bincount(window, minlength=int(n_w.sum()))
    start = np.cumsum(q) - q
    span_of = np.repeat(np.arange(len(n_w)), n_w)
    tour, wait, inveh = np.zeros(len(q)), np.zeros(len(q)), np.zeros(len(q))
    for k in np.unique(q[q > 0]):
        w = np.flatnonzero(q == k)
        s = span_of[w, None]
        stops = by_window[start[w, None] + np.arange(k)]
        nodes = np.concatenate((spans.staging[w, None], spans.xy[stops]), axis=1)
        if k < MAX_EXACT_POINTS:
            length, order = closed_tours_batch(nodes)
        else:
            tours = [_heuristic_closed_tour(np.abs(n[:, None] - n[None]).sum(axis=2)) for n in nodes]
            length, order = np.array([c[0] for c in tours]), np.array([c[1] for c in tours])
        path = np.take_along_axis(nodes, order[:, :, None], axis=1)
        steps = np.abs(path[:, 1:] - path[:, :-1])
        positions = np.add.accumulate(steps[:, :, 0] + steps[:, :, 1], axis=1)
        t_visit = spans.t[np.take_along_axis(stops, order[:, 1:] - 1, axis=1)]
        dispatch = (w[:, None] - first[s] + 1) * spans.H_sched[s]
        ranks = np.arange(1, k + 1, dtype=float)  # visit order 1..q
        ride = (ranks - 0.5) * tau[s]
        waits = (dispatch - t_visit) + positions / v + ride
        ahead = (length[:, None] - positions) / v + (k - ranks + 0.5) * tau[s] + D[s] / v
        behind = D[s] / v + positions / v + ride
        out = spans.outbound[span_of[w]]
        tour[w] = length
        wait[w] = np.where(out, waits.sum(axis=1), 0.0)
        inveh[w] = np.where(out, ahead.sum(axis=1), behind.sum(axis=1))
    return tour, q, wait, inveh


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


def _sf_windows(
    params: ScenarioParams, design: DesignSolution, spans: _Spans, D: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Sweep buses through every span's windows: tour, load, waits, in-vehicle times."""
    v = params.v_l
    serp = _serpentine_for(design.grid, design.w0)
    end_fixed = serp.fixed_path + design.w0 / 2.0  # sweep, connections, end leg
    n_all = int(spans.n_windows.sum())
    tours, wait, inveh = np.full(n_all, end_fixed), np.zeros(n_all), np.zeros(n_all)
    loads = np.zeros(n_all, dtype=int)
    p_end = np.cumsum(spans.n_points)
    w_end = np.cumsum(spans.n_windows)
    for s, (H_sched, n_windows) in enumerate(zip(spans.H_sched.tolist(), spans.n_windows.tolist())):
        pts = slice(p_end[s] - spans.n_points[s], p_end[s])
        xy, t = spans.xy[pts], spans.t[pts]
        w_first = w_end[s] - n_windows
        progress, lat = _sf_progress(serp, xy)
        if spans.outbound[s]:
            # hailing: served by the first bus whose sweep has not passed yet
            passage_shift = progress / v
            bus = np.ceil((t - passage_shift) / H_sched - 1e-12).astype(int)
            bus = np.maximum(bus, 0)
            nominal = bus * H_sched + passage_shift
            window = bus % n_windows
        else:
            # boarding at the terminal: batched by departure windows
            window = np.minimum((t / H_sched).astype(int), n_windows - 1)
        by_sweep = np.lexsort((progress, window))  # by window, then along the sweep
        bounds = np.cumsum(np.bincount(window, minlength=n_windows)).tolist()
        lo = 0
        for j, hi in enumerate(bounds):
            order = by_sweep[lo:hi]
            lo = hi
            q = len(order)
            if q == 0:
                continue
            prev_c = spans.staging[w_first + j]
            lateral_legs = np.empty(q)
            for i, idx in enumerate(order):
                lateral_legs[i] = abs(lat[idx] - prev_c)
                prev_c = lat[idx]
            tour = end_fixed + float(lateral_legs.sum())
            ranks = np.arange(1, q + 1, dtype=float)
            if spans.outbound[s]:
                remaining_lat = (lateral_legs.sum() - np.cumsum(lateral_legs)) + lateral_legs / 2.0
                remaining_fixed = end_fixed - progress[order]
                waits = (nominal[order] - t[order]) + lateral_legs / v
                ride = remaining_fixed / v + remaining_lat / v + (q - ranks + 0.5) * tau[s] + D[s] / v
                wait[w_first + j] = float(waits.sum())
            else:
                ride = (
                    D[s] / v
                    + (progress[order] + np.cumsum(lateral_legs) - lateral_legs / 2.0) / v
                    + (ranks - 0.5) * tau[s]
                )
            tours[w_first + j] = tour
            inveh[w_first + j] = float(ride.sum())
            loads[w_first + j] = q
    return tours, loads, wait, inveh


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
    horizon = demand.horizon
    by_zone = {
        "outbound": _zone_slices(params, grid, demand.outbound),
        "inbound": _zone_slices(params, grid, demand.inbound),
    }
    rows = []
    for i, zd in enumerate(design.zones):
        for direction in DIRECTIONS:
            xy, t = by_zone[direction][(zd.z.m, zd.z.n)]
            n_w = max(1, round(horizon / zd.headway(direction)))
            rows.append((i, direction == "outbound", horizon / n_w, n_w, xy, t, _staging(design, rng, n_w)))
    spans = _spans(rows)
    tally, tours = _serve(params, design, spans)
    out = _merged(tally, spans.outbound)
    inb = _merged(tally, ~spans.outbound)
    outbound_windows = np.repeat(spans.outbound, spans.n_windows)
    gc = _gc_hours(params, design.K, out, inb) / horizon
    patrons = (params.lambda_p + params.lambda_d) * params.L * params.W
    return SimRun(
        gc_hours=gc,
        gc_min_per_patron=gc * 60.0 / patrons,
        horizon=horizon,
        tours_out=tuple(tours[outbound_windows].tolist()),
        tours_in=tuple(tours[~outbound_windows].tolist()),
        pickup_loss_h=out.loss_h / horizon,
        dropoff_loss_h=inb.loss_h / horizon,
        overcapacity_events=out.overcapacity_events + inb.overcapacity_events,
        dispatches=out.dispatches + inb.dispatches,
        served=out.served + inb.served,
        heuristic_dispatches=out.heuristic_dispatches + inb.heuristic_dispatches,
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
    to the hourly analytical model.  Run r draws from its own
    ``SeedSequence((seed, r))`` stream.  Runs are served ``_CHUNK_RUNS`` at a
    time; the report equals that of serving them one at a time.
    """
    validate_design(params, design)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        analytic = total_generalized_cost(params, design, model)
    refs = _analytic_references(params, design, model)
    grid = design.grid
    patrons = (params.lambda_p + params.lambda_d) * params.L * params.W
    zone_scale = np.array([grid.l, grid.w])
    layout = []  # one run's spans: (zone, direction, arrival rate, headway, windows)
    for i, zd in enumerate(design.zones):
        for direction in DIRECTIONS:
            lam = params.lambda_p if direction == "outbound" else params.lambda_d
            H = zd.headway(direction)
            layout.append((i, direction, lam, H, max(1, round(1.0 / H))))
    outbound = np.array([direction == "outbound" for _, direction, _, _, _ in layout])
    scale = np.array([1.0 / (n_w * H) for _, _, _, H, n_w in layout])  # per hour of span
    c_dist = params.pi_v(design.K) / params.theta
    c_time = params.pi_m(design.K) / params.theta

    def draw(run: int) -> list[tuple]:
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        rows = []
        for i, direction, lam, H, n_w in layout:
            span = n_w * H
            n = rng.poisson(lam * grid.l * grid.w * span)
            xy = rng.random((n, 2)) * zone_scale
            t = rng.random(n) * span
            rows.append((i, direction == "outbound", H, n_w, xy, t, _staging(design, rng, n_w)))
        return rows

    gcs: list[float] = []
    kept = []  # per chunk, the span totals of its runs up to the stopping run
    run = 0
    converged = False
    while not converged:
        spans = _spans([row for r in range(run, run + _CHUNK_RUNS) for row in draw(r)])
        tally = _Tally(*(f.reshape(_CHUNK_RUNS, len(layout)) for f in _serve(params, design, spans)[0]))
        waits = params.alpha * tally.wait_h * scale
        books = tally.invehicle_h + tally.transfer_h + c_dist * tally.dist_km + c_time * tally.veh_time_h
        rest = books * scale
        gc = np.zeros(_CHUNK_RUNS)
        for s, is_out in enumerate(outbound):  # zone-directions in order, as hourly rates
            if is_out:
                gc = gc + waits[:, s]
            gc = gc + rest[:, s]
        for used, gc_run in enumerate((gc * 60.0 / patrons).tolist(), start=1):
            gcs.append(gc_run)
            run += 1
            if run >= min_runs:
                std = float(np.asarray(gcs).std(ddof=1))
                se = std / math.sqrt(run)
                if se < VALIDATION_SE_TARGET:
                    converged = True
                    break
                if run >= MAX_VALIDATION_RUNS:
                    raise ValidationConvergenceError(
                        f"mean GC standard error {se:.4f} min/patron above "
                        f"{VALIDATION_SE_TARGET} after {run} runs (per-run std {std:.4f})"
                    )
        kept.append(_Tally(*(f[:used] for f in tally._replace(loss_h=tally.loss_h * scale))))

    tally = _Tally(*(np.concatenate(f).ravel() for f in zip(*kept)))  # hourly-rate losses
    out = _merged(tally, np.tile(outbound, run))
    inb = _merged(tally, np.tile(~outbound, run))
    arr = np.asarray(gcs)
    sim_gc = float(arr.mean())
    sim_tour_out = out.tour_km / out.dispatches
    sim_tour_in = inb.tour_km / inb.dispatches
    return ValidationReport(
        n_runs=run,
        analytic_gc_min_per_patron=analytic.gc_per_patron_min,
        sim_gc_min_per_patron=sim_gc,
        sim_gc_std=float(arr.std(ddof=1)),
        sim_gc_se=float(arr.std(ddof=1)) / math.sqrt(run),
        gc_error_pct=_pct_error(analytic.gc_per_patron_min, sim_gc),
        outbound_tour_error_pct=_pct_error(refs["tour_out"], sim_tour_out),
        inbound_tour_error_pct=_pct_error(refs["tour_in"], sim_tour_in),
        pickup_loss_error_pct=_pct_error(refs["pickup_loss"], out.loss_h / run),
        dropoff_loss_error_pct=_pct_error(refs["dropoff_loss"], inb.loss_h / run),
        overcapacity_pct=(out.overcapacity_events + inb.overcapacity_events)
        / (out.dispatches + inb.dispatches)
        * 100.0,
        analytic_outbound_tour_km=refs["tour_out"],
        sim_outbound_tour_km=sim_tour_out,
        analytic_inbound_tour_km=refs["tour_in"],
        sim_inbound_tour_km=sim_tour_in,
        mean_occupancy_out=out.served / out.dispatches,
        mean_occupancy_in=inb.served / inb.dispatches,
        heuristic_dispatches=out.heuristic_dispatches + inb.heuristic_dispatches,
    )
