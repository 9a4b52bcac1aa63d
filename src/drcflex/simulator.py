"""Monte Carlo operational simulation of both routing strategies.

Each run realizes spatial Poisson demand, executes the dispatch rules zone
by zone, and accumulates the same cost books the analytical model predicts:
waits, in-vehicle times, transfers, vehicle distance and time, dwell losses,
and overcapacity events.  Validation repeats independent runs, drawn and
served in blocks of 64 with one random stream per block, until, from
``min_runs`` on, the standard error of the mean generalized cost is below
``VALIDATION_SE_TARGET``, then reports the percentage gap between the
analytical and simulated figures.

Three conventions keep the comparison unbiased.  Validation simulates each
zone and direction over its own horizon of round(1/H) whole headways, so no
dispatch window is ever truncated (a clipped window would distort occupancy
and dispatch-rate statistics by several percent, swamping the model errors
being measured).  Fully-flexible tours are closed cycles through a
dispatch point drawn uniformly in the zone, the same construction the
tour-length coefficients were calibrated on.  And a fully-flexible window's
riders are charged the mean of its shortest tour's two walks, as the model's
half tour prices them, so no tie or direction choice of the tour solver
moves a report, and only tour lengths are solved.  A semi-flexible window's
riders are booked in closed form, from one sort of the requests into sweep order.
"""

from __future__ import annotations

import functools
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
    LowOccupancyWarning,
    _books,
    mean_occupancy,
    total_generalized_cost,
    validate_design,
)
from .expectations import WeibullTourLaw
from .params import ScenarioParams, ZoneGrid, line_haul_distance
from .tourlength import KStarModel, feasible_swath_widths
from .tsp import MAX_EXACT_POINTS, _held_karp, _manhattan, _widest_layer
# Bound here only for perfbench/tracer.py, which wraps it by name; the
# simulator solves tour lengths only and never calls it.
from .tsp import exact_tour  # noqa: F401

VALIDATION_SE_TARGET = 0.05  # standard error of mean GC, min/patron
MAX_VALIDATION_RUNS = 100_000
# Runs per random stream: block b of a validation's runs draws from SeedSequence((seed, b)).
# It defines the stream, so changing it moves every report.  It also bounds the runs served at
# once: against 64, perfbench validate's FF part took 5% / 10% less time with 96 / 128 runs per
# chunk, and its peak RSS rose by 1.7 / 3.1 MB (5 alternating runs each).
_BLOCK_RUNS = 64
# Bytes of the two widest float64 layers one lengths-only DP call of a load group may hold, and
# at least one tour per call: 1.6 MB for a 17-point tour, 14.8 MB for a 20-point one.
_LAYER_BYTES = 1 << 23

TABLE_ROW_LABELS = (
    "Errors in GC",
    "Errors in outbound tour length",
    "Errors in inbound tour length",
    "Errors in cumulative pick-up time loss",
    "Errors in cumulative drop-off time loss",
    "Overcapacity",
)


class ValidationConvergenceError(RuntimeError):
    """The mean GC's standard error stayed at or above ``VALIDATION_SE_TARGET`` through ``MAX_VALIDATION_RUNS`` runs."""


def _check_horizon(horizon: float) -> None:
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")


@dataclass(frozen=True)
class DemandRealization:
    """One horizon of requests: rows are (x, y, request time)."""

    outbound: np.ndarray
    inbound: np.ndarray
    horizon: float = 1.0

    def __post_init__(self) -> None:
        _check_horizon(self.horizon)
        for name in ("outbound", "inbound"):
            arr = getattr(self, name)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(f"demand array {name} must have shape (n, 3)")
            if not ((arr[:, 2] >= 0) & (arr[:, 2] < self.horizon)).all():
                raise ValueError(f"{name} request times must lie in [0, {self.horizon}) h")


def generate_demand(
    params: ScenarioParams, rng_seed: int, horizon: float = 1.0
) -> DemandRealization:
    """Spatial Poisson demand over the region and the given horizon (hours)."""
    _check_horizon(horizon)
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be non-negative, got {rng_seed}")
    rng = np.random.default_rng(rng_seed)
    lists = []
    for lam in (params.lambda_p, params.lambda_d):
        n = rng.poisson(lam * params.L * params.W * horizon)
        lists.append(np.stack((rng.random(n) * params.L, rng.random(n) * params.W, rng.random(n) * horizon), axis=1))
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


def _staging_draws(design: DesignSolution, n_windows: np.ndarray) -> np.ndarray:
    """Staging draws per span: a point per fully flexible window, an offset per semi-flexible one."""
    return n_windows * (2 if design.strategy == FULLY_FLEXIBLE else 1)


def _pack(
    design: DesignSolution, columns: tuple, n_points: np.ndarray, requests: tuple, staging: np.ndarray
) -> _Spans:
    """Pack spans from their (zone, outbound, H_sched, n_windows) columns, their
    requests' (xy, t) and their uniform staging draws, which become an (l, w)
    point per fully flexible window or a w0 offset per semi-flexible one.
    """
    ff = design.strategy == FULLY_FLEXIBLE
    staging = staging.reshape(-1, 2) * np.array([design.grid.l, design.grid.w]) if ff else staging * design.w0
    return _Spans(*columns, n_points, *requests, staging)


@functools.lru_cache(maxsize=1)  # a validation that passes min_runs inside a block serves its rest from one draw
def _draw_block(means: bytes, draws: int, seed: int, block: int) -> tuple[np.ndarray, ...]:
    """Block ``block`` of a validation's runs as ``run_validation`` states it: the
    request counts of its spans, unit xy and times of its requests, and its
    staging draws, given one run's float64 mean request counts and staging draws."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block))))  # default_rng's stream
    n = rng.poisson(np.tile(np.frombuffer(means), _BLOCK_RUNS))
    drawn = (n, rng.random((n.sum(), 2)), rng.random(n.sum()), rng.random(_BLOCK_RUNS * draws))
    for a in drawn:
        a.flags.writeable = False  # shared by the calls the cache serves
    return drawn


def _draw_runs(
    design: DesignSolution, layout: tuple[np.ndarray, ...], means: np.ndarray, seed: int, runs: range
) -> _Spans:
    """The spans of validation ``runs``, which must lie in one block of
    ``_BLOCK_RUNS`` runs: the block is drawn whole by ``_draw_block``, given
    one run's (zone, outbound, H, n_windows) columns and mean request counts,
    and cut to ``runs``."""
    block, lo = divmod(runs.start, _BLOCK_RUNS)
    hi = lo + len(runs)
    spans, draws = len(means), int(_staging_draws(design, layout[3]).sum())  # per run
    n, xy, t, staging = _draw_block(np.asarray(means, dtype=float).tobytes(), draws, seed, block)
    r_lo, r_hi = np.concatenate(([0], np.cumsum(n)))[[lo * spans, hi * spans]]  # the runs' requests
    n, columns = n[lo * spans : hi * spans], tuple(np.tile(c, len(runs)) for c in layout)
    span_h = np.repeat(columns[2] * columns[3], n)  # each request's span length
    requests = (xy[r_lo:r_hi] * np.array([design.grid.l, design.grid.w]), t[r_lo:r_hi] * span_h)
    return _pack(design, columns, n, requests, staging[lo * draws : hi * draws])


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
    user = params.alpha * out.wait_h + out.invehicle_h + inb.invehicle_h + out.transfer_h + inb.transfer_h
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
    span_of = np.repeat(np.arange(len(n_w)), n_w)
    # bincount adds each span's windows in window order from 0.0, not pairwise as sum() does
    totals = (np.bincount(span_of, b, len(n_w)) for b in (wait, inveh, transfer, dist, veh, loss, tour))
    flagged = (q > design.K, ff & (q >= MAX_EXACT_POINTS))  # overcapacity, heuristic tour
    overcapacity, heuristic = (np.bincount(span_of[f], minlength=len(n_w)) for f in flagged)
    return _Tally(*totals, n_w, spans.n_points, overcapacity, heuristic), tour


# ---------------------------------------------------------------------------
# Fully-flexible dispatch mechanics
# ---------------------------------------------------------------------------


def _heuristic_tour_length(dist: np.ndarray) -> float:
    """Nearest neighbour plus 2-opt for batches beyond the exact solver: the closed tour's length."""
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
    return float(sum(dist[order[i], order[(i + 1) % n]] for i in range(n)))


def _load_groups(spans: _Spans, local: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Group every window of the spans by its load q.  ``local`` is each request's window
    within its span.  Returns the load of every window and, per distinct q > 0, the windows
    of that load and their (windows, q) requests, kept in span order."""
    n_w = spans.n_windows
    window = np.repeat(np.cumsum(n_w) - n_w, spans.n_points) + local
    q = np.bincount(window, minlength=int(n_w.sum()))
    # stable, so span order within a window; numpy radix-sorts keys of 16 bits or less
    by_window = np.argsort(window.astype(np.min_scalar_type(len(q) - 1)), kind="stable")
    start = np.cumsum(q) - q
    groups = []
    for k in np.unique(q[q > 0]):
        w = np.flatnonzero(q == k)
        groups.append((w, by_window[start[w, None] + np.arange(k)]))
    return q, groups


def _ff_windows(
    params: ScenarioParams, design: DesignSolution, spans: _Spans, D: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Tour and account every fully flexible window of the spans.

    Returns per window: the tour length, the load q, and the summed waits
    and in-vehicle times of its riders.  Windows are solved grouped by q,
    one batched lengths-only DP per group, split so that its two live
    float64 layers stay within ``_LAYER_BYTES``; q >= 20 falls back to a
    heuristic per window.

    Each window is charged the mean of its tour's two walks (conditional
    Monte Carlo), where its riders' positions along a tour of length L sum to
    q*L/2: the waits sum to q*dispatch - sum(t) + q*L/(2v) + tau*q^2/2, and
    the rides to q*L/(2v) + tau*q^2/2 + q*D/v in both directions.

    The dispatch point is drawn uniformly in the zone per dispatch (the
    vehicle's staging position when the window closes is unmodeled), which
    makes the realized tour the same construction the tour-length law was
    calibrated on: an exact cycle through q + 1 exchangeable points.  An
    anchored dispatch corner would bias realized tours by over 20%.
    """
    n_w, n_pts, v = spans.n_windows, spans.n_points, params.v_l
    first = np.cumsum(n_w) - n_w  # each span's first window
    local = np.minimum((spans.t / np.repeat(spans.H_sched, n_pts)).astype(int), np.repeat(n_w - 1, n_pts))
    q, groups = _load_groups(spans, local)
    tour = np.zeros(len(q))
    for w, stops in groups:
        k = stops.shape[1]
        nodes = np.concatenate((spans.staging.take(w[:, None], axis=0), spans.xy.take(stops, axis=0)), axis=1)
        if k < MAX_EXACT_POINTS:
            step = max(1, _LAYER_BYTES // (2 * 8 * max(_widest_layer(k + 1), 1)))
            tour[w] = np.concatenate([_held_karp(_manhattan(nodes[lo:lo + step]))[0] for lo in range(0, len(w), step)])
        else:
            tour[w] = [_heuristic_tour_length(d) for d in _manhattan(nodes).transpose(2, 0, 1)]
    sum_t = np.bincount(np.repeat(first, n_pts) + local, spans.t, len(q))
    qf = q.astype(float)
    dispatch = (np.arange(len(q)) - np.repeat(first, n_w) + 1) * np.repeat(spans.H_sched, n_w)
    ride = qf * tour / (2.0 * v) + np.repeat(tau, n_w) * qf * qf / 2.0
    wait = np.where(np.repeat(spans.outbound, n_w), qf * dispatch - sum_t + ride, 0.0)
    return tour, q, wait, ride + qf * np.repeat(D / v, n_w)


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
            along_l = cfg.along == "l"
            return _Serpentine(cfg.w0, cfg.n_strips, grid.l if along_l else grid.w, along_l)
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


def _sweep_order(window: np.ndarray, progress: np.ndarray, n_windows: int) -> np.ndarray:
    """The requests by window, then sweep progress, then span order.  A permutation that
    sorts distinct keys is unique, so the default argsort by progress needs replacing by a
    stable one only on ties; a stable (radix, for 16-bit ids) sort by window follows."""
    order = np.argsort(progress)
    ordered = progress.take(order)
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(progress, kind="stable")
    return order.take(np.argsort(window.take(order).astype(np.min_scalar_type(n_windows - 1)), kind="stable"))


def _sf_windows(
    params: ScenarioParams, design: DesignSolution, spans: _Spans, D: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Sweep buses through every semi-flexible window of the spans.

    Returns per window: the tour length, the load q, and the summed waits and in-vehicle
    times of its riders.  Every request's sweep progress, lateral offset and window are
    computed in one pass: an outbound request hails the first bus whose sweep has not yet
    passed it, an inbound one boards at the terminal in its departure window.  Sorted once
    into sweep order, each rider's lateral leg runs from the previous rider's offset in its
    window, or from the window's staging offset; the tour adds the legs to the fixed sweep.
    With rank rho = 0..q-1 in sweep order, the lateral distance ahead of the riders sums to
    sum(rho*leg), behind them to sum((q - rho)*leg), and their dwells to tau*q^2/2, so the
    books are ``np.bincount`` sums per window: waits sum(nominal - t) + lateral/v, outbound
    rides (q*end - sum(progress) + sum(rho*leg) + lateral/2)/v + tau*q^2/2 + q*D/v, inbound
    rides (sum(progress) + sum((q - rho)*leg) - lateral/2)/v + tau*q^2/2 + q*D/v.
    """
    v, n_pts, n_w = params.v_l, spans.n_points, spans.n_windows
    serp = _serpentine_for(design.grid, design.w0)
    end_fixed = serp.fixed_path + design.w0 / 2.0  # sweep, connections, end leg
    progress, lat = _sf_progress(serp, spans.xy)
    H_sched, n_windows = np.repeat(spans.H_sched, n_pts), np.repeat(n_w, n_pts)
    passage = progress / v
    bus = np.maximum(np.ceil((spans.t - passage) / H_sched - 1e-12).astype(int), 0)
    nominal = bus * H_sched + passage
    depart = np.minimum((spans.t / H_sched).astype(int), n_windows - 1)
    local = np.where(np.repeat(spans.outbound, n_pts), bus % n_windows, depart)
    window, waits = np.repeat(np.cumsum(n_w) - n_w, n_pts) + local, nominal - spans.t
    del H_sched, n_windows, passage, bus, nominal, depart, local  # before the sort, at the peak of memory
    q = np.bincount(window, minlength=int(n_w.sum()))
    order = _sweep_order(window, progress, len(q))
    w, c, first = window.take(order), lat.take(order), np.cumsum(q) - q  # first: each window's first rider
    leg = np.roll(c, 1)  # legs from the previous rider's offset, or from the window's staging offset
    leg[first[q > 0]] = spans.staging[q > 0]
    leg = np.abs(np.subtract(c, leg, out=leg), out=leg)
    rank, outbound = np.arange(len(w)) - first.take(w), np.repeat(spans.outbound, n_w)
    ranked = np.where(outbound.take(w), rank, q.take(w) - rank) * leg  # rho*leg outbound, (q - rho)*leg inbound
    lateral, along, waited, swept = (
        np.bincount(w, x, len(q)) for x in (leg, progress.take(order), waits.take(order), ranked)
    )
    qf = q.astype(float)
    ahead, behind = (qf * end_fixed - along + swept + lateral / 2.0) / v, (along + swept - lateral / 2.0) / v
    inveh = np.where(outbound, ahead, behind) + (np.repeat(tau, n_w) * qf * qf / 2.0 + qf * np.repeat(D / v, n_w))
    return end_fixed + lateral, q, np.where(outbound, waited + lateral / v, 0.0), inveh


# ---------------------------------------------------------------------------
# Region-level entry points
# ---------------------------------------------------------------------------


def _simulate_region(
    params: ScenarioParams,
    design: DesignSolution,
    demand: DemandRealization,
    rng: np.random.Generator,
) -> SimRun:
    """Serve a given region realization; schedule stretched to whole windows."""
    validate_design(params, design)
    for name in ("outbound", "inbound"):
        xy = getattr(demand, name)[:, :2]
        if not ((xy >= 0) & (xy <= (params.L, params.W))).all():
            raise ValueError(f"{name} request positions must lie in the {params.L} x {params.W} km region")
    grid = design.grid
    horizon = demand.horizon
    # span 2*i + d serves design.zones[i] in direction DIRECTIONS[d], as _Spans orders them
    n_w = np.array([max(1, round(horizon / zd.headway(d))) for zd in design.zones for d in DIRECTIONS])
    span_ids = np.arange(len(n_w))
    columns = (span_ids // 2, span_ids % 2 == 0, horizon / n_w, n_w)
    slot = np.empty((grid.M, grid.N), dtype=int)
    for i, zd in enumerate(design.zones):
        slot[zd.z.m - 1, zd.z.n - 1] = i
    xyt = np.concatenate((demand.outbound, demand.inbound))
    n_idx = np.minimum((xyt[:, 0] / grid.l).astype(int), grid.N - 1)
    m_idx = np.minimum((xyt[:, 1] / grid.w).astype(int), grid.M - 1)
    request_span = 2 * slot[m_idx, n_idx] + np.repeat((0, 1), (len(demand.outbound), len(demand.inbound)))
    order = np.argsort(request_span, kind="stable")  # keeps each span's requests in demand order
    xy = (xyt[:, :2] - np.stack((n_idx * grid.l, m_idx * grid.w), axis=1))[order]
    staging = rng.random(int(_staging_draws(design, n_w).sum()))
    n_points = np.bincount(request_span, minlength=len(n_w))
    spans = _pack(design, columns, n_points, (xy, xyt[order, 2]), staging)
    tally, tours = _serve(params, design, spans)
    out = _merged(tally, spans.outbound)
    inb = _merged(tally, ~spans.outbound)
    outbound_windows = np.repeat(spans.outbound, spans.n_windows)
    gc = _gc_hours(params, design.K, out, inb) / horizon
    return SimRun(
        gc_hours=gc,
        gc_min_per_patron=gc * 60.0 / params.patrons_per_h,
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


def _pct_error(analytic: float, simulated: float) -> float:
    if simulated == 0.0:
        return 0.0 if analytic == 0.0 else math.inf
    return abs(analytic - simulated) / abs(simulated) * 100.0


def run_validation(
    params: ScenarioParams,
    design: DesignSolution,
    model: KStarModel | WeibullTourLaw,
    min_runs: int = 1000,
    seed: int = 0,
) -> ValidationReport:
    """Run at least ``min_runs`` runs, until the mean GC's SE is below ``VALIDATION_SE_TARGET``; compare to theory.

    Every zone-direction is simulated over its own whole number of headways
    (round(1/H) windows) per run, so realized rates are directly comparable
    to the hourly analytical model.  Runs come in blocks of ``_BLOCK_RUNS``;
    block b draws from its own ``SeedSequence((seed, b))`` stream in four
    calls: the Poisson request counts of its spans (run by run, zone by zone,
    outbound first), every request's xy (N rows of 2), every request's time,
    then every staging draw (an (l, w) pair per FF window, a w0 offset per
    SF window).  Runs are served a block at a time, the first block that
    reaches ``min_runs`` cut there.
    """
    if not 2 <= min_runs <= MAX_VALIDATION_RUNS:  # two runs estimate a standard error
        raise ValueError(f"min_runs must lie in [2, MAX_VALIDATION_RUNS = {MAX_VALIDATION_RUNS}], got {min_runs}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowOccupancyWarning)
        analytic = total_generalized_cost(params, design, model)
    grid = design.grid
    layout = []  # one run's spans: (zone, outbound, arrival rate, headway, windows)
    # the model's references: tours per dispatch weighted by windows, hourly dwell losses
    windows, tour_sum, loss = ({d: 0.0 for d in DIRECTIONS} for _ in range(3))
    for i, zd in enumerate(design.zones):
        for direction in DIRECTIONS:
            lam = params.lambda_p if direction == "outbound" else params.lambda_d
            H = zd.headway(direction)
            n_w = max(1, round(1.0 / H))
            layout.append((i, direction == "outbound", lam, H, n_w))
            tour_km = _books(params, grid, zd, direction, design.strategy, model, design.w0, design.K).tour_km
            mu = mean_occupancy(params, grid, zd, direction)
            tau = params.tau_p if direction == "outbound" else params.tau_d
            whole = design.strategy == FULLY_FLEXIBLE and direction == "outbound"  # FF pick-ups
            windows[direction] += n_w
            tour_sum[direction] += n_w * tour_km
            loss[direction] += tau * (mu * mu + mu) / (H if whole else 2.0 * H)
    ref_tour_out = tour_sum["outbound"] / windows["outbound"]
    ref_tour_in = tour_sum["inbound"] / windows["inbound"]
    zone, outbound, lam, H, n_w = map(np.array, zip(*layout))
    means = lam * grid.l * grid.w * (n_w * H)  # requests per span
    scale = 1.0 / (n_w * H)  # per hour of span
    c_dist = params.pi_v(design.K) / params.theta
    c_time = params.pi_m(design.K) / params.theta

    gcs = np.empty(0)  # per-run GC, min/patron
    kept = []  # per chunk, the span totals of its runs up to the stopping run
    run = 0
    converged = False
    while not converged:
        # the rest of the current block, cut at min_runs
        size = min(_BLOCK_RUNS - run % _BLOCK_RUNS, min_runs - run if run < min_runs else _BLOCK_RUNS)
        spans = _draw_runs(design, (zone, outbound, H, n_w), means, seed, range(run, run + size))
        tally = _Tally(*(f.reshape(size, len(layout)) for f in _serve(params, design, spans)[0]))
        waits = params.alpha * tally.wait_h * scale
        rest = (tally.invehicle_h + tally.transfer_h + c_dist * tally.dist_km + c_time * tally.veh_time_h) * scale
        # zone-directions in order, as hourly rates; inbound waits are 0.0, and x + 0.0 == x
        gc = np.add.accumulate(np.stack((waits, rest), axis=2).reshape(size, -1), axis=1)[:, -1]
        gcs = np.concatenate((gcs, gc * 60.0 / params.patrons_per_h))
        for used in range(1, size + 1):
            run += 1
            if run >= min_runs:
                std = float(gcs[:run].std(ddof=1))
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
    arr = gcs[:run]
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
        outbound_tour_error_pct=_pct_error(ref_tour_out, sim_tour_out),
        inbound_tour_error_pct=_pct_error(ref_tour_in, sim_tour_in),
        pickup_loss_error_pct=_pct_error(loss["outbound"], out.loss_h / run),
        dropoff_loss_error_pct=_pct_error(loss["inbound"], inb.loss_h / run),
        overcapacity_pct=(out.overcapacity_events + inb.overcapacity_events)
        / (out.dispatches + inb.dispatches)
        * 100.0,
        analytic_outbound_tour_km=ref_tour_out,
        sim_outbound_tour_km=sim_tour_out,
        analytic_inbound_tour_km=ref_tour_in,
        sim_inbound_tour_km=sim_tour_in,
        mean_occupancy_out=out.served / out.dispatches,
        mean_occupancy_in=inb.served / inb.dispatches,
        heuristic_dispatches=out.heuristic_dispatches + inb.heuristic_dispatches,
    )
