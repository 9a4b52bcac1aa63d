"""Exhaustive design search with continuous headway optimization as one array program.

The discrete variables (grid shape M x N, vehicle capacity K, and for
semi-flexible routing the swath width w0) are enumerated exhaustively.  For
each combination the generalized cost separates into independent per-zone,
per-direction terms, and zones sharing a line-haul distance D have identical
optima.  K and w0 enter those terms only through the kernel's inputs and the
capacity caps, so the whole space is solved at once: one block per grid,
with one lane per (K, w0, distinct D), each lane carrying its own zone
geometry.  Both strategies read a lane's outbound cost from the kernel at
three headways under a tour law with no tour terms, where it is
A/H + B + C*H.  A semi-flexible lane has no tour terms, so its headway is
sqrt(A/C) clipped to its bounds (Newell's square-root rule).  A fully
flexible lane adds (d*R + e*T)/H, R and T the law's expected tour units at
the lane's occupancy; two more kernel headways give d and e.  Its candidate
headways are the interval's ends and every minimum inside it, a root of
the cost's closed-form derivative, and one kernel call prices them.  One
more call enumerates the inbound sync multiple gamma over (lanes, gamma),
and one pricing pass over (combination, zone, direction) checks and costs
every solved combination as ``total_generalized_cost`` would.  Spaces of
more than ``_MAX_LANES`` lanes are solved in runs of whole grids, to bound
memory.  ``optimize_zone_headway`` and ``optimize_zone_gamma`` are the same
solves for a single zone.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .costs import (
    FULLY_FLEXIBLE,
    SEMI_FLEXIBLE,
    CostBreakdown,
    DesignSolution,
    Direction,
    InfeasibleDesignError,
    LowOccupancyWarning,
    ZONE_CHECKS,
    ZoneCostTerms,
    ZoneDesign,
    ZoneShape,
    add_books,
    capacity_ok,
    cost_books,
    headway_cap_from_capacity,
    headway_ok,
    low_occupancy,
    mean_occupancy,
    occupancy,
    total_generalized_cost,
    zone_books,
    zone_failures,
    zone_means,
)
# The per-book views stay bound here: perfbench/tracer.py wraps them by name.
from .costs import (  # noqa: F401
    ff_agency_cost_direction,
    ff_local_tour_cost_zone,
    ff_wait_cost_zone,
    line_haul_cost_zone,
    sf_agency_cost_direction,
    sf_local_tour_cost_zone,
    sf_wait_cost_zone,
    transfer_cost_zone,
)
from .expectations import WeibullTourLaw, as_tour_law
from .params import ScenarioParams, ZoneGrid, ZoneIndex, line_haul_distance, make_grid
from .tourlength import KStarModel, TABLE1_MODEL, feasible_swath_widths, swath_tour_length

# Relative slack for cost ties; broken by simpler designs.
TIE_REL = 1e-9

# The trunk-sync multiples gamma every zone's inbound headway H_d = gamma * H_t is chosen from.
SYNC_MULTIPLES = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class SearchSpace:
    """Discrete ranges the exhaustive search enumerates, and the strategy.  Every hard
    constraint always holds; ``SYNC_MULTIPLES`` and ``tourlength.MAX_STRIPS`` are fixed."""

    K_range: tuple[int, ...] = tuple(range(1, 21))
    M_range: tuple[int, ...] = tuple(range(1, 7))
    N_range: tuple[int, ...] = tuple(range(1, 7))
    strategy: str = FULLY_FLEXIBLE

    def __post_init__(self) -> None:
        for name in ("K_range", "M_range", "N_range"):
            vals = getattr(self, name)
            if not vals or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in vals):
                raise ValueError(f"{name} must be a nonempty range of positive integers")
        if self.strategy not in (FULLY_FLEXIBLE, SEMI_FLEXIBLE):
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class SearchLogEntry:
    """Outcome of one discrete combination."""

    strategy: str
    M: int
    N: int
    K: int
    w0: float | None
    gc: float | None  # None when infeasible
    note: str = ""

    @property
    def feasible(self) -> bool:
        return self.gc is not None


@dataclass(frozen=True)
class OptimizationResult:
    best: DesignSolution
    cost: CostBreakdown
    search_log: tuple[SearchLogEntry, ...]
    wall_time_s: float

    def log_to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["strategy", "M", "N", "K", "w0", "GC", "note"])
            for e in self.search_log:
                writer.writerow(
                    [
                        e.strategy,
                        e.M,
                        e.N,
                        e.K,
                        "" if e.w0 is None else f"{e.w0:.6f}",
                        "" if e.gc is None else f"{e.gc:.9f}",
                        e.note,
                    ]
                )


# ---------------------------------------------------------------------------
# Per-zone, per-direction solves, many lanes at once
# ---------------------------------------------------------------------------


def _headway_caps(params: ScenarioParams, grid: ZoneGrid, Ks: Sequence[int]) -> np.ndarray:
    """The upper end of the outbound headway interval for each capacity."""
    return np.minimum(params.H_max, headway_cap_from_capacity(params.lambda_p, grid.l, grid.w, Ks))


class _Lanes(NamedTuple):
    """The kernel inputs of many zone solves, one entry per lane: a zone at
    line-haul distance D served by capacity-K vehicles, with the zone's area
    and aspect ratio S and, for semi-flexible routing, the swath width w0
    (None for fully flexible)."""

    D: np.ndarray
    K: np.ndarray
    area: np.ndarray
    S: np.ndarray
    w0: np.ndarray | None


def _lane_cost(
    params: ScenarioParams, strategy: str, model: KStarModel | WeibullTourLaw, lanes: _Lanes
):
    """The cost kernel over lanes: ``cost(direction, H, idx, gamma)`` is every
    book of lanes ``idx`` that depends on that direction's headway H, each
    lane's inputs broadcast against the trailing axes of H."""

    def cost(direction: Direction, H: np.ndarray, idx: np.ndarray, gamma=1):
        shape = idx.shape + (1,) * (H.ndim - idx.ndim)
        D, K, area, S = (v[idx].reshape(shape) for v in lanes[:4])
        w0 = None if lanes.w0 is None else lanes.w0[idx].reshape(shape)
        return zone_books(params, ZoneShape(area, S), D, H, direction, strategy, model, w0, K, gamma).total

    return cost


def _zone_lane(grid: ZoneGrid, z: ZoneIndex, K: int, w0: float | None) -> _Lanes:
    """The one lane of a single zone solve."""
    return _Lanes(
        np.array([line_haul_distance(grid, z)]),
        np.array([K]),
        np.array([grid.area]),
        np.array([grid.S]),
        None if w0 is None else np.array([w0]),
    )


# Headways (h) at which an outbound cost is fitted, spread over the range for conditioning.
_FIT_H = np.array([0.03, 0.15, 0.6])

# A tour-length law whose tour terms are exactly 0: the FF kernel under it is A/H + B + C*H.
_ZERO_LAW = WeibullTourLaw((KStarModel(0.0, 0.0, 0.0, 0.0, 1.0),))

# FF stationary points are bracketed on this many geometric points of each
# lane's interval and refined to this relative width.
_BRACKET_POINTS = 8
_ROOT_RTOL = 1e-10


def _illinois(phi, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Roots of ``phi`` on many brackets at once, fa < 0 <= fb, by the Illinois
    variant of regula falsi (Dowell & Jarratt 1971, *BIT* 11): the end kept
    twice in a row has its value halved.  ``phi(x, j)`` is evaluated at x[j]
    for brackets j.  Stops when every bracket is narrower than ``_ROOT_RTOL``
    relative or has hit a zero; returns the last iterate of each."""
    kept = np.zeros(a.size)  # +1: a was kept last step, -1: b was
    c = b.copy()
    live = np.arange(a.size)
    for _ in range(100):
        live = live[(b[live] - a[live] > _ROOT_RTOL * b[live]) & (fb[live] != 0.0)]
        if not live.size:
            break
        al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
        c[live] = cl = np.clip((al * fbl - bl * fal) / (fbl - fal), al, bl)
        fc = phi(cl, live)
        right = fc >= 0.0  # c replaces b
        fa[live] = np.where(right & (kept[live] > 0), fal / 2.0, np.where(right, fal, fc))
        fb[live] = np.where(~right & (kept[live] < 0), fbl / 2.0, np.where(right, fc, fbl))
        a[live], b[live] = np.where(right, al, cl), np.where(right, cl, bl)
        kept[live] = np.where(right, 1.0, -1.0)
    return c


def _outbound_headways(
    params: ScenarioParams, strategy: str, model: KStarModel | WeibullTourLaw, lanes: _Lanes, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the outbound cost of many lanes; return (H_p, cost) per lane.

    Lane i is searched on [H_min, hi[i]].  Without its tour terms the cost
    is A/H + B + C*H: the kernel under ``_ZERO_LAW`` at the ``_FIT_H``
    headways gives A and C by divided differences of H*cost.  A
    semi-flexible lane has no tour terms, so its headway is sqrt(A/C)
    clipped to the interval.  A fully flexible lane's cost adds
    (d*R(mu) + e*T(mu))/H, with mu its occupancy and (T, R) the law's
    ``tour_units``: the full kernel minus the zero-law one, times H, at two
    headways gives d and e by a 2x2 solve.  Its stationary points are the
    roots of phi(H) = H**2 * cost'(H) = C*H**2 - A + d*(mu*R' - R) +
    e*(mu*T' - T); every rise of phi through 0 between ``_BRACKET_POINTS``
    geometric points of the interval is refined by ``_illinois``.  H_min,
    each such minimum and the cap are priced by the kernel, and the first
    cheapest, in that order, wins.
    """
    lo, idx = params.H_min, np.arange(hi.size)
    cost = _lane_cost(params, strategy, model, lanes)
    h = _FIT_H
    bare = _lane_cost(params, strategy, _ZERO_LAW, lanes)("outbound", h[None, :], idx)
    g = bare * h
    slope = (g[:, 1] - g[:, 0]) / (h[1] - h[0])
    C = ((g[:, 2] - g[:, 1]) / (h[2] - h[1]) - slope) / (h[2] - h[0])
    A = g[:, 0] - h[0] * slope + C * h[0] * h[1]
    if strategy == SEMI_FLEXIBLE:
        bad = ~((A > 0.0) & (C > 0.0))
        if bad.any():
            i = bad.argmax()
            raise ValueError(f"lane {i}: outbound cost A/H + B + C*H is not convex (A = {A[i]!r}, C = {C[i]!r})")
        H = np.clip(np.sqrt(A / C), lo, hi)
        return H, cost("outbound", H, idx)
    hi = np.maximum(hi, lo)  # a cap may sit up to 1e-15 h below H_min
    law = as_tour_law(model)
    ends = [0, 2]
    T, R = law.tour_units(occupancy(params, h[ends], lanes.area[:, None], "outbound"), lanes.S[:, None])
    y = (cost("outbound", h[None, ends], idx) - bare[:, ends]) * h[ends]
    det = R[:, 0] * T[:, 1] - R[:, 1] * T[:, 0]
    d = (y[:, 0] * T[:, 1] - y[:, 1] * T[:, 0]) / det
    e = (R[:, 0] * y[:, 1] - R[:, 1] * y[:, 0]) / det

    def phi(H: np.ndarray, j: np.ndarray) -> np.ndarray:
        shape = j.shape + (1,) * (H.ndim - j.ndim)
        Aj, Cj, dj, ej, area, S = (v[j].reshape(shape) for v in (A, C, d, e, lanes.area, lanes.S))
        mu = occupancy(params, H, area, "outbound")
        (T, R), (dT, dR) = law.tour_units(mu, S), law.tour_slopes(mu, S)
        return Cj * H * H - Aj + dj * (mu * dR - R) + ej * (mu * dT - T)

    x = lo * (hi[:, None] / lo) ** np.linspace(0.0, 1.0, _BRACKET_POINTS)
    f = phi(x, idx)
    lane, k = np.nonzero((f[:, :-1] < 0.0) & (f[:, 1:] >= 0.0))
    root = _illinois(lambda c, j: phi(c, lane[j]), x[lane, k], x[lane, k + 1], f[lane, k], f[lane, k + 1])
    rank = np.arange(lane.size) - np.searchsorted(lane, lane)
    cand = np.full((hi.size, rank.max(initial=-1) + 3), lo)
    cand[lane, rank + 1], cand[:, -1] = root, hi
    vals = cost("outbound", cand, idx)
    best = vals.argmin(axis=1)
    return cand[idx, best], vals[idx, best]


def _admitted_multiples(params: ScenarioParams, grid: ZoneGrid, Ks: Sequence[int]) -> np.ndarray:
    """Which ``SYNC_MULTIPLES`` each capacity admits, shaped (len(Ks), SYNC_MULTIPLES)."""
    H_d = np.array(SYNC_MULTIPLES) * params.H_t
    mu = occupancy(params, H_d, grid.area, "inbound")
    return headway_ok(params, H_d, "inbound") & capacity_ok(mu, np.asarray(Ks)[:, None])


def _ruled_out(params: ScenarioParams, hi=math.inf, admits=True):
    """The constraint that rules a capacity out before any solve, or "": its
    outbound headway cap ``hi`` below H_min, else no admitted sync multiple.
    Given arrays, one note per entry, as a list."""
    return np.where(hi < params.H_min - 1e-15, "capacity", np.where(admits, "", "inbound_sync")).tolist()


def _inbound_sync(cost, params: ScenarioParams, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cheapest admitted sync multiple of each lane: (gamma, H_d, inbound cost).

    Lane i admits the ``SYNC_MULTIPLES`` ``ok[i]``, at least one.  A later
    multiple wins only if it is cheaper by more than the tie slack, so ties
    go to the smaller one.
    """
    gammas = np.array(SYNC_MULTIPLES)
    rows, H_d = np.arange(ok.shape[0]), gammas * params.H_t
    costs = cost("inbound", H_d[None, :], rows, gammas)
    best = ok.argmax(axis=1)
    for i in range(gammas.size):
        cur = costs[rows, best]
        best = np.where(ok[:, i] & (costs[:, i] < cur - TIE_REL * np.maximum(1.0, np.abs(cur))), i, best)
    return gammas[best], H_d[best], costs[rows, best]


def optimize_zone_headway(
    params: ScenarioParams,
    grid: ZoneGrid,
    z: ZoneIndex,
    K: int,
    strategy: str,
    model: KStarModel | WeibullTourLaw,
    w0_opt: float | None = None,
) -> tuple[float, float]:
    """Minimize one zone's outbound cost over its feasible headway interval.

    One lane of the search's own solve; returns (H_p, outbound cost).
    """
    hi = _headway_caps(params, grid, (K,))
    note = _ruled_out(params, hi=hi[0])
    if note:
        detail = f"outbound headway cap {hi[0]:.6f} h below the minimum headway {params.H_min:.6f} h"
        raise InfeasibleDesignError(note, z, detail)
    H, val = _outbound_headways(params, strategy, model, _zone_lane(grid, z, K, w0_opt), hi)
    return float(H[0]), float(val[0])


def optimize_zone_gamma(
    params: ScenarioParams,
    grid: ZoneGrid,
    z: ZoneIndex,
    K: int,
    strategy: str,
    model: KStarModel | WeibullTourLaw,
    w0_opt: float | None = None,
) -> tuple[int, float, float]:
    """Enumerate the trunk-sync multiples ``SYNC_MULTIPLES``; return (gamma, H_d, inbound cost)."""
    ok = _admitted_multiples(params, grid, (K,))
    note = _ruled_out(params, admits=ok.any())
    if note:
        raise InfeasibleDesignError(note, z, f"no feasible trunk-sync multiple in {SYNC_MULTIPLES} for K={K}")
    cost = _lane_cost(params, strategy, model, _zone_lane(grid, z, K, w0_opt))
    gamma, H, val = _inbound_sync(cost, params, ok)
    return int(gamma[0]), float(H[0]), float(val[0])


# ---------------------------------------------------------------------------
# Exhaustive discrete search
# ---------------------------------------------------------------------------

# The most lanes one solve takes.  A solve and its pricing pass hold about
# 1 KB per lane; a larger space is solved in runs of whole grids, so a
# full-space search keeps the footprint of a small one (the default
# semi-flexible space in one run peaks at 58 MB, in runs at 34 MB).
_MAX_LANES = 4096


class _Block:
    """One grid of the search space, solved for every (K, w0) at once.

    Its combinations are the (K, w0) of ``K_range`` and the grid's swath
    widths (None alone for fully flexible routing), K-major, as the search
    log lists them.  Zones sharing a line-haul distance have identical
    optima, so each combination that no constraint rules out before a solve
    gets one lane per distinct distance, in combination order.  Once solved,
    ``H_p``, ``gamma`` and ``H_d`` hold each lane's design and ``outcome``
    each combination's (GC or None, search-log note).
    """

    def __init__(self, params: ScenarioParams, space: SearchSpace, grid: ZoneGrid) -> None:
        w0s = [c.w0 for c in feasible_swath_widths(grid.l, grid.w)] if space.strategy == SEMI_FLEXIBLE else [None]
        self.strategy, self.grid, self.w0s = space.strategy, grid, w0s
        self.Ks = np.asarray(space.K_range)  # per K: the outbound cap and admitted sync multiples
        self.hi, self.ok = _headway_caps(params, grid, self.Ks), _admitted_multiples(params, grid, self.Ks)
        self.combos = [(K, w0) for K in space.K_range for w0 in w0s]
        # per combination: the constraint ruling it out before any solve, or ""
        self.notes = [note for note in _ruled_out(params, self.hi, self.ok.any(axis=1)) for _ in w0s]
        self.outcome = [(None, f"infeasible: {note}") if note else None for note in self.notes]
        self.solved = np.flatnonzero([not note for note in self.notes])
        m, n = np.divmod(np.arange(grid.M * grid.N), grid.N)  # zones in grid.zones() order, 0-based
        self.zone_D = m * grid.w + n * grid.l
        # each distinct distance's lane: its first zone, and the lane of every zone
        _, first, lane = np.unique(self.zone_D.round(12), return_index=True, return_inverse=True)
        self.distances = self.zone_D[first]
        self.n_lanes = first.size * self.solved.size
        # the lane of each zone (column) of each solved combination (row)
        self.zone_lanes = first.size * np.arange(self.solved.size)[:, None] + lane

    def lanes(self) -> tuple[_Lanes, np.ndarray, np.ndarray]:
        """The kernel inputs of the block's lanes, with each lane's outbound
        headway cap and admitted sync multiples."""
        k, j = np.divmod(np.repeat(self.solved, self.distances.size), len(self.w0s))  # each lane's K and w0
        w0 = None if self.w0s[0] is None else np.array(self.w0s)[j]
        area, S = (np.full(k.size, v) for v in (self.grid.area, self.grid.S))
        return _Lanes(np.tile(self.distances, self.solved.size), self.Ks[k], area, S, w0), self.hi[k], self.ok[k]

    def design(self, i: int) -> DesignSolution:
        """The design of solved combination i."""
        K, w0 = self.combos[i]
        lanes = self.zone_lanes[np.searchsorted(self.solved, i)].tolist()
        zones = tuple(
            ZoneDesign(z=z, H_p=float(self.H_p[n]), H_d=float(self.H_d[n]), gamma=int(self.gamma[n]))
            for z, n in zip(self.grid.zones(), lanes)
        )
        return DesignSolution(strategy=self.strategy, grid=self.grid, K=K, zones=zones, w0=w0)


def _runs(blocks: Iterable[_Block]):
    """Consecutive runs of whole blocks of at most ``_MAX_LANES`` lanes; a larger block runs alone."""
    run: list[_Block] = []
    for b in blocks:
        if run and sum(r.n_lanes for r in run) + b.n_lanes > _MAX_LANES:
            yield run
            run = []
        run.append(b)
    if run:
        yield run


def _price(
    params: ScenarioParams,
    space: SearchSpace,
    model: KStarModel | WeibullTourLaw,
    run: Sequence[_Block],
    lanes: _Lanes,
) -> None:
    """Price every solved combination of ``run`` in one pass over (combo, zone, direction).

    Follows ``total_generalized_cost`` through the same ``costs`` helpers:
    the failure matrix of ``validate_design``'s zone checks, naming the
    first one a combination fails; the low-occupancy flag; the nine books of
    ``cost_books`` added in ``add_books``' order, so each GC has the bits
    that function reports for the combination.  Each zone is priced at its own line-haul distance.
    Sets each solved combination's ``outcome``.
    """
    offsets = np.cumsum([0] + [b.n_lanes for b in run])
    # elements are the zones of every combination, combination-major
    lane = np.concatenate([(off + b.zone_lanes).ravel() for b, off in zip(run, offsets)])
    D = np.concatenate([np.tile(b.zone_D, b.solved.size) for b in run])
    n_zones = np.concatenate([np.full(b.solved.size, b.zone_D.size) for b in run])
    # each combination's elements in zone order, padded with a sentinel element
    # that fails no check, is not flagged and adds 0.0
    col = np.arange(n_zones.max())
    at = np.where(col < n_zones[:, None], (np.cumsum(n_zones) - n_zones)[:, None] + col, D.size)
    H_p = np.concatenate([b.H_p for b in run])[lane]
    H_d = np.concatenate([b.H_d for b in run])[lane]
    gamma = np.concatenate([b.gamma for b in run])[lane]
    K, area, S = lanes.K[lane], lanes.area[lane], lanes.S[lane]
    w0 = None if lanes.w0 is None else lanes.w0[lane]

    fail = zone_failures(params, H_p, H_d, gamma, area, K)
    fail = np.append(fail, np.zeros((1, len(ZONE_CHECKS)), dtype=bool), axis=0)[at].reshape(at.shape[0], -1)
    low = np.append(low_occupancy(params, H_p, H_d, area), False)[at].any(axis=1)

    books = np.zeros((len(ZoneCostTerms.FIELDS), D.size + 1))
    books[:, :-1] = cost_books(params, ZoneShape(area, S), D, H_p, H_d, gamma, space.strategy, model, w0, K)
    gc = add_books(books[:, at])[1]

    first = fail.argmax(axis=1) % len(ZONE_CHECKS)
    combos = [(b, i) for b in run for i in b.solved.tolist()]
    for (b, i), value, bad, check, flagged in zip(
        combos, gc.tolist(), fail.any(axis=1).tolist(), first.tolist(), low.tolist()
    ):
        b.outcome[i] = (None, f"infeasible: {ZONE_CHECKS[check]}") if bad else (
            value, "low_occupancy" if flagged else ""
        )


def _solve_space(
    params: ScenarioParams, space: SearchSpace, model: KStarModel | WeibullTourLaw
) -> Iterator[tuple[_Block, int]]:
    """Solve and price the space one block per grid; yields (block, i) for
    every combination i of every block, in search-log order.

    Each run of blocks (all of them unless the space has more than
    ``_MAX_LANES`` lanes) is one outbound solve of every lane, one call
    picking every lane's sync multiple and one pricing pass.
    """
    grids = (make_grid(params, M, N) for M in space.M_range for N in space.N_range)
    for run in _runs(_Block(params, space, grid) for grid in grids):
        lanes, hi, ok = zip(*(b.lanes() for b in run))
        lanes = _Lanes(*(None if v[0] is None else np.concatenate(v) for v in zip(*lanes)))
        if lanes.D.size:
            H_p, _ = _outbound_headways(params, space.strategy, model, lanes, np.concatenate(hi))
            gamma, H_in, _ = _inbound_sync(_lane_cost(params, space.strategy, model, lanes), params, np.concatenate(ok))
            ends = np.cumsum([b.n_lanes for b in run])[:-1]
            for b, *solved in zip(run, *(np.split(v, ends) for v in (H_p, gamma, H_in))):
                b.H_p, b.gamma, b.H_d = solved
            _price(params, space, model, run, lanes)
        yield from ((b, i) for b in run for i in range(len(b.combos)))


def _tie_break_key(block: _Block, i: int) -> tuple:
    design = block.design(i)
    mean_hp = sum(zd.H_p for zd in design.zones) / len(design.zones)
    total_gamma = sum(zd.gamma for zd in design.zones)
    return (design.K, design.grid.M * design.grid.N, total_gamma, -mean_hp)


def search_design(
    params: ScenarioParams,
    space: SearchSpace,
    model: KStarModel | WeibullTourLaw | None = None,
) -> OptimizationResult:
    """Enumerate (M, N, K[, w0]); optimize each zone; keep the cheapest design."""
    if model is None:
        model = TABLE1_MODEL
    t0 = time.perf_counter()

    log: list[SearchLogEntry] = []
    best: tuple[_Block, int, float] | None = None
    for block, i in _solve_space(params, space, model):
        gc, note = block.outcome[i]
        log.append(SearchLogEntry(space.strategy, block.grid.M, block.grid.N, *block.combos[i], gc, note))
        if gc is None:
            continue
        if best is None or gc < best[2] * (1.0 - TIE_REL) or (
            gc <= best[2] * (1.0 + TIE_REL) and _tie_break_key(block, i) < _tie_break_key(*best[:2])
        ):
            best = (block, i, gc)
    if best is None:
        raise InfeasibleDesignError("search", None, "no feasible design in the search space")
    winner = best[0].design(best[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowOccupancyWarning)
        cost = total_generalized_cost(params, winner, model)
    return OptimizationResult(
        best=winner,
        cost=cost,
        search_log=tuple(log),
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Strategy comparison (the headline metric table)
# ---------------------------------------------------------------------------

METRIC_LABELS = (
    "generalized_cost_min_per_patron",
    "user_cost_min_per_patron",
    "agency_cost_min_per_patron",
    "wait_cost_min_per_patron",
    "local_tour_time_min_per_patron",
    "line_haul_time_min_per_patron",
    "transfer_time_min_per_patron",
    "grid_m_by_n",
    "vehicle_capacity",
    "swath_width_km",
    "mean_outbound_headway_min",
    "mean_inbound_headway_min",
    "mean_outbound_occupancy",
    "mean_inbound_occupancy",
    "mean_outbound_tour_coefficient",
    "mean_inbound_tour_coefficient",
    "mean_outbound_tour_length_km",
    "mean_inbound_tour_length_km",
)


@dataclass(frozen=True)
class StrategyComparison:
    ff: OptimizationResult
    sf: OptimizationResult
    metrics: tuple[tuple[str, str, str], ...]  # (label, ff value, sf value)

    @property
    def sf_saving_pct(self) -> float:
        return (self.ff.cost.GC - self.sf.cost.GC) / self.ff.cost.GC * 100.0

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "fully_flexible", "semi_flexible"])
            for row in self.metrics:
                writer.writerow(row)


def _strategy_metrics(
    params: ScenarioParams,
    result: OptimizationResult,
    model: KStarModel | WeibullTourLaw,
) -> dict[str, float | str]:
    design = result.best
    grid = design.grid
    bd = result.cost
    law = as_tour_law(model)
    to_min = 60.0 / params.patrons_per_h
    area = grid.l * grid.w
    s = math.sqrt(area)

    def tour_stats(direction: Direction) -> tuple[float, float]:
        """(mean coefficient, mean tour length at mean occupancy) over zones."""
        coeffs = []
        lengths = []
        for zd in design.zones:
            mu = mean_occupancy(params, grid, zd, direction)
            if design.strategy == FULLY_FLEXIBLE:
                length = law.tour_length_units(mu + 1.0, grid.S) * s
                lengths.append(length)
                coeffs.append(length / math.sqrt((mu + 1.0) * area))
            else:
                length = swath_tour_length(mu, area, design.w0) + design.w0 / 2.0
                lengths.append(length)
                coeffs.append(length / math.sqrt(max(mu, 1e-12) * area))
        n = len(design.zones)
        return sum(coeffs) / n, sum(lengths) / n

    k_out, tour_out = tour_stats("outbound")
    k_in, tour_in = tour_stats("inbound")
    H_p, H_d, occ_out, occ_in = zone_means(params, design)
    return {
        "generalized_cost_min_per_patron": bd.gc_per_patron_min,
        "user_cost_min_per_patron": bd.user * to_min,
        "agency_cost_min_per_patron": bd.agency * to_min,
        "wait_cost_min_per_patron": bd.C_W * to_min,
        "local_tour_time_min_per_patron": (bd.C_Tp + bd.C_Td) / 2.0 * to_min,
        "line_haul_time_min_per_patron": (bd.C_Lp + bd.C_Ld) / 2.0 * to_min,
        "transfer_time_min_per_patron": (bd.C_Rp + bd.C_Rd) / 2.0 * to_min,
        "grid_m_by_n": f"{grid.M}x{grid.N}",
        "vehicle_capacity": design.K,
        "swath_width_km": design.w0 if design.w0 is not None else "",
        "mean_outbound_headway_min": H_p * 60.0,
        "mean_inbound_headway_min": H_d * 60.0,
        "mean_outbound_occupancy": occ_out,
        "mean_inbound_occupancy": occ_in,
        "mean_outbound_tour_coefficient": k_out,
        "mean_inbound_tour_coefficient": k_in,
        "mean_outbound_tour_length_km": tour_out,
        "mean_inbound_tour_length_km": tour_in,
    }


def compare_strategies(
    params: ScenarioParams,
    space: SearchSpace = SearchSpace(),
    model: KStarModel | WeibullTourLaw | None = None,
) -> StrategyComparison:
    """Optimize both strategies and tabulate the headline metrics."""
    if model is None:
        model = TABLE1_MODEL
    ff = search_design(params, replace(space, strategy=FULLY_FLEXIBLE), model)
    sf = search_design(params, replace(space, strategy=SEMI_FLEXIBLE), model)
    ff_metrics = _strategy_metrics(params, ff, model)
    sf_metrics = _strategy_metrics(params, sf, model)

    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.4f}"
        return str(v)

    rows = tuple(
        (label, fmt(ff_metrics[label]), fmt(sf_metrics[label])) for label in METRIC_LABELS
    )
    return StrategyComparison(ff=ff, sf=sf, metrics=rows)
