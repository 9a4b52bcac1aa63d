"""Exhaustive design search with continuous headway optimization as one array program.

The discrete variables (grid shape M x N, vehicle capacity K, and for
semi-flexible routing the swath width w0) are enumerated exhaustively.  For
each combination the generalized cost separates into independent per-zone,
per-direction terms, and zones sharing a line-haul distance D have identical
optima.  The space is laid out once for every grid (``_Space``): a lane is a
distinct (grid, w0, D), and K, which reaches the cost kernel only through the
agency books, is the kernel's own leading axis.  Each lane's outbound cost in
closed form and its inbound cost at each sync multiple come from the kernel
at every K at once; each (lane, K) pair is then solved, and one pass prices
every solved combination as ``total_generalized_cost`` would.
``optimize_zone_headway`` and ``optimize_zone_gamma`` are the same solves for
a single zone.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Sequence

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


class SearchLogEntry(NamedTuple):
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


def _headway_caps(params: ScenarioParams, l, w, Ks: Sequence[int]) -> np.ndarray:
    """The upper end of the outbound headway interval of l x w zones for each capacity; arrays broadcast."""
    return np.minimum(params.H_max, headway_cap_from_capacity(params.lambda_p, l, w, Ks))


class _Lanes(NamedTuple):
    """The kernel inputs of many zone solves, one entry per lane: a zone at
    line-haul distance D, with the zone's area and aspect ratio S and, for
    semi-flexible routing, the swath width w0 (None for fully flexible).
    The vehicle capacity K is not a lane input: each call passes its own."""

    D: np.ndarray
    area: np.ndarray
    S: np.ndarray
    w0: np.ndarray | None


def _lane_cost(params: ScenarioParams, strategy: str, model: KStarModel | WeibullTourLaw, lanes: _Lanes):
    """The cost kernel over lanes: ``cost(direction, H, idx, K, gamma)`` is
    every book of lanes ``idx`` at capacity ``K`` that depends on that
    direction's headway H, each lane's inputs broadcast against the trailing
    axes of H and the result against ``K``."""

    def cost(direction: Direction, H: np.ndarray, idx: np.ndarray, K, gamma=1):
        shape = idx.shape + (1,) * (H.ndim - idx.ndim)
        D, area, S = (v[idx].reshape(shape) for v in lanes[:3])
        w0 = None if lanes.w0 is None else lanes.w0[idx].reshape(shape)
        return zone_books(params, ZoneShape(area, S), D, H, direction, strategy, model, w0, K, gamma).total

    return cost


def _zone_lane(grid: ZoneGrid, z: ZoneIndex, w0: float | None) -> _Lanes:
    """The one lane of a single zone solve."""
    return _Lanes(*(None if v is None else np.array([v]) for v in (line_haul_distance(grid, z), grid.area, grid.S, w0)))


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


def _outbound_fit(params: ScenarioParams, strategy: str, model: KStarModel | WeibullTourLaw, lanes: _Lanes, K):
    """The closed form of every lane's outbound cost at capacity ``K``, which
    broadcasts against (lanes, headways): A and C, and for fully flexible
    routing d and e, stacked on a leading axis.

    Without its tour terms the cost is A/H + B + C*H: the kernel under
    ``_ZERO_LAW`` at the ``_FIT_H`` headways gives A and C by divided
    differences of H*cost.  A fully flexible cost adds (d*R(mu) + e*T(mu))/H,
    mu its occupancy and (T, R) the law's ``tour_units``: the full kernel
    minus the zero-law one, times H, at two headways gives d and e.
    """
    h, idx = _FIT_H, np.arange(lanes.D.size)
    bare = _lane_cost(params, strategy, _ZERO_LAW, lanes)("outbound", h[None, :], idx, K)
    g = bare * h
    slope = (g[..., 1] - g[..., 0]) / (h[1] - h[0])
    C = ((g[..., 2] - g[..., 1]) / (h[2] - h[1]) - slope) / (h[2] - h[0])
    A = g[..., 0] - h[0] * slope + C * h[0] * h[1]
    if strategy == SEMI_FLEXIBLE:
        return np.stack([A, C])
    ends = [0, 2]
    T, R = as_tour_law(model).tour_units(occupancy(params, h[ends], lanes.area[:, None], "outbound"), lanes.S[:, None])
    y = (_lane_cost(params, strategy, model, lanes)("outbound", h[None, ends], idx, K) - bare[..., ends]) * h[ends]
    det = R[:, 0] * T[:, 1] - R[:, 1] * T[:, 0]
    d = (y[..., 0] * T[:, 1] - y[..., 1] * T[:, 0]) / det
    e = (R[:, 0] * y[..., 1] - R[:, 1] * y[..., 0]) / det
    return np.stack([A, C, d, e])


def _outbound_headways(params: ScenarioParams, strategy: str, model: KStarModel | WeibullTourLaw, lanes: _Lanes,
                       fit: np.ndarray, lane: np.ndarray, K: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Minimize the outbound cost of many (lane, capacity) pairs; return H_p per pair.

    Pair i is lane ``lane[i]`` at capacity ``K[i]``, with the coefficients
    ``fit[:, i]`` of ``_outbound_fit``, searched on [H_min, hi[i]].  A
    semi-flexible pair has no tour terms, so its headway is sqrt(A/C)
    clipped to the interval.  A fully flexible pair's stationary points are
    the roots of phi(H) = H**2 * cost'(H) = C*H**2 - A + d*(mu*R' - R) +
    e*(mu*T' - T); every rise of phi through 0 between ``_BRACKET_POINTS``
    geometric points of the interval is refined by ``_illinois``.  H_min,
    each such minimum and the cap are priced by the kernel, and the first
    cheapest, in that order, wins.
    """
    lo, idx = params.H_min, np.arange(hi.size)
    if strategy == SEMI_FLEXIBLE:
        A, C = fit
        bad = ~((A > 0.0) & (C > 0.0))
        if bad.any():
            i = bad.argmax()
            raise ValueError(
                f"lane {lane[i]} at K = {K[i]}: outbound cost A/H + B + C*H is not convex (A = {A[i]!r}, C = {C[i]!r})"
            )
        return np.clip(np.sqrt(A / C), lo, hi)
    hi = np.maximum(hi, lo)  # a cap may sit up to 1e-15 h below H_min
    law = as_tour_law(model)
    A, C, d, e = fit
    area, S = lanes.area[lane], lanes.S[lane]

    def phi(H: np.ndarray, j: np.ndarray) -> np.ndarray:
        shape = j.shape + (1,) * (H.ndim - j.ndim)
        Aj, Cj, dj, ej, aj, Sj = (v[j].reshape(shape) for v in (A, C, d, e, area, S))
        mu = occupancy(params, H, aj, "outbound")
        (T, R), (dT, dR) = law.tour_units(mu, Sj), law.tour_slopes(mu, Sj)
        return Cj * H * H - Aj + dj * (mu * dR - R) + ej * (mu * dT - T)

    x = lo * (hi[:, None] / lo) ** np.linspace(0.0, 1.0, _BRACKET_POINTS)
    f = phi(x, idx)
    pair, k = np.nonzero((f[:, :-1] < 0.0) & (f[:, 1:] >= 0.0))
    root = _illinois(lambda c, j: phi(c, pair[j]), x[pair, k], x[pair, k + 1], f[pair, k], f[pair, k + 1])
    rank = np.arange(pair.size) - np.searchsorted(pair, pair)
    cand = np.full((hi.size, rank.max(initial=-1) + 3), lo)
    cand[pair, rank + 1], cand[:, -1] = root, hi
    vals = _lane_cost(params, strategy, model, lanes)("outbound", cand, lane, K[:, None])
    return cand[idx, vals.argmin(axis=1)]


def _admitted_multiples(params: ScenarioParams, area, Ks: Sequence[int]) -> np.ndarray:
    """Which ``SYNC_MULTIPLES`` each capacity admits in zones of ``area``,
    shaped area's shape + (len(Ks), SYNC_MULTIPLES)."""
    H_d = np.array(SYNC_MULTIPLES) * params.H_t
    mu = occupancy(params, H_d, np.asarray(area)[..., None, None], "inbound")
    return headway_ok(params, H_d, "inbound") & capacity_ok(mu, np.asarray(Ks)[:, None])


def _ruled_out(params: ScenarioParams, hi=math.inf, admits=True) -> np.ndarray:
    """The constraint that rules a capacity out before any solve, or "": its
    outbound headway cap ``hi`` below H_min, else no admitted sync multiple.
    Given arrays, one note per entry."""
    return np.where(hi < params.H_min - 1e-15, "capacity", np.where(admits, "", "inbound_sync"))


def _sync_costs(params: ScenarioParams, strategy: str, model: KStarModel | WeibullTourLaw, lanes: _Lanes, K):
    """The inbound cost of every lane at capacity ``K`` at each of the
    ``SYNC_MULTIPLES``, on a last axis; ``K`` broadcasts as in ``_outbound_fit``."""
    gammas = np.array(SYNC_MULTIPLES)
    cost = _lane_cost(params, strategy, model, lanes)
    return cost("inbound", gammas[None, :] * params.H_t, np.arange(lanes.D.size), K, gammas)


def _inbound_sync(
    params: ScenarioParams, costs: np.ndarray, ok: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cheapest admitted sync multiple of each row: (gamma, H_d, inbound cost).

    Row i has the ``_sync_costs`` ``costs[i]`` and admits the ``SYNC_MULTIPLES``
    ``ok[i]``, at least one.  A later multiple wins only if it is cheaper by
    more than the tie slack, so ties go to the smaller one.
    """
    gammas = np.array(SYNC_MULTIPLES)
    rows, H_d = np.arange(ok.shape[0]), gammas * params.H_t
    best = ok.argmax(axis=1)
    for i in range(gammas.size):
        cur = costs[rows, best]
        best = np.where(ok[:, i] & (costs[:, i] < cur - TIE_REL * np.maximum(1.0, np.abs(cur))), i, best)
    return gammas[best], H_d[best], costs[rows, best]


def optimize_zone_headway(params: ScenarioParams, grid: ZoneGrid, z: ZoneIndex, K: int, strategy: str,
                          model: KStarModel | WeibullTourLaw, w0_opt: float | None = None) -> tuple[float, float]:
    """Minimize one zone's outbound cost over its feasible headway interval,
    as one pair of the search's own solve; returns (H_p, outbound cost)."""
    hi = _headway_caps(params, grid.l, grid.w, (K,))
    note = _ruled_out(params, hi=hi[0]).item()
    if note:
        detail = f"outbound headway cap {hi[0]:.6f} h below the minimum headway {params.H_min:.6f} h"
        raise InfeasibleDesignError(note, z, detail)
    lanes, lane, Ks = _zone_lane(grid, z, w0_opt), np.zeros(1, dtype=int), np.array([K])
    fit = _outbound_fit(params, strategy, model, lanes, Ks[:, None])
    H = _outbound_headways(params, strategy, model, lanes, fit, lane, Ks, hi)
    return float(H[0]), float(_lane_cost(params, strategy, model, lanes)("outbound", H, lane, Ks)[0])


def optimize_zone_gamma(params: ScenarioParams, grid: ZoneGrid, z: ZoneIndex, K: int, strategy: str,
                        model: KStarModel | WeibullTourLaw, w0_opt: float | None = None) -> tuple[int, float, float]:
    """Enumerate the trunk-sync multiples ``SYNC_MULTIPLES``; return (gamma, H_d, inbound cost)."""
    ok = _admitted_multiples(params, grid.area, (K,))
    note = _ruled_out(params, admits=ok.any()).item()
    if note:
        raise InfeasibleDesignError(note, z, f"no feasible trunk-sync multiple in {SYNC_MULTIPLES} for K={K}")
    costs = _sync_costs(params, strategy, model, _zone_lane(grid, z, w0_opt), K)
    gamma, H, val = _inbound_sync(params, costs, ok)
    return int(gamma[0]), float(H[0]), float(val[0])


# ---------------------------------------------------------------------------
# Exhaustive discrete search
# ---------------------------------------------------------------------------

# The most pairs one run solves.  A run's pair solve and pricing pass hold
# about 1 KB per pair, so a full-space search keeps the footprint of a small one.
_MAX_PAIRS = 2048


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Groups of ``counts`` items end to end: each item's group and place in it, and the groups' starts and end."""
    starts = np.append(0, np.cumsum(counts))
    group = np.repeat(np.arange(counts.size), counts)
    return group, np.arange(group.size) - starts[group], starts


class _Space:
    """The search space laid out as arrays once for every grid.

    A combination is a (grid, K, w0), listed K-major grid by grid as the
    search log lists them (``combos``).  A lane is a distinct (grid, w0, D);
    a pair is a lane at one K.  Each combination that no constraint rules out
    before a solve (``solved``) has one pair per distinct distance of its
    grid, from ``pair_at``.  ``outcome`` holds each one's (GC or None, note).
    """

    def __init__(self, params: ScenarioParams, space: SearchSpace) -> None:
        self.strategy, self.Ks = space.strategy, np.asarray(space.K_range)
        grids = self.grids = [make_grid(params, M, N) for M in space.M_range for N in space.N_range]
        sf = space.strategy == SEMI_FLEXIBLE
        w0s = [[c.w0 for c in feasible_swath_widths(g.l, g.w)] if sf else [None] for g in grids]
        l, w, self.area, self.S, M, N = (np.array([getattr(g, f) for g in grids]) for f in "l w area S M N".split())
        self.M, self.N, self.n_zones = M, N, M * N
        # per grid and K: the outbound headway cap and the admitted sync multiples
        self.hi = _headway_caps(params, l[:, None], w[:, None], self.Ks)
        self.ok = _admitted_multiples(params, self.area, self.Ks)
        n_w0 = np.array([len(v) for v in w0s])
        self.cg, at, _ = _ragged(n_w0 * self.Ks.size)  # each combination's grid, K index and w0 index
        self.ck, self.cj = np.divmod(at, n_w0[self.cg])
        w0_at, w0 = np.cumsum(n_w0) - n_w0, np.array(sum(w0s, []))
        self.w0 = w0[w0_at[self.cg] + self.cj] if sf else None
        notes = _ruled_out(params, self.hi, self.ok.any(axis=2))[self.cg, self.ck]
        self.solved = np.flatnonzero(notes == "")
        self.outcome = [(None, f"infeasible: {note}") if note else None for note in notes.tolist()]
        # zones in grid.zones() order, grid by grid, and their distances
        zg, at, self.zone_at = _ragged(self.n_zones)
        m, n = np.divmod(at, N[zg])
        self.zone_D = m * w[zg] + n * l[zg]
        D = self.zone_D.round(12)
        order = np.lexsort((D, zg))  # by grid, then distance; ties keep zone order
        new = (np.diff(zg[order], prepend=-1) != 0) | (np.diff(D[order], prepend=-1.0) != 0)
        first, dist = order[new], np.empty_like(order)  # each distinct (grid, distance)'s first zone
        dist[order] = np.cumsum(new) - 1
        self.n_dist = np.bincount(zg[first], minlength=len(self.grids))
        dist_at = np.cumsum(self.n_dist) - self.n_dist
        self.zone_dist = dist - dist_at[zg]  # each zone's distinct distance, counted in its grid
        # lanes: grid by grid, w0-major, then distinct distance
        lg, at, self.lane_at = _ragged(n_w0 * self.n_dist)
        j, d = np.divmod(at, self.n_dist[lg])
        lane_D, lane_w0 = self.zone_D[first][dist_at[lg] + d], w0[w0_at[lg] + j] if sf else None
        self.lanes = _Lanes(lane_D, self.area[lg], self.S[lg], lane_w0)
        self.pair_at = np.append(0, np.cumsum(self.n_dist[self.cg[self.solved]]))

    def combos(self) -> list[tuple]:
        """Each combination's (M, N, K, w0), as the search log lists them."""
        w0 = [None] * self.cg.size if self.w0 is None else self.w0.tolist()
        return list(zip(self.M[self.cg].tolist(), self.N[self.cg].tolist(), self.Ks[self.ck].tolist(), w0))

    def pairs(self, run: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The lanes, grids and K indices of the pairs of combinations ``solved[run]``."""
        c = self.solved[run]
        cs, d, _ = _ragged(self.n_dist[self.cg[c]])
        c = c[cs]
        g = self.cg[c]
        return self.lane_at[g] + self.cj[c] * self.n_dist[g] + d, g, self.ck[c]

    def zones(self, run: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The zones of combinations ``solved[run]``, each combination's in
        grid.zones() order: each zone's combination, index and pair."""
        c = self.solved[run]
        cz, z, _ = _ragged(self.n_zones[self.cg[c]])
        zone = self.zone_at[self.cg[c[cz]]] + z
        return c[cz], zone, self.pair_at[run][cz] + self.zone_dist[zone]

    def design(self, c: int, run: _Run) -> DesignSolution:
        """The design of combination c, solved in ``run``."""
        grid, K, w0 = self.grids[self.cg[c]], int(self.Ks[self.ck[c]]), None if self.w0 is None else float(self.w0[c])
        s = np.searchsorted(self.solved, c)
        pairs = self.zones(slice(s, s + 1))[2] - self.pair_at[run.s.start]
        zones = tuple(ZoneDesign(z=z, H_p=float(run.H_p[p]), H_d=float(run.H_d[p]), gamma=int(run.gamma[p]))
                      for z, p in zip(grid.zones(), pairs.tolist()))
        return DesignSolution(strategy=self.strategy, grid=grid, K=K, zones=zones, w0=w0)


class _Run(NamedTuple):
    """The combinations ``solved[s]`` of a run of grids and their pairs' designs, from pair ``pair_at[s.start]``."""

    s: slice
    H_p: np.ndarray
    H_d: np.ndarray
    gamma: np.ndarray


def _price(params: ScenarioParams, model: KStarModel | WeibullTourLaw, sp: _Space, run: _Run) -> None:
    """Price the combinations ``sp.solved[run.s]`` in one pass over (combination, zone, direction).

    Follows ``total_generalized_cost`` through the same ``costs`` helpers:
    the failure matrix of ``validate_design``'s zone checks, naming the
    first one a combination fails; the low-occupancy flag; the nine books of
    ``cost_books`` added in ``add_books``' order, so each GC has the bits
    that function reports for the combination.  Each zone is priced at its
    own line-haul distance.  Sets each combination's ``outcome``.
    """
    c, zone, pair = sp.zones(run.s)
    g, D, pair = sp.cg[c], sp.zone_D[zone], pair - sp.pair_at[run.s.start]
    # each combination's elements in zone order, padded with a sentinel element
    # that fails no check, is not flagged and adds 0.0
    n_zones = sp.n_zones[sp.cg[sp.solved[run.s]]]
    col = np.arange(n_zones.max())
    at = np.where(col < n_zones[:, None], (np.cumsum(n_zones) - n_zones)[:, None] + col, D.size)
    H_p, H_d, gamma = run.H_p[pair], run.H_d[pair], run.gamma[pair]
    K, area, S = sp.Ks[sp.ck[c]], sp.area[g], sp.S[g]
    w0 = None if sp.w0 is None else sp.w0[c]

    fail = zone_failures(params, H_p, H_d, gamma, area, K)
    fail = np.append(fail, np.zeros((1, len(ZONE_CHECKS)), dtype=bool), axis=0)[at].reshape(at.shape[0], -1)
    low = np.append(low_occupancy(params, H_p, H_d, area), False)[at].any(axis=1)

    books = np.zeros((len(ZoneCostTerms.FIELDS), D.size + 1))
    books[:, :-1] = cost_books(params, ZoneShape(area, S), D, H_p, H_d, gamma, sp.strategy, model, w0, K)
    gc = add_books(books[:, at])[1]

    first = fail.argmax(axis=1) % len(ZONE_CHECKS)
    outcomes = zip(gc.tolist(), fail.any(axis=1).tolist(), first.tolist(), low.tolist())
    for c, (value, bad, check, flagged) in zip(sp.solved[run.s].tolist(), outcomes):
        note = f"infeasible: {ZONE_CHECKS[check]}" if bad else "low_occupancy" if flagged else ""
        sp.outcome[c] = (None if bad else value, note)


def _solve_space(params: ScenarioParams, sp: _Space, model: KStarModel | WeibullTourLaw) -> Iterator[_Run]:
    """Solve and price ``sp`` in runs of whole grids, each starting at the
    first grid whose pairs open a new block of ``_MAX_PAIRS``, and yield each
    run once priced.  Each lane is fitted once, at every K."""
    K, n = sp.Ks[:, None, None], len(sp.grids)
    s_at = np.searchsorted(sp.cg[sp.solved], np.arange(n + 1))  # each grid's first solved combination
    starts = np.unique(sp.pair_at[s_at[:-1]] // _MAX_PAIRS, return_index=True)[1].tolist()
    for g0, g1 in zip(starts, starts[1:] + [n]):
        s = slice(s_at[g0], s_at[g1])
        if s.start == s.stop:
            continue
        lanes = _Lanes(*(v if v is None else v[sp.lane_at[g0]:sp.lane_at[g1]] for v in sp.lanes))
        lane, g, k = sp.pairs(s)
        lane -= sp.lane_at[g0]
        fit = _outbound_fit(params, sp.strategy, model, lanes, K)[:, k, lane]
        H_p = _outbound_headways(params, sp.strategy, model, lanes, fit, lane, sp.Ks[k], sp.hi[g, k])
        gamma, H_d, _ = _inbound_sync(params, _sync_costs(params, sp.strategy, model, lanes, K)[k, lane], sp.ok[g, k])
        run = _Run(s, H_p, H_d, gamma)
        _price(params, model, sp, run)
        yield run


def _tie_break_key(sp: _Space, c: int, run: _Run) -> tuple:
    design = sp.design(c, run)
    mean_hp = sum(zd.H_p for zd in design.zones) / len(design.zones)
    total_gamma = sum(zd.gamma for zd in design.zones)
    return (design.K, design.grid.M * design.grid.N, total_gamma, -mean_hp)


def search_design(
    params: ScenarioParams, space: SearchSpace, model: KStarModel | WeibullTourLaw = TABLE1_MODEL
) -> OptimizationResult:
    """Enumerate (M, N, K[, w0]); optimize each zone; keep the cheapest design."""
    t0 = time.perf_counter()

    sp = _Space(params, space)
    best: tuple[int, _Run, float] | None = None  # (combination, its run, GC)
    for run in _solve_space(params, sp, model):
        for c in sp.solved[run.s].tolist():
            gc = sp.outcome[c][0]
            if gc is None:
                continue
            if best is None or gc < best[2] * (1.0 - TIE_REL) or (
                gc <= best[2] * (1.0 + TIE_REL) and _tie_break_key(sp, c, run) < _tie_break_key(sp, *best[:2])
            ):
                best = (c, run, gc)
    if best is None:
        raise InfeasibleDesignError("search", None, "no feasible design in the search space")
    winner = sp.design(*best[:2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowOccupancyWarning)
        cost = total_generalized_cost(params, winner, model)
    log = tuple(SearchLogEntry(space.strategy, *combo, *outcome) for combo, outcome in zip(sp.combos(), sp.outcome))
    return OptimizationResult(best=winner, cost=cost, search_log=log, wall_time_s=time.perf_counter() - t0)


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
    model: KStarModel | WeibullTourLaw = TABLE1_MODEL,
) -> StrategyComparison:
    """Optimize both strategies and tabulate the headline metrics."""
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
