"""Exhaustive design search with continuous headway optimization as one array program.

The discrete variables (grid shape M x N, vehicle capacity K, and for
semi-flexible routing the swath width w0) are enumerated exhaustively.  For
each combination the generalized cost separates into independent per-zone,
per-direction terms, and zones sharing a line-haul distance D have identical
optima.  K enters those terms only through the agency cost rates and the
capacity caps, so each (M, N, w0) group is solved once for every K: one lane
per (K, distinct D).  One kernel call scans every lane's outbound headways, a
lane-parallel port of scipy's bounded Brent refines every local dip of every
lane at once, and one more call enumerates the inbound sync multiple gamma
over (lanes, gamma).  ``optimize_zone_headway`` and ``optimize_zone_gamma``
are the same solves for a single zone.
"""

from __future__ import annotations

import csv
import functools
import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .costs import (
    FULLY_FLEXIBLE,
    SEMI_FLEXIBLE,
    CostBreakdown,
    DesignSolution,
    Direction,
    InfeasibleDesignError,
    LowOccupancyWarning,
    ZoneDesign,
    capacity_ok,
    mean_occupancy,
    total_generalized_cost,
    zone_books,
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
from .expectations import TourLengthLaw, as_tour_law
from .params import ScenarioParams, ZoneGrid, ZoneIndex, line_haul_distance, make_grid
from .tourlength import KStarModel, TABLE1_MODEL, feasible_swath_widths, swath_tour_length

# Continuous headways are refined until the bracket is narrower than 0.1 s.
HEADWAY_TOL_H = 0.1 / 3600.0

# Relative slack for cost ties; broken by simpler designs.
TIE_REL = 1e-9


@dataclass(frozen=True)
class SearchSpace:
    """Discrete ranges the exhaustive search enumerates."""

    K_range: tuple[int, ...] = tuple(range(1, 21))
    M_range: tuple[int, ...] = tuple(range(1, 7))
    N_range: tuple[int, ...] = tuple(range(1, 7))
    gamma_range: tuple[int, ...] = (1, 2, 3, 4, 5)
    n_starts: int = 20
    strategy: str = FULLY_FLEXIBLE
    enforce_capacity: bool = True

    def __post_init__(self) -> None:
        for name in ("K_range", "M_range", "N_range", "gamma_range"):
            vals = getattr(self, name)
            if not vals or min(vals) < 1:
                raise ValueError(f"{name} must be a nonempty range of positive integers")
        if self.n_starts < 1:
            raise ValueError("n_starts must be positive")
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


def headway_cap_from_capacity(lam: float, l: float, w: float, K: int) -> float:
    """Largest headway whose occupancy mean plus two sigmas still fits K.

    Solves x + 2*sqrt(x) <= K for x = lam*H*l*w: x_max = (sqrt(K+1) - 1)**2.
    """
    if lam * l * w <= 0:
        raise ValueError("demand rate times zone area must be positive")
    if K < 1:
        raise ValueError("capacity must be at least 1")
    x_max = (math.sqrt(K + 1.0) - 1.0) ** 2
    return x_max / (lam * l * w)


# ---------------------------------------------------------------------------
# Lane-parallel bounded Brent
# ---------------------------------------------------------------------------

# Brent's constants as scipy's minimize_scalar(method="bounded") states them.
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _bounded_brent(f, lo, hi, xatol: float, maxfun: int = 500):
    """Minimize on many independent intervals at once by Brent's bounded method.

    Lane i searches [lo[i], hi[i]] with the golden-section and parabolic
    steps of Brent (1973, *Algorithms for Minimization without Derivatives*,
    ch. 5) exactly as scipy's ``minimize_scalar(method="bounded")`` takes
    them: the same constants, tolerances, acceptance test, sign rule and
    update order, so every lane follows the path a scalar call would follow
    on the same function values.  ``f(x, lanes)`` returns the objective at
    ``x[j]`` for lane ``lanes[j]``.  Lanes drop out as they converge; all stop
    after ``maxfun`` evaluations.  Returns arrays (x, fun, nfev).
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    lanes = np.arange(a.size)
    xf = a + _GOLDEN_MEAN * (b - a)
    fx = np.asarray(f(xf, lanes), dtype=float)
    nfc, fulc, fnfc, ffulc = xf, xf, fx, fx
    rat = e = np.zeros(a.size)
    out_x, out_f, out_n = xf.copy(), fx.copy(), np.ones(a.size, dtype=int)
    num = 1  # every running lane has made the same number of evaluations
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            xm = 0.5 * (a + b)
            tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
            tol2 = 2.0 * tol1
            run = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
            if not run.all():
                done = lanes[~run]
                out_x[done], out_f[done], out_n[done] = xf[~run], fx[~run], num
                if not run.any():
                    break
                a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, xm, tol1, tol2, lanes = (
                    v[run] for v in (a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, xm, tol1, tol2, lanes)
                )
            # parabolic fit through the three best points
            fit = np.abs(e) > tol1
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            accept = fit & (np.abs(p) < np.abs(0.5 * q * e)) & (p > q * (a - xf)) & (p < q * (b - xf))
            e = np.where(fit, rat, e)
            step = (p + 0.0) / q
            x = xf + step
            si = np.sign(xm - xf) + ((xm - xf) == 0)
            step = np.where(((x - a) < tol2) | ((b - x) < tol2), tol1 * si, step)
            # golden-section step wherever the parabola is not accepted
            e = np.where(accept, e, np.where(xf >= xm, a - xf, b - xf))
            rat = np.where(accept, step, _GOLDEN_MEAN * e)
            si = np.sign(rat) + (rat == 0)
            x = xf + si * np.maximum(np.abs(rat), tol1)
            fu = np.asarray(f(x, lanes), dtype=float)
            num += 1
            lower = fu <= fx
            right = x >= xf
            a = np.where(lower == right, np.where(lower, xf, x), a)
            b = np.where(lower != right, np.where(lower, xf, x), b)
            near = ~lower & ((fu <= fnfc) | (nfc == xf))
            far = ~lower & ~near & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
            shift = lower | near
            fulc = np.where(shift, nfc, np.where(far, x, fulc))
            ffulc = np.where(shift, fnfc, np.where(far, fu, ffulc))
            nfc = np.where(lower, xf, np.where(near, x, nfc))
            fnfc = np.where(lower, fx, np.where(near, fu, fnfc))
            xf, fx = np.where(lower, x, xf), np.where(lower, fu, fx)
            if num >= maxfun:
                out_x[lanes], out_f[lanes], out_n[lanes] = xf, fx, num
                break
    return out_x, out_f, out_n


# ---------------------------------------------------------------------------
# Per-zone, per-direction solves, many lanes at once
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _unit_starts(n_starts: int) -> np.ndarray:
    """The fixed-seed extra scan points on [0, 1), shared by every zone."""
    starts = np.random.default_rng(0xD5C0).random(n_starts)
    starts.flags.writeable = False
    return starts


def _headway_caps(
    params: ScenarioParams, grid: ZoneGrid, Ks: Sequence[int], enforce_capacity: bool
) -> np.ndarray:
    """The upper end of the outbound headway interval for each capacity."""
    if not enforce_capacity:
        return np.full(len(Ks), params.H_max)
    return np.array(
        [min(params.H_max, headway_cap_from_capacity(params.lambda_p, grid.l, grid.w, K)) for K in Ks]
    )


def _group_cost(
    params: ScenarioParams,
    grid: ZoneGrid,
    strategy: str,
    model: KStarModel | TourLengthLaw,
    w0: float | None,
):
    """The cost kernel of one (M, N, w0) group: ``cost(direction, D, H, K,
    gamma)`` is every book that depends on that direction's headway."""

    def cost(direction: Direction, D, H, K, gamma=1):
        return zone_books(params, grid, D, H, direction, strategy, model, w0, K, gamma).total

    return cost


def _outbound_headways(
    cost, lo: float, D: np.ndarray, K: np.ndarray, hi: np.ndarray, n_starts: int
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the outbound cost of many lanes; return (H_p, cost) per lane.

    Lane i is a zone at line-haul distance D[i] served by capacity-K[i]
    vehicles, searched on [lo, hi[i]].  A coarse scan seeds bounded Brent
    refinements around every local dip plus n_starts additional interior
    points, guarding against multimodality of the expansion-based objective.
    One kernel call scans every lane, and one Brent loop refines every dip.
    """

    def books(H: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        shape = lanes.shape + (1,) * (H.ndim - lanes.ndim)
        return cost("outbound", D[lanes].reshape(shape), H, K[lanes].reshape(shape))

    H = np.full(D.shape, lo)
    val = np.empty(D.shape)
    narrow = hi - lo <= HEADWAY_TOL_H
    if narrow.any():
        val[narrow] = books(H[narrow], np.flatnonzero(narrow))
    wide = np.flatnonzero(~narrow)
    if not wide.size:
        return H, val
    grid_pts = np.linspace(lo, hi[wide], max(2 * n_starts, 24), axis=1)
    starts = np.concatenate([grid_pts, lo + (hi[wide, None] - lo) * _unit_starts(n_starts)], axis=1)
    starts.sort(axis=1)
    vals = books(starts, wide)
    rows = np.arange(wide.size)
    i_best = vals.argmin(axis=1)
    best_H, best_val = starts[rows, i_best], vals[rows, i_best]
    # refine around every local dip of every lane's scan, in scan order
    padded = np.pad(vals, ((0, 0), (1, 1)), constant_values=math.inf)
    lane, i = np.nonzero((vals <= padded[:, :-2]) & (vals <= padded[:, 2:]))
    last = starts.shape[1] - 1
    a = np.where(i > 0, starts[lane, np.maximum(i - 1, 0)], lo)
    b = np.where(i < last, starts[lane, np.minimum(i + 1, last)], hi[wide[lane]])
    x, fun, _ = _bounded_brent(lambda x, j: books(x, wide[lane[j]]), a, b, HEADWAY_TOL_H / 2)
    # a refinement replaces the lane's best only if strictly cheaper, dip by dip
    rank = np.arange(lane.size) - np.searchsorted(lane, lane)
    for r in range(rank.max(initial=-1) + 1):
        at = rank == r
        better = fun[at] < best_val[lane[at]]
        best_H[lane[at][better]] = x[at][better]
        best_val[lane[at][better]] = fun[at][better]
    H[wide], val[wide] = best_H, best_val
    return H, val


def _sync_multiples(
    params: ScenarioParams,
    grid: ZoneGrid,
    Ks: Sequence[int],
    gamma_range: Sequence[int],
    enforce_capacity: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gammas, H_d, ok): the sorted trunk-sync multiples, their inbound
    headways, and which of them each capacity admits, shaped (len(Ks), gammas)."""
    gammas = np.array(sorted(gamma_range))
    H_d = gammas * params.H_t
    ok = (H_d >= max(params.H_min, params.H_t) - 1e-12) & (H_d <= params.H_max + 1e-12)
    ok = np.broadcast_to(ok, (len(Ks), gammas.size))
    if enforce_capacity:
        ok = ok & capacity_ok(params.lambda_d * H_d * grid.area, np.asarray(Ks)[:, None])
    return gammas, H_d, ok


def _inbound_sync(
    cost, D: np.ndarray, K: np.ndarray, gammas: np.ndarray, H_d: np.ndarray, ok: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cheapest admitted sync multiple of each lane: (gamma, H_d, inbound cost).

    Lane i is a zone at distance D[i] with capacity K[i] that admits the
    multiples ``ok[i]``, at least one.  A later multiple wins only if it is
    cheaper by more than the tie slack, so ties go to the smaller one.
    """
    costs = cost("inbound", D[:, None], H_d[None, :], K[:, None], gammas)
    rows = np.arange(D.size)
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
    model: KStarModel | TourLengthLaw,
    w0_opt: float | None = None,
    n_starts: int = 20,
    enforce_capacity: bool = True,
) -> tuple[float, float]:
    """Minimize one zone's outbound cost over its feasible headway interval.

    One lane of the search's own solve; returns (H_p, outbound cost).
    """
    hi = _headway_caps(params, grid, (K,), enforce_capacity)
    if hi[0] < params.H_min - 1e-15:
        raise InfeasibleDesignError(
            "capacity",
            z,
            f"outbound headway cap {hi[0]:.6f} h below the minimum headway {params.H_min:.6f} h",
        )
    D = np.array([line_haul_distance(grid, z)])
    cost = _group_cost(params, grid, strategy, model, w0_opt)
    H, val = _outbound_headways(cost, params.H_min, D, np.array([K]), hi, n_starts)
    return float(H[0]), float(val[0])


def optimize_zone_gamma(
    params: ScenarioParams,
    grid: ZoneGrid,
    z: ZoneIndex,
    K: int,
    strategy: str,
    model: KStarModel | TourLengthLaw,
    w0_opt: float | None = None,
    gamma_range: Sequence[int] = (1, 2, 3, 4, 5),
    enforce_capacity: bool = True,
) -> tuple[int, float, float]:
    """Enumerate the trunk-sync multiple; return (gamma, H_d, inbound cost)."""
    gammas, H_d, ok = _sync_multiples(params, grid, (K,), gamma_range, enforce_capacity)
    if not ok.any():
        raise InfeasibleDesignError(
            "inbound_sync",
            z,
            f"no feasible trunk-sync multiple in {tuple(gamma_range)} for K={K}",
        )
    D = np.array([line_haul_distance(grid, z)])
    cost = _group_cost(params, grid, strategy, model, w0_opt)
    gamma, H, val = _inbound_sync(cost, D, np.array([K]), gammas, H_d, ok)
    return int(gamma[0]), float(H[0]), float(val[0])


# ---------------------------------------------------------------------------
# Exhaustive discrete search
# ---------------------------------------------------------------------------


def _solve_group(
    params: ScenarioParams,
    space: SearchSpace,
    model: KStarModel | TourLengthLaw,
    grid: ZoneGrid,
    w0: float | None,
) -> list[tuple[ZoneDesign, ...] | str]:
    """Solve one (M, N, w0) group for every K of the space at once.

    Returns, per K in ``space.K_range``, the zone designs or the name of the
    constraint that makes K infeasible.  Zones sharing a line-haul distance
    have identical optima, so each (K, distinct distance) is one lane.
    """
    zone_D = np.array([line_haul_distance(grid, z) for z in grid.zones()])
    _, first, slot = np.unique([round(d, 12) for d in zone_D], return_index=True, return_inverse=True)
    Ks = np.array(space.K_range)
    hi = _headway_caps(params, grid, space.K_range, space.enforce_capacity)
    gammas, H_d, ok = _sync_multiples(
        params, grid, space.K_range, space.gamma_range, space.enforce_capacity
    )
    notes = [
        "capacity" if h < params.H_min - 1e-15 else "inbound_sync" if not admits else ""
        for h, admits in zip(hi, ok.any(axis=1))
    ]
    solved = np.array([k for k, note in enumerate(notes) if not note], dtype=int)
    n_d = first.size
    k_of = np.repeat(solved, n_d)  # lanes are K-major, distance-minor
    D = np.tile(zone_D[first], solved.size)
    cost = _group_cost(params, grid, space.strategy, model, w0)
    H_p, _ = _outbound_headways(cost, params.H_min, D, Ks[k_of], hi[k_of], space.n_starts)
    gamma, H_in, _ = _inbound_sync(cost, D, Ks[k_of], gammas, H_d, ok[k_of])
    out: list[tuple[ZoneDesign, ...] | str] = list(notes)
    for base, k in enumerate(solved):
        out[k] = tuple(
            ZoneDesign(z=z, H_p=float(H_p[i]), H_d=float(H_in[i]), gamma=int(gamma[i]))
            for z, i in zip(grid.zones(), base * n_d + slot)
        )
    return out


def _tie_break_key(design: DesignSolution) -> tuple:
    mean_hp = sum(zd.H_p for zd in design.zones) / len(design.zones)
    total_gamma = sum(zd.gamma for zd in design.zones)
    return (design.K, design.grid.M * design.grid.N, total_gamma, -mean_hp)


def search_design(
    params: ScenarioParams,
    space: SearchSpace,
    model: KStarModel | TourLengthLaw | None = None,
) -> OptimizationResult:
    """Enumerate (M, N, K[, w0]); optimize each zone; keep the cheapest design."""
    if model is None:
        model = TABLE1_MODEL
    t0 = time.perf_counter()
    log: list[SearchLogEntry] = []
    best: tuple[DesignSolution, CostBreakdown] | None = None
    for M in space.M_range:
        for N in space.N_range:
            grid = make_grid(params, M, N)
            if space.strategy == SEMI_FLEXIBLE:
                w0_options: list[float | None] = [
                    c.w0 for c in feasible_swath_widths(grid.l, grid.w)
                ]
            else:
                w0_options = [None]
            groups = [_solve_group(params, space, model, grid, w0) for w0 in w0_options]
            for k, K in enumerate(space.K_range):
                for w0, group in zip(w0_options, groups):
                    entry = functools.partial(SearchLogEntry, strategy=space.strategy, M=M, N=N, K=K, w0=w0)
                    if isinstance(group[k], str):
                        log.append(entry(gc=None, note=f"infeasible: {group[k]}"))
                        continue
                    design = DesignSolution(
                        strategy=space.strategy, grid=grid, K=K, zones=group[k], w0=w0
                    )
                    try:
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always", LowOccupancyWarning)
                            breakdown = total_generalized_cost(
                                params, design, model, check_capacity=space.enforce_capacity
                            )
                    except InfeasibleDesignError as exc:
                        log.append(entry(gc=None, note=f"infeasible: {exc.constraint}"))
                        continue
                    low = any(issubclass(w.category, LowOccupancyWarning) for w in caught)
                    log.append(entry(gc=breakdown.GC, note="low_occupancy" if low else ""))
                    if best is None:
                        best = (design, breakdown)
                    else:
                        cur = best[1].GC
                        if breakdown.GC < cur * (1.0 - TIE_REL):
                            best = (design, breakdown)
                        elif breakdown.GC <= cur * (1.0 + TIE_REL) and _tie_break_key(
                            design
                        ) < _tie_break_key(best[0]):
                            best = (design, breakdown)
    if best is None:
        raise InfeasibleDesignError(
            "search", None, "no feasible design in the search space"
        )
    return OptimizationResult(
        best=best[0],
        cost=best[1],
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


def _mean_zone_stat(design, fn) -> float:
    vals = [fn(zd) for zd in design.zones]
    return sum(vals) / len(vals)


def _strategy_metrics(
    params: ScenarioParams,
    result: OptimizationResult,
    model: KStarModel | TourLengthLaw,
) -> dict[str, float | str]:
    design = result.best
    grid = design.grid
    bd = result.cost
    law = as_tour_law(model)
    patrons = (params.lambda_p + params.lambda_d) * params.L * params.W
    to_min = 60.0 / patrons
    area = grid.l * grid.w
    s = math.sqrt(area)

    def occ(zd: ZoneDesign, direction: Direction) -> float:
        return mean_occupancy(params, grid, zd, direction)

    def tour_stats(direction: Direction) -> tuple[float, float]:
        """(mean coefficient, mean tour length at mean occupancy) over zones."""
        coeffs = []
        lengths = []
        for zd in design.zones:
            mu = occ(zd, direction)
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
        "mean_outbound_headway_min": _mean_zone_stat(design, lambda zd: zd.H_p) * 60.0,
        "mean_inbound_headway_min": _mean_zone_stat(design, lambda zd: zd.H_d) * 60.0,
        "mean_outbound_occupancy": _mean_zone_stat(design, lambda zd: occ(zd, "outbound")),
        "mean_inbound_occupancy": _mean_zone_stat(design, lambda zd: occ(zd, "inbound")),
        "mean_outbound_tour_coefficient": k_out,
        "mean_inbound_tour_coefficient": k_in,
        "mean_outbound_tour_length_km": tour_out,
        "mean_inbound_tour_length_km": tour_in,
    }


def compare_strategies(
    params: ScenarioParams,
    space: SearchSpace = SearchSpace(),
    model: KStarModel | TourLengthLaw | None = None,
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
