"""Exhaustive design search with per-zone continuous headway optimization.

The discrete variables (grid shape M x N, vehicle capacity K, and for
semi-flexible routing the swath width w0) are enumerated exhaustively.  For
each combination the generalized cost separates into independent per-zone,
per-direction terms, so the outbound headway H_p is optimized by bracketed
1-D minimization and the inbound sync multiple gamma by enumeration, zone by
zone.  Zones sharing a line-haul distance have identical optima and are
solved once.
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
from scipy.optimize import minimize_scalar

from .costs import (
    FULLY_FLEXIBLE,
    SEMI_FLEXIBLE,
    CostBreakdown,
    DesignSolution,
    Direction,
    InfeasibleDesignError,
    LowOccupancyWarning,
    ZoneDesign,
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
# Per-zone, per-direction objectives
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _unit_starts(n_starts: int) -> np.ndarray:
    """The fixed-seed extra scan points on [0, 1), shared by every zone."""
    starts = np.random.default_rng(0xD5C0).random(n_starts)
    starts.flags.writeable = False
    return starts


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
    """Minimize the zone's outbound cost over the feasible headway interval.

    A coarse scan seeds bracketed refinements around every local dip plus
    n_starts additional interior points, guarding against multimodality of
    the expansion-based objective.  The objective is every book that depends
    on the outbound headway; the scan evaluates it in one kernel call.
    """
    lo = params.H_min
    hi = params.H_max
    if enforce_capacity:
        hi = min(hi, headway_cap_from_capacity(params.lambda_p, grid.l, grid.w, K))
    if hi < lo - 1e-15:
        raise InfeasibleDesignError(
            "capacity",
            z,
            f"outbound headway cap {hi:.6f} h below the minimum headway {lo:.6f} h",
        )
    D = line_haul_distance(grid, z)

    def f(H):
        return zone_books(params, grid, D, H, "outbound", strategy, model, w0_opt, K).total

    if hi - lo <= HEADWAY_TOL_H:
        return lo, f(lo)
    grid_pts = np.linspace(lo, hi, max(2 * n_starts, 24))
    starts = np.concatenate([grid_pts, lo + (hi - lo) * _unit_starts(n_starts)])
    starts.sort()
    vals = f(starts)
    i_best = int(vals.argmin())
    best_H, best_val = float(starts[i_best]), float(vals[i_best])
    # refine around every local dip of the scan
    padded = np.concatenate(([math.inf], vals, [math.inf]))
    for i in np.flatnonzero((vals <= padded[:-2]) & (vals <= padded[2:])):
        a = starts[i - 1] if i > 0 else lo
        b = starts[i + 1] if i + 1 < len(starts) else hi
        res = minimize_scalar(
            f, bounds=(float(a), float(b)), method="bounded", options={"xatol": HEADWAY_TOL_H / 2}
        )
        if res.fun < best_val:
            best_H, best_val = float(res.x), float(res.fun)
    return best_H, best_val


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
    gammas = np.array(sorted(gamma_range))
    H_d = gammas * params.H_t
    ok = (H_d >= max(params.H_min, params.H_t) - 1e-12) & (H_d <= params.H_max + 1e-12)
    if enforce_capacity:
        mu = params.lambda_d * H_d * grid.l * grid.w
        ok &= mu + 2.0 * np.sqrt(mu) <= K + 1e-12
    if not ok.any():
        raise InfeasibleDesignError(
            "inbound_sync",
            z,
            f"no feasible trunk-sync multiple in {tuple(gamma_range)} for K={K}",
        )
    gammas, H_d = gammas[ok], H_d[ok]
    D = line_haul_distance(grid, z)
    costs = zone_books(params, grid, D, H_d, "inbound", strategy, model, w0_opt, K, gammas).total
    best = 0
    for i in range(1, len(costs)):
        if costs[i] < costs[best] - TIE_REL * max(1.0, abs(costs[best])):
            best = i
    return int(gammas[best]), float(H_d[best]), float(costs[best])


# ---------------------------------------------------------------------------
# Exhaustive discrete search
# ---------------------------------------------------------------------------


def _design_for_combo(
    params: ScenarioParams,
    space: SearchSpace,
    model: KStarModel | TourLengthLaw,
    M: int,
    N: int,
    K: int,
    w0: float | None,
) -> DesignSolution:
    """Solve the continuous problem for one discrete combination."""
    grid = make_grid(params, M, N)
    solved: dict[float, tuple[float, int, float]] = {}  # D -> (H_p, gamma, H_d)
    zone_designs = []
    for z in grid.zones():
        D = round(line_haul_distance(grid, z), 12)
        if D not in solved:
            H_p, _ = optimize_zone_headway(
                params,
                grid,
                z,
                K,
                space.strategy,
                model,
                w0_opt=w0,
                n_starts=space.n_starts,
                enforce_capacity=space.enforce_capacity,
            )
            gamma, H_d, _ = optimize_zone_gamma(
                params,
                grid,
                z,
                K,
                space.strategy,
                model,
                w0_opt=w0,
                gamma_range=space.gamma_range,
                enforce_capacity=space.enforce_capacity,
            )
            solved[D] = (H_p, gamma, H_d)
        H_p, gamma, H_d = solved[D]
        zone_designs.append(ZoneDesign(z=z, H_p=H_p, H_d=H_d, gamma=gamma))
    return DesignSolution(
        strategy=space.strategy, grid=grid, K=K, zones=tuple(zone_designs), w0=w0
    )


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
            if space.strategy == SEMI_FLEXIBLE:
                grid = make_grid(params, M, N)
                w0_options: list[float | None] = [
                    c.w0 for c in feasible_swath_widths(grid.l, grid.w)
                ]
            else:
                w0_options = [None]
            for K in space.K_range:
                for w0 in w0_options:
                    note = ""
                    try:
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always", LowOccupancyWarning)
                            design = _design_for_combo(params, space, model, M, N, K, w0)
                            breakdown = total_generalized_cost(
                                params, design, model, check_capacity=space.enforce_capacity
                            )
                            if any(issubclass(w.category, LowOccupancyWarning) for w in caught):
                                note = "low_occupancy"
                    except InfeasibleDesignError as exc:
                        log.append(
                            SearchLogEntry(
                                strategy=space.strategy,
                                M=M,
                                N=N,
                                K=K,
                                w0=w0,
                                gc=None,
                                note=f"infeasible: {exc.constraint}",
                            )
                        )
                        continue
                    log.append(
                        SearchLogEntry(
                            strategy=space.strategy, M=M, N=N, K=K, w0=w0, gc=breakdown.GC, note=note
                        )
                    )
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
