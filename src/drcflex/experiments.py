"""Scenario sweeps, crossover search, and validation campaigns.

These are the batch experiments behind the package's CSV outputs: sweep one
exogenous parameter and re-optimize at every value, bisect for the demand
density where the two strategies trade places, or validate the analytical
model against the simulator over a grid of scenarios.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass

from .costs import (
    FULLY_FLEXIBLE,
    SEMI_FLEXIBLE,
    STRATEGIES,
    InfeasibleDesignError,
    zone_means,
)
from .expectations import WeibullTourLaw
from .optimizer import OptimizationResult, SearchSpace, search_design
from .params import ScenarioParams
from .simulator import ValidationReport, run_validation
from .tourlength import TABLE1_MODEL, KStarModel

SWEEP_AXES = ("lambda", "region_area", "aspect_ratio", "theta", "alpha")

# aspect_ratio sweeps hold the region area fixed at this many km²
ASPECT_SWEEP_AREA = 4.0


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: re-optimize the design at every axis value."""

    axis: str
    values: tuple[float, ...]
    base: ScenarioParams
    strategies: tuple[str, ...] = STRATEGIES

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise ValueError("values must be non-empty")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("values must be strictly increasing")
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")
        object.__setattr__(self, "values", vals)


def apply_axis(base: ScenarioParams, axis: str, value: float) -> ScenarioParams:
    """The base scenario with one exogenous quantity moved to ``value``.

    ``lambda`` moves both demand densities together; ``region_area`` keeps a
    square region; ``aspect_ratio`` keeps the area at 4 km².
    """
    if axis == "lambda":
        return dataclasses.replace(base, lambda_p=value, lambda_d=value)
    if axis == "region_area":
        side = math.sqrt(value)
        return dataclasses.replace(base, L=side, W=side)
    if axis == "aspect_ratio":
        W = math.sqrt(ASPECT_SWEEP_AREA / value)
        return dataclasses.replace(base, L=value * W, W=W)
    if axis == "theta":
        return dataclasses.replace(base, theta=value)
    if axis == "alpha":
        return dataclasses.replace(base, alpha=value)
    raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")


@dataclass(frozen=True)
class SweepRow:
    """Optimum summary at one axis value for one strategy."""

    axis_value: float
    strategy: str
    feasible: bool
    gc_per_patron_min: float | None = None
    M: int | None = None
    N: int | None = None
    zone_aspect: float | None = None
    K: int | None = None
    w0: float | None = None
    mean_H_p_min: float | None = None
    mean_H_d_min: float | None = None
    mean_occupancy_out: float | None = None
    mean_occupancy_in: float | None = None
    note: str = ""


SWEEP_CSV_HEADER = (
    "axis_value",
    "strategy",
    "feasible",
    "gc_per_patron_min",
    "M",
    "N",
    "zone_aspect",
    "K",
    "w0",
    "mean_H_p_min",
    "mean_H_d_min",
    "mean_occupancy_out",
    "mean_occupancy_in",
    "note",
)


def _row_from_result(value: float, strategy: str, params: ScenarioParams, result: OptimizationResult) -> SweepRow:
    design = result.best
    grid = design.grid
    H_p, H_d, occ_out, occ_in = zone_means(params, design)
    return SweepRow(
        axis_value=value,
        strategy=strategy,
        feasible=True,
        gc_per_patron_min=result.cost.gc_per_patron_min,
        M=grid.M,
        N=grid.N,
        zone_aspect=grid.S,
        K=design.K,
        w0=design.w0,
        mean_H_p_min=H_p * 60.0,
        mean_H_d_min=H_d * 60.0,
        mean_occupancy_out=occ_out,
        mean_occupancy_in=occ_in,
    )


def run_sweep(
    spec: SweepSpec,
    model: KStarModel | WeibullTourLaw = TABLE1_MODEL,
    space: SearchSpace = SearchSpace(),
) -> list[SweepRow]:
    """Optimize every (value, strategy) pair; infeasible points become gap rows."""
    rows: list[SweepRow] = []
    for value in spec.values:
        params = apply_axis(spec.base, spec.axis, value)
        for strategy in spec.strategies:
            strat_space = dataclasses.replace(space, strategy=strategy)
            try:
                result = search_design(params, strat_space, model)
            except InfeasibleDesignError as exc:
                rows.append(
                    SweepRow(axis_value=value, strategy=strategy, feasible=False, note=str(exc))
                )
                continue
            rows.append(_row_from_result(value, strategy, params, result))
    return rows


def sweep_to_csv(rows: list[SweepRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    f"{r.axis_value:g}",
                    r.strategy,
                    int(r.feasible),
                    "" if r.gc_per_patron_min is None else f"{r.gc_per_patron_min:.6f}",
                    "" if r.M is None else r.M,
                    "" if r.N is None else r.N,
                    "" if r.zone_aspect is None else f"{r.zone_aspect:.6f}",
                    "" if r.K is None else r.K,
                    "" if r.w0 is None else f"{r.w0:.6f}",
                    "" if r.mean_H_p_min is None else f"{r.mean_H_p_min:.6f}",
                    "" if r.mean_H_d_min is None else f"{r.mean_H_d_min:.6f}",
                    "" if r.mean_occupancy_out is None else f"{r.mean_occupancy_out:.6f}",
                    "" if r.mean_occupancy_in is None else f"{r.mean_occupancy_in:.6f}",
                    r.note,
                ]
            )


class BracketError(ValueError):
    """The GC difference does not change sign over the given bracket."""


def find_critical_density(
    base: ScenarioParams,
    lo: float = 2.0,
    hi: float = 60.0,
    model: KStarModel | WeibullTourLaw = TABLE1_MODEL,
    space: SearchSpace = SearchSpace(),
    width: float = 0.5,
) -> float:
    """Demand density where the fully and semi-flexible optimal GC curves cross.

    Bisects on the joint demand density until the bracket is narrower than
    ``width`` patrons/h/km² and returns the midpoint.  Both endpoints must
    produce opposite-signed GC differences (FF minus SF).
    """
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    if not (math.isfinite(width) and width > 0.0):
        raise ValueError(f"width must be finite and positive, got {width!r}")

    def gc_diff(lam: float) -> tuple[float, float, float]:
        params = apply_axis(base, "lambda", lam)
        costs = []
        for strategy in STRATEGIES:
            result = search_design(params, dataclasses.replace(space, strategy=strategy), model)
            costs.append(result.cost.gc_per_patron_min)
        return costs[0] - costs[1], costs[0], costs[1]

    d_lo, lo_a, lo_b = gc_diff(lo)
    d_hi, hi_a, hi_b = gc_diff(hi)
    if d_lo == 0.0:
        return lo
    if d_hi == 0.0:
        return hi
    if math.copysign(1.0, d_lo) == math.copysign(1.0, d_hi):
        raise BracketError(
            f"GC difference does not change sign on [{lo}, {hi}]: "
            f"at {lo}: {FULLY_FLEXIBLE}={lo_a:.4f}, {SEMI_FLEXIBLE}={lo_b:.4f}; "
            f"at {hi}: {FULLY_FLEXIBLE}={hi_a:.4f}, {SEMI_FLEXIBLE}={hi_b:.4f} (min/patron)"
        )
    while hi - lo > width:
        mid = (lo + hi) / 2.0
        d_mid, _, _ = gc_diff(mid)
        if d_mid == 0.0:
            return mid
        if math.copysign(1.0, d_mid) == math.copysign(1.0, d_lo):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# Validation campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated model-vs-simulation errors over a scenario grid."""

    strategy: str
    scenario_names: tuple[str, ...]
    reports: tuple[ValidationReport, ...]

    def aggregate(self) -> tuple[tuple[str, float, float], ...]:
        """(row label, average over scenarios, maximum over scenarios)."""
        rows = []
        per_report = [rep.rows() for rep in self.reports]
        for i, (label, _) in enumerate(per_report[0]):
            vals = [rows_i[i][1] for rows_i in per_report]
            rows.append((label, sum(vals) / len(vals), max(vals)))
        return tuple(rows)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "Average", "Maximum"])
            for label, avg, mx in self.aggregate():
                writer.writerow([label, f"{avg:.4f}", f"{mx:.4f}"])


def default_scenario_grid(base: ScenarioParams) -> list[tuple[str, ScenarioParams]]:
    """The 32-scenario validation grid: demand, discount, value of time, size."""
    grid = []
    for lam in (10.0, 40.0):
        for alpha in (0.3, 0.9):
            for theta in (5.0, 20.0):
                for L in (2.0, 3.0):
                    for W in (2.0, 3.0):
                        name = f"lam{lam:g}_a{alpha:g}_th{theta:g}_{L:g}x{W:g}"
                        grid.append(
                            (
                                name,
                                dataclasses.replace(
                                    base,
                                    lambda_p=lam,
                                    lambda_d=lam,
                                    alpha=alpha,
                                    theta=theta,
                                    L=L,
                                    W=W,
                                ),
                            )
                        )
    return grid


def run_validation_campaign(
    scenarios: list[tuple[str, ScenarioParams]],
    strategy: str,
    model: KStarModel | WeibullTourLaw = TABLE1_MODEL,
    space: SearchSpace = SearchSpace(),
    min_runs: int = 1000,
    seed: int = 0,
) -> CampaignResult:
    """Optimize each scenario, freeze the design, and validate it by simulation."""
    names = []
    reports = []
    for name, params in scenarios:
        try:
            result = search_design(
                params, dataclasses.replace(space, strategy=strategy), model
            )
            report = run_validation(params, result.best, model, min_runs=min_runs, seed=seed)
        except InfeasibleDesignError as exc:
            raise InfeasibleDesignError(exc.constraint, exc.zone, f"{exc.detail} (scenario {name!r})") from exc
        except Exception as exc:
            raise RuntimeError(f"validation campaign failed at scenario {name!r}: {exc}") from exc
        names.append(name)
        reports.append(report)
    return CampaignResult(strategy=strategy, scenario_names=tuple(names), reports=tuple(reports))
