"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with plain ``pytest``; the verdict lines print unbuffered so they appear
even under output capture.  Criteria marked FAIL are genuine defects, not
flaky tests; see the assertion message for the offending numbers.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from drcflex import (
    FULLY_FLEXIBLE,
    SEMI_FLEXIBLE,
    SearchSpace,
    TABLE1_MODEL,
    compare_strategies,
    find_critical_density,
    make_grid,
    run_validation,
    table2_params,
    total_generalized_cost,
)
from drcflex.costs import LOW_OCCUPANCY_MEAN, STRATEGIES, InfeasibleDesignError
from drcflex.expectations import (
    PRIOR_LAWS,
    RIDER_WEIGHTED_OFFSET,
    TOUR_LENGTH_OFFSET,
    WeibullTourLaw,
    mc_expectation_oracle,
)
from drcflex.optimizer import headway_cap_from_capacity
from drcflex.tourlength import (
    CalibrationGrid,
    KStarModel,
    calibrate_kstar,
    constrained_swath_mape,
    feasible_swath_widths,
)
from drcflex.tsp import PointSet, brute_force_tour_length, exact_tour_length

# Published reference grid for the simulated tour-length constant: rows are
# aspect ratios, columns are stop counts 2..15.  Values are printed to two
# decimals in the source table.
PUBLISHED_KSTAR = {
    1.0: (0.94, 1.16, 1.20, 1.19, 1.18, 1.17, 1.15, 1.13, 1.12, 1.11, 1.10, 1.09, 1.09, 1.08),
    1.5: (0.96, 1.17, 1.22, 1.22, 1.20, 1.19, 1.17, 1.15, 1.15, 1.13, 1.12, 1.11, 1.10, 1.10),
    2.0: (1.00, 1.23, 1.27, 1.28, 1.25, 1.23, 1.21, 1.20, 1.18, 1.16, 1.15, 1.14, 1.13, 1.12),
    3.0: (1.09, 1.33, 1.38, 1.38, 1.36, 1.34, 1.31, 1.29, 1.27, 1.25, 1.23, 1.21, 1.20, 1.19),
}

# Published headline numbers for the base-case optima.
PUBLISHED_GC = {FULLY_FLEXIBLE: 18.29, SEMI_FLEXIBLE: 17.73}
PUBLISHED_SAVING_PCT = 3.1
PUBLISHED_MEAN_HP_MIN = {FULLY_FLEXIBLE: 4.98, SEMI_FLEXIBLE: 6.80}
PUBLISHED_MEAN_HD_MIN = {FULLY_FLEXIBLE: 5.00, SEMI_FLEXIBLE: 5.00}

# Search space for the crossover-density bisection: covers every optimal
# design observed for 15..30 patrons/h/km2 while keeping the runtime modest.
CROSSOVER_SPACE = SearchSpace(
    M_range=(1, 2, 3),
    N_range=(1, 2, 3, 4, 5, 6),
    K_range=tuple(range(2, 17)),
)


def report(capsys, criterion: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


@pytest.fixture(scope="module")
def calibration():
    t0 = time.perf_counter()
    result = calibrate_kstar(CalibrationGrid(), seed=0)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def comparison():
    return compare_strategies(table2_params(), SearchSpace(), TABLE1_MODEL)


@pytest.fixture(scope="module")
def ff_validation(comparison):
    return run_validation(
        table2_params(), comparison.ff.best, TABLE1_MODEL, min_runs=1000, seed=0
    )


@pytest.fixture(scope="module")
def sf_validation(comparison):
    return run_validation(
        table2_params(), comparison.sf.best, TABLE1_MODEL, min_runs=1000, seed=0
    )


def test_criterion_1_simulated_kstar_grid(calibration, capsys) -> None:
    result, elapsed = calibration
    worst = 0.0
    worst_cell = None
    for S, row in PUBLISHED_KSTAR.items():
        for q, ref in zip(range(2, 16), row):
            diff = abs(result.cell(q, S).mean_kstar - ref)
            if diff > worst:
                worst, worst_cell = diff, (q, S)
    ok = worst <= 0.04 and elapsed <= 600.0
    report(
        capsys,
        "criterion 1",
        ok,
        f"56 cells, worst |sim - ref| = {worst:.4f} at (q, S) = {worst_cell}, "
        f"calibration took {elapsed:.0f}s",
    )
    assert worst <= 0.04
    assert elapsed <= 600.0


def test_criterion_2_fit_beats_prior_formulas(calibration, capsys) -> None:
    result, _ = calibration
    fit_mape = result.fit_mape_pct
    worst_yang = 0.0
    worst_cell = None
    for c in result.cells:
        if c.q <= 5 and c.S <= 3.0:
            yang = PRIOR_LAWS["yang"].tour_length_units(c.q, c.S) / math.sqrt(c.q)
            ape = abs(yang / c.mean_kstar - 1.0) * 100.0
            if ape > worst_yang:
                worst_yang, worst_cell = ape, (c.q, c.S)
    ok = fit_mape < 5.0 and worst_yang > 40.0
    report(
        capsys,
        "criterion 2",
        ok,
        f"fit MAPE {fit_mape:.2f}% (< 5), reference-formula error up to "
        f"{worst_yang:.0f}% at (q, S) = {worst_cell} (> 40)",
    )
    assert fit_mape < 5.0
    assert worst_yang > 40.0


def test_criterion_3_swath_width_constraint_bites(capsys) -> None:
    worst = 0.0
    worst_case = None
    for S in (1.0, 1.5, 2.0, 2.5, 3.0):
        l = S**0.5
        w = 1.0 / l
        for gap in constrained_swath_mape(l, w, range(2, 16)):
            if gap.realizable_gap_pct > worst:
                worst, worst_case = gap.realizable_gap_pct, (gap.q, S)
    ok = worst > 40.0
    report(
        capsys,
        "criterion 3",
        ok,
        f"largest feasible-vs-ideal swath tour gap {worst:.1f}% at "
        f"(q, S) = {worst_case} (> 40)",
    )
    assert worst > 40.0


def test_criterion_4_base_case_optima(comparison, capsys) -> None:
    ff, sf = comparison.ff, comparison.sf
    checks = {
        "ff_grid": (ff.best.grid.M, ff.best.grid.N) == (2, 2),
        "ff_K": ff.best.K == 8,
        "sf_grid": (sf.best.grid.M, sf.best.grid.N) == (1, 4),
        "sf_K": sf.best.K == 9,
        "sf_w0": sf.best.w0 == pytest.approx(0.5),
    }
    gc = {FULLY_FLEXIBLE: ff.cost.gc_per_patron_min, SEMI_FLEXIBLE: sf.cost.gc_per_patron_min}
    for strategy, value in gc.items():
        checks[f"gc_{strategy}"] = abs(value / PUBLISHED_GC[strategy] - 1.0) <= 0.02
    saving = comparison.sf_saving_pct
    checks["saving"] = abs(saving - PUBLISHED_SAVING_PCT) <= 1.0

    metrics = {label: (ff_v, sf_v) for label, ff_v, sf_v in comparison.metrics}
    for i, strategy in enumerate((FULLY_FLEXIBLE, SEMI_FLEXIBLE)):
        hp = float(metrics["mean_outbound_headway_min"][i])
        hd = float(metrics["mean_inbound_headway_min"][i])
        checks[f"hp_{strategy}"] = abs(hp / PUBLISHED_MEAN_HP_MIN[strategy] - 1.0) <= 0.05
        checks[f"hd_{strategy}"] = abs(hd / PUBLISHED_MEAN_HD_MIN[strategy] - 1.0) <= 0.05
    checks["ff_runtime"] = ff.wall_time_s <= 120.0
    checks["sf_runtime"] = sf.wall_time_s <= 120.0

    failed = sorted(k for k, v in checks.items() if not v)
    report(
        capsys,
        "criterion 4",
        not failed,
        f"FF {ff.best.grid.M}x{ff.best.grid.N} K={ff.best.K} GC={gc[FULLY_FLEXIBLE]:.4f}, "
        f"SF {sf.best.grid.M}x{sf.best.grid.N} K={sf.best.K} w0={sf.best.w0} "
        f"GC={gc[SEMI_FLEXIBLE]:.4f}, saving {saving:.2f}%"
        + (f"; failed: {failed}" if failed else ""),
    )
    assert not failed, f"failed sub-checks: {failed}"


def test_criterion_5_simulation_validation(ff_validation, sf_validation, capsys) -> None:
    checks = {
        "ff_gc_error": ff_validation.gc_error_pct <= 5.0,
        "sf_gc_error": sf_validation.gc_error_pct <= 1.0,
        "ff_overcapacity": ff_validation.overcapacity_pct <= 1.0,
        "sf_overcapacity": sf_validation.overcapacity_pct <= 1.0,
        "ff_runs": ff_validation.n_runs >= 1000,
        "sf_runs": sf_validation.n_runs >= 1000,
        "ff_se": ff_validation.sim_gc_se < 0.05,
        "sf_se": sf_validation.sim_gc_se < 0.05,
    }
    failed = sorted(k for k, v in checks.items() if not v)
    report(
        capsys,
        "criterion 5",
        not failed,
        f"FF GC error {ff_validation.gc_error_pct:.2f}% over {ff_validation.n_runs} runs, "
        f"SF GC error {sf_validation.gc_error_pct:.2f}% over {sf_validation.n_runs} runs, "
        f"overcapacity {ff_validation.overcapacity_pct:.2f}%/{sf_validation.overcapacity_pct:.2f}%"
        + (f"; failed: {failed}" if failed else ""),
    )
    assert not failed, f"failed sub-checks: {failed}"


def test_criterion_6_strategy_crossover_density(capsys) -> None:
    density = find_critical_density(
        table2_params(), lo=15.0, hi=30.0, space=CROSSOVER_SPACE, width=0.5
    )
    ok = 15.0 <= density <= 30.0
    report(
        capsys,
        "criterion 6",
        ok,
        f"strategies trade places at {density:.2f} patrons/h/km2 (within [15, 30])",
    )
    assert 15.0 <= density <= 30.0


def test_criterion_7a_exact_solver_matches_brute_force(capsys) -> None:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        q = int(rng.integers(2, 10))
        scale = rng.uniform(0.5, 2.0, size=2)
        pts = PointSet(rng.random((q, 2)) * scale)
        diff = abs(exact_tour_length(pts) - brute_force_tour_length(pts))
        worst = max(worst, diff)
    ok = worst <= 1e-9
    report(capsys, "criterion 7a", ok, f"1000 instances q<=9, worst |DP - brute| = {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_7b_taylor_accuracy_band(capsys) -> None:
    # The second-order expansion is promised within 2% of the Monte Carlo
    # oracle for dispatch means of 2 and up (the cost model's stated band).
    # Below 2 it degrades (~13% at mean 1), so every cell that leaves the
    # band must sit below LOW_OCCUPANCY_MEAN, where the cost model raises
    # LowOccupancyWarning and the search log notes "low_occupancy".
    band_floor = 2.0
    rows = []
    b = TABLE1_MODEL
    # with size factor 1, a law's tour units are the tour-length moment and the wait
    # kernel, which added give the rider-weighted moment: (Q+1)*f(Q+1) = f(Q+1) + Q*f(Q+1)
    unit = WeibullTourLaw((KStarModel(0.0, 1.0, b.beta3, b.beta4, b.beta5),))
    for mean in (0.5, 1.0, 2.0, 10.0 / 3.0, 5.0, 8.0, 12.0):
        tour, kernel = unit.tour_units(mean, 1.0)
        for offset in (TOUR_LENGTH_OFFSET, RIDER_WEIGHTED_OFFSET):

            def f(draws: np.ndarray) -> np.ndarray:
                x = draws + 1.0
                return x ** (b.beta3 + offset) * np.exp(b.beta4 * x**b.beta5)

            mc = mc_expectation_oracle(mean, f, n_draws=10**6, seed=int(mean * 100) + int(offset))
            taylor = tour if offset == TOUR_LENGTH_OFFSET else tour + kernel
            rows.append((mean, offset, abs(taylor / mc - 1.0) * 100.0))
    in_band = [r for r in rows if r[0] >= band_floor]
    worst = max(in_band, key=lambda r: r[2])
    outside = [r for r in rows if r[2] >= 2.0]
    unflagged = [r for r in outside if r[0] >= LOW_OCCUPANCY_MEAN]
    offenders = [
        f"mean={m:g}, offset={o:g}: {e:.1f}%" + ("" if m < LOW_OCCUPANCY_MEAN else " (unflagged)")
        for m, o, e in outside
    ]
    ok = worst[2] < 2.0 and not unflagged and LOW_OCCUPANCY_MEAN <= band_floor
    report(
        capsys,
        "criterion 7b",
        ok,
        f"worst expansion error at means >= {band_floor:g}: {worst[2]:.2f}% at mean={worst[0]:g}, "
        f"offset={worst[1]:g}; low-occupancy flag below mean {LOW_OCCUPANCY_MEAN:g}"
        + (f"; cells beyond 2%: {offenders}" if offenders else ""),
    )
    assert worst[2] < 2.0, (
        f"second-order expansion misses the 2% band at mean {worst[0]:g}, "
        f"offset {worst[1]:g}: {worst[2]:.2f}%"
    )
    assert not unflagged, (
        f"cells beyond 2% at or above LOW_OCCUPANCY_MEAN={LOW_OCCUPANCY_MEAN:g} go unflagged: "
        + "; ".join(offenders)
    )
    assert LOW_OCCUPANCY_MEAN <= band_floor, (
        f"LOW_OCCUPANCY_MEAN={LOW_OCCUPANCY_MEAN:g} flags designs inside the promised band"
    )


def _joint_headway_optimum(params, design) -> float:
    """Best GC from jointly optimizing all outbound headways at once.

    Multistart Nelder-Mead over the full H_p vector, with no per-zone
    decomposition; infeasible points are repelled by a penalty.
    """
    zones = design.zones
    caps = [
        min(
            params.H_max,
            headway_cap_from_capacity(
                params.lambda_p, design.grid.l, design.grid.w, design.K
            ),
        )
        for _ in zones
    ]

    def objective(h: np.ndarray) -> float:
        if np.any(h < params.H_min) or np.any(h > caps):
            return 1e6
        zds = tuple(dataclasses.replace(zd, H_p=float(v)) for zd, v in zip(zones, h))
        try:
            cost = total_generalized_cost(
                params, dataclasses.replace(design, zones=zds), TABLE1_MODEL
            )
        except InfeasibleDesignError:
            return 1e6
        return cost.gc_per_patron_min

    rng = np.random.default_rng(17)
    lo = params.H_min
    starts = [np.full(len(zones), lo + frac * (min(caps) - lo)) for frac in (0.25, 0.5, 0.75)]
    starts += [lo + rng.random(len(zones)) * (np.array(caps) - lo) for _ in range(5)]
    best = np.inf
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 4000},
        )
        best = min(best, float(res.fun))
    return best


def test_criterion_7c_zone_separability(comparison, capsys) -> None:
    params = table2_params()
    gaps = {}
    for label, result in (("ff", comparison.ff), ("sf", comparison.sf)):
        joint = _joint_headway_optimum(params, result.best)
        decomposed = result.cost.gc_per_patron_min
        gaps[label] = abs(joint / decomposed - 1.0) * 100.0
    ok = all(gap <= 0.1 for gap in gaps.values())
    report(
        capsys,
        "criterion 7c",
        ok,
        "joint vs per-zone optimization gap: "
        + ", ".join(f"{k} {v:.4f}%" for k, v in gaps.items())
        + " (<= 0.1%)",
    )
    assert all(gap <= 0.1 for gap in gaps.values()), gaps


def test_criterion_7d_cost_bookkeeping(comparison, capsys) -> None:
    params = table2_params()
    worst = 0.0
    for result in (comparison.ff, comparison.sf):
        bd = total_generalized_cost(params, result.best, TABLE1_MODEL)
        books = bd.C_W + bd.C_Tp + bd.C_Td + bd.C_Lp + bd.C_Ld + bd.C_Rp + bd.C_Rd + bd.C_vk + bd.C_vh
        worst = max(worst, abs(books / bd.GC - 1.0))
        worst = max(worst, abs((bd.user + bd.agency) / bd.GC - 1.0))
    ok = worst <= 1e-9
    report(capsys, "criterion 7d", ok, f"nine-book sum vs GC, worst relative gap {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_7e_swath_feasibility_by_reconstruction(capsys) -> None:
    params = table2_params()
    checked = 0
    for M, N in ((1, 1), (1, 2), (1, 4), (2, 2), (2, 3), (3, 2)):
        grid = make_grid(params, M, N)
        for cfg in feasible_swath_widths(grid.l, grid.w):
            cross = grid.l if cfg.along == "w" else grid.w
            strip_len = grid.w if cfg.along == "w" else grid.l
            assert abs(cfg.n_strips * cfg.w0 - cross) <= 1e-9
            assert cfg.w0 <= min(grid.l, grid.w) * (1 + 1e-12)
            assert cfg.n_strips >= 1
            assert abs(cfg.n_strips * cfg.w0 * strip_len - grid.l * grid.w) <= 1e-9
            checked += 1
    report(
        capsys,
        "criterion 7e",
        True,
        f"{checked} feasible swath widths re-tile their zones exactly",
    )
    assert checked > 10


def test_criterion_8_no_fixed_route_mode(capsys) -> None:
    from drcflex.cli import build_parser

    assert STRATEGIES == (FULLY_FLEXIBLE, SEMI_FLEXIBLE)
    assert not any("fixed" in s for s in STRATEGIES)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["optimize", "--strategy", "fixed"])
    report(
        capsys,
        "criterion 8",
        True,
        "package offers exactly the two flexible strategies; fixed-route input is rejected",
    )
