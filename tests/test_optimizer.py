"""Tests for the zone headway optimizer and the discrete design search."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from drcflex import (
    FULLY_FLEXIBLE,
    SEMI_FLEXIBLE,
    DesignSolution,
    InfeasibleDesignError,
    ScenarioParams,
    SearchSpace,
    TABLE1_MODEL,
    ZoneIndex,
    make_grid,
    search_design,
    total_generalized_cost,
)
from drcflex.costs import LowOccupancyWarning, ZoneDesign, zone_books
from drcflex.params import line_haul_distance
from drcflex.optimizer import (
    METRIC_LABELS,
    headway_cap_from_capacity,
    optimize_zone_gamma,
    optimize_zone_headway,
)


class TestHeadwayCap:
    def test_hand_value(self) -> None:
        # x + 2*sqrt(x) <= 8 gives x_max = (sqrt(9) - 1)^2 = 4, so H = 4/40
        assert headway_cap_from_capacity(40.0, 1.0, 1.0, 8) == pytest.approx(0.1)

    def test_scales_inversely_with_demand(self) -> None:
        assert headway_cap_from_capacity(80.0, 1.0, 1.0, 8) == pytest.approx(0.05)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            headway_cap_from_capacity(0.0, 1.0, 1.0, 8)
        with pytest.raises(ValueError):
            headway_cap_from_capacity(40.0, 1.0, 1.0, 0)


class TestZoneHeadway:
    def test_beats_dense_grid(self, table2: ScenarioParams) -> None:
        # (strategy, grid M x N, K, w0, zone): the zone farthest from the
        # terminal in each base optimum's grid
        cases = [(FULLY_FLEXIBLE, 2, 2, 8, None, (2, 2)), (SEMI_FLEXIBLE, 1, 4, 9, 0.5, (1, 4))]
        for strategy, M, N, K, w0, zone in cases:
            grid = make_grid(table2, M, N)
            z = ZoneIndex(*zone)
            H, cost = optimize_zone_headway(table2, grid, z, K, strategy, TABLE1_MODEL, w0_opt=w0)
            lo = table2.H_min
            hi = min(table2.H_max, headway_cap_from_capacity(table2.lambda_p, grid.l, grid.w, K))
            assert lo - 1e-12 <= H <= hi + 1e-12
            D = line_haul_distance(grid, z)
            dense = zone_books(
                table2, grid, D, np.linspace(lo, hi, 2000), "outbound", strategy, TABLE1_MODEL, w0, K
            ).total
            assert cost <= dense.min() + 1e-9

    def test_capacity_makes_zone_infeasible(self, table2: ScenarioParams) -> None:
        grid = make_grid(table2, 2, 2)
        with pytest.raises(InfeasibleDesignError, match="capacity"):
            optimize_zone_headway(table2, grid, ZoneIndex(1, 1), 1, FULLY_FLEXIBLE, TABLE1_MODEL)

    def test_degenerate_interval_returns_bound(self, table2: ScenarioParams) -> None:
        pinned = table2.replace(H_min=5 / 60, H_max=5 / 60, H_t=5 / 60)
        grid = make_grid(pinned, 2, 2)
        H, _ = optimize_zone_headway(pinned, grid, ZoneIndex(1, 1), 8, FULLY_FLEXIBLE, TABLE1_MODEL)
        assert H == pytest.approx(5 / 60)

    def test_capacity_relaxation_extends_interval(self, table2: ScenarioParams) -> None:
        grid = make_grid(table2, 2, 2)
        z = ZoneIndex(1, 1)
        capped_H, capped = optimize_zone_headway(
            table2, grid, z, 6, FULLY_FLEXIBLE, TABLE1_MODEL, enforce_capacity=True
        )
        free_H, free = optimize_zone_headway(
            table2, grid, z, 6, FULLY_FLEXIBLE, TABLE1_MODEL, enforce_capacity=False
        )
        cap = headway_cap_from_capacity(table2.lambda_p, grid.l, grid.w, 6)
        assert capped_H <= cap + 1e-12
        assert free <= capped + 1e-12


class TestZoneGamma:
    def test_base_case_syncs_every_trunk_departure(self, table2: ScenarioParams) -> None:
        grid = make_grid(table2, 2, 2)
        gamma, H_d, _ = optimize_zone_gamma(table2, grid, ZoneIndex(1, 1), 8, FULLY_FLEXIBLE, TABLE1_MODEL)
        assert gamma == 1
        assert H_d == pytest.approx(table2.H_t)

    def test_restricted_range(self, table2: ScenarioParams) -> None:
        # lighter inbound demand keeps a 10-minute headway within capacity
        params = table2.replace(lambda_d=10.0)
        grid = make_grid(params, 2, 2)
        gamma, H_d, _ = optimize_zone_gamma(
            params, grid, ZoneIndex(1, 1), 8, FULLY_FLEXIBLE, TABLE1_MODEL, gamma_range=(2,)
        )
        assert gamma == 2
        assert H_d == pytest.approx(2 * params.H_t)

    def test_skips_capacity_violating_multiples(self, table2: ScenarioParams) -> None:
        # at the base-case demand a 10-minute inbound headway overloads K = 8,
        # so gamma = 2 is silently skipped in favor of gamma = 1
        grid = make_grid(table2, 2, 2)
        gamma, _, _ = optimize_zone_gamma(
            table2, grid, ZoneIndex(1, 1), 8, FULLY_FLEXIBLE, TABLE1_MODEL, gamma_range=(1, 2)
        )
        assert gamma == 1

    def test_tiny_bus_has_no_sync_multiple(self, table2: ScenarioParams) -> None:
        grid = make_grid(table2, 2, 2)
        with pytest.raises(InfeasibleDesignError, match="inbound_sync"):
            optimize_zone_gamma(table2, grid, ZoneIndex(1, 1), 1, FULLY_FLEXIBLE, TABLE1_MODEL)


class TestSearchDesign:
    def test_matches_brute_force_on_tiny_scenario(self, table2: ScenarioParams) -> None:
        params = table2.replace(L=1.0, W=1.0, lambda_p=2.0, lambda_d=2.0)
        k_options = (6, 8, 12)
        space = SearchSpace(K_range=k_options, M_range=(1,), N_range=(1,))
        result = search_design(params, space, TABLE1_MODEL)

        grid = make_grid(params, 1, 1)
        best = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowOccupancyWarning)
            for K in k_options:
                hi = min(params.H_max, headway_cap_from_capacity(2.0, 1.0, 1.0, K))
                for H_p in np.linspace(params.H_min, hi, 400):
                    for gamma in (1, 2, 3):
                        H_d = gamma * params.H_t
                        mu_d = params.lambda_d * H_d
                        if mu_d + 2 * np.sqrt(mu_d) > K:
                            continue
                        design = DesignSolution(
                            strategy=FULLY_FLEXIBLE,
                            grid=grid,
                            K=K,
                            zones=(
                                ZoneDesign(z=ZoneIndex(1, 1), H_p=float(H_p), H_d=H_d, gamma=gamma),
                            ),
                        )
                        best = min(best, total_generalized_cost(params, design, TABLE1_MODEL).GC)
        assert result.cost.GC <= best * 1.001
        assert result.cost.GC == pytest.approx(best, rel=1e-3)

    def test_log_covers_every_combination(self, table2: ScenarioParams) -> None:
        space = SearchSpace(K_range=(1, 8), M_range=(2,), N_range=(2,))
        result = search_design(table2, space, TABLE1_MODEL)
        assert len(result.search_log) == 2
        by_k = {e.K: e for e in result.search_log}
        # a 1-seater cannot absorb mu + 2*sqrt(mu) at any allowed headway
        assert not by_k[1].feasible
        assert by_k[1].note == "infeasible: capacity"
        assert by_k[8].feasible
        assert result.best.K == 8
        assert result.wall_time_s > 0

    def test_unworkable_scenario_raises(self, table2: ScenarioParams) -> None:
        dense = table2.replace(lambda_p=4000.0, lambda_d=4000.0)
        space = SearchSpace(K_range=(8,), M_range=(1,), N_range=(1,))
        with pytest.raises(InfeasibleDesignError, match="search"):
            search_design(dense, space, TABLE1_MODEL)

    def test_sparse_zone_flagged_not_dropped(self, table2: ScenarioParams) -> None:
        sparse = table2.replace(lambda_p=0.1, lambda_d=0.1)
        space = SearchSpace(K_range=(8,), M_range=(1,), N_range=(1,))
        result = search_design(sparse, space, TABLE1_MODEL)
        assert result.search_log[0].feasible
        assert result.search_log[0].note == "low_occupancy"

    def test_widening_the_space_never_hurts(self, table2: ScenarioParams) -> None:
        narrow = SearchSpace(K_range=(8,), M_range=(2,), N_range=(2,))
        wide = SearchSpace(K_range=tuple(range(4, 13)), M_range=(2,), N_range=(2,))
        gc_narrow = search_design(table2, narrow, TABLE1_MODEL).cost.GC
        gc_wide = search_design(table2, wide, TABLE1_MODEL).cost.GC
        assert gc_wide <= gc_narrow * (1 + 1e-9)

    def test_capacity_relaxation_never_hurts(self, table2: ScenarioParams) -> None:
        # K = 7 caps the outbound headway below its unconstrained optimum;
        # dropping the rule must therefore do at least as well.
        capped = SearchSpace(K_range=(7,), M_range=(2,), N_range=(2,))
        relaxed = SearchSpace(K_range=(7,), M_range=(2,), N_range=(2,), enforce_capacity=False)
        gc_capped = search_design(table2, capped, TABLE1_MODEL).cost.GC
        gc_relaxed = search_design(table2, relaxed, TABLE1_MODEL).cost.GC
        assert gc_relaxed <= gc_capped + 1e-12

    def test_capacity_relaxation_rescues_small_buses(self, table2: ScenarioParams) -> None:
        # with sync locked to 5-minute multiples, K = 6 cannot host the
        # inbound batch; the relaxed search still prices the design
        capped = SearchSpace(K_range=(6,), M_range=(2,), N_range=(2,))
        with pytest.raises(InfeasibleDesignError, match="search"):
            search_design(table2, capped, TABLE1_MODEL)
        relaxed = SearchSpace(K_range=(6,), M_range=(2,), N_range=(2,), enforce_capacity=False)
        assert search_design(table2, relaxed, TABLE1_MODEL).cost.GC > 0

    def test_semi_flexible_enumerates_swath_widths(self, table2: ScenarioParams) -> None:
        space = SearchSpace(
            K_range=(9,), M_range=(1,), N_range=(4,), strategy=SEMI_FLEXIBLE
        )
        result = search_design(table2, space, TABLE1_MODEL)
        # zones are 0.5 x 2.0: widths 0.5, 0.25, 1/6, 0.125 are all tried
        assert len(result.search_log) == 4
        assert sorted({e.w0 for e in result.search_log}, reverse=True) == pytest.approx(
            [0.5, 0.25, 1 / 6, 0.125]
        )
        assert result.best.w0 == pytest.approx(0.5)

    def test_log_csv_layout(self, table2: ScenarioParams, tmp_path) -> None:
        space = SearchSpace(K_range=(1, 8), M_range=(2,), N_range=(2,))
        result = search_design(table2, space, TABLE1_MODEL)
        path = tmp_path / "log.csv"
        result.log_to_csv(path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "strategy,M,N,K,w0,GC,note"
        assert len(lines) == 3
        assert "infeasible: capacity" in lines[1]


class TestSearchSpaceValidation:
    def test_rejects_empty_or_nonpositive_ranges(self) -> None:
        with pytest.raises(ValueError, match="K_range"):
            SearchSpace(K_range=())
        with pytest.raises(ValueError, match="M_range"):
            SearchSpace(M_range=(0, 1))
        with pytest.raises(ValueError, match="n_starts"):
            SearchSpace(n_starts=0)
        with pytest.raises(ValueError, match="strategy"):
            SearchSpace(strategy="walking")


def test_metric_labels_are_stable() -> None:
    assert len(METRIC_LABELS) == 18
    assert METRIC_LABELS[0] == "generalized_cost_min_per_patron"
