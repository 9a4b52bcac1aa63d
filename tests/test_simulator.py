"""Tests for the event simulator and the analytic-vs-simulated validation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from drcflex import (
    FULLY_FLEXIBLE,
    SEMI_FLEXIBLE,
    DemandRealization,
    DesignSolution,
    InfeasibleDesignError,
    ScenarioParams,
    ZoneIndex,
    generate_demand,
    make_grid,
    run_validation,
    simulate_ff_hour,
    simulate_sf_hour,
)
from drcflex.costs import ZoneDesign
from drcflex.simulator import (
    TABLE_ROW_LABELS,
    ValidationConvergenceError,
)
from drcflex.tsp import PointSet, exact_tour_length

FIVE_MIN = 5 / 60


def uniform_design(
    params: ScenarioParams, M: int, N: int, K: int, strategy: str = FULLY_FLEXIBLE,
    w0: float | None = None,
) -> DesignSolution:
    grid = make_grid(params, M, N)
    zones = tuple(
        ZoneDesign(z=z, H_p=FIVE_MIN, H_d=FIVE_MIN, gamma=1) for z in grid.zones()
    )
    return DesignSolution(strategy=strategy, grid=grid, K=K, zones=zones, w0=w0)


@pytest.fixture()
def ff_design(table2: ScenarioParams) -> DesignSolution:
    return uniform_design(table2, 2, 2, 8)


@pytest.fixture()
def sf_design(table2: ScenarioParams) -> DesignSolution:
    return uniform_design(table2, 2, 2, 8, strategy=SEMI_FLEXIBLE, w0=0.5)


@pytest.fixture()
def sf_line_design(table2: ScenarioParams) -> DesignSolution:
    # single-strip zones, where the swath tour model is essentially exact
    return uniform_design(table2, 1, 4, 8, strategy=SEMI_FLEXIBLE, w0=0.5)


@pytest.fixture()
def strip_params(table2: ScenarioParams) -> ScenarioParams:
    # a 2 km x 0.5 km region served as one single-strip swath zone
    return table2.replace(L=2.0, W=0.5)


@pytest.fixture()
def strip_design(strip_params: ScenarioParams) -> DesignSolution:
    return uniform_design(strip_params, 1, 1, 8, strategy=SEMI_FLEXIBLE, w0=0.5)


def empty_demand() -> DemandRealization:
    return DemandRealization(outbound=np.empty((0, 3)), inbound=np.empty((0, 3)))


class TestGenerateDemand:
    def test_shapes_and_ranges(self, table2: ScenarioParams) -> None:
        demand = generate_demand(table2, rng_seed=1)
        for arr in (demand.outbound, demand.inbound):
            assert arr.shape[1] == 3
            assert np.all((arr[:, 0] >= 0) & (arr[:, 0] <= table2.L))
            assert np.all((arr[:, 1] >= 0) & (arr[:, 1] <= table2.W))
            assert np.all((arr[:, 2] >= 0) & (arr[:, 2] <= 1.0))
        assert demand.horizon == 1.0

    def test_deterministic_given_seed(self, table2: ScenarioParams) -> None:
        a = generate_demand(table2, rng_seed=7)
        b = generate_demand(table2, rng_seed=7)
        np.testing.assert_array_equal(a.outbound, b.outbound)
        np.testing.assert_array_equal(a.inbound, b.inbound)
        c = generate_demand(table2, rng_seed=8)
        assert len(c.outbound) != len(a.outbound) or not np.array_equal(c.outbound, a.outbound)

    def test_poisson_rate(self, table2: ScenarioParams) -> None:
        counts = [len(generate_demand(table2, rng_seed=s).outbound) for s in range(100)]
        # mean of 100 Poisson(160) draws: 4 standard errors is about 5.1
        assert np.mean(counts) == pytest.approx(160.0, abs=5.1)

    def test_horizon_scales_counts(self, table2: ScenarioParams) -> None:
        counts = [len(generate_demand(table2, rng_seed=s, horizon=2.0).outbound) for s in range(50)]
        assert np.mean(counts) == pytest.approx(320.0, abs=10.2)
        demand = generate_demand(table2, rng_seed=0, horizon=2.0)
        assert demand.horizon == 2.0
        assert np.all(demand.outbound[:, 2] <= 2.0)

    def test_shape_validation(self) -> None:
        with pytest.raises(ValueError, match="shape"):
            DemandRealization(outbound=np.zeros((3, 2)), inbound=np.zeros((0, 3)))


class TestSimulateConservation:
    def test_ff_serves_everyone_once(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        demand = generate_demand(table2, rng_seed=42)
        run = simulate_ff_hour(table2, ff_design, demand)
        assert run.served == len(demand.outbound) + len(demand.inbound)
        # 4 zones x 2 directions x 12 five-minute windows
        assert run.dispatches == 96
        assert len(run.tours_out) == 48
        assert len(run.tours_in) == 48

    def test_sf_serves_everyone_once(self, table2: ScenarioParams, sf_design: DesignSolution) -> None:
        demand = generate_demand(table2, rng_seed=42)
        run = simulate_sf_hour(table2, sf_design, demand)
        assert run.served == len(demand.outbound) + len(demand.inbound)
        assert run.dispatches == 96

    def test_deterministic_given_seed(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        demand = generate_demand(table2, rng_seed=9)
        assert simulate_ff_hour(table2, ff_design, demand) == simulate_ff_hour(
            table2, ff_design, demand
        )

    def test_staging_seed_changes_tours_not_counts(
        self, table2: ScenarioParams, ff_design: DesignSolution
    ) -> None:
        demand = generate_demand(table2, rng_seed=9)
        a = simulate_ff_hour(table2, ff_design, demand, rng_seed=0)
        b = simulate_ff_hour(table2, ff_design, demand, rng_seed=1)
        assert a.served == b.served
        assert a.tours_out != b.tours_out

    def test_strategy_guards(
        self, table2: ScenarioParams, ff_design: DesignSolution, sf_design: DesignSolution
    ) -> None:
        demand = empty_demand()
        with pytest.raises(ValueError, match="not fully flexible"):
            simulate_ff_hour(table2, sf_design, demand)
        with pytest.raises(ValueError, match="not semi flexible"):
            simulate_sf_hour(table2, ff_design, demand)

    def test_infeasible_design_rejected(self, table2: ScenarioParams) -> None:
        tiny_bus = uniform_design(table2, 2, 2, 2)
        with pytest.raises(InfeasibleDesignError, match="capacity"):
            simulate_ff_hour(table2, tiny_bus, empty_demand())


class TestEmptyDemand:
    def test_ff_runs_empty_tours(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        run = simulate_ff_hour(table2, ff_design, empty_demand())
        assert run.served == 0
        assert all(t == 0.0 for t in run.tours_out)
        assert run.pickup_loss_h == 0.0
        assert run.dropoff_loss_h == 0.0
        # line-haul legs to the three non-terminal zones still cost money
        assert run.gc_hours > 0

    def test_sf_still_sweeps_the_zone(
        self, strip_params: ScenarioParams, strip_design: DesignSolution
    ) -> None:
        # single 2 km strip plus the w0/2 end leg: every tour is 2.25 km
        run = simulate_sf_hour(strip_params, strip_design, empty_demand())
        assert run.served == 0
        assert all(t == pytest.approx(2.25) for t in run.tours_out)
        assert all(t == pytest.approx(2.25) for t in run.tours_in)


class TestFullyFlexibleTours:
    def test_realized_tour_dominates_exact_tour_over_stops(self, table2: ScenarioParams) -> None:
        # The dispatch must visit every stop plus its own staging point, so it
        # can never beat the optimal cycle over the stops alone.
        params = table2.replace(L=1.0, W=1.0)
        design = uniform_design(params, 1, 1, 8)
        demand = generate_demand(params, rng_seed=5)
        run = simulate_ff_hour(params, design, demand)
        for xyt, tours in ((demand.outbound, run.tours_out), (demand.inbound, run.tours_in)):
            window = np.minimum((xyt[:, 2] * 12).astype(int), 11)
            for j in range(12):
                stops = xyt[window == j][:, :2]
                if len(stops) >= 2:
                    bound = exact_tour_length(PointSet(stops), "closed_cycle")
                    assert tours[j] >= bound - 1e-9
                elif len(stops) == 0:
                    assert tours[j] == 0.0
                else:
                    assert tours[j] > 0.0

    def test_occupancy_matches_demand_rate(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        served = 0
        dispatches = 0
        for seed in range(20):
            run = simulate_ff_hour(table2, ff_design, generate_demand(table2, rng_seed=seed))
            served += run.served
            dispatches += run.dispatches
        # mu = lambda * H * l * w = 40/12; 1920 dispatches pin it within ~4%
        assert served / dispatches == pytest.approx(10 / 3, abs=0.15)

    def test_overcapacity_counted_not_dropped(
        self, table2: ScenarioParams, ff_design: DesignSolution
    ) -> None:
        total_events = 0
        for seed in range(20):
            demand = generate_demand(table2, rng_seed=seed)
            run = simulate_ff_hour(table2, ff_design, demand)
            assert run.served == len(demand.outbound) + len(demand.inbound)
            total_events += run.overcapacity_events
        # Poisson(10/3) exceeds 8 in roughly 0.6% of the 1920 dispatches
        assert total_events >= 1

    def test_oversized_batch_falls_back_to_heuristic(self, table2: ScenarioParams) -> None:
        # a single hourly window over a dense zone: more than 19 stops breaks
        # the exact solver's budget, so the tour comes from the 2-opt pass
        params = table2.replace(L=1.0, W=1.0, lambda_p=30.0, lambda_d=6.0, H_max=1.0)
        grid = make_grid(params, 1, 1)
        design = DesignSolution(
            strategy=FULLY_FLEXIBLE,
            grid=grid,
            K=41,
            zones=(ZoneDesign(z=ZoneIndex(1, 1), H_p=1.0, H_d=FIVE_MIN, gamma=1),),
        )
        demand = generate_demand(params, rng_seed=2)
        assert len(demand.outbound) > 19  # precondition for this seed
        run = simulate_ff_hour(params, design, demand)
        assert run.heuristic_dispatches >= 1
        assert run.served == len(demand.outbound) + len(demand.inbound)
        assert run.tours_out[0] > 0


class TestSemiFlexibleTours:
    def test_lateral_detours_average_a_third_of_the_width(
        self, strip_params: ScenarioParams, strip_design: DesignSolution
    ) -> None:
        extras = []
        for seed in range(120):
            run = simulate_sf_hour(
                strip_params, strip_design, generate_demand(strip_params, rng_seed=seed), rng_seed=seed
            )
            extras.extend(t - 2.25 for t in run.tours_out)
        # each of the mu = 10/3 stops adds an expected w0/3 of lateral travel
        assert np.mean(extras) == pytest.approx(10 / 3 * 0.5 / 3, rel=0.05)

    def test_tours_never_shorter_than_the_sweep(
        self, strip_params: ScenarioParams, strip_design: DesignSolution
    ) -> None:
        run = simulate_sf_hour(
            strip_params, strip_design, generate_demand(strip_params, rng_seed=3)
        )
        assert all(t >= 2.25 - 1e-12 for t in run.tours_out + run.tours_in)


class TestRunValidation:
    def test_ff_report_contents(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        from drcflex import TABLE1_MODEL

        report = run_validation(table2, ff_design, TABLE1_MODEL, min_runs=50, seed=11)
        assert report.n_runs >= 50
        assert report.sim_gc_se < 0.05
        assert report.gc_error_pct < 3.0
        assert report.outbound_tour_error_pct < 5.0
        assert report.mean_occupancy_out == pytest.approx(10 / 3, abs=0.2)
        assert [label for label, _ in report.rows()] == list(TABLE_ROW_LABELS)

    def test_sf_report_contents(self, table2: ScenarioParams, sf_line_design: DesignSolution) -> None:
        from drcflex import TABLE1_MODEL

        report = run_validation(table2, sf_line_design, TABLE1_MODEL, min_runs=50, seed=11)
        assert report.gc_error_pct < 3.0
        assert report.outbound_tour_error_pct < 3.0

    # Reports at min_runs=50, seed=11, recorded from the simulator that served
    # one run and one window at a time, before runs were served in chunks and
    # tours solved in batches by stop count.
    PINNED = {
        "ff": {
            "n_runs": 408,
            "analytic_gc_min_per_patron": 18.3976398939045,
            "sim_gc_min_per_patron": 18.4225047911571,
            "sim_gc_std": 1.0081708642604148,
            "sim_gc_se": 0.049911895207406,
            "gc_error_pct": 0.13497023089137,
            "outbound_tour_error_pct": 1.4809127198215217,
            "inbound_tour_error_pct": 1.7665840625260043,
            "pickup_loss_error_pct": 1.3107170393215677,
            "dropoff_loss_error_pct": 0.4021338292864275,
            "overcapacity_pct": 0.8042279411764706,
            "analytic_outbound_tour_km": 2.3554432440365765,
            "sim_outbound_tour_km": 2.3210702199138824,
            "analytic_inbound_tour_km": 2.3554432440365765,
            "sim_inbound_tour_km": 2.314554689768675,
            "mean_occupancy_out": 3.3565665849673203,
            "mean_occupancy_in": 3.3264399509803924,
            "heuristic_dispatches": 0,
        },
        "sf_line": {
            "n_runs": 269,
            "analytic_gc_min_per_patron": 17.94036155555556,
            "sim_gc_min_per_patron": 17.93604080723138,
            "sim_gc_std": 0.8199097315691105,
            "sim_gc_se": 0.049990778626306936,
            "gc_error_pct": 0.024089755206385174,
            "outbound_tour_error_pct": 0.055729750729408986,
            "inbound_tour_error_pct": 0.03212897433158582,
            "pickup_loss_error_pct": 0.5920244792141905,
            "dropoff_loss_error_pct": 0.3996332986212065,
            "overcapacity_pct": 0.6466852540272614,
            "analytic_outbound_tour_km": 2.8055555555555554,
            "sim_outbound_tour_km": 2.803992897303418,
            "analytic_inbound_tour_km": 2.8055555555555554,
            "sim_inbound_tour_km": 2.806457241482298,
            "mean_occupancy_out": 3.3286090458488227,
            "mean_occupancy_in": 3.334495043370508,
            "heuristic_dispatches": 0,
        },
    }

    @pytest.mark.parametrize("design_name", sorted(PINNED))
    @pytest.mark.parametrize("chunk_runs", [None, 1], ids=["default_chunks", "one_run_chunks"])
    def test_report_pinned_field_for_field(
        self, table2: ScenarioParams, request, design_name: str, chunk_runs, monkeypatch
    ) -> None:
        from drcflex import TABLE1_MODEL
        from drcflex import simulator

        if chunk_runs is not None:
            monkeypatch.setattr(simulator, "_CHUNK_RUNS", chunk_runs)
        design = request.getfixturevalue(f"{design_name}_design")
        report = run_validation(table2, design, TABLE1_MODEL, min_runs=50, seed=11)
        assert dataclasses.asdict(report) == self.PINNED[design_name]

    def test_deterministic_given_seed(self, table2: ScenarioParams, sf_design: DesignSolution) -> None:
        from drcflex import TABLE1_MODEL

        a = run_validation(table2, sf_design, TABLE1_MODEL, min_runs=50, seed=4)
        b = run_validation(table2, sf_design, TABLE1_MODEL, min_runs=50, seed=4)
        assert a == b

    def test_multi_strip_zones_expose_the_swath_approximation(
        self, table2: ScenarioParams, sf_design: DesignSolution
    ) -> None:
        # Two strips per zone add a transition leg the area/w0 sweep formula
        # ignores, so the simulator should report a clearly positive tour gap.
        from drcflex import TABLE1_MODEL

        report = run_validation(table2, sf_design, TABLE1_MODEL, min_runs=50, seed=11)
        assert report.outbound_tour_error_pct > 10.0

    def test_budget_exhaustion_raises(
        self, table2: ScenarioParams, sf_design: DesignSolution, monkeypatch
    ) -> None:
        from drcflex import TABLE1_MODEL
        from drcflex import simulator

        monkeypatch.setattr(simulator, "VALIDATION_SE_TARGET", 0.0)
        monkeypatch.setattr(simulator, "MAX_VALIDATION_RUNS", 60)
        with pytest.raises(ValidationConvergenceError, match="standard error .* after 60 runs"):
            run_validation(table2, sf_design, TABLE1_MODEL, min_runs=50, seed=4)
