"""Tests for the event simulator and the analytic-vs-simulated validation."""

from __future__ import annotations

import dataclasses
import hashlib
import warnings

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
from drcflex.costs import LowOccupancyWarning, ZoneDesign
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
def sf_2x1_design(table2: ScenarioParams) -> DesignSolution:
    # 2 km x 1 km zones swept in two strips along l
    return uniform_design(table2, 2, 1, 12, strategy=SEMI_FLEXIBLE, w0=0.5)


@pytest.fixture()
def sf_dense_design(table2: ScenarioParams) -> DesignSolution:
    # sf_2x1_design at ten-minute headways: about 13 stops per window, so most
    # windows' sums over their riders are 9 terms or longer
    grid = make_grid(table2, 2, 1)
    zones = tuple(ZoneDesign(z=z, H_p=2 * FIVE_MIN, H_d=2 * FIVE_MIN, gamma=2) for z in grid.zones())
    return DesignSolution(strategy=SEMI_FLEXIBLE, grid=grid, K=22, zones=zones, w0=0.5)


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

    def test_rejects_a_negative_seed(self, table2: ScenarioParams) -> None:
        with pytest.raises(ValueError, match="rng_seed must be non-negative"):
            generate_demand(table2, rng_seed=-1)

    def test_shape_validation(self) -> None:
        with pytest.raises(ValueError, match="shape"):
            DemandRealization(outbound=np.zeros((3, 2)), inbound=np.zeros((0, 3)))

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
    def test_horizon_must_be_finite_and_positive(self, table2: ScenarioParams, horizon: float) -> None:
        # a negative horizon would give the base optimum a negative GC and a zero one would
        # divide by zero; generate_demand checks before it draws
        with pytest.raises(ValueError, match="horizon"):
            DemandRealization(outbound=np.empty((0, 3)), inbound=np.empty((0, 3)), horizon=horizon)
        with pytest.raises(ValueError, match="horizon"):
            generate_demand(table2, rng_seed=0, horizon=horizon)

    @pytest.mark.parametrize("name", ["outbound", "inbound"])
    @pytest.mark.parametrize("t", [-1e-9, 1.0, 5.5, float("nan")])
    def test_request_times_must_lie_in_the_horizon(self, table2: ScenarioParams, name: str, t: float) -> None:
        # requests shifted 5 h past a 1 h horizon gave the base FF optimum a GC of -4.37 min/patron
        demand = generate_demand(table2, rng_seed=3)
        arrays = {"outbound": demand.outbound.copy(), "inbound": demand.inbound.copy()}
        arrays[name][0, 2] = t
        with pytest.raises(ValueError, match=f"{name} request times"):
            DemandRealization(**arrays, horizon=1.0)


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

    @pytest.mark.parametrize("name", ["outbound", "inbound"])
    @pytest.mark.parametrize("scale", [10.0, -1.0])
    def test_positions_outside_the_region_are_rejected(
        self, table2: ScenarioParams, ff_design: DesignSolution, name: str, scale: float
    ) -> None:
        # positions scaled 10x outside the region were served at 157.8 min/patron
        demand = generate_demand(table2, rng_seed=3)
        arrays = {"outbound": demand.outbound.copy(), "inbound": demand.inbound.copy()}
        arrays[name][:, :2] *= scale
        with pytest.raises(ValueError, match=f"{name} request positions"):
            simulate_ff_hour(table2, ff_design, DemandRealization(**arrays))

    def test_a_request_at_time_zero_on_the_far_corner_is_served(
        self, table2: ScenarioParams, ff_design: DesignSolution
    ) -> None:
        demand = generate_demand(table2, rng_seed=3)
        outbound = demand.outbound.copy()
        outbound[0] = (table2.L, table2.W, 0.0)
        run = simulate_ff_hour(table2, ff_design, DemandRealization(outbound, demand.inbound))
        assert run.served == len(outbound) + len(demand.inbound)


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
                    bound = exact_tour_length(PointSet(stops))
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

    # simulate_ff_hour on the oversized design below with demand seed 2,
    # recorded when each window's riders were first charged the mean of the
    # tour's two walks (the tours are those of the walk read back before).
    PINNED_OVERSIZED = {
        "gc_hours": 16.145780723422753,
        "gc_min_per_patron": 26.909634539037924,
        "horizon": 1.0,
        "tours_out": (5.788335897288795,),
        "tours_in": (
            0.5931606979456809, 0.0, 0.0, 0.0, 3.593612873912929, 0.0,
            1.5240504651639961, 0.0, 0.0, 0.0, 0.0, 0.0,
        ),
        "pickup_loss_h": 5.633333333333334,
        "dropoff_loss_h": 0.023333333333333334,
        "overcapacity_events": 0,
        "dispatches": 13,
        "served": 30,
        "heuristic_dispatches": 1,
    }

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
        assert dataclasses.asdict(run) == self.PINNED_OVERSIZED


class TestSemiFlexibleTours:
    # simulate_sf_hour on sf_dense_design with demand seed 5 and staging seed
    # 2, recorded from the sweep that walked each window's riders one at a
    # time, before windows were grouped by load; the second outbound tour
    # moved by 1 ulp when each window's legs were added in sweep order.
    PINNED_HOUR = {
        "gc_hours": 147.90662624912395,
        "gc_min_per_patron": 27.73249242171074,
        "horizon": 1.0,
        "tours_out": (
            9.40029682105069, 8.953823804242175, 8.616554509043457, 8.464868363763493,
            6.190208484652881, 6.84354776627768, 6.673988911360186, 6.406856004122967,
            5.818668558871302, 7.105508287904825, 6.796188283048053, 7.803507930359255,
        ),
        "tours_in": (
            7.1430697373769085, 8.490773028239708, 5.688950504590313, 6.966572533989605,
            8.364541524243748, 7.515279033566948, 6.656477728214906, 6.358696276519529,
            6.947802624531221, 6.633365830417607, 7.81397314475882, 8.343601992878371,
        ),
        "pickup_loss_h": 11.425,
        "dropoff_loss_h": 11.857222222222221,
        "overcapacity_events": 2,
        "dispatches": 24,
        "served": 355,
        "heuristic_dispatches": 0,
    }

    def test_hour_pinned_field_for_field(
        self, table2: ScenarioParams, sf_dense_design: DesignSolution
    ) -> None:
        run = simulate_sf_hour(table2, sf_dense_design, generate_demand(table2, rng_seed=5), rng_seed=2)
        assert dataclasses.asdict(run) == self.PINNED_HOUR

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

    # Reports at min_runs=50, seed=11, recorded from the stream that draws
    # runs in blocks of 64 (FF: each window charged the mean of its tour's two
    # walks); every chunking below gave these same reports.
    PINNED = {
        "ff": {
            "n_runs": 376,
            "analytic_gc_min_per_patron": 18.3976398939045,
            "sim_gc_min_per_patron": 18.376532544483528,
            "sim_gc_std": 0.9675418562994436,
            "sim_gc_se": 0.04989716136159592,
            "gc_error_pct": 0.11486034903417645,
            "outbound_tour_error_pct": 1.8209112253623423,
            "inbound_tour_error_pct": 1.5583121231120065,
            "pickup_loss_error_pct": 0.11380059422065646,
            "dropoff_loss_error_pct": 0.47783567797321325,
            "overcapacity_pct": 0.792331560283688,
            "analytic_outbound_tour_km": 2.3554432440365765,
            "sim_outbound_tour_km": 2.313319745119178,
            "analytic_inbound_tour_km": 2.3554432440365765,
            "sim_inbound_tour_km": 2.319301290849771,
            "mean_occupancy_out": 3.3310616134751774,
            "mean_occupancy_in": 3.3374889184397163,
            "heuristic_dispatches": 0,
        },
        "sf_line": {
            "n_runs": 269,
            "analytic_gc_min_per_patron": 17.94036155555556,
            "sim_gc_min_per_patron": 17.927252097959155,
            "sim_gc_std": 0.8199896309044015,
            "sim_gc_se": 0.0499956501747581,
            "gc_error_pct": 0.07312586181512927,
            "outbound_tour_error_pct": 0.15231201543595776,
            "inbound_tour_error_pct": 0.20680973265490876,
            "pickup_loss_error_pct": 0.393782088255618,
            "dropoff_loss_error_pct": 0.6919512304854463,
            "overcapacity_pct": 0.7396220570012392,
            "analytic_outbound_tour_km": 2.8055555555555554,
            "sim_outbound_tour_km": 2.8098352722892095,
            "analytic_inbound_tour_km": 2.8055555555555554,
            "sim_inbound_tour_km": 2.7997653682824457,
            "mean_occupancy_out": 3.3396840148698885,
            "mean_occupancy_in": 3.315133209417596,
            "heuristic_dispatches": 0,
        },
        "sf": {
            "n_runs": 320,
            "analytic_gc_min_per_patron": 18.94083455555556,
            "sim_gc_min_per_patron": 20.317897549292418,
            "sim_gc_std": 0.8942869673636648,
            "sim_gc_se": 0.04999216126043225,
            "gc_error_pct": 6.777586068617684,
            "outbound_tour_error_pct": 15.181369174047049,
            "inbound_tour_error_pct": 15.019698512781302,
            "pickup_loss_error_pct": 0.39655817433606066,
            "dropoff_loss_error_pct": 0.1375085378659172,
            "overcapacity_pct": 0.7649739583333333,
            "analytic_outbound_tour_km": 2.8055555555555554,
            "sim_outbound_tour_km": 3.3077114405590082,
            "analytic_inbound_tour_km": 2.8055555555555554,
            "sim_inbound_tour_km": 3.3014186893388695,
            "mean_occupancy_out": 3.336197916666667,
            "mean_occupancy_in": 3.324348958333333,
            "heuristic_dispatches": 0,
        },
        "sf_2x1": {
            "n_runs": 544,
            "analytic_gc_min_per_patron": 20.391895611111114,
            "sim_gc_min_per_patron": 21.477015384859513,
            "sim_gc_std": 1.16500280740369,
            "sim_gc_se": 0.04994908328919589,
            "gc_error_pct": 5.052470067667633,
            "outbound_tour_error_pct": 8.570147297571236,
            "inbound_tour_error_pct": 8.599030041429184,
            "pickup_loss_error_pct": 1.8177199123289227,
            "dropoff_loss_error_pct": 0.4968892851939708,
            "overcapacity_pct": 2.3207720588235294,
            "analytic_outbound_tour_km": 5.361111111111111,
            "sim_outbound_tour_km": 5.863633105217391,
            "analytic_inbound_tour_km": 5.361111111111111,
            "sim_inbound_tour_km": 5.865486015674816,
            "mean_occupancy_out": 6.669960171568627,
            "mean_occupancy_in": 6.682061887254902,
            "heuristic_dispatches": 0,
        },
        "sf_dense": {
            "n_runs": 1042,
            "analytic_gc_min_per_patron": 23.345670722222224,
            "sim_gc_min_per_patron": 24.212872981174005,
            "sim_gc_std": 1.6136731031689884,
            "sim_gc_se": 0.04998983470458547,
            "gc_error_pct": 3.581575220858957,
            "outbound_tour_error_pct": 7.259492745230404,
            "inbound_tour_error_pct": 7.234108293549844,
            "pickup_loss_error_pct": 0.4963274764774466,
            "dropoff_loss_error_pct": 0.3018774197163365,
            "overcapacity_pct": 0.9676903390914907,
            "analytic_outbound_tour_km": 6.472222222222221,
            "sim_outbound_tour_km": 6.978851435912713,
            "analytic_inbound_tour_km": 6.472222222222221,
            "sim_inbound_tour_km": 6.9769417435268375,
            "mean_occupancy_out": 13.364123480486244,
            "mean_occupancy_in": 13.348288547664747,
            "heuristic_dispatches": 0,
        },
    }

    @pytest.mark.parametrize("design_name", sorted(PINNED))
    def test_report_pinned_field_for_field(self, table2: ScenarioParams, request, design_name: str) -> None:
        from drcflex import TABLE1_MODEL

        design = request.getfixturevalue(f"{design_name}_design")
        report = run_validation(table2, design, TABLE1_MODEL, min_runs=50, seed=11)
        assert dataclasses.asdict(report) == self.PINNED[design_name]

    # SHA-256 over the (tour, q, wait, inveh) arrays of each strategy's window
    # accounting during run_validation(min_runs=50, seed=11), each array
    # over the windows of the report's n_runs runs in run order.  The report
    # pins above absorb last-bit changes in the per-window sums; these catch
    # them.
    PINNED_WINDOWS = {
        "ff": ("_ff_windows", "eef5c86840e0d4d8aa53fed8e070386376ca19e08b8e5c6c3d221e873c40426e"),
        "sf": ("_sf_windows", "0b8af1bf14840472f8f348e2a45492f224ea8aa7b56a53cd711b513baf04a3d9"),
    }

    @pytest.mark.parametrize("design_name", sorted(PINNED_WINDOWS))
    def test_window_books_pinned(
        self, table2: ScenarioParams, request, design_name: str, monkeypatch
    ) -> None:
        from drcflex import TABLE1_MODEL
        from drcflex import simulator

        name, want = self.PINNED_WINDOWS[design_name]
        windows = getattr(simulator, name)
        calls = []

        def recorded(params, design, spans, *args):
            books = windows(params, design, spans, *args)
            calls.append((spans.n_windows, books))
            return books

        monkeypatch.setattr(simulator, name, recorded)
        design = request.getfixturevalue(f"{design_name}_design")
        report = run_validation(table2, design, TABLE1_MODEL, min_runs=50, seed=11)
        spans_per_run = 2 * len(design.zones)
        n_windows = np.concatenate([n_w for n_w, _ in calls])
        kept = int(n_windows[: report.n_runs * spans_per_run].sum())
        digest = hashlib.sha256()
        for book in zip(*(books for _, books in calls)):
            digest.update(np.concatenate(book)[:kept].tobytes())
        assert digest.hexdigest() == want

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

    def test_only_low_occupancy_warnings_of_the_pricing_are_hidden(
        self, table2: ScenarioParams, sf_design: DesignSolution, monkeypatch
    ) -> None:
        from drcflex import TABLE1_MODEL
        from drcflex import simulator

        priced = simulator.total_generalized_cost

        def noisy(*args):
            warnings.warn("low", LowOccupancyWarning)
            warnings.warn("from the pricing", RuntimeWarning)
            return priced(*args)

        monkeypatch.setattr(simulator, "total_generalized_cost", noisy)
        with pytest.warns(RuntimeWarning, match="from the pricing") as caught:
            run_validation(table2, sf_design, TABLE1_MODEL, min_runs=50, seed=4)
        assert not [w for w in caught if issubclass(w.category, LowOccupancyWarning)]

    def test_budget_exhaustion_raises(
        self, table2: ScenarioParams, sf_design: DesignSolution, monkeypatch
    ) -> None:
        from drcflex import TABLE1_MODEL
        from drcflex import simulator

        monkeypatch.setattr(simulator, "VALIDATION_SE_TARGET", 0.0)
        monkeypatch.setattr(simulator, "MAX_VALIDATION_RUNS", 60)
        with pytest.raises(ValidationConvergenceError, match="standard error .* after 60 runs"):
            run_validation(table2, sf_design, TABLE1_MODEL, min_runs=50, seed=4)

    def test_rejects_min_runs_above_the_run_cap(
        self, table2: ScenarioParams, sf_design: DesignSolution, monkeypatch
    ) -> None:
        # it used to serve all 100 runs, then fail to converge "after 100 runs"
        from drcflex import TABLE1_MODEL
        from drcflex import simulator

        monkeypatch.setattr(simulator, "MAX_VALIDATION_RUNS", 60)
        with pytest.raises(ValueError, match="min_runs must lie in \\[2, MAX_VALIDATION_RUNS = 60\\], got 100"):
            run_validation(table2, sf_design, TABLE1_MODEL, min_runs=100, seed=4)

    def test_rejects_a_negative_seed(self, table2: ScenarioParams, sf_design: DesignSolution) -> None:
        from drcflex import TABLE1_MODEL

        with pytest.raises(ValueError, match="seed must be non-negative"):
            run_validation(table2, sf_design, TABLE1_MODEL, min_runs=50, seed=-1)

    @pytest.mark.parametrize("min_runs", [0, 1])
    def test_rejects_fewer_than_two_runs(
        self, table2: ScenarioParams, sf_design: DesignSolution, min_runs: int
    ) -> None:
        # the stop rule's standard error needs two runs; one would take std(ddof=1) of one value
        from drcflex import TABLE1_MODEL

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="min_runs"):
                run_validation(table2, sf_design, TABLE1_MODEL, min_runs=min_runs, seed=4)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def stream_order_spans(params: ScenarioParams, design: DesignSolution, seed: int, runs: range):
    """The validation spans drawn call by call: one generator per block of
    runs, a scalar Poisson count per run and zone-direction in span order,
    then the block's xy, time and staging draws as one call each, scaled
    span by span and kept for ``runs`` only."""
    from drcflex.simulator import _BLOCK_RUNS

    grid = design.grid
    ff = design.strategy == FULLY_FLEXIBLE
    rows = []
    for block in range(runs.start // _BLOCK_RUNS, (runs.stop - 1) // _BLOCK_RUNS + 1):
        rng = np.random.default_rng(np.random.SeedSequence((seed, block)))
        spans = []
        for run in range(block * _BLOCK_RUNS, (block + 1) * _BLOCK_RUNS):
            for i, zd in enumerate(design.zones):
                for outbound in (True, False):
                    lam = params.lambda_p if outbound else params.lambda_d
                    H = zd.H_p if outbound else zd.H_d
                    n_w = max(1, round(1.0 / H))
                    n = rng.poisson(lam * grid.l * grid.w * (n_w * H))
                    spans.append((run, i, outbound, H, n_w, n))
        n = np.array([s[5] for s in spans])
        n_w = np.array([s[4] for s in spans])
        xy = np.split(rng.random((n.sum(), 2)), np.cumsum(n)[:-1])
        t = np.split(rng.random(n.sum()), np.cumsum(n)[:-1])
        staging = np.split(rng.random((n_w.sum(), 2) if ff else n_w.sum()), np.cumsum(n_w)[:-1])
        for (run, i, outbound, H, n_w, n), span_xy, span_t, span_staging in zip(spans, xy, t, staging):
            if run in runs:
                scale = np.array([grid.l, grid.w])
                span_staging = span_staging * scale if ff else span_staging * design.w0
                rows.append((i, outbound, H, n_w, n, span_xy * scale, span_t * (n_w * H), span_staging))
    zone, outbound, H, n_w, n, xy, t, staging = zip(*rows)
    return (*map(np.array, (zone, outbound, H, n_w, n)), *map(np.concatenate, (xy, t, staging)))


SIM_DESIGNS = ["ff", "sf", "sparse_ff", "sparse_sf"]


def sim_design(params: ScenarioParams, design_name: str, minutes=None) -> tuple[ScenarioParams, DesignSolution]:
    """A 2 x 2 design named ff, sf, sparse_ff or sparse_sf, at five-minute
    headways or at the given (H_p, H_d) minutes per zone."""
    strategy, w0 = (FULLY_FLEXIBLE, None) if design_name.endswith("ff") else (SEMI_FLEXIBLE, 0.5)
    # at 0.2 requests per zone-hour most spans are empty
    params = params.replace(lambda_p=0.2, lambda_d=0.2) if design_name.startswith("sparse") else params
    design = uniform_design(params, 2, 2, 8, strategy=strategy, w0=w0)
    if minutes is not None:
        zones = tuple(ZoneDesign(zd.z, H_p / 60, H_d / 60, 1) for zd, (H_p, H_d) in zip(design.zones, minutes))
        design = dataclasses.replace(design, zones=zones)
    return params, design


def validation_layout(params: ScenarioParams, design: DesignSolution):
    """One run's (zone, outbound, H, n_windows) columns and mean request counts, as validation lays them out."""
    H = np.array([h for zd in design.zones for h in (zd.H_p, zd.H_d)])
    zone, outbound = np.arange(len(H)) // 2, np.arange(len(H)) % 2 == 0
    n_w = np.maximum(1, np.round(1.0 / H)).astype(int)
    lam = np.where(outbound, params.lambda_p, params.lambda_d)
    return (zone, outbound, H, n_w), lam * design.grid.l * design.grid.w * (n_w * H)


def assert_stream_order(params: ScenarioParams, design: DesignSolution, seed: int, runs: range, spans) -> None:
    want = stream_order_spans(params, design, seed, runs)
    for field, got, expected in zip(spans._fields, spans, want):
        assert same_bits(got, expected), (runs, field)


class TestChunkDraws:
    """Validation serves each block of runs whole, or cut at ``min_runs``;
    every number must be the one the call-by-call draws give."""

    # where the chunks of a validation stopped at min_runs start and end:
    # at block ends (64, 128) and at min_runs
    BOUNDS = {2: [0, 2], 7: [0, 7], 64: [0, 64], 100: [0, 64, 100], 130: [0, 64, 128, 130]}

    @pytest.mark.parametrize("min_runs", sorted(BOUNDS))
    @pytest.mark.parametrize("design_name", SIM_DESIGNS)
    def test_chunk_spans_match_call_by_call_draws(
        self, table2: ScenarioParams, design_name: str, min_runs: int, monkeypatch
    ) -> None:
        from drcflex import TABLE1_MODEL
        from drcflex import simulator

        params, design = sim_design(table2, design_name)
        chunks = []

        def recorded(*args):
            spans = draw_runs(*args)
            chunks.append((args[-1], spans))
            return spans

        draw_runs = simulator._draw_runs
        monkeypatch.setattr(simulator, "_draw_runs", recorded)
        monkeypatch.setattr(simulator, "VALIDATION_SE_TARGET", np.inf)  # stop at min_runs
        report = run_validation(params, design, TABLE1_MODEL, min_runs=min_runs, seed=5)
        assert report.n_runs == min_runs
        bounds = self.BOUNDS[min_runs]
        assert [(r.start, r.stop) for r, _ in chunks] == list(zip(bounds[:-1], bounds[1:]))
        for runs, spans in chunks:
            assert_stream_order(params, design, 5, runs, spans)
        sparse = sum(int((spans.n_points == 0).sum()) for _, spans in chunks)
        assert (sparse > 0) == design_name.startswith("sparse")

    # within one block: inside it, up to its end, all of it, one run of it
    @pytest.mark.parametrize(
        "runs", [range(3, 10), range(50, 64), range(64, 128), range(130, 131)], ids=lambda r: f"runs_{r.start}_{r.stop}"
    )
    @pytest.mark.parametrize("design_name", SIM_DESIGNS)
    def test_draw_runs_cuts_one_block(self, table2: ScenarioParams, design_name: str, runs: range) -> None:
        from drcflex.simulator import _draw_runs

        params, design = sim_design(table2, design_name)
        assert_stream_order(params, design, 5, runs, _draw_runs(design, *validation_layout(params, design), 5, runs))

    def test_each_block_is_drawn_once(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        # min_runs = 50 cuts block 0; the chunk after it serves the rest of that block from the same draw
        from drcflex import TABLE1_MODEL
        from drcflex import simulator

        simulator._draw_block.cache_clear()
        report = run_validation(table2, ff_design, TABLE1_MODEL, min_runs=50, seed=11)
        blocks = -(-report.n_runs // simulator._BLOCK_RUNS)
        assert blocks > 1
        # (hits, misses): every block drawn once, and block 0's second chunk served from its draw
        assert simulator._draw_block.cache_info()[:2] == (1, blocks)


def window_spans(rng: np.random.Generator, design: DesignSolution, loads: list[list[int]], H: float = FIVE_MIN):
    """Spans, one per row of ``loads``, zones in turn and outbound first: each
    window of a span gets the given number of requests, at uniform times
    within it and uniform points in the zone, and its staging draw too (a
    point for a fully flexible design, a w0 offset for a semi-flexible one)."""
    from drcflex.simulator import _Spans

    scale = np.array([design.grid.l, design.grid.w])
    n_w = np.array([len(row) for row in loads])
    window = np.concatenate([np.repeat(np.arange(len(row)), row) for row in loads])
    n_points = np.array([sum(row) for row in loads])
    S = len(loads)
    ff = design.strategy == FULLY_FLEXIBLE
    return _Spans(
        np.arange(S) // 2 % len(design.zones), np.arange(S) % 2 == 0, np.full(S, H), n_w, n_points,
        rng.random((len(window), 2)) * scale, (window + rng.random(len(window))) * H,
        rng.random((int(n_w.sum()), 2)) * scale if ff else rng.random(int(n_w.sum())) * design.w0,
    )


def rider_books(params: ScenarioParams, spans, D: np.ndarray, tau: np.ndarray) -> list[tuple]:
    """Per window (tour, q, wait, in-vehicle time), each rider charged one at a
    time along ``exact_tour``'s visit order and along its reverse, and the two
    walks averaged."""
    from drcflex.tsp import MAX_BRUTE_POINTS, brute_force_tour_length, exact_tour

    v, books, p, w = params.v_l, [], 0, 0
    for s, (n_w, n) in enumerate(zip(spans.n_windows.tolist(), spans.n_points.tolist())):
        t, xy = spans.t[p:p + n], spans.xy[p:p + n]
        local = np.minimum((t / spans.H_sched[s]).astype(int), n_w - 1)
        for j in range(n_w):
            riders = np.flatnonzero(local == j)
            q = len(riders)
            if q == 0:
                books.append((0.0, 0, 0.0, 0.0))
                continue
            nodes = np.vstack((spans.staging[w + j], xy[riders]))
            length, order = exact_tour(PointSet(nodes))
            if q + 1 <= MAX_BRUTE_POINTS:
                assert length == pytest.approx(brute_force_tour_length(PointSet(nodes)), abs=1e-12)
            wait = ride = 0.0
            for walk in (order, order[:1] + order[:0:-1]):
                pos = 0.0
                for r, (a, b) in enumerate(zip(walk, walk[1:]), start=1):
                    pos += float(np.abs(nodes[a] - nodes[b]).sum())
                    if spans.outbound[s]:
                        wait += (j + 1) * spans.H_sched[s] - t[riders[b - 1]] + pos / v + (r - 0.5) * tau[s]
                        ride += (length - pos) / v + (q - r + 0.5) * tau[s] + D[s] / v
                    else:
                        ride += D[s] / v + pos / v + (r - 0.5) * tau[s]
            books.append((length, q, wait / 2.0, ride / 2.0))
        p, w = p + n, w + n_w
    return books


class TestFullyFlexibleBooks:
    """Each fully flexible window is charged the mean of its tour's two walks."""

    @staticmethod
    def windows(params: ScenarioParams, spans) -> tuple[np.ndarray, ...]:
        from drcflex.simulator import _ff_windows

        D, tau = np.arange(1.0, len(spans.zone) + 1), np.where(spans.outbound, params.tau_p, params.tau_d)
        return _ff_windows(params, None, spans, D, tau), D, tau

    def test_books_equal_both_walks_rider_by_rider(
        self, table2: ScenarioParams, ff_design: DesignSolution, monkeypatch
    ) -> None:
        from drcflex import tsp

        rng = np.random.default_rng(90)
        spans = window_spans(rng, ff_design, rng.integers(0, 9, (8, 4)).tolist())

        def no_visit_order(*args):
            raise AssertionError("the simulator read a visit order")

        monkeypatch.setattr(tsp, "_path", no_visit_order)
        (tour, q, wait, inveh), D, tau = self.windows(table2, spans)
        monkeypatch.undo()
        want = rider_books(table2, spans, D, tau)
        assert q.tolist() == [b[1] for b in want] and (q >= 1).sum() > 20
        for got, field in ((tour, 0), (wait, 2), (inveh, 3)):
            np.testing.assert_allclose(got, [b[field] for b in want], rtol=1e-12, atol=0)

    def test_relabeled_stops_leave_the_books(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        rng = np.random.default_rng(91)
        spans = window_spans(rng, ff_design, rng.integers(0, 12, (8, 6)).tolist())
        starts = np.cumsum(spans.n_points) - spans.n_points
        perm = np.concatenate([s + rng.permutation(n) for s, n in zip(starts, spans.n_points)])
        relabeled = spans._replace(xy=spans.xy[perm], t=spans.t[perm])
        (tour, q, wait, inveh), _, _ = self.windows(table2, spans)
        (tour2, q2, wait2, inveh2), _, _ = self.windows(table2, relabeled)
        assert same_bits(q, q2)
        for got, want in ((tour2, tour), (wait2, wait), (inveh2, inveh)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_large_groups_split_to_the_same_bits(
        self, table2: ScenarioParams, ff_design: DesignSolution, monkeypatch
    ) -> None:
        from drcflex import simulator, tsp

        spans = window_spans(np.random.default_rng(92), ff_design, [[16, 17, 17], [17, 16, 16]])
        held_karp, widths = simulator._held_karp, []

        def recorded(dist):
            widths.append((dist.shape[0], dist.shape[2]))
            return held_karp(dist)

        monkeypatch.setattr(simulator, "_held_karp", recorded)
        books = [self.windows(table2, spans)[0]]
        assert all(2 * 8 * tsp._widest_layer(q) * B <= simulator._LAYER_BYTES for q, B in widths)
        assert widths == [(17, 3), (18, 2), (18, 1)]  # the 18-point tours are split
        for limit in (1, 1 << 40):  # one tour per DP call; each group whole
            monkeypatch.setattr(simulator, "_LAYER_BYTES", limit)
            books.append(self.windows(table2, spans)[0])
        for other in books[1:]:
            assert all(same_bits(a, b) for a, b in zip(books[0], other))


def sweep_rider_books(params: ScenarioParams, design: DesignSolution, spans, D: np.ndarray, tau: np.ndarray) -> list[tuple]:
    """Per window (tour, q, wait, in-vehicle time), each rider charged one at a
    time along the sweep: an outbound rider boards the first bus whose sweep
    has not passed it, an inbound one the bus of its departure window, and a
    window's riders are swept by progress, ties in span order."""
    import math

    from drcflex.simulator import _serpentine_for

    serp = _serpentine_for(design.grid, design.w0)
    v, end = params.v_l, serp.fixed_path + design.w0 / 2.0
    books, p, w = [], 0, 0
    for s, (n_w, n) in enumerate(zip(spans.n_windows.tolist(), spans.n_points.tolist())):
        H, riders = float(spans.H_sched[s]), [[] for _ in range(n_w)]
        for (x, y), t in zip(spans.xy[p:p + n].tolist(), spans.t[p:p + n].tolist()):
            lon, lat = (x, y) if serp.along_l else (y, x)
            strip = min(int(lat / serp.w0), serp.n_strips - 1)
            progress = strip * (serp.strip_len + serp.w0) + (lon if strip % 2 == 0 else serp.strip_len - lon)
            bus = max(math.ceil((t - progress / v) / H - 1e-12), 0)
            j = bus % n_w if spans.outbound[s] else min(int(t / H), n_w - 1)
            riders[j].append((progress, lat - strip * serp.w0, t, bus * H + progress / v))
        for j in range(n_w):
            sweep = sorted(riders[j], key=lambda rider: rider[0])  # sorted() is stable
            offsets = [float(spans.staging[w + j])] + [c for _, c, _, _ in sweep]
            legs = [abs(b - a) for a, b in zip(offsets, offsets[1:])]
            q, lateral, swept, wait, ride = len(sweep), sum(legs), 0.0, 0.0, 0.0
            for r, ((progress, _, t, nominal), leg) in enumerate(zip(sweep, legs), start=1):
                swept += leg
                if spans.outbound[s]:
                    wait += nominal - t + leg / v
                    ride += (end - progress + lateral - swept + leg / 2.0) / v + (q - r + 0.5) * tau[s] + D[s] / v
                else:
                    ride += D[s] / v + (progress + swept - leg / 2.0) / v + (r - 0.5) * tau[s]
            books.append((end + lateral, q, wait, ride))
        p, w = p + n, w + n_w
    return books


def ties_reversed(argsort):
    """``np.argsort`` whose default kind puts equal keys in reverse order, as a
    sort kernel free to order them may; the other kinds are left alone."""

    def patched(a, axis=-1, kind=None, **kwargs):
        if kind is not None:
            return argsort(a, axis=axis, kind=kind, **kwargs)
        order = argsort(a, kind="stable")
        ordered = np.asarray(a)[order]
        run = np.concatenate(([0], np.cumsum(ordered[1:] != ordered[:-1])))
        return order[np.lexsort((-np.arange(len(order)), run))]

    return patched


class TestSemiFlexibleBooks:
    """Each semi-flexible window's books are its riders' sums in closed form."""

    @staticmethod
    def windows(params: ScenarioParams, design: DesignSolution, spans) -> tuple[np.ndarray, ...]:
        from drcflex.simulator import _sf_windows

        D, tau = np.arange(1.0, len(spans.zone) + 1), np.where(spans.outbound, params.tau_p, params.tau_d)
        return _sf_windows(params, design, spans, D, tau), D, tau

    @staticmethod
    def assert_books(got: tuple[np.ndarray, ...], want: list[tuple]) -> None:
        tour, q, wait, inveh = got
        assert q.tolist() == [b[1] for b in want]
        for books, field in ((tour, 0), (wait, 2), (inveh, 3)):
            np.testing.assert_allclose(books, [b[field] for b in want], rtol=1e-12, atol=0)

    # multi-strip zones along l, one-strip zones across l, multi-strip square zones
    @pytest.mark.parametrize("design_name", ["sf_2x1", "sf_line", "sf"])
    def test_books_equal_the_sweep_rider_by_rider(self, table2: ScenarioParams, request, design_name: str) -> None:
        design = request.getfixturevalue(f"{design_name}_design")
        rng = np.random.default_rng(93)
        spans = window_spans(rng, design, rng.integers(0, 17, (8, 6)).tolist())
        got, D, tau = self.windows(table2, design, spans)
        self.assert_books(got, sweep_rider_books(table2, design, spans, D, tau))
        q = got[1].reshape(-1, 6)  # both directions carry loaded windows
        assert (q[0::2] >= 2).sum() > 10 and (q[1::2] >= 2).sum() > 10

    @pytest.mark.parametrize("design_name", ["sf_2x1", "sf_line"])
    def test_equal_progress_keeps_span_order(
        self, table2: ScenarioParams, request, design_name: str, monkeypatch
    ) -> None:
        # every other request takes its predecessor's progress and time at another
        # lateral offset in the same strip, so their legs depend on which goes first
        from drcflex.simulator import _serpentine_for

        design = request.getfixturevalue(f"{design_name}_design")
        rng = np.random.default_rng(94)
        spans = window_spans(rng, design, rng.integers(2, 9, (4, 3)).tolist())
        lon, lat = (0, 1) if _serpentine_for(design.grid, design.w0).along_l else (1, 0)
        xy, t = spans.xy.copy(), spans.t.copy()
        xy[1::2, lon], t[1::2] = xy[0:-1:2, lon], t[0:-1:2]
        xy[1::2, lat] = (xy[0:-1:2, lat] // design.w0 + rng.random(len(xy) // 2)) * design.w0
        spans = spans._replace(xy=xy, t=t)
        want = sweep_rider_books(table2, design, spans, *self.windows(table2, design, spans)[1:])
        self.assert_books(self.windows(table2, design, spans)[0], want)
        monkeypatch.setattr(np, "argsort", ties_reversed(np.argsort))
        self.assert_books(self.windows(table2, design, spans)[0], want)


class TestServeGrouping:
    """Each span's totals add its windows' books in window order, so spans
    served together give the bits they give served one per call."""

    # (H_p, H_d) minutes per zone: 20, 6, 15, 8, 12, 10, 10 and 12 windows an hour
    MINUTES = ((3.0, 10.0), (4.0, 7.5), (5.0, 6.0), (6.0, 5.0))

    @pytest.mark.parametrize("design_name", SIM_DESIGNS)
    def test_spans_served_together_or_one_per_call_agree(self, table2: ScenarioParams, design_name: str) -> None:
        from drcflex.simulator import _draw_runs, _serve, _Spans

        params, design = sim_design(table2, design_name, self.MINUTES)
        spans = _draw_runs(design, *validation_layout(params, design), 3, range(8))
        together, tours = _serve(params, design, spans)
        p, w = (np.concatenate(([0], np.cumsum(c))) for c in (spans.n_points, spans.n_windows))
        for i in range(len(spans.n_windows)):
            requests = (spans.xy[p[i] : p[i + 1]], spans.t[p[i] : p[i + 1]])
            one = _Spans(*(f[i : i + 1] for f in spans[:5]), *requests, spans.staging[w[i] : w[i + 1]])
            alone, alone_tours = _serve(params, design, one)
            for field, got, want in zip(together._fields, together, alone):
                assert same_bits(got[i : i + 1], want), (i, field)
            assert same_bits(tours[w[i] : w[i + 1]], alone_tours), i
        assert (spans.n_points == 0).any() == design_name.startswith("sparse")


def lexsort_groups(spans, local):
    """Load groups ordered by one lexsort over the windows."""
    n_w = spans.n_windows
    window = np.repeat(np.cumsum(n_w) - n_w, spans.n_points) + local
    by_window = np.lexsort((window,))
    q = np.bincount(window, minlength=int(n_w.sum()))
    start = np.cumsum(q) - q
    groups = []
    for k in np.unique(q[q > 0]):
        w = np.flatnonzero(q == k)
        groups.append((w, by_window[start[w, None] + np.arange(k)]))
    return q, groups


class TestLoadGroups:
    """Requests grouped by window, in span order (fully flexible load groups)
    or by sweep progress (the semi-flexible sweep order)."""

    @staticmethod
    def spans(n_windows: np.ndarray, n_points: np.ndarray):
        from drcflex.simulator import _Spans

        n = int(n_points.sum())
        return _Spans(
            np.zeros(len(n_windows), int), np.ones(len(n_windows), bool), np.ones(len(n_windows)),
            n_windows, n_points, np.zeros((n, 2)), np.zeros(n), np.zeros(int(n_windows.sum())),
        )

    @staticmethod
    def assert_same_groups(got, want) -> None:
        assert same_bits(got[0], want[0])
        assert len(got[1]) == len(want[1])
        for g, w in zip(got[1], want[1]):
            for a, b in zip(g, w):
                assert same_bits(a, b)

    @classmethod
    def assert_ordered(cls, spans, local: np.ndarray, progress: np.ndarray | None) -> None:
        from drcflex.simulator import _load_groups, _sweep_order

        if progress is None:
            cls.assert_same_groups(_load_groups(spans, local), lexsort_groups(spans, local))
            return
        n_w = spans.n_windows
        window = np.repeat(np.cumsum(n_w) - n_w, spans.n_points) + local
        assert same_bits(_sweep_order(window, progress, int(n_w.sum())), np.lexsort((progress, window)))

    @pytest.mark.parametrize("keys", ["none", "random", "ties"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lexsort(self, keys: str, seed: int) -> None:
        rng = np.random.default_rng((seed, 29))
        n_windows = rng.integers(1, 21, size=256)
        n_points = rng.poisson(3.0 * n_windows)
        spans = self.spans(n_windows, n_points)
        local = (rng.random(int(n_points.sum())) * np.repeat(n_windows, n_points)).astype(int)
        progress = {
            "none": None,
            "random": rng.random(len(local)),
            "ties": rng.integers(0, 3, size=len(local)).astype(float),  # repeats within windows
        }[keys]
        self.assert_ordered(spans, local, progress)

    @pytest.mark.parametrize("with_minor", [False, True])
    def test_window_ids_beyond_16_bits(self, with_minor: bool) -> None:
        from drcflex.simulator import _load_groups

        # 80,000 windows: a few requests near the start, the middle and past
        # window 65,535, where 16-bit ids would wrap
        n_windows = np.full(4000, 20)
        n_points = np.zeros(4000, int)
        n_points[[0, 1, 2000, 3300, 3998, 3999]] = [4, 3, 5, 2, 6, 4]
        rng = np.random.default_rng(31)
        local = rng.integers(0, 20, size=int(n_points.sum()))
        local[-8:] = 19
        spans = self.spans(n_windows, n_points)
        if not with_minor:
            assert int(_load_groups(spans, local)[1][-1][0].max()) >= 65_536
            self.assert_ordered(spans, local, None)
            return
        for progress in (rng.random(len(local)), rng.integers(0, 2, size=len(local)).astype(float)):
            self.assert_ordered(spans, local, progress)
