"""Tests for parameter sweeps, crossover search, and validation campaigns."""

from __future__ import annotations

import math

import pytest

from drcflex import (
    FULLY_FLEXIBLE,
    SEMI_FLEXIBLE,
    BracketError,
    InfeasibleDesignError,
    ScenarioParams,
    SearchSpace,
    SweepSpec,
    apply_axis,
    default_scenario_grid,
    find_critical_density,
    run_sweep,
    run_validation_campaign,
    sweep_to_csv,
)
from drcflex.simulator import TABLE_ROW_LABELS

TINY_SPACE = SearchSpace(M_range=(1,), N_range=(1,), K_range=(8,))


class TestSweepSpec:
    def test_accepts_increasing_values(self, table2: ScenarioParams) -> None:
        spec = SweepSpec(axis="lambda", values=(5, 10, 20), base=table2)
        assert spec.values == (5.0, 10.0, 20.0)

    def test_rejects_unknown_axis(self, table2: ScenarioParams) -> None:
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(axis="demand", values=(5, 10), base=table2)

    def test_rejects_empty_values(self, table2: ScenarioParams) -> None:
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(axis="lambda", values=(), base=table2)

    def test_rejects_non_increasing_values(self, table2: ScenarioParams) -> None:
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepSpec(axis="lambda", values=(5, 5, 10), base=table2)

    def test_rejects_unknown_strategy(self, table2: ScenarioParams) -> None:
        with pytest.raises(ValueError, match="unknown strategies"):
            SweepSpec(axis="lambda", values=(5, 10), base=table2, strategies=("bus",))


class TestApplyAxis:
    def test_lambda_moves_both_directions(self, table2: ScenarioParams) -> None:
        moved = apply_axis(table2, "lambda", 25.0)
        assert moved.lambda_p == 25.0
        assert moved.lambda_d == 25.0
        assert moved.L == table2.L

    def test_region_area_keeps_a_square(self, table2: ScenarioParams) -> None:
        moved = apply_axis(table2, "region_area", 9.0)
        assert moved.L == pytest.approx(3.0)
        assert moved.W == pytest.approx(3.0)

    def test_aspect_ratio_keeps_the_area(self, table2: ScenarioParams) -> None:
        moved = apply_axis(table2, "aspect_ratio", 4.0)
        assert moved.L * moved.W == pytest.approx(4.0)
        assert moved.L / moved.W == pytest.approx(4.0)
        assert moved.L == pytest.approx(4.0)
        assert moved.W == pytest.approx(1.0)

    def test_scalar_axes(self, table2: ScenarioParams) -> None:
        assert apply_axis(table2, "theta", 5.0).theta == 5.0
        assert apply_axis(table2, "alpha", 0.7).alpha == 0.7

    def test_rejects_unknown_axis(self, table2: ScenarioParams) -> None:
        with pytest.raises(ValueError, match="axis"):
            apply_axis(table2, "speed", 30.0)


class TestRunSweep:
    def test_rows_cover_every_value_and_strategy(self, table2: ScenarioParams) -> None:
        base = table2.replace(L=1.0, W=1.0)
        spec = SweepSpec(axis="lambda", values=(20.0, 40.0), base=base)
        rows = run_sweep(spec, space=TINY_SPACE)
        assert [(r.axis_value, r.strategy) for r in rows] == [
            (20.0, FULLY_FLEXIBLE),
            (20.0, SEMI_FLEXIBLE),
            (40.0, FULLY_FLEXIBLE),
            (40.0, SEMI_FLEXIBLE),
        ]
        for row in rows:
            assert row.feasible
            assert row.gc_per_patron_min > 0
            assert row.M == 1 and row.N == 1 and row.K == 8
            assert row.mean_H_p_min > 0
            assert row.mean_occupancy_out > 0
        ff, sf = rows[0], rows[1]
        assert ff.w0 is None
        assert sf.w0 is not None

    def test_infeasible_point_becomes_gap_row(self, table2: ScenarioParams) -> None:
        base = table2.replace(L=1.0, W=1.0)
        spec = SweepSpec(
            axis="lambda", values=(20.0, 4000.0), base=base, strategies=(FULLY_FLEXIBLE,)
        )
        rows = run_sweep(spec, space=TINY_SPACE)
        assert rows[0].feasible
        assert not rows[1].feasible
        assert rows[1].gc_per_patron_min is None
        assert rows[1].note != ""

    def test_csv_round_trip_is_stable(self, table2: ScenarioParams, tmp_path) -> None:
        base = table2.replace(L=1.0, W=1.0)
        spec = SweepSpec(axis="theta", values=(5.0, 20.0), base=base)
        rows = run_sweep(spec, space=TINY_SPACE)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        sweep_to_csv(rows, p1)
        sweep_to_csv(run_sweep(spec, space=TINY_SPACE), p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("axis_value,strategy,feasible,")
        assert len(lines) == 5


class TestFindCriticalDensity:
    def test_rejects_bad_bracket(self, table2: ScenarioParams) -> None:
        with pytest.raises(ValueError, match="0 < lo < hi"):
            find_critical_density(table2, lo=10.0, hi=10.0)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
    def test_rejects_a_width_that_is_not_finite_and_positive(self, table2: ScenarioParams, width: float) -> None:
        with pytest.raises(ValueError, match="width must be finite and positive"):
            find_critical_density(table2, width=width)

    def test_no_sign_change_raises_with_both_endpoints(self, table2: ScenarioParams) -> None:
        space = SearchSpace(M_range=(1, 2), N_range=(1, 2), K_range=(4, 8))
        with pytest.raises(BracketError, match="does not change sign") as excinfo:
            find_critical_density(table2, lo=2.0, hi=3.0, space=space)
        message = str(excinfo.value)
        assert FULLY_FLEXIBLE in message and SEMI_FLEXIBLE in message
        assert "min/patron" in message


class TestScenarioGrid:
    def test_thirty_two_uniquely_named_scenarios(self, table2: ScenarioParams) -> None:
        grid = default_scenario_grid(table2)
        assert len(grid) == 32
        names = [name for name, _ in grid]
        assert len(set(names)) == 32

    def test_names_encode_the_parameters(self, table2: ScenarioParams) -> None:
        grid = dict(default_scenario_grid(table2))
        params = grid["lam10_a0.9_th5_2x3"]
        assert params.lambda_p == 10.0
        assert params.lambda_d == 10.0
        assert params.alpha == 0.9
        assert params.theta == 5.0
        assert (params.L, params.W) == (2.0, 3.0)
        # untouched fields come from the base scenario
        assert params.v_l == table2.v_l

    def test_axes_cover_both_levels(self, table2: ScenarioParams) -> None:
        grid = default_scenario_grid(table2)
        assert {p.lambda_p for _, p in grid} == {10.0, 40.0}
        assert {p.alpha for _, p in grid} == {0.3, 0.9}
        assert {p.theta for _, p in grid} == {5.0, 20.0}
        assert {(p.L, p.W) for _, p in grid} == {
            (2.0, 2.0), (2.0, 3.0), (3.0, 2.0), (3.0, 3.0)
        }


class TestValidationCampaign:
    def test_small_campaign_aggregates(self, table2: ScenarioParams, tmp_path) -> None:
        scenarios = [
            ("base", table2),
            ("lighter", table2.replace(lambda_p=30.0, lambda_d=30.0)),
        ]
        space = SearchSpace(M_range=(1,), N_range=(4,), K_range=(8, 9))
        result = run_validation_campaign(
            scenarios, SEMI_FLEXIBLE, space=space, min_runs=50, seed=2
        )
        assert result.scenario_names == ("base", "lighter")
        assert len(result.reports) == 2
        rows = result.aggregate()
        assert [label for label, _, _ in rows] == list(TABLE_ROW_LABELS)
        for _, avg, mx in rows:
            assert avg <= mx + 1e-12
            assert math.isfinite(avg)
        path = tmp_path / "campaign.csv"
        result.to_csv(path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "metric,Average,Maximum"
        assert len(lines) == 7

    def test_failure_names_the_scenario(self, table2: ScenarioParams) -> None:
        scenarios = [("dense", table2.replace(lambda_p=4000.0, lambda_d=4000.0))]
        with pytest.raises(InfeasibleDesignError, match="scenario 'dense'"):
            run_validation_campaign(scenarios, FULLY_FLEXIBLE, space=TINY_SPACE, min_runs=10)
