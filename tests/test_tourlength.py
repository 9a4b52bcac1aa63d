"""Tests for tour-length laws, swath geometry, and the k* calibration."""

from __future__ import annotations

import dataclasses
import math
import weakref

import numpy as np
import pytest
from scipy.optimize import least_squares

from drcflex import CalibrationGrid, KStarModel, TABLE1_MODEL, calibrate_kstar, kstar, tourlength, tsp
from drcflex.cli import KSTAR_MODES, resolve_model
from drcflex.expectations import PRIOR_LAWS
from drcflex.tourlength import (
    CalibrationCell,
    _levenberg_marquardt,
    constrained_swath_mape,
    feasible_swath_widths,
    fit_kstar_model,
    grid_mape,
    swath_tour_length,
    unconstrained_swath_optimum,
)


class TestKStar:
    def test_hand_computed_value(self) -> None:
        # (0.1102 + 1.4569) * 4**-0.1472 * exp(-2.5508 * 4**-2.6396)
        assert kstar(TABLE1_MODEL, 4.0, 1.0) == pytest.approx(1.1967, abs=5e-4)

    def test_aspect_ratio_increases_k(self) -> None:
        assert kstar(TABLE1_MODEL, 6.0, 3.0) > kstar(TABLE1_MODEL, 6.0, 1.0)

    def test_unimodal_in_q(self) -> None:
        # k* climbs from sparse-stop tours toward a plateau near q = 4, then
        # decays slowly; both flanks matter for the headway optimizer.
        values = {q: kstar(TABLE1_MODEL, q, 1.0) for q in range(2, 16)}
        assert values[2] < values[3] < values[4]
        tail = [values[q] for q in range(4, 16)]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_domain_validation(self) -> None:
        with pytest.raises(ValueError, match="q"):
            kstar(TABLE1_MODEL, 0.5, 1.0)
        with pytest.raises(ValueError, match="aspect"):
            kstar(TABLE1_MODEL, 4.0, 0.8)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_a_count_or_aspect_ratio_that_is_not_finite(self, bad: float) -> None:
        # NaN compares False with 1, so a lower bound alone would pass it on as a NaN k*
        with pytest.raises(ValueError, match="q must be finite"):
            kstar(TABLE1_MODEL, bad, 1.0)
        with pytest.raises(ValueError, match="aspect ratio S must be finite"):
            kstar(TABLE1_MODEL, 4.0, bad)


class TestBenchmarks:
    """The k* of earlier studies, a prior law's tour over q stops in a unit zone over sqrt(q)."""

    GRID = [(q, S) for q in range(2, 16) for S in (1.0, 1.5, 2.0, 3.0)]

    @staticmethod
    def prior_kstar(name: str, q: float, S: float) -> float:
        return PRIOR_LAWS[name].tour_length_units(q, S) / math.sqrt(q)

    def test_yang(self) -> None:
        # the published Euclidean regression; the law adds three terms, so it may round
        for q, S in self.GRID:
            published = 1.1055 - 0.008 * q + 1.0297 * S / q
            assert self.prior_kstar("yang", q, S) == pytest.approx(published, rel=1e-15, abs=0), (q, S)

    def test_constants(self) -> None:
        # Chakraborti's large-q lattice estimate and Daganzo's serpentine optimum, exactly
        for q, S in self.GRID:
            assert self.prior_kstar("chakraborti", q, S) == 0.93, (q, S)
            assert self.prior_kstar("daganzo115", q, S) == 1.15, (q, S)

    def test_unknown_benchmark(self) -> None:
        with pytest.raises(ValueError, match="kstar-mode must be one of"):
            resolve_model("euclid")

    def test_registry_is_exhaustive(self) -> None:
        assert KSTAR_MODES == ("calibrated", "chakraborti", "daganzo115", "yang")
        for name in PRIOR_LAWS:
            assert resolve_model(name) is PRIOR_LAWS[name]
            assert self.prior_kstar(name, 4.0, 1.5) > 0


class TestSwathGeometry:
    def test_tour_length_hand_value(self) -> None:
        assert swath_tour_length(12.0, 1.0, 0.5) == pytest.approx(4.0)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            swath_tour_length(3.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            swath_tour_length(3.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            swath_tour_length(-1.0, 1.0, 0.5)

    def test_unconstrained_optimum(self) -> None:
        w0, length = unconstrained_swath_optimum(3.0, 1.0)
        assert w0 == pytest.approx(1.0)
        assert length == pytest.approx(2.0)
        # the optimum is a lower bound over any width
        for cand in (0.3, 0.5, 0.9, 1.4):
            assert swath_tour_length(3.0, 1.0, cand) >= length - 1e-12

    def test_feasible_widths_rectangular_zone(self) -> None:
        configs = feasible_swath_widths(2.0, 0.5)
        widths = [c.w0 for c in configs]
        assert widths == pytest.approx([0.5, 0.25, 1 / 6, 0.125])
        # 0.5 arises both as l/4 and w/1; the single-strip orientation wins
        assert configs[0].n_strips == 1
        assert configs[0].along == "l"
        assert all(c.w0 <= 0.5 + 1e-12 for c in configs)

    def test_feasible_widths_square_zone(self) -> None:
        widths = [c.w0 for c in feasible_swath_widths(1.0, 1.0)]
        assert widths == pytest.approx([1.0, 0.5, 1 / 3, 0.25])


class TestConstrainedSwathGap:
    def test_square_zone_gaps(self) -> None:
        gaps = {g.q: g for g in constrained_swath_mape(1.0, 1.0, range(2, 16))}
        # q = 3 admits the exact unconstrained optimum w0 = 1
        assert gaps[3].gap_pct == pytest.approx(0.0, abs=1e-9)
        assert gaps[3].w0 == pytest.approx(1.0)
        assert gaps[2].gap_pct == pytest.approx(2.062, abs=5e-3)
        for g in gaps.values():
            assert g.gap_pct >= -1e-9
            assert g.realizable_gap_pct >= g.gap_pct - 1e-9

    def test_elongated_zone_small_q_gap(self) -> None:
        # Unit-area zone at aspect ratio 3: the coarsest feasible width is
        # already a third of the long side, far from sqrt(3*A/q) at q = 2.
        l, w = math.sqrt(3.0), 1 / math.sqrt(3.0)
        (gap,) = constrained_swath_mape(l, w, [2])
        assert gap.gap_pct == pytest.approx(29.64, abs=0.05)
        assert gap.realizable_gap_pct == pytest.approx(47.32, abs=0.05)

    def test_gap_is_scale_invariant(self) -> None:
        (small,) = constrained_swath_mape(1.0, 0.5, [4])
        (large,) = constrained_swath_mape(2.0, 1.0, [4])
        assert small.gap_pct == pytest.approx(large.gap_pct, abs=1e-9)

    def test_invalid_q(self) -> None:
        with pytest.raises(ValueError):
            constrained_swath_mape(1.0, 1.0, [0])


PINNED_GRID = CalibrationGrid(
    q_values=(3, 5, 7, 9, 11), aspect_ratios=(1.0, 2.0), min_instances=500, max_instances=2000, batch_size=250
)
# perfbench's calibrate parts and its warm-up
PERFBENCH_Q = tuple(range(2, 13))
PERFBENCH_SQUARE = CalibrationGrid(q_values=PERFBENCH_Q, aspect_ratios=(1.0, 1.5), min_instances=750)
PERFBENCH_ELONGATED = CalibrationGrid(q_values=PERFBENCH_Q, aspect_ratios=(2.0, 3.0), min_instances=750)
PERFBENCH_WARMUP = CalibrationGrid(
    q_values=(2, 3, 4, 5, 6, 7), aspect_ratios=(1.0, 2.0), min_instances=64, max_instances=128, batch_size=64
)


@pytest.fixture(scope="module")
def mini_grid() -> CalibrationGrid:
    return CalibrationGrid(
        q_values=(2, 3),
        aspect_ratios=(1.0, 2.0),
        min_instances=2000,
        max_instances=20_000,
        batch_size=1000,
    )


@pytest.fixture(scope="module")
def mini_result(mini_grid: CalibrationGrid):
    return calibrate_kstar(mini_grid, seed=3)


class TestCalibration:
    @pytest.mark.parametrize("q,S", [(2, 1.0), (3, 1.0), (2, 2.0), (3, 2.0)])
    def test_cells_match_closed_form_means(self, mini_result, q: int, S: float) -> None:
        # In a unit-area a x b rectangle, E|P1 - P2| = (a + b)/3 under the
        # Manhattan metric.  A closed 2-tour is twice that; for q = 3 every
        # visiting order walks the same triangle perimeter, with mean a + b.
        a = math.sqrt(S)
        b = 1.0 / a
        expected = {2: 2 * (a + b) / 3, 3: a + b}[q] / math.sqrt(q)
        assert mini_result.cell(q, S).mean_kstar == pytest.approx(expected, abs=0.02)

    def test_instance_counts_within_plan(self, mini_result) -> None:
        for cell in mini_result.cells:
            assert 2000 <= cell.n_instances <= 20_000
            assert cell.std_kstar > 0

    def test_deterministic_given_seed(self, mini_grid: CalibrationGrid, mini_result) -> None:
        again = calibrate_kstar(mini_grid, seed=3)
        assert [c.mean_kstar for c in again.cells] == [c.mean_kstar for c in mini_result.cells]

    def test_missing_cell_lookup(self, mini_result) -> None:
        with pytest.raises(KeyError):
            mini_result.cell(9, 1.0)

    def test_csv_round_trip(self, mini_result, tmp_path) -> None:
        path = tmp_path / "calibration.csv"
        mini_result.to_csv(path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "q,S,mean_kstar,n_instances"
        # one row per cell plus the five coefficient rows
        assert len(lines) == 1 + len(mini_result.cells) + 5
        assert lines[-5].startswith("beta1,")

    # One small calibration as the half-tour join's float32 lengths give it:
    # every cell, the fitted model and its MAPE, bit for bit.
    PINNED_CELLS = (
        (3, 1.0, 1.1623707281896873, 0.36174136922674516, 2000),
        (3, 2.0, 1.2102075822424376, 0.4031925381774147, 2000),
        (5, 1.0, 1.2043844488582227, 0.22210766217971234, 2000),
        (5, 2.0, 1.2645584261163838, 0.25504192432578665, 2000),
        (7, 1.0, 1.173694972514997, 0.16853350496129038, 1250),
        (7, 2.0, 1.2271912910986411, 0.18317241801931083, 1500),
        (9, 1.0, 1.133209646119012, 0.13580775572774006, 750),
        (9, 2.0, 1.1954899231990177, 0.1487346522265694, 1000),
        (11, 1.0, 1.1036537778031004, 0.11486725715297973, 750),
        (11, 2.0, 1.157155782598897, 0.1224713462803707, 750),
    )
    # The model and MAPE are the numpy Levenberg-Marquardt's; TestModelFit checks them
    # against scipy's least_squares.
    PINNED_MODEL = (
        0.07996847499321734, 1.5855646399291687, -0.16805796028025438, -2.4369264992308732, -2.380064227037712
    )
    PINNED_MAPE = 0.1779441627115038

    def test_result_pinned(self) -> None:
        result = calibrate_kstar(PINNED_GRID, seed=5)
        assert tuple(dataclasses.astuple(c) for c in result.cells) == self.PINNED_CELLS
        assert dataclasses.astuple(result.model) == self.PINNED_MODEL
        assert result.fit_mape_pct == self.PINNED_MAPE

    def test_rejects_a_negative_seed(self) -> None:
        with pytest.raises(ValueError, match="seed must be non-negative"):
            calibrate_kstar(PINNED_GRID, seed=-1)

    def test_grid_validation(self) -> None:
        with pytest.raises(ValueError):
            CalibrationGrid(q_values=(1, 2))
        with pytest.raises(ValueError):
            CalibrationGrid(q_values=(2, 21))
        with pytest.raises(ValueError):
            CalibrationGrid(aspect_ratios=(0.5,))
        with pytest.raises(ValueError):
            CalibrationGrid(min_instances=100, max_instances=50)

    @pytest.mark.parametrize("ratios", [(math.nan,), (1.0, math.nan), (math.inf,)])
    def test_grid_rejects_aspect_ratios_that_are_not_finite(self, ratios: tuple[float, ...]) -> None:
        with pytest.raises(ValueError, match="aspect_ratios"):
            CalibrationGrid(aspect_ratios=ratios)

    @pytest.mark.parametrize("fail_at", [None, 3], ids=["returns", "raises"])
    def test_no_layer_buffer_is_held_after_calibrating(self, monkeypatch, fail_at: int | None) -> None:
        buffers, ids = [], set()
        solve = tourlength.closed_tour_lengths_batch

        def spy(pts, dtype):  # binds no local to the buffer: the raise keeps this frame alive
            buffers.append(weakref.ref(tsp._resident.get()))
            ids.add(id(tsp._resident.get()))
            if len(buffers) == fail_at:
                raise RuntimeError("a cell failed")
            return solve(pts, dtype=dtype)

        monkeypatch.setattr(tourlength, "closed_tour_lengths_batch", spy)
        if fail_at is None:
            calibrate_kstar(PERFBENCH_WARMUP)
        else:
            with pytest.raises(RuntimeError, match="a cell failed"):
                calibrate_kstar(PERFBENCH_WARMUP)
        assert buffers and len(ids) == 1  # one buffer for the whole calibration
        assert all(ref() is None for ref in buffers)
        assert tsp._resident.get() is None


class TestModelFit:
    def test_round_trip_recovers_coefficients(self) -> None:
        cells = [
            CalibrationCell(q=q, S=S, mean_kstar=kstar(TABLE1_MODEL, q, S), std_kstar=0.1, n_instances=1)
            for q in range(2, 16)
            for S in (1.0, 1.5, 2.0, 3.0)
        ]
        start = KStarModel(beta1=0.08, beta2=1.3, beta3=-0.1, beta4=-2.0, beta5=-2.0)
        fitted = fit_kstar_model(cells, x0=start)
        assert fitted.beta1 == pytest.approx(TABLE1_MODEL.beta1, abs=1e-6)
        assert fitted.beta2 == pytest.approx(TABLE1_MODEL.beta2, abs=1e-6)
        assert fitted.beta3 == pytest.approx(TABLE1_MODEL.beta3, abs=1e-6)
        assert grid_mape(lambda q, S: kstar(fitted, q, S), cells) == pytest.approx(0.0, abs=1e-6)

    # (grid, seeds, well posed): two or more aspect ratios and five or more cells whose
    # fit converges.  The warm-up grid's fit does not converge at seed 1 (scipy's
    # neither), and with one aspect ratio beta1 and beta2 cannot be told apart.
    ORACLE_GRIDS = {
        "pinned": (PINNED_GRID, (5,), True),
        "perfbench_square": (PERFBENCH_SQUARE, (0, 7), True),
        "perfbench_elongated": (PERFBENCH_ELONGATED, (0, 7), True),
        "default": (CalibrationGrid(), (0,), True),
        "perfbench_warmup": (PERFBENCH_WARMUP, (0, 1, 2, 3), False),
        "one_aspect_ratio_1": (dataclasses.replace(PERFBENCH_SQUARE, aspect_ratios=(1.0,)), (0,), False),
        "one_aspect_ratio_3": (dataclasses.replace(PERFBENCH_SQUARE, aspect_ratios=(3.0,)), (0,), False),
    }

    @pytest.mark.parametrize("name,seed", [(name, s) for name, (_, seeds, _) in ORACLE_GRIDS.items() for s in seeds])
    def test_matches_scipy_least_squares(self, name: str, seed: int) -> None:
        # the oracle is the fit as it ran on scipy's MINPACK Levenberg-Marquardt
        grid, _, well_posed = self.ORACLE_GRIDS[name]
        result = calibrate_kstar(grid, seed=seed)
        residuals = _relative_residuals(result.cells)
        start = np.array(dataclasses.astuple(TABLE1_MODEL))
        want = least_squares(residuals, start, method="lm", xtol=1e-12, ftol=1e-12).x
        got = np.array(dataclasses.astuple(result.model))
        assert np.isfinite(got).all()
        assert _ssq(residuals, got) <= _ssq(residuals, want) * (1 + 1e-10)
        if well_posed:
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("n_cells", [1, 2, 3, 4])
    def test_grids_of_fewer_cells_than_coefficients(self, mini_result, n_cells: int) -> None:
        cells = mini_result.cells[:n_cells]
        fitted = np.array(dataclasses.astuple(fit_kstar_model(cells)))
        residuals = _relative_residuals(cells)
        assert np.isfinite(fitted).all()
        assert _ssq(residuals, fitted) <= _ssq(residuals, np.array(dataclasses.astuple(TABLE1_MODEL)))

    def test_a_solve_that_does_not_converge_stops_at_the_evaluation_cap(self) -> None:
        # exp(-x) has its least square at infinity: every step is accepted, and none is
        # small against x or cuts the sum of squares by as little as 1e-12 of it
        calls = 0

        def residuals(x: np.ndarray) -> np.ndarray:
            nonlocal calls
            calls += 1
            return np.exp(-x)

        x = _levenberg_marquardt(residuals, np.array([1.0]))
        # 100*(n+1) = 200 evaluations at the start and the trial points, plus one
        # forward difference before each of the 199 trials
        assert calls == 200 + 199
        assert np.isfinite(x).all() and x[0] > 10.0

    def test_rejects_an_empty_grid(self) -> None:
        with pytest.raises(ValueError, match="at least one calibration cell"):
            fit_kstar_model([])

    @pytest.mark.parametrize("bad", [0.0, -1.1, math.nan, math.inf])
    def test_rejects_a_mean_that_is_not_finite_and_positive(self, mini_result, bad: float) -> None:
        cells = list(mini_result.cells)
        cells[2] = dataclasses.replace(cells[2], mean_kstar=bad)
        with pytest.raises(ValueError, match=r"mean_kstar of cell \(q=3, S=1.0\)"):
            fit_kstar_model(cells)

    def test_grid_mape_of_biased_predictor(self) -> None:
        cells = [
            CalibrationCell(q=q, S=1.0, mean_kstar=1.0, std_kstar=0.1, n_instances=1)
            for q in range(2, 6)
        ]
        assert grid_mape(lambda q, S: 1.1, cells) == pytest.approx(10.0)


def _relative_residuals(cells):
    """The fit's objective: k* over each cell's mean, minus 1, as a function of the coefficients."""
    qs = np.array([c.q for c in cells], dtype=float)
    ss = np.array([c.S for c in cells], dtype=float)
    ys = np.array([c.mean_kstar for c in cells])
    return lambda beta: KStarModel(*beta).units(qs, ss) / ys - 1.0


def _ssq(residuals, beta: np.ndarray) -> float:
    r = residuals(beta)
    return float(r @ r)
