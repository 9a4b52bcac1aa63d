"""Tests for the exact rectilinear tour solvers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcflex import tsp
from drcflex.tsp import (
    MAX_BRUTE_POINTS,
    MAX_EXACT_POINTS,
    PointSet,
    TourSizeError,
    brute_force_tour_length,
    closed_tour_lengths_batch,
    closed_tours_batch,
    exact_tour,
    exact_tour_length,
)

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=32)
point_lists = st.lists(st.tuples(coord, coord), min_size=2, max_size=7)


def random_points(rng: np.random.Generator, q: int) -> PointSet:
    return PointSet(rng.random((q, 2)) * 2.0)


class TestFixedInstances:
    def test_two_points(self) -> None:
        ps = PointSet([(0.0, 0.0), (1.0, 2.0)])
        assert exact_tour_length(ps, "closed_cycle") == pytest.approx(6.0)
        assert exact_tour_length(ps, "open_path") == pytest.approx(3.0)

    def test_unit_square_perimeter(self) -> None:
        ps = PointSet([(0, 0), (1, 1), (0, 1), (1, 0)])
        assert exact_tour_length(ps, "closed_cycle") == pytest.approx(4.0)
        assert exact_tour_length(ps, "open_path") == pytest.approx(3.0)

    def test_collinear_points(self) -> None:
        ps = PointSet([(0.5, 0), (0, 0), (2, 0), (1, 0)])
        assert exact_tour_length(ps, "open_path") == pytest.approx(2.0)
        assert exact_tour_length(ps, "closed_cycle") == pytest.approx(4.0)

    def test_reported_order_is_consistent(self) -> None:
        ps = PointSet([(0, 0), (3, 0), (1, 0), (2, 0)])
        length, order = exact_tour(ps, "closed_cycle")
        assert order[0] == 0
        assert sorted(order) == [0, 1, 2, 3]
        pts = ps.points
        walked = sum(
            abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1])
            for a, b in zip(order, order[1:] + [order[0]])
        )
        assert walked == pytest.approx(length)

    def test_open_path_order_visits_everything(self) -> None:
        ps = PointSet([(0, 0), (1, 2), (2, 0), (0.5, 0.5)])
        length, order = exact_tour(ps, "open_path")
        assert sorted(order) == [0, 1, 2, 3]
        pts = ps.points
        walked = sum(
            abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1])
            for a, b in zip(order, order[1:])
        )
        assert walked == pytest.approx(length)


def walked_length(ps: PointSet, order: list[int], closed: bool) -> float:
    """Manhattan length along ``order``, summed leg by leg from its start."""
    pts = ps.points
    legs = list(zip(order, order[1:] + order[:1] if closed else order[1:]))
    total = 0.0
    for a, b in legs:
        total += abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1])
    return total


class TestVisitOrders:
    @pytest.mark.parametrize("mode", ["closed_cycle", "open_path"])
    def test_orders_are_tours_of_the_reported_length(self, mode: str) -> None:
        # The DP adds the legs in visiting order from the start, so walking
        # the order reproduces the reported length bit for bit.
        rng = np.random.default_rng(21)
        for q in range(2, 15):
            for _ in range(3 if q < 12 else 1):
                ps = random_points(rng, q)
                length, order = exact_tour(ps, mode)
                assert sorted(order) == list(range(q))
                if mode == "closed_cycle":
                    assert order[0] == 0
                assert walked_length(ps, order, mode == "closed_cycle") == length, f"q={q}"

    # Lengths and orders of three fixed instances, as the pure-Python
    # bitmask Held-Karp solver reported them before the layered core
    # replaced it.
    PINNED = {
        5: (6.057364757227699, [0, 2, 4, 3, 1], 4.459897732146439, [2, 4, 3, 1, 0]),
        10: (
            8.861616528660742, [0, 9, 8, 2, 1, 7, 3, 5, 6, 4],
            7.029204643757746, [8, 9, 0, 4, 6, 5, 3, 7, 2, 1],
        ),
        14: (
            8.925369718639518, [0, 6, 13, 7, 2, 9, 5, 11, 10, 12, 3, 1, 8, 4],
            7.318940413696589, [8, 1, 3, 12, 10, 11, 5, 4, 0, 6, 9, 2, 7, 13],
        ),
    }

    @pytest.mark.parametrize("q", sorted(PINNED))
    def test_pinned_instances(self, q: int) -> None:
        ps = PointSet(np.random.default_rng(1000 + q).random((q, 2)) * 2.0)
        closed_len, closed_order, open_len, open_order = self.PINNED[q]
        assert exact_tour(ps, "closed_cycle") == (closed_len, closed_order)
        assert exact_tour(ps, "open_path") == (open_len, open_order)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("mode", ["closed_cycle", "open_path"])
    def test_matches_brute_force(self, mode: str) -> None:
        rng = np.random.default_rng(20)
        for trial in range(300):
            q = int(rng.integers(2, 8))
            ps = random_points(rng, q)
            assert exact_tour_length(ps, mode) == pytest.approx(
                brute_force_tour_length(ps, mode), abs=1e-9
            ), f"trial {trial}"

    @given(point_lists)
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_hypothesis(self, pts: list[tuple[float, float]]) -> None:
        ps = PointSet(pts)
        assert exact_tour_length(ps, "closed_cycle") == pytest.approx(
            brute_force_tour_length(ps, "closed_cycle"), abs=1e-9
        )


class TestInvariances:
    @given(point_lists, st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_translation_invariant(self, pts, dx: float, dy: float) -> None:
        base = exact_tour_length(PointSet(pts))
        moved = exact_tour_length(PointSet([(x + dx, y + dy) for x, y in pts]))
        assert moved == pytest.approx(base, abs=1e-6)

    @given(point_lists, st.floats(0.1, 4.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_scaling_scales_length(self, pts, c: float) -> None:
        base = exact_tour_length(PointSet(pts))
        scaled = exact_tour_length(PointSet([(c * x, c * y) for x, y in pts]))
        assert scaled == pytest.approx(c * base, rel=1e-6, abs=1e-6)

    @given(point_lists)
    @settings(max_examples=60, deadline=None)
    def test_axis_swap_invariant(self, pts) -> None:
        # The Manhattan metric treats the two axes symmetrically.
        assert exact_tour_length(PointSet([(y, x) for x, y in pts])) == pytest.approx(
            exact_tour_length(PointSet(pts)), abs=1e-9
        )

    @given(point_lists, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_input_order_invariant(self, pts, rnd) -> None:
        shuffled = list(pts)
        rnd.shuffle(shuffled)
        assert exact_tour_length(PointSet(shuffled)) == pytest.approx(
            exact_tour_length(PointSet(pts)), abs=1e-9
        )

    @given(point_lists)
    @settings(max_examples=60, deadline=None)
    def test_duplicate_point_is_free(self, pts) -> None:
        # A coincident copy can always be served in passing at zero cost.
        assert exact_tour_length(PointSet(pts + [pts[0]])) == pytest.approx(
            exact_tour_length(PointSet(pts)), abs=1e-9
        )

    @given(point_lists)
    @settings(max_examples=60, deadline=None)
    def test_open_path_never_longer_than_cycle(self, pts) -> None:
        ps = PointSet(pts)
        assert exact_tour_length(ps, "open_path") <= exact_tour_length(ps, "closed_cycle") + 1e-12


class TestBatchSolver:
    @pytest.mark.parametrize(
        "dtype, tol", [(np.float64, 1e-9), (np.float32, 1e-5)], ids=["float64", "float32"]
    )
    def test_matches_brute_force(self, dtype, tol: float) -> None:
        rng = np.random.default_rng(77)
        for q in (2, 3, 4, 6, 9):
            pts = rng.random((20, q, 2)) * 3.0
            batch = closed_tour_lengths_batch(pts, dtype=dtype)
            brute = [brute_force_tour_length(PointSet(p)) for p in pts]
            np.testing.assert_allclose(batch, brute, rtol=tol, atol=tol)

    def test_rows_equal_single_tours_bit_for_bit(self) -> None:
        # q = 3 is left out: its closed form adds the three legs in one
        # direction, where the DP may pick the other direction's sum.
        rng = np.random.default_rng(78)
        for q in (2, 4, 7, 10, 12):
            pts = rng.random((20, q, 2)) * 2.0
            batch = closed_tour_lengths_batch(pts)
            single = [exact_tour_length(PointSet(p)) for p in pts]
            assert batch.tolist() == single, f"q={q}"

    def test_visit_orders_equal_single_tours_bit_for_bit(self, monkeypatch) -> None:
        # Integer-grid instances have many equal-length tours, so they check
        # that every row breaks ties as a single tour does.
        rng = np.random.default_rng(80)
        for q in range(2, 15):
            for pts in (rng.random((12, q, 2)) * 2.0, rng.integers(0, 3, (12, q, 2)).astype(float)):
                lengths, orders = closed_tours_batch(pts)
                single = [exact_tour(PointSet(p)) for p in pts]
                assert [(l, o) for l, o in zip(lengths.tolist(), orders.tolist())] == single, f"q={q}"
                monkeypatch.setattr(tsp, "_BATCH_BYTES", 1)  # one instance per DP call
                split = closed_tours_batch(pts)
                monkeypatch.undo()
                assert split[0].tolist() == lengths.tolist() and split[1].tolist() == orders.tolist()

    def test_layer_pieces_do_not_change_results(self, monkeypatch) -> None:
        rng = np.random.default_rng(79)
        pts = rng.random((9, 11, 2))
        whole = closed_tour_lengths_batch(pts)
        tours = [exact_tour(PointSet(p), mode) for p in pts[:3] for mode in ("closed_cycle", "open_path")]
        monkeypatch.setattr(tsp, "_CHUNK_BYTES", 64)
        assert closed_tour_lengths_batch(pts).tolist() == whole.tolist()
        assert [exact_tour(PointSet(p), mode) for p in pts[:3] for mode in ("closed_cycle", "open_path")] == tours

    def test_float32_dp_is_close(self) -> None:
        rng = np.random.default_rng(8)
        pts = rng.random((64, 9, 2))
        lo = closed_tour_lengths_batch(pts, dtype=np.float32)
        hi = closed_tour_lengths_batch(pts, dtype=np.float64)
        np.testing.assert_allclose(lo, hi, rtol=1e-5, atol=1e-5)

    def test_shape_validation(self) -> None:
        with pytest.raises(ValueError, match="shape"):
            closed_tour_lengths_batch(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="at least 2"):
            closed_tour_lengths_batch(np.zeros((4, 1, 2)))
        with pytest.raises(TourSizeError):
            closed_tour_lengths_batch(np.zeros((1, MAX_EXACT_POINTS + 1, 2)))
        assert closed_tour_lengths_batch(np.zeros((0, 6, 2))).shape == (0,)


class TestSizeLimits:
    def test_point_set_bounds(self) -> None:
        with pytest.raises(ValueError, match="at least 2"):
            PointSet([(0.0, 0.0)])
        with pytest.raises(TourSizeError):
            PointSet([(float(i), 0.0) for i in range(MAX_EXACT_POINTS + 1)])
        with pytest.raises(ValueError, match="finite"):
            PointSet([(0.0, 0.0), (float("nan"), 1.0)])

    def test_brute_force_bound(self) -> None:
        ps = PointSet([(float(i), 0.0) for i in range(MAX_BRUTE_POINTS + 1)])
        with pytest.raises(TourSizeError) as exc:
            brute_force_tour_length(ps)
        assert exc.value.limit == MAX_BRUTE_POINTS

    def test_unknown_mode_rejected(self) -> None:
        ps = PointSet([(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="mode"):
            exact_tour_length(ps, "loop")  # type: ignore[arg-type]
