"""Tests for the exact rectilinear tour solvers."""

from __future__ import annotations

import hashlib
import math

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
        assert exact_tour_length(ps) == pytest.approx(6.0)

    def test_unit_square_perimeter(self) -> None:
        ps = PointSet([(0, 0), (1, 1), (0, 1), (1, 0)])
        assert exact_tour_length(ps) == pytest.approx(4.0)

    def test_collinear_points(self) -> None:
        ps = PointSet([(0.5, 0), (0, 0), (2, 0), (1, 0)])
        assert exact_tour_length(ps) == pytest.approx(4.0)

    def test_reported_order_is_consistent(self) -> None:
        ps = PointSet([(0, 0), (3, 0), (1, 0), (2, 0)])
        length, order = exact_tour(ps)
        assert order[0] == 0
        assert sorted(order) == [0, 1, 2, 3]
        pts = ps.points
        walked = sum(
            abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1])
            for a, b in zip(order, order[1:] + [order[0]])
        )
        assert walked == pytest.approx(length)


def walked_length(ps: PointSet, order: list[int]) -> float:
    """Manhattan length around ``order``, summed leg by leg from its start."""
    pts = ps.points
    total = 0.0
    for a, b in zip(order, order[1:] + order[:1]):
        total += abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1])
    return total


class TestVisitOrders:
    def test_orders_are_tours_of_the_reported_length(self) -> None:
        # The DP adds the legs in visiting order from the start, so walking
        # the order reproduces the reported length bit for bit.
        rng = np.random.default_rng(21)
        for q in range(2, 15):
            for _ in range(3 if q < 12 else 1):
                ps = random_points(rng, q)
                length, order = exact_tour(ps)
                assert sorted(order) == list(range(q))
                assert order[0] == 0
                assert walked_length(ps, order) == length, f"q={q}"

    # Lengths and orders of three fixed instances, as the pure-Python
    # bitmask Held-Karp solver reported them before the layered core
    # replaced it.
    PINNED = {
        5: (6.057364757227699, [0, 2, 4, 3, 1]),
        10: (8.861616528660742, [0, 9, 8, 2, 1, 7, 3, 5, 6, 4]),
        14: (8.925369718639518, [0, 6, 13, 7, 2, 9, 5, 11, 10, 12, 3, 1, 8, 4]),
    }

    @pytest.mark.parametrize("q", sorted(PINNED))
    def test_pinned_instances(self, q: int) -> None:
        ps = PointSet(np.random.default_rng(1000 + q).random((q, 2)) * 2.0)
        assert exact_tour(ps) == self.PINNED[q]


class TestAgainstBruteForce:
    def test_matches_brute_force(self) -> None:
        rng = np.random.default_rng(20)
        for trial in range(300):
            q = int(rng.integers(2, 8))
            ps = random_points(rng, q)
            assert exact_tour_length(ps) == pytest.approx(
                brute_force_tour_length(ps), abs=1e-9
            ), f"trial {trial}"

    @given(point_lists)
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_hypothesis(self, pts: list[tuple[float, float]]) -> None:
        ps = PointSet(pts)
        assert exact_tour_length(ps) == pytest.approx(
            brute_force_tour_length(ps), abs=1e-9
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
        # B = 1 and 2 are the narrow rows of a validation's large tours
        rng = np.random.default_rng(79)
        pts = rng.random((9, 11, 2))
        grid = rng.integers(0, 3, (9, 11, 2)).astype(float)
        batches = [p[:B] for p in (pts, grid) for B in (1, 2, 9)]

        def solve() -> list:
            return [
                (closed_tour_lengths_batch(p).tolist(), closed_tour_lengths_batch(p, dtype=np.float32).tolist(),
                 *(a.tolist() for a in closed_tours_batch(p)))
                for p in batches
            ]

        whole, tours = solve(), [exact_tour(PointSet(p)) for p in pts[:3]]
        monkeypatch.setattr(tsp, "_CHUNK_BYTES", 64)
        assert solve() == whole
        assert [exact_tour(PointSet(p)) for p in pts[:3]] == tours

    def test_results_do_not_depend_on_earlier_calls(self) -> None:
        # a narrow batch, a wide one at another q, then the narrow one again
        rng = np.random.default_rng(84)
        narrow, wide = rng.random((2, 12, 2)), rng.random((300, 5, 2))
        for solve in (closed_tours_batch, lambda p: (closed_tour_lengths_batch(p),)):
            first, _, again = solve(narrow), solve(wide), solve(narrow)
            assert [a.tobytes() for a in again] == [a.tobytes() for a in first]

    # SHA-256 of the lengths and orders of integer-grid (tie-heavy) batches,
    # as the core that read orders from int8 argmin parents returned them.
    PINNED_TIES = "657464ec00f2291c7fd2a4c61ce5ea6b01b58d548fd11eb491293a2d5864e1de"

    def test_tie_rule_pinned(self) -> None:
        rng = np.random.default_rng(81)
        digest = hashlib.sha256()
        for q in range(2, 15):
            lengths, orders = closed_tours_batch(rng.integers(0, 3, (30, q, 2)).astype(float))
            digest.update(lengths.astype("<f8").tobytes())
            digest.update(orders.astype("<i8").tobytes())
        assert digest.hexdigest() == self.PINNED_TIES

    # SHA-256 of closed_tour_lengths_batch lengths in float32 and float64, on
    # uniform and integer-grid batches of B = 1, 7 and 250 at q = 2..14, as
    # the distance rows built from a (B, q, q, 2) array gave them.
    PINNED_LENGTHS = "a43d4088e7843b09a366186e068ad8ab99494d5eaf87ab80fe1cc6efb3a1e4f7"

    def test_lengths_pinned(self) -> None:
        rng = np.random.default_rng(82)
        digest = hashlib.sha256()
        for q in range(2, 15):
            for B in (1, 7, 250):
                for pts in (rng.random((B, q, 2)) * 2.0, rng.integers(0, 3, (B, q, 2)).astype(float)):
                    for dtype, code in ((np.float32, "<f4"), (np.float64, "<f8")):
                        lengths = closed_tour_lengths_batch(pts, dtype=dtype)
                        assert lengths.dtype == dtype and lengths.shape == (B,)
                        digest.update(lengths.astype(code).tobytes())
        assert digest.hexdigest() == self.PINNED_LENGTHS

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

    def test_visit_order_shape_validation(self) -> None:
        # checked before any index table is built: q = 21 would take ~260 MB
        for bad in (np.zeros((4, 3)), np.zeros((4, 5, 3))):
            with pytest.raises(ValueError, match="shape"):
                closed_tours_batch(bad)
        with pytest.raises(ValueError, match="at least 2"):
            closed_tours_batch(np.zeros((4, 1, 2)))
        with pytest.raises(TourSizeError) as exc:
            closed_tours_batch(np.zeros((1, MAX_EXACT_POINTS + 1, 2)))
        assert exc.value.limit == MAX_EXACT_POINTS
        lengths, orders = closed_tours_batch(np.zeros((0, 6, 2)))
        assert lengths.shape == (0,) and orders.shape == (0, 6)


def held_bytes() -> int:
    """Bytes of the distinct arrays behind every index table ``tsp`` holds."""
    owners = {}
    for layers in tsp._held.values():
        for table in (t for layer in layers for t in layer):
            while table.base is not None:
                table = table.base
            owners[id(table)] = table.nbytes
    return sum(owners.values())


def table_bytes(n: int) -> int:
    """Bytes of the index table for n free nodes: per subset size k, C(n, k)*k
    pairs of k-1 int16 rows, an int16 last node and an int32 rank."""
    return sum(math.comb(n, k) * k * (2 * (k - 1) + 2 + 4) for k in range(2, n + 1))


class TestOneTable:
    """Every q is served from one index table, built for the largest q so far."""

    def test_smaller_q_match_a_freshly_built_table(self, monkeypatch) -> None:
        rng = np.random.default_rng(85)
        sizes = range(2, 18)
        # B = 1 and 2 uniform, B = 33 on the integer grid, where ties test the orders
        batches = {q: [rng.random((1, q, 2)), rng.random((2, q, 2)), rng.integers(0, 4, (33, q, 2)) * 1.0]
                   for q in sizes}

        def solve(q: int) -> list[bytes]:
            return [a.tobytes() for pts in batches[q] for a in closed_tours_batch(pts)]

        monkeypatch.setattr(tsp, "_held", {})
        fresh = {}
        for q in sizes:  # each q grows the table, so each is solved on a freshly built one
            fresh[q] = solve(q)
            assert max(tsp._held) == q - 1
        for q in reversed(sizes):  # all from prefix views of the q = 17 table
            assert solve(q) == fresh[q], f"descending q={q}"
        monkeypatch.setattr(tsp, "_held", {})
        for q in (10, 4, 13, 2, 16, 7, 11, 3, 17, 5, 14, 8, 12, 6, 15, 9):  # growth between views
            assert solve(q) == fresh[q], f"interleaved q={q}"

    def test_one_table_is_held_after_growth(self, monkeypatch) -> None:
        monkeypatch.setattr(tsp, "_held", {})
        rng = np.random.default_rng(86)
        for q in (7, 3, 12, 9, 16, 2, 14):
            exact_tour(random_points(rng, q))
        assert held_bytes() == table_bytes(15) == sum(t.nbytes for layer in tsp._held[15] for t in layer)
        assert sorted(tsp._held) == [1, 13, 15] and held_bytes() < 5e6  # views cleared at each rebuild


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
