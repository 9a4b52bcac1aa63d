"""Tests for the exact rectilinear tour solvers."""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

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
    """Manhattan length around ``order`` in the DP's order of addition: the legs
    from node 0 forward to the stop at position ceil(q/2), summed from node 0,
    plus the legs from node 0 backward to that stop, summed from node 0."""
    pts, meet = ps.points, (len(order) + 1) // 2
    halves = []
    for path in (order[:meet + 1], order[:1] + order[:meet - 1:-1]):
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1])
        halves.append(total)
    return halves[0] + halves[1]


class TestVisitOrders:
    def test_orders_are_tours_of_the_reported_length(self) -> None:
        # The DP adds the legs of each half-tour from node 0 on, then the two
        # halves, so walking the order that way reproduces the length bit for bit.
        rng = np.random.default_rng(21)
        for q in range(2, 15):
            for _ in range(3 if q < 12 else 1):
                ps = random_points(rng, q)
                length, order = exact_tour(ps)
                assert sorted(order) == list(range(q))
                assert order[0] == 0
                assert walked_length(ps, order) == length, f"q={q}"

    # Lengths and orders of three fixed instances, as the half-tour join
    # reports them: each the tour the full-depth DP found, walked the other
    # way, its length summed as two halves (q = 10 and 14 one ulp lower).
    PINNED = {
        5: (6.057364757227699, [0, 1, 3, 4, 2]),
        10: (8.86161652866074, [0, 4, 6, 5, 3, 7, 1, 2, 8, 9]),
        14: (8.925369718639516, [0, 4, 8, 1, 3, 12, 10, 11, 5, 9, 2, 7, 13, 6]),
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
    # as the half-tour join returns them (first shortest join pair, ties in
    # each half's read-back to the smallest predecessor).
    PINNED_TIES = "f4b8487e629890b2b3277993dfcc0f63cebee39ff7ce41371d276b71776f9d10"

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
    # the half-tour join sums them.
    PINNED_LENGTHS = "acd804335837e9f5c934e5d76a59457618fbd246c866586af13473d7f76d65dc"

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
    """Bytes of the index table for n free nodes: per subset size k = 2..ceil((n+1)/2),
    C(n, k)*k pairs of k-1 int16 rows, an int16 last node and an int32 rank."""
    return sum(math.comb(n, k) * k * (2 * (k - 1) + 2 + 4) for k in range(2, math.ceil((n + 1) / 2) + 1))


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


def brute_length(points: np.ndarray, orders: np.ndarray | None = None) -> float:
    """The shortest closed tour over ``points``: ``brute_force_tour_length`` up to
    its limit, else the shortest of ``orders``, every visit order from point 0."""
    if orders is None:
        return brute_force_tour_length(PointSet(points))
    dist = np.abs(points[:, None] - points[None]).sum(axis=2)
    return float(dist[orders, np.roll(orders, -1, axis=1)].sum(axis=1).min())


class TestHalfTourJoin:
    """Every tour is two paths from node 0 that meet at its ceil(q/2)-th stop."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_join_index_matches_a_brute_force_construction(self, m: int) -> None:
        def pairs(size: int) -> list[tuple[frozenset, int]]:
            """(subset, last node) pairs of a layer in the DP's order: subsets by bitmask, then members."""
            subsets = sorted(itertools.combinations(range(1, m + 1), size), key=lambda s: sum(1 << j for j in s))
            return [(frozenset(s), j) for s in subsets for j in s]

        t, stops = math.ceil((m + 1) / 2), frozenset(range(1, m + 1))
        other = pairs(m + 1 - t)
        where = {pair: i for i, pair in enumerate(other)}
        join = tsp._join(m)
        assert join.dtype == np.int32 and not join.flags.writeable
        assert join.tolist() == [where[(stops - T | {k}, k)] for T, k in pairs(t)]
        for (T, k), i in zip(pairs(t), join.tolist()):
            U, last = other[i]
            assert len(T) == t and last == k and T | U == stops and T & U == {k}

    def test_tie_heavy_orders_are_shortest_tours(self) -> None:
        rng = np.random.default_rng(88)
        every = np.array([(0,) + p for p in itertools.permutations(range(1, 10))])  # visit orders at q = 10
        for q in range(2, 11):
            pts = rng.integers(0, 3, (24 if q <= MAX_BRUTE_POINTS else 3, q, 2)).astype(float)
            lengths, orders = closed_tours_batch(pts)
            for p, length, order in zip(pts, lengths.tolist(), orders.tolist()):
                assert order[0] == 0 and sorted(order) == list(range(q)), f"q={q}"
                best = brute_length(p, None if q <= MAX_BRUTE_POINTS else every)
                assert length == pytest.approx(best, abs=1e-9), f"q={q}"
                assert walked_length(PointSet(p), order) == length, f"q={q}"

    def test_layers_stop_at_half_the_tour(self, monkeypatch) -> None:
        for n in range(1, 16):  # each built afresh
            monkeypatch.setattr(tsp, "_held", {})
            sizes = [edges.shape[1] + 1 for edges, _, _ in tsp._layers(n)]
            assert sizes == list(range(2, math.ceil((n + 1) / 2) + 1)), f"n={n}"
        assert held_bytes() == table_bytes(15)
        for n in range(1, 15):  # prefix views of the n = 15 table
            assert max((edges.shape[1] + 1 for edges, _, _ in tsp._layers(n)), default=1) == math.ceil((n + 1) / 2)

    def test_import_builds_no_join_index(self) -> None:
        code = (
            "import importlib, pkgutil, drcflex\n"
            "for info in pkgutil.walk_packages(drcflex.__path__, 'drcflex.'):\n"
            "    importlib.import_module(info.name)\n"
            "from drcflex import tsp\n"
            "assert tsp._join.cache_info().currsize == 0 and not tsp._held\n"
        )
        src = str(Path(tsp.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})


class TestResidentLayers:
    """Inside ``_resident_layers`` the lengths-only DP writes its layers to one buffer, in turns."""

    @pytest.mark.parametrize("plan", [[(13, 250)], [(9, 7)]], ids=["every layer fits", "small layers fit"])
    def test_reuse_leaks_nothing_between_calls(self, plan: list[tuple[int, int]]) -> None:
        # where only the small layers fit, layers from the buffer and fresh ones alternate
        rng = np.random.default_rng(87)
        calls = [(rng.random((B, q, 2)), dtype) for q in range(2, 14) for dtype in (np.float32, np.float64)
                 for B in (1, 7, 250)]
        narrow = {q: rng.random((2, q, 2)) for q in range(2, 14)}
        first = [closed_tour_lengths_batch(pts, dtype=dtype).tobytes() for pts, dtype in calls]
        tours = {q: [a.tobytes() for a in closed_tours_batch(pts)] for q, pts in narrow.items()}
        kept = []
        with tsp._resident_layers(plan, np.float64):
            space = tsp._resident.get()
            space.fill(0xFF)  # NaN in every float: a stale read would show
            for i in rng.permutation(len(calls)):
                pts, dtype = calls[i]
                lengths = closed_tour_lengths_batch(pts, dtype=dtype)
                assert lengths.tobytes() == first[i]
                assert not np.shares_memory(lengths, space)
                kept.append((lengths, first[i]))
                q = pts.shape[1]
                assert [a.tobytes() for a in closed_tours_batch(narrow[q])] == tours[q]
            assert not np.isnan(space.view(np.float64)).all()  # the buffer was used
        assert tsp._resident.get() is None
        assert all(lengths.tobytes() == bits for lengths, bits in kept)  # earlier results unchanged

    def test_buffer_is_sized_for_the_widest_layer(self) -> None:
        assert [tsp._widest_layer(q) for q in (2, 3, 4, 12, 15)] == [0, 2, 6, 2772, 24024]
        with tsp._resident_layers([(15, 128), (12, 250), (2, 1000)], np.float32):
            assert tsp._resident.get().nbytes == 2 * 24024 * 128 * 4


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
