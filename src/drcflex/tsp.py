"""Exact shortest-tour solvers under the Manhattan metric.

One Held-Karp core steps through subset sizes k = 2..q-1 (the level order of
Held & Karp, 1962), each step a few numpy calls over every (subset, last
node) pair of that size, batched over B instances.  The tour-length
calibration uses it through ``closed_tour_lengths_batch`` (lengths only);
the simulator through ``closed_tours_batch`` (lengths and visit orders, read
from argmin parents), of which ``exact_tour`` is the B = 1 use.  A
permutation brute force is the independent cross-check.

Open tours with free endpoints are reduced to closed tours through a virtual
depot at zero distance from every point, so one DP core serves both modes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

TourMode = Literal["closed_cycle", "open_path"]

MAX_EXACT_POINTS = 20  # 2^(q-1) DP states; beyond this the DP is impractical
MAX_BRUTE_POINTS = 9

_MODES = ("closed_cycle", "open_path")

# Bytes of candidate values one layer step holds at a time: larger layers are
# solved in cache-sized pieces, which also caps the temporaries' memory.
_CHUNK_BYTES = 1 << 19
# Bytes of distance rows, two live layers and int8 parents one batched
# visit-order DP call may hold (from q = 16 one instance alone exceeds it).
_BATCH_BYTES = 1 << 20


class TourSizeError(ValueError):
    """Raised when an instance exceeds a solver's size capacity."""

    def __init__(self, q: int, limit: int, solver: str) -> None:
        self.q = q
        self.limit = limit
        super().__init__(f"{solver} handles at most {limit} points, got {q}")


@dataclass(frozen=True)
class PointSet:
    """An immutable set of 2 to 20 planar points, in visiting-problem order."""

    points: tuple[tuple[float, float], ...]

    def __init__(self, points: Iterable[Sequence[float]]) -> None:
        pts = tuple((float(x), float(y)) for x, y in points)
        if len(pts) < 2:
            raise ValueError(f"need at least 2 points, got {len(pts)}")
        if len(pts) > MAX_EXACT_POINTS:
            raise TourSizeError(len(pts), MAX_EXACT_POINTS, "PointSet")
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


@functools.cache
def _layers(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Index tables of the subset sizes k = 2..n over the free nodes 1..n.

    Subsets of each size are taken in increasing bitmask order, and a size's
    pairs (subset S, last node j) run over the members j of S in increasing
    order, so pair p of the r-th subset has index r*k + p.  Per size: the
    (P, k-1) int16 rows i*q + j of d(i, j) for the candidates i in S - j, the
    (P,) int16 last nodes j, and the (P,) int32 ranks of S - j one size down.
    Built on first use and kept for the process, one entry per n: 11 MB at n = 16,
    120 MB at n = 19, 260 MB at n = 20 (an open path on 20 points, padded by the depot).
    """
    q = n + 1
    masks = np.arange(1 << n)
    size = sum((masks >> b) & 1 for b in range(n))
    by_size = np.argsort(size, kind="stable")  # sizes ascending, masks ascending within
    starts = np.concatenate(([0], np.cumsum(np.bincount(size, minlength=n + 1))))
    rank = np.empty(1 << n, dtype=np.int32)
    rank[by_size] = np.arange(1 << n) - starts[size[by_size]]
    below = np.arange(1, q, dtype=np.int16)[:, None]  # the members of the size-1 subsets
    layers = []
    for k in range(2, n + 1):
        subsets = by_size[starts[k]:starts[k + 1]]
        members = np.nonzero((subsets[:, None] >> np.arange(n)) & 1)[1].reshape(-1, k)
        prev = rank[subsets[:, None] ^ (1 << members)].ravel()
        last = (members.ravel() + 1).astype(np.int16)
        layer = (below[prev] * q + last[:, None], last, prev)
        for table in layer:
            table.flags.writeable = False
        layers.append(layer)
        below = last.reshape(-1, k)
    return tuple(layers)


def _held_karp(dist: np.ndarray, visit_order: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Shortest closed tours from node 0 over a (q, q, B) distance array, q >= 2.

    Returns the B tour lengths and, with ``visit_order``, the (B, q) visit
    orders from node 0, read back from (pairs, B) int8 argmin parents.  Each
    candidate is ``dp[S - j, i] + d(i, j)`` over i in S - j, and ties go to
    the smallest i.
    """
    q, B = dist.shape[0], dist.shape[2]
    d = dist.reshape(q * q, B)  # row i*q + j holds d(i, j) of every instance
    dp = d[1:q]  # size 1: the leg from node 0 to each free node
    layers = _layers(q - 1)
    parents = []
    for edges, _, prev in layers:
        pairs, width = edges.shape
        dp_below = dp.reshape(len(dp) // width, width, B)
        dp = np.empty((pairs, B), dtype=d.dtype)
        if visit_order:
            par = np.empty((pairs, B), dtype=np.int8)
            parents.append(par)
        step = max(1, _CHUNK_BYTES // (width * max(B, 1) * d.itemsize))
        if visit_order:  # flat index of candidate 0 of each (pair, instance) in a piece
            first = np.arange(0, min(step, pairs) * width * B, width * B)[:, None] + np.arange(B)
        for lo in range(0, pairs, step):
            hi = lo + step
            cand = dp_below[prev[lo:hi]]
            cand += d[edges[lo:hi]]
            if visit_order:
                best = cand.argmin(axis=1)
                par[lo:hi] = best
                best *= B
                best += first[: len(best)]
                cand.take(best, out=dp[lo:hi])
            else:
                cand.min(axis=1, out=dp[lo:hi])
    finish = dp + d[q::q]  # close the tour: d(j, 0)
    if not visit_order:
        return finish.min(axis=0), None
    batch = np.arange(B)
    pair = finish.argmin(axis=0)
    length = finish[pair, batch]
    orders = np.zeros((B, q), dtype=np.intp)
    for k, (edges, last, prev), par in zip(range(q - 1, 1, -1), layers[::-1], parents[::-1]):
        orders[:, k] = last[pair]
        pair = prev[pair] * edges.shape[1] + par[pair, batch]
    orders[:, 1] = pair + 1
    return length, orders


def exact_tour(ps: PointSet, mode: TourMode = "closed_cycle") -> tuple[float, list[int]]:
    """Optimal tour length and visit order.

    ``closed_cycle`` returns to the first point of the reported order;
    ``open_path`` leaves both endpoints free.
    """
    _check_mode(mode)
    pts = np.array(ps.points)
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    if mode == "open_path":
        # Free-endpoint path == closed tour through a virtual depot (node 0)
        # at distance 0 from everything; the depot is dropped from the cycle.
        dist = np.pad(dist, ((1, 0), (1, 0)))
    length, orders = _held_karp(dist[:, :, None], visit_order=True)
    order = orders[0].tolist()
    if mode == "open_path":
        order = [v - 1 for v in order[1:]]
    return float(length[0]), order


def exact_tour_length(ps: PointSet, mode: TourMode = "closed_cycle") -> float:
    """Length of the optimal tour over ``ps`` under the Manhattan metric."""
    return exact_tour(ps, mode)[0]


def brute_force_tour_length(ps: PointSet, mode: TourMode = "closed_cycle") -> float:
    """Exhaustive-permutation optimum; independent of the DP solver.

    Only feasible for q <= 9 (8! orderings after fixing the closed-tour start).
    """
    _check_mode(mode)
    q = len(ps)
    if q > MAX_BRUTE_POINTS:
        raise TourSizeError(q, MAX_BRUTE_POINTS, "brute_force_tour_length")
    pts = np.asarray(ps.points)
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    if mode == "closed_cycle":
        perms = np.array([(0,) + p for p in itertools.permutations(range(1, q))])
        lengths = dist[perms, np.roll(perms, -1, axis=1)].sum(axis=1)
    else:
        perms = np.array(list(itertools.permutations(range(q))))
        lengths = dist[perms[:, :-1], perms[:, 1:]].sum(axis=1)
    return float(lengths.min())


def closed_tour_lengths_batch(points: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Exact closed-tour lengths for a batch of same-size instances.

    ``points`` has shape (B, q, 2); returns (B,) lengths.  Each layer step of
    the DP runs over the whole batch at once, which is what makes the
    calibration's half-million tours affordable.  ``dtype`` sets the DP
    precision; float32 halves the DP's memory at a ~1e-6 relative accuracy
    cost.
    """
    points = np.asarray(points, dtype=dtype)
    if points.ndim != 3 or points.shape[2] != 2:
        raise ValueError("expected points of shape (B, q, 2)")
    q = points.shape[1]
    if q < 2:
        raise ValueError("need at least 2 points per instance")
    if q > MAX_EXACT_POINTS:
        raise TourSizeError(q, MAX_EXACT_POINTS, "closed_tour_lengths_batch")
    dist = np.abs(points[:, :, None, :] - points[:, None, :, :]).sum(axis=3)
    if q == 2:
        return 2.0 * dist[:, 0, 1]
    if q == 3:
        return dist[:, 0, 1] + dist[:, 1, 2] + dist[:, 2, 0]
    return _held_karp(dist.transpose(1, 2, 0))[0]


def closed_tours_batch(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact closed tours and visit orders for a batch of same-size instances.

    ``points`` has shape (B, q, 2), q >= 2; returns the (B,) lengths and the
    (B, q) visit orders from point 0, each row equal to ``exact_tour`` on that
    instance.  Each DP call takes as many instances as keep its distance rows,
    two live layers and parents within ``_BATCH_BYTES``, and at least one.
    """
    B, q = points.shape[:2]
    pairs = [len(last) for _, last, _ in _layers(q - 1)]
    step = max(1, _BATCH_BYTES // ((q * q + 2 * max(pairs, default=q - 1)) * 8 + sum(pairs)))
    lengths = np.empty(B)
    orders = np.empty((B, q), dtype=np.intp)
    for lo in range(0, B, step):
        x, y = np.asarray(points[lo:lo + step], dtype=np.float64).T  # each (q, b)
        dist = np.abs(x[:, None] - x[None]) + np.abs(y[:, None] - y[None])
        lengths[lo:lo + step], orders[lo:lo + step] = _held_karp(dist, visit_order=True)
    return lengths, orders
