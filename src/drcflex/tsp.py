"""Exact shortest-tour solvers under the Manhattan metric.

One Held-Karp core (Held & Karp, 1962) steps through subset sizes
k = 2..ceil(q/2), each step one ``np.minimum`` fold per candidate column over
every (subset, last node) pair of that size, batched over B instances, on rows
gathered by ``ndarray.take`` (fancy indexing costs more on narrow rows), then
closes each tour by joining the two paths from node 0 that share its
ceil(q/2)-th stop: 1.82x fewer candidate evaluations than the full depth at
q = 12 and 1.92x at q = 20, where a tour keeps 23.6 MB of float64 layers, not 39.8.
The tour-length calibration uses it through ``closed_tour_lengths_batch``
and the simulator directly, both for lengths only; ``exact_tour`` adds the
visit order of one tour, read back from the kept layers.  A permutation
brute force is the independent cross-check.  All take their distances from
``_manhattan``, in the DP's (q, 20, B) layout, and the DP its index tables
from ``_layers``, one table for every q, and ``_join``.

Memory is part of the DP's speed.  glibc serves an allocation of 128 KiB or
more with a fresh ``mmap``, whose pages fault in on first touch and go back
to the OS when freed.  So the lengths-only DP keeps its two live layers
resident while a calibration runs (``_resident_layers``, one buffer sized for
the calibration's widest layer, its halves used in turns), and a layer step
and the join fold in pieces whose temporaries stay under 128 KiB, so that
they come from the heap.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_EXACT_POINTS = 20  # 2^(q-1) DP states; beyond this the DP is impractical
MAX_BRUTE_POINTS = 9

# Bytes of one piece of a candidate column (pairs, B) that a layer step, or the join, folds at a
# time, and so of each of its gathered temporaries.  It stays, with malloc's header,
# below glibc's default 128 KiB mmap threshold, so the temporaries come from the heap:
# at 2^18, with the layers resident, q = 9-10 calls at B = 250 float32 faulted 96-196
# pages in per call and ran 18-22% slower.  No other size is more than 2.4% faster at any q = 9..13.
_CHUNK_BYTES = (1 << 17) - 4096


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


# n -> _layers(n): the largest n's own tables, and prefix views of them for each smaller n in use
_held: dict[int, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]] = {}


def _layers(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Index tables of the subset sizes k = 2..ceil((n+1)/2) over the free nodes 1..n,
    the sizes a tour over nodes 0..n needs before ``_join`` closes it.

    Subsets of each size are taken in increasing bitmask order, and a size's
    pairs (subset S, last node j) run over the members j of S in increasing
    order, so pair p of the r-th subset has index r*k + p.  Per size: the
    (P, k-1) int16 rows i*MAX_EXACT_POINTS + j of d(i, j) for the candidates
    i in S - j, the (P,) int16 last nodes j, and the (P,) int32 ranks of S - j
    one size down.  The subsets of 1..n come first in bitmask order, so every
    n's tables are prefixes of a larger n's: one table is kept, built for the
    largest n so far (2.5 MiB at n = 15, 59.6 MiB at n = 19), the old one dropped first.
    """
    if n in _held:
        return _held[n]
    top = max(_held, default=0)
    if n <= top:
        counts = (math.comb(n, k) * k for k in range(2, n // 2 + 2))
        _held[n] = tuple(tuple(t[:c] for t in layer) for layer, c in zip(_held[top], counts))
        return _held[n]
    _held.clear()  # the old table goes before the larger one is built
    masks = np.arange(1 << n)
    size = sum((masks >> b) & 1 for b in range(n))
    by_size = np.argsort(size, kind="stable")  # sizes ascending, masks ascending within
    starts = np.concatenate(([0], np.cumsum(np.bincount(size, minlength=n + 1))))
    rank = np.empty(1 << n, dtype=np.int32)
    rank[by_size] = np.arange(1 << n) - starts[size[by_size]]
    below = np.arange(1, n + 1, dtype=np.int16)[:, None]  # the members of the size-1 subsets
    layers = []
    for k in range(2, n // 2 + 2):
        subsets = by_size[starts[k]:starts[k + 1]]
        members = np.nonzero((subsets[:, None] >> np.arange(n)) & 1)[1].reshape(-1, k)
        prev = rank[subsets[:, None] ^ (1 << members)].ravel()
        last = (members.ravel() + 1).astype(np.int16)
        layer = (below[prev] * MAX_EXACT_POINTS + last[:, None], last, prev)
        for table in layer:
            table.flags.writeable = False
        layers.append(layer)
        below = last.reshape(-1, k)
    _held[n] = layers = tuple(layers)
    return layers


@functools.cache
def _join(n: int) -> np.ndarray:
    """For each pair (T, k) of the top layer of ``_layers(n)``, |T| = t = ceil((n+1)/2),
    the int32 index of its pair (U, k) of size n + 1 - t, U = ({1..n} - T) + {k}:
    the two paths from node 0 that meet at k make one tour over nodes 0..n.

    U is the complement of T - k, and complements reverse bitmask order, so U
    has rank C(n, t-1) - 1 - rank(T - k); k's place in U is the number of
    nodes below k that T - k lacks.  Built on first use for each n and kept
    (3.5 MiB at n = 19).
    """
    t = n // 2 + 1
    _, last, prev = _layers(n)[-1] if t > 1 else (None, np.ones(1, np.int16), np.zeros(1, np.int32))
    before = np.arange(len(last), dtype=np.int32) % t  # members of T below k
    join = ((math.comb(n, t - 1) - 1 - prev) * (n + 1 - t) + last - 1 - before).astype(np.int32)
    join.flags.writeable = False
    return join


# The lengths-only DP's layer buffer while ``_resident_layers`` is entered, else None
_resident: ContextVar[np.ndarray | None] = ContextVar("_resident", default=None)


def _widest_layer(q: int) -> int:
    """Pairs (subset S, last node j) in the widest DP layer of a q-point tour: max C(q-1, k)*k, k <= ceil(q/2)."""
    return max((math.comb(q - 1, k) * k for k in range(2, (q + 1) // 2 + 1)), default=0)


@contextlib.contextmanager
def _resident_layers(shapes: Iterable[tuple[int, int]], dtype) -> Iterator[None]:
    """Solve the lengths-only DP's layers in one buffer while the block runs.

    The buffer has two halves, each as large as the widest layer of the (q, B)
    batch shapes at ``dtype``; layer k is written to half k % 2 while it reads
    layer k - 1 from the other.  So a calibration maps its layer memory once,
    not on every call.  A layer that does not fit is allocated as outside the
    block.  Results never alias the buffer, and it is dropped when the block
    exits, an exception included.
    """
    half = max((_widest_layer(q) * B for q, B in shapes), default=0) * np.dtype(dtype).itemsize
    half = -(-half // 64) * 64  # the second half starts on a 64-byte boundary
    token = _resident.set(np.empty(2 * half, dtype=np.uint8))
    try:
        yield
    finally:
        _resident.reset(token)


def _manhattan(points: np.ndarray) -> np.ndarray:
    """The contiguous (q, max(q, MAX_EXACT_POINTS), B) distances |x_i - x_j| + |y_i - y_j|
    of (B, q, 2) points: row i*MAX_EXACT_POINTS + j of its (q*MAX_EXACT_POINTS, B) view
    holds d(i, j) of every instance when q <= MAX_EXACT_POINTS.  Columns j >= q are left unset."""
    x, y = np.ascontiguousarray(points.T)  # each (q, B)
    q = len(x)
    dist = np.empty((q, max(q, MAX_EXACT_POINTS), x.shape[1]), dtype=x.dtype)
    d = dist[:, :q]
    np.abs(np.subtract(x[:, None], x[None], out=d), out=d)
    d += np.abs(y[:, None] - y[None])
    return dist


def _held_karp(dist: np.ndarray, visit_order: bool = False) -> tuple[np.ndarray, list[int] | None]:
    """Shortest closed tours from node 0 over a ``_manhattan`` distance array, 2 <= q <= 20.

    Each candidate is ``dp[S - j, i] + d(i, j)`` over i in S - j; a layer step
    folds them in one column c (the c-th member of S - j) at a time with
    ``np.minimum``, on rows gathered by a bounds-checked ``take``.  The layers
    stop at t = ceil(q/2): a tour's length is ``dp[T, k] + dp[U, k]`` for the
    pair ``_join`` matches to (T, k), |T| = t, folded in pieces as a layer is.
    Returns the B tour lengths and, with ``visit_order`` (one instance, B = 1),
    its visit order from node 0: every layer is kept, the first shortest pair
    is taken, and its T path and reversed U path are read back by ``_path``.
    Without ``visit_order``, inside ``_resident_layers``, the layers are views
    of its buffer.
    """
    q, stride, B = dist.shape
    d = dist.reshape(q * stride, B)  # row i*stride + j holds d(i, j) of every instance
    dp = below = d[1:q]  # size 1: the leg from node 0 to each free node
    layers = _layers(q - 1)
    kept = [dp]
    space = None if visit_order else _resident.get()
    step = max(1, _CHUNK_BYTES // (max(B, 1) * d.itemsize))
    for turn, (edges, _, prev) in enumerate(layers):
        pairs, width = edges.shape
        below = dp  # frees the layer two sizes down before the next one is allocated
        size = pairs * B * d.itemsize
        if space is not None and 2 * size <= len(space):
            start = turn % 2 * (len(space) // 2)
            dp = space[start:start + size].view(d.dtype).reshape(pairs, B)
        else:
            dp = np.empty((pairs, B), dtype=d.dtype)
        for lo in range(0, pairs, step):
            rows, legs, best = prev[lo:lo + step] * width, edges[lo:lo + step], dp[lo:lo + step]
            np.add(below.take(rows, axis=0), d.take(legs[:, 0], axis=0), out=best)
            for c in range(1, width):
                cand = below.take(rows + c, axis=0)
                cand += d.take(legs[:, c], axis=0)
                np.minimum(best, cand, out=best)
        if visit_order:
            kept.append(dp)
    join = _join(q - 1)
    half = dp if q % 2 == 0 else below  # the layer of size q - t: the top one at even q, one below at odd q
    length = np.full(B, np.inf, dtype=d.dtype)
    pair = 0
    for lo in range(0, len(join), step):
        tours = half.take(join[lo:lo + step], axis=0)
        tours += dp[lo:lo + step]
        low = tours.min(axis=0)
        if visit_order and low[0] < length[0]:  # the first shortest pair
            pair = lo + int(tours.argmin())
        np.minimum(length, low, out=length)
    if not visit_order:
        return length, None
    t = len(kept)
    return length, [0] + _path(kept, layers, d, pair) + _path(kept[:q - t], layers, d, int(join[pair]))[-2::-1]


def _path(kept: list[np.ndarray], layers, d: np.ndarray, pair: int) -> list[int]:
    """The len(kept) free stops, from node 0 on, of one instance's shortest path that ends at
    ``pair`` of the top kept layer.  Each step recomputes the chosen pair's candidates from
    the layer step's operands, so ties go to the smallest i."""
    stops = []
    for k in range(len(kept) - 1, 0, -1):  # the pair's subset has k + 1 members
        edges, last, prev = layers[k - 1]
        rows = int(prev[pair]) * k
        stops.append(int(last[pair]))
        cand = kept[k - 1][rows:rows + k, 0] + d[edges[pair], 0]
        pair = rows + int(cand.argmin())
    return [pair + 1] + stops[::-1]


def exact_tour(ps: PointSet) -> tuple[float, list[int]]:
    """Optimal closed tour length and visit order, starting at point 0."""
    length, order = _held_karp(_manhattan(np.array(ps.points)[None]), visit_order=True)
    return float(length[0]), order


def exact_tour_length(ps: PointSet) -> float:
    """Length of the optimal closed tour over ``ps`` under the Manhattan metric."""
    return exact_tour(ps)[0]


@functools.cache
def _visit_orders(q: int) -> np.ndarray:
    """Every visit order of q points from point 0, one per row; read-only and
    kept for the process (2.9 MB at q = 9)."""
    perms = np.array([(0,) + p for p in itertools.permutations(range(1, q))])
    perms.flags.writeable = False
    return perms


def brute_force_tour_length(ps: PointSet) -> float:
    """Exhaustive-permutation closed-tour optimum; independent of the DP solver.

    Only feasible for q <= 9 (8! orderings after fixing the start).
    """
    q = len(ps)
    if q > MAX_BRUTE_POINTS:
        raise TourSizeError(q, MAX_BRUTE_POINTS, "brute_force_tour_length")
    dist = _manhattan(np.array(ps.points)[None])[:, :, 0]
    perms = _visit_orders(q)
    lengths = dist[perms, np.roll(perms, -1, axis=1)].sum(axis=1)
    return float(lengths.min())


def _instance_size(points: np.ndarray, solver: str) -> int:
    """The point count q of a (B, q, 2) batch, checked: 2 <= q <= MAX_EXACT_POINTS."""
    if points.ndim != 3 or points.shape[2] != 2:
        raise ValueError("expected points of shape (B, q, 2)")
    q = points.shape[1]
    if q < 2:
        raise ValueError("need at least 2 points per instance")
    if q > MAX_EXACT_POINTS:
        raise TourSizeError(q, MAX_EXACT_POINTS, solver)
    return q


def closed_tour_lengths_batch(points: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Exact closed-tour lengths for a batch of same-size instances.

    ``points`` has shape (B, q, 2); returns (B,) lengths.  Each layer step of
    the DP runs over the whole batch at once, which is what makes the
    calibration's half-million tours affordable.  ``dtype`` sets the DP
    precision; float32 halves the DP's memory at a ~1e-6 relative accuracy
    cost.
    """
    points = np.asarray(points, dtype=dtype)
    q = _instance_size(points, "closed_tour_lengths_batch")
    dist = _manhattan(points)
    if q == 3:
        return dist[0, 1] + dist[1, 2] + dist[2, 0]
    return _held_karp(dist)[0]

