"""Call tracing for the traced benchmark run, from outside the package.

The tracer replaces selected names in the ``drcflex`` modules' globals (and
the three entry points in ``workloads``) with timing wrappers, so every call
one layer makes into another is timed at the boundary without editing the
package.  ``restore()`` puts the original objects back.

Every wrapped call takes part in one call stack, so a call's self time is its
duration minus the time of the wrapped calls it made.  The stack's root is the
harness span opened around each iteration; its self time is the harness time.
The layer self times and the harness time therefore add up to the traced wall
time, and the benchmark checks that they do.

Coarse calls (search, calibration, validation, cells, batched tour DPs,
headway solves, cost totals) are also recorded as spans.  Hot calls (the cost
books, the expectation terms and the scalar tour solver, hundreds of thousands
per iteration) are only aggregated into per-name counters, because one record
per call would cost more than the call itself.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# The layers are the drcflex modules the benchmark attributes time to.
LAYERS = ("optimizer", "costs", "expectations", "tourlength", "tsp", "simulator")

COST_BOOKS = (
    "ff_wait_cost_zone",
    "ff_local_tour_cost_zone",
    "ff_agency_cost_direction",
    "sf_wait_cost_zone",
    "sf_local_tour_cost_zone",
    "sf_agency_cost_direction",
    "line_haul_cost_zone",
    "transfer_cost_zone",
)

# Per-layer metric names, in the order BENCHMARK.json lists them.
PER_LAYER_METRICS = (
    ("optimizer.combos", "count"),
    ("optimizer.feasible_frac", "ratio"),
    ("optimizer.low_occupancy_frac", "ratio"),
    ("optimizer.headway_solves", "count"),
    ("optimizer.headway_ms_p50", "ms"),
    ("optimizer.headway_ms_p99", "ms"),
    ("optimizer.gamma_solves", "count"),
    ("optimizer.self_s", "s"),
    ("costs.book_calls.ff", "count"),
    ("costs.book_calls.sf", "count"),
    ("costs.book_s.ff", "s"),
    ("costs.book_s.sf", "s"),
    ("costs.books_per_s", "1/s"),
    ("costs.gc_calls", "count"),
    ("costs.gc_s", "s"),
    ("costs.self_s", "s"),
    ("expectations.calls", "count"),
    ("expectations.s", "s"),
    ("tourlength.cells", "count"),
    ("tourlength.self_s", "s"),
    ("tourlength.fit_s", "s"),
    ("tsp.batch_calls", "count"),
    ("tsp.batch_tours", "count"),
    ("tsp.batch_s", "s"),
    ("tsp.batch_us_per_tour.q10", "us"),
    ("tsp.batch_us_per_tour.q12", "us"),
    ("tsp.batch_table_mb_max", "MB"),
    ("tsp.exact_calls", "count"),
    ("tsp.exact_s", "s"),
    ("tsp.exact_us_p50", "us"),
    ("tsp.exact_us_p99", "us"),
    ("tsp.exact_max_q", "count"),
    ("tsp.heuristic_dispatches", "count"),
    ("simulator.runs.ff", "count"),
    ("simulator.runs.sf", "count"),
    ("simulator.ms_per_run.ff", "ms"),
    ("simulator.ms_per_run.sf", "ms"),
    ("simulator.self_s.ff", "s"),
    ("simulator.self_s.sf", "s"),
    ("harness.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Timing wrappers, a shared call stack, counters and spans for one run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.tag = ""  # strategy part ("ff", "sf") or "" outside a part
        self.stats: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[list] = []
        self.batch_by_q: dict[int, list] = defaultdict(lambda: [0, 0.0])
        self.table_bytes_max = 0
        self.exact_max_q = 0
        self.iterations = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._root_t0 = 0.0

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, span: bool, sample: bool, note=None):
        stack = self._stack
        stats = self.stats
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, stack[-1][1]]  # [child time, innermost open span]
            if span:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1], self.workload])
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                rec = stats[(layer, name, self.tag)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if span:
                    spans[frame[1]][1] = t0
                    spans[frame[1]][2] = t1
                if sample:
                    self.samples[name].append(dt)
                if note is not None:
                    note(args, kwargs, dt)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, layer: str, name: str | None = None, *,
              span: bool = False, sample: bool = False, note=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper attributed to ``layer``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, layer, name or attr, span, sample, note))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self, workloads_module) -> None:
        """Wrap every layer boundary the three workloads cross."""
        from drcflex import costs, expectations, optimizer, simulator, tourlength

        # entry points, as the benchmark (the consumer) calls them
        self.patch(workloads_module, "search_design", "optimizer", span=True)
        self.patch(workloads_module, "calibrate_kstar", "tourlength", span=True)
        self.patch(workloads_module, "run_validation", "simulator", span=True)
        # optimizer -> optimizer, costs, tourlength
        self.patch(optimizer, "optimize_zone_headway", "optimizer", span=True, sample=True)
        self.patch(optimizer, "optimize_zone_gamma", "optimizer")
        self.patch(optimizer, "total_generalized_cost", "costs", span=True)
        for book in COST_BOOKS:
            self.patch(optimizer, book, "costs")
        self.patch(optimizer, "feasible_swath_widths", "tourlength")
        # costs -> tourlength; costs, simulator -> expectations (law methods)
        self.patch(costs, "feasible_swath_widths", "tourlength")
        law = expectations.WeibullTourLaw
        for method in ("mean_tour_units", "rider_tour_units", "tour_length_units"):
            self.patch(law, method, "expectations", f"WeibullTourLaw.{method}")
        # tourlength -> tourlength, tsp
        self.patch(tourlength, "_simulate_cell", "tourlength", span=True)
        self.patch(tourlength, "fit_kstar_model", "tourlength", span=True)
        self.patch(tourlength, "closed_tour_lengths_batch", "tsp", span=True, note=self._note_batch)
        # simulator -> tsp, costs, tourlength
        self.patch(simulator, "exact_tour", "tsp", sample=True, note=self._note_exact)
        self.patch(simulator, "total_generalized_cost", "costs", span=True)
        self.patch(simulator, "validate_design", "costs")
        self.patch(simulator, "feasible_swath_widths", "tourlength")

    def _note_batch(self, args, kwargs, dt: float) -> None:
        B, q = args[0].shape[0], args[0].shape[1]
        itemsize = np.dtype(kwargs.get("dtype", args[1] if len(args) > 1 else np.float64)).itemsize
        rec = self.batch_by_q[q]
        rec[0] += B
        rec[1] += dt
        if q > 3:  # q <= 3 is closed form, no DP table
            self.table_bytes_max = max(self.table_bytes_max, B * (1 << (q - 1)) * (q - 1) * itemsize)

    def _note_exact(self, args, kwargs, dt: float) -> None:
        self.exact_max_q = max(self.exact_max_q, len(args[0]))

    # -- iterations ------------------------------------------------------

    def begin_iteration(self) -> None:
        self._stack.append([0.0, len(self.spans)])
        self.spans.append(["harness.iteration", 0.0, 0.0, -1, self.workload])
        self._root_t0 = time.perf_counter()

    def end_iteration(self) -> None:
        t1 = time.perf_counter()
        frame = self._stack.pop()
        dt = t1 - self._root_t0
        rec = self.stats[("harness", "iteration", "")]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[0]
        self.spans[frame[1]][1] = self._root_t0
        self.spans[frame[1]][2] = t1
        self.iterations += 1

    def write_spans(self, path: Path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "workload": w}
            for n, s, e, p, w in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)

    # -- per-layer metrics -------------------------------------------------

    def _sum(self, field: int, layer: str | None = None, names=None, tag: str | None = None) -> float:
        return sum(
            rec[field]
            for (lay, name, t), rec in self.stats.items()
            if (layer is None or lay == layer)
            and (names is None or name in names)
            and (tag is None or t == tag)
        )

    def layer_metrics(self, counts: dict[str, float], overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics per traced iteration; idle layers read 0.

        ``counts`` holds output counts summed over the traced iterations
        (combos, feasible, low_occupancy, runs_ff, runs_sf, heuristic).
        """
        n = max(self.iterations, 1)
        calls, total, self_s = 0, 1, 2

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def pct(name: str, q: float, scale: float) -> float:
            vals = self.samples.get(name)
            return float(np.percentile(vals, q)) * scale if vals else 0.0

        books = set(COST_BOOKS)
        book_calls = self._sum(calls, "costs", books)
        book_s = self._sum(total, "costs", books)
        batch = self.batch_by_q
        wall = self._sum(total, "harness")
        layer_self = {lay: self._sum(self_s, lay) for lay in LAYERS}
        harness_self = self._sum(self_s, "harness")
        m = {
            "optimizer.combos": counts.get("combos", 0) / n,
            "optimizer.feasible_frac": ratio(counts.get("feasible", 0), counts.get("combos", 0)),
            "optimizer.low_occupancy_frac": ratio(counts.get("low_occupancy", 0), counts.get("combos", 0)),
            "optimizer.headway_solves": self._sum(calls, "optimizer", {"optimize_zone_headway"}) / n,
            "optimizer.headway_ms_p50": pct("optimize_zone_headway", 50, 1e3),
            "optimizer.headway_ms_p99": pct("optimize_zone_headway", 99, 1e3),
            "optimizer.gamma_solves": self._sum(calls, "optimizer", {"optimize_zone_gamma"}) / n,
            "optimizer.self_s": layer_self["optimizer"] / n,
            "costs.book_calls.ff": self._sum(calls, "costs", books, "ff") / n,
            "costs.book_calls.sf": self._sum(calls, "costs", books, "sf") / n,
            "costs.book_s.ff": self._sum(total, "costs", books, "ff") / n,
            "costs.book_s.sf": self._sum(total, "costs", books, "sf") / n,
            "costs.books_per_s": ratio(book_calls, book_s),
            "costs.gc_calls": self._sum(calls, "costs", {"total_generalized_cost"}) / n,
            "costs.gc_s": self._sum(total, "costs", {"total_generalized_cost"}) / n,
            "costs.self_s": layer_self["costs"] / n,
            "expectations.calls": self._sum(calls, "expectations") / n,
            "expectations.s": layer_self["expectations"] / n,
            "tourlength.cells": self._sum(calls, "tourlength", {"_simulate_cell"}) / n,
            "tourlength.self_s": layer_self["tourlength"] / n,
            "tourlength.fit_s": self._sum(total, "tourlength", {"fit_kstar_model"}) / n,
            "tsp.batch_calls": self._sum(calls, "tsp", {"closed_tour_lengths_batch"}) / n,
            "tsp.batch_tours": sum(rec[0] for rec in batch.values()) / n,
            "tsp.batch_s": self._sum(total, "tsp", {"closed_tour_lengths_batch"}) / n,
            "tsp.batch_us_per_tour.q10": ratio(batch[10][1], batch[10][0]) * 1e6 if 10 in batch else 0.0,
            "tsp.batch_us_per_tour.q12": ratio(batch[12][1], batch[12][0]) * 1e6 if 12 in batch else 0.0,
            "tsp.batch_table_mb_max": self.table_bytes_max / 1e6,
            "tsp.exact_calls": self._sum(calls, "tsp", {"exact_tour"}) / n,
            "tsp.exact_s": self._sum(total, "tsp", {"exact_tour"}) / n,
            "tsp.exact_us_p50": pct("exact_tour", 50, 1e6),
            "tsp.exact_us_p99": pct("exact_tour", 99, 1e6),
            "tsp.exact_max_q": float(self.exact_max_q),
            "tsp.heuristic_dispatches": counts.get("heuristic", 0) / n,
            "simulator.runs.ff": counts.get("runs_ff", 0) / n,
            "simulator.runs.sf": counts.get("runs_sf", 0) / n,
            "simulator.ms_per_run.ff": ratio(
                self._sum(total, "simulator", tag="ff"), counts.get("runs_ff", 0)) * 1e3,
            "simulator.ms_per_run.sf": ratio(
                self._sum(total, "simulator", tag="sf"), counts.get("runs_sf", 0)) * 1e3,
            "simulator.self_s.ff": self._sum(self_s, "simulator", tag="ff") / n,
            "simulator.self_s.sf": self._sum(self_s, "simulator", tag="sf") / n,
            "harness.self_s": harness_self / n,
            "trace.wall_s": wall / n,
            "trace.self_sum_frac": ratio(sum(layer_self.values()) + harness_self, wall),
            "trace.overhead_frac": overhead_frac,
        }
        return m
