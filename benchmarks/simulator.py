"""Layer benchmark of the simulator: ms per validation run and µs per batched tour.

Times ``drcflex.run_validation`` at the base-case optima (fully flexible:
2 x 2 zones, K = 8; semi-flexible: 1 x 4 zones, K = 9, w0 = 0.5) with
``min_runs=MIN_RUNS`` and a fixed seed, and reports the wall time per
simulated run (one simulated hour of every zone-direction).  It also times
the exact tours the fully flexible simulator solves, lengths only: one
float64 ``tsp._held_karp(tsp._manhattan(points))`` call on B = 1000 seeded
instances of q = 4, 6 and 8 points.  Each figure is the median of ``REPEATS`` timed calls after one
untimed call.  The entry, with the machine facts, is written into
``BENCH_layers.json`` as layer ``simulator`` under ``--label``, replacing an
entry of the same layer and label.

Run it from the repository root::

    python benchmarks/simulator.py --label change
    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q <commit>
    python benchmarks/simulator.py --label parent --src /tmp/parent/src

Only the standard library, numpy and the package's own dependencies are used.
"""

from __future__ import annotations

import argparse
import datetime
import sys
import time
from pathlib import Path

# tour_dp pins the BLAS threads, so it must load before numpy
from tour_dp import ROOT, git_commit, machine, source_digest, window_lengths, write_entry

import numpy as np

SEED = 0
MIN_RUNS = 300
REPEATS = 5
TOUR_Q = (4, 6, 8)
TOUR_BATCH = 1000
BASE_OPTIMA = {"ff": (2, 2, 8), "sf": (1, 4, 9)}  # (M, N, K) of the perfbench references


def median_time(call, repeats: int) -> tuple[float, object]:
    """(median seconds of ``repeats`` timed calls, last result), after one untimed call."""
    result = call()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result


def measure(drcflex, tsp, repeats: int) -> dict:
    params = drcflex.table2_params()
    ms_per_run, runs = {}, {}
    for label, strategy in (("ff", drcflex.FULLY_FLEXIBLE), ("sf", drcflex.SEMI_FLEXIBLE)):
        M, N, K = BASE_OPTIMA[label]
        space = drcflex.SearchSpace(strategy=strategy, M_range=(M,), N_range=(N,), K_range=(K,))
        design = drcflex.search_design(params, space, drcflex.TABLE1_MODEL).best
        sec, report = median_time(
            lambda: drcflex.run_validation(
                params, design, drcflex.TABLE1_MODEL, min_runs=MIN_RUNS, seed=SEED
            ),
            repeats,
        )
        ms_per_run[label], runs[label] = sec / report.n_runs * 1e3, report.n_runs
        print(f"{label}: {ms_per_run[label]:8.3f} ms per run ({report.n_runs} runs)", flush=True)
    tour_us = {}
    for q in TOUR_Q:
        pts = np.random.default_rng((SEED, q)).random((TOUR_BATCH, q, 2))
        sec, _ = median_time(lambda: window_lengths(tsp)(pts), repeats)
        tour_us[str(q)] = sec / TOUR_BATCH * 1e6
        print(f"tour q={q}: {tour_us[str(q)]:8.2f} us per tour", flush=True)
    return {
        "min_runs": MIN_RUNS,
        "runs": runs,
        "ms_per_run": ms_per_run,
        "tour_batch": TOUR_BATCH,
        "tour_us": tour_us,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding drcflex/")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "drcflex" / "simulator.py").is_file():
        parser.error(f"no drcflex/simulator.py under {src}")
    sys.path.insert(0, str(src))
    import drcflex
    from drcflex import tsp

    results = measure(drcflex, tsp, REPEATS)
    write_entry(args.out, {
        "layer": "simulator",
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_commit": git_commit(src),
        "source_sha256": source_digest(src),
        "repeats": REPEATS,
        "seed": SEED,
        "machine": machine(),
        **results,
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
