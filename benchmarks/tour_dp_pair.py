"""Layer benchmark of the Held-Karp tour DP: two source trees, call by call in one process.

Loads ``drcflex/tsp.py`` from a base tree (``--base``) and from this tree
(``--src``) under two module names, and times both on the shapes of
``tour_dp.py``: one tour with its visit order (``exact_tour``) at its single-tour q, the
batched float32 lengths at B = 250 and the simulator's float64 lengths-only
tours at its (q, B) pairs.  Each call's instances are drawn once and solved
by both trees back to back, the tree that goes first alternating from call to
call.  So a drift in the host's speed, which on a shared VM moves separate
runs of ``tour_dp.py`` by up to 2x, reaches both sides alike, and a change
of a few percent shows.  The length batches run as a calibration runs
them: each side inside its tree's ``_resident_layers`` for the shape, where
the tree has one.  Per shape the entry records each side's median time per
tour and mean minor page faults per call (``ru_minflt`` before and after
it), their time ratio and the number of calls the change won, after one
untimed call per side that builds the index tables.  It is written into
``BENCH_layers.json`` as layer ``tour_dp_pair`` under ``--label``.

Run it from the repository root::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q <commit>
    python benchmarks/tour_dp_pair.py --label take --base /tmp/parent/src

Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import importlib.util
import resource
import sys
import time
from pathlib import Path

# tour_dp pins the BLAS threads, so it must load before numpy
from tour_dp import (
    BATCH_Q, BATCH_SIZE, ROOT, SEED, SINGLE_Q, WINDOW_BATCHES, git_commit, machine, source_digest, window_lengths,
    write_entry,
)

import numpy as np


def load_tsp(src: Path, name: str):
    """``drcflex/tsp.py`` of the tree ``src`` as a module named ``name``."""
    spec = importlib.util.spec_from_file_location(name, src / "drcflex" / "tsp.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


def shapes() -> list[tuple[str, int, int]]:
    return (
        [("one tour", q, 1) for q in SINGLE_Q]
        + [("lengths", q, BATCH_SIZE) for q in BATCH_Q]
        + [("windows", q, B) for q, B in WINDOW_BATCHES]
    )


def solve(tsp, kind: str, pts: np.ndarray) -> None:
    if kind == "lengths":
        tsp.closed_tour_lengths_batch(pts, dtype=np.float32)
    elif kind == "windows":
        window_lengths(tsp)(pts)
    else:
        tsp.exact_tour(tsp.PointSet(pts[0]))


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(base, change, calls: int, seed: int) -> list[dict]:
    rows = []
    for kind, q, B in shapes():
        rng = np.random.default_rng((seed, 300 + q, B))
        times = {"base": [], "change": []}
        faults = {"base": [], "change": []}
        with contextlib.ExitStack() as scopes:
            for tsp in (base, change):
                if kind == "lengths" and hasattr(tsp, "_resident_layers"):
                    scopes.enter_context(tsp._resident_layers([(q, B)], np.float32))
            for i in range(calls + 1):
                pts = rng.random((B, q, 2))
                for side in ("base", "change") if i % 2 else ("change", "base"):
                    f0, t0 = minor_faults(), time.perf_counter()
                    solve(base if side == "base" else change, kind, pts)
                    if i:  # the first call of each side builds the index tables
                        times[side].append(time.perf_counter() - t0)
                        faults[side].append(minor_faults() - f0)
        old, new = np.array(times["base"]), np.array(times["change"])
        row = {
            "kind": kind, "q": q, "B": B,
            "base_us_per_tour": float(np.median(old)) / B * 1e6,
            "change_us_per_tour": float(np.median(new)) / B * 1e6,
            "ratio": float(np.median(new) / np.median(old)),
            "change_faster": int((new < old).sum()),
            "base_faults_per_call": float(np.mean(faults["base"])),
            "change_faults_per_call": float(np.mean(faults["change"])),
            "calls": calls,
        }
        rows.append(row)
        print(f"{kind:8s} q={q:2d} B={B:3d}: base {row['base_us_per_tour']:10.3f} us, change "
              f"{row['change_us_per_tour']:10.3f} us per tour, ratio {row['ratio']:.3f}, "
              f"change faster in {row['change_faster']}/{calls}; minor faults per call: base "
              f"{row['base_faults_per_call']:.1f}, change {row['change_faults_per_call']:.1f}", flush=True)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True, help="entry name, e.g. the change's name")
    parser.add_argument("--base", type=Path, required=True, help="source tree of the base commit")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree of the change")
    parser.add_argument("--calls", type=int, default=40, help="timed calls per side and shape")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    trees = {"base": args.base.resolve(), "change": args.src.resolve()}
    for tree in trees.values():
        if not (tree / "drcflex" / "tsp.py").is_file():
            parser.error(f"no drcflex/tsp.py under {tree}")

    rows = measure(load_tsp(trees["base"], "tsp_base"), load_tsp(trees["change"], "tsp_change"), args.calls, SEED)
    entry = {
        "layer": "tour_dp_pair",
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_commit": git_commit(trees["change"]),
        "source_sha256": source_digest(trees["change"]),
        "base_git_commit": git_commit(trees["base"]),
        "base_source_sha256": source_digest(trees["base"]),
        "calls": args.calls,
        "seed": SEED,
        "machine": machine(),
        "shapes": rows,
    }
    write_entry(args.out, entry)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
