"""Layer benchmark of the Held-Karp tour DP: one tour and the batched DP, per q.

Times ``drcflex.tsp.exact_tour`` on one closed tour at q = 9, 12, 14 and 16
points, ``closed_tour_lengths_batch`` on B = 250 float32 tours at q = 10
and 12, and ``closed_tours_batch`` (lengths and visit orders, the
simulator's path) on B = 400 tours at q = 6, B = 45 at q = 9, B = 6 at
q = 11, B = 2 at q = 12 and B = 1 at q = 13, near the group sizes a fully
flexible validation solves (the last three are its large-tour tail, where
each row of a layer is narrow).  Each figure is the median
of ``--repeats`` timed calls on fresh seeded instances, after one untimed
call that builds any lazy tables (its time is kept as ``first_ms`` for
the single tours and the length batches).  The DP keeps one index table,
built for the largest q so far, and serves every smaller q from it, so the
length batches, which follow the q = 16 single tour, build no table: their
``first_ms`` is a cold call, not a build.  Last, it solves one q = 20 tour
twice: the first call builds the index table, and the second runs under
``tracemalloc``, which reads the float64 layers the tour keeps (see
``layer_bytes``) and the call's peak.  The kept layers are checked against
``LAYER_BOUND_MB``, the bound ROADMAP item 9 sets; the script exits 1 if
they are above it.  The entry, with the machine facts,
is written into ``BENCH_layers.json`` as layer ``tour_dp`` under
``--label``, replacing an entry of the same layer and label.

Run it from the repository root::

    python benchmarks/tour_dp.py --label change
    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q <commit>
    python benchmarks/tour_dp.py --label parent --src /tmp/parent/src

``--src`` selects the source tree the DP is imported from, so two commits
are measured by the same script on the same host.  Only the standard
library and numpy are used.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SINGLE_Q = (9, 12, 14, 16)
BATCH_Q = (10, 12)
BATCH_SIZE = 250
ORDER_BATCHES = ((6, 400), (9, 45), (11, 6), (12, 2), (13, 1))  # (q, B) of the visit-order timings
SEED = 0
LAYER_Q = 20
LAYER_BOUND_MB = 24.0  # layers one q = 20 visit-order tour may keep (ROADMAP item 9)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(src: Path) -> str:
    """HEAD of the repository holding ``src``, suffixed ``-dirty`` if ``src`` differs from it."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=src, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head, status = git("rev-parse", "HEAD"), git("status", "--porcelain", "--", ".")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + "-dirty" if status else head


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "drcflex").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
    }


def write_entry(out: Path, entry: dict) -> None:
    """Put ``entry`` into the layer-benchmark file, replacing its layer and label."""
    doc = {"benchmark": "layer benchmarks: tour DP, simulator", "entries": []}
    if out.exists():
        doc = json.loads(out.read_text())
    key = (entry["layer"], entry["label"])
    doc["entries"] = [e for e in doc["entries"] if (e["layer"], e["label"]) != key] + [entry]
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {entry['layer']} entry {entry['label']!r} to {out}")


def time_calls(call, make_input, repeats: int) -> tuple[float, float]:
    """(first call, median of the timed calls) in seconds."""
    t0 = time.perf_counter()
    call(make_input())
    first = time.perf_counter() - t0
    times = []
    for _ in range(repeats):
        arg = make_input()
        t0 = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t0)
    return first, float(np.median(times))


def layer_bytes(tsp, q: int, seed: int) -> tuple[float, int, int]:
    """Memory of one visit-order tour at ``q``, after a first call that builds the
    index table: (seconds of that first call, bytes held when the DP starts its
    half-tour join, peak bytes of the call), both from ``tracemalloc``.  At the
    join every layer is built and kept and no layer piece is live, so the held
    bytes are the kept layers and the distance rows.  A tree without ``_join``
    keeps every layer to the end; for it the held bytes are the peak."""
    rng = np.random.default_rng((seed, 300 + q))
    t0 = time.perf_counter()
    tsp.exact_tour(tsp.PointSet(rng.random((q, 2))))
    first = time.perf_counter() - t0
    ps = tsp.PointSet(rng.random((q, 2)))
    join, held = getattr(tsp, "_join", None), []

    def probe(n: int):
        held.append(tracemalloc.get_traced_memory()[0])
        return join(n)

    if join is not None:
        tsp._join = probe
    tracemalloc.start()
    try:
        tsp.exact_tour(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if join is not None:
            tsp._join = join
    return first, held[0] if held else peak, peak


def measure(tsp, repeats: int, single_q: tuple[int, ...], seed: int) -> dict:
    single, single_first, batch, batch_first = {}, {}, {}, {}
    for q in single_q:
        rng = np.random.default_rng((seed, q))
        first, med = time_calls(
            tsp.exact_tour,
            lambda: tsp.PointSet(rng.random((q, 2))),
            repeats,
        )
        single[str(q)], single_first[str(q)] = med * 1e3, first * 1e3
        print(f"one tour   q={q:2d}: {med * 1e3:10.3f} ms (first call {first * 1e3:.3f} ms)", flush=True)
    for q in BATCH_Q:
        rng = np.random.default_rng((seed, 100 + q))
        first, med = time_calls(
            lambda pts: tsp.closed_tour_lengths_batch(pts, dtype=np.float32),
            lambda: rng.random((BATCH_SIZE, q, 2)),
            repeats,
        )
        batch[str(q)], batch_first[str(q)] = med / BATCH_SIZE * 1e3, first / BATCH_SIZE * 1e3
        print(f"batched    q={q:2d}: {med / BATCH_SIZE * 1e3:10.4f} ms per tour (B={BATCH_SIZE}, float32)", flush=True)
    orders = {}
    for q, size in ORDER_BATCHES:
        rng = np.random.default_rng((seed, 200 + q))
        _, med = time_calls(tsp.closed_tours_batch, lambda: rng.random((size, q, 2)), repeats)
        orders[str(q)] = med / size * 1e3
        print(f"orders     q={q:2d}: {med / size * 1e3:10.4f} ms per tour (B={size}, float64)", flush=True)
    first, kept, peak = layer_bytes(tsp, LAYER_Q, seed)
    print(f"layers     q={LAYER_Q:2d}: {kept / 1e6:10.3f} MB of layers kept by one tour (bound {LAYER_BOUND_MB} MB), "
          f"peak {peak / 1e6:.3f} MB; first call {first:.3f} s", flush=True)
    return {
        "single_tour_ms": single,
        "single_tour_first_ms": single_first,
        "batch_ms_per_tour": batch,
        "batch_first_ms_per_tour": batch_first,
        "order_batch_sizes": {str(q): size for q, size in ORDER_BATCHES},
        "order_batch_ms_per_tour": orders,
        "layer_q": LAYER_Q,
        "layer_first_s": first,
        "layer_kept_mb": kept / 1e6,
        "layer_peak_mb": peak / 1e6,
        "layer_bound_mb": LAYER_BOUND_MB,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding drcflex/")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--single", default=",".join(map(str, SINGLE_Q)),
                        help="comma-separated q values for the one-tour timings")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    single_q = tuple(int(q) for q in args.single.split(","))

    src = args.src.resolve()
    if not (src / "drcflex" / "tsp.py").is_file():
        parser.error(f"no drcflex/tsp.py under {src}")
    sys.path.insert(0, str(src))
    from drcflex import tsp

    results = measure(tsp, args.repeats, single_q, SEED)
    entry = {
        "layer": "tour_dp",
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_commit": git_commit(src),
        "source_sha256": source_digest(src),
        "repeats": args.repeats,
        "seed": SEED,
        "machine": machine(),
        **results,
    }
    write_entry(args.out, entry)
    return int(results["layer_kept_mb"] > LAYER_BOUND_MB)


if __name__ == "__main__":
    raise SystemExit(main())
