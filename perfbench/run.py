#!/usr/bin/env python3
"""Benchmark of the drcflex pipeline: design search, k* calibration, validation.

    python3 perfbench/run.py --workload {compare,calibrate,validate} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  It imports ``drcflex`` from ``src/`` next
to this directory, never an installed copy, and exits with code 2 when that
source is missing.  One process, no threads, BLAS pinned to one thread.

The run sets the workload up five times (``setup_s`` is the median), then
repeats the workload's iteration while another one fits in ``--seconds``,
always at least once, and checks every iteration's outputs outside the timed
section.  Every end-to-end time is taken at the reference speed of the host
(see ``speed.py``), which cancels the drift of a shared host's speed; the
plain wall times are printed beside them.  With ``--trace 1`` it instead
alternates untraced iterations with traced ones on the same seeds, timing
every layer boundary in the traced ones with plain wall time, and reports
per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
list each metric with its unit and the run's provenance.  The full record,
and with ``--trace 1`` the spans, are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUP_REPEATS = 5

# End-to-end metrics, in the order BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "wall_s": "s",
    "part1_s": "s",
    "part2_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Times the package's import in a fresh interpreter, at the reference speed.
IMPORT_PROBE = """
import speed
with speed.timed() as section:
    import drcflex
print(section.ref_s)
print(section.wall_s)
print(drcflex.__file__)
"""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("compare", "calibrate", "validate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def stream_seed(*key: int) -> int:
    """A 32-bit seed derived from the run seed and a stream key."""
    import numpy as np

    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def child_import_seconds(env: dict[str, str]) -> tuple[float, float]:
    """Import time of the package in a fresh interpreter: at the reference
    speed, and plain."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    ref_s, wall_s, module_file = out.stdout.split("\n")[:3]
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"child imported drcflex from {module_file}, not {SRC}")
    return float(ref_s), float(wall_s)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "drcflex").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args: argparse.Namespace, load_before: tuple[float, ...]) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


class Run:
    """Timed iterations of one workload, with their checks."""

    def __init__(self, workload, seed: int, timed=None) -> None:
        self.workload = workload
        self.seed = seed
        # speed.timed to take times at the reference speed, None for plain
        # wall time (the traced run)
        self.timed = timed
        self.tracer = None
        self.checks: list = []
        self.peak_rss_mb = 0.0

    @contextmanager
    def _part(self, label: str, times: dict[str, float], raw: dict[str, float]):
        if self.timed is not None:
            with self.timed(self.workload.kernel) as section:
                yield
            times[label] = section.ref_s
            raw[label] = section.wall_s
            return
        if self.tracer is not None:
            self.tracer.tag = label
        t0 = time.perf_counter()
        try:
            yield
        finally:
            times[label] = raw[label] = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.tag = ""

    def iterate(self, index: int) -> dict:
        """One iteration, timed at the reference speed unless ``timed`` is None."""
        seeds = tuple(stream_seed(self.seed, 1, index, p) for p in range(2))
        times: dict[str, float] = {}
        raw: dict[str, float] = {}
        part = lambda label: self._part(label, times, raw)  # noqa: E731
        if self.tracer is not None:
            self.tracer.begin_iteration()
        t0 = time.perf_counter()
        try:
            items, outputs, counts = self.workload.iterate(seeds, part)
        finally:
            wall = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.end_iteration()
        self.checks.extend(self.workload.check(outputs))
        if self.timed is not None:
            # At the reference speed the iteration is its two parts; the
            # bookkeeping between them takes microseconds.
            wall = sum(times.values())
        return {"wall_s": wall, "items": items, "parts": times, "raw_parts": raw, "counts": counts}

    def loop(self, seconds: float) -> list[dict]:
        """Iterate at least once, and again while another fits in ``seconds``."""
        start = time.perf_counter()
        done = [self.iterate(0)]
        # Peak memory is taken after the first iteration, whose inputs depend
        # only on the seed; how many more iterations fit depends on the host.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while _another_fits(start, len(done), seconds):
            done.append(self.iterate(len(done)))
        return done


def _another_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more iteration, at the mean pace so far, ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def end_to_end(run: Run, iterations: list[dict], setup_s: list[float]) -> dict[str, float]:
    p1, p2 = run.workload.parts
    return {
        "wall_s": statistics.median(it["wall_s"] for it in iterations),
        "part1_s": statistics.median(it["parts"][p1] for it in iterations),
        "part2_s": statistics.median(it["parts"][p2] for it in iterations),
        "items_per_s": statistics.median(it["items"] / it["wall_s"] for it in iterations),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": run.peak_rss_mb,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "drcflex" / "__init__.py").is_file():
        print(f"perfbench: no drcflex sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else [])
    )
    load_before = os.getloadavg()
    sys.path.insert(0, str(SRC))

    import drcflex

    if not Path(drcflex.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported drcflex from {drcflex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import speed
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    run = Run(workload, args.seed, speed.timed if args.trace == 0 else None)

    setup_s, setup_raw_s = [], []
    for rep in range(SETUP_REPEATS):
        imported_s, imported_raw_s = child_import_seconds(child_env)
        with speed.timed(workload.kernel) as prepared:
            setup_checks = workload.setup(stream_seed(args.seed, 0, rep))
        setup_s.append(imported_s + prepared.ref_s)
        setup_raw_s.append(imported_raw_s + prepared.wall_s)
    run.checks.extend(setup_checks)

    if args.trace == 0:
        iterations = run.loop(args.seconds)
        metrics = end_to_end(run, iterations, setup_s)
        units = END_TO_END_UNITS
        raw = {
            "wall_s": statistics.median(sum(it["raw_parts"].values()) for it in iterations),
            "setup_s": statistics.median(setup_raw_s),
        }
        print("plain wall time (not at the reference speed): "
              + ", ".join(f"{name} {value:.4g} s" for name, value in raw.items()))
    else:
        tr = tracing.Tracer(args.workload)
        untraced, traced = [], []
        start = time.perf_counter()
        # Each traced iteration follows an untraced one with the same seeds,
        # so the overhead compares equal work run close together in time.
        while not traced or _another_fits(start, len(traced), args.seconds):
            untraced.append(run.iterate(len(traced)))
            tr.install(workloads)
            run.tracer = tr
            try:
                traced.append(run.iterate(len(traced)))
            finally:
                run.tracer = None
                tr.restore()
        counts: dict[str, int] = {}
        for it in traced:
            for key, value in it["counts"].items():
                counts[key] = counts.get(key, 0) + value
        overhead = sum(it["wall_s"] for it in traced) / sum(it["wall_s"] for it in untraced) - 1.0
        metrics = tr.layer_metrics(counts, overhead)
        units = dict(tracing.PER_LAYER_METRICS)
        sum_frac = metrics["trace.self_sum_frac"]
        run.checks.append(("trace.self_times_sum", abs(sum_frac - 1.0) <= 0.05,
                           f"layer and harness self times sum to {sum_frac:.4f} of traced wall"))
        OUT_DIR.mkdir(exist_ok=True)
        tr.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        iterations = traced

    failed = [c for c in run.checks if not c[1]]
    for name, _, detail in failed:
        print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)
    p1, p2 = workload.parts
    print(f"workload {args.workload}: {len(iterations)} iterations, "
          f"part1 = {p1}, part2 = {p2}, items = {workload.item_unit}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    prov = provenance(args, load_before)
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(run.checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, provenance=prov, iterations=iterations, setup_s_samples=setup_s,
                  setup_raw_s_samples=setup_raw_s, failed_checks=[list(c) for c in failed])
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
