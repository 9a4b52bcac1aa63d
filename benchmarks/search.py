"""Layer benchmark of the design search: seconds per ``search_design`` call.

Times ``drcflex.search_design`` on the base scenario (``table2_params``,
``TABLE1_MODEL``) over three spaces: the full default ``SearchSpace`` for
fully flexible and for semi-flexible routing, and perfbench's ``compare``
space (read from ``perfbench/references.json``), both strategies one after
the other.  Each figure is the median of ``REPEATS`` timed calls after one
untimed call.  It also records the peak resident set of one full-space
semi-flexible search run alone in a fresh interpreter.  The entry, with the
combination counts and the machine facts, is written into
``BENCH_layers.json`` as layer ``search`` under ``--label``, replacing an
entry of the same layer and label.

Run it from the repository root::

    python benchmarks/search.py --label change
    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q <commit>
    python benchmarks/search.py --label parent --src /tmp/parent/src

Only the standard library, numpy and the package's own dependencies are used.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

# tour_dp pins the BLAS threads, so it must load before numpy
from tour_dp import ROOT, git_commit, machine, source_digest, write_entry
from simulator import median_time

REPEATS = 3
COMPARE_SPACE = json.loads((ROOT / "perfbench" / "references.json").read_text())["compare"]["space"]

# One full-space SF search; prints the process's peak RSS in KiB: Linux's
# VmHWM, since ru_maxrss would also count the peak of the process that
# started this one, which by then has timed every search.
PEAK_RSS_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import drcflex
space = drcflex.SearchSpace(strategy=drcflex.SEMI_FLEXIBLE)
drcflex.search_design(drcflex.table2_params(), space, drcflex.TABLE1_MODEL)
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


def sf_full_peak_rss_mb(src: Path) -> float:
    """Peak RSS, in MB, of a fresh interpreter that runs one full-space SF search."""
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, str(src)], check=True, capture_output=True, text=True
    )
    return int(done.stdout.split()[-1]) / 1024


def measure(drcflex, repeats: int) -> dict:
    params = drcflex.table2_params()
    strategies = {"ff": drcflex.FULLY_FLEXIBLE, "sf": drcflex.SEMI_FLEXIBLE}
    compare = {"M_range": tuple(COMPARE_SPACE["M"]), "N_range": tuple(COMPARE_SPACE["N"]),
               "K_range": tuple(COMPARE_SPACE["K"])}
    runs = {f"{label}_full": [drcflex.SearchSpace(strategy=s)] for label, s in strategies.items()}
    runs["compare"] = [drcflex.SearchSpace(strategy=s, **compare) for s in strategies.values()]
    seconds, combos = {}, {}
    for name, spaces in runs.items():
        sec, results = median_time(
            lambda: [drcflex.search_design(params, space, drcflex.TABLE1_MODEL) for space in spaces],
            repeats,
        )
        seconds[name] = sec
        combos[name] = sum(len(r.search_log) for r in results)
        print(f"{name:8s}: {sec:8.3f} s ({combos[name]} combos)", flush=True)
    return {"seconds": seconds, "combos": combos, "compare_space": COMPARE_SPACE}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding drcflex/")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "drcflex" / "optimizer.py").is_file():
        parser.error(f"no drcflex/optimizer.py under {src}")
    sys.path.insert(0, str(src))
    import drcflex

    results = measure(drcflex, REPEATS)
    peak = sf_full_peak_rss_mb(src)
    print(f"sf_full peak RSS: {peak:.1f} MB (fresh process)", flush=True)
    write_entry(args.out, {
        "layer": "search",
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_commit": git_commit(src),
        "source_sha256": source_digest(src),
        "repeats": REPEATS,
        "machine": machine(),
        **results,
        "peak_rss_mb": {"sf_full": peak},
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
