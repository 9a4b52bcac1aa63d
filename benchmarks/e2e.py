"""End-to-end benchmark of the pipeline: wall times and SHA-256 digests of its outputs.

Each workload is a fixed call sequence with fixed seeds.  It records its
wall times and the SHA-256 of its outputs, so two source trees can be
compared bit for bit as well as by speed:

- ``compare``: ``search_design`` for both strategies on the base scenario
  over perfbench's compare space, in about a second (the Tier-1 check);
- ``calibrate``: ``calibrate_kstar(CalibrationGrid(), seed=0)``, with one
  digest each of the ``repr`` of its cells, its model and its fit MAPE;
- ``search``: the full-space ``search_design`` of both strategies over the 32
  scenarios of ``default_scenario_grid(table2_params())``, which are also the
  campaign's searches.  Per strategy: the search logs bit for bit, their
  notes and feasibility alone, the optima (grid, K, w0 and sync multiples)
  and the winners' designs and costs;
- ``campaign``: the full-grid validation campaign, the calls of
  ``drcflex validate --full-grid --strategy both --runs 1000``: one
  ``run_validation(..., min_runs=1000, seed=0)`` at each search's optimum.
  The digest runs over ``repr(dataclasses.asdict(report))`` of the 64
  reports, FF then SF, and per strategy; it shares ``search``'s searches and
  times simulation per strategy;
- ``campaign_reduced``: the same on every fourth scenario (16 reports),
  searches included, cheap enough for alternating pairs;
- ``critical``: criterion 6's ``find_critical_density`` on its
  ``CROSSOVER_SPACE``, digested as the density's repr;
- ``validate_iterate``: perfbench's ``Validate.iterate`` reports for its 20
  seed pairs (``stream_seed(s, 1, i, p)``, s = 0-9, i = 0-1), each
  ``repr(dataclasses.asdict(report))``, ff then sf, every check passing;
- ``cli``: every artifact of ``optimize``, ``compare``, ``validate --runs 200
  --max-grid 2 --max-k 8``, ``critical``, ``calibrate``, ``sweep --axis
  lambda --values 10,20,40`` and ``optimize --kstar-mode`` under each prior
  tour-length law (``yang``, ``chakraborti``, ``daganzo115``), all seed 0;
- ``tier1``: the wall time of the Tier-1 test suite, a timing only.

``--record LABEL`` writes an entry (commit with a ``-dirty`` flag, source
SHA-256, machine facts, and per workload its seconds and digests) into
``BENCH_e2e.json`` after every workload, replacing an entry of the same
label and putting it last.  ``--check`` recomputes the digests and names
every one that differs from the last recorded entry, or from the entry
``--against`` names; it exits 1 if any differs or is missing.  ``--only``
selects workloads.  The Tier-1 test checks ``compare`` against ``change``.
Run it from the repository root, recording ``parent`` before ``change`` so
that ``change`` is the last entry::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q <commit>
    python benchmarks/e2e.py --record parent --src /tmp/parent/src
    python benchmarks/e2e.py --record change
    python benchmarks/e2e.py --check --against change

``--src`` selects the source tree ``drcflex`` is imported from, and with it
the ``perfbench`` and ``tests`` next to it.  A full run takes a few minutes,
most of it the campaign and Tier-1.  Only the standard library, numpy and
the package's own dependencies are used.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import functools
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# tour_dp pins the BLAS threads, so it must load before numpy
from tour_dp import ROOT, git_commit, machine, source_digest

STRATEGIES = ("ff", "sf")
# run label -> command and its options; a run's artifacts are digested as cli.<label>.<file>
CLI_RUNS = {
    "optimize": ["optimize"],
    "compare": ["compare"],
    "validate": ["validate", "--runs", "200", "--max-grid", "2", "--max-k", "8"],
    "critical": ["critical"],
    "calibrate": ["calibrate"],
    "sweep": ["sweep", "--axis", "lambda", "--values", "10,20,40"],
    **{f"optimize_{mode}": ["optimize", "--kstar-mode", mode] for mode in ("yang", "chakraborti", "daganzo115")},
}


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()


class _Searches:
    """Digests of many ``search_design`` results of one strategy, fed one at a time."""

    KINDS = ("log", "outcomes", "optima", "winners")

    def __init__(self) -> None:
        self.h = {kind: hashlib.sha256() for kind in self.KINDS}

    def add(self, result) -> None:
        best, log = result.best, result.search_log
        parts = {
            "log": repr(log),
            "outcomes": repr(tuple((e.M, e.N, e.K, e.w0, e.feasible, e.note) for e in log)),
            "optima": repr((best.grid.M, best.grid.N, best.K, best.w0, tuple(zd.gamma for zd in best.zones))),
            "winners": repr((best, result.cost)),
        }
        for kind, text in parts.items():
            self.h[kind].update(text.encode())

    def digests(self, prefix: str) -> dict[str, str]:
        return {f"{prefix}.{kind}": h.hexdigest() for kind, h in self.h.items()}


class Pipeline:
    """The workloads, run against one imported ``drcflex`` source tree."""

    def __init__(self, src: Path) -> None:
        self.src = src
        sys.path.insert(0, str(src))
        import drcflex

        if Path(drcflex.__file__).resolve().parent != src / "drcflex":
            raise RuntimeError(f"imported drcflex from {drcflex.__file__}, not {src}")
        self.dx = drcflex
        self.strategy = {"ff": drcflex.FULLY_FLEXIBLE, "sf": drcflex.SEMI_FLEXIBLE}
        self.params = drcflex.table2_params()
        from drcflex.experiments import default_scenario_grid

        self.scenarios = default_scenario_grid(self.params)

    def _space(self, label: str, **ranges):
        return self.dx.SearchSpace(strategy=self.strategy[label], **ranges)

    def compare(self) -> tuple[dict, dict]:
        space = json.loads((self.src.parent / "perfbench" / "references.json").read_text())["compare"]["space"]
        ranges = {"M_range": tuple(space["M"]), "N_range": tuple(space["N"]), "K_range": tuple(space["K"])}
        seconds, digests = {}, {}
        for label in STRATEGIES:
            t0 = time.perf_counter()
            result = self.dx.search_design(self.params, self._space(label, **ranges), self.dx.TABLE1_MODEL)
            seconds[label] = time.perf_counter() - t0
            found = _Searches()
            found.add(result)
            digests.update(found.digests(f"compare.{label}"))
        return seconds, digests

    def calibrate(self) -> tuple[dict, dict]:
        t0 = time.perf_counter()
        r = self.dx.calibrate_kstar(self.dx.CalibrationGrid(), seed=0)
        seconds = {"total": time.perf_counter() - t0}
        parts = {"cells": r.cells, "model": r.model, "fit_mape_pct": r.fit_mape_pct}
        return seconds, {f"calibrate.{kind}": _sha([repr(value)]) for kind, value in parts.items()}

    @functools.cache
    def _campaign_searches(self) -> tuple[dict, dict, dict]:
        """The full-space searches of the campaign: (seconds, digests, optima) per strategy."""
        seconds, digests, optima = {}, {}, {}
        for label in STRATEGIES:
            found, best = _Searches(), []
            t0 = time.perf_counter()
            for _, params in self.scenarios:
                result = self.dx.search_design(params, self._space(label), self.dx.TABLE1_MODEL)
                found.add(result)
                best.append(result.best)
            seconds[label] = time.perf_counter() - t0
            digests.update(found.digests(f"search.{label}"))
            optima[label] = best
        return seconds, digests, optima

    def search(self) -> tuple[dict, dict]:
        seconds, digests, _ = self._campaign_searches()
        return seconds, digests

    def _validate(self, scenarios, designs) -> tuple[float, list[str]]:
        t0 = time.perf_counter()
        reports = [
            self.dx.run_validation(params, design, self.dx.TABLE1_MODEL, min_runs=1000, seed=0)
            for (_, params), design in zip(scenarios, designs)
        ]
        elapsed = time.perf_counter() - t0
        return elapsed, [repr(dataclasses.asdict(r)) for r in reports]

    def campaign(self) -> tuple[dict, dict]:
        search_s, _, optima = self._campaign_searches()
        seconds, digests, every = {}, {}, []
        for label in STRATEGIES:
            seconds[f"search_{label}"] = search_s[label]
            seconds[f"simulate_{label}"], reports = self._validate(self.scenarios, optima[label])
            digests[f"campaign.{label}"] = _sha(reports)
            every += reports
        seconds["total"] = sum(seconds.values())
        digests["campaign.reports"] = _sha(every)
        return seconds, digests

    def campaign_reduced(self) -> tuple[dict, dict]:
        scenarios = self.scenarios[::4]
        seconds, digests = {}, {}
        for label in STRATEGIES:
            t0 = time.perf_counter()
            designs = [
                self.dx.search_design(params, self._space(label), self.dx.TABLE1_MODEL).best
                for _, params in scenarios
            ]
            seconds[f"search_{label}"] = time.perf_counter() - t0
            seconds[f"simulate_{label}"], reports = self._validate(scenarios, designs)
            digests[f"campaign_reduced.{label}"] = _sha(reports)
        seconds["total"] = sum(seconds.values())
        return seconds, digests

    def critical(self) -> tuple[dict, dict]:
        # criterion 6's space (tests/test_acceptance.py)
        space = self.dx.SearchSpace(M_range=(1, 2, 3), N_range=(1, 2, 3, 4, 5, 6), K_range=tuple(range(2, 17)))
        t0 = time.perf_counter()
        density = self.dx.find_critical_density(self.params, lo=15.0, hi=30.0, space=space, width=0.5)
        return {"total": time.perf_counter() - t0}, {"critical": _sha([repr(density)])}

    def validate_iterate(self) -> tuple[dict, dict]:
        bench = self.src.parent / "perfbench"
        sys.path.insert(0, str(bench))
        import workloads

        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        harness = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(harness)
        w = workloads.Validate()
        setup_checks = w.setup(harness.stream_seed(0, 0, 0))
        timed = {label: 0.0 for label in w.parts}

        @contextlib.contextmanager
        def part(label):
            t0 = time.perf_counter()
            yield
            timed[label] += time.perf_counter() - t0

        every, per = [], {label: [] for label in w.parts}
        failed = [c for c in setup_checks if not c[1]]
        for s in range(10):
            for i in range(2):
                _, reports, _ = w.iterate(tuple(harness.stream_seed(s, 1, i, p) for p in range(2)), part)
                failed += [c for c in w.check(reports) if not c[1]]
                for label in w.parts:
                    text = repr(dataclasses.asdict(reports[label]))
                    every.append(text)
                    per[label].append(text)
        if failed:
            raise RuntimeError(f"perfbench validate checks failed: {failed}")
        digests = {"validate_iterate": _sha(every)}
        digests.update({f"validate_iterate.{label}": _sha(texts) for label, texts in per.items()})
        return {**timed, "total": sum(timed.values())}, digests

    def cli(self) -> tuple[dict, dict]:
        from drcflex import cli

        seconds, digests = {}, {}
        with tempfile.TemporaryDirectory() as tmp:
            for label, (command, *extra) in CLI_RUNS.items():
                out = Path(tmp) / label
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([command, "--seed", "0", "--out", str(out), *extra])
                seconds[label] = time.perf_counter() - t0
                if code != 0:
                    raise RuntimeError(f"drcflex {' '.join([command, *extra])} exited with {code}")
                for path in sorted(out.iterdir()):
                    digests[f"cli.{label}.{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        return seconds, digests

    def tier1(self) -> tuple[dict, dict]:
        env = {**os.environ, "PYTHONPATH": str(self.src)}
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
            cwd=self.src.parent, env=env, capture_output=True, text=True,
        )
        seconds = {"total": time.perf_counter() - t0}
        summary = (done.stdout.strip().splitlines() or [""])[-1]
        print(f"  tier1: {summary}", flush=True)
        return seconds, {}


WORKLOADS = ("compare", "calibrate", "search", "campaign", "campaign_reduced", "critical",
             "validate_iterate", "cli", "tier1")


def compare_entries(now: dict, ref: dict) -> int:
    """Print each digest and timing against the reference entry; return how many digests differ or are missing."""
    bad = 0
    print(f"against entry {ref['label']!r} ({ref['git_commit'][:12]}):")
    for name, work in now.items():
        old = ref["workloads"].get(name)
        if old is None:
            print(f"  {name}: not in the reference entry")
            continue
        for key in sorted(set(work["digests"]) | set(old["digests"])):
            a, b = old["digests"].get(key), work["digests"].get(key)
            if a == b:
                state = "same"
            elif b is None:
                state, bad = "MISSING", bad + 1
            elif a is None:
                state = "new"
            else:
                state, bad = "DIFFERS", bad + 1
            print(f"  {state:8s} {key:40s} {(a or '-')[:16]} -> {(b or '-')[:16]}")
        for key, sec in work["seconds"].items():
            was = old["seconds"].get(key)
            print(f"  seconds  {name + '.' + key:40s} {'-' if was is None else f'{was:8.3f}'} -> {sec:8.3f}")
    print(f"{bad} digest(s) differ or are missing")
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="LABEL", help="write an entry under this label")
    mode.add_argument("--check", action="store_true", help="compare the digests with a recorded entry")
    parser.add_argument("--only", help=f"comma-separated workloads, of {', '.join(WORKLOADS)}")
    parser.add_argument("--against", metavar="LABEL", help="with --check: the entry to compare with (default: last)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding drcflex/")
    parser.add_argument("--file", type=Path, default=ROOT / "BENCH_e2e.json")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.only is None else tuple(args.only.split(","))
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {WORKLOADS}")
    src = args.src.resolve()
    if not (src / "drcflex" / "optimizer.py").is_file():
        parser.error(f"no drcflex/optimizer.py under {src}")
    doc = json.loads(args.file.read_text()) if args.file.exists() else {
        "benchmark": "end-to-end pipeline: wall times and output digests", "entries": []
    }
    ref = None
    if args.check:
        matching = [e for e in doc["entries"] if args.against in (None, e["label"])]
        if not matching:
            parser.error(f"no entry {args.against!r} in {args.file}" if args.against else f"no entry in {args.file}")
        ref = matching[-1]

    pipeline = Pipeline(src)
    results = {}
    entry = {
        "label": args.record,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_commit": git_commit(src),
        "source_sha256": source_digest(src),
        "machine": machine(),
        "workloads": results,
    }
    for name in names:
        print(f"{name} ...", flush=True)
        seconds, digests = getattr(pipeline, name)()
        results[name] = {"seconds": seconds, "digests": digests}
        print("  " + ", ".join(f"{k} {v:.3f} s" for k, v in seconds.items()), flush=True)
        if ref is None:
            # written after every workload, so Tier-1's check reads this
            # entry's `compare` digests when the tier1 workload runs it
            doc["entries"] = [e for e in doc["entries"] if e["label"] != args.record] + [entry]
            args.file.write_text(json.dumps(doc, indent=2) + "\n")
    if ref is not None:
        return 1 if compare_entries(results, ref) else 0
    print(f"wrote entry {args.record!r} to {args.file}")
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
