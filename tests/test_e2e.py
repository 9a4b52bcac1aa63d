"""``benchmarks/e2e.py --check`` on its smallest workload, against the bits recorded as ``change``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _check(bench: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e.py"), "--check", "--against", "change", "--only", "compare",
         "--file", str(bench)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_check_passes_on_the_recorded_bits_and_names_a_moved_digest(tmp_path) -> None:
    doc = json.loads((ROOT / "BENCH_e2e.json").read_text())
    bench = tmp_path / "BENCH_e2e.json"
    bench.write_text(json.dumps(doc))
    same = _check(bench)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "0 digest(s) differ" in same.stdout

    # the entry compared with is named, so the order of the entries does not matter
    doc["entries"].sort(key=lambda e: e["label"] != "change")
    [change] = [e for e in doc["entries"] if e["label"] == "change"]
    change["workloads"]["compare"]["digests"]["compare.ff.log"] = "0" * 64
    bench.write_text(json.dumps(doc))
    moved = _check(bench)
    assert moved.returncode == 1, moved.stdout + moved.stderr
    differs = [line.split()[1] for line in moved.stdout.splitlines() if line.strip().startswith("DIFFERS")]
    assert differs == ["compare.ff.log"]
