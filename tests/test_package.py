"""The package runs on numpy alone: scipy serves only the tests, as an oracle."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import drcflex

# Run in a fresh interpreter, where a finder ahead of every other refuses each scipy
# import, so that one made at module level or inside a call fails, even if caught.
WITHOUT_SCIPY = """
import importlib, math, pkgutil, sys

refused = []

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            refused.append(name)
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
import drcflex
modules = [info.name for info in pkgutil.walk_packages(drcflex.__path__, "drcflex.")]
assert "drcflex.cli" in modules, modules
for name in modules:
    importlib.import_module(name)
grid = drcflex.CalibrationGrid(
    q_values=(2, 3, 5), aspect_ratios=(1.0, 2.0), min_instances=64, max_instances=128, batch_size=64
)
result = drcflex.calibrate_kstar(grid, seed=0)
assert all(math.isfinite(v) for v in (result.model.beta1, result.model.beta5, result.fit_mape_pct)), result
assert not refused and "scipy.optimize" not in sys.modules, refused
"""


def test_imports_and_calibrates_with_scipy_refused() -> None:
    src = str(Path(drcflex.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY], check=True, timeout=120, env={**os.environ, "PYTHONPATH": src}
    )
