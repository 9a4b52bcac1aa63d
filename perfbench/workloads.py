"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop of calls through the package's public API,
the same calls the CLI makes.  One iteration has two timed parts, reported as
``part1_s`` and ``part2_s``:

- ``compare``: the fully flexible design search (part 1), then the
  semi-flexible one (part 2), on the base scenario over a reduced search
  space that still holds both base optima.  It has no randomness: every seed
  gives the same inputs and the same outputs.
- ``calibrate``: the k* calibration over q = 2..12, split by zone shape into
  two calls, aspect ratios 1 and 1.5 (part 1), then 2 and 3 (part 2), with
  at least 750 tours per cell.
- ``validate``: simulation validation of the frozen fully flexible optimum
  (part 1), then of the semi-flexible one (part 2).

Random streams come only from the seeds the harness passes in, which it
derives from the ``--seed`` argument.  The expected values the checks use
are in ``references.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from drcflex import (
    FULLY_FLEXIBLE,
    SEMI_FLEXIBLE,
    TABLE1_MODEL,
    CalibrationGrid,
    SearchSpace,
    calibrate_kstar,
    generate_demand,
    run_validation,
    search_design,
    simulate_ff_hour,
    simulate_sf_hour,
    table2_params,
)

REFERENCES_PATH = Path(__file__).with_name("references.json")

STRATEGY = {"ff": FULLY_FLEXIBLE, "sf": SEMI_FLEXIBLE}

# A check is (name, passed, detail).
Check = tuple[str, bool, str]


def _references(workload: str) -> dict:
    """The expected values for one workload's checks."""
    return json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))[workload]


def _optimum_space(strategy: str, ref: dict) -> SearchSpace:
    """The one-combination search space holding a reference optimum."""
    return SearchSpace(
        strategy=strategy, M_range=(ref["M"],), N_range=(ref["N"],), K_range=(ref["K"],)
    )


def _same_design(label: str, design, ref: dict) -> Check:
    got = (design.grid.M, design.grid.N, design.K, design.w0)
    want = (ref["M"], ref["N"], ref["K"], ref["w0"])
    return (f"{label}.design", got == want, f"(M, N, K, w0) = {got}, expected {want}")


class Compare:
    name = "compare"
    parts = ("ff", "sf")
    item_unit = "combos"
    kernel = "interpreter"  # the reference kernel of speed.py it is timed against

    def setup(self, seed: int) -> list[Check]:
        self.ref = ref = _references(self.name)
        self.params = table2_params()
        space = ref["space"]
        self.spaces = {
            label: SearchSpace(
                strategy=strategy,
                M_range=tuple(space["M"]),
                N_range=tuple(space["N"]),
                K_range=tuple(space["K"]),
            )
            for label, strategy in STRATEGY.items()
        }
        for label, strategy in STRATEGY.items():  # warm-up: one combination each
            search_design(self.params, _optimum_space(strategy, ref[label]), TABLE1_MODEL)
        return []

    def iterate(self, seeds, part):
        results = {}
        for label in self.parts:
            with part(label):
                results[label] = search_design(self.params, self.spaces[label], TABLE1_MODEL)
        logs = [e for r in results.values() for e in r.search_log]
        counts = {
            "combos": len(logs),
            "feasible": sum(e.feasible for e in logs),
            "low_occupancy": sum(e.note == "low_occupancy" for e in logs),
        }
        return len(logs), results, counts

    def check(self, results) -> list[Check]:
        ref = self.ref
        checks = []
        for label, result in results.items():
            want = ref[label]
            checks.append(_same_design(label, result.best, want))
            gammas = [zd.gamma for zd in result.best.zones]
            checks.append((f"{label}.gammas", gammas == want["gammas"], f"{gammas}"))
            gc = result.cost.gc_per_patron_min
            rel = abs(gc / want["gc_per_patron_min"] - 1.0)
            checks.append((f"{label}.gc", rel <= ref["gc_rel_tol"], f"GC {gc!r}, rel. error {rel:.2e}"))
            logged = len(result.search_log)
            feasible = sum(e.feasible for e in result.search_log)
            checks.append((
                f"{label}.combos",
                (logged, feasible) == (want["combos"], want["feasible"]),
                f"logged {logged}, feasible {feasible}",
            ))
        return checks


class Calibrate:
    name = "calibrate"
    parts = ("square", "elongated")
    item_unit = "tours"
    kernel = "array"

    Q_VALUES = tuple(range(2, 13))
    ASPECT_RATIOS = {"square": (1.0, 1.5), "elongated": (2.0, 3.0)}
    # A cell stops at the first batch of 250 tours past min_instances where
    # its mean has settled.  With the default 500, the q = 12 cells stop at
    # 500 or 750 tours by seed, and one batch there is a tenth of a part's
    # time.  At 750 the q = 11 and 12 cells stop at 750 at every seed seen,
    # and only the cheap cells' work still depends on the seed.
    MIN_INSTANCES = 750

    def setup(self, seed: int) -> list[Check]:
        self.ref = _references(self.name)
        self.grids = {
            part: CalibrationGrid(
                q_values=self.Q_VALUES, aspect_ratios=ratios, min_instances=self.MIN_INSTANCES
            )
            for part, ratios in self.ASPECT_RATIOS.items()
        }
        # warm-up: a few small cells through the same batched solver
        calibrate_kstar(
            CalibrationGrid(
                q_values=(2, 3, 4, 5, 6, 7), aspect_ratios=(1.0, 2.0),
                min_instances=64, max_instances=128, batch_size=64,
            ),
            seed=seed,
        )
        return []

    def iterate(self, seeds, part):
        results = {}
        for label, seed in zip(self.parts, seeds):
            with part(label):
                results[label] = calibrate_kstar(self.grids[label], seed=seed)
        tours = sum(c.n_instances for r in results.values() for c in r.cells)
        return tours, results, {}

    def check(self, results) -> list[Check]:
        ref = self.ref
        published = ref["published_kstar_q2_to_q12"]
        checks = []
        for result in results.values():
            for cell in result.cells:
                want = published[repr(cell.S)][cell.q - 2]
                diff = abs(cell.mean_kstar - want)
                checks.append((
                    f"kstar.q{cell.q}.S{cell.S}",
                    diff <= ref["kstar_abs_tol"],
                    f"k* {cell.mean_kstar:.4f} vs published {want}",
                ))
            ratios = tuple(sorted({c.S for c in result.cells}))
            checks.append((
                f"fit_mape.S{ratios}",
                result.fit_mape_pct < ref["fit_mape_pct_max"],
                f"fit MAPE {result.fit_mape_pct:.3f}%",
            ))
        return checks


def _overcapacity_pct_model(params, design) -> tuple[float, int]:
    """Expected overcapacity share (%) and dispatches per validation run.

    Validation serves round(1/H) windows of each zone-direction per run; a
    window's request count is Poisson with mean lambda*H*l*w, and it is an
    overcapacity event when it exceeds K.
    """
    grid = design.grid
    events = 0.0
    dispatches = 0
    for zd in design.zones:
        for lam, H in ((params.lambda_p, zd.H_p), (params.lambda_d, zd.H_d)):
            n_w = max(1, round(1.0 / H))
            mu = lam * H * grid.l * grid.w
            term = math.exp(-mu)
            cdf = term
            for k in range(1, design.K + 1):
                term *= mu / k
                cdf += term
            events += n_w * (1.0 - cdf)
            dispatches += n_w
    return 100.0 * events / dispatches, dispatches


class Validate:
    name = "validate"
    parts = ("ff", "sf")
    item_unit = "simulation runs"
    kernel = "interpreter"

    # A validation stops once it has min_runs runs and its GC standard error
    # is below 0.05.  FF needs about 370-420 runs for that error, so at 450
    # nearly every seed does the same work.  SF reaches it within 300 runs;
    # 600 keeps its 1% GC-error check several standard errors clear.
    MIN_RUNS = {"ff": 450, "sf": 600}

    def setup(self, seed: int) -> list[Check]:
        self.ref = ref = _references(self.name)
        self.params = table2_params()
        self.designs = {
            label: search_design(self.params, _optimum_space(strategy, ref[label]), TABLE1_MODEL).best
            for label, strategy in STRATEGY.items()
        }
        demand = generate_demand(self.params, seed)
        simulate_ff_hour(self.params, self.designs["ff"], demand, rng_seed=seed)
        simulate_sf_hour(self.params, self.designs["sf"], demand, rng_seed=seed)
        return [_same_design(f"frozen.{label}", d, ref[label]) for label, d in self.designs.items()]

    def iterate(self, seeds, part):
        reports = {}
        for label, seed in zip(self.parts, seeds):
            with part(label):
                reports[label] = run_validation(
                    self.params, self.designs[label], TABLE1_MODEL,
                    min_runs=self.MIN_RUNS[label], seed=seed,
                )
        counts = {
            "runs_ff": reports["ff"].n_runs,
            "runs_sf": reports["sf"].n_runs,
            "heuristic": sum(r.heuristic_dispatches for r in reports.values()),
        }
        return counts["runs_ff"] + counts["runs_sf"], reports, counts

    def check(self, reports) -> list[Check]:
        ref = self.ref
        checks = []
        for label, rep in reports.items():
            limit = ref[label]["gc_error_pct_max"]
            checks.append((f"{label}.gc_error", rep.gc_error_pct <= limit,
                           f"GC error {rep.gc_error_pct:.3f}% (limit {limit}%)"))
            checks.append((f"{label}.se", rep.sim_gc_se < ref["se_max"],
                           f"standard error {rep.sim_gc_se:.4f} over {rep.n_runs} runs"))
            # The simulated overcapacity share estimates the design's true
            # share, which sits close to 1% (0.85% FF, 0.93% SF): the design
            # must keep the true share below 1%, and the estimate must agree
            # with it within its binomial sampling error.
            model_pct, per_run = _overcapacity_pct_model(self.params, self.designs[label])
            checks.append((f"{label}.overcapacity_model", model_pct < ref["overcapacity_pct_max"],
                           f"expected overcapacity {model_pct:.3f}%"))
            p = model_pct / 100.0
            se_pct = 100.0 * math.sqrt(p * (1.0 - p) / (per_run * rep.n_runs))
            gap = abs(rep.overcapacity_pct - model_pct)
            checks.append((f"{label}.overcapacity_sim", gap <= ref["overcapacity_sigmas"] * se_pct,
                           f"simulated {rep.overcapacity_pct:.3f}% vs expected {model_pct:.3f}% "
                           f"(sampling error {se_pct:.3f}%)"))
        return checks


WORKLOADS = {w.name: w for w in (Compare, Calibrate, Validate)}
