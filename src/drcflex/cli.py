"""Command-line driver: calibration, design search, comparison, validation,
parameter sweeps, and the strategy-crossover density search.

Every subcommand writes CSV artifacts (dot-decimal, UTF-8, header row) plus
a manifest.json into --out, and prints a one-line summary.  Outputs are pure
functions of the arguments and seed, so re-running a command reproduces the
artifact bytes exactly.

Exit codes: 0 success, 2 infeasible design space, 1 any other error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .costs import FULLY_FLEXIBLE, SEMI_FLEXIBLE, DesignSolution, InfeasibleDesignError
from .expectations import YANG_TOUR_LAW, TourLengthLaw
from .experiments import (
    SweepSpec,
    default_scenario_grid,
    find_critical_density,
    run_sweep,
    run_validation_campaign,
    sweep_to_csv,
)
from .optimizer import OptimizationResult, SearchSpace, compare_strategies, search_design
from .params import PRESETS, ScenarioParams, load_scenario
from .tourlength import CalibrationGrid, KStarModel, TABLE1_MODEL, calibrate_kstar

KSTAR_MODES = ("calibrated", "chakraborti", "daganzo115", "yang")

STRATEGY_FLAGS = {"ff": FULLY_FLEXIBLE, "sf": SEMI_FLEXIBLE}

# canonical artifact name for each sweep axis
SWEEP_CSV_NAMES = {
    "lambda": "fig6a.csv",
    "region_area": "fig7a.csv",
    "aspect_ratio": "fig8a.csv",
    "theta": "fig9.csv",
    "alpha": "fig10.csv",
}

VALIDATION_CSV_NAMES = {FULLY_FLEXIBLE: "table3.csv", SEMI_FLEXIBLE: "table4.csv"}


def resolve_model(mode: str) -> KStarModel | TourLengthLaw:
    """The tour-length law behind a --kstar-mode flag value."""
    if mode == "calibrated":
        return TABLE1_MODEL
    if mode == "chakraborti":
        return KStarModel(0.0, 0.93, 0.0, 0.0, 1.0)
    if mode == "daganzo115":
        return KStarModel(0.0, 1.15, 0.0, 0.0, 1.0)
    if mode == "yang":
        return YANG_TOUR_LAW
    raise ValueError(f"kstar-mode must be one of {KSTAR_MODES}, got {mode!r}")


def resolve_params(args: argparse.Namespace) -> ScenarioParams:
    if args.config:
        return load_scenario(Path(args.config).read_text(encoding="utf-8"))
    if args.preset not in PRESETS:
        raise ValueError(f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}")
    return ScenarioParams(**PRESETS[args.preset])


def resolve_strategies(flag: str) -> tuple[str, ...]:
    if flag == "both":
        return (FULLY_FLEXIBLE, SEMI_FLEXIBLE)
    return (STRATEGY_FLAGS[flag],)


def resolve_space(args: argparse.Namespace, strategy: str = FULLY_FLEXIBLE) -> SearchSpace:
    """The search space implied by --max-grid/--max-k, defaults otherwise."""
    overrides: dict[str, object] = {"strategy": strategy}
    if args.max_grid is not None:
        overrides["M_range"] = tuple(range(1, args.max_grid + 1))
        overrides["N_range"] = tuple(range(1, args.max_grid + 1))
    if args.max_k is not None:
        overrides["K_range"] = tuple(range(1, args.max_k + 1))
    return SearchSpace(**overrides)


def _write_manifest(outdir: Path, command: str, args: argparse.Namespace, artifacts: list[str]) -> None:
    payload = {
        "command": command,
        "seed": args.seed,
        "scenario": str(args.config) if args.config else f"preset:{args.preset}",
        "kstar_mode": args.kstar_mode,
        "strategy": args.strategy,
        "max_grid": args.max_grid,
        "max_k": args.max_k,
        "artifacts": sorted(artifacts),
    }
    path = outdir / "manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _design_to_csv(design: DesignSolution, result: OptimizationResult, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["m", "n", "H_p_min", "H_d_min", "gamma", "strategy", "M", "N", "K", "w0", "gc_per_patron_min"]
        )
        grid = design.grid
        for zd in design.zones:
            writer.writerow(
                [
                    zd.z.m,
                    zd.z.n,
                    f"{zd.H_p * 60.0:.6f}",
                    f"{zd.H_d * 60.0:.6f}",
                    zd.gamma,
                    design.strategy,
                    grid.M,
                    grid.N,
                    design.K,
                    "" if design.w0 is None else f"{design.w0:.6f}",
                    f"{result.cost.gc_per_patron_min:.6f}",
                ]
            )


def cmd_calibrate(args: argparse.Namespace, outdir: Path) -> list[str]:
    grid = CalibrationGrid()
    result = calibrate_kstar(grid, seed=args.seed)
    path = outdir / "calibration.csv"
    result.to_csv(path)
    print(
        f"calibrated {len(result.cells)} cells, fit MAPE {result.fit_mape_pct:.2f}%, "
        f"wrote {path}"
    )
    return ["calibration.csv"]


def cmd_optimize(args: argparse.Namespace, outdir: Path) -> list[str]:
    params = resolve_params(args)
    model = resolve_model(args.kstar_mode)
    artifacts = []
    for strategy in resolve_strategies(args.strategy):
        result = search_design(params, resolve_space(args, strategy), model)
        short = "ff" if strategy == FULLY_FLEXIBLE else "sf"
        design_name = f"design_{short}.csv"
        log_name = f"search_log_{short}.csv"
        _design_to_csv(result.best, result, outdir / design_name)
        result.log_to_csv(outdir / log_name)
        artifacts += [design_name, log_name]
        grid = result.best.grid
        w0 = "" if result.best.w0 is None else f" w0={result.best.w0:g}"
        print(
            f"{strategy}: {grid.M}x{grid.N} K={result.best.K}{w0} "
            f"GC={result.cost.gc_per_patron_min:.4f} min/patron "
            f"({result.wall_time_s:.1f}s, {len(result.search_log)} combos)"
        )
    return artifacts


def cmd_compare(args: argparse.Namespace, outdir: Path) -> list[str]:
    params = resolve_params(args)
    model = resolve_model(args.kstar_mode)
    comparison = compare_strategies(params, resolve_space(args), model)
    path = outdir / "table5.csv"
    comparison.to_csv(path)
    print(
        f"GC {comparison.ff.cost.gc_per_patron_min:.4f} (fully flexible) vs "
        f"{comparison.sf.cost.gc_per_patron_min:.4f} (semi flexible) min/patron; "
        f"semi-flexible saving {comparison.sf_saving_pct:.2f}%"
    )
    return ["table5.csv"]


def cmd_validate(args: argparse.Namespace, outdir: Path) -> list[str]:
    params = resolve_params(args)
    model = resolve_model(args.kstar_mode)
    if args.full_grid:
        scenarios = default_scenario_grid(params)
    else:
        scenarios = [("base", params)]
    artifacts = []
    for strategy in resolve_strategies(args.strategy):
        campaign = run_validation_campaign(
            scenarios,
            strategy,
            model,
            space=resolve_space(args, strategy),
            min_runs=args.runs,
            seed=args.seed,
        )
        name = VALIDATION_CSV_NAMES[strategy]
        campaign.to_csv(outdir / name)
        artifacts.append(name)
        gc_avg = sum(r.gc_error_pct for r in campaign.reports) / len(campaign.reports)
        print(
            f"{strategy}: {len(scenarios)} scenario(s), mean GC error {gc_avg:.2f}%, "
            f"wrote {name}"
        )
    return artifacts


def cmd_sweep(args: argparse.Namespace, outdir: Path) -> list[str]:
    params = resolve_params(args)
    model = resolve_model(args.kstar_mode)
    values = tuple(float(tok) for tok in args.values.split(","))
    spec = SweepSpec(
        axis=args.axis, values=values, base=params, strategies=resolve_strategies(args.strategy)
    )
    rows = run_sweep(spec, model, space=resolve_space(args))
    name = SWEEP_CSV_NAMES[args.axis]
    sweep_to_csv(rows, outdir / name)
    feasible = sum(1 for r in rows if r.feasible)
    print(f"swept {args.axis} over {len(values)} values, {feasible}/{len(rows)} rows feasible, wrote {name}")
    return [name]


def cmd_critical(args: argparse.Namespace, outdir: Path) -> list[str]:
    params = resolve_params(args)
    model = resolve_model(args.kstar_mode)
    density = find_critical_density(
        params, lo=args.lo, hi=args.hi, model=model, space=resolve_space(args)
    )
    path = outdir / "critical_density.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lo", "hi", "critical_density_per_h_km2"])
        writer.writerow([f"{args.lo:g}", f"{args.hi:g}", f"{density:.4f}"])
    print(f"strategies trade places at {density:.2f} patrons/h/km², wrote {path.name}")
    return ["critical_density.csv"]


COMMANDS = {
    "calibrate": cmd_calibrate,
    "optimize": cmd_optimize,
    "compare": cmd_compare,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
    "critical": cmd_critical,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="scenario key=value file")
    common.add_argument("--preset", default="table2", help="named scenario preset")
    common.add_argument("--seed", type=int, default=0, help="root RNG seed")
    common.add_argument("--out", type=Path, default=Path("out"), help="artifact directory")
    common.add_argument(
        "--kstar-mode",
        choices=KSTAR_MODES,
        default="calibrated",
        help="tour-length law used by the cost model",
    )
    common.add_argument(
        "--strategy", choices=("ff", "sf", "both"), default="both", help="routing strategies to run"
    )
    common.add_argument(
        "--max-grid", type=int, default=None, help="cap zone rows and columns at this count"
    )
    common.add_argument(
        "--max-k", type=int, default=None, help="cap vehicle capacity at this many seats"
    )

    parser = argparse.ArgumentParser(
        prog="drcflex",
        description="Design and evaluate demand-responsive feeder services.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("calibrate", parents=[common], help="re-estimate the tour-length constant grid")
    sub.add_parser("optimize", parents=[common], help="search the optimal zoning and headways")
    sub.add_parser("compare", parents=[common], help="side-by-side optimal metrics for both strategies")
    p_val = sub.add_parser("validate", parents=[common], help="simulate the optimized design")
    p_val.add_argument("--runs", type=int, default=1000, help="minimum simulation runs")
    p_val.add_argument(
        "--full-grid", action="store_true", help="validate the full 32-scenario grid"
    )
    p_sweep = sub.add_parser("sweep", parents=[common], help="re-optimize along one parameter axis")
    p_sweep.add_argument("--axis", choices=sorted(SWEEP_CSV_NAMES), required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated, strictly increasing")
    p_crit = sub.add_parser("critical", parents=[common], help="demand density where strategies cross")
    p_crit.add_argument("--lo", type=float, default=2.0)
    p_crit.add_argument("--hi", type=float, default=60.0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outdir: Path = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        artifacts = COMMANDS[args.command](args, outdir)
        _write_manifest(outdir, args.command, args, artifacts + ["manifest.json"])
    except InfeasibleDesignError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
