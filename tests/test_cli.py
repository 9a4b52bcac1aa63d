"""End-to-end tests for the command-line driver (in-process, small searches)."""

from __future__ import annotations

import json
import math

import pytest

from drcflex.cli import main, resolve_model
from drcflex.expectations import as_tour_law
from drcflex.optimizer import METRIC_LABELS
from drcflex.simulator import TABLE_ROW_LABELS

FAST = ["--max-grid", "2", "--max-k", "9"]


def run(args: list[str], tmp_path) -> int:
    return main(args + ["--out", str(tmp_path)])


class TestOptimize:
    def test_writes_designs_logs_and_manifest(self, tmp_path, capsys) -> None:
        rc = run(["optimize", "--preset", "table2", *FAST], tmp_path)
        assert rc == 0
        for name in ("design_ff.csv", "design_sf.csv", "search_log_ff.csv", "search_log_sf.csv"):
            assert (tmp_path / name).exists()
        out = capsys.readouterr().out
        assert "fully_flexible: 2x2 K=8" in out
        design = (tmp_path / "design_ff.csv").read_text(encoding="utf-8").strip().splitlines()
        assert design[0].startswith("m,n,H_p_min,H_d_min,gamma,")
        assert len(design) == 5  # header plus one row per zone of the 2x2 grid

    def test_manifest_records_the_invocation(self, tmp_path) -> None:
        rc = run(["optimize", "--preset", "table2", "--strategy", "ff", *FAST], tmp_path)
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest) == {
            "command",
            "seed",
            "scenario",
            "kstar_mode",
            "strategy",
            "max_grid",
            "max_k",
            "artifacts",
        }
        assert manifest["command"] == "optimize"
        assert manifest["scenario"] == "preset:table2"
        assert manifest["max_grid"] == 2
        assert manifest["artifacts"] == ["design_ff.csv", "manifest.json", "search_log_ff.csv"]

    def test_config_file_overrides_preset(self, tmp_path, capsys) -> None:
        config = tmp_path / "scenario.cfg"
        config.write_text("preset = table2\nL = 1.0\nW = 1.0\n", encoding="utf-8")
        rc = run(
            ["optimize", "--config", str(config), "--strategy", "ff", "--max-grid", "1", "--max-k", "8"],
            tmp_path,
        )
        assert rc == 0
        assert "1x1" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["scenario"] == str(config)

    def test_infeasible_space_exits_2(self, tmp_path, capsys) -> None:
        config = tmp_path / "dense.cfg"
        config.write_text("preset = table2\nlambda_p = 4000\nlambda_d = 4000\n", encoding="utf-8")
        rc = run(
            ["optimize", "--config", str(config), "--max-grid", "1", "--max-k", "3"], tmp_path
        )
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err

    def test_unknown_preset_exits_1(self, tmp_path, capsys) -> None:
        rc = run(["optimize", "--preset", "nosuch", *FAST], tmp_path)
        assert rc == 1
        assert "unknown preset" in capsys.readouterr().err


class TestCompare:
    def test_writes_side_by_side_metrics(self, tmp_path, capsys) -> None:
        rc = run(["compare", "--preset", "table2", *FAST], tmp_path)
        assert rc == 0
        lines = (tmp_path / "table5.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "metric,fully_flexible,semi_flexible"
        assert len(lines) == 1 + len(METRIC_LABELS)
        assert lines[1].split(",")[0] == METRIC_LABELS[0]
        assert "saving" in capsys.readouterr().out


class TestValidate:
    def test_single_strategy_writes_its_table(self, tmp_path) -> None:
        rc = run(
            ["validate", "--preset", "table2", "--strategy", "sf", "--runs", "50",
             "--max-grid", "4", "--max-k", "9"],
            tmp_path,
        )
        assert rc == 0
        assert not (tmp_path / "table3.csv").exists()
        lines = (tmp_path / "table4.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "metric,Average,Maximum"
        assert [ln.split(",")[0] for ln in lines[1:]] == list(TABLE_ROW_LABELS)


class TestInfeasibleSpace:
    # optimize's exit code is TestOptimize::test_infeasible_space_exits_2
    @pytest.mark.parametrize("command", ["compare", "validate", "critical"])
    def test_exits_2(self, command: str, tmp_path, capsys) -> None:
        config = tmp_path / "dense.cfg"
        config.write_text("preset = table2\nlambda_p = 4000\nlambda_d = 4000\n", encoding="utf-8")
        rc = run([command, "--config", str(config), "--max-grid", "1", "--max-k", "2"], tmp_path)
        assert rc == 2
        assert capsys.readouterr().err.startswith("infeasible: ")


class TestSweep:
    def test_rejects_non_increasing_values(self, tmp_path, capsys) -> None:
        rc = run(
            ["sweep", "--axis", "lambda", "--values", "10,5", "--preset", "table2", *FAST],
            tmp_path,
        )
        assert rc == 1
        assert "strictly increasing" in capsys.readouterr().err

    def test_reruns_reproduce_artifact_bytes(self, tmp_path) -> None:
        args = [
            "sweep", "--axis", "theta", "--values", "5,20", "--preset", "table2",
            "--strategy", "ff", "--max-grid", "1", "--max-k", "8",
        ]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "fig9.csv").read_bytes() == (b / "fig9.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_axis_picks_the_artifact_name(self, tmp_path) -> None:
        rc = run(
            ["sweep", "--axis", "alpha", "--values", "0.3,0.9", "--preset", "table2",
             "--strategy", "ff", "--max-grid", "1", "--max-k", "8"],
            tmp_path,
        )
        assert rc == 0
        assert (tmp_path / "fig10.csv").exists()


class TestCritical:
    def test_bracket_without_crossing_exits_1(self, tmp_path, capsys) -> None:
        rc = run(
            ["critical", "--preset", "table2", "--lo", "2", "--hi", "3", *FAST], tmp_path
        )
        assert rc == 1
        assert "does not change sign" in capsys.readouterr().err
        assert not (tmp_path / "critical_density.csv").exists()


# k* of earlier studies as published: Yang's Euclidean regression, Chakraborti's and Daganzo's constants
PUBLISHED_KSTAR = {
    "yang": lambda q, S: 1.1055 - 0.008 * q + 1.0297 * S / q,
    "chakraborti": lambda q, S: 0.93,
    "daganzo_swath": lambda q, S: 1.15,
}


class TestKStarModes:
    # Yang's law adds three terms, so it may round; a constant k* is one term and exact
    @pytest.mark.parametrize("mode, published, rel", [
        ("yang", "yang", 1e-15), ("chakraborti", "chakraborti", 0.0), ("daganzo115", "daganzo_swath", 0.0),
    ])
    def test_prior_laws_give_the_benchmark_kstar(self, mode: str, published: str, rel: float) -> None:
        # a law's tour over q stops in a unit zone is k* * sqrt(q), with the k* of the published formula
        law = as_tour_law(resolve_model(mode))
        for q in range(2, 16):
            for S in (1.0, 1.5, 2.0, 3.0):
                got = law.tour_length_units(q, S) / math.sqrt(q)
                assert got == pytest.approx(PUBLISHED_KSTAR[published](q, S), rel=rel, abs=0), (q, S)


class TestParser:
    def test_missing_subcommand_is_a_usage_error(self) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv", [["validate", "--runs", "20", *FAST], ["calibrate"]], ids=["validate", "calibrate"]
    )
    def test_negative_seed_is_a_usage_error(self, argv: list[str], tmp_path, capsys) -> None:
        # numpy used to reject it after the search had run, and the command exited 1
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            run([*argv, "--seed", "-1"], out)
        assert excinfo.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not out.exists()
