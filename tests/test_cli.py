"""Scenario parsing, command dispatch, exit codes, and golden files."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import LEAD_OVERFLOW, LEAD_OVERFLOW_SUBSIDY, UTILITY_OVERFLOW
from fertgames import MissingKey, ParseError, UnknownKey
from fertgames.cli import parse_scenario, run_command

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

GAME_ANCHOR = str(SCENARIOS / "game_anchor.scn")


class TestParseScenario:
    def test_valid_game_scenario(self):
        cfg = parse_scenario(
            "model = game\nalpha = 2\ndelta = 1\ngamma = 1\na_w = 1\na_m = 3\n")
        assert cfg.model == "game"
        assert cfg.params.alpha == 2.0
        assert cfg.params.a_m == 3.0
        assert cfg.subsidy == 0.0

    def test_non_numeric_value_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("model = game\nalpha = two\n")
        assert exc.value.line_no == 2

    def test_missing_beta_for_extended(self):
        with pytest.raises(MissingKey) as exc:
            parse_scenario("model = extended\nalpha = 1\ndelta = 1\n"
                           "gamma = 1\na_w = 1\na_m = 3\nregime = low\n")
        assert exc.value.key == "beta"

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownKey) as exc:
            parse_scenario("model = game\nbargaining_power = 0.5\n")
        assert exc.value.key == "bargaining_power"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario("model = game\nalpha = 1\nalpha = 2\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_scenario(
            "# scenario\n\nmodel = game  # trailing\nalpha = 2\ndelta = 1\n"
            "gamma = 1\na_w = 1\na_m = 3\n")
        assert cfg.params.alpha == 2.0

    def test_missing_model_key(self):
        with pytest.raises(MissingKey) as exc:
            parse_scenario("alpha = 1\n")
        assert exc.value.key == "model"

    def test_bad_model_name_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("model = cournot\n")
        assert exc.value.line_no == 1

    def test_game_beta_defaults_inert(self):
        cfg = parse_scenario(
            "model = game\nalpha = 2\ndelta = 1\ngamma = 1\na_w = 1\na_m = 3\n")
        assert cfg.params.beta == 1.0


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        assert run_command(["solve", GAME_ANCHOR]) == 0
        assert capsys.readouterr().err == ""

    def test_parse_failure_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("model = game\nalpha = two\n")
        assert run_command(["solve", str(bad)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "line 2" in out.err

    def test_validation_failure_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("model = game\nalpha = -2\ndelta = 1\ngamma = 1\n"
                       "a_w = 1\na_m = 3\n")
        assert run_command(["solve", str(bad)]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("incomes", [[], ["--aw-mu", "0", "--am-mu", "1"]],
                             ids=["scenario", "overridden"])
    def test_population_with_negative_income_is_two(self, tmp_path, capsys, incomes):
        bad = tmp_path / "bad.scn"
        bad.write_text("model = game\nalpha = 2\ndelta = 1\ngamma = 1\n"
                       "a_w = -1\na_m = 3\n")
        assert run_command(["population", str(bad), "--households", "3", *incomes]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "parameter 'a_w' must be > 0" in out.err

    def test_population_with_overflowing_utility_is_three(self, tmp_path, capsys):
        p = UTILITY_OVERFLOW
        scn = tmp_path / "overflow.scn"
        scn.write_text(
            f"model = game\nalpha = {p.alpha!r}\ndelta = {p.delta!r}\n"
            f"gamma = {p.gamma!r}\na_w = {p.a_w!r}\na_m = {p.a_m!r}\n")
        assert run_command(["population", str(scn), "--households", "3",
                            "--aw-sigma", "0", "--am-sigma", "0"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "solver failure" in out.err

    def test_missing_file_is_two(self, capsys):
        assert run_command(["solve", "no_such_file.scn"]) == 2
        assert capsys.readouterr().err != ""

    def test_boundary_statics_is_three(self, tmp_path, capsys):
        childless = tmp_path / "childless.scn"
        childless.write_text("model = game\nalpha = 2\ndelta = 1\ngamma = 1\n"
                             "a_w = 7\na_m = 3\n")
        assert run_command(["statics", str(childless)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "solver failure" in out.err

    def test_threshold_bracketing_failure_is_three(self, tmp_path, capsys):
        # The threshold alpha*gamma*a_m/delta = 3e600 exceeds the float range.
        scn = tmp_path / "far.scn"
        scn.write_text("model = game\nalpha = 1e200\ndelta = 1e-200\n"
                       "gamma = 1e200\na_w = 1\na_m = 3\n")
        assert run_command(["threshold", str(scn)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "solver failure" in out.err

    def test_subsidy_on_benchmark_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("model = benchmark\nalpha = 2\ndelta = 1\ngamma = 1\n"
                       "beta = 1\na_w = 2\na_m = 2\nsubsidy = 0.5\n")
        assert run_command(["solve", str(bad)]) == 2

    @pytest.mark.parametrize("model_lines,rho_cell", [
        ("model = extended\nbeta = 1\nregime = high\n", ""),
        ("model = game\nsubsidy = 0.5\n", "0"),
        ("model = game\n", "6.1803398875e+299"),
    ])
    def test_extreme_income_ratio_solves_to_corner(self, tmp_path, capsys,
                                                   model_lines, rho_cell):
        # a_w lies far past the childless threshold; the leader cubic's roots
        # span some 300 orders of magnitude, and the game quadratic's
        # unscaled coefficient would overflow.
        scn = tmp_path / "rich.scn"
        scn.write_text(model_lines + "alpha = 1\ndelta = 1\ngamma = 1\n"
                       "a_w = 1e300\na_m = 3\n")
        assert run_command(["solve", str(scn)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        row = out.out.splitlines()[1].split(",")
        assert row[1:5] == [rho_cell, "0", "1e+300", "3"]
        assert row[9] == "false"

    def test_income_ratio_beyond_float_range_is_three(self, tmp_path, capsys):
        scn = tmp_path / "split.scn"
        scn.write_text("model = extended\nalpha = 1\ndelta = 1\ngamma = 1\n"
                       "beta = 1\na_w = 1e300\na_m = 1e-300\nregime = high\n")
        assert run_command(["solve", str(scn)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "solver failure" in out.err

    @pytest.mark.parametrize("scenario", [
        # The transfer of the extended game is subnormal (4.7e-320).
        "model = extended\nregime = high\nalpha = 2.101451275868292e87\n"
        "delta = 5.194926253028594e-109\ngamma = 6.440184239968988e63\n"
        "beta = 2.1803794696445467e-82\na_w = 5.884178548989604e-148\n"
        "a_m = 1.1255409357259234e-75\n",
        # The husband's consumption under the subsidy is subnormal (4e-312).
        "model = game\nalpha = 1e12\ndelta = 1\ngamma = 1\na_w = 1e-300\n"
        "a_m = 1e-300\nsubsidy = 1e-305\n",
    ], ids=["extended", "subsidized"])
    def test_subnormal_leader_allocation_is_three(self, tmp_path, capsys, scenario):
        scn = tmp_path / "subnormal.scn"
        scn.write_text(scenario)
        assert run_command(["solve", str(scn)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "solver failure" in out.err

    def test_overflowing_scaled_cubic_exits_zero_or_three(self, tmp_path, capsys):
        p = LEAD_OVERFLOW
        scn = tmp_path / "overflow.scn"
        scn.write_text(
            f"model = game\nalpha = {p.alpha!r}\ndelta = {p.delta!r}\n"
            f"gamma = {p.gamma!r}\na_w = {p.a_w!r}\na_m = {p.a_m!r}\n"
            f"subsidy = {LEAD_OVERFLOW_SUBSIDY!r}\n")
        code = run_command(["solve", str(scn)])
        out = capsys.readouterr()
        assert code in (0, 3)
        if code == 3:
            assert out.out == ""
            assert "solver failure" in out.err

    def test_unknown_subcommand_is_two(self, capsys):
        assert run_command(["simulate", GAME_ANCHOR]) == 2

    def test_statics_on_extended_is_two(self, capsys):
        assert run_command(
            ["statics", str(SCENARIOS / "extended_anchor.scn")]) == 2


class TestGoldenFiles:
    @pytest.mark.parametrize("scenario,expected", [
        ("game_anchor.scn", "solve_game_anchor.csv"),
        ("extended_anchor.scn", "solve_extended_anchor.csv"),
        ("benchmark_anchor.scn", "solve_benchmark_anchor.csv"),
        ("game_subsidized.scn", "solve_game_subsidized.csv"),
    ])
    def test_solve_outputs(self, capsys, scenario, expected):
        assert run_command(["solve", str(SCENARIOS / scenario)]) == 0
        assert capsys.readouterr().out == golden(expected)

    def test_statics_output(self, capsys):
        assert run_command(["statics", GAME_ANCHOR]) == 0
        assert capsys.readouterr().out == golden("statics_game_anchor.csv")

    def test_threshold_output(self, capsys):
        assert run_command(["threshold", GAME_ANCHOR]) == 0
        assert capsys.readouterr().out == golden("threshold_game_anchor.csv")

    def test_sweep_outputs_csv_and_svg(self, tmp_path):
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        assert run_command(["sweep", GAME_ANCHOR, "--param", "a_w",
                            "--from", "0.5", "--to", "7", "--steps", "13",
                            "--out", str(out), "--svg", str(svg)]) == 0
        assert out.read_text(encoding="utf-8") == golden("sweep_game_anchor.csv")
        assert svg.read_text(encoding="utf-8") == golden("sweep_game_anchor.svg")

    def test_sweep_fertility_hits_zero_past_threshold(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_command(["sweep", GAME_ANCHOR, "--param", "a_w", "--from", "0.5",
                     "--to", "7", "--steps", "13", "--out", str(out)])
        rows = out.read_text().strip().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            a_w, n = float(cells[0]), float(cells[3])
            assert (n == 0.0) == (a_w >= 6.0)

    def test_population_output(self, capsys):
        assert run_command(["population", str(SCENARIOS / "game_subsidized.scn"),
                            "--households", "40", "--seed", "424242",
                            "--aw-sigma", "0.4", "--am-sigma", "0.4"]) == 0
        assert capsys.readouterr().out == golden("population_game_subsidized.csv")

    def test_population_reproducibility(self, capsys):
        argv = ["population", str(SCENARIOS / "game_subsidized.scn"),
                "--households", "25", "--seed", "7"]
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        assert capsys.readouterr().out == first

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FERTGAMES_OUTDIR", str(tmp_path))
        assert run_command(["sweep", GAME_ANCHOR, "--param", "a_w",
                            "--from", "1", "--to", "2", "--steps", "2",
                            "--out", "rel.csv"]) == 0
        assert (tmp_path / "rel.csv").exists()


class TestSolveOnlyImports:
    def test_solve_only_commands_never_load_numpy(self, tmp_path):
        # Only sampling needs numpy; the solve, statics, threshold and sweep
        # commands must not pay for loading it.
        script = textwrap.dedent(f"""
            import sys
            from pathlib import Path
            from fertgames.cli import run_command
            for scn in sorted(Path({str(SCENARIOS)!r}).glob("*.scn")):
                assert run_command(["solve", str(scn)]) == 0, scn
            assert run_command(["statics", {GAME_ANCHOR!r}]) == 0
            assert run_command(["threshold", {GAME_ANCHOR!r}]) == 0
            assert run_command(["sweep", {GAME_ANCHOR!r}, "--param", "a_w",
                                "--from", "0.5", "--to", "7", "--steps", "13",
                                "--out", "sweep.csv", "--svg", "sweep.svg"]) == 0
            print("numpy loaded:", "numpy" in sys.modules)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "numpy loaded: False"


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fertgames.cli"],
            input="", capture_output=True, text=True)
        assert proc.returncode == 2

    def test_module_solve_matches_golden(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fertgames.cli", "solve", GAME_ANCHOR],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == golden("solve_game_anchor.csv")
        assert proc.stderr == ""
