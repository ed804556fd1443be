"""Scenario parsing, command dispatch, exit codes, and golden files."""

import math
import os
import shlex
import shutil
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
GAME_TEXT = (SCENARIOS / "game_anchor.scn").read_text(encoding="utf-8")


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
                           "gamma = 1\na_w = 1\na_m = 3\n")
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

    @pytest.mark.parametrize("line", ["regime = high", "seed = 7"])
    def test_retired_keys_rejected(self, line):
        # No model reads the regime, and --seed sets the population's seed.
        with pytest.raises(UnknownKey) as exc:
            parse_scenario("model = extended\nalpha = 1\ndelta = 1\ngamma = 1\n"
                           f"beta = 1\na_w = 1\na_m = 3\n{line}\n")
        assert exc.value.key == line.split()[0]


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

    @pytest.mark.parametrize("incomes", [[], ["--aw-sigma", "0", "--am-sigma", "0"]],
                             ids=["scenario", "point"])
    def test_population_with_negative_income_is_two(self, tmp_path, capsys, incomes):
        bad = tmp_path / "bad.scn"
        bad.write_text("model = game\nalpha = 2\ndelta = 1\ngamma = 1\n"
                       "a_w = -1\na_m = 3\n")
        assert run_command(["population", str(bad), "--households", "3", *incomes]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "parameter 'a_w' must be > 0" in out.err

    def test_population_with_overflowing_utility_is_three(self, tmp_path, capsys):
        # Three from solve, which prints the utilities; population prints
        # none of them, and answers.
        p = UTILITY_OVERFLOW
        scn = tmp_path / "overflow.scn"
        scn.write_text(
            f"model = game\nalpha = {p.alpha!r}\ndelta = {p.delta!r}\n"
            f"gamma = {p.gamma!r}\na_w = {p.a_w!r}\na_m = {p.a_m!r}\n")
        assert run_command(["solve", str(scn)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "solver failure" in out.err
        assert run_command(["population", str(scn), "--households", "3",
                            "--aw-sigma", "0", "--am-sigma", "0"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        summary = out.out.splitlines()[1].split(",")
        assert all(math.isfinite(float(cell)) for cell in summary if cell)
        assert "inf" not in out.out

    @pytest.mark.parametrize("model", ["benchmark", "game"])
    def test_population_with_overflowing_income_ratio_is_three(self, tmp_path, capsys,
                                                                model):
        # Both models solve the household; its income ratio overflows.
        scn = tmp_path / "ratio.scn"
        scn.write_text(f"model = {model}\nalpha = 2\ndelta = 1\ngamma = 1\n"
                       + "beta = 1\n" * (model == "benchmark")
                       + "a_w = 8.5e220\na_m = 3e-248\n")
        assert run_command(["population", str(scn), "--households", "3",
                            "--aw-sigma", "0", "--am-sigma", "0"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "solver failure: household 0 failed" in out.err
        assert "income ratio inf" in out.err

    def test_missing_file_is_two(self, capsys):
        assert run_command(["solve", "no_such_file.scn"]) == 2
        assert capsys.readouterr().err != ""

    def test_unwritable_output_is_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "sweep.csv"
        assert run_command(["sweep", GAME_ANCHOR, "--param", "a_w", "--from", "1",
                            "--to", "2", "--steps", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("fertgames: [Errno 2] ")

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
        ("model = extended\nbeta = 1\n", ""),
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
                       "beta = 1\na_w = 1e300\na_m = 1e-300\n")
        assert run_command(["solve", str(scn)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "solver failure" in out.err

    @pytest.mark.parametrize("scenario", [
        # The transfer of the extended game is subnormal (4.7e-320).
        "model = extended\nalpha = 2.101451275868292e87\n"
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

    @pytest.mark.parametrize("command", ["statics", "threshold"])
    def test_subsidized_game_statics_and_threshold_are_two(self, capsys, command):
        # Both describe the unsubsidized game; a subsidy would be ignored.
        assert run_command([command, str(SCENARIOS / "game_subsidized.scn")]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "without a subsidy" in out.err

    @pytest.mark.parametrize("argv", [["solve"], ["population", "--households", "5"]],
                             ids=["solve", "population"])
    def test_preference_order_violation_is_two(self, tmp_path, capsys, argv):
        # alpha < delta breaks the pooled budget in every household.
        bad = tmp_path / "bad.scn"
        bad.write_text("model = benchmark\nalpha = 1\ndelta = 2\ngamma = 1\n"
                       "beta = 1\na_w = 1\na_m = 3\n")
        assert run_command([argv[0], str(bad), *argv[1:]]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "invalid input" in out.err

    @pytest.mark.parametrize("scenario,argv", [
        ("model = game\nalpha 2\n", ["solve"]),
        ("model = game\nalpha =\n", ["solve"]),
        ("model = game\nalpha = inf\n", ["solve"]),
        ("model = game\nalpha = 2\ndelta = 1\ngamma = 1\na_w = 1\na_m = 3\n"
         "subsidy = -1\n", ["solve"]),
        (GAME_TEXT, ["sweep", "--param", "kappa", "--from", "0", "--to", "1",
                     "--steps", "2", "--out", "sweep.csv"]),
        (GAME_TEXT, ["sweep", "--param", "a_w", "--from", "0", "--to", "1",
                     "--steps", "0", "--out", "sweep.csv"]),
        (GAME_TEXT, ["population", "--households", "3", "--seed", "-1"]),
        # The transfer game never reads beta.
        ("model = game\nalpha = 2\ndelta = 1\ngamma = 1\nbeta = 1\na_w = 1\na_m = 3\n",
         ["solve"]),
        (GAME_TEXT, ["sweep", "--param", "beta", "--from", "1", "--to", "100",
                     "--steps", "3"]),
    ], ids=["no_equals", "empty_value", "infinite", "negative_subsidy",
            "sweep_unknown_param", "sweep_zero_steps", "negative_seed", "game_beta",
            "sweep_game_beta"])
    def test_refused_input_is_two(self, tmp_path, monkeypatch, capsys, scenario, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.scn").write_text(scenario)
        assert run_command([argv[0], "bad.scn", *argv[1:]]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err != ""
        assert not (tmp_path / "sweep.csv").exists()

    def test_population_prints_nan_for_empty_deciles(self, capsys):
        # Three households leave seven of the ten deciles empty.
        assert run_command(["population", GAME_ANCHOR, "--households", "3"]) == 0
        deciles = capsys.readouterr().out.splitlines()[-10:]
        assert sum(row.endswith(",0,nan") for row in deciles) == 7


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


class TestSubsidySweep:
    ARGV = ["--param", "subsidy", "--from", "0", "--to", "1", "--steps", "4"]

    def test_rows_match_solve_and_fertility_rises(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        scenario = SCENARIOS / "game_subsidized.scn"
        assert run_command(["sweep", str(scenario), *self.ARGV, "--out", str(out)]) == 0
        header, *rows = out.read_text(encoding="utf-8").splitlines()
        assert header.startswith("param_value,model,")
        base = scenario.read_text(encoding="utf-8").replace("subsidy = 0.5", "subsidy = {}")
        ns = []
        for row in rows:
            value, cells = row.split(",", 1)
            step = tmp_path / "step.scn"
            step.write_text(base.format(value))
            assert run_command(["solve", str(step)]) == 0
            assert capsys.readouterr().out.splitlines()[1] == cells
            ns.append(float(cells.split(",")[2]))
        assert [row.split(",")[0] for row in rows] == ["0", "0.25", "0.5", "0.75", "1"]
        assert ns == sorted(ns) and ns[0] == 0.0 < ns[1]

    def test_extended_sweep_is_two_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_command(["sweep", str(SCENARIOS / "extended_anchor.scn"), *self.ARGV,
                            "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()


class TestReadme:
    def test_cli_examples_run(self, tmp_path, monkeypatch, capsys):
        # Every fertgames command of the README's CLI section, run from a
        # directory holding a copy of the scenarios.
        text = (REPO / "README.md").read_text(encoding="utf-8")
        block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
        commands = [argv[1:] for argv in commands if argv and argv[0] == "fertgames"]
        assert len(commands) == 5
        shutil.copytree(SCENARIOS, tmp_path / "scenarios")
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert run_command(argv) == 0, argv
            assert capsys.readouterr().err == ""


class TestSolveOnlyImports:
    def test_solve_only_commands_never_load_numpy(self, tmp_path):
        # Only sampling needs numpy and the sampler, and only the tests the
        # oracles; the solve, statics, threshold and sweep commands must not
        # pay for loading any of them, nor for dataclasses and the inspect
        # module it loads. The population command loads the sampler.
        script = textwrap.dedent(f"""
            import sys
            from pathlib import Path
            from fertgames.cli import run_command
            def loaded(names=("numpy", "fertgames.population", "fertgames.oracle")):
                return [name for name in names if name in sys.modules]
            for scn in sorted(Path({str(SCENARIOS)!r}).glob("*.scn")):
                assert run_command(["solve", str(scn)]) == 0, scn
            assert run_command(["statics", {GAME_ANCHOR!r}]) == 0
            assert run_command(["threshold", {GAME_ANCHOR!r}]) == 0
            assert run_command(["sweep", {GAME_ANCHOR!r}, "--param", "a_w",
                                "--from", "0.5", "--to", "7", "--steps", "13",
                                "--out", "sweep.csv", "--svg", "sweep.svg"]) == 0
            print("loaded:", loaded())
            print("loaded:", loaded(("dataclasses", "inspect")))
            assert run_command(["population", {GAME_ANCHOR!r}, "--households", "20"]) == 0
            print("loaded:", loaded())
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stdout.splitlines() if line.startswith("loaded:")]
        assert lines == ["loaded: []", "loaded: []", "loaded: ['numpy', 'fertgames.population']"]


def population_under_memory_limit(tmp_path, households):
    """``fertgames population`` in a child that lowers its own address-space
    limit to 1.5 GB, of which numpy's import takes about 0.15 GB."""
    script = textwrap.dedent(f"""
        import resource, sys
        limit = 1_500_000_000
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
        from fertgames.cli import run_command
        sys.exit(run_command(["population", {GAME_ANCHOR!r}, "--households", "{households}"]))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
def test_population_beyond_memory_exits_2(tmp_path):
    # The 4.8 GB that 3*10**8 households need for their fertilities and
    # income ratios cannot be allocated.
    proc = population_under_memory_limit(tmp_path, 300_000_000)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "fertgames: invalid input: a population of 300000000 households needs 9900000000 "
        "bytes for its fertilities and income ratios and their ranking, more than this "
        "process can allocate\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
def test_population_whose_ranking_exceeds_memory_exits_2(tmp_path):
    # The 0.8 GB of fertilities and income ratios of 5*10**7 households fit,
    # but not the 0.85 GB more that ranking them takes: the count is refused
    # before any household is drawn, not after all are solved.
    proc = population_under_memory_limit(tmp_path, 50_000_000)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "fertgames: invalid input: a population of 50000000 households needs 1650000000 "
        "bytes for its fertilities and income ratios and their ranking, more than this "
        "process can allocate\n")


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
