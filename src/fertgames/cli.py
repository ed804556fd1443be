"""Command-line front end: scenario files in, CSV tables (and SVG plots) out.

Scenario files are flat ``key = value`` lines, one setting each, with ``#``
comments. Output tables use a dot decimal separator, 12 significant digits
and LF line endings so golden files stay byte-stable across platforms.

Exit codes: 0 success, 2 invalid input (parsing or parameter validation),
3 solver failure. Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

from . import statics as statics_mod
from .core import PARAM_NAMES, ModelParams, benchmark_solve, utility_log_pair
from .errors import (
    BoundaryStatics,
    HouseholdSolveFailure,
    MissingKey,
    ModelError,
    NumericalFailure,
    ParseError,
    ScenarioError,
    UnknownKey,
)
from .extended import REGIMES, solve_extended
from .game import fertility_threshold, solve_game
from .population import (
    MODELS,
    AggregateReport,
    LogNormalSpec,
    PopulationSpec,
    aggregate,
    check_subsidy,
)
from .svg import line_chart

OUTPUT_DIR_ENV = "FERTGAMES_OUTDIR"

_NUMERIC_KEYS = PARAM_NAMES + ("subsidy",)
_KNOWN_KEYS = ("model",) + _NUMERIC_KEYS + ("regime", "seed")

# Keys that must be present per model. beta never enters the transfer game
# (rearing costs are folded into the transfer there), so game scenarios may
# omit it; an inert placeholder of 1 keeps the parameter record valid.
_REQUIRED_KEYS = {
    "benchmark": PARAM_NAMES,
    "game": ("alpha", "delta", "gamma", "a_w", "a_m"),
    "extended": PARAM_NAMES + ("regime",),
}

_INERT_GAME_BETA = 1.0

SOLVE_HEADER = (
    "model,rho_star,n_star,c_w,c_m,u_w,u_m,"
    "wife_participates,husband_participates,interior"
)
_N_STAR = SOLVE_HEADER.split(",").index("n_star")


@dataclass(frozen=True)
class ScenarioConfig:
    model: str
    params: ModelParams
    regime: str | None
    subsidy: float
    seed: int | None


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse ``key = value`` scenario text into a validated config."""
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise UnknownKey(line_no, key)
        if key in raw:
            raise ParseError(line_no, f"duplicate key {key!r}")
        if not value:
            raise ParseError(line_no, f"empty value for {key!r}")
        raw[key] = value
        if key == "model" and value not in MODELS:
            raise ParseError(line_no, f"model must be one of {MODELS}, got {value!r}")
        if key == "regime" and value not in REGIMES:
            raise ParseError(line_no, f"regime must be one of {REGIMES}, got {value!r}")
        if key in _NUMERIC_KEYS:
            try:
                parsed = float(value)
            except ValueError:
                raise ParseError(line_no, f"{key} must be a number, got {value!r}") from None
            if not math.isfinite(parsed):
                raise ParseError(line_no, f"{key} must be finite, got {value!r}")
        if key == "seed":
            try:
                int(value)
            except ValueError:
                raise ParseError(line_no, f"seed must be an integer, got {value!r}") from None

    if "model" not in raw:
        raise MissingKey("model")
    model = raw["model"]
    for key in _REQUIRED_KEYS[model]:
        if key not in raw:
            raise MissingKey(key)

    # Only a game scenario's beta can be missing here.
    params = {name: float(raw.get(name, _INERT_GAME_BETA)) for name in PARAM_NAMES}
    return ScenarioConfig(
        model=model,
        params=ModelParams(**params),
        regime=raw.get("regime"),
        subsidy=float(raw.get("subsidy", "0")),
        seed=int(raw["seed"]) if "seed" in raw else None,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value == 0.0:
        value = 0.0  # fold -0.0 into 0.0 for byte-stable output
    if math.isnan(value):
        return "nan"
    return format(value, ".12g")


def _row(*cells) -> str:
    return ",".join(_fmt(c) for c in cells)


def _solve(cfg: ScenarioConfig) -> tuple[str, tuple]:
    """Header and cells of the one-row solve table."""
    p = cfg.params
    check_subsidy(cfg.model, cfg.subsidy)

    if cfg.model == "benchmark":
        sol = benchmark_solve(p)
        u_w, u_m = utility_log_pair(p, sol.c_w, sol.c_m, sol.n_star)
        return SOLVE_HEADER, ("benchmark", None, sol.n_star, sol.c_w, sol.c_m,
                              u_w, u_m, None, None, sol.n_star > 0)
    if cfg.model == "game":
        eq = solve_game(p, cfg.subsidy)
        return SOLVE_HEADER, ("game", eq.rho_star, eq.n_star, eq.c_w, eq.c_m,
                              eq.u_w, eq.u_m, eq.wife_participates,
                              eq.husband_participates, eq.interior)
    ext = solve_extended(p, cfg.regime)
    return SOLVE_HEADER + ",regime,root_count", (
        "extended", ext.selected_rho, ext.n_star, ext.c_w, ext.c_m, ext.u_w,
        ext.u_m, ext.wife_participates, ext.husband_participates, ext.interior,
        ext.regime, len(ext.positive_roots))


def _statics_rows(cfg: ScenarioConfig) -> list[str]:
    if cfg.model != "game":
        raise ScenarioError("statics requires a game-model scenario")
    report = statics_mod.build_report(cfg.params)
    notes = {
        "delta": f"{report.delta_regime.dominant}_dominates"
        f"({report.delta_regime.predicted_sign:+d})",
        "gamma": f"{report.gamma_regime.dominant}_dominates"
        f"({report.gamma_regime.predicted_sign:+d})",
    }
    rows = ["param,analytic_rho,fd_rho,analytic_n,fd_n,regime_note"]
    for key in statics_mod.PARTIAL_KEYS:
        rows.append(_row(key, report.partial_rho[key], report.fd_rho[key],
                         report.partial_n[key], report.fd_n[key],
                         notes.get(key, "")))
    rows.append(_row("income_ratio", None, None, report.ratio_partial,
                     report.ratio_fd, ""))
    return rows


def _sweep_rows(cfg: ScenarioConfig, param: str, lo: float, hi: float,
                steps: int) -> tuple[list[str], list[float], list[float]]:
    if param not in _NUMERIC_KEYS:
        raise ScenarioError(f"cannot sweep {param!r}; choose from {_NUMERIC_KEYS}")
    if steps < 1:
        raise ScenarioError(f"steps must be >= 1, got {steps}")
    rows: list[str] = []
    xs: list[float] = []
    ns: list[float] = []
    for i in range(steps + 1):
        value = lo + (hi - lo) * i / steps
        if param == "subsidy":
            step_cfg = replace(cfg, subsidy=value)
        else:
            step_cfg = replace(cfg, params=replace(cfg.params, **{param: value}))
        header, cells = _solve(step_cfg)
        if i == 0:
            rows.append("param_value," + header)
        rows.append(_row(value, *cells))
        xs.append(value)
        ns.append(cells[_N_STAR])
    return rows, xs, ns


def _population_rows(cfg: ScenarioConfig, args: argparse.Namespace) -> list[str]:
    seed = args.seed if args.seed is not None else (cfg.seed or 0)
    aw_mu = args.aw_mu if args.aw_mu is not None else math.log(cfg.params.a_w)
    am_mu = args.am_mu if args.am_mu is not None else math.log(cfg.params.a_m)
    spec = PopulationSpec(
        count=args.households,
        seed=seed,
        aw_dist=LogNormalSpec(aw_mu, args.aw_sigma),
        am_dist=LogNormalSpec(am_mu, args.am_sigma),
        alpha=cfg.params.alpha,
        delta=cfg.params.delta,
        gamma=cfg.params.gamma,
        beta=cfg.params.beta,
        model=cfg.model,
        regime=cfg.regime or "high",
        subsidy=cfg.subsidy,
    )
    report = aggregate(spec)
    return _report_rows(report)


def _report_rows(report: AggregateReport) -> list[str]:
    rows = [f"# note: {note}" for note in report.notes]
    rows.append("mean_fertility,childless_share,mean_transfer,mean_income_ratio")
    rows.append(_row(report.mean_fertility, report.childless_share,
                     report.mean_transfer, report.mean_income_ratio))
    rows.append("")
    rows.append("decile,households,mean_fertility")
    for i in range(10):
        rows.append(_row(i + 1, report.decile_counts[i],
                         report.fertility_by_ratio_decile[i]))
    return rows


def _resolve_output(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(rows: list[str], out: str | None) -> None:
    text = "\n".join(rows) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(_resolve_output(out), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fertgames",
        description="Solve household fertility transfer games from scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one scenario")
    solve.add_argument("scenario")

    statics = sub.add_parser("statics", help="comparative statics table")
    statics.add_argument("scenario")

    sweep = sub.add_parser("sweep", help="solve along one parameter axis")
    sweep.add_argument("scenario")
    sweep.add_argument("--param", required=True)
    sweep.add_argument("--from", dest="lo", type=float, required=True)
    sweep.add_argument("--to", dest="hi", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--out")
    sweep.add_argument("--svg")

    threshold = sub.add_parser("threshold", help="critical wife income")
    threshold.add_argument("scenario")

    population = sub.add_parser("population", help="aggregate a sampled population")
    population.add_argument("scenario")
    population.add_argument("--households", type=int, required=True)
    population.add_argument("--seed", type=int, default=None)
    population.add_argument("--aw-mu", type=float, default=None)
    population.add_argument("--aw-sigma", type=float, default=0.5)
    population.add_argument("--am-mu", type=float, default=None)
    population.add_argument("--am-sigma", type=float, default=0.5)
    return parser


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = _load_scenario(args.scenario)
        if args.command == "solve":
            header, cells = _solve(cfg)
            _emit([header, _row(*cells)], None)
        elif args.command == "statics":
            _emit(_statics_rows(cfg), None)
        elif args.command == "sweep":
            rows, xs, ns = _sweep_rows(cfg, args.param, args.lo, args.hi, args.steps)
            _emit(rows, args.out)
            if args.svg:
                chart = line_chart(xs, ns, x_label=args.param, y_label="n_star")
                with open(_resolve_output(args.svg), "w", encoding="utf-8",
                          newline="\n") as fh:
                    fh.write(chart)
        elif args.command == "threshold":
            if cfg.model != "game":
                raise ScenarioError("threshold requires a game-model scenario")
            value = fertility_threshold(cfg.params)
            _emit(["param,threshold", _row("a_w", value)], None)
        elif args.command == "population":
            _emit(_population_rows(cfg, args), None)
        else:  # pragma: no cover - argparse enforces the choices
            raise ScenarioError(f"unknown command {args.command!r}")
    except (BoundaryStatics, NumericalFailure, HouseholdSolveFailure) as exc:
        print(f"fertgames: solver failure: {exc}", file=sys.stderr)
        return 3
    except (ModelError, ValueError) as exc:
        print(f"fertgames: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fertgames: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
