"""Command-line front end: scenario files in, CSV tables (and SVG plots) out.

Scenario files are flat ``key = value`` lines, one setting each, with ``#``
comments. Output tables use a dot decimal separator, 12 significant digits
and LF line endings so golden files stay byte-stable across platforms.

Exit codes: 0 success, 2 invalid input (parsing or parameter validation,
or a population that does not fit in memory), 3 solver failure. Diagnostics
go to stderr only.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING

from . import statics as statics_mod
from .core import (
    MODELS,
    PARAM_NAMES,
    ModelParams,
    Record,
    benchmark_solve,
    check_subsidy,
    replace,
    utility_log_pair,
)
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
from .extended import solve_extended
from .game import fertility_threshold, solve_game
from .svg import line_chart

if TYPE_CHECKING:
    from .population import AggregateReport

_NUMERIC_KEYS = PARAM_NAMES + ("subsidy",)
_KNOWN_KEYS = ("model",) + _NUMERIC_KEYS

# Keys that must be present per model; a model reads these and ``subsidy``,
# and a scenario or sweep that sets any other key is refused. beta never
# enters the transfer game (rearing costs are folded into the transfer
# there); an inert placeholder of 1 keeps its parameter record valid.
_REQUIRED_KEYS = {
    "benchmark": PARAM_NAMES,
    "game": ("alpha", "delta", "gamma", "a_w", "a_m"),
    "extended": PARAM_NAMES,
}

_INERT_GAME_BETA = 1.0

SOLVE_HEADER = (
    "model,rho_star,n_star,c_w,c_m,u_w,u_m,"
    "wife_participates,husband_participates,interior"
)
_N_STAR = SOLVE_HEADER.split(",").index("n_star")


class ScenarioConfig(Record):
    model: str
    params: ModelParams
    subsidy: float


def _model_keys(model: str) -> tuple[str, ...]:
    return _REQUIRED_KEYS[model] + ("subsidy",)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse ``key = value`` scenario text into a validated config."""
    raw: dict[str, str] = {}
    line_of: dict[str, int] = {}
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
        raw[key], line_of[key] = value, line_no
        if key == "model" and value not in MODELS:
            raise ParseError(line_no, f"model must be one of {MODELS}, got {value!r}")
        if key in _NUMERIC_KEYS:
            try:
                parsed = float(value)
            except ValueError:
                raise ParseError(line_no, f"{key} must be a number, got {value!r}") from None
            if not math.isfinite(parsed):
                raise ParseError(line_no, f"{key} must be finite, got {value!r}")

    if "model" not in raw:
        raise MissingKey("model")
    model = raw["model"]
    for key in _REQUIRED_KEYS[model]:
        if key not in raw:
            raise MissingKey(key)
    for key in raw:
        if key != "model" and key not in _model_keys(model):
            raise ParseError(line_of[key], f"the {model} model does not read {key!r}")

    # Only a game scenario's beta can be missing here.
    params = {name: float(raw.get(name, _INERT_GAME_BETA)) for name in PARAM_NAMES}
    return ScenarioConfig(
        model=model,
        params=ModelParams(**params),
        subsidy=float(raw.get("subsidy", "0")),
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
    ext = solve_extended(p, "high")
    return SOLVE_HEADER + ",root_count", (
        "extended", ext.selected_rho, ext.n_star, ext.c_w, ext.c_m, ext.u_w,
        ext.u_m, ext.wife_participates, ext.husband_participates, ext.interior,
        len(ext.positive_roots))


def _unsubsidized_game(cfg: ScenarioConfig, command: str) -> ModelParams:
    """The parameters of a game scenario without a subsidy, the only kind
    ``statics`` and ``threshold`` take."""
    if cfg.model != "game" or cfg.subsidy:
        raise ScenarioError(f"{command} requires a game-model scenario without a subsidy")
    return cfg.params


def _statics_rows(cfg: ScenarioConfig) -> list[str]:
    report = statics_mod.build_report(_unsubsidized_game(cfg, "statics"))
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
    keys = _model_keys(cfg.model)
    if param not in keys:
        raise ScenarioError(f"cannot sweep {param!r} under the {cfg.model} model; "
                            f"choose from {keys}")
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
    # Imported here so that the other commands never load the sampler or numpy.
    from .population import LogNormalSpec, PopulationSpec, aggregate

    spec = PopulationSpec(
        count=args.households,
        seed=args.seed,
        aw_dist=LogNormalSpec(math.log(cfg.params.a_w), args.aw_sigma),
        am_dist=LogNormalSpec(math.log(cfg.params.a_m), args.am_sigma),
        alpha=cfg.params.alpha,
        delta=cfg.params.delta,
        gamma=cfg.params.gamma,
        beta=cfg.params.beta,
        model=cfg.model,
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


def _emit(rows: list[str], out: str | None) -> None:
    text = "\n".join(rows) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
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
    population.add_argument("--seed", type=int, default=0)
    population.add_argument("--aw-sigma", type=float, default=0.5)
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
                with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(chart)
        elif args.command == "threshold":
            value = fertility_threshold(_unsubsidized_game(cfg, "threshold"))
            _emit(["param,threshold", _row("a_w", value)], None)
        elif args.command == "population":
            _emit(_population_rows(cfg, args), None)
        else:  # pragma: no cover - argparse enforces the choices
            raise ScenarioError(f"unknown command {args.command!r}")
    except (ModelError, ValueError) as exc:
        # A household's failure exits as its cause would from ``solve``.
        cause = exc.__cause__ if isinstance(exc, HouseholdSolveFailure) else exc
        if isinstance(cause, (BoundaryStatics, NumericalFailure)):
            print(f"fertgames: solver failure: {exc}", file=sys.stderr)
            return 3
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
