"""The closed-form routes over the whole positive float range.

Every route returns only finite floats or raises a ModelError; a valid input
whose answer leaves the floating-point range is a NumericalFailure, exit 3
from the CLI. The leader cubic's routes are covered too: the extended game,
and the subsidized game at a subsidy of 0.5 and at one equal to a_w.
"""

import math

import numpy as np
import pytest

from fertgames import (
    ModelError,
    ModelParams,
    NumericalFailure,
    benchmark_solve,
    build_report,
    fd_check,
    fertility_threshold,
    solve_extended,
    solve_game,
)
from fertgames.cli import run_command
from fertgames.core import Record
from fertgames.statics import ratio_fd


def extended_high(p):
    return solve_extended(p, "high")


def subsidy_half(p):
    return solve_game(p, 0.5)


def subsidy_a_w(p):
    return solve_game(p, p.a_w)


ROUTES = (benchmark_solve, solve_game, fertility_threshold, build_report, ratio_fd,
          extended_high, subsidy_half, subsidy_a_w)

# The power-of-two scaling of the game's quadratic flushes a_w to zero.
FLUSHED_INCOME = ModelParams(2, 1, 1, 1, 5e-324, 3)
# alpha*gamma*a_m/delta = 3e600.
THRESHOLD_OVERFLOW = ModelParams(1e200, 1e-200, 1e200, 1, 1, 3)
# The pooled budget a_w + a_m overflows.
BUDGET_OVERFLOW = ModelParams(2, 1, 1, 1, 1e308, 1e308)
# The wife's pooled consumption underflows to zero.
CONSUMPTION_UNDERFLOW = ModelParams(
    alpha=5.189242538305108e+149, delta=3.40513733805451e+113,
    gamma=3.9202583767045545e-128, beta=2.378227792783546e-105,
    a_w=1.2802385853184857e-73, a_m=2.2764574504243317e-51)
# An interior game whose fertility partial in alpha is 7.2e-332.
UNDERFLOWED_CELL = ModelParams(
    alpha=4.372665839788055e+149, delta=1.601796310558531e-107,
    gamma=1.9693951041570535e-77, beta=1.4652570979647548e-43,
    a_w=1.845061610542952e-132, a_m=1.3045932075213852e+111)
# An interior game whose statics radicand (alpha*a_w/2 + rho*)**2 is 9e400.
UNREPRESENTABLE = ModelParams(2, 1, 1, 1, 1e200, 3e200)


def floats(value):
    if isinstance(value, Record):
        for name in value._fields:
            yield from floats(getattr(value, name))
    elif isinstance(value, dict):
        for v in value.values():
            yield from floats(v)
    elif isinstance(value, float):
        yield value


@pytest.mark.parametrize("decades", [10, 150, 300])
def test_finite_or_model_error(decades):
    rng = np.random.default_rng([20251018, decades])
    span = decades * math.log(10.0)
    answered = dict.fromkeys(ROUTES, 0)
    for _ in range(2000):
        p = ModelParams(*map(float, np.exp(rng.uniform(-span, span, 6))))
        for route in ROUTES:
            try:
                result = route(p)
            except ModelError:
                continue
            assert all(map(math.isfinite, floats(result))), (route.__name__, p, result)
            answered[route] += 1
    assert all(answered.values()), answered


@pytest.mark.parametrize("route,p", [
    (solve_game, FLUSHED_INCOME),
    (fertility_threshold, THRESHOLD_OVERFLOW),
    (benchmark_solve, BUDGET_OVERFLOW),
    (benchmark_solve, CONSUMPTION_UNDERFLOW),
    (build_report, UNDERFLOWED_CELL),
    (build_report, UNREPRESENTABLE),
    # A step of 1e-6 times a_m rounds to zero.
    (lambda p: fd_check(p, "rho", "a_m"), ModelParams(2, 1, 1, 1, 1, 5e-324)),
])
def test_numerical_failure(route, p):
    with pytest.raises(NumericalFailure):
        route(p)


# The threshold's exit 3 is tested in test_cli.py, TestExitCodes.
@pytest.mark.parametrize("command,model,p", [
    ("solve", "game", FLUSHED_INCOME),
    ("statics", "game", FLUSHED_INCOME),
    ("solve", "benchmark", BUDGET_OVERFLOW),
    ("solve", "benchmark", CONSUMPTION_UNDERFLOW),
    ("statics", "game", UNREPRESENTABLE),
])
def test_cli_exit_three(tmp_path, capsys, command, model, p):
    scn = tmp_path / "range.scn"
    # A game scenario must not set beta, which the transfer game never reads.
    scn.write_text(f"model = {model}\n" + "".join(
        f"{name} = {getattr(p, name)!r}\n" for name in p._fields
        if not (model == "game" and name == "beta")))
    assert run_command([command, str(scn)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "solver failure" in out.err
