"""Brute-force optimizers that certify the closed forms independently.

Every solver in this package has a closed form or a polynomial route; the
oracles here never touch those. They maximize the raw utility objectives by
a coarse grid followed by golden-section refinement, so agreement between
the two routes is evidence, not circularity. The grid pass brackets the best
cell first, which guards the golden-section step against spurious local
maxima; plateaus (clamped no-birth regions) resolve to the first grid point
of the plateau, deterministically.

Only tests use these searches. :func:`oracle_game` certifies the subsidized
game, which production solves through the leader cubic: a per-child subsidy
paid to the wife from outside the household raises her effective transfer to
``rho + subsidy`` while the husband still pays only ``rho`` per child.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import (
    BenchmarkSolution,
    ModelParams,
    finite,
    participation,
    utility_linear_pair,
)
from .errors import NonFiniteObjective, PreferenceOrderViolated
from .game import GameEquilibrium

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GRID = 1024


def maximize_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    grid: int = DEFAULT_GRID,
) -> tuple[float, float]:
    """Maximize a scalar function on [lo, hi] to bracket width ``tol``.

    Evaluates ``grid`` equally spaced points, brackets the best cell, then
    shrinks it by golden-section until narrower than ``tol``. Returns the
    bracket midpoint and its value. Raises NonFiniteObjective on any NaN or
    infinite evaluation.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")

    def ev(x: float) -> float:
        value = f(x)
        if not math.isfinite(value):
            raise NonFiniteObjective(f"objective returned {value!r} at x={x!r}")
        return value

    step = (hi - lo) / (grid - 1)
    best_i, best_v = 0, ev(lo)
    for i in range(1, grid):
        v = ev(lo + i * step)
        if v > best_v:
            best_i, best_v = i, v

    a = lo + max(0, best_i - 1) * step
    b = lo + min(grid - 1, best_i + 1) * step

    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = ev(c), ev(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = ev(d)
    x = 0.5 * (a + b)
    return x, ev(x)


def parabolic_refine(
    f: Callable[[float], float],
    x: float,
    dx: float,
    lo: float,
    hi: float,
    rounds: int = 3,
) -> float:
    """Polish a maximizer estimate by successive parabolic interpolation.

    Golden-section stalls once the objective is flat to machine precision
    around the peak; fitting a parabola through three points spaced ``dx``
    apart recovers the vertex well below that noise floor (the same endgame
    Brent-style minimizers use). Falls back to the incumbent whenever the
    local quadratic model is not concave.
    """
    for _ in range(rounds):
        x_hi, x_lo = min(hi, x + dx), max(lo, x - dx)
        f0, f_hi, f_lo = f(x), f(x_hi), f(x_lo)
        curvature = f_hi - 2.0 * f0 + f_lo
        if not (math.isfinite(curvature) and curvature < 0.0):
            return x
        shift = 0.5 * (f_lo - f_hi) / curvature * dx
        shift = max(-dx, min(dx, shift))
        x = min(hi, max(lo, x + shift))
        dx *= 0.1
    return x


def oracle_benchmark(p: ModelParams, rtol: float = 1e-10) -> BenchmarkSolution:
    """Pooled-budget solution by one-dimensional search over fertility.

    For any fertility the remaining budget splits between the spouses in the
    Cobb-Douglas proportions gamma : 1, which collapses the family problem
    to a scalar search over n in (0, (a_w + a_m)/beta).
    """
    if not p.alpha > p.delta:
        raise PreferenceOrderViolated(
            f"alpha={p.alpha!r} must exceed delta={p.delta!r}"
        )
    total = p.total_income
    n_max = total / p.beta
    share = 1.0 + p.gamma

    def objective(n: float) -> float:
        rem = total - p.beta * n
        c_w = p.gamma * rem / share
        c_m = rem / share
        return (
            p.gamma * math.log(c_w)
            + math.log(c_m)
            + (p.alpha - p.delta) * math.log(n)
        )

    n, u = maximize_1d(objective, n_max * 1e-9, n_max * (1.0 - 1e-9), rtol * n_max)
    rem = total - p.beta * n
    c_w = p.gamma * rem / share
    c_m = rem / share
    return BenchmarkSolution(
        n_star=n,
        c_w=c_w,
        c_m=c_m,
        u_family=u,
        wife_utility_delta=p.gamma * math.log(c_w)
        - p.delta * math.log(n)
        - p.gamma * math.log(p.a_w),
    )


def _positive_quadratic_root(a: float, b: float, c: float) -> float:
    """Largest root of a*x^2 + b*x + c with a > 0, assuming one exists."""
    disc = b * b - 4.0 * a * c
    sq = math.sqrt(max(0.0, disc))
    if b <= 0:
        return (-b + sq) / (2.0 * a)
    # Cancellation-free branch for b > 0.
    q = -0.5 * (b + sq)
    return c / q if q != 0 else 0.0


def _clamped_reaction(p: ModelParams, rho: float, subsidy: float) -> float:
    return max(0.0, p.gamma / p.delta - p.a_w / (rho + subsidy))


def game_transfer_ceiling(p: ModelParams, subsidy: float = 0.0) -> float:
    """Transfer at which the husband's consumption would reach zero.

    Solves ``rho * n(rho) = a_m`` with the clamped reaction; the paid amount
    is nondecreasing in the transfer, so the crossing is unique. The search
    in :func:`oracle_game` stays strictly inside this ceiling to keep the
    log objective finite.
    """
    g = p.gamma / p.delta
    return _positive_quadratic_root(g, subsidy * g - p.a_w - p.a_m, -p.a_m * subsidy)


def oracle_game(
    p: ModelParams, subsidy: float = 0.0, rtol: float = 1e-10
) -> GameEquilibrium:
    """Transfer-game equilibrium found by direct search.

    The wife's effective per-child receipt is ``rho + subsidy``; the subsidy
    is funded outside the household, so the husband's budget still deducts
    only ``rho`` per child. With ``subsidy = 0`` this reproduces the
    closed-form game equilibrium up to search tolerance.
    """
    if not (isinstance(subsidy, (int, float)) and finite(subsidy) and subsidy >= 0):
        raise ValueError(f"subsidy must be a finite value >= 0, got {subsidy!r}")

    hi = game_transfer_ceiling(p, subsidy) * (1.0 - 1e-9)
    lo = hi * 1e-12

    def objective(rho: float) -> float:
        n = _clamped_reaction(p, rho, subsidy)
        c_m = p.a_m - rho * n
        return math.log(c_m) + p.alpha * n

    rho, _ = maximize_1d(objective, lo, hi, rtol * hi)
    n = _clamped_reaction(p, rho, subsidy)
    if n > 0:
        c_w = p.a_w + (rho + subsidy) * n
        c_m = p.a_m - rho * n
        interior = True
    else:
        c_w, c_m, interior = p.a_w, p.a_m, False
    u_w, u_m = utility_linear_pair(p, c_w, c_m, n)
    wife, husband = participation(p, u_w, u_m)
    return GameEquilibrium(
        rho_star=rho,
        n_star=n,
        c_w=c_w,
        c_m=c_m,
        u_w=u_w,
        u_m=u_m,
        wife_participates=wife,
        husband_participates=husband,
        interior=interior,
    )


def extended_transfer_ceiling(p: ModelParams) -> float:
    """Transfer at which the husband's consumption hits zero in the
    cost-explicit game, where he pays ``beta + rho`` per child."""
    g = p.gamma / p.delta
    return _positive_quadratic_root(g, p.beta * g - p.a_w - p.a_m, -p.beta * p.a_w)


def oracle_extended(p: ModelParams, rtol: float = 1e-10) -> tuple[float, float]:
    """Best transfer in the cost-explicit game by direct search.

    Maximizes ``ln(a_m - (beta + rho)*n(rho)) + alpha*n(rho)`` with the
    clamped reaction over the feasible transfer range. Returns the argmax
    and the attained utility; the no-birth plateau resolves to its first
    grid point when it is the global best.
    """
    hi = extended_transfer_ceiling(p) * (1.0 - 1e-9)
    lo = hi * 1e-12

    def objective(rho: float) -> float:
        n = _clamped_reaction(p, rho, 0.0)
        c_m = p.a_m - (p.beta + rho) * n
        return math.log(c_m) + p.alpha * n

    return maximize_1d(objective, lo, hi, rtol * hi)
