"""Comparative statics of the equilibrium transfer and fertility.

Every partial is an implicit derivative of the husband's first-order
quadratic ``F = rho**2 + alpha*a_w*rho - (alpha*delta/gamma)*a_w*A``, with
``A = a_w + a_m``, at the root ``rho*`` that :func:`~fertgames.game.solve_game`
returns: ``d rho*/d theta = -F_theta/F_rho``, ``F_rho = 2*rho* + alpha*a_w``.
At the root the constant term equals ``rho*(rho* + alpha*a_w)``, so with the
shares ``s = rho*/F_rho`` and ``t = (rho* + alpha*a_w)/F_rho``, both in (0, 1),
each partial of ``rho*`` and of ``n* = gamma/delta - a_w/rho*`` is a ratio of
positive terms and no subtraction cancels. In particular
``d n*/d delta = -(n* + a_w/F_rho)/delta < 0 < d n*/d gamma``: of the two
channels through which the wife's aversion and consumption taste move
fertility, the direct preference term always outweighs the induced transfer
term. Each closed form is also certified against a central finite difference:
both differences in one parameter, of rho* and of n*, come from the same two
solves at the ends of its stencil.

Cells of degree zero in incomes are evaluated in the power-of-two income
units of :func:`~fertgames.extended.income_units`, the transfer's
partials in preferences from the absolute transfer. Every cell is strictly
signed at an interior point, so one that is not finite, is zero or is
subnormal raises ``NumericalFailure``. At the zero-fertility corner the clamp
makes n* non-differentiable, so statics on n raise ``BoundaryStatics`` there
(one-sided differences cross the kink silently otherwise).
"""

from __future__ import annotations

import math

from .core import ModelParams, Record, _normal, _record, check_finite, replace
from .errors import BoundaryStatics, NumericalFailure
from .extended import income_units
from .game import GameEquilibrium, solve_game

PARTIAL_KEYS = ("alpha", "delta", "gamma", "a_w", "a_m")

_FD_RELATIVE_STEP = 1e-6


class RegimeClassification(Record):
    """Which channel controls the sign of a fertility partial.

    ``transfer_term`` and ``preference_term`` are the two competing
    magnitudes; ``dominant`` names the larger one and ``predicted_sign``
    is the implied sign of the fertility partial (+1 or -1).
    """

    parameter: str
    transfer_term: float
    preference_term: float
    dominant: str
    predicted_sign: int


class StaticsReport(Record):
    """Analytic and finite-difference partials at one parameter point."""

    radicand: float
    rho_star: float
    n_star: float
    partial_rho: dict[str, float]
    partial_n: dict[str, float]
    fd_rho: dict[str, float]
    fd_n: dict[str, float]
    delta_regime: RegimeClassification
    gamma_regime: RegimeClassification
    ratio_partial: float
    ratio_fd: float


def _difference(name: str, hi: float, lo: float, h: float) -> float:
    """The central difference ``(hi - lo)/(2*h)`` of ``name``, refused with
    NumericalFailure where ``2*h`` underflows to zero or the difference is
    not finite."""
    try:
        out = (hi - lo) / (2.0 * h)
    except ZeroDivisionError:
        raise NumericalFailure(f"{name}: a divisor underflows to zero") from None
    check_finite(name, out)
    return out


def _interior(eq: GameEquilibrium) -> GameEquilibrium:
    """``eq``, refused at the non-differentiable corner."""
    if not eq.interior:
        raise BoundaryStatics("fertility is clamped at zero at this point")
    return eq


def ratio_fd(p: ModelParams) -> float:
    """Central finite difference of n* in the income ratio, husband fixed."""
    ratio = p.income_ratio
    h = _FD_RELATIVE_STEP * ratio
    hi = _interior(solve_game(replace(p, a_w=(ratio + h) * p.a_m))).n_star
    lo = _interior(solve_game(replace(p, a_w=(ratio - h) * p.a_m))).n_star
    return _difference("ratio_fd", hi, lo, h)


def _stencil(p: ModelParams, param: str) -> tuple[GameEquilibrium, GameEquilibrium, float]:
    """The games at both ends of the central difference in ``param``, and
    its step."""
    x = getattr(p, param)
    h = _FD_RELATIVE_STEP * x
    return solve_game(replace(p, **{param: x + h})), solve_game(replace(p, **{param: x - h})), h


def _fd(stencil: tuple[GameEquilibrium, GameEquilibrium, float], target: str) -> float:
    """The central difference of rho* (``target`` 'rho') or n* ('n') over
    ``stencil``."""
    hi, lo, h = stencil
    if target == "n":
        return _difference("fd_check", _interior(hi).n_star, _interior(lo).n_star, h)
    return _difference("fd_check", hi.rho_star, lo.rho_star, h)


def fd_check(p: ModelParams, target: str, param: str) -> float:
    """Central finite difference of rho* or n* in one parameter.

    The step is 1e-6 times the parameter value. Without a subsidy rho* is
    the root of the husband's quadratic at the corner too, so its difference
    may cross the zero-fertility kink; for target 'n' the stencil must not,
    and BoundaryStatics is raised when it does.
    """
    if param not in PARTIAL_KEYS:
        raise ValueError(f"param must be one of {PARTIAL_KEYS}, got {param!r}")
    if target not in ("rho", "n"):
        raise ValueError(f"target must be 'rho' or 'n', got {target!r}")
    return _fd(_stencil(p, param), target)


def build_report(p: ModelParams) -> StaticsReport:
    """The full statics report at one interior parameter point.

    Raises BoundaryStatics at the zero-fertility corner, and NumericalFailure
    where an analytic cell is not finite, is zero or is subnormal.
    """
    eq = _interior(solve_game(p))
    rho = eq.rho_star
    e, a_w, a_m = income_units(p)
    try:
        r = math.ldexp(rho, -e)
        total = a_w + a_m
        pull = p.alpha * a_w
        slope = 2.0 * r + pull
        s = r / slope
        t = (r + pull) / slope
        d_am = t * r / total
        partial_rho = {
            "alpha": s * rho / p.alpha,
            "delta": t * rho / p.delta,
            "gamma": -t * rho / p.gamma,
            "a_w": s * ((r / a_w) * (a_w + total) / total + pull / total),
            "a_m": d_am,
        }
        direct = eq.n_star + a_w / slope
        lever = a_m / r
        partial_n = {
            "alpha": a_w / (p.alpha * slope),
            "delta": -direct / p.delta,
            "gamma": direct / p.gamma,
            # Euler's identity (rho* is homogeneous of degree one in incomes)
            # turns -1/rho* + (a_w/rho*^2)*(d rho*/d a_w) into this.
            "a_w": math.ldexp(-lever * d_am / r, -e),
            "a_m": math.ldexp((a_w / r) * t / total, -e),
        }
        radicand = math.ldexp(0.5 * slope, e) ** 2
        transfer_term = (a_w / r) * t
    except (ZeroDivisionError, OverflowError):
        raise NumericalFailure("a statics cell leaves the floating-point range") from None
    # Each preference channel outweighs its transfer channel at every
    # interior point (see the module docstring), which fixes both signs.
    delta_regime = RegimeClassification(
        "delta", transfer_term / p.delta, p.gamma / p.delta / p.delta, "preference", -1)
    gamma_regime = RegimeClassification(
        "gamma", transfer_term / p.gamma, 1.0 / p.delta, "preference", 1)
    ratio_partial = -lever * (lever * d_am)
    cells = (radicand, ratio_partial, *partial_rho.values(), *partial_n.values(),
             delta_regime.transfer_term, delta_regime.preference_term,
             gamma_regime.transfer_term, gamma_regime.preference_term)
    if not all(_normal(abs(v)) for v in cells):
        raise NumericalFailure(f"a statics cell leaves the normal float range: {cells!r}")
    stencils = [_stencil(p, k) for k in PARTIAL_KEYS]
    return _record(
        StaticsReport,
        radicand=radicand,
        rho_star=rho,
        n_star=eq.n_star,
        partial_rho=partial_rho,
        partial_n=partial_n,
        fd_rho={k: _fd(ends, "rho") for k, ends in zip(PARTIAL_KEYS, stencils)},
        fd_n={k: _fd(ends, "n") for k, ends in zip(PARTIAL_KEYS, stencils)},
        delta_regime=delta_regime,
        gamma_regime=gamma_regime,
        ratio_partial=ratio_partial,
        ratio_fd=ratio_fd(p),
    )
