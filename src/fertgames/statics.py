"""Comparative statics of the equilibrium transfer and fertility.

Writing the transfer as ``rho* = -alpha*a_w/2 + sqrt(X)`` with radicand

    X = (alpha*a_w/2)**2 + (alpha*delta/gamma) * a_w * (a_w + a_m),

every partial of ``rho*`` follows by differentiating X, and the fertility
partials follow from ``n* = gamma/delta - a_w/rho*`` by the chain rule. Each
closed form is certified against a central finite difference rather than
trusted. Fertility responds to the wife's aversion and consumption taste
through two competing channels, a direct preference term and an induced
transfer term, and the sign classification reports which channel dominates.

All derivatives here are of the unclamped equilibrium; at the zero-fertility
corner the clamp makes n* non-differentiable, so statics on n raise
``BoundaryStatics`` there (one-sided differences cross the kink silently
otherwise, which is worse than refusing). A value beyond the float range, or
a divisor that underflows to zero, raises ``NumericalFailure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import wraps

from .core import ModelParams, check_finite
from .errors import BoundaryStatics, NumericalFailure
from .game import GameEquilibrium, equilibrium_transfer, solve_game

PARTIAL_KEYS = ("alpha", "delta", "gamma", "a_w", "a_m")

_FD_RELATIVE_STEP = 1e-6


@dataclass(frozen=True)
class RegimeClassification:
    """Which channel controls the sign of a fertility partial.

    ``transfer_term`` and ``preference_term`` are the two competing
    magnitudes; ``dominant`` names the larger one and ``predicted_sign``
    is the implied sign of the fertility partial (+1, -1 or 0).
    """

    parameter: str
    transfer_term: float
    preference_term: float
    dominant: str
    predicted_sign: int


@dataclass(frozen=True)
class StaticsReport:
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


def _finite(fn):
    """``fn``, refusing with NumericalFailure where it divides by a value that
    underflows to zero or returns a value, or dict of values, not finite."""

    @wraps(fn)
    def checked(*args):
        try:
            out = fn(*args)
        except ZeroDivisionError:
            raise NumericalFailure(f"{fn.__name__}: a divisor underflows to zero") from None
        check_finite(fn.__name__, *(out.values() if isinstance(out, dict) else (out,)))
        return out

    return checked


def _interior(p: ModelParams) -> GameEquilibrium:
    """The game's equilibrium, refused at the non-differentiable corner."""
    eq = solve_game(p)
    if not eq.interior:
        raise BoundaryStatics("fertility is clamped at zero at this point")
    return eq


@_finite
def transfer_radicand(p: ModelParams) -> float:
    half = 0.5 * p.alpha * p.a_w
    return half * half + (p.alpha * p.delta / p.gamma) * p.a_w * (p.a_w + p.a_m)


@_finite
def analytic_partials_rho(p: ModelParams) -> dict[str, float]:
    """Closed-form partials of the equilibrium transfer.

    Derived by differentiating the radicand: with S = a_w*(a_w + a_m),

        d rho*/d a_m   = alpha*delta*a_w / (2*gamma*sqrt(X))
        d rho*/d a_w   = -alpha/2 + [2*a_w*(alpha^2/4 + alpha*delta/gamma)
                                     + (alpha*delta/gamma)*a_m] / (2*sqrt(X))
        d rho*/d delta = alpha*S / (2*gamma*sqrt(X))
        d rho*/d gamma = -alpha*delta*S / (2*gamma^2*sqrt(X))
        d rho*/d alpha = -a_w/2 + (alpha*a_w^2/2 + delta*S/gamma) / (2*sqrt(X))
    """
    sx = math.sqrt(transfer_radicand(p))
    s = p.a_w * (p.a_w + p.a_m)
    ad_over_g = p.alpha * p.delta / p.gamma
    return {
        "alpha": -0.5 * p.a_w
        + (0.5 * p.alpha * p.a_w * p.a_w + p.delta * s / p.gamma) / (2.0 * sx),
        "delta": p.alpha * s / (2.0 * p.gamma * sx),
        "gamma": -p.alpha * p.delta * s / (2.0 * p.gamma * p.gamma * sx),
        "a_w": -0.5 * p.alpha
        + (2.0 * p.a_w * (0.25 * p.alpha * p.alpha + ad_over_g) + ad_over_g * p.a_m)
        / (2.0 * sx),
        "a_m": ad_over_g * p.a_w / (2.0 * sx),
    }


@_finite
def _partials_n(p: ModelParams, rho: float, d_rho: dict[str, float]) -> dict[str, float]:
    lever = p.a_w / (rho * rho)
    return {
        "alpha": lever * d_rho["alpha"],
        "delta": -p.gamma / (p.delta * p.delta) + lever * d_rho["delta"],
        "gamma": 1.0 / p.delta + lever * d_rho["gamma"],
        "a_w": -1.0 / rho + lever * d_rho["a_w"],
        "a_m": lever * d_rho["a_m"],
    }


def analytic_partials_n(p: ModelParams) -> dict[str, float]:
    """Chain-rule partials of equilibrium fertility, interior points only.

    From ``n* = gamma/delta - a_w/rho*``, every parameter acts through
    ``(a_w/rho*^2) * d rho*/d theta``, plus the direct terms ``-gamma/delta^2``
    (for delta), ``1/delta`` (for gamma) and ``-1/rho*`` (for a_w).
    """
    return _partials_n(p, _interior(p).rho_star, analytic_partials_rho(p))


@_finite
def _ratio_partial(p: ModelParams, rho: float, d_aw: float) -> float:
    return -(p.a_m / (rho * rho)) * (rho - p.a_w * d_aw)


def ratio_partial(p: ModelParams) -> float:
    """Fertility response to the wife-to-husband income ratio, husband fixed.

    With R = a_w/a_m and a_w = R*a_m,

        d n*/d R = -(a_m/rho*^2) * [rho* - R * d rho*/d R],

    where d rho*/d R = a_m * (d rho*/d a_w). The bracket equals
    ``a_m * d rho*/d a_m`` by Euler's identity (rho* is homogeneous of
    degree one in incomes), so the response is negative everywhere interior.
    """
    return _ratio_partial(p, _interior(p).rho_star, analytic_partials_rho(p)["a_w"])


@_finite
def ratio_fd(p: ModelParams) -> float:
    """Central finite difference of n* in the income ratio, husband fixed."""
    ratio = p.income_ratio
    h = _FD_RELATIVE_STEP * ratio
    hi = _interior(replace(p, a_w=(ratio + h) * p.a_m)).n_star
    lo = _interior(replace(p, a_w=(ratio - h) * p.a_m)).n_star
    return (hi - lo) / (2.0 * h)


def _target_value(p: ModelParams, target: str) -> float:
    if target == "rho":
        return equilibrium_transfer(p)
    if target == "n":
        return _interior(p).n_star
    raise ValueError(f"target must be 'rho' or 'n', got {target!r}")


@_finite
def fd_check(p: ModelParams, target: str, param: str) -> float:
    """Central finite difference of rho* or n* in one parameter.

    The step is 1e-6 times the parameter value. For target 'n' the stencil
    must not cross the zero-fertility kink; BoundaryStatics is raised when
    it does.
    """
    if param not in PARTIAL_KEYS:
        raise ValueError(f"param must be one of {PARTIAL_KEYS}, got {param!r}")
    x = getattr(p, param)
    h = _FD_RELATIVE_STEP * x
    hi = _target_value(replace(p, **{param: x + h}), target)
    lo = _target_value(replace(p, **{param: x - h}), target)
    return (hi - lo) / (2.0 * h)


def _regimes(
    p: ModelParams, rho: float, d_rho: dict[str, float], d_n: dict[str, float]
) -> tuple[RegimeClassification, RegimeClassification]:
    lever = p.a_w / (rho * rho)
    # (param, transfer term, preference term, dominant channel when the
    # fertility partial is negative, zero, positive)
    regimes = (
        ("delta", lever * d_rho["delta"], p.gamma / (p.delta * p.delta),
         ("preference", "balanced", "transfer")),
        ("gamma", -lever * d_rho["gamma"], 1.0 / p.delta,
         ("transfer", "balanced", "preference")),
    )
    out = []
    for param, transfer_term, preference_term, dominant in regimes:
        sign = (d_n[param] > 0) - (d_n[param] < 0)
        out.append(RegimeClassification(param, transfer_term, preference_term,
                                        dominant[sign + 1], sign))
    return tuple(out)


def sign_regimes(
    p: ModelParams,
) -> tuple[RegimeClassification, RegimeClassification]:
    """Classify the ambiguous fertility partials in delta and gamma.

    For the wife's aversion delta, fertility rises only when the induced
    transfer response ``(a_w/rho*^2) * d rho*/d delta`` outweighs the direct
    preference loss ``gamma/delta^2``. For her consumption taste gamma, it
    rises only when the direct preference gain ``1/delta`` outweighs the
    induced transfer loss ``-(a_w/rho*^2) * d rho*/d gamma``. The fertility
    partial is, bit for bit, the transfer term minus the preference term for
    delta and its negative for gamma, so its sign names the dominant channel.
    """
    rho = _interior(p).rho_star
    d_rho = analytic_partials_rho(p)
    return _regimes(p, rho, d_rho, _partials_n(p, rho, d_rho))


def build_report(p: ModelParams) -> StaticsReport:
    """Assemble the full statics report at one interior parameter point."""
    eq = _interior(p)
    rho = eq.rho_star
    d_rho = analytic_partials_rho(p)
    d_n = _partials_n(p, rho, d_rho)
    delta_regime, gamma_regime = _regimes(p, rho, d_rho, d_n)
    return StaticsReport(
        radicand=transfer_radicand(p),
        rho_star=rho,
        n_star=eq.n_star,
        partial_rho=d_rho,
        partial_n=d_n,
        fd_rho={k: fd_check(p, "rho", k) for k in PARTIAL_KEYS},
        fd_n={k: fd_check(p, "n", k) for k in PARTIAL_KEYS},
        delta_regime=delta_regime,
        gamma_regime=gamma_regime,
        ratio_partial=_ratio_partial(p, rho, d_rho["a_w"]),
        ratio_fd=ratio_fd(p),
    )
