"""Leader-follower transfer game between the spouses.

The husband moves first and commits to a per-child transfer ``rho``; the wife
then chooses fertility given her budget ``c_w = a_w + rho*n``. Her optimal
response decomposes into a preference term ``gamma/delta`` and an offsetting
income term ``-a_w/rho``, clamped at zero because bearing no children is
always feasible. Substituting the response into the husband's problem
(budget ``c_m = a_m - rho*n``, rearing costs folded into the transfer) makes
his first-order condition a quadratic in ``rho``:

    rho**2 + alpha*a_w*rho - (alpha*delta/gamma)*a_w*(a_w + a_m) = 0

whose unique positive root is the equilibrium transfer. Fertility is positive
exactly when the wife's income is below the critical level
``alpha*gamma*a_m/delta``; past it she stays childless no matter the offer.
A per-child subsidy paid to the wife from outside the household turns the
condition into the leader cubic shared with the extended game.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import ModelParams, participation, utility_linear_pair
from .errors import NonPositiveParameter, NonPositiveTransfer, NumericalFailure
from .extended import leader_optimum


@dataclass(frozen=True)
class ReactionDecomposition:
    """Wife's best-response fertility split into its two components."""

    preference_effect: float
    transfer_effect: float
    n: float


@dataclass(frozen=True)
class GameEquilibrium:
    """Equilibrium outcome of the transfer game.

    Without a subsidy ``rho_star`` is always the positive root of the
    husband's first-order quadratic. At a corner (``interior`` false) no
    transfer changes the outcome, so the formal root is reported for
    transparency while the allocation is simply the endowment point. With a
    subsidy ``rho_star`` is the transfer he pays, 0 at the corner.
    """

    rho_star: float
    n_star: float
    c_w: float
    c_m: float
    u_w: float
    u_m: float
    wife_participates: bool
    husband_participates: bool
    interior: bool


def wife_reaction(p: ModelParams, rho: float) -> ReactionDecomposition:
    """Wife's optimal fertility given a per-child transfer ``rho > 0``.

    Maximizes ``gamma*ln(a_w + rho*n) - delta*n`` over ``n >= 0``. Interior
    solutions satisfy ``gamma*rho/(a_w + rho*n) = delta``; when the transfer
    is too small to compensate her the response clamps to zero.
    """
    if not (isinstance(rho, (int, float)) and math.isfinite(rho) and rho > 0):
        raise NonPositiveTransfer(f"transfer must be > 0, got {rho!r}")
    preference = p.gamma / p.delta
    transfer = -p.a_w / rho
    return ReactionDecomposition(
        preference_effect=preference,
        transfer_effect=transfer,
        n=max(0.0, preference + transfer),
    )


def transfer_root(alpha, delta, gamma, a_w, a_m, sqrt):
    """Positive root of the husband's first-order quadratic, unscaled, and
    whether it keeps its digits.

    Evaluated in the cancellation-free form ``q / (alpha*a_w/2 + sqrt(X))``
    with ``q = (alpha*delta/gamma)*a_w*(a_w + a_m)`` and
    ``X = (alpha*a_w/2)**2 + q``, which is exact even when the two terms of
    the textbook expression ``-alpha*a_w/2 + sqrt(X)`` nearly cancel. Runs
    on floats with ``math.sqrt`` and on numpy arrays with ``numpy.sqrt``.

    The flag (a bool or boolean array) holds where ``a_w``, ``alpha*delta``,
    ``q`` and the root are normal floats, so the root keeps its digits; a
    subnormal ``alpha*a_w/2`` or its square is then negligible.
    """
    ad = alpha * delta
    half = 0.5 * alpha * a_w
    q = ad / gamma * a_w * (a_w + a_m)
    root = q / (half + sqrt(half * half + q))
    tiny = sys.float_info.min
    return root, (a_w >= tiny) & (ad >= tiny) & (q >= 2.0 * tiny) & (root >= tiny)


def income_units(p: ModelParams) -> tuple[int, float, float]:
    """``(e, a_w*2**-e, a_m*2**-e)``: the power of two ``2**e`` that brings the
    larger income into [0.5, 1), and both incomes in that unit (exact unless
    the smaller one falls below the normal range)."""
    _, e = math.frexp(p.a_w if p.a_w > p.a_m else p.a_m)
    return e, math.ldexp(p.a_w, -e), math.ldexp(p.a_m, -e)


def husband_consumption(g, alpha, a_w, rho):
    """The husband's interior consumption by his first-order identity
    ``c_m = (gamma/delta)*rho**2/(alpha*a_w)``, on floats or arrays, for where
    ``a_m - rho*n`` cancels. As ``g*rho/a_w > 1`` at an interior point, no
    intermediate of this order underflows before ``c_m`` does."""
    return g * (rho / a_w) * rho / alpha


def equilibrium_transfer(p: ModelParams) -> float:
    """Positive root of the husband's first-order quadratic.

    The root is homogeneous of degree one in incomes, so both are scaled by
    the power of two ``2**-e`` that brings the larger below 1, and the root
    is scaled back: exact in binary, and ``q`` no longer overflows near 1e300
    or underflows near 1e-300. Raises NumericalFailure where the transfer,
    or a term it is computed from, is not a normal float, so that its
    digits would be lost.
    """
    e, a_w, a_m = income_units(p)
    try:
        root, accurate = transfer_root(p.alpha, p.delta, p.gamma, a_w, a_m, math.sqrt)
        rho = math.ldexp(root, e)
    except (ZeroDivisionError, OverflowError):
        accurate = False
    if not (accurate and rho >= sys.float_info.min):
        raise NumericalFailure(
            f"the transfer at incomes {p.a_w!r} and {p.a_m!r} leaves the normal float range")
    return rho


def solve_game(p: ModelParams, subsidy: float = 0.0) -> GameEquilibrium:
    """Full equilibrium of the transfer game.

    Computes the optimal transfer, the wife's response to it, budget-exact
    consumptions and both utilities. Participation compares each spouse to
    the no-birth outcome (consuming own income, zero children); both hold
    automatically since refusing is always available to each side.

    A per-child ``subsidy`` is paid to the wife from outside the household:
    she receives ``rho + subsidy`` per child while the husband still pays
    only ``rho``. His first-order condition is then the leader cubic of
    :mod:`fertgames.extended` with ``k = -subsidy``, and ``rho_star`` is 0
    when he pays nothing, at the boundary or the no-birth corner.
    """
    if not (isinstance(subsidy, (int, float)) and math.isfinite(subsidy) and subsidy >= 0):
        raise NonPositiveParameter("subsidy", subsidy, requirement=">= 0")
    if subsidy > 0:
        _, rho, n, c_w, c_m = leader_optimum(p, 0.0, subsidy)
        if rho is None:
            rho = 0.0
    else:
        rho = equilibrium_transfer(p)
        n = wife_reaction(p, rho).n
        spent = rho * n
        c_w = p.a_w + spent
        c_m = p.a_m - spent
        if not spent < 0.5 * p.a_m:
            c_m = husband_consumption(p.gamma / p.delta, p.alpha, p.a_w, rho)
            if not c_m >= sys.float_info.min:
                raise NumericalFailure(
                    f"the husband's consumption {c_m!r} leaves the normal float range")
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
        interior=n > 0,
    )


def fertility_threshold(p: ModelParams, rtol: float = 1e-8) -> float:
    """Critical wife income at which equilibrium fertility first hits zero.

    Fertility vanishes where ``rho* = a_w*delta/gamma``; substituting this
    into the husband's quadratic gives the closed form

        a_w_crit = alpha*gamma*a_m/delta.

    ``rtol`` is ignored: the closed form is exact to rounding. Raises
    NumericalFailure when the threshold leaves the floating-point range.
    """
    threshold = p.alpha * p.gamma * p.a_m / p.delta
    if not 0.0 < threshold < math.inf:
        raise NumericalFailure(f"fertility threshold {threshold!r} leaves the float range")
    return threshold
