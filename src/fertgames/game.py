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

The quadratic is the leader condition of :mod:`fertgames.extended` when the
husband pays nothing on top of the transfer (``k = 0``). A per-child subsidy
paid to the wife from outside the household makes it the leader cubic with
``k = -subsidy``; both are solved by ``leader_optimum``, as is the extended
game.
"""

from __future__ import annotations

import math

from .core import ModelParams, Record, _record, finite, participation, utility_linear_pair
from .errors import NonPositiveParameter, NonPositiveTransfer, NumericalFailure
# equilibrium_transfer is re-exported.
from .extended import equilibrium_transfer, leader_optimum


class ReactionDecomposition(Record):
    """Wife's best-response fertility split into its two components."""

    preference_effect: float
    transfer_effect: float
    n: float


class GameEquilibrium(Record):
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
    if not (isinstance(rho, (int, float)) and finite(rho) and rho > 0):
        raise NonPositiveTransfer(f"transfer must be > 0, got {rho!r}")
    preference = p.gamma / p.delta
    transfer = -p.a_w / rho
    return ReactionDecomposition(
        preference_effect=preference,
        transfer_effect=transfer,
        n=max(0.0, preference + transfer),
    )


def solve_game(p: ModelParams, subsidy: float = 0.0) -> GameEquilibrium:
    """Full equilibrium of the transfer game.

    Computes the optimal transfer, the wife's response to it, budget-exact
    consumptions and both utilities. Participation compares each spouse to
    the no-birth outcome (consuming own income, zero children); both hold
    automatically since refusing is always available to each side.

    A per-child ``subsidy`` is paid to the wife from outside the household:
    she receives ``rho + subsidy`` per child while the husband still pays
    only ``rho``, and ``rho_star`` is 0 when he pays nothing, at the
    boundary or the no-birth corner.
    """
    if not (isinstance(subsidy, (int, float)) and finite(subsidy) and subsidy >= 0):
        raise NonPositiveParameter("subsidy", subsidy, requirement=">= 0")
    root, rho, n, c_w, c_m = leader_optimum(p, 0.0, subsidy)
    if rho is None:
        rho = 0.0 if subsidy > 0 else root
    u_w, u_m = utility_linear_pair(p, c_w, c_m, n)
    wife, husband = participation(p, u_w, u_m)
    return _record(
        GameEquilibrium,
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
