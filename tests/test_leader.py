"""Leader condition of the three leader-follower solves against certifiers.

The certifier solves the husband's problem again in mpmath at 40 digits: the
real roots of his first-order cubic in the wife's receipt ``r = rho + s``,

    G r^3 + alpha a_w G r^2 + a_w [k - alpha (a_m + a_w - k G)] r
        - alpha k a_w^2 = 0,    G = gamma/delta, k = paid - s,

then the candidate with the highest husband utility among the roots with
``rho > 0``, the boundary ``rho = 0`` (with a subsidy) and the no-birth
corner.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from fertgames import (
    ModelParams,
    NonPositiveParameter,
    NumericalFailure,
    oracle_game,
    solve_extended,
    solve_game,
)
from fertgames.extended import leader_optima, leader_optimum
from conftest import (
    LEAD_OVERFLOW,
    LEAD_OVERFLOW_SUBSIDY,
    SEED,
    draw_params,
    loguniform,
    rel_err,
)

SCENARIO = ModelParams(alpha=1, delta=1, gamma=1, beta=1, a_w=1, a_m=1)
SCENARIO_SUBSIDY = 0.5
SCALES = (1e50, 1e-50, 1e150, 1e-150, 1e300, 1e-300)
# A rearing cost under a subsidy: at rho = 0 the husband would still pay
# beta*n = 160 out of a_m = 0.74, so the certifier gives the corner where a
# boundary that keeps a_m would give n = 79.55.
PAID_AND_SUBSIDY = (ModelParams(
    alpha=0.12318288969547643, delta=0.1251743720674299, gamma=9.962130582791056,
    beta=2.0171501328706705, a_w=0.29445599672300754, a_m=0.7411312135708246),
    8.879170316431871)


def mp_leader(p: ModelParams, paid: float, subsidy: float):
    """(rho, n) of the husband's best transfer; rho is None at the corner."""
    with mp.workdps(40):
        a_w, a_m, alpha = mp.mpf(p.a_w), mp.mpf(p.a_m), mp.mpf(p.alpha)
        g = mp.mpf(p.gamma) / mp.mpf(p.delta)
        s, paid = mp.mpf(subsidy), mp.mpf(paid)
        k = paid - s
        roots = mp.polyroots(
            [g, alpha * a_w * g, a_w * (k - alpha * (a_m + a_w - k * g)),
             -alpha * k * a_w * a_w],
            maxsteps=200, extraprec=80)
        candidates = [mp.re(r) - s for r in roots
                      if abs(mp.im(r)) < mp.mpf(10) ** -25 * abs(r) and mp.re(r) > s]
        if s > 0:
            candidates.append(mp.mpf(0))
        best_u, best_rho, best_n = mp.log(a_m), None, mp.mpf(0)
        for rho in candidates:
            n = g - a_w / (rho + s)
            c_m = a_m - (paid + rho) * n
            if n > 0 and c_m > 0 and mp.log(c_m) + alpha * n > best_u:
                best_u, best_rho, best_n = mp.log(c_m) + alpha * n, rho, n
        return (None if best_rho is None else float(best_rho)), float(best_n)


def subsidized_draws():
    """The scenario point and 50 log-uniform (params, subsidy) draws."""
    rng = np.random.default_rng(SEED + 31)
    draws = [(SCENARIO, SCENARIO_SUBSIDY)]
    for _ in range(50):
        p = draw_params(rng)
        draws.append((p, loguniform(rng)))
    return draws


DRAWS = subsidized_draws()


def assert_matches(rho, n, want_rho, want_n):
    if want_rho is None:
        assert n == 0.0
        return
    assert rel_err(n, want_n) < 1e-12
    if want_rho == 0.0:
        assert rho == 0.0
    else:
        assert rel_err(rho, want_rho) < 1e-12


def test_scenario_point_matches_high_precision_digits():
    eq = solve_game(SCENARIO, SCENARIO_SUBSIDY)
    assert format(eq.rho_star, ".12g") == "0.681289282834"
    assert format(eq.n_star, ".12g") == "0.153467305146"


def test_overflowing_scaled_cubic_is_solved_or_refused():
    # The roots of the leader cubic spread beyond the float range; the answer
    # is either the certifier's or a NumericalFailure, never an OverflowError.
    try:
        eq = solve_game(LEAD_OVERFLOW, LEAD_OVERFLOW_SUBSIDY)
    except NumericalFailure:
        return
    want_rho, want_n = mp_leader(LEAD_OVERFLOW, 0.0, LEAD_OVERFLOW_SUBSIDY)
    assert_matches(eq.rho_star, eq.n_star, want_rho, want_n)


@pytest.mark.parametrize("entry", ["leader_optimum", "leader_optima"])
def test_rearing_cost_with_subsidy_is_refused(entry):
    p, s = PAID_AND_SUBSIDY
    assert mp_leader(p, p.beta, s)[0] is None
    with pytest.raises(ValueError, match="not both"):
        if entry == "leader_optimum":
            leader_optimum(p, p.beta, s)
        else:  # one household of two pays the cost
            leader_optima(p.alpha, p.delta, p.gamma, p.a_w, p.a_m,
                          np.array([0.0, p.beta]), s)


@pytest.mark.parametrize("subsidy", [-0.1, math.nan, math.inf,
                                     pytest.param(10**400, id="int-beyond-float")])
def test_rejects_negative_or_nonfinite_subsidy(subsidy):
    with pytest.raises(NonPositiveParameter):
        solve_game(SCENARIO, subsidy)


@pytest.mark.parametrize("p,subsidy", DRAWS)
def test_subsidized_route_matches_mpmath(p, subsidy):
    eq = solve_game(p, subsidy)
    want_rho, want_n = mp_leader(p, 0.0, subsidy)
    assert_matches(eq.rho_star, eq.n_star, want_rho, want_n)
    assert eq.interior == (want_n > 0)


@pytest.mark.parametrize("p,subsidy", DRAWS)
def test_subsidized_route_never_loses_to_search_oracle(p, subsidy):
    # The oracle can miss a narrow interior peak, so only utility is compared.
    assert solve_game(p, subsidy).u_m >= oracle_game(p, subsidy).u_m - 1e-12


@pytest.mark.parametrize("p,_", DRAWS)
def test_game_route_matches_mpmath(p, _):
    # At k = 0 the certifier's cubic has the root 0, never a candidate.
    eq = solve_game(p)
    want_rho, want_n = mp_leader(p, 0.0, 0.0)
    assert_matches(eq.rho_star, eq.n_star, want_rho, want_n)
    assert eq.interior == (want_n > 0)


@pytest.mark.parametrize("p,_", DRAWS)
def test_extended_route_matches_mpmath(p, _):
    eq = solve_extended(p, "high")
    want_rho, want_n = mp_leader(p, p.beta, 0.0)
    assert_matches(eq.selected_rho, eq.n_star, want_rho, want_n)


@pytest.mark.parametrize("scale", SCALES)
def test_fertility_unchanged_when_incomes_costs_and_subsidy_scale(scale):
    for p, subsidy in DRAWS[:11]:
        scaled = ModelParams(p.alpha, p.delta, p.gamma, p.beta * scale,
                             p.a_w * scale, p.a_m * scale)
        g = p.gamma / p.delta
        ext, ext_scaled = solve_extended(p, "high"), solve_extended(scaled, "high")
        sub, sub_scaled = solve_game(p, subsidy), solve_game(scaled, subsidy * scale)
        assert abs(ext_scaled.n_star - ext.n_star) <= 1e-14 * g
        assert abs(sub_scaled.n_star - sub.n_star) <= 1e-14 * g
        assert len(ext_scaled.positive_roots) == len(ext.positive_roots) == 1
        assert math.isfinite(sub_scaled.u_m) and math.isfinite(ext_scaled.u_m)
