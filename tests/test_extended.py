"""Cubic first-order condition: assembly, root isolation, regime selection."""

import math

import numpy as np
import pytest

from fertgames import extended
from fertgames import (
    ModelParams,
    equilibrium_transfer,
    oracle_extended,
    real_roots,
    solve_extended,
    solve_game,
)
from conftest import (
    cubic_value,
    draw_params,
    extended_cubic,
    positive_roots,
    rel_err,
    residual_scale,
)

ANCHOR = ModelParams(alpha=1, delta=1, gamma=1, beta=1, a_w=1, a_m=3)

# Positive root of x^3 + x^2 - 2x - 1, equal to 2*cos(2*pi/7).
ANCHOR_RHO = 2.0 * math.cos(2.0 * math.pi / 7.0)


def husband_utility(p: ModelParams, rho: float) -> float:
    n = p.gamma / p.delta - p.a_w / rho
    return math.log(p.a_m - (p.beta + rho) * n) + p.alpha * n


def stationarity_fd(p: ModelParams, rho: float, h: float) -> float:
    """Central difference of husband utility, evaluated without cancellation.

    Subtracting u(rho+h) - u(rho-h) directly drowns in roundoff once
    h = 1e-7*rho is below ~1e-9, so the increments are carried exactly:
    n(+h) - n(-h) = 2h*a_w/(rho^2 - h^2), the consumption difference follows
    from the budget, and the log difference goes through log1p.
    """
    ratio = p.gamma / p.delta
    dn = 2.0 * h * p.a_w / (rho * rho - h * h)
    dc = -(p.beta * dn + 2.0 * h * ratio)
    n_lo = ratio - p.a_w / (rho - h)
    c_lo = p.a_m - (p.beta + rho - h) * n_lo
    return (math.log1p(dc / c_lo) + p.alpha * dn) / (2.0 * h)


def utility_third_derivative(p: ModelParams, rho: float) -> float:
    """Exact third derivative of husband utility in the transfer.

    Needed to budget the central difference's own h^2 * u'''/6 truncation
    term: at stiff corner draws (tiny rho, consumption near zero) that term
    alone can exceed 1e-5 even though the root is exactly stationary.
    """
    ratio = p.gamma / p.delta
    c = p.a_m - (p.beta + rho) * (ratio - p.a_w / rho)
    c1 = -ratio - p.beta * p.a_w / rho**2
    c2 = 2.0 * p.beta * p.a_w / rho**3
    c3 = -6.0 * p.beta * p.a_w / rho**4
    log_part = c3 / c - 3.0 * c2 * c1 / c**2 + 2.0 * c1**3 / c**3
    return log_part + 6.0 * p.alpha * p.a_w / rho**4


class TestCubicCoefficients:
    def test_anchor(self):
        assert extended_cubic(ANCHOR) == pytest.approx((1.0, 1.0, -2.0, -1.0))

    def test_depends_only_on_preference_ratio(self):
        scaled = ModelParams(alpha=1, delta=2, gamma=2, beta=1, a_w=1, a_m=3)
        assert extended_cubic(scaled) == pytest.approx(extended_cubic(ANCHOR))

    def test_equal_incomes(self):
        foc = extended_cubic(ModelParams(1, 1, 1, 1, a_w=2, a_m=2))
        assert foc == pytest.approx((0.5, 1.0, -2.0, -2.0))

    def test_sign_pattern(self, rng):
        for _ in range(200):
            c3, c2, _, c0 = extended_cubic(draw_params(rng))
            assert c3 > 0 and c2 > 0 and c0 < 0

    def test_cubic_matches_utility_derivative(self, rng):
        # The assembled cubic must reproduce the derivative of the husband's
        # utility through -a_w*f(rho)/(rho^3*c_m); checked at 5 random
        # parameter points against a central difference.
        for _ in range(5):
            p = draw_params(rng)
            foc = extended_cubic(p)
            ceiling_root = max(positive_roots(foc))
            for frac in (0.6, 0.9, 1.2):
                rho = ceiling_root * frac
                n = p.gamma / p.delta - p.a_w / rho
                c_m = p.a_m - (p.beta + rho) * n
                if c_m <= 0 or n <= -p.a_m:
                    continue
                h = 1e-6 * rho
                cm_lo = p.a_m - (p.beta + rho - h) * (p.gamma / p.delta - p.a_w / (rho - h))
                cm_hi = p.a_m - (p.beta + rho + h) * (p.gamma / p.delta - p.a_w / (rho + h))
                if cm_lo <= 0 or cm_hi <= 0:
                    continue
                fd = (husband_utility(p, rho + h) - husband_utility(p, rho - h)) / (2 * h)
                implied = -p.a_w * cubic_value(foc, rho) / (rho**3 * c_m)
                assert abs(fd - implied) < 1e-8 * max(1.0, abs(fd))


def leader_pattern_cubics(rng, count: int) -> list[tuple[float, float, float, float]]:
    """Normal draws with the signs real_roots accepts: ``c3 > 0``,
    ``c2 >= 0`` and ``c0 != 0``."""
    cubics = []
    for _ in range(count):
        c3, c2, c1, c0 = (float(rng.normal()) for _ in range(4))
        cubics.append((max(abs(c3), 1e-3), abs(c2), c1, c0 or 1.0))
    return cubics


class TestRootIsolation:
    def test_anchor_positive_root(self):
        roots = real_roots((1.0, 1.0, -2.0, -1.0))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(ANCHOR_RHO, abs=1e-12)

    def test_pure_cube(self):
        roots = real_roots((1.0, 0.0, 0.0, -8.0))
        assert roots == pytest.approx((2.0,), abs=1e-12)

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            real_roots((0.0, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize("coeffs", [
        (-1.0, 1.0, -2.0, -1.0), (1.0, -6.0, 11.0, -6.0), (2.0, 0.0, 0.0, 0.0)],
        ids=["c3<0", "c2<0", "c0=0"])
    def test_rejects_cubics_outside_the_leader_pattern(self, coeffs):
        with pytest.raises(ValueError, match="c3 > 0, c2 >= 0 and c0 != 0"):
            real_roots(coeffs)

    def test_residuals_below_tolerance(self, rng):
        for foc in leader_pattern_cubics(rng, 300):
            for r in real_roots(foc):
                assert abs(cubic_value(foc, r)) < 1e-12 * residual_scale(foc, r)
                assert abs(cubic_value(foc, r)) < 1e-9 * max(1.0, abs(foc[3]))

    def test_matches_numpy_roots(self, rng):
        counts = []
        for coeffs in leader_pattern_cubics(rng, 300):
            mine = real_roots(coeffs)
            ref = [z.real for z in np.roots(coeffs) if abs(z.imag) < 1e-9 and z.real > 0.0]
            counts.append(len(mine))
            assert len(mine) == min(len(ref), 1)
            if ref:
                assert abs(mine[0] - max(ref)) < 1e-7 * max(1.0, max(ref))
        assert set(counts) == {0, 1}

    def test_array_route_gives_the_same_bits(self, rng):
        # The anchor, a pure cube, a cubic with no positive root, one whose
        # two positive roots nearly meet, and the cubics of
        # test_matches_numpy_roots, solved as one array.
        cubics = [(1.0, 1.0, -2.0, -1.0), (1.0, 0.0, 0.0, -8.0),
                  (1.0, 0.5, -2.0, 1.0), (1.0, 1.0, -5.0, 3.0 - 1e-9)]
        cubics += leader_pattern_cubics(rng, 300)
        columns = tuple(np.array(cubics).T)
        with np.errstate(all="ignore"):  # as in leader_optima: every lane runs every step
            largest, ok = extended._arrays().largest(columns, 0, True)
        assert ok.all()
        counts = []
        for j, coeffs in enumerate(cubics):
            want = real_roots(coeffs)
            counts.append(len(want))
            assert repr(largest[j].item()) == repr(want[0] if want else math.nan)
        assert counts[:4] == [1, 1, 0, 1] and set(counts[4:]) == {0, 1}

    def test_model_cubic_has_exactly_one_positive_root(self, rng):
        for _ in range(1000):
            assert len(positive_roots(extended_cubic(draw_params(rng)))) == 1


class TestSolveExtended:
    def test_anchor_high_regime(self):
        eq = solve_extended(ANCHOR, "high")
        assert eq.selected_rho == pytest.approx(ANCHOR_RHO, abs=1e-5)
        assert eq.n_star == pytest.approx(0.19806, abs=1e-5)
        assert eq.c_m == pytest.approx(2.55495, abs=1e-4)
        assert eq.u_m > math.log(3.0)
        assert eq.husband_participates
        assert eq.interior

    def test_anchor_low_regime_degenerate(self):
        high = solve_extended(ANCHOR, "high")
        low = solve_extended(ANCHOR, "low")
        assert low.selected_rho == high.selected_rho
        assert low.n_star == high.n_star
        assert len(low.positive_roots) == 1

    def test_no_interior_optimum_boundary(self):
        p = ModelParams(alpha=1, delta=1, gamma=1, beta=1, a_w=0.5, a_m=0.5)
        eq = solve_extended(p, "low")
        assert eq.selected_rho is None
        assert eq.n_star == 0.0
        assert eq.c_w == 0.5 and eq.c_m == 0.5
        assert not eq.interior
        # The search oracle agrees the no-birth plateau is all there is.
        _, best = oracle_extended(p)
        assert best == pytest.approx(math.log(0.5), abs=1e-9)

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            solve_extended(ANCHOR, "medium")

    def test_budgets_at_equality(self, rng):
        for _ in range(100):
            p = draw_params(rng)
            eq = solve_extended(p, "high")
            if eq.interior:
                rho = eq.selected_rho
                assert rel_err(eq.c_w, p.a_w + rho * eq.n_star) < 1e-10
                assert rel_err(eq.c_m, p.a_m - (p.beta + rho) * eq.n_star) < 1e-10
                assert eq.c_m > 0

    def test_root_residual_invariant(self, rng):
        for _ in range(200):
            p = draw_params(rng)
            eq = solve_extended(p, "high")
            foc = extended_cubic(p)
            for r in real_roots(foc):
                assert abs(cubic_value(foc, r)) < 1e-9 * max(1.0, abs(foc[3]))
            if eq.selected_rho is not None:
                assert eq.selected_rho in eq.positive_roots

    def test_foc_stationarity_at_admissible_roots(self, rng):
        checked = 0
        while checked < 100:
            p = draw_params(rng)
            eq = solve_extended(p, "high")
            if not eq.interior:
                continue
            rho = eq.selected_rho
            h = 1e-7 * rho
            fd = stationarity_fd(p, rho, h)
            truncation = h * h * abs(utility_third_derivative(p, rho)) / 6.0
            assert abs(fd) < 1e-5 + 1.5 * truncation
            checked += 1

    def test_matches_search_oracle(self, rng):
        checked = 0
        while checked < 50:
            p = draw_params(rng)
            eq = solve_extended(p, "high")
            if not eq.interior or eq.n_star < 1e-3:
                continue
            rho_oracle, value_oracle = oracle_extended(p)
            assert rel_err(rho_oracle, eq.selected_rho) < 1e-6
            assert abs(value_oracle - husband_utility(p, eq.selected_rho)) < 1e-9
            checked += 1

    def test_reduces_to_game_as_cost_vanishes(self, rng):
        checked = 0
        while checked < 20:
            base = draw_params(rng)
            p = ModelParams(base.alpha, base.delta, base.gamma, 1e-8,
                            base.a_w, base.a_m)
            eq = solve_extended(p, "high")
            if not eq.interior:
                continue
            rho_game = equilibrium_transfer(p)
            assert rel_err(eq.selected_rho + p.beta, rho_game) < 1e-4
            assert rel_err(eq.n_star, solve_game(p).n_star) < 1e-3
            checked += 1
