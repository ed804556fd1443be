"""Transfer game: reaction, equilibrium transfer, assembly, threshold."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertgames import (
    ModelParams,
    NonPositiveTransfer,
    NumericalFailure,
    equilibrium_transfer,
    fertility_threshold,
    solve_game,
    utility_linear_pair,
    wife_reaction,
)
from conftest import draw_interior_params, draw_params, rel_err

ANCHOR = ModelParams(alpha=2, delta=1, gamma=1, beta=1, a_w=1, a_m=3)

positive = st.floats(0.1, 10.0)
params_st = st.builds(ModelParams, alpha=positive, delta=positive,
                      gamma=positive, beta=positive, a_w=positive,
                      a_m=positive)


class TestWifeReaction:
    def test_exact_cancellation(self):
        r = wife_reaction(ModelParams(1, 1, 1, 1, 1, 1), 1.0)
        assert r.n == 0.0
        assert r.preference_effect == 1.0
        assert r.transfer_effect == -1.0

    def test_interior_response(self):
        p = ModelParams(alpha=1, delta=1, gamma=2, beta=1, a_w=1, a_m=1)
        r = wife_reaction(p, 1.0)
        assert r.n == pytest.approx(1.0, rel=1e-14)

    def test_clamped_response(self):
        p = ModelParams(alpha=1, delta=2, gamma=1, beta=1, a_w=4, a_m=1)
        r = wife_reaction(p, 1.0)
        assert r.n == 0.0
        assert r.preference_effect + r.transfer_effect == pytest.approx(-3.5)

    def test_rejects_nonpositive_transfer(self):
        with pytest.raises(NonPositiveTransfer):
            wife_reaction(ModelParams(1, 1, 1, 1, 1, 1), 0.0)

    @given(params_st, st.floats(0.05, 50.0))
    @settings(max_examples=200)
    def test_foc_holds_when_interior(self, p, rho):
        r = wife_reaction(p, rho)
        if r.n > 0:
            lhs = p.gamma * rho / (p.a_w + rho * r.n)
            assert rel_err(lhs, p.delta) < 1e-10

    @given(params_st, st.floats(0.05, 50.0))
    @settings(max_examples=200)
    def test_local_optimality_and_participation(self, p, rho):
        r = wife_reaction(p, rho)
        u_at = lambda n: p.gamma * math.log(p.a_w + rho * n) - p.delta * n
        u_best = u_at(r.n)
        assert u_best >= u_at(r.n + 1e-4) - 1e-12
        if r.n > 1e-4:
            assert u_best >= u_at(r.n - 1e-4) - 1e-12
        assert u_best >= u_at(0.0) - 1e-12


class TestEquilibriumTransfer:
    def test_anchor(self):
        assert equilibrium_transfer(ANCHOR) == pytest.approx(2.0, rel=1e-14)

    def test_symmetric_unit(self):
        p = ModelParams(alpha=1, delta=1, gamma=1, beta=1, a_w=1, a_m=1)
        assert equilibrium_transfer(p) == pytest.approx(1.0, rel=1e-14)

    def test_homogeneous_in_incomes(self):
        p = ModelParams(alpha=2, delta=1, gamma=1, beta=1, a_w=2, a_m=6)
        assert equilibrium_transfer(p) == pytest.approx(4.0, rel=1e-14)

    def test_extreme_incomes_scale_out(self, rng):
        # Scaling incomes by a power of two scales the transfer by it
        # exactly; 1e+-300 scalings round the incomes, not the solve.
        for _ in range(50):
            p = draw_params(rng)
            rho = equilibrium_transfer(p)
            for lam in (2.0**900, 2.0**-900, 1e300, 1e-300):
                scaled = ModelParams(p.alpha, p.delta, p.gamma, p.beta,
                                     lam * p.a_w, lam * p.a_m)
                got = equilibrium_transfer(scaled) / lam
                if math.frexp(lam)[0] == 0.5:
                    assert got == rho
                else:
                    assert rel_err(got, rho) < 1e-14

    def test_transfer_beyond_float_range_is_numerical_failure(self):
        p = ModelParams(alpha=1, delta=1e10, gamma=1e-10, beta=1,
                        a_w=1e300, a_m=1e300)
        with pytest.raises(NumericalFailure):
            equilibrium_transfer(p)

    @given(params_st)
    @settings(max_examples=300)
    def test_quadratic_residual(self, p):
        rho = equilibrium_transfer(p)
        q = (p.alpha * p.delta / p.gamma) * p.a_w * (p.a_w + p.a_m)
        residual = rho * rho + p.alpha * p.a_w * rho - q
        assert rho > 0
        assert abs(residual) < 1e-9 * max(rho * rho, q)


class TestSolveGame:
    def test_anchor_equilibrium(self):
        eq = solve_game(ANCHOR)
        assert eq.rho_star == pytest.approx(2.0, rel=1e-14)
        assert eq.n_star == pytest.approx(0.5, rel=1e-14)
        assert eq.c_w == pytest.approx(2.0, rel=1e-14)
        assert eq.c_m == pytest.approx(2.0, rel=1e-14)
        assert eq.wife_participates and eq.husband_participates
        assert eq.interior

    def test_boundary_at_equal_unit_incomes(self):
        eq = solve_game(ModelParams(alpha=1, delta=1, gamma=1, beta=1,
                                    a_w=1, a_m=1))
        assert eq.n_star == 0.0
        assert not eq.interior
        assert eq.c_w == 1.0 and eq.c_m == 1.0
        # Reservation utilities are attained exactly, so both still count in.
        assert eq.wife_participates and eq.husband_participates

    def test_boundary_at_threshold_income(self):
        eq = solve_game(ModelParams(alpha=2, delta=1, gamma=1, beta=1,
                                    a_w=6, a_m=3))
        assert eq.n_star == 0.0
        assert not eq.interior

    def test_budget_identities(self, rng):
        for _ in range(100):
            p = draw_params(rng)
            eq = solve_game(p)
            assert rel_err(eq.c_w, p.a_w + eq.rho_star * eq.n_star) < 1e-10
            assert rel_err(eq.c_m, p.a_m - eq.rho_star * eq.n_star) < 1e-10
            assert eq.c_m > 0
            assert eq.c_w >= p.a_w
            assert eq.c_m <= p.a_m

    def test_stackelberg_optimality_on_grid(self, rng):
        for _ in range(20):
            p = draw_interior_params(rng)
            eq = solve_game(p)
            scale = p.a_w * p.delta / p.gamma
            ceiling = (p.a_w + p.a_m) * p.delta / p.gamma

            def u_m(rho: float) -> float:
                n = max(0.0, p.gamma / p.delta - p.a_w / rho)
                return math.log(p.a_m - rho * n) + p.alpha * n

            lo = scale * 1e-6
            hi = min(scale * 4.0, ceiling * (1 - 1e-9))
            best = max(u_m(lo + (hi - lo) * i / 9_999) for i in range(10_000))
            assert u_m(eq.rho_star) >= best - 1e-9

    def test_fertility_scale_invariant(self, rng):
        for _ in range(100):
            p = draw_params(rng)
            n0 = solve_game(p).n_star
            for lam in (0.5, 2.0, 10.0):
                scaled = ModelParams(p.alpha, p.delta, p.gamma, p.beta,
                                     lam * p.a_w, lam * p.a_m)
                n1 = solve_game(scaled).n_star
                if n0 == 0.0:
                    assert n1 == 0.0
                else:
                    assert rel_err(n1, n0) < 1e-12

    def test_extreme_income_solves_to_corner(self):
        eq = solve_game(ModelParams(alpha=1, delta=1, gamma=1, beta=1,
                                    a_w=1e300, a_m=3))
        assert eq.n_star == 0.0 and not eq.interior
        assert (eq.c_w, eq.c_m) == (1e300, 3.0)
        assert math.isfinite(eq.rho_star) and eq.rho_star > 0

    def test_fertility_invariant_to_extreme_scales(self, rng):
        for _ in range(50):
            p = draw_interior_params(rng)
            n0 = solve_game(p).n_star
            for lam in (1e300, 1e-300):
                scaled = ModelParams(p.alpha, p.delta, p.gamma, lam * p.beta,
                                     lam * p.a_w, lam * p.a_m)
                assert rel_err(solve_game(scaled).n_star, n0) < 1e-12

    def test_threshold_law(self, rng):
        for _ in range(100):
            p = draw_params(rng)
            crit = p.alpha * p.gamma * p.a_m / p.delta
            n = solve_game(p).n_star
            if p.a_w < crit * (1 - 1e-9):
                assert n > 0
            elif p.a_w > crit * (1 + 1e-9):
                assert n == 0.0

    def test_fertility_decreasing_in_income_ratio(self, rng):
        for _ in range(10):
            p = draw_params(rng)
            crit_ratio = p.alpha * p.gamma / p.delta
            last = None
            for i in range(100):
                ratio = crit_ratio * (0.005 + 0.985 * i / 99)
                n = solve_game(ModelParams(p.alpha, p.delta, p.gamma, p.beta,
                                           ratio * p.a_m, p.a_m)).n_star
                assert n > 0
                if last is not None:
                    assert n < last
                last = n


class TestFertilityThreshold:
    def test_unit_case(self):
        p = ModelParams(alpha=1, delta=1, gamma=1, beta=1, a_w=0.5, a_m=1)
        assert fertility_threshold(p) == pytest.approx(1.0, rel=1e-8)

    def test_anchor_case(self):
        assert fertility_threshold(ANCHOR) == pytest.approx(6.0, rel=1e-8)

    def test_linear_in_husband_income(self):
        p = ModelParams(alpha=2, delta=1, gamma=1, beta=1, a_w=1, a_m=6)
        assert fertility_threshold(p) == pytest.approx(12.0, rel=1e-8)

    def test_threshold_is_where_fertility_stops(self):
        crit = fertility_threshold(ANCHOR)
        below = solve_game(ModelParams(2, 1, 1, 1, crit * 0.999, 3))
        above = solve_game(ModelParams(2, 1, 1, 1, crit * 1.001, 3))
        assert below.n_star > 0
        assert above.n_star == 0.0

    def test_agrees_with_closed_form(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            closed = p.alpha * p.gamma * p.a_m / p.delta
            assert rel_err(fertility_threshold(p), closed) < 1e-8


class TestParticipation:
    def test_wife_never_below_reservation(self, rng):
        for _ in range(200):
            p = draw_params(rng)
            eq = solve_game(p)
            assert eq.u_w >= p.gamma * math.log(p.a_w) - 1e-12
            assert eq.wife_participates

    def test_husband_never_below_reservation(self, rng):
        for _ in range(200):
            p = draw_params(rng)
            eq = solve_game(p)
            assert eq.u_m >= math.log(p.a_m) - 1e-12
            assert eq.husband_participates

    def test_utilities_match_linear_pair(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            eq = solve_game(p)
            u_w, u_m = utility_linear_pair(p, eq.c_w, eq.c_m, eq.n_star)
            assert eq.u_w == u_w and eq.u_m == u_m
