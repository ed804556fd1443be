"""Grid + golden-section optimizers and the subsidy-game solver."""

import math

import pytest

from fertgames import (
    ModelParams,
    NonFiniteObjective,
    PreferenceOrderViolated,
    benchmark_solve,
    maximize_1d,
    oracle_benchmark,
    oracle_game,
    solve_game,
)
from fertgames.oracle import extended_transfer_ceiling, game_transfer_ceiling
from conftest import draw_benchmark_params, draw_params, rel_err

BOUNDARY_UNIT = ModelParams(alpha=1, delta=1, gamma=1, beta=1, a_w=1, a_m=1)


class TestMaximize1d:
    def test_parabola(self):
        x, v = maximize_1d(lambda x: -(x - 2.0) ** 2, 0.0, 5.0, tol=1e-10)
        assert x == pytest.approx(2.0, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_wife_objective(self):
        # gamma=2, delta=1, a_w=1, transfer=1: best response solves
        # 2/(1+n) = 1, i.e. n = 1.
        x, _ = maximize_1d(lambda n: 2.0 * math.log(1.0 + n) - n, 0.0, 10.0,
                          tol=1e-10)
        assert x == pytest.approx(1.0, abs=1e-6)

    def test_husband_objective(self):
        p = ModelParams(alpha=2, delta=1, gamma=1, beta=1, a_w=1, a_m=3)

        def u_m(rho: float) -> float:
            n = max(0.0, 1.0 - 1.0 / rho)
            return math.log(3.0 - rho * n) + 2.0 * n

        x, _ = maximize_1d(u_m, 1e-6, 3.999, tol=1e-10)
        assert x == pytest.approx(2.0, abs=1e-6)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteObjective):
            maximize_1d(lambda x: math.inf if x > 1 else 0.0, 0.0, 2.0, tol=1e-6)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda x: x, 1.0, 1.0, tol=1e-6)

    def test_grid_density_invariance(self):
        f = lambda x: -(x - math.pi) ** 2

        def run(grid: int) -> float:
            return maximize_1d(f, 0.0, 10.0, tol=1e-8, grid=grid)[0]

        assert abs(run(1024) - run(2048)) < 1e-8
        assert abs(run(1024) - run(4096)) < 1e-8

    def test_plateau_resolves_deterministically(self):
        x1, _ = maximize_1d(lambda x: 1.0, 0.0, 1.0, tol=1e-8)
        x2, _ = maximize_1d(lambda x: 1.0, 0.0, 1.0, tol=1e-8)
        assert x1 == x2


class TestOracleBenchmark:
    def test_anchor(self):
        sol = oracle_benchmark(ModelParams(2, 1, 1, 1, a_w=2, a_m=2))
        assert rel_err(sol.n_star, 4 / 3) < 1e-6

    def test_costly_anchor(self):
        sol = oracle_benchmark(ModelParams(3, 1, 1, 2, a_w=4, a_m=4))
        assert rel_err(sol.n_star, 2.0) < 1e-6

    def test_rejects_preference_order(self):
        with pytest.raises(PreferenceOrderViolated):
            oracle_benchmark(BOUNDARY_UNIT)

    def test_matches_closed_form(self, rng):
        for _ in range(50):
            p = draw_benchmark_params(rng)
            grid = oracle_benchmark(p)
            closed = benchmark_solve(p)
            assert rel_err(grid.n_star, closed.n_star) < 1e-6
            assert abs(grid.u_family - closed.u_family) < 1e-9


class TestOracleGame:
    def test_matches_closed_form_at_anchor(self):
        p = ModelParams(alpha=2, delta=1, gamma=1, beta=1, a_w=1, a_m=3)
        eq = oracle_game(p)
        assert rel_err(eq.rho_star, 2.0) < 1e-6
        assert rel_err(eq.n_star, 0.5) < 1e-6

    def test_matches_closed_form_on_draws(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            search = oracle_game(p)
            closed = solve_game(p)
            assert search.n_star == pytest.approx(closed.n_star, abs=1e-6)
            assert search.c_w == pytest.approx(closed.c_w, rel=1e-6)
            assert search.c_m == pytest.approx(closed.c_m, rel=1e-6)
            assert abs(search.u_m - closed.u_m) < 1e-9
            if closed.interior and closed.n_star > 1e-3:
                assert rel_err(search.rho_star, closed.rho_star) < 1e-6

    def test_subsidy_rescues_boundary_case(self):
        # Without help the unit-income couple stays childless; a 0.5
        # per-child subsidy restores an interior equilibrium. Golden values
        # cross-checked against a 30-digit stationary-point solve.
        assert solve_game(BOUNDARY_UNIT).n_star == 0.0
        eq = oracle_game(BOUNDARY_UNIT, subsidy=0.5)
        assert eq.interior
        assert eq.rho_star == pytest.approx(0.68128928, abs=1e-6)
        assert eq.n_star == pytest.approx(0.15346730, abs=1e-6)
        assert eq.c_w == pytest.approx(1.18128928, abs=1e-6)
        assert eq.wife_participates and eq.husband_participates

    def test_large_subsidy_saturates_reaction(self):
        for subsidy, expect in ((10.0, 0.9), (100.0, 0.99), (1000.0, 0.999)):
            eq = oracle_game(BOUNDARY_UNIT, subsidy=subsidy)
            assert eq.n_star == pytest.approx(expect, abs=1e-6)
            assert eq.n_star < BOUNDARY_UNIT.gamma / BOUNDARY_UNIT.delta

    def test_subsidy_never_hurts_fertility(self, rng):
        for _ in range(20):
            p = draw_params(rng)
            base = oracle_game(p).n_star
            helped = oracle_game(p, subsidy=0.5).n_star
            assert helped >= base - 1e-9

    def test_rejects_negative_subsidy(self):
        with pytest.raises(ValueError):
            oracle_game(BOUNDARY_UNIT, subsidy=-0.1)

    def test_rejects_int_beyond_float_range(self):
        # math.isfinite cannot convert such an int to a float.
        with pytest.raises(ValueError, match="finite"):
            oracle_game(BOUNDARY_UNIT, subsidy=10**400)


class TestCeilings:
    def test_game_ceiling_without_subsidy(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            ceiling = game_transfer_ceiling(p)
            assert ceiling == pytest.approx(
                (p.a_w + p.a_m) * p.delta / p.gamma, rel=1e-12)

    def test_consumption_positive_inside_ceiling(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            for subsidy in (0.0, 0.7):
                ceiling = game_transfer_ceiling(p, subsidy)
                rho = ceiling * (1 - 1e-9)
                n = max(0.0, p.gamma / p.delta - p.a_w / (rho + subsidy))
                assert p.a_m - rho * n > 0

    def test_extended_ceiling_consumption_positive(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            rho = extended_transfer_ceiling(p) * (1 - 1e-9)
            n = max(0.0, p.gamma / p.delta - p.a_w / rho)
            assert p.a_m - (p.beta + rho) * n > 0
