"""Parameter validation, utilities, and the pooled-budget closed form."""

import math
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertgames import (
    DomainError,
    ModelParams,
    NonPositiveParameter,
    PreferenceOrderViolated,
    benchmark_solve,
    fertility_threshold,
    oracle_benchmark,
    solve_extended,
    solve_game,
    utility_linear_pair,
    utility_log_pair,
    validate_params,
)
from conftest import draw_benchmark_params, rel_err

E = math.e

positive = st.floats(0.1, 10.0)


def params_strategy(**overrides):
    base = dict(alpha=positive, delta=positive, gamma=positive,
                beta=positive, a_w=positive, a_m=positive)
    base.update(overrides)
    return st.builds(ModelParams, **base)


class TestValidateParams:
    def test_all_ones_accepted(self):
        p = ModelParams(alpha=1, delta=1, gamma=1, beta=1, a_w=1, a_m=1)
        assert validate_params(p) is p

    def test_zero_beta_rejected(self):
        with pytest.raises(NonPositiveParameter) as exc:
            ModelParams(alpha=1, delta=1, gamma=1, beta=0, a_w=1, a_m=1)
        assert exc.value.field == "beta"

    @pytest.mark.parametrize("field", ["alpha", "delta", "gamma", "a_w", "a_m"])
    def test_each_nonpositive_field_named(self, field):
        values = dict(alpha=1, delta=1, gamma=1, beta=1, a_w=1, a_m=1)
        values[field] = -0.5
        with pytest.raises(NonPositiveParameter) as exc:
            validate_params(ModelParams(**values))
        assert exc.value.field == field

    def test_nan_rejected(self):
        with pytest.raises(NonPositiveParameter):
            ModelParams(alpha=math.nan, delta=1, gamma=1, beta=1, a_w=1, a_m=1)

    def test_replace_checks_again(self):
        p = ModelParams(alpha=1, delta=1, gamma=1, beta=1, a_w=1, a_m=1)
        with pytest.raises(NonPositiveParameter) as exc:
            replace(p, a_w=-1.0)
        assert exc.value.field == "a_w"

    def test_solvers_do_not_check_a_built_record_again(self, monkeypatch):
        calls = []

        def counted(raw):
            calls.append(raw)
            return validate_params(raw)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "fertgames"
                    and getattr(module, "validate_params", None) is validate_params):
                monkeypatch.setattr(module, "validate_params", counted)
        p = ModelParams(alpha=2, delta=1, gamma=1, beta=1, a_w=1, a_m=3)
        assert len(calls) == 1  # the construction
        solve_game(p)
        solve_game(p, 0.5)
        solve_extended(p, "high")
        benchmark_solve(p)
        fertility_threshold(p)
        assert len(calls) == 1


class TestUtilities:
    def test_log_pair_all_ones(self):
        p = ModelParams(1, 1, 1, 1, 1, 1)
        assert utility_log_pair(p, 1.0, 1.0, 1.0) == (0.0, 0.0)

    def test_log_pair_at_e(self):
        p = ModelParams(alpha=2, delta=1, gamma=1, beta=1, a_w=1, a_m=1)
        u_w, u_m = utility_log_pair(p, E, E, E)
        assert u_w == pytest.approx(0.0, abs=1e-15)
        assert u_m == pytest.approx(3.0, rel=1e-15)

    def test_log_pair_rejects_zero_fertility(self):
        p = ModelParams(1, 1, 1, 1, 1, 1)
        with pytest.raises(DomainError):
            utility_log_pair(p, 1.0, 1.0, 0.0)

    def test_linear_pair_all_ones_no_children(self):
        p = ModelParams(1, 1, 1, 1, 1, 1)
        assert utility_linear_pair(p, 1.0, 1.0, 0.0) == (0.0, 0.0)

    def test_linear_pair_at_e(self):
        p = ModelParams(alpha=1, delta=1, gamma=2, beta=1, a_w=1, a_m=1)
        u_w, u_m = utility_linear_pair(p, E, E, 1.0)
        assert u_w == pytest.approx(1.0, rel=1e-15)
        assert u_m == pytest.approx(2.0, rel=1e-15)

    def test_linear_pair_rejects_zero_consumption(self):
        p = ModelParams(1, 1, 1, 1, 1, 1)
        with pytest.raises(DomainError):
            utility_linear_pair(p, 0.0, 1.0, 1.0)

    @given(params_strategy(), st.floats(0.01, 100), st.floats(0.01, 100),
           st.floats(0.01, 100))
    def test_log_pair_matches_definition(self, p, c_w, c_m, n):
        u_w, u_m = utility_log_pair(p, c_w, c_m, n)
        assert u_w == pytest.approx(
            p.gamma * math.log(c_w) - p.delta * math.log(n), rel=1e-14, abs=1e-14)
        assert u_m == pytest.approx(
            math.log(c_m) + p.alpha * math.log(n), rel=1e-14, abs=1e-14)


def benchmark_fertility_partials(p: ModelParams) -> dict[str, float]:
    """Independent derivation of the closed-form fertility partials.

    n = (alpha-delta)*A/(beta*W) with A = a_w+a_m, W = 1+gamma+alpha-delta,
    differentiated by hand per parameter.
    """
    total = p.a_w + p.a_m
    w = 1.0 + p.gamma + p.alpha - p.delta
    return {
        "alpha": total * (1.0 + p.gamma) / (p.beta * w * w),
        "delta": -total * (1.0 + p.gamma) / (p.beta * w * w),
        "gamma": -(p.alpha - p.delta) * total / (p.beta * w * w),
        "beta": -(p.alpha - p.delta) * total / (p.beta * p.beta * w),
    }


def benchmark_fd(p: ModelParams, field: str) -> float:
    x = getattr(p, field)
    h = 1e-6 * abs(x)

    def n_at(v: float) -> float:
        values = dict(alpha=p.alpha, delta=p.delta, gamma=p.gamma,
                      beta=p.beta, a_w=p.a_w, a_m=p.a_m)
        values[field] = v
        return benchmark_solve(ModelParams(**values)).n_star

    return (n_at(x + h) - n_at(x - h)) / (2.0 * h)


class TestBenchmarkSolve:
    def test_anchor_symmetric(self):
        sol = benchmark_solve(ModelParams(alpha=2, delta=1, gamma=1, beta=1,
                                          a_w=2, a_m=2))
        assert sol.n_star == pytest.approx(4 / 3, rel=1e-14)
        assert sol.c_w == pytest.approx(4 / 3, rel=1e-14)
        assert sol.c_m == pytest.approx(4 / 3, rel=1e-14)

    def test_anchor_costly(self):
        sol = benchmark_solve(ModelParams(alpha=3, delta=1, gamma=1, beta=2,
                                          a_w=4, a_m=4))
        assert sol.n_star == pytest.approx(2.0, rel=1e-14)
        assert sol.c_w == pytest.approx(2.0, rel=1e-14)
        assert sol.c_m == pytest.approx(2.0, rel=1e-14)

    def test_equal_preferences_rejected(self):
        with pytest.raises(PreferenceOrderViolated):
            benchmark_solve(ModelParams(alpha=1, delta=1, gamma=1, beta=1,
                                        a_w=1, a_m=1))

    @given(params_strategy(alpha=st.floats(1.1, 10), delta=st.floats(0.1, 1.0)))
    @settings(max_examples=150)
    def test_budget_exhausts(self, p):
        sol = benchmark_solve(p)
        spent = sol.c_w + sol.c_m + p.beta * sol.n_star
        assert rel_err(spent, p.a_w + p.a_m) < 1e-10

    @given(params_strategy(alpha=st.floats(1.1, 10), delta=st.floats(0.1, 1.0)))
    @settings(max_examples=100)
    def test_allocations_positive(self, p):
        sol = benchmark_solve(p)
        assert sol.n_star > 0 and sol.c_w > 0 and sol.c_m > 0

    def test_scaling_incomes_scales_solution_exactly(self, rng):
        for _ in range(50):
            p = draw_benchmark_params(rng)
            base = benchmark_solve(p)
            for lam in (0.5, 2.0, 4.0):
                scaled = benchmark_solve(
                    ModelParams(p.alpha, p.delta, p.gamma, p.beta,
                                lam * p.a_w, lam * p.a_m))
                assert scaled.n_star == lam * base.n_star
                assert scaled.c_w == lam * base.c_w
                assert scaled.c_m == lam * base.c_m

    def test_fertility_signs_fd_and_analytic_agree(self, rng):
        for _ in range(100):
            p = draw_benchmark_params(rng)
            partials = benchmark_fertility_partials(p)
            for field, want_sign in (("alpha", 1), ("delta", -1),
                                     ("gamma", -1), ("beta", -1)):
                analytic = partials[field]
                fd = benchmark_fd(p, field)
                assert math.copysign(1, analytic) == want_sign
                assert math.copysign(1, fd) == want_sign
                assert rel_err(fd, analytic) < 1e-4

    def test_matches_oracle(self, rng):
        for _ in range(50):
            p = draw_benchmark_params(rng)
            closed = benchmark_solve(p)
            grid = oracle_benchmark(p)
            assert rel_err(grid.n_star, closed.n_star) < 1e-6
            assert abs(grid.u_family - closed.u_family) < 1e-9

    def test_wife_delta_reported_not_asserted(self):
        # Pooling can leave the wife better or worse off than single life;
        # both signs occur.
        worse = benchmark_solve(ModelParams(alpha=2, delta=1, gamma=1, beta=1,
                                            a_w=2, a_m=2))
        better = benchmark_solve(ModelParams(alpha=2, delta=1, gamma=1, beta=1,
                                             a_w=0.1, a_m=10))
        assert worse.wife_utility_delta < 0
        assert better.wife_utility_delta > 0
