"""Deterministic population sampling and aggregation."""

import math

import numpy as np
import pytest

from fertgames import (
    HouseholdSolveFailure,
    InvalidDistribution,
    LogNormalSpec,
    ModelParams,
    PopulationSpec,
    aggregate,
    sample_households,
    solve_game,
)
from fertgames.population import sample_household

POINT = LogNormalSpec(mu=0.0, sigma=0.0)


def point_spec(a_w: float, a_m: float, count: int = 1, **kw) -> PopulationSpec:
    """Degenerate population fixed at one parameter point."""
    defaults = dict(alpha=2.0, delta=1.0, gamma=1.0, beta=1.0, model="game",
                    seed=1)
    defaults.update(kw)
    return PopulationSpec(
        count=count,
        aw_dist=LogNormalSpec(math.log(a_w), 0.0),
        am_dist=LogNormalSpec(math.log(a_m), 0.0),
        **defaults,
    )


class TestSampling:
    def test_degenerate_sigma_hits_median(self):
        spec = PopulationSpec(count=3, seed=9, aw_dist=LogNormalSpec(0.7, 0.0),
                              am_dist=LogNormalSpec(-0.2, 0.0), alpha=1.0,
                              delta=1.0, gamma=1.0, beta=1.0)
        households = sample_households(spec)
        assert len(households) == 3
        for h in households:
            assert h.a_w == pytest.approx(math.exp(0.7), rel=1e-15)
            assert h.a_m == pytest.approx(math.exp(-0.2), rel=1e-15)

    def test_same_seed_reproduces(self):
        spec = PopulationSpec(count=20, seed=1234,
                              aw_dist=LogNormalSpec(0.0, 0.5),
                              am_dist=LogNormalSpec(0.1, 0.3),
                              alpha=(1.0, 3.0), delta=1.0, gamma=(0.5, 2.0),
                              beta=1.0)
        assert sample_households(spec) == sample_households(spec)

    def test_household_depends_only_on_seed_and_index(self):
        spec_a = point_spec(1.0, 1.0, count=50, seed=77)
        spec_b = point_spec(1.0, 1.0, count=10, seed=77)
        for i in range(10):
            assert sample_household(spec_a, i) == sample_household(spec_b, i)

    def test_lognormal_mean_matches_formula(self):
        spec = PopulationSpec(count=10_000, seed=2024,
                              aw_dist=LogNormalSpec(0.0, 0.5),
                              am_dist=LogNormalSpec(0.0, 0.5),
                              alpha=2.0, delta=1.0, gamma=1.0, beta=1.0)
        draws = np.array([h.a_w for h in sample_households(spec)])
        want = math.exp(0.125)
        sd = math.sqrt((math.exp(0.25) - 1.0) * math.exp(0.25))
        assert abs(draws.mean() - want) < 3.0 * sd / math.sqrt(len(draws))

    def test_uniform_preferences_stay_in_range(self):
        spec = PopulationSpec(count=200, seed=5,
                              aw_dist=POINT, am_dist=POINT,
                              alpha=(1.5, 2.5), delta=(0.5, 1.0),
                              gamma=1.0, beta=(0.2, 0.4))
        for h in sample_households(spec):
            assert 1.5 <= h.alpha <= 2.5
            assert 0.5 <= h.delta <= 1.0
            assert h.gamma == 1.0
            assert 0.2 <= h.beta <= 0.4


class TestSpecValidation:
    def test_rejects_zero_count(self):
        with pytest.raises(InvalidDistribution):
            sample_households(point_spec(1, 1, count=0))

    def test_rejects_negative_sigma(self):
        spec = PopulationSpec(count=1, seed=1,
                              aw_dist=LogNormalSpec(0.0, -0.1), am_dist=POINT,
                              alpha=1.0, delta=1.0, gamma=1.0, beta=1.0)
        with pytest.raises(InvalidDistribution):
            sample_households(spec)

    def test_rejects_bad_range(self):
        with pytest.raises(InvalidDistribution):
            sample_households(point_spec(1, 1, alpha=(2.0, 1.0)))

    def test_rejects_subsidy_outside_game(self):
        with pytest.raises(InvalidDistribution):
            aggregate(point_spec(1, 3, model="benchmark", subsidy=0.5))

    def test_rejects_unknown_model(self):
        with pytest.raises(InvalidDistribution):
            aggregate(point_spec(1, 3, model="dynastic"))


class TestAggregate:
    def test_single_point_population_matches_game(self):
        report = aggregate(point_spec(1.0, 3.0))
        eq = solve_game(ModelParams(2, 1, 1, 1, 1, 3))
        assert report.mean_fertility == eq.n_star == 0.5
        assert report.childless_share == 0.0
        assert report.mean_transfer == eq.rho_star == 2.0
        assert report.mean_income_ratio == pytest.approx(1 / 3, rel=1e-12)

    def test_childless_when_all_above_threshold(self):
        # threshold alpha*gamma*a_m/delta = 6; everyone sits at a_w = 8.
        report = aggregate(point_spec(8.0, 3.0, count=25))
        assert report.childless_share == 1.0
        assert report.mean_fertility == 0.0
        assert report.mean_transfer is None

    def test_decile_counts_sum_to_count(self):
        spec = PopulationSpec(count=137, seed=3,
                              aw_dist=LogNormalSpec(0.0, 0.6),
                              am_dist=LogNormalSpec(0.0, 0.6),
                              alpha=2.0, delta=1.0, gamma=1.0, beta=1.0)
        report = aggregate(spec)
        assert sum(report.decile_counts) == 137
        assert max(report.decile_counts) - min(report.decile_counts) <= 1

    def test_reproducible_bit_for_bit(self):
        spec = PopulationSpec(count=500, seed=99,
                              aw_dist=LogNormalSpec(0.0, 0.5),
                              am_dist=LogNormalSpec(0.2, 0.4),
                              alpha=(1.0, 4.0), delta=1.0, gamma=1.0, beta=1.0,
                              subsidy=0.25)
        assert aggregate(spec) == aggregate(spec)

    def test_fertility_falls_across_ratio_deciles(self):
        # Fixed preferences make household fertility a deterministic
        # decreasing function of the income ratio, so decile means are
        # monotone without any sampling tolerance.
        spec = PopulationSpec(count=10_000, seed=31,
                              aw_dist=LogNormalSpec(0.0, 0.5),
                              am_dist=LogNormalSpec(0.0, 0.5),
                              alpha=2.0, delta=1.0, gamma=1.0, beta=1.0)
        report = aggregate(spec)
        means = report.fertility_by_ratio_decile
        assert all(not math.isnan(m) for m in means)
        assert all(a >= b for a, b in zip(means, means[1:]))
        assert means[0] > means[-1]

    def test_subsidy_weakly_raises_every_household(self):
        spec = PopulationSpec(count=40, seed=11,
                              aw_dist=LogNormalSpec(0.0, 0.4),
                              am_dist=LogNormalSpec(0.0, 0.4),
                              alpha=1.0, delta=1.0, gamma=1.0, beta=1.0,
                              model="game")
        households = sample_households(spec)
        for p in households:
            n_by_subsidy = [solve_game(p, s).n_star
                            for s in (0.0, 0.2, 0.5, 1.0)]
            assert all(b >= a - 1e-9 for a, b in
                       zip(n_by_subsidy, n_by_subsidy[1:]))

    def test_subsidy_raises_mean_fertility(self):
        base = PopulationSpec(count=60, seed=8,
                              aw_dist=LogNormalSpec(0.0, 0.4),
                              am_dist=LogNormalSpec(0.0, 0.4),
                              alpha=1.0, delta=1.0, gamma=1.0, beta=1.0)
        helped = PopulationSpec(count=60, seed=8,
                                aw_dist=LogNormalSpec(0.0, 0.4),
                                am_dist=LogNormalSpec(0.0, 0.4),
                                alpha=1.0, delta=1.0, gamma=1.0, beta=1.0,
                                subsidy=0.5)
        r0, r1 = aggregate(base), aggregate(helped)
        assert r1.mean_fertility >= r0.mean_fertility
        assert r1.mean_fertility > 0
        assert r1.notes and "general revenue" in r1.notes[0]

    def test_benchmark_and_extended_models_aggregate(self):
        bench = aggregate(point_spec(2.0, 2.0, model="benchmark"))
        assert bench.mean_fertility == pytest.approx(4 / 3, rel=1e-12)
        assert bench.mean_transfer is None
        ext = aggregate(point_spec(1.0, 3.0, count=2, model="extended",
                                   alpha=1.0, regime="high"))
        assert ext.mean_fertility == pytest.approx(0.19806226, abs=1e-6)
        assert ext.mean_transfer == pytest.approx(1.24697960, abs=1e-6)

    def test_household_failure_carries_index(self):
        # alpha < delta breaks the pooled-budget precondition.
        spec = point_spec(1.0, 1.0, count=3, model="benchmark",
                          alpha=0.5, delta=1.0)
        with pytest.raises(HouseholdSolveFailure) as exc:
            aggregate(spec)
        assert exc.value.index == 0
