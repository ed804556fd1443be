"""Deterministic population sampling and aggregation."""

import functools
import math
import sys

import numpy as np
import pytest

from fertgames import (
    AggregateReport,
    HouseholdSolveFailure,
    InvalidDistribution,
    LogNormalSpec,
    ModelError,
    ModelParams,
    NonPositiveParameter,
    NumericalFailure,
    PopulationSpec,
    aggregate,
    benchmark_solve,
    sample_households,
    solve_extended,
    solve_game,
)
from conftest import LEAD_OVERFLOW, LEAD_OVERFLOW_SUBSIDY, UTILITY_OVERFLOW
from fertgames import population
from fertgames.core import PARAM_NAMES, pooled_allocation, replace
from fertgames.extended import leader_optima, leader_optimum
from fertgames.population import _solve_arrays, _solve_household, sample_household

POINT = LogNormalSpec(mu=0.0, sigma=0.0)
PREFS = ("alpha", "delta", "gamma", "beta")
SEED_LEADER = 20251018


BLOCK = 16_384  # households per keyed block of draws


@functools.lru_cache(maxsize=8)
def block_draws(seed: int, block: int, ranged: int) -> tuple:
    """The normals and, with ``ranged`` preferences, the uniforms of every
    household of ``block``, one row each, by the numpy calls that specify
    the sampler."""
    normals = np.random.default_rng([seed, block, 1]).standard_normal((BLOCK, 2))
    uniforms = np.random.default_rng([seed, block, 2]).random((BLOCK, ranged)) if ranged else None
    return normals, uniforms


def reference_draw(spec: PopulationSpec, index: int) -> dict[str, float]:
    """Raw parameters of household ``index``, drawn the way the sampler is
    specified: row ``index % BLOCK`` of its block's draws, two normals for
    the incomes, then one uniform per ranged preference."""
    ranged = [name for name in PREFS if isinstance(getattr(spec, name), tuple)]
    block, row = divmod(index, BLOCK)
    normals, uniforms = block_draws(spec.seed, block, len(ranged))
    a_w = float(np.exp(spec.aw_dist.mu + spec.aw_dist.sigma * normals[row, 0]))
    a_m = float(np.exp(spec.am_dist.mu + spec.am_dist.sigma * normals[row, 1]))
    prefs = {name: float(getattr(spec, name)) for name in PREFS if name not in ranged}
    for name, u in zip(ranged, uniforms[row] if ranged else ()):
        lo, hi = getattr(spec, name)
        prefs[name] = lo + (hi - lo) * float(u)
    return dict(a_w=a_w, a_m=a_m, **prefs)


def reference_household(spec: PopulationSpec, index: int) -> ModelParams:
    return ModelParams(**reference_draw(spec, index))


def left_sum(values) -> float:
    """Sum left to right, one rounding per addition, on every Python version
    (the builtin ``sum`` compensates from Python 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total


def reference_solve(spec: PopulationSpec, p: ModelParams) -> tuple[float, float | None]:
    """``(n*, rho*)`` of one household by the scalar route of its model, with
    rho* None for the benchmark model and at the no-birth corner."""
    if spec.model == "benchmark":
        return benchmark_solve(p).n_star, None
    if spec.model == "game":
        eq = solve_game(p, spec.subsidy)
        return eq.n_star, (eq.rho_star if eq.interior else None)
    eq = solve_extended(p, "high")
    return eq.n_star, eq.selected_rho if eq.interior else None


def reference_aggregate(spec: PopulationSpec) -> AggregateReport:
    """One household at a time: scalar draw, scalar solve, sorted deciles."""
    fertility, transfers, ratios = [], [], []
    for i in range(spec.count):
        p = reference_household(spec, i)
        n, rho = reference_solve(spec, p)
        fertility.append(n)
        if rho is not None:
            transfers.append(rho)
        ratios.append(p.a_w / p.a_m)
    count = spec.count
    order = sorted(range(count), key=lambda i: (ratios[i], i))
    decile_sums = [0.0] * 10
    decile_counts = [0] * 10
    for rank, i in enumerate(order):
        bucket = min(9, rank * 10 // count)
        decile_sums[bucket] += fertility[i]
        decile_counts[bucket] += 1
    notes = ("subsidy funded from general revenue; no spousal budget deduction",
             ) if spec.subsidy > 0 else ()
    return AggregateReport(
        mean_fertility=left_sum(fertility) / count,
        childless_share=sum(1 for n in fertility if n <= 0.0) / count,
        mean_transfer=(left_sum(transfers) / len(transfers)) if transfers else None,
        mean_income_ratio=left_sum(ratios) / count,
        fertility_by_ratio_decile=tuple(
            decile_sums[b] / decile_counts[b] if decile_counts[b] else math.nan
            for b in range(10)),
        decile_counts=tuple(decile_counts),
        notes=notes,
    )


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


FIXED_PREFS = dict(alpha=2.0, delta=1.0, gamma=1.0, beta=1.0)
RANGED_PREFS = dict(alpha=(1.5, 3.0), delta=(0.5, 1.2), gamma=1.0, beta=(0.2, 0.4))


CONTRACT_INDICES = (0, 1, BLOCK - 1, BLOCK, 2 * BLOCK + 5, 2**32 - 1)


def contract_spec(seed: int, prefs: dict) -> PopulationSpec:
    return PopulationSpec(count=2 * BLOCK + 6, seed=seed, aw_dist=LogNormalSpec(0.3, 0.7),
                          am_dist=LogNormalSpec(-0.1, 0.4), **prefs)


class TestBatchedSampling:
    """The block sampler against the numpy calls that specify it."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("prefs", [FIXED_PREFS, RANGED_PREFS],
                             ids=["fixed", "ranged"])
    def test_columns_match_default_rng(self, seed, prefs):
        spec = contract_spec(seed, prefs)
        for i in CONTRACT_INDICES:
            assert sample_household(spec, i) == reference_household(spec, i)
        # A run of households across the first block boundary.
        columns = population._draw(spec, BLOCK - 3, BLOCK + 3)
        want = [reference_household(spec, i) for i in range(BLOCK - 3, BLOCK + 3)]
        assert population._rows(columns) == want

    @pytest.mark.parametrize("prefs", [FIXED_PREFS, RANGED_PREFS],
                             ids=["fixed", "ranged"])
    def test_household_draws_alike_in_every_population(self, monkeypatch, prefs):
        spec = contract_spec(2**64 - 1, prefs)
        for i in CONTRACT_INDICES[:4]:
            smallest = replace(spec, count=i + 1)
            assert sample_households(smallest)[i] == reference_household(spec, i)
        # Slices of 10,000 households cut both blocks.
        for chunk in (population._CHUNK, 10_000):
            monkeypatch.setattr(population, "_CHUNK", chunk)
            households = sample_households(spec)
            for i in CONTRACT_INDICES[:-1]:
                assert households[i] == reference_household(spec, i)

    @pytest.mark.parametrize("model,subsidy", [
        ("benchmark", 0.0), ("game", 0.0), ("extended", 0.0), ("game", 0.5)])
    def test_aggregate_alike_in_every_slicing(self, monkeypatch, model, subsidy):
        spec = PopulationSpec(count=BLOCK + 3000, seed=17, aw_dist=LogNormalSpec(0.0, 0.6),
                              am_dist=LogNormalSpec(math.log(3.0), 0.5), model=model,
                              subsidy=subsidy, **RANGED_PREFS)
        want = repr(aggregate(spec))
        # Slices of 10,000 cut the first block; slices of 64 end on its boundary.
        for chunk in (64, 10_000):
            monkeypatch.setattr(population, "_CHUNK", chunk)
            assert repr(aggregate(spec)) == want

    @pytest.mark.parametrize("model,subsidy", [
        ("benchmark", 0.0), ("game", 0.0), ("extended", 0.0), ("game", 0.5)])
    @pytest.mark.parametrize("count", [1, 7, 137, 3001])
    @pytest.mark.parametrize("prefs", [FIXED_PREFS, RANGED_PREFS],
                             ids=["fixed", "ranged"])
    def test_aggregate_matches_scalar_loop(self, monkeypatch, model, subsidy,
                                           count, prefs):
        spec = PopulationSpec(count=count, seed=20251 + count,
                              aw_dist=LogNormalSpec(0.0, 0.6),
                              am_dist=LogNormalSpec(math.log(3.0), 0.5),
                              model=model, subsidy=subsidy, **prefs)
        want = repr(reference_aggregate(spec))
        # Slices of 64 split 137 and 3001 households across several slices.
        for chunk in (population._CHUNK, 64):
            monkeypatch.setattr(population, "_CHUNK", chunk)
            assert repr(aggregate(spec)) == want

    @pytest.mark.parametrize("model,subsidy", [
        ("benchmark", 0.0), ("game", 0.0), ("extended", 0.0), ("game", 0.5)])
    def test_tied_ratios_rank_by_index(self, monkeypatch, model, subsidy):
        # sigma = 1e-16 leaves five distinct wife's incomes, each shared by
        # many households, so the deciles depend on how ties are ordered.
        spec = PopulationSpec(count=3001, seed=5, aw_dist=LogNormalSpec(1.0, 1e-16),
                              am_dist=LogNormalSpec(math.log(3.0), 0.0), alpha=(1.5, 3.0),
                              delta=1.0, gamma=1.0, beta=1.0, model=model, subsidy=subsidy)
        assert len({p.a_w / p.a_m for p in sample_households(spec)}) == 5
        want = repr(reference_aggregate(spec))
        for chunk in (population._CHUNK, 64):
            monkeypatch.setattr(population, "_CHUNK", chunk)
            assert repr(aggregate(spec)) == want

    @pytest.mark.parametrize("model,subsidy", [
        ("benchmark", 0.0), ("game", 0.0), ("extended", 0.0), ("game", 0.5)])
    def test_range_of_one_value_aggregates_as_that_value(self, model, subsidy):
        # A fixed preference reaches the solver as one float, a range (v, v)
        # as a column of v: the answers are the same.
        prefs = dict(alpha=2.0, delta=1.0, gamma=1.0, beta=0.3)
        kw = dict(count=3001, seed=23, aw_dist=LogNormalSpec(0.5, 0.8),
                  am_dist=LogNormalSpec(math.log(3.0), 0.5), model=model, subsidy=subsidy)
        fixed = aggregate(PopulationSpec(**kw, **prefs))
        ranged = aggregate(PopulationSpec(**kw, **{k: (v, v) for k, v in prefs.items()}))
        assert repr(ranged) == repr(fixed)

    def test_first_invalid_draw_raises_like_validate_params(self):
        # sigma = 500 sends about a third of the incomes to inf or 0.
        spec = PopulationSpec(count=50, seed=0, aw_dist=LogNormalSpec(0.0, 500.0),
                              am_dist=POINT, **FIXED_PREFS)
        with np.errstate(over="ignore", under="ignore"):
            draws = [reference_draw(spec, i)["a_w"] for i in range(spec.count)]
        invalid = [i for i, a_w in enumerate(draws) if not 0 < a_w < math.inf]
        first = draws[invalid[0]]
        assert invalid[0] > 0 and math.inf in draws[invalid[0]:]
        with pytest.raises(NonPositiveParameter) as exc:
            sample_households(spec)
        assert (exc.value.field, exc.value.value) == ("a_w", first)

    def test_count_of_two_to_the_32_rejected(self):
        with pytest.raises(InvalidDistribution):
            sample_households(point_spec(1, 1, count=2**32))
        with pytest.raises(InvalidDistribution):
            aggregate(point_spec(1, 1, count=2**32))
        with pytest.raises(InvalidDistribution):
            sample_household(point_spec(1, 1, count=2**32 - 1), 2**32)


class TestSpecValidation:
    FIELDS = dict(count=1, seed=1, aw_dist=POINT, am_dist=POINT, alpha=2.0, delta=1.0,
                  gamma=1.0, beta=1.0)

    def test_rejects_zero_count(self):
        with pytest.raises(InvalidDistribution):
            sample_households(point_spec(1, 1, count=0))

    def test_rejects_negative_sigma(self):
        with pytest.raises(InvalidDistribution):
            sample_households(PopulationSpec(
                count=1, seed=1, aw_dist=LogNormalSpec(0.0, -0.1), am_dist=POINT,
                alpha=1.0, delta=1.0, gamma=1.0, beta=1.0))

    def test_rejects_bad_range(self):
        with pytest.raises(InvalidDistribution):
            sample_households(point_spec(1, 1, alpha=(2.0, 1.0)))

    @pytest.mark.parametrize("alpha", [(1.0, 2.0, 3.0), -1.0, "2", 10**400, (1, 10**400)],
                             ids=["three_bounds", "negative", "string", "int_beyond_float",
                                  "range_to_int_beyond_float"])
    def test_rejects_bad_preference(self, alpha):
        with pytest.raises(InvalidDistribution):
            point_spec(1, 1, alpha=alpha)

    @pytest.mark.parametrize("field,value", [
        ("aw_dist", LogNormalSpec(10**400, 0.5)), ("am_dist", LogNormalSpec(0.0, 10**400)),
        ("subsidy", 10**400)], ids=["mu", "sigma", "subsidy"])
    def test_rejects_int_beyond_float_range(self, field, value):
        # math.isfinite cannot convert such an int to a float.
        with pytest.raises(InvalidDistribution):
            PopulationSpec(**{**self.FIELDS, field: value})

    @pytest.mark.parametrize("field,value", [
        ("aw_dist", LogNormalSpec("0", 0.5)), ("am_dist", LogNormalSpec(0.0, "0.5")),
        ("alpha", ("1", 2.0)), ("subsidy", "0.5")], ids=["mu", "sigma", "range_bound", "subsidy"])
    def test_rejects_non_number(self, field, value):
        # math.isfinite raises TypeError for a string.
        with pytest.raises(InvalidDistribution, match="finite"):
            PopulationSpec(**{**self.FIELDS, field: value})

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
                                   alpha=1.0))
        assert ext.mean_fertility == pytest.approx(0.19806226, abs=1e-6)
        assert ext.mean_transfer == pytest.approx(1.24697960, abs=1e-6)

    def test_means_are_left_to_right_sums(self):
        spec = PopulationSpec(count=1000, seed=7, aw_dist=LogNormalSpec(0.0, 0.5),
                              am_dist=LogNormalSpec(math.log(3.0), 0.5),
                              alpha=(1.5, 3.0), delta=1.0, gamma=1.0, beta=1.0)
        households = sample_households(spec)
        ratios = [p.a_w / p.a_m for p in households]
        solved = [solve_game(p) for p in households]
        transfers = [eq.rho_star for eq in solved if eq.interior]
        report = aggregate(spec)
        assert report.mean_fertility == left_sum(eq.n_star for eq in solved) / 1000
        assert report.mean_transfer == left_sum(transfers) / len(transfers)
        assert report.mean_income_ratio == left_sum(ratios) / 1000
        # The population tells the orders apart: a compensated sum, as the
        # builtin sum is from Python 3.12 on, rounds each mean differently.
        assert report.mean_income_ratio != math.fsum(ratios) / 1000
        assert report.mean_transfer != math.fsum(transfers) / len(transfers)

    def test_unrepresentable_households_fail(self):
        # Incomes of 1e308 put the pooled budget beyond the float range; the
        # game's power-of-two scaling flushes an income of 1e-300 beside one
        # of 1e30 to zero; incomes of 8.5e220 and 3e-248, which both models
        # solve, give an income ratio beyond the float range.
        for spec in (point_spec(1e308, 1e308, count=3, model="benchmark"),
                     point_spec(1e-300, 1e30, count=3),
                     point_spec(8.5e220, 3e-248, count=3, model="benchmark"),
                     point_spec(8.5e220, 3e-248, count=3)):
            with pytest.raises(HouseholdSolveFailure) as exc:
                aggregate(spec)
            assert exc.value.index == 0
            assert isinstance(exc.value.__cause__, NumericalFailure)

    UTILITY_OVERFLOWS = pytest.mark.parametrize("model,p,subsidy", [
        ("game", UTILITY_OVERFLOW, 0.0),
        # gamma*ln(c_w) overflows in the pooled budget, whose n* of 1e-313
        # is refused first.
        ("benchmark", ModelParams(2, 1, 1e307, 1e-10, 5e-17, 5e-17), 0.0),
        # gamma*ln(c_w) overflows in the leader games.
        ("extended", ModelParams(2, 1e307, 1e307, 1, 1e10, 3e10), 0.0),
        ("game", ModelParams(2, 1e307, 1e307, 1, 1e10, 3e10), 0.5),
        # alpha*ln(n) overflows in the pooled budget, whose allocation is normal.
        ("benchmark", ModelParams(1e307, 1, 1, 1e-10, 0.5, 0.5), 0.0),
    ], ids=["game-p0", "benchmark-p1", "extended", "subsidized", "benchmark-alpha"])

    @staticmethod
    def utility_spec(model, p, subsidy):
        return point_spec(p.a_w, p.a_m, count=3, model=model, alpha=p.alpha,
                          delta=p.delta, gamma=p.gamma, beta=p.beta, subsidy=subsidy)

    @UTILITY_OVERFLOWS
    def test_utility_beyond_float_range_fails(self, model, p, subsidy):
        # The scalar solve, which reports utilities, refuses each household.
        spec = self.utility_spec(model, p, subsidy)
        with pytest.raises(NumericalFailure):
            _solve_household(spec, sample_household(spec, 0))

    @UTILITY_OVERFLOWS
    def test_population_does_not_refuse_a_utility(self, model, p, subsidy):
        # aggregate reports no utility. It answers with the n* of
        # leader_optimum or pooled_allocation, and refuses only a subnormal one.
        spec = self.utility_spec(model, p, subsidy)
        drawn = sample_household(spec, 0)
        if model == "benchmark":
            n = pooled_allocation(*(getattr(drawn, name) for name in PARAM_NAMES))[2]
        else:
            n = leader_optimum(drawn, drawn.beta if model == "extended" else 0.0, subsidy)[2]
        if n < sys.float_info.min:
            with pytest.raises(HouseholdSolveFailure) as exc:
                aggregate(spec)
            assert exc.value.index == 0
            assert "pooled allocation" in str(exc.value.__cause__)
        else:
            report = aggregate(spec)
            assert report.mean_fertility == n
            assert math.isfinite(report.mean_income_ratio)

    def test_household_failure_carries_index(self):
        # alpha < delta breaks the pooled-budget precondition.
        spec = point_spec(1.0, 1.0, count=3, model="benchmark",
                          alpha=0.5, delta=1.0)
        with pytest.raises(HouseholdSolveFailure) as exc:
            aggregate(spec)
        assert exc.value.index == 0
        assert exc.value.params == sample_household(spec, 0)
        assert repr(exc.value.params) in str(exc.value)

    def test_game_household_failure_carries_first_failing_index(self, monkeypatch):
        # Incomes near 1e301 with delta/gamma = 1e12: about one household in
        # ten pays a transfer beyond the float range.
        spec = PopulationSpec(count=400, seed=5,
                              aw_dist=LogNormalSpec(math.log(1e301), 2.0),
                              am_dist=LogNormalSpec(math.log(1e300), 0.0),
                              alpha=1.0, delta=1e6, gamma=1e-6, beta=1.0)
        failing = []
        for i in range(spec.count):
            try:
                solve_game(sample_household(spec, i))
            except ModelError:
                failing.append(i)
        assert 0 < failing[0] and len(failing) < spec.count
        # With slices of failing[0] households, the first failure opens the
        # second slice, so the index reported must be the global one.
        for chunk in (population._CHUNK, failing[0]):
            monkeypatch.setattr(population, "_CHUNK", chunk)
            with pytest.raises(HouseholdSolveFailure) as exc:
                aggregate(spec)
            assert exc.value.index == failing[0]
            assert exc.value.params == sample_household(spec, failing[0])
            assert isinstance(exc.value.__cause__, NumericalFailure)
            assert repr(exc.value.params) in str(exc.value)


def log_uniform_households(seed, span: float, count: int) -> list:
    """Six columns, one per ModelParams field, each log-uniform on
    [e**-span, e**span]."""
    rng = np.random.default_rng(seed)
    return [np.exp(rng.uniform(-span, span, count)) for _ in range(6)]


def batched_leader(columns, subsidy: float, game: bool = False):
    """``leader_optima`` of the subsidized game (``subsidy > 0``), the
    transfer game without one (``game``) or else the extended game."""
    alpha, delta, gamma, beta, a_w, a_m = columns
    paid = 0.0 if subsidy or game else beta
    return leader_optima(alpha, delta, gamma, a_w, a_m, paid, subsidy)


def scalar_leader(columns, subsidy: float, game: bool = False):
    """``leader_optimum`` household by household: the rows of
    ``(n, rho, c_w, c_m)`` (rho NaN at the corner), or None where it raises,
    and the count of subsidized households whose optimum is a root of the
    leader cubic, of boundary wins and of corners."""
    rows, seen = [], {"subsidized root": 0, "boundary": 0, "corner": 0}
    for values in zip(*(c.tolist() for c in columns)):
        p = ModelParams(*values)
        paid = 0.0 if subsidy or game else p.beta
        try:
            _, rho, n, c_w, c_m = leader_optimum(p, paid, subsidy)
        except ModelError:
            rows.append(None)
            continue
        # Under a subsidy (k < 0) the cubic is positive at 0, so a root that
        # wins is the larger of two positive roots.
        seen["subsidized root"] += subsidy > 0.0 and rho is not None and rho > 0.0
        seen["boundary"] += rho == 0.0
        seen["corner"] += rho is None
        rows.append((n, math.nan if rho is None else rho, c_w, c_m))
    return rows, seen


def assert_same_bits(got, want):
    """Equal with ``==`` and in the sign of zero, or NaN in both."""
    got, want = np.asarray(got), np.asarray(want)
    same = (got == want) & (np.signbit(got) == np.signbit(want))
    assert (same | (np.isnan(got) & np.isnan(want))).all()


E2, E50, E150 = 2.0, math.log(1e50), math.log(1e150)


class TestBatchedLeader:
    """``leader_optima`` against the scalar ``leader_optimum``, household by
    household and bit for bit."""

    @pytest.mark.parametrize("subsidy,game", [
        (0.0, False), (0.0, True), (1e-3, False), (0.5, False), (10.0, False)],
        ids=["extended", "paid=subsidy=0", "s=1e-3", "s=0.5", "s=10"])
    def test_bit_identical_to_scalar_route(self, subsidy, game):
        seen_total = dict.fromkeys(("subsidized root", "boundary", "corner"), 0)
        for j, span in enumerate((E2, E50)):
            columns = log_uniform_households(
                [SEED_LEADER, j, int(subsidy * 1000)], span, 20_000)
            *got, ok = batched_leader(columns, subsidy, game)
            rows, seen = scalar_leader(columns, subsidy, game)
            assert ok.all() and None not in rows
            for got_column, want_column in zip(got, zip(*rows)):
                assert_same_bits(got_column, want_column)
            for key in seen:
                seen_total[key] += seen[key]
        # The draws reach every branch: the larger of two positive roots
        # (only a subsidy makes two), the boundary rho = 0 (only a subsidy
        # offers it) and the corner.
        assert (seen_total["subsidized root"] > 0) == (subsidy > 0) and seen_total["corner"] > 0
        assert (seen_total["boundary"] > 0) == (subsidy > 0)

    @pytest.mark.parametrize("subsidy,game", [(0.0, False), (0.0, True), (0.5, False)],
                             ids=["extended", "s=0", "s=0.5"])
    def test_households_the_scalar_route_refuses_are_left_to_it(self, subsidy, game):
        columns = log_uniform_households([SEED_LEADER, 2], E150, 20_000)
        *got, ok = batched_leader(columns, subsidy, game)
        rows, _ = scalar_leader(columns, subsidy, game)
        refused = np.array([row is None for row in rows])
        assert refused.any() and (ok == ~refused).all()
        solved = np.flatnonzero(ok)
        for got_column, want_column in zip(got, zip(*(rows[i] for i in solved))):
            assert_same_bits(got_column[solved], want_column)

    @pytest.mark.parametrize("subsidy,game", [
        (0.0, False), (0.0, True), (0.5, False), (10.0, False)],
        ids=["extended", "s=0", "s=0.5", "s=10"])
    @pytest.mark.parametrize("prefs", [
        (2.0, 1.0, 1.0, 1.0), (2.0, 5e-324, 1.0, 1.0), (5e-324, 1.0, 1e300, 5e-324),
        (1e-300, 1e-300, 1e-300, 1e-300)], ids=["anchor", "delta=5e-324", "spread", "1e-300"])
    def test_fixed_preferences_as_floats(self, subsidy, game, prefs):
        # Floats for alpha, delta, gamma and beta stay scalars through the
        # solve; the answers are those of the scalar route, and the refusals
        # those of the same preferences as arrays.
        alpha, delta, gamma, beta = prefs
        paid = 0.0 if subsidy or game else beta
        answered = refused = 0
        for j, span in enumerate((E2, E50, E150)):
            a_w, a_m = log_uniform_households([SEED_LEADER, 4, j], span, 2000)[4:]
            *got, ok = leader_optima(alpha, delta, gamma, a_w, a_m, paid, subsidy)
            columns = [np.full(len(a_w), v) for v in prefs] + [a_w, a_m]
            assert (ok == batched_leader(columns, subsidy, game)[-1]).all()
            rows, _ = scalar_leader(columns, subsidy, game)
            rows_refused = np.array([row is None for row in rows])
            assert (ok == ~rows_refused).all()
            solved = np.flatnonzero(ok)
            for got_column, want_column in zip(got, zip(*(rows[i] for i in solved))):
                assert_same_bits(got_column[solved], want_column)
            answered += len(solved)
            refused += int(rows_refused.sum())
        if prefs == (2.0, 1.0, 1.0, 1.0):
            assert answered and (refused > 0) == (not game)
        if delta == 5e-324:  # G = gamma/delta is inf
            assert not answered

    @pytest.mark.parametrize("p,subsidy", [
        (ModelParams(1, 1, 1, 1, a_w=1e300, a_m=1e-300), 0.0),  # income ratio
        (LEAD_OVERFLOW, LEAD_OVERFLOW_SUBSIDY),  # roots spread beyond the range
        (ModelParams(1e10, 1e-100, 1e100, 1, 1e300, 1e300), 1e300),  # c_w
    ], ids=["ratio", "lead", "c_w"])
    def test_each_refusal_is_left_to_scalar_route(self, p, subsidy):
        columns = [np.array([v]) for v in (p.alpha, p.delta, p.gamma, p.beta,
                                           p.a_w, p.a_m)]
        rows, _ = scalar_leader(columns, subsidy)
        assert rows == [None]
        assert not batched_leader(columns, subsidy)[-1].any()

    @pytest.mark.parametrize("model,subsidy", [("extended", 0.0), ("game", 0.5)])
    def test_aggregate_raises_for_first_refused_household(self, model, subsidy):
        # Incomes spread over e**+-360: some income ratios, and some roots of
        # the leader cubic, leave the float range.
        spec = PopulationSpec(count=400, seed=2,
                              aw_dist=LogNormalSpec(0.0, 120.0),
                              am_dist=LogNormalSpec(0.0, 120.0),
                              alpha=(1e-3, 1e3), delta=1e-50, gamma=1e50,
                              beta=(1e-3, 1e3), model=model, subsidy=subsidy)
        failing = []
        for i in range(spec.count):
            try:
                _solve_household(spec, sample_household(spec, i))
            except ModelError:
                failing.append(i)
        assert 0 < failing[0] and len(failing) < spec.count
        with pytest.raises(HouseholdSolveFailure) as exc:
            aggregate(spec)
        assert exc.value.index == failing[0]
        assert exc.value.params == sample_household(spec, failing[0])

    def test_population_with_overflowing_scaled_cubic(self):
        p = LEAD_OVERFLOW
        spec = point_spec(p.a_w, p.a_m, count=3, alpha=p.alpha, delta=p.delta,
                          gamma=p.gamma, beta=p.beta,
                          subsidy=LEAD_OVERFLOW_SUBSIDY)
        drawn = sample_household(spec, 0)
        try:
            want = solve_game(drawn, LEAD_OVERFLOW_SUBSIDY)
        except NumericalFailure:
            with pytest.raises(HouseholdSolveFailure) as exc:
                aggregate(spec)
            assert exc.value.index == 0
            assert isinstance(exc.value.__cause__, NumericalFailure)
        else:
            assert aggregate(spec).mean_fertility == want.n_star


@pytest.mark.parametrize("model,subsidy", [
    ("benchmark", 0.0), ("game", 0.0), ("extended", 0.0), ("game", 0.5)])
def test_array_route_answers_only_what_scalar_route_answers(model, subsidy):
    # And more only where the scalar solve refuses a utility, which
    # aggregate does not report. It refuses only what the scalar route
    # refuses: aggregate does not solve a refused household again.
    spec = point_spec(1.0, 1.0, model=model, subsidy=subsidy)
    columns = log_uniform_households([SEED_LEADER, 3], E150, 3000)
    ok = _solve_arrays(spec, *columns)[-1]
    utilities, answered = [], []
    for i, lane_ok in enumerate(ok.tolist()):
        try:
            _solve_household(spec, ModelParams(*(float(c[i]) for c in columns)))
        except ModelError as exc:
            if lane_ok:
                assert isinstance(exc, NumericalFailure)
                assert str(exc).startswith("utilities not finite")
                utilities.append(i)
        else:
            if not lane_ok:
                answered.append(i)
    assert ok.any() and not ok.all() and answered == []
    if model == "game" and not subsidy:
        assert utilities


@pytest.mark.parametrize("model,subsidy", [
    ("benchmark", 0.0), ("game", 0.0), ("extended", 0.0), ("game", 0.5)])
def test_aggregate_reports_a_household_the_array_route_refuses(monkeypatch, model, subsidy):
    # Slices of 64: households 200 and 250 sit at lanes 8 and 58 of the
    # fourth. The scalar route answers both.
    spec = PopulationSpec(count=300, seed=5, aw_dist=LogNormalSpec(0.0, 0.6),
                          am_dist=LogNormalSpec(math.log(3.0), 0.5), model=model,
                          subsidy=subsidy, **RANGED_PREFS)
    assert all(reference_solve(spec, sample_household(spec, i))[0] > 0.0 for i in (200, 250))
    monkeypatch.setattr(population, "_CHUNK", 64)
    solve_arrays, slices = population._solve_arrays, []

    def refusing(spec, *columns):
        n, rho, ok = solve_arrays(spec, *columns)
        if len(slices) == 3:
            ok[[8, 58]] = False
        slices.append(len(n))
        return n, rho, ok

    monkeypatch.setattr(population, "_solve_arrays", refusing)
    with pytest.raises(HouseholdSolveFailure) as exc:
        aggregate(spec)
    assert exc.value.index == 200
    assert exc.value.params == sample_household(spec, 200)
    assert isinstance(exc.value.__cause__, NumericalFailure)
    assert "the scalar route answers" in str(exc.value)
    assert slices == [64] * 4


class TestRatioOrder:
    """``_ratio_order`` ranks as numpy's stable argsort does, by the packed
    keys up to ``_PACKED`` ratios and by argsort beyond them or where keys
    collide."""

    @pytest.mark.parametrize("count", [1, 2, 3, 1000, 2**16, 2**16 + 1])
    @pytest.mark.parametrize("kind", ["distinct", "zero_and_inf", "ties", "low_bits"])
    def test_equals_stable_argsort(self, monkeypatch, count, kind):
        rng = np.random.default_rng([count, len(kind)])
        ratios = np.exp(rng.normal(0.0, 1.0, count))
        if kind == "zero_and_inf":
            ratios[rng.permutation(count)[:2]] = (0.0, math.inf)[:count]
        elif kind == "ties":
            ratios = ratios[rng.integers(0, max(1, count // 4), count)]
        elif kind == "low_bits":
            # Ratios a few ulps apart: their keys share their high bits.
            bits = np.full(count, np.float64(1.5).view(np.int64))
            ratios = (bits + rng.integers(0, 2 * count, count)).view(np.float64)
        want = np.argsort(ratios, kind="stable")
        kept = ratios.copy()
        if kind in ("distinct", "zero_and_inf") and count <= population._PACKED:
            # The packed keys rank these without an argsort.
            monkeypatch.setattr(np, "argsort", None)
        got = population._ratio_order(ratios)
        assert got.dtype.kind == "i" and (got == want).all()
        assert (ratios.view(np.int64) == kept.view(np.int64)).all()
