"""Deterministic population sampling and aggregation."""

import math

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
    sample_households,
    solve_game,
)
from conftest import LEAD_OVERFLOW, LEAD_OVERFLOW_SUBSIDY, UTILITY_OVERFLOW
from fertgames.extended import leader_optima, leader_optimum
from fertgames.population import _solve_arrays, _solve_household, sample_household

POINT = LogNormalSpec(mu=0.0, sigma=0.0)
PREFS = ("alpha", "delta", "gamma", "beta")
SEED_LEADER = 20251018


def reference_draw(spec: PopulationSpec, index: int) -> dict[str, float]:
    """Raw parameters of household ``index``, drawn the way the sampler is
    specified: from its own ``default_rng([seed, index])``, two normals, then
    one uniform per ranged preference."""
    rng = np.random.default_rng([spec.seed, index])
    a_w = float(np.exp(spec.aw_dist.mu + spec.aw_dist.sigma * rng.standard_normal()))
    a_m = float(np.exp(spec.am_dist.mu + spec.am_dist.sigma * rng.standard_normal()))
    prefs = {}
    for name in PREFS:
        dist = getattr(spec, name)
        prefs[name] = (float(rng.uniform(*dist)) if isinstance(dist, tuple)
                       else float(dist))
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


def reference_aggregate(spec: PopulationSpec) -> AggregateReport:
    """One household at a time: scalar draw, scalar solve, sorted deciles."""
    fertility, transfers, ratios = [], [], []
    for i in range(spec.count):
        p = reference_household(spec, i)
        n, rho = _solve_household(spec, p)
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


class TestBatchedSampling:
    """The batched sampler against one ``default_rng([seed, i])`` each."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("prefs", [FIXED_PREFS, RANGED_PREFS],
                             ids=["fixed", "ranged"])
    def test_columns_match_default_rng(self, seed, prefs):
        spec = PopulationSpec(count=23, seed=seed,
                              aw_dist=LogNormalSpec(0.3, 0.7),
                              am_dist=LogNormalSpec(-0.1, 0.4), **prefs)
        households = sample_households(spec)
        for i in (0, 1, spec.count - 1):
            want = reference_household(spec, i)
            assert households[i] == want
            assert sample_household(spec, i) == want

    @pytest.mark.parametrize("model,subsidy", [
        ("benchmark", 0.0), ("game", 0.0), ("extended", 0.0), ("game", 0.5)])
    @pytest.mark.parametrize("count", [1, 7, 137, 3001])
    @pytest.mark.parametrize("prefs", [FIXED_PREFS, RANGED_PREFS],
                             ids=["fixed", "ranged"])
    def test_aggregate_matches_scalar_loop(self, model, subsidy, count, prefs):
        spec = PopulationSpec(count=count, seed=20251 + count,
                              aw_dist=LogNormalSpec(0.0, 0.6),
                              am_dist=LogNormalSpec(math.log(3.0), 0.5),
                              model=model, subsidy=subsidy, **prefs)
        assert repr(aggregate(spec)) == repr(reference_aggregate(spec))

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
        spec = point_spec(1, 1, count=2**32)
        with pytest.raises(InvalidDistribution):
            sample_households(spec)
        with pytest.raises(InvalidDistribution):
            aggregate(spec)
        with pytest.raises(InvalidDistribution):
            sample_household(spec, 2**32)


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
        # of 1e30 to zero.
        for spec in (point_spec(1e308, 1e308, count=3, model="benchmark"),
                     point_spec(1e-300, 1e30, count=3)):
            with pytest.raises(HouseholdSolveFailure) as exc:
                aggregate(spec)
            assert exc.value.index == 0
            assert isinstance(exc.value.__cause__, NumericalFailure)

    @pytest.mark.parametrize("model,p,subsidy", [
        ("game", UTILITY_OVERFLOW, 0.0),
        # gamma*ln(c_w) overflows in the pooled budget.
        ("benchmark", ModelParams(2, 1, 1e307, 1e-10, 5e-17, 5e-17), 0.0),
        # gamma*ln(c_w) overflows in the leader games.
        ("extended", ModelParams(2, 1e307, 1e307, 1, 1e10, 3e10), 0.0),
        ("game", ModelParams(2, 1e307, 1e307, 1, 1e10, 3e10), 0.5),
    ], ids=["game-p0", "benchmark-p1", "extended", "subsidized"])
    def test_utility_beyond_float_range_fails(self, model, p, subsidy):
        spec = point_spec(p.a_w, p.a_m, count=3, model=model, alpha=p.alpha,
                          delta=p.delta, gamma=p.gamma, beta=p.beta,
                          subsidy=subsidy)
        with pytest.raises(NumericalFailure):
            _solve_household(spec, sample_household(spec, 0))
        with pytest.raises(HouseholdSolveFailure) as exc:
            aggregate(spec)
        assert exc.value.index == 0
        assert isinstance(exc.value.__cause__, NumericalFailure)

    def test_household_failure_carries_index(self):
        # alpha < delta breaks the pooled-budget precondition.
        spec = point_spec(1.0, 1.0, count=3, model="benchmark",
                          alpha=0.5, delta=1.0)
        with pytest.raises(HouseholdSolveFailure) as exc:
            aggregate(spec)
        assert exc.value.index == 0
        assert exc.value.params == sample_household(spec, 0)
        assert repr(exc.value.params) in str(exc.value)

    def test_game_household_failure_carries_first_failing_index(self):
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
    and the count of three-root cubics, boundary wins and corners."""
    rows, seen = [], {"three roots": 0, "boundary": 0, "corner": 0}
    for values in zip(*(c.tolist() for c in columns)):
        p = ModelParams(*values)
        try:
            roots, rho, n, c_w, c_m = leader_optimum(
                p, 0.0 if subsidy or game else p.beta, subsidy)
        except ModelError:
            rows.append(None)
            continue
        seen["three roots"] += len(roots) == 3
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
        seen_total = dict.fromkeys(("three roots", "boundary", "corner"), 0)
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
        # The draws reach every branch: the trigonometric root (the cubic
        # is left unsolved at k = 0), the boundary rho = 0 (only a subsidy
        # offers it) and the corner.
        assert (seen_total["three roots"] > 0) != game and seen_total["corner"] > 0
        assert (seen_total["boundary"] > 0) == (subsidy > 0)

    @pytest.mark.parametrize("subsidy", [0.0, 0.5], ids=["extended", "s=0.5"])
    def test_households_the_scalar_route_refuses_are_left_to_it(self, subsidy):
        columns = log_uniform_households([SEED_LEADER, 2], E150, 20_000)
        *got, ok = batched_leader(columns, subsidy)
        rows, _ = scalar_leader(columns, subsidy)
        refused = np.array([row is None for row in rows])
        assert refused.any() and not ok[refused].any()
        solved = np.flatnonzero(ok)
        for got_column, want_column in zip(got, zip(*(rows[i] for i in solved))):
            assert_same_bits(got_column[solved], want_column)

    @pytest.mark.parametrize("p,subsidy", [
        (ModelParams(1, 1, 1, 1, a_w=1e300, a_m=1e-300), 0.0),  # income ratio
        (LEAD_OVERFLOW, LEAD_OVERFLOW_SUBSIDY),  # scaled leading coefficient
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
        spec = PopulationSpec(count=400, seed=1,
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
    spec = point_spec(1.0, 1.0, model=model, subsidy=subsidy)
    columns = log_uniform_households([SEED_LEADER, 3], E150, 3000)
    ok = _solve_arrays(spec, *columns)[-1]
    refused = []
    for i in np.flatnonzero(ok).tolist():
        try:
            _solve_household(spec, ModelParams(*(float(c[i]) for c in columns)))
        except ModelError:
            refused.append(i)
    assert ok.any() and refused == []
