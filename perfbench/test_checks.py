"""Tests of the benchmark's checks, reference and tracer.

Run from the repository root: ``python3 -m pytest perfbench -q``.

Each route check must pass the program's answer, where the program is
right, and flag the same answer with one value moved by 1e-9 relative. The
population check must flag a decile table with one household moved between
buckets.
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import fertgames as fg  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ANCHOR = dict(alpha=2.0, delta=1.0, gamma=1.0, beta=1.0, a_w=1.0, a_m=3.0)
EXTENDED = dict(ANCHOR, alpha=1.0)
NUDGE = 1 + 1e-9


def _nudged(fields: dict, key: str) -> dict:
    return dict(fields, **{key: fields[key] * NUDGE})


def _flags_every(check, fields: dict, keys) -> None:
    assert check(fields) == []
    for key in keys:
        assert check(_nudged(fields, key)), key


def test_benchmark_check():
    s = fg.benchmark_solve(workloads.params(ANCHOR))
    fields = {"n": s.n_star, "c_w": s.c_w, "c_m": s.c_m, "u_family": s.u_family,
              "wife_delta": s.wife_utility_delta}
    ref = reference.benchmark(ANCHOR)
    _flags_every(lambda f: checks.outcome(f, ref, ANCHOR, log_children=True),
                 fields, ("n", "c_w", "c_m", "u_family"))


@pytest.mark.parametrize("lam", [1.0, 0.125, 8.0])
def test_game_check_with_scaled_inputs(lam):
    eq = fg.solve_game(workloads.params(workloads.scaled(ANCHOR, lam)))
    ref = reference.game(ANCHOR)
    # u_w is 0.19 here, small beside the terms it is made of, so it is
    # checked on their scale and a relative nudge of it is not flagged.
    _flags_every(lambda f: checks.outcome(f, ref, ANCHOR, lam), workloads.game_fields(eq),
                 ("rho", "n", "c_w", "c_m", "u_m"))


@pytest.mark.parametrize("regime", ["low", "high"])
def test_extended_check(regime):
    eq = fg.solve_extended(workloads.params(EXTENDED), regime)
    ref = reference.leader(EXTENDED, paid_beta=True)
    _flags_every(lambda f: checks.outcome(f, ref, EXTENDED), workloads.extended_fields(eq),
                 ("rho", "n", "c_w", "c_m"))


def test_subsidized_check_flags_the_oracle_and_a_nudge():
    p = dict(ANCHOR, a_w=1.0, a_m=1.0, alpha=1.0)
    ref = reference.leader(p, paid_beta=False, subsidy=0.5)
    exact = {k: ref[k] for k in ("rho", "n", "c_w", "c_m", "interior")}
    _flags_every(lambda f: checks.outcome(f, ref, p, subsidy=0.5), exact, ("rho", "n", "c_w"))
    # The oracle's golden-section search stalls about 2e-8 short (fault F1).
    eq = fg.oracle_game(workloads.params(p), subsidy=0.5)
    assert checks.outcome(workloads.game_fields(eq), ref, p, subsidy=0.5)


def test_statics_check():
    rep = fg.build_report(workloads.params(ANCHOR))
    fields = workloads.statics_fields(rep)
    ref = reference.statics(ANCHOR)
    assert checks.statics(fields, ref, ANCHOR) == []
    assert checks.statics(_nudged(fields, "rho"), ref, ANCHOR)
    assert checks.statics(_nudged(fields, "d_n_ratio"), ref, ANCHOR)
    for column in ("d_rho", "d_n"):
        for key in reference.PARTIAL_KEYS:
            bad = dict(fields, **{column: _nudged(fields[column], key)})
            assert checks.statics(bad, ref, ANCHOR), (column, key)
    assert checks.statics(dict(fields, sign_delta=-fields["sign_delta"]), ref, ANCHOR)


def test_threshold_check():
    value = fg.fertility_threshold(workloads.params(ANCHOR), rtol=1e-13)
    want = reference.threshold(ANCHOR)
    assert want == 6.0
    assert checks.threshold(value, want) == []
    assert checks.threshold(value * NUDGE, want)


def _population(count=1000):
    case = workloads.PopulationCase("game", count, workloads.ANCHOR_PREFS,
                                    **workloads.ANCHOR_INCOMES)
    rep = fg.aggregate(case.spec(seed=11))
    return workloads.report_fields(rep, count), reference.population(case.task())


def test_population_check_passes_the_program():
    fields, expect = _population()
    assert checks.population(fields, expect, monotone=True) == []


def test_population_check_flags_a_moved_household():
    fields, expect = _population()
    counts, means = list(fields["decile_counts"]), list(fields["decile_means"])
    # Move one household, with its fertility, from decile 3 to decile 4.
    moved = means[3]
    means[3] = (means[3] * counts[3] - moved) / (counts[3] - 1)
    means[4] = (means[4] * counts[4] + moved) / (counts[4] + 1)
    counts[3] -= 1
    counts[4] += 1
    bad = dict(fields, decile_counts=counts, decile_means=means)
    assert checks.population(bad, expect, monotone=True)


def test_population_check_flags_a_shifted_mean_and_rising_deciles():
    fields, expect = _population()
    shift = 20 * expect["sd_n"] / math.sqrt(fields["count"])
    shifted = dict(fields, mean_fertility=fields["mean_fertility"] + shift,
                   decile_means=[m + shift for m in fields["decile_means"]])
    assert checks.population(shifted, expect, monotone=True)
    rising = dict(fields, decile_means=fields["decile_means"][::-1])
    assert checks.population(rising, expect, monotone=True)


@pytest.mark.parametrize("paid_beta,subsidy", [(True, 0.0), (False, 0.5)])
def test_reference_childless_edge(paid_beta, subsidy):
    """Fertility reaches zero at a_w = G*(alpha*a_m - k), where the
    quadrature splits its inner integral."""
    k = (ANCHOR["beta"] if paid_beta else 0.0) - subsidy
    edge = ANCHOR["gamma"] / ANCHOR["delta"] * (ANCHOR["alpha"] * ANCHOR["a_m"] - k)
    below = reference.leader(dict(ANCHOR, a_w=edge * 0.999), paid_beta, subsidy)
    above = reference.leader(dict(ANCHOR, a_w=edge * 1.001), paid_beta, subsidy)
    assert below["n"] > 0 and above["n"] == 0


def test_reference_leader_cubic_reduces_to_the_game_quadratic():
    via_cubic = reference.leader(ANCHOR, paid_beta=False, subsidy=0.0)
    direct = reference.game(ANCHOR)
    assert via_cubic["rho"] == pytest.approx(direct["rho"], rel=1e-15)
    assert via_cubic["n"] == pytest.approx(direct["n"], rel=1e-15)


def test_tracer_spans_and_self_time():
    tracer = Tracer()
    tracer.install()
    try:
        fg.build_report(workloads.params(ANCHOR))
    finally:
        tracer.uninstall()
    assert fg.build_report.__module__ == "fertgames.statics"  # unwrapped again
    summary = tracer.summary()
    calls, total, own = summary["statics.build_report"]
    assert calls == 1 and 0 < own < total
    assert summary["game.solve_game"][0] > 1
    assert tracer.counts["core.validate_params"] > 0
