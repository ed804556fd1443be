"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance] criterion NN PASS/FAIL` line (visible
under ``pytest -s`` or in captured output on failure) and then asserts.
All randomness is seeded; a failing criterion fails deterministically.
"""

import math
from pathlib import Path

import numpy as np

from fertgames import (
    ModelParams,
    benchmark_solve,
    build_report,
    equilibrium_transfer,
    fd_check,
    fertility_threshold,
    maximize_1d,
    oracle_benchmark,
    oracle_extended,
    oracle_game,
    solve_extended,
    solve_game,
    wife_reaction,
)
from fertgames.cli import run_command
from fertgames.core import replace
from fertgames.oracle import (
    extended_transfer_ceiling,
    game_transfer_ceiling,
    parabolic_refine,
)
from fertgames.population import LogNormalSpec, PopulationSpec, aggregate
from fertgames.statics import PARTIAL_KEYS
from conftest import (
    SEED,
    cubic_value,
    draw_benchmark_params,
    draw_interior_params,
    draw_params,
    extended_cubic,
    loguniform,
    positive_roots,
    rel_err,
    residual_scale,
)

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_transfer_closed_form_fidelity():
    rng = np.random.default_rng(SEED)
    worst_gap, worst_resid = 0.0, 0.0
    for _ in range(1000):
        p = draw_params(rng)
        rho = equilibrium_transfer(p)
        q = (p.alpha * p.delta / p.gamma) * p.a_w * (p.a_w + p.a_m)
        resid = abs(rho * rho + p.alpha * p.a_w * rho - q) / max(rho * rho, q)
        worst_resid = max(worst_resid, resid)

        # The oracle maximizes the husband's objective along the unclamped
        # reaction, whose unique stationary point is the equilibrium
        # transfer for every parameter draw.
        def u(r: float) -> float:
            n = p.gamma / p.delta - p.a_w / r
            return math.log(p.a_m - r * n) + p.alpha * n

        ceiling = game_transfer_ceiling(p)
        rho_oracle, _ = maximize_1d(u, ceiling * 1e-9, ceiling * (1 - 1e-9),
                                    tol=1e-12 * ceiling)
        worst_gap = max(worst_gap, rel_err(rho_oracle, rho))
    report(1, worst_gap < 1e-6 and worst_resid < 1e-9,
           f"1000 draws: max oracle gap {worst_gap:.2e} (tol 1e-6), "
           f"max quadratic residual {worst_resid:.2e} (tol 1e-9)")


def test_criterion_02_reaction_fidelity():
    rng = np.random.default_rng(SEED + 2)
    worst_gap, worst_foc = 0.0, 0.0
    checked = 0
    while checked < 1000:
        p = draw_params(rng)
        rho = loguniform(rng) * p.a_w * p.delta / p.gamma
        r = wife_reaction(p, rho)
        if r.n <= 1e-2:
            continue
        foc = abs(p.gamma * rho / (p.a_w + rho * r.n) - p.delta) / p.delta
        worst_foc = max(worst_foc, foc)

        def u(n: float) -> float:
            return p.gamma * math.log(p.a_w + rho * n) - p.delta * n

        hi = p.gamma / p.delta
        n_golden, _ = maximize_1d(u, 0.0, hi, tol=1e-10 * hi)
        n_oracle = parabolic_refine(u, n_golden, 1e-3 * hi, 0.0, hi)
        worst_gap = max(worst_gap, rel_err(n_oracle, r.n))
        checked += 1
    report(2, worst_gap < 1e-6 and worst_foc < 1e-10,
           f"1000 interior pairs: max oracle gap {worst_gap:.2e} (tol 1e-6), "
           f"max FOC residual {worst_foc:.2e} (tol 1e-10)")


def test_criterion_03_benchmark_fidelity_and_signs():
    rng = np.random.default_rng(SEED + 3)
    worst_gap = 0.0
    signs_ok = True
    for _ in range(200):
        p = draw_benchmark_params(rng)
        closed = benchmark_solve(p)
        grid = oracle_benchmark(p)
        worst_gap = max(worst_gap, rel_err(grid.n_star, closed.n_star))

        for field, want in (("alpha", 1), ("delta", -1), ("gamma", -1),
                            ("beta", -1)):
            x = getattr(p, field)
            h = 1e-6 * x

            def n_at(v: float) -> float:
                vals = dict(alpha=p.alpha, delta=p.delta, gamma=p.gamma,
                            beta=p.beta, a_w=p.a_w, a_m=p.a_m)
                vals[field] = v
                return benchmark_solve(ModelParams(**vals)).n_star

            fd = (n_at(x + h) - n_at(x - h)) / (2 * h)
            signs_ok = signs_ok and math.copysign(1, fd) == want
    report(3, worst_gap < 1e-6 and signs_ok,
           f"200 draws: max oracle gap {worst_gap:.2e} (tol 1e-6), "
           f"fertility sign pattern (+alpha, -delta, -gamma, -beta) "
           f"{'holds' if signs_ok else 'violated'}")


def test_criterion_04_fertility_scale_invariance():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(200):
        p = draw_params(rng)
        n0 = solve_game(p).n_star
        for lam in (0.5, 2.0, 10.0):
            n1 = solve_game(ModelParams(p.alpha, p.delta, p.gamma, p.beta,
                                        lam * p.a_w, lam * p.a_m)).n_star
            worst = max(worst, abs(n1 - n0) / max(n0, 1e-300) if n0 else abs(n1))
    report(4, worst < 1e-12,
           f"200 draws x lambda in (0.5, 2, 10): max fertility drift "
           f"{worst:.2e} (tol 1e-12)")


def bisected_threshold(p: ModelParams, rtol: float = 1e-13) -> float:
    """Wife income where the unclamped game fertility changes sign, by bisection."""

    def margin(a_w: float) -> float:
        return p.gamma / p.delta - a_w / equilibrium_transfer(replace(p, a_w=a_w))

    lo, hi = 1e-12 * p.a_m, p.a_m
    while margin(hi) >= 0:
        hi *= 2.0
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if margin(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_criterion_05_threshold_law():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    law_ok = True
    for _ in range(200):
        p = draw_params(rng)
        crit = fertility_threshold(p)
        closed = p.alpha * p.gamma * p.a_m / p.delta
        worst = max(worst, rel_err(crit, closed), rel_err(bisected_threshold(p), crit))
        n = solve_game(p).n_star
        if p.a_w < closed * (1 - 1e-9):
            law_ok = law_ok and n > 0
        elif p.a_w > closed * (1 + 1e-9):
            law_ok = law_ok and n == 0.0
    anchor = fertility_threshold(ModelParams(2, 1, 1, 1, 1, 3))
    anchor_ok = rel_err(anchor, 6.0) < 1e-8
    report(5, worst < 1e-8 and law_ok and anchor_ok,
           f"200 draws: max bisection-vs-closed-form gap {worst:.2e} "
           f"(tol 1e-8), threshold law {'holds' if law_ok else 'violated'}, "
           f"anchor {anchor:.10g} (want 6)")


def test_criterion_06_comparative_statics():
    rng = np.random.default_rng(SEED + 6)
    worst_fd = 0.0
    order_ok = True
    for _ in range(500):
        p = draw_interior_params(rng)
        statics = build_report(p)
        d_rho, d_n = statics.partial_rho, statics.partial_n
        for key in PARTIAL_KEYS:
            worst_fd = max(worst_fd, rel_err(fd_check(p, "rho", key), d_rho[key]))
            worst_fd = max(worst_fd, rel_err(fd_check(p, "n", key), d_n[key]))
        order_ok = order_ok and d_rho["a_w"] > d_rho["a_m"] > 0
        order_ok = order_ok and statics.ratio_partial < 0

    # Fertility falls monotonically along income-ratio grids.
    grid_ok = True
    for _ in range(10):
        p = draw_params(rng)
        crit_ratio = p.alpha * p.gamma / p.delta
        values = [solve_game(ModelParams(p.alpha, p.delta, p.gamma, p.beta,
                                         crit_ratio * (0.005 + 0.985 * i / 99)
                                         * p.a_m, p.a_m)).n_star
                  for i in range(100)]
        grid_ok = grid_ok and all(a > b for a, b in zip(values, values[1:]))

    anchor = build_report(ModelParams(2, 1, 1, 1, 1, 3)).partial_rho
    anchor_ok = (abs(anchor["a_m"] - 1 / 3) < 1e-9
                 and abs(anchor["a_w"] - 1.0) < 1e-9)
    report(6, worst_fd < 1e-4 and order_ok and grid_ok and anchor_ok,
           f"500 interior draws: max analytic-vs-FD gap {worst_fd:.2e} "
           f"(tol 1e-4), income order property "
           f"{'holds' if order_ok else 'violated'}, ratio grids "
           f"{'monotone' if grid_ok else 'non-monotone'}, anchor partials "
           f"({anchor['a_m']:.10g}, {anchor['a_w']:.10g})")


def test_criterion_07_extended_model():
    rng = np.random.default_rng(SEED + 7)
    worst_resid = 0.0
    checked = 0
    while checked < 200:
        p = draw_params(rng)
        eq = solve_extended(p, "high")
        if not eq.interior or eq.n_star < 1e-3:
            continue
        rho_golden, _ = oracle_extended(p)
        ceiling = extended_transfer_ceiling(p)

        def u(rho: float) -> float:
            n = max(0.0, p.gamma / p.delta - p.a_w / rho)
            return math.log(p.a_m - (p.beta + rho) * n) + p.alpha * n

        rho_oracle = parabolic_refine(u, rho_golden, 1e-4 * ceiling,
                                      ceiling * 1e-12, ceiling * (1 - 1e-9))
        foc = extended_cubic(p)
        worst_resid = max(worst_resid,
                          abs(cubic_value(foc, rho_oracle)) / residual_scale(foc, rho_oracle))
        checked += 1

    anchor = solve_extended(ModelParams(1, 1, 1, 1, 1, 3), "high")
    anchor_ok = (abs(anchor.selected_rho - 1.24698) < 1e-5
                 and abs(anchor.n_star - 0.19806) < 1e-5)

    # Documented deviation from the two-root narrative: with positive
    # parameters the coefficient pattern admits exactly one positive root.
    counts = {}
    rng_roots = np.random.default_rng(SEED + 77)
    for _ in range(10_000):
        k = len(positive_roots(extended_cubic(draw_params(rng_roots))))
        counts[k] = counts.get(k, 0) + 1
    count_ok = counts == {1: 10_000}
    report(7, worst_resid < 1e-6 and anchor_ok and count_ok,
           f"200 draws: max cubic residual at oracle optimum {worst_resid:.2e} "
           f"(tol 1e-6), anchor (rho={anchor.selected_rho:.6f}, "
           f"n={anchor.n_star:.6f}), positive-root counts over 10000 draws "
           f"{counts} (single root everywhere, not two)")


def test_criterion_08_vanishing_cost_reduction():
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    checked = 0
    while checked < 100:
        base = draw_params(rng)
        p = ModelParams(base.alpha, base.delta, base.gamma, 1e-8,
                        base.a_w, base.a_m)
        eq = solve_extended(p, "high")
        if not eq.interior:
            continue
        worst = max(worst, rel_err(eq.selected_rho + p.beta,
                                   equilibrium_transfer(p)))
        checked += 1
    report(8, worst < 1e-4,
           f"100 interior draws at beta=1e-8: max (rho+beta)-vs-transfer gap "
           f"{worst:.2e} (tol 1e-4)")


def test_criterion_09_population_layer():
    point = PopulationSpec(
        count=4, seed=5,
        aw_dist=LogNormalSpec(math.log(1.0), 0.0),
        am_dist=LogNormalSpec(math.log(3.0), 0.0),
        alpha=2.0, delta=1.0, gamma=1.0, beta=1.0)
    r = aggregate(point)
    eq = solve_game(ModelParams(2, 1, 1, 1, 1, 3))
    point_ok = (r.mean_fertility == eq.n_star and r.childless_share == 0.0
                and r.mean_transfer == eq.rho_star)

    rich = PopulationSpec(
        count=30, seed=5,
        aw_dist=LogNormalSpec(math.log(8.0), 0.1),
        am_dist=LogNormalSpec(math.log(1.0), 0.1),
        alpha=2.0, delta=1.0, gamma=1.0, beta=1.0)
    childless_ok = aggregate(rich).childless_share == 1.0

    def helped(subsidy: float) -> float:
        spec = PopulationSpec(
            count=50, seed=12,
            aw_dist=LogNormalSpec(0.0, 0.4), am_dist=LogNormalSpec(0.0, 0.4),
            alpha=1.0, delta=1.0, gamma=1.0, beta=1.0, subsidy=subsidy)
        return aggregate(spec).mean_fertility

    means = [helped(s) for s in (0.0, 0.25, 0.5, 1.0)]
    subsidy_ok = all(b >= a for a, b in zip(means, means[1:]))

    repro = PopulationSpec(
        count=200, seed=77, aw_dist=LogNormalSpec(0.0, 0.5),
        am_dist=LogNormalSpec(0.1, 0.5), alpha=(1.0, 3.0), delta=1.0,
        gamma=(0.5, 2.0), beta=1.0, subsidy=0.1)
    repro_ok = aggregate(repro) == aggregate(repro)

    report(9, point_ok and childless_ok and subsidy_ok and repro_ok,
           f"single-point reproduces the game solve: {point_ok}; "
           f"childless share 1 above threshold: {childless_ok}; "
           f"mean fertility along subsidies {[f'{m:.4f}' for m in means]} "
           f"non-decreasing: {subsidy_ok}; bit-identical reruns: {repro_ok}")


def test_criterion_10_cli_golden_files(capsys, tmp_path):
    checks = []
    for scenario, expected in (
        ("game_anchor.scn", "solve_game_anchor.csv"),
        ("extended_anchor.scn", "solve_extended_anchor.csv"),
        ("benchmark_anchor.scn", "solve_benchmark_anchor.csv"),
    ):
        code = run_command(["solve", str(SCENARIOS / scenario)])
        got = capsys.readouterr().out
        checks.append(code == 0 and got == (GOLDEN / expected).read_text())

    code = run_command(["statics", str(SCENARIOS / "game_anchor.scn")])
    checks.append(code == 0 and capsys.readouterr().out
                  == (GOLDEN / "statics_game_anchor.csv").read_text())

    code = run_command(["threshold", str(SCENARIOS / "game_anchor.scn")])
    checks.append(code == 0 and capsys.readouterr().out
                  == (GOLDEN / "threshold_game_anchor.csv").read_text())

    out = tmp_path / "sweep.csv"
    code = run_command(["sweep", str(SCENARIOS / "game_anchor.scn"),
                        "--param", "a_w", "--from", "0.5", "--to", "7",
                        "--steps", "13", "--out", str(out)])
    checks.append(code == 0 and out.read_text()
                  == (GOLDEN / "sweep_game_anchor.csv").read_text())

    bad = tmp_path / "bad.scn"
    bad.write_text("model = game\nalpha = two\n")
    checks.append(run_command(["solve", str(bad)]) == 2)
    capsys.readouterr()

    childless = tmp_path / "childless.scn"
    childless.write_text("model = game\nalpha = 2\ndelta = 1\ngamma = 1\n"
                         "a_w = 7\na_m = 3\n")
    checks.append(run_command(["statics", str(childless)]) == 3)
    capsys.readouterr()

    with capsys.disabled():
        report(10, all(checks),
               f"golden files byte-identical and error exit codes honored: "
               f"{checks}")
