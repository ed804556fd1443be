"""Analytic comparative statics certified against finite differences."""

import math

import pytest

from fertgames import (
    BoundaryStatics,
    ModelParams,
    analytic_partials_n,
    analytic_partials_rho,
    build_report,
    fd_check,
    ratio_partial,
    sign_regimes,
    solve_game,
)
from fertgames.statics import PARTIAL_KEYS, ratio_fd, transfer_radicand
from conftest import draw_interior_params, rel_err

ANCHOR = ModelParams(alpha=2, delta=1, gamma=1, beta=1, a_w=1, a_m=3)
BOUNDARY = ModelParams(alpha=2, delta=1, gamma=1, beta=1, a_w=7, a_m=3)


class TestAnchorValues:
    def test_radicand(self):
        assert transfer_radicand(ANCHOR) == pytest.approx(9.0, rel=1e-14)

    def test_transfer_partials(self):
        d = analytic_partials_rho(ANCHOR)
        assert d["a_m"] == pytest.approx(1 / 3, abs=1e-9)
        assert d["a_w"] == pytest.approx(1.0, abs=1e-9)
        assert d["alpha"] == pytest.approx(1 / 3, abs=1e-9)
        assert d["delta"] == pytest.approx(4 / 3, abs=1e-9)
        assert d["gamma"] == pytest.approx(-4 / 3, abs=1e-9)

    def test_fertility_partials(self):
        d = analytic_partials_n(ANCHOR)
        assert d["a_m"] == pytest.approx(1 / 12, abs=1e-9)
        assert d["a_w"] == pytest.approx(-1 / 4, abs=1e-9)
        assert d["alpha"] == pytest.approx(1 / 12, abs=1e-9)
        assert d["delta"] == pytest.approx(-2 / 3, abs=1e-9)
        assert d["gamma"] == pytest.approx(2 / 3, abs=1e-9)

    def test_ratio_partial(self):
        assert ratio_partial(ANCHOR) == pytest.approx(-3 / 4, abs=1e-9)
        # Same number through the plain chain rule at fixed a_m.
        assert ratio_partial(ANCHOR) == pytest.approx(
            ANCHOR.a_m * analytic_partials_n(ANCHOR)["a_w"], rel=1e-12)


class TestFiniteDifferenceChecks:
    def test_fd_matches_anchor_transfer_partial(self):
        assert fd_check(ANCHOR, "rho", "a_m") == pytest.approx(1 / 3, abs=1e-6)

    def test_fd_rejects_unknown_param(self):
        with pytest.raises(ValueError):
            fd_check(ANCHOR, "rho", "beta")

    def test_scaling_direction_has_zero_derivative(self):
        h = 1e-6

        def n_at_scale(lam: float) -> float:
            return solve_game(ModelParams(
                ANCHOR.alpha, ANCHOR.delta, ANCHOR.gamma, ANCHOR.beta,
                lam * ANCHOR.a_w, lam * ANCHOR.a_m)).n_star

        fd = (n_at_scale(1 + h) - n_at_scale(1 - h)) / (2 * h)
        assert abs(fd) < 1e-8

    def test_boundary_raises_for_fertility_target(self):
        with pytest.raises(BoundaryStatics):
            fd_check(BOUNDARY, "n", "a_m")

    def test_transfer_target_fine_at_boundary(self):
        # rho* is smooth everywhere, so its FD works past the kink.
        assert math.isfinite(fd_check(BOUNDARY, "rho", "a_m"))

    def test_all_partials_match_fd(self, rng):
        for _ in range(100):
            p = draw_interior_params(rng)
            d_rho = analytic_partials_rho(p)
            d_n = analytic_partials_n(p)
            for key in PARTIAL_KEYS:
                assert rel_err(fd_check(p, "rho", key), d_rho[key]) < 1e-4
                assert rel_err(fd_check(p, "n", key), d_n[key]) < 1e-4


class TestSignStructure:
    def test_order_property(self, rng):
        for _ in range(200):
            p = draw_interior_params(rng)
            d = analytic_partials_rho(p)
            assert d["a_w"] > d["a_m"] > 0

    def test_transfer_rises_with_each_taste(self, rng):
        for _ in range(200):
            p = draw_interior_params(rng)
            d = analytic_partials_rho(p)
            assert d["alpha"] > 0
            assert d["delta"] > 0
            assert d["gamma"] < 0

    def test_ratio_partial_negative(self, rng):
        for _ in range(200):
            p = draw_interior_params(rng)
            r = ratio_partial(p)
            assert r < 0
            assert rel_err(ratio_fd(p), r) < 1e-4

    def test_boundary_raises(self):
        with pytest.raises(BoundaryStatics):
            analytic_partials_n(BOUNDARY)
        with pytest.raises(BoundaryStatics):
            ratio_partial(BOUNDARY)
        with pytest.raises(BoundaryStatics):
            sign_regimes(BOUNDARY)


class TestSignRegimes:
    def test_anchor_delta_regime(self):
        delta_regime, gamma_regime = sign_regimes(ANCHOR)
        # Induced transfer channel (1/4)*(4/3) = 1/3 loses to the direct
        # preference channel gamma/delta^2 = 1, so fertility falls in delta.
        assert delta_regime.transfer_term == pytest.approx(1 / 3, abs=1e-12)
        assert delta_regime.preference_term == pytest.approx(1.0, abs=1e-12)
        assert delta_regime.dominant == "preference"
        assert delta_regime.predicted_sign == -1
        assert gamma_regime.dominant == "preference"
        assert gamma_regime.predicted_sign == 1

    def test_regime_signs_match_fd(self, rng):
        for _ in range(100):
            p = draw_interior_params(rng)
            delta_regime, gamma_regime = sign_regimes(p)
            assert delta_regime.predicted_sign == int(
                math.copysign(1, fd_check(p, "n", "delta")))
            assert gamma_regime.predicted_sign == int(
                math.copysign(1, fd_check(p, "n", "gamma")))

    def test_interior_regimes_are_one_sided(self, rng):
        # Inside the fertile region the induced-transfer channel never wins:
        # the delta/gamma ratio it would need lies past the no-birth
        # threshold. So fertility always falls in the wife's aversion and
        # rises in her consumption taste wherever it is positive at all.
        for _ in range(500):
            p = draw_interior_params(rng)
            d = analytic_partials_n(p)
            assert d["delta"] < 0
            assert d["gamma"] > 0


class TestIncomeCompositionExhibit:
    # The same out-of-pocket income transfer to the household moves fertility
    # in opposite directions depending on which spouse is richer: with equal
    # increments to both incomes the effect is negative when the wife is
    # poorer and positive when she is richer.
    def test_equal_increment_direction_flips_sign(self):
        poorer_wife = ANCHOR
        richer_wife = ModelParams(alpha=4, delta=1, gamma=1, beta=1, a_w=2, a_m=1)

        for p, expected in ((poorer_wife, -1), (richer_wife, 1)):
            d = analytic_partials_n(p)
            direction = d["a_w"] + d["a_m"]
            assert math.copysign(1, direction) == expected

            h = 1e-6
            def n_at(t: float) -> float:
                return solve_game(ModelParams(p.alpha, p.delta, p.gamma,
                                              p.beta, p.a_w + t, p.a_m + t)).n_star
            fd = (n_at(h) - n_at(-h)) / (2 * h)
            assert math.copysign(1, fd) == expected
            assert rel_err(fd, direction) < 1e-4

    def test_anchor_composition_values(self):
        d = analytic_partials_n(ANCHOR)
        assert d["a_w"] + d["a_m"] == pytest.approx(-1 / 6, abs=1e-9)
        richer = analytic_partials_n(ModelParams(4, 1, 1, 1, 2, 1))
        assert richer["a_w"] + richer["a_m"] == pytest.approx(
            0.11704428783660745, rel=1e-9)


class TestBuildReport:
    def test_report_consistent_at_anchor(self):
        report = build_report(ANCHOR)
        assert report.rho_star == pytest.approx(2.0, rel=1e-12)
        assert report.n_star == pytest.approx(0.5, rel=1e-12)
        for key in PARTIAL_KEYS:
            assert rel_err(report.fd_rho[key], report.partial_rho[key]) < 1e-4
            assert rel_err(report.fd_n[key], report.partial_n[key]) < 1e-4
        assert report.ratio_partial == pytest.approx(-0.75, abs=1e-9)

    def test_report_boundary_raises(self):
        with pytest.raises(BoundaryStatics):
            build_report(BOUNDARY)
