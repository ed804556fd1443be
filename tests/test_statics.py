"""Analytic comparative statics certified against finite differences and
against a many-digit mpmath evaluation of the textbook closed forms."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from fertgames import (
    BoundaryStatics,
    ModelError,
    ModelParams,
    build_report,
    fd_check,
    solve_game,
)
from fertgames.statics import PARTIAL_KEYS, ratio_fd
from conftest import SEED, draw_interior_params, rel_err

ANCHOR = ModelParams(alpha=2, delta=1, gamma=1, beta=1, a_w=1, a_m=3)
BOUNDARY = ModelParams(alpha=2, delta=1, gamma=1, beta=1, a_w=7, a_m=3)
# An interior game whose textbook partials overflow in floating point, which
# makes d n*/d gamma NaN there.
NAN_PARTIAL = ModelParams(
    alpha=5.197481855818512e+41, delta=1.832903779693475e+125,
    gamma=1.1645317484861312e+114, beta=2.060587035606783e-115,
    a_w=9.333575082177382e+63, a_m=9.472029347256932e+82)


class TestAnchorValues:
    def test_radicand(self):
        assert build_report(ANCHOR).radicand == pytest.approx(9.0, rel=1e-14)

    def test_transfer_partials(self):
        d = build_report(ANCHOR).partial_rho
        assert d["a_m"] == pytest.approx(1 / 3, abs=1e-9)
        assert d["a_w"] == pytest.approx(1.0, abs=1e-9)
        assert d["alpha"] == pytest.approx(1 / 3, abs=1e-9)
        assert d["delta"] == pytest.approx(4 / 3, abs=1e-9)
        assert d["gamma"] == pytest.approx(-4 / 3, abs=1e-9)

    def test_fertility_partials(self):
        d = build_report(ANCHOR).partial_n
        assert d["a_m"] == pytest.approx(1 / 12, abs=1e-9)
        assert d["a_w"] == pytest.approx(-1 / 4, abs=1e-9)
        assert d["alpha"] == pytest.approx(1 / 12, abs=1e-9)
        assert d["delta"] == pytest.approx(-2 / 3, abs=1e-9)
        assert d["gamma"] == pytest.approx(2 / 3, abs=1e-9)

    def test_ratio_partial(self):
        report = build_report(ANCHOR)
        assert report.ratio_partial == pytest.approx(-3 / 4, abs=1e-9)
        # Same number through the plain chain rule at fixed a_m.
        assert report.ratio_partial == pytest.approx(
            ANCHOR.a_m * report.partial_n["a_w"], rel=1e-12)


class TestFiniteDifferenceChecks:
    def test_fd_matches_anchor_transfer_partial(self):
        assert fd_check(ANCHOR, "rho", "a_m") == pytest.approx(1 / 3, abs=1e-6)

    def test_fd_rejects_unknown_param(self):
        with pytest.raises(ValueError):
            fd_check(ANCHOR, "rho", "beta")

    def test_fd_rejects_unknown_target(self):
        with pytest.raises(ValueError):
            fd_check(ANCHOR, "c_m", "a_w")

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
            report = build_report(p)
            d_rho, d_n = report.partial_rho, report.partial_n
            for key in PARTIAL_KEYS:
                assert rel_err(fd_check(p, "rho", key), d_rho[key]) < 1e-4
                assert rel_err(fd_check(p, "n", key), d_n[key]) < 1e-4


class TestSignStructure:
    def test_order_property(self, rng):
        for _ in range(200):
            p = draw_interior_params(rng)
            d = build_report(p).partial_rho
            assert d["a_w"] > d["a_m"] > 0

    def test_transfer_rises_with_each_taste(self, rng):
        for _ in range(200):
            p = draw_interior_params(rng)
            d = build_report(p).partial_rho
            assert d["alpha"] > 0
            assert d["delta"] > 0
            assert d["gamma"] < 0

    def test_ratio_partial_negative(self, rng):
        for _ in range(200):
            p = draw_interior_params(rng)
            r = build_report(p).ratio_partial
            assert r < 0
            assert rel_err(ratio_fd(p), r) < 1e-4

    def test_boundary_raises(self):
        with pytest.raises(BoundaryStatics):
            build_report(BOUNDARY)
        with pytest.raises(BoundaryStatics):
            ratio_fd(BOUNDARY)


class TestSignRegimes:
    def test_anchor_delta_regime(self):
        report = build_report(ANCHOR)
        delta_regime, gamma_regime = report.delta_regime, report.gamma_regime
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
            report = build_report(p)
            delta_regime, gamma_regime = report.delta_regime, report.gamma_regime
            assert delta_regime.predicted_sign == int(
                math.copysign(1, fd_check(p, "n", "delta")))
            assert gamma_regime.predicted_sign == int(
                math.copysign(1, fd_check(p, "n", "gamma")))

    def test_interior_regimes_are_one_sided(self, rng):
        # Inside the fertile region the induced-transfer channel never wins:
        # d n*/d delta = -(n* + a_w/F_rho)/delta with n* > 0. So fertility
        # always falls in the wife's aversion and rises in her consumption
        # taste wherever it is positive at all.
        for _ in range(500):
            p = draw_interior_params(rng)
            d = build_report(p).partial_n
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
            d = build_report(p).partial_n
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
        d = build_report(ANCHOR).partial_n
        assert d["a_w"] + d["a_m"] == pytest.approx(-1 / 6, abs=1e-9)
        richer = build_report(ModelParams(4, 1, 1, 1, 2, 1)).partial_n
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


def mp_cells(p: ModelParams, extra_digits: int = 0) -> dict[str, mp.mpf]:
    """Every analytic cell of the report from the textbook closed forms:
    the radicand ``X``, ``rho* = sqrt(X) - alpha*a_w/2`` and the chain rule
    through ``n* = gamma/delta - a_w/rho*``.

    These forms cancel, so they are evaluated with three times the spread
    of the parameters' decimal exponents in digits to spare, and
    ``cell_errors`` checks that 100 more digits agree.
    """
    spread = sum(abs(math.log10(getattr(p, k))) for k in PARTIAL_KEYS)
    with mp.workdps(60 + 3 * int(spread) + extra_digits):
        alpha, delta, gamma, a_w, a_m = (mp.mpf(getattr(p, k)) for k in PARTIAL_KEYS)
        s = a_w * (a_w + a_m)
        k = alpha * delta / gamma
        x = (alpha * a_w / 2) ** 2 + k * s
        sx = mp.sqrt(x)
        rho = sx - alpha * a_w / 2
        d_rho = {
            "alpha": -a_w / 2 + (alpha * a_w * a_w / 2 + delta * s / gamma) / (2 * sx),
            "delta": alpha * s / (2 * gamma * sx),
            "gamma": -alpha * delta * s / (2 * gamma * gamma * sx),
            "a_w": -alpha / 2 + (2 * a_w * (alpha * alpha / 4 + k) + k * a_m) / (2 * sx),
            "a_m": k * a_w / (2 * sx),
        }
        lever = a_w / (rho * rho)
        d_n = {
            "alpha": lever * d_rho["alpha"],
            "delta": -gamma / (delta * delta) + lever * d_rho["delta"],
            "gamma": 1 / delta + lever * d_rho["gamma"],
            "a_w": -1 / rho + lever * d_rho["a_w"],
            "a_m": lever * d_rho["a_m"],
        }
        cells = {"radicand": x, "ratio": -(a_m / (rho * rho)) * (rho - a_w * d_rho["a_w"]),
                 "delta_transfer": lever * d_rho["delta"],
                 "delta_preference": gamma / (delta * delta),
                 "gamma_transfer": -lever * d_rho["gamma"], "gamma_preference": 1 / delta}
        cells.update({"rho_" + key: v for key, v in d_rho.items()})
        cells.update({"n_" + key: v for key, v in d_n.items()})
        return cells


def report_cells(report) -> dict[str, float]:
    cells = {"radicand": report.radicand, "ratio": report.ratio_partial,
             "delta_transfer": report.delta_regime.transfer_term,
             "delta_preference": report.delta_regime.preference_term,
             "gamma_transfer": report.gamma_regime.transfer_term,
             "gamma_preference": report.gamma_regime.preference_term}
    cells.update({"rho_" + key: v for key, v in report.partial_rho.items()})
    cells.update({"n_" + key: v for key, v in report.partial_n.items()})
    return cells


def cell_errors(p: ModelParams) -> dict[str, float]:
    """Relative error of each analytic cell of ``build_report(p)``."""
    got = report_cells(build_report(p))
    want, check = mp_cells(p), mp_cells(p, extra_digits=100)
    errors = {}
    for key, value in got.items():
        # The certifier itself must have converged.
        assert abs(want[key] - check[key]) <= abs(check[key]) * mp.mpf(10) ** -30, key
        errors[key] = float(abs((mp.mpf(value) - check[key]) / check[key]))
    return errors


class TestMpmathCertifier:
    def test_ordinary_inputs_to_the_last_digits(self, rng):
        for _ in range(300):
            p = draw_interior_params(rng)
            worst = max(cell_errors(p).items(), key=lambda kv: kv[1])
            assert worst[1] < 1e-14, (p, worst)

    def test_whole_range_answers_are_right_or_refused(self):
        # d n*/d delta and d n*/d gamma carry the error of n* = gamma/delta -
        # a_w/rho*, which cancels where n* is far below gamma/delta.
        rng = np.random.default_rng([SEED, 150])
        span = 150 * math.log(10.0)
        points = [ModelParams(*map(float, np.exp(rng.uniform(-span, span, 6))))
                  for _ in range(3000)]
        answered = 0
        for p in [NAN_PARTIAL] + points:
            try:
                report = build_report(p)
            except ModelError:
                continue
            answered += 1
            for key, value in report_cells(report).items():
                assert sys.float_info.min <= abs(value) < math.inf, (p, key, value)
            for key, err in cell_errors(p).items():
                if key not in ("n_delta", "n_gamma"):
                    assert err < 1e-12, (p, key, err)
        assert answered > 500
