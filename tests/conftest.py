"""Shared test helpers: log-uniform parameter sampling with a fixed seed, and
the extended game's first-order cubic as a coefficient tuple
``(c3, c2, c1, c0)``."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fertgames import ModelParams, solve_game
from fertgames.extended import _leader_cubic

SEED = 20250811

LOG_LO, LOG_HI = math.log(0.1), math.log(10.0)

# With a subsidy of 0.5, the roots of this household's leader cubic spread
# beyond the float range: scaled so that its largest root is below 2, its
# constant term is subnormal. (Scaled the older way, through the leading
# coefficient, that coefficient overflowed.)
LEAD_OVERFLOW = ModelParams(
    alpha=6.724201680895226e+126, delta=5.926674418235719e-81,
    gamma=1.239500774538727e+101, beta=2.8193321611457835e+129,
    a_w=6.2685143770522004e-68, a_m=6.3774030963961445e+41)
LEAD_OVERFLOW_SUBSIDY = 0.5

# An interior game whose husband utility alpha*n* overflows, so solve_game
# refuses it with NumericalFailure.
UTILITY_OVERFLOW = ModelParams(
    alpha=5.723257701920331e+128, delta=9.272880044234558e-86,
    gamma=5.5085967287221205e+122, beta=1.0,
    a_w=8.844165463737839e+67, a_m=6.576883131470211e+55)


def loguniform(rng: np.random.Generator, lo: float = 0.1, hi: float = 10.0) -> float:
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def draw_params(rng: np.random.Generator, **fixed) -> ModelParams:
    """One log-uniform parameter draw on [0.1, 10] per field."""
    values = {
        name: loguniform(rng)
        for name in ("alpha", "delta", "gamma", "beta", "a_w", "a_m")
    }
    values.update(fixed)
    return ModelParams(**values)


def draw_interior_params(
    rng: np.random.Generator, min_n: float = 1e-3, **fixed
) -> ModelParams:
    """Draw until the transfer game has fertility comfortably above zero."""
    for _ in range(10_000):
        p = draw_params(rng, **fixed)
        if solve_game(p).n_star > min_n:
            return p
    raise AssertionError("could not draw an interior parameter point")


def draw_benchmark_params(rng: np.random.Generator) -> ModelParams:
    """Draw until the pooled-budget precondition alpha > delta holds."""
    for _ in range(10_000):
        p = draw_params(rng)
        if p.alpha > p.delta * (1.0 + 1e-6):
            return p
    raise AssertionError("could not draw alpha > delta")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def extended_cubic(p: ModelParams) -> tuple[float, float, float, float]:
    """The extended game's first-order cubic in the transfer."""
    return _leader_cubic(p.gamma / p.delta, p.alpha, p.a_w, p.a_m, p.beta)


def cubic_value(coeffs, x: float) -> float:
    c3, c2, c1, c0 = coeffs
    return ((c3 * x + c2) * x + c1) * x + c0


def residual_scale(coeffs, x: float) -> float:
    """Magnitude of the largest monomial at x, for relative residuals."""
    c3, c2, c1, c0 = coeffs
    ax = abs(x)
    return max(1.0, abs(c3) * ax * ax * ax, abs(c2) * ax * ax, abs(c1) * ax, abs(c0))


def positive_roots(coeffs) -> tuple[float, ...]:
    """Strictly positive real roots, ascending, by ``numpy.roots`` (the
    eigenvalues of the companion matrix), independent of the production
    solver."""
    return tuple(sorted(z.real for z in np.roots(coeffs) if z.imag == 0.0 and z.real > 0.0))
