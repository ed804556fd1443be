"""Leader cubic shared by the extended game and the subsidized game.

In both games the husband commits to a per-child transfer ``rho`` and the
wife answers with fertility ``n(r) = G - a_w/r``, ``G = gamma/delta``, where
``r = rho + s`` is what she receives per child: the transfer plus a subsidy
``s`` paid from outside the household. The husband pays ``paid + rho`` per
child: ``paid = beta`` in the extended game, where he carries an explicit
rearing cost, and ``paid = 0`` in the subsidized game. With ``k = paid - s``
his budget is ``c_m = a_m - (r + k)*n``, and substituting the wife's answer
turns his first-order condition into one cubic in ``r``:

    (G/a_w)*r**3 + alpha*G*r**2
        + [k + alpha*k*G - alpha*(a_m + a_w)]*r - alpha*k*a_w = 0.

In the extended game (``k = beta > 0``) the coefficient pattern is
(+, +, any, -), which has exactly one sign variation, so by Descartes' rule
the cubic has exactly one positive root regardless of parameter values. In
the subsidized game (``k = -s < 0``) the pattern is (+, +, -, +), with zero
or two positive roots.

The equilibrium is the candidate with the highest husband utility among the
roots with ``rho > 0`` that give ``n > 0`` and ``c_m > 0``, the boundary
``rho = 0`` when ``s > 0``, and the no-birth corner. Fertility does not
depend on the scale of incomes, so the cubic is solved in units of ``a_m``,
from ``R = a_w/a_m``, ``k/a_m`` and ``s/a_m``; no intermediate value
overflows, and the transfer and consumptions are scaled back at the end.

Cultural regimes pick the smallest ("low") or largest ("high") admissible
root of the extended game. With its single positive root both coincide, and
a ``regime_degenerate`` diagnostic is attached. Empirical root counts are
reported so the one-root structure is visible in output rather than assumed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import ModelParams, participation, utility_linear_pair, validate_params
from .errors import NumericalFailure

REGIMES = ("low", "high")

# Diagnostics attached to ExtendedEquilibrium.
REGIME_DEGENERATE = "regime_degenerate"
NO_INTERIOR_OPTIMUM = "no_interior_optimum"
SINGLE_POSITIVE_ROOT = "single_positive_root"

# The quadratic left after dividing out one root has a discriminant with a
# rounding error of a few ulps of its terms; within this band it counts as
# zero, a double root.
_DOUBLE_ROOT_RTOL = 16.0 * 2.0**-52
_NEWTON_STEPS = 8


@dataclass(frozen=True)
class CubicFOC:
    """Cubic stationarity condition of the husband's transfer choice.

    Stores the coefficients of ``c3*x**3 + c2*x**2 + c1*x + c0`` along with
    the wife's preference ratio ``gamma_ratio = gamma/delta`` that produced
    them. For valid parameters ``c3 > 0`` and ``c2 > 0``; ``c0`` has the
    sign of ``-k``, negative in the extended game.
    """

    c3: float
    c2: float
    c1: float
    c0: float
    gamma_ratio: float

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.c3, self.c2, self.c1, self.c0)

    def value(self, x: float) -> float:
        return ((self.c3 * x + self.c2) * x + self.c1) * x + self.c0

    def residual_scale(self, x: float) -> float:
        """Magnitude of the largest monomial at x, for relative residuals."""
        ax = abs(x)
        return max(
            1.0,
            abs(self.c3) * ax * ax * ax,
            abs(self.c2) * ax * ax,
            abs(self.c1) * ax,
            abs(self.c0),
        )


@dataclass(frozen=True)
class ExtendedEquilibrium:
    """Root classification and induced allocation of the extended game.

    ``foc``, ``real_roots`` and ``positive_roots`` describe the cubic in the
    transfer. ``admissible_roots`` holds the selected root when it beats the
    no-birth corner, and is empty otherwise.
    """

    foc: CubicFOC
    real_roots: tuple[float, ...]
    positive_roots: tuple[float, ...]
    admissible_roots: tuple[float, ...]
    selected_rho: float | None
    regime: str
    n_star: float
    c_w: float
    c_m: float
    u_w: float
    u_m: float
    wife_participates: bool
    husband_participates: bool
    interior: bool
    diagnostics: tuple[str, ...]


def _leader_cubic(g: float, alpha: float, a_w: float, a_m: float,
                  k: float) -> CubicFOC:
    return CubicFOC(
        c3=g / a_w,
        c2=alpha * g,
        c1=k + alpha * k * g - alpha * (a_m + a_w),
        c0=-alpha * k * a_w,
        gamma_ratio=g,
    )


def cubic_coefficients(p: ModelParams) -> CubicFOC:
    """Assemble the extended game's first-order cubic from the parameters."""
    validate_params(p)
    return _leader_cubic(p.gamma / p.delta, p.alpha, p.a_w, p.a_m, p.beta)


def _polish(b: float, c: float, d: float, z: float) -> float:
    """Newton steps on the monic cubic while they shrink the residual."""
    fz = ((z + b) * z + c) * z + d
    for _ in range(_NEWTON_STEPS):
        dfz = (3.0 * z + 2.0 * b) * z + c
        if fz == 0.0 or dfz == 0.0:
            break
        nxt = z - fz / dfz
        fn = ((nxt + b) * nxt + c) * nxt + d
        if not abs(fn) < abs(fz):
            break
        z, fz = nxt, fn
    return z


def real_roots(foc: CubicFOC) -> tuple[float, ...]:
    """All real roots of the cubic, ascending, in closed form.

    The cubic is made monic and scaled by a power of two ``t`` above
    ``max(|c2/c3|, |c1/c3|**(1/2), |c0/c3|**(1/3))``, which bounds every
    root within a factor of two and brings every coefficient into [-1, 1].
    Its depressed form ``y**3 + p*y + q`` gives one real root by Cardano's
    formula, or three by the trigonometric formula, of which the one farthest
    from the other two is kept (Blinn, "How to Solve a Cubic Equation", IEEE
    CG&A 2006-07). Dividing that root out leaves a quadratic whose roots come
    from the cancellation-free formula, with a double root when its
    discriminant is within rounding of zero. The quadratic, not the cubic's
    discriminant, decides the root count, so roots far smaller than ``t``
    are resolved. Newton steps on the scaled cubic bring each root to
    machine residual.

    Raises NumericalFailure when a coefficient is not finite, or when the
    roots lie or spread beyond the floating-point range.
    """
    c3, c2, c1, c0 = coeffs = foc.coefficients
    if not all(map(math.isfinite, coeffs)):
        raise NumericalFailure(f"cubic coefficients {coeffs!r} are not finite")
    if c3 == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    bound = max(
        abs(c2 / c3),
        math.sqrt(abs(c1)) / math.sqrt(abs(c3)),
        abs(c0) ** (1.0 / 3.0) / abs(c3) ** (1.0 / 3.0),
    )
    if bound == 0.0:
        return (0.0,)
    if not math.isfinite(bound):
        raise NumericalFailure(
            f"roots of the cubic {coeffs!r} exceed the floating-point range"
        )
    # Exact power-of-two scaling, in an order that keeps intermediates finite.
    exp = math.frexp(bound)[1]
    lead = math.ldexp(c3, exp)
    b = c2 / lead
    c = math.ldexp(c1, -exp) / lead
    d = math.ldexp(math.ldexp(c0, -exp) / lead, -exp)
    if c0 != 0.0 and abs(d) < sys.float_info.min:
        raise NumericalFailure(
            f"roots of the cubic {coeffs!r} span more than the floating-point range"
        )

    shift = b / 3.0
    p3 = (c - b * shift) / 3.0
    h = 0.5 * ((2.0 * shift * shift - c) * shift + d)
    disc = h * h + p3 * p3 * p3
    if disc > 0.0:
        a = -math.copysign((abs(h) + math.sqrt(disc)) ** (1.0 / 3.0), h)
        y = a - p3 / a
    elif p3 < 0.0:
        m = math.sqrt(-p3)
        theta = math.acos(max(-1.0, min(1.0, -h / (m * m * m)))) / 3.0
        lo, mid, hi = sorted(2.0 * m * math.cos(theta - 2.0 * math.pi * j / 3.0)
                             for j in range(3))
        y = lo if mid - lo > hi - mid else hi
    else:
        y = 0.0
    z1 = _polish(b, c, d, y - shift)

    # z**2 + e*z + f is the scaled cubic divided by (z - z1). Of the two
    # expressions for e, the one with the smaller rounding error is taken.
    f = -d / z1 if z1 != 0.0 else c
    e = b + z1
    if abs(z1) * max(abs(b), abs(z1)) > max(abs(c), abs(f)):
        e = (f - c) / z1
    disc = e * e - 4.0 * f
    tol = _DOUBLE_ROOT_RTOL * (e * e + 4.0 * abs(f))
    if disc > tol:
        q = -0.5 * (e + math.copysign(math.sqrt(disc), e))
        zs = [z1, _polish(b, c, d, q), _polish(b, c, d, f / q)]
    elif disc >= -tol:
        zs = [z1, -0.5 * e]
    else:
        zs = [z1]
    return tuple(sorted(math.ldexp(z, exp) for z in zs))


def positive_roots(foc: CubicFOC) -> tuple[float, ...]:
    """Strictly positive real roots, ascending."""
    return tuple(r for r in real_roots(foc) if r > 0.0)


def leader_optimum(
    p: ModelParams, paid: float, subsidy: float
) -> tuple[tuple[float, ...], float | None, float, float, float]:
    """Husband's best transfer when he pays ``paid + rho`` and she receives
    ``rho + subsidy`` per child.

    Returns the real roots of the leader cubic in ``r = rho + subsidy``, the
    transfer ``rho`` (None at the no-birth corner), fertility and both
    consumptions. Parameters must already be validated.
    """
    g = p.gamma / p.delta
    ratio = p.a_w / p.a_m
    if not 0.0 < ratio < math.inf:
        raise NumericalFailure(
            f"income ratio {p.a_w!r}/{p.a_m!r} leaves the floating-point range"
        )
    kappa = (paid - subsidy) / p.a_m
    sigma = subsidy / p.a_m
    foc = _leader_cubic(g, p.alpha, ratio, 1.0, kappa)
    if foc.c3 == 0.0 or foc.c0 == 0.0:
        raise NumericalFailure(f"leader cubic {foc.coefficients!r} underflows")
    roots = real_roots(foc)

    # Candidates as (r, rho) in units of a_m. His utility is measured from
    # the no-birth corner, where he keeps a_m: ln(c_m/a_m) + alpha*n.
    candidates = [(x, x - sigma) for x in roots if x > sigma]
    if sigma > 0.0:
        candidates.append((sigma, 0.0))
    best_u, best = 0.0, None
    for x, rho in candidates:
        n = g - ratio / x
        if not n > 0.0:
            continue
        spent = (x + kappa) * n
        if spent < 0.5 or rho == 0.0:
            c_m = 1.0 - spent
        else:
            # 1 - spent cancels as spent nears 1; at a root the first-order
            # condition gives c_m/a_m = (G*x**2/R + kappa)/alpha without it.
            c_m = ((g / ratio) * x * x + kappa) / p.alpha
        if not c_m > 0.0:
            continue
        u = (math.log1p(-spent) if spent < 0.5 else math.log(c_m)) + p.alpha * n
        if u > best_u:
            best_u, best = u, (rho, n, c_m)

    real = tuple(p.a_m * x for x in roots)
    if best is None:
        return real, None, 0.0, p.a_w, p.a_m
    rho, n, c_m = best
    rho *= p.a_m
    c_w = p.a_w + (rho + subsidy) * n
    if not math.isfinite(c_w):
        raise NumericalFailure(f"wife's consumption {c_w!r} is not finite")
    return real, rho, n, c_w, p.a_m * c_m


def solve_extended(p: ModelParams, regime: str) -> ExtendedEquilibrium:
    """Equilibrium of the extended game under a cultural regime.

    Solved by :func:`leader_optimum` with ``paid = beta`` and no subsidy. A
    root the husband prefers to the no-birth corner is a local maximum of his
    utility, where the cubic crosses upward (``f'(rho) > 0``). The positive
    root is unique, so ``regime='low'`` (smallest admissible root) and
    ``'high'`` (largest) select the same one. With no admissible root the
    no-birth corner is returned with a ``no_interior_optimum`` diagnostic.
    """
    validate_params(p)
    if regime not in REGIMES:
        raise ValueError(f"regime must be 'low' or 'high', got {regime!r}")

    roots, rho, n, c_w, c_m = leader_optimum(p, p.beta, 0.0)
    pos = tuple(r for r in roots if r > 0.0)
    admissible = () if rho is None else (rho,)
    diagnostics: list[str] = []
    if len(pos) == 1:
        diagnostics.append(SINGLE_POSITIVE_ROOT)
    diagnostics.append(REGIME_DEGENERATE if admissible else NO_INTERIOR_OPTIMUM)

    u_w, u_m = utility_linear_pair(p, c_w, c_m, n)
    wife, husband = participation(p, u_w, u_m)
    return ExtendedEquilibrium(
        foc=_leader_cubic(p.gamma / p.delta, p.alpha, p.a_w, p.a_m, p.beta),
        real_roots=roots,
        positive_roots=pos,
        admissible_roots=admissible,
        selected_rho=rho,
        regime=regime,
        n_star=n,
        c_w=c_w,
        c_m=c_m,
        u_w=u_w,
        u_m=u_m,
        wife_participates=wife,
        husband_participates=husband,
        interior=n > 0,
        diagnostics=tuple(diagnostics),
    )
