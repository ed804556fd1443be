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
from itertools import repeat

from .core import ModelParams, participation, utility_linear_pair
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
class ExtendedEquilibrium:
    """Root classification and induced allocation of the extended game.

    ``real_roots`` and ``positive_roots`` describe the cubic in the
    transfer. ``admissible_roots`` holds the selected root when it beats the
    no-birth corner, and is empty otherwise.
    """

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


def _leader_cubic(g, alpha, a_w, a_m, k):
    """Coefficients ``(c3, c2, c1, c0)`` of the leader cubic, on floats or
    arrays. For valid parameters ``c3 > 0`` and ``c2 > 0``; ``c0`` has the
    sign of ``-k``, negative in the extended game."""
    return (g / a_w, alpha * g, k + alpha * k * g - alpha * (a_m + a_w),
            -alpha * k * a_w)


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


def real_roots(coeffs: tuple[float, float, float, float]) -> tuple[float, ...]:
    """All real roots of ``c3*x**3 + c2*x**2 + c1*x + c0``, ascending, in
    closed form, from ``coeffs = (c3, c2, c1, c0)``.

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
    c3, c2, c1, c0 = coeffs
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
    # Exact power-of-two scaling, in an order that keeps intermediates finite
    # once the scaled leading coefficient is.
    exp = math.frexp(bound)[1]
    try:
        lead = math.ldexp(c3, exp)
    except OverflowError:
        raise NumericalFailure(
            f"roots of the cubic {coeffs!r} span more than the floating-point range"
        ) from None
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


def leader_optimum(
    p: ModelParams, paid: float, subsidy: float
) -> tuple[tuple[float, ...], float | None, float, float, float]:
    """Husband's best transfer when he pays ``paid + rho`` and she receives
    ``rho + subsidy`` per child.

    Returns the real roots of the leader cubic in ``r = rho + subsidy``, the
    transfer ``rho`` (None at the no-birth corner), fertility and both
    consumptions.
    """
    g = p.gamma / p.delta
    ratio = p.income_ratio
    kappa = (paid - subsidy) / p.a_m
    sigma = subsidy / p.a_m
    coeffs = _leader_cubic(g, p.alpha, ratio, 1.0, kappa)
    if coeffs[0] == 0.0 or coeffs[3] == 0.0:
        raise NumericalFailure(f"leader cubic {coeffs!r} underflows")
    roots = real_roots(coeffs)

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


def _libm(fn, x, *args):
    """``fn`` applied element by element to the array ``x``, so that the
    result has libm's bits; numpy's own transcendental kernels may differ
    from libm in the last ulp."""
    import numpy as np

    return np.fromiter(map(fn, x.tolist(), *args), float, len(x))


def _polish_arrays(b, c, d, z, active):
    """:func:`_polish` on the lanes ``active``; a lane stops for good where
    the scalar loop breaks."""
    import numpy as np

    fz = ((z + b) * z + c) * z + d
    for _ in range(_NEWTON_STEPS):
        dfz = (3.0 * z + 2.0 * b) * z + c
        active = active & (fz != 0.0) & (dfz != 0.0)
        if not active.any():
            break
        nxt = z - fz / dfz
        fn = ((nxt + b) * nxt + c) * nxt + d
        active &= np.abs(fn) < np.abs(fz)
        z = np.where(active, nxt, z)
        fz = np.where(active, fn, fz)
    return z


def _real_roots_arrays(c3, c2, c1, c0):
    """:func:`real_roots` over arrays of cubics, to the same bits.

    Returns the roots as three rows, each column ascending with NaN for a
    missing root, and the mask of cubics solved here. A cubic is left to the
    scalar route where that raises, where a root is 0 (``sorted`` and
    ``numpy.sort`` may order signed zeros differently) and where a root is
    not finite.
    """
    import numpy as np

    third = 1.0 / 3.0
    bound = np.abs(c2 / c3)
    for term in (np.sqrt(np.abs(c1)) / np.sqrt(np.abs(c3)),
                 _libm(pow, np.abs(c0), repeat(third))
                 / _libm(pow, np.abs(c3), repeat(third))):
        bound = np.where(term > bound, term, bound)  # max() keeps the first
    ok = (np.isfinite(c3) & np.isfinite(c2) & np.isfinite(c1) & np.isfinite(c0)
          & np.isfinite(bound) & (bound != 0.0))
    exp = np.frexp(bound)[1]
    lead = np.ldexp(c3, exp)
    b = c2 / lead
    c = np.ldexp(c1, -exp) / lead
    d = np.ldexp(np.ldexp(c0, -exp) / lead, -exp)
    ok &= np.isfinite(lead) & (np.abs(d) >= sys.float_info.min)

    shift = b / 3.0
    p3 = (c - b * shift) / 3.0
    h = 0.5 * ((2.0 * shift * shift - c) * shift + d)
    disc = h * h + p3 * p3 * p3
    y = np.zeros_like(b)
    one = ok & (disc > 0.0)
    h1 = h[one]
    a = -np.copysign(_libm(pow, np.abs(h1) + np.sqrt(disc[one]), repeat(third)), h1)
    y[one] = a - p3[one] / a
    three = ok & ~(disc > 0.0) & (p3 < 0.0)
    m = np.sqrt(-p3[three])
    cosine = -h[three] / (m * m * m)
    cosine = np.where(cosine < 1.0, cosine, 1.0)  # min(1.0, cosine)
    cosine = np.where(cosine > -1.0, cosine, -1.0)  # max(-1.0, cosine)
    theta = _libm(math.acos, cosine) / 3.0
    lo, mid, hi = np.sort([2.0 * m * _libm(math.cos, theta - 2.0 * math.pi * j / 3.0)
                           for j in range(3)], axis=0)
    y[three] = np.where(mid - lo > hi - mid, lo, hi)
    z1 = _polish_arrays(b, c, d, y - shift, ok)

    f = np.where(z1 != 0.0, -d / z1, c)
    e = b + z1
    az, ab, ac, af = np.abs(z1), np.abs(b), np.abs(c), np.abs(f)
    wide = az * np.where(az > ab, az, ab) > np.where(af > ac, af, ac)
    e = np.where(wide, (f - c) / z1, e)
    disc = e * e - 4.0 * f
    tol = _DOUBLE_ROOT_RTOL * (e * e + 4.0 * np.abs(f))
    two = disc > tol
    q = -0.5 * (e + np.copysign(np.sqrt(disc), e))
    z2 = np.where(two, _polish_arrays(b, c, d, q, ok & two),
                  np.where(disc >= -tol, -0.5 * e, np.nan))
    z3 = np.where(two, _polish_arrays(b, c, d, f / q, ok & two), np.nan)
    roots = np.sort(np.ldexp([z1, z2, z3], exp), axis=0)
    ok &= ~(roots == 0.0).any(axis=0) & ~np.isinf(roots).any(axis=0)
    return roots, ok


def leader_optima(alpha, delta, gamma, a_w, a_m, paid, subsidy: float):
    """:func:`leader_optimum` over arrays of households, to the same bits.

    Every basic operation runs in the scalar route's order, and ``**``,
    ``acos``, ``cos``, ``log`` and ``log1p`` are ``math``'s. The arguments
    are arrays or floats; ``subsidy`` is one float. Returns
    ``(n, rho, c_w, c_m, ok)`` with ``rho`` NaN at the no-birth corner.
    Households outside ``ok`` must be solved by :func:`leader_optimum`,
    which raises for those it cannot answer; their values here mean nothing.
    """
    import numpy as np

    alpha, delta, gamma, a_w, a_m, paid = np.broadcast_arrays(
        alpha, delta, gamma, a_w, a_m, paid)
    with np.errstate(all="ignore"):
        g = gamma / delta
        ratio = a_w / a_m
        kappa = (paid - subsidy) / a_m
        sigma = subsidy / a_m
        c3, c2, c1, c0 = _leader_cubic(g, alpha, ratio, 1.0, kappa)
        roots, ok = _real_roots_arrays(c3, c2, c1, c0)
        ok &= (ratio > 0.0) & (ratio < math.inf) & (c3 != 0.0) & (c0 != 0.0)

        # The candidates of the scalar loop, in its order: the roots
        # ascending (a missing root is NaN and never exceeds sigma), then
        # the boundary; the best changes only on a strictly higher utility.
        best_u, best_n, best_cm = np.zeros_like(g), np.zeros_like(g), np.zeros_like(g)
        best_rho = np.full_like(g, np.nan)
        for x, rho, valid in [(x, x - sigma, x > sigma) for x in roots] + [
                (sigma, 0.0, sigma > 0.0)]:
            n = g - ratio / x
            valid = valid & ok & (n > 0.0)
            spent = (x + kappa) * n
            head = spent < 0.5
            c_m = np.where(head | (rho == 0.0), 1.0 - spent,
                           ((g / ratio) * x * x + kappa) / alpha)
            valid &= c_m > 0.0
            log_c = np.zeros_like(g)
            lanes = valid & head
            log_c[lanes] = _libm(math.log1p, -spent[lanes])
            lanes = valid & ~head
            log_c[lanes] = _libm(math.log, c_m[lanes])
            u = log_c + alpha * n
            better = valid & (u > best_u)
            best_u = np.where(better, u, best_u)
            best_rho = np.where(better, rho, best_rho)
            best_n = np.where(better, n, best_n)
            best_cm = np.where(better, c_m, best_cm)

        found = best_n > 0.0
        rho = best_rho * a_m
        c_w = np.where(found, a_w + (rho + subsidy) * best_n, a_w)
        c_m = np.where(found, a_m * best_cm, a_m)
    ok &= np.isfinite(c_w) & (c_w > 0.0) & np.isfinite(c_m) & (c_m > 0.0)
    return best_n, rho, c_w, c_m, ok


def solve_extended(p: ModelParams, regime: str) -> ExtendedEquilibrium:
    """Equilibrium of the extended game under a cultural regime.

    Solved by :func:`leader_optimum` with ``paid = beta`` and no subsidy. A
    root the husband prefers to the no-birth corner is a local maximum of his
    utility, where the cubic crosses upward (``f'(rho) > 0``). The positive
    root is unique, so ``regime='low'`` (smallest admissible root) and
    ``'high'`` (largest) select the same one. With no admissible root the
    no-birth corner is returned with a ``no_interior_optimum`` diagnostic.
    """
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
