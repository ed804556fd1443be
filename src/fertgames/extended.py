"""Leader condition shared by the three leader-follower solves.

In every game the husband commits to a per-child transfer ``rho`` and the
wife answers with fertility ``n(r) = G - a_w/r``, ``G = gamma/delta``, where
``r = rho + s`` is what she receives per child: the transfer plus a subsidy
``s`` paid from outside the household. The husband pays ``paid + rho`` per
child: ``paid = beta`` in the extended game, where he carries an explicit
rearing cost, and ``paid = 0`` in the transfer game, with or without a
subsidy. With ``k = paid - s`` his budget is ``c_m = a_m - (r + k)*n``, and
substituting the wife's answer turns his first-order condition into one
cubic in ``r``:

    (G/a_w)*r**3 + alpha*G*r**2
        + [k + alpha*k*G - alpha*(a_m + a_w)]*r - alpha*k*a_w = 0.

Only its largest real root can be his optimum:

* ``k = 0`` (the transfer game without a subsidy): the cubic is ``r*Q(r)``
  with the quadratic ``Q(r) = (G/a_w)*r**2 + alpha*G*r - alpha*(a_m + a_w)``,
  whose positive root :func:`equilibrium_transfer` gives in closed form.
* ``k > 0`` (the extended game): the coefficient pattern (+, +, any, -) has
  one sign variation, so by Descartes' rule the positive root is unique.
* ``k < 0`` (a subsidy): the pattern (+, +, -, +) gives zero or two positive
  roots. The cubic crosses downward at the smaller one, a local minimum of
  his utility.

Without a subsidy his utility rises from the no-birth corner to the root, so
the root is his optimum wherever it gives ``n > 0``. With one, the root is
compared by utility with the boundary ``rho = 0`` and the corner.

The cubic is solved in the power-of-two income units of
:func:`income_units`, which are exact in binary, and the allocation is
computed in absolute units. At a root where he spends at least
half his income, ``a_m - spent`` would cancel, and the first-order identity
``c_m = (G*(r/a_w)*r + k)/alpha`` replaces it. A paid transfer and the
husband's consumption must be normal floats, or the solve raises
NumericalFailure rather than print lost digits.

With one admissible root in every model, the cultural regimes "low" and
"high" (smallest or largest admissible root) coincide.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat

from .core import ModelParams, participation, utility_linear_pair
from .errors import NumericalFailure

REGIMES = ("low", "high")

# The quadratic left after dividing out one root has a discriminant with a
# rounding error of a few ulps of its terms; within this band it counts as
# zero, a double root.
_DOUBLE_ROOT_RTOL = 16.0 * 2.0**-52
_NEWTON_STEPS = 8


@dataclass(frozen=True)
class ExtendedEquilibrium:
    """Root classification and induced allocation of the extended game.

    ``real_roots`` and ``positive_roots`` describe the cubic in the
    transfer. ``selected_rho`` is the root that beats the no-birth corner,
    None when none does.
    """

    real_roots: tuple[float, ...]
    positive_roots: tuple[float, ...]
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


def transfer_root(alpha, delta, gamma, a_w, a_m, sqrt):
    """Positive root of the husband's first-order quadratic, unscaled, and
    whether it keeps its digits.

    Evaluated in the cancellation-free form ``q / (alpha*a_w/2 + sqrt(X))``
    with ``q = (alpha*delta/gamma)*a_w*(a_w + a_m)`` and
    ``X = (alpha*a_w/2)**2 + q``, which is exact even when the two terms of
    the textbook expression ``-alpha*a_w/2 + sqrt(X)`` nearly cancel. Runs
    on floats with ``math.sqrt`` and on numpy arrays with ``numpy.sqrt``.

    The flag (a bool or boolean array) holds where ``a_w``, ``alpha*delta``,
    ``q`` and the root are normal floats, so the root keeps its digits; a
    subnormal ``alpha*a_w/2`` or its square is then negligible.
    """
    ad = alpha * delta
    half = 0.5 * alpha * a_w
    q = ad / gamma * a_w * (a_w + a_m)
    root = q / (half + sqrt(half * half + q))
    tiny = sys.float_info.min
    return root, (a_w >= tiny) & (ad >= tiny) & (q >= 2.0 * tiny) & (root >= tiny)


def income_units(p: ModelParams) -> tuple[int, float, float]:
    """``(e, a_w*2**-e, a_m*2**-e)``: the power of two ``2**e`` that brings the
    larger income into [0.5, 1), and both incomes in that unit (exact unless
    the smaller one falls below the normal range)."""
    _, e = math.frexp(p.a_w if p.a_w > p.a_m else p.a_m)
    return e, math.ldexp(p.a_w, -e), math.ldexp(p.a_m, -e)


def equilibrium_transfer(p: ModelParams) -> float:
    """Positive root of the husband's first-order quadratic without a
    subsidy, ``rho**2 + alpha*a_w*rho - (alpha*delta/gamma)*a_w*(a_w + a_m)``.

    The root is homogeneous of degree one in incomes, so it is computed in
    the units of :func:`income_units` and scaled back: exact in binary, and
    ``q`` no longer overflows near 1e300 or underflows near 1e-300. Raises
    NumericalFailure where the transfer, or a term it is computed from, is
    not a normal float, so that its digits would be lost.
    """
    e, a_w, a_m = income_units(p)
    try:
        root, accurate = transfer_root(p.alpha, p.delta, p.gamma, a_w, a_m, math.sqrt)
        rho = math.ldexp(root, e)
    except (ZeroDivisionError, OverflowError):
        accurate = False
    if not (accurate and rho >= sys.float_info.min):
        raise NumericalFailure(
            f"the transfer at incomes {p.a_w!r} and {p.a_m!r} leaves the normal float range")
    return rho


def leader_optimum(
    p: ModelParams, paid: float, subsidy: float
) -> tuple[tuple[float, ...], float | None, float, float, float]:
    """Husband's best transfer when he pays ``paid + rho`` and she receives
    ``r = rho + subsidy`` per child.

    Returns the real roots of the leader cubic in ``r`` (at ``k = 0`` only
    the positive root of its quadratic factor), the transfer ``rho`` (None
    at the no-birth corner), fertility and both consumptions. Raises
    NumericalFailure where a root, a paid transfer, the husband's
    consumption or the wife's leaves the floating-point range.
    """
    g = p.gamma / p.delta
    k = paid - subsidy
    if k == 0.0:
        roots = (equilibrium_transfer(p),)
    else:
        p.income_ratio  # raises where the ratio leaves the float range
        e, a_w, a_m = income_units(p)
        try:
            coeffs = _leader_cubic(g, p.alpha, a_w, a_m, math.ldexp(k, -e))
            if coeffs[0] == 0.0 or coeffs[3] == 0.0:
                raise NumericalFailure(f"leader cubic {coeffs!r} underflows")
            roots = tuple(math.ldexp(x, e) for x in real_roots(coeffs))
        except OverflowError:
            raise NumericalFailure(f"the leader cubic at {p!r} leaves the float range") from None
    r = roots[-1]
    best = None  # (u, r, n, c_m) of the winning candidate; None at the corner
    if r > subsidy:
        if not _normal(r - subsidy):
            raise NumericalFailure(f"the transfer {r - subsidy!r} is not a normal float")
        n = g - p.a_w / r
        spent = (r + k) * n
        c_m = p.a_m - spent
        if not spent < 0.5 * p.a_m:
            c_m = (g * (r / p.a_w) * r + k) / p.alpha
        if subsidy == 0.0:
            if n > 0.0:
                best = 0.0, r, n, c_m
        elif n > 0.0 and c_m > 0.0:
            # His utility measured from the corner, ln(c_m/a_m) + alpha*n.
            u = (math.log1p(-spent / p.a_m) if spent < 0.5 * p.a_m
                 else math.log(c_m) - math.log(p.a_m)) + p.alpha * n
            if u > 0.0:
                best = u, r, n, c_m
    if subsidy > 0.0:
        # At the boundary rho = 0 he pays nothing and keeps a_m.
        n = g - p.a_w / subsidy
        if n > 0.0 and p.alpha * n > (0.0 if best is None else best[0]):
            best = p.alpha * n, subsidy, n, p.a_m

    if best is None:
        return roots, None, 0.0, p.a_w, p.a_m
    _, r, n, c_m = best
    rho, c_w = r - subsidy, p.a_w + r * n
    if rho > 0.0 and not _normal(c_m):
        raise NumericalFailure(f"the husband's consumption {c_m!r} is not a normal float")
    if not math.isfinite(c_w):
        raise NumericalFailure(f"wife's consumption {c_w!r} is not finite")
    return roots, rho, n, c_w, c_m


def _normal(x):
    """Whether ``x``, a float or an array, is a positive normal float."""
    return (x >= sys.float_info.min) & (x < math.inf)


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
    Households outside ``ok`` are those the scalar route refuses, or whose
    utilities (:func:`~fertgames.core.utility_linear_pair`) are not finite;
    their values here mean nothing.
    """
    import numpy as np

    alpha, delta, gamma, a_w, a_m, paid = np.broadcast_arrays(
        alpha, delta, gamma, a_w, a_m, paid)
    with np.errstate(all="ignore"):
        g = gamma / delta
        k = paid - subsidy
        e = np.frexp(np.maximum(a_w, a_m))[1]
        aw_e, am_e = np.ldexp(a_w, -e), np.ldexp(a_m, -e)
        zero = k == 0.0
        if zero.any():
            root, ok = transfer_root(alpha, delta, gamma, aw_e, am_e, np.sqrt)
            r = np.ldexp(root, e)
            ok = ok & _normal(r)
        if not zero.all():
            c3, c2, c1, c0 = _leader_cubic(g, alpha, aw_e, am_e, np.ldexp(k, -e))
            roots, cubic_ok = _real_roots_arrays(c3, c2, c1, c0)
            roots = np.ldexp(roots, e)
            ratio = a_w / a_m
            cubic_ok &= ((ratio > 0.0) & (ratio < math.inf) & (c3 != 0.0) & (c0 != 0.0)
                         & ~np.isinf(roots).any(axis=0))
            largest = np.fmax.reduce(roots, axis=0)  # the last root that is not NaN
            r = np.where(zero, r, largest) if zero.any() else largest
            ok = np.where(zero, ok, cubic_ok) if zero.any() else cubic_ok

        paying = r > subsidy
        ok &= ~paying | _normal(r - subsidy)
        n = g - a_w / r
        spent = (r + k) * n
        head = spent < 0.5 * a_m
        c_m = np.where(head, a_m - spent, (g * (r / a_w) * r + k) / alpha)
        found = paying & (n > 0.0)
        if subsidy > 0.0:
            found &= c_m > 0.0
            u = np.zeros_like(g)
            lanes = found & head
            u[lanes] = _libm(math.log1p, -spent[lanes] / a_m[lanes])
            lanes = found & ~head
            u[lanes] = _libm(math.log, c_m[lanes]) - _libm(math.log, a_m[lanes])
            found &= u + alpha * n > 0.0
            n_edge = g - a_w / subsidy
            edge = (n_edge > 0.0) & (alpha * n_edge > np.where(found, u + alpha * n, 0.0))
            found |= edge
            r = np.where(edge, subsidy, r)
            n = np.where(edge, n_edge, n)
            c_m = np.where(edge, a_m, c_m)
        n = np.where(found, n, 0.0)
        rho = np.where(found, r - subsidy, np.nan)
        c_m = np.where(found, c_m, a_m)
        c_w = np.where(found, a_w + r * n, a_w)
        ok &= ~(rho > 0.0) | _normal(c_m)
        ok &= (np.isfinite(c_w) & np.isfinite(gamma * np.log(c_w) - delta * n)
               & np.isfinite(np.log(c_m) + alpha * n))
    return n, rho, c_w, c_m, ok


def solve_extended(p: ModelParams, regime: str) -> ExtendedEquilibrium:
    """Equilibrium of the extended game under a cultural regime.

    Solved by :func:`leader_optimum` with ``paid = beta`` and no subsidy:
    the unique positive root of the cubic where it gives positive fertility,
    the no-birth corner otherwise. So ``regime='low'`` (smallest admissible
    root) and ``'high'`` (largest) select the same one.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be 'low' or 'high', got {regime!r}")

    roots, rho, n, c_w, c_m = leader_optimum(p, p.beta, 0.0)

    u_w, u_m = utility_linear_pair(p, c_w, c_m, n)
    wife, husband = participation(p, u_w, u_m)
    return ExtendedEquilibrium(
        real_roots=roots,
        positive_roots=tuple(r for r in roots if r > 0.0),
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
    )
