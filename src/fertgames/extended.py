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

Only its largest real root (:func:`real_roots`) can be his optimum:

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
computed in absolute units. At a root where he spends at least half his
income, ``a_m - spent`` would cancel, and the first-order identity
``c_m = (G*(r/a_w)*r + k)/alpha`` replaces it. A paid transfer and the
husband's consumption must be normal floats, or the solve raises
NumericalFailure rather than print lost digits.

The condition is written once, over an operation set ``x``: ``_FLOATS``
solves one household with floats, ``math`` and C builtins, ``_arrays()`` a
slice of households with numpy, to the same bits (the root takes correctly
rounded operations only, the logarithms are libm's, lane by lane). A step
that could divide by zero, leave a function's domain or overflow runs only
under ``if x.any(mask)``: on floats that is the branch a scalar solve takes;
on arrays the step runs on every lane and ``x.where(mask, new, old)`` keeps
it on the lanes of ``mask``; ``x.div`` gives NaN on floats (inf or NaN on
arrays) for a zero divisor, which drops a Newton step or a bound. Each
refusal clears a lane of one ``ok`` mask, which later steps respect; where
``ok`` is false the float entries raise NumericalFailure, and the array
entry reports the household as refused. Both routes refuse the same households.

With one admissible root in every model, the cultural regimes "low" and
"high" (smallest or largest admissible root) coincide.
"""

from __future__ import annotations

import functools
import math
import operator
import types

from .core import _TINY, ModelParams, Record, _normal, _record, participation, utility_linear_pair
from .errors import NumericalFailure

REGIMES = ("low", "high")

_NEWTON_STEPS = 8


class ExtendedEquilibrium(Record):
    """Root and induced allocation of the extended game.

    ``positive_roots`` holds the one positive root of the cubic in the
    transfer (Descartes' rule); it is a tuple for the ``root_count`` column.
    ``selected_rho`` is that root where it beats the no-birth corner, None
    where it does not.
    """

    positive_roots: tuple[float, ...]
    selected_rho: float | None
    n_star: float
    c_w: float
    c_m: float
    u_w: float
    u_m: float
    wife_participates: bool
    husband_participates: bool
    interior: bool


def _operations(**ops):
    # A module object: the interpreter loads a module's attributes as fast
    # as globals, faster than those of an instance or a class.
    space = types.ModuleType("operations")
    vars(space).update(ops)
    return space


# larger(a, b) is max(a, b): a unless b is strictly larger; smaller(a, b) is min(a, b): b
# unless a is strictly smaller (b where a is NaN). div(a, b) is a/b, NaN on floats (inf or
# NaN on arrays) for a zero b. largest(coeffs, e, ok) is (real_roots' root*2**e or NaN, ok).
_FLOATS = _operations(
    any=operator.truth, where=lambda mask, a, b: a if mask else b, not_=operator.not_,
    larger=lambda a, b: b if b > a else a, smaller=lambda a, b: a if a < b else b,
    div=lambda a, b: a / b if b else math.nan, sqrt=math.sqrt, ldexp=math.ldexp,
    frexp=math.frexp, log=math.log, log1p=math.log1p, isfinite=math.isfinite,
    largest=lambda coeffs, e, ok: (math.ldexp(max(real_roots(coeffs), default=math.nan), e), ok))


@functools.cache
def _arrays():
    """The operations on numpy arrays, made on first use so that a process
    which only solves single households never imports numpy. Most are numpy
    functions called directly: a slice of a few hundred lanes costs about the
    count of its numpy calls. ``log`` and ``log1p`` call libm lane by lane, for
    the husband's utility that the subsidized leader compares."""
    import numpy as np

    def libm(fn, domain):
        # fn lane by lane, so that the result has libm's bits; numpy's own
        # transcendental kernels may differ from libm in the last ulp. A lane
        # outside fn's domain gives NaN instead of raising.
        def apply(v):
            v = np.where(domain(v), v, np.nan)
            return np.fromiter(map(fn, v.tolist()), float, len(v))
        return apply

    def largest(coeffs, e, ok):
        root, ok = _largest_root(space, *coeffs, ok)
        root = np.ldexp(root, e)  # inf where the scalar ldexp raises
        return root, ok & ~np.isinf(root)

    # On a 1,000-lane mask np.count_nonzero costs a sixth of np.any, which
    # dispatches its reduction in Python. larger takes ints and positive
    # incomes, where np.maximum is max; np.fmin, unlike np.minimum, skips a NaN.
    space = _operations(
        any=np.count_nonzero, where=np.where, not_=np.logical_not, div=np.divide,
        larger=np.maximum, smaller=np.fmin, sqrt=np.sqrt, ldexp=np.ldexp, frexp=np.frexp,
        log=libm(math.log, lambda v: v > 0.0), log1p=libm(math.log1p, lambda v: v > -1.0),
        isfinite=np.isfinite, largest=largest)
    return space


def _leader_cubic(g, alpha, a_w, a_m, k):
    """Coefficients ``(c3, c2, c1, c0)`` of the leader cubic, on floats or
    arrays: for valid parameters ``c3 > 0``, ``c2 >= 0`` (0 where ``alpha*g``
    underflows) and ``c0`` of the sign of ``-k``."""
    return (g / a_w, alpha * g, k + alpha * k * g - alpha * (a_m + a_w),
            -alpha * k * a_w)


def _largest_root(x, c3, c2, c1, c0, ok):
    """``(root, ok)`` of :func:`real_roots`, NaN where no root is positive. A
    root beyond the float range raises OverflowError on floats, is inf on arrays."""
    # c/c3 = q*2**(e - e3), q = m/m3. 2**u bounds |c2/c3|, |c1/c3|**(1/2) and
    # |c0/c3|**(1/3); a zero coefficient bounds nothing. A finite coefficient's
    # mantissa is below 1 in magnitude, so the mantissas sum to a finite value.
    (m3, e3), (q2, e2), (q1, e1), (q0, e0) = map(x.frexp, (c3, c2, c1, c0))
    ok = ok & x.isfinite(m3 + q2 + q1 + q0)
    q2, q1, q0, e2, e1, e0 = q2 / m3, q1 / m3, q0 / m3, e2 - e3, e1 - e3, e0 - e3
    u = (e0 + (abs(q0) > 1.0) + 2) // 3
    u1, u2 = (e1 + (abs(q1) > 1.0) + 1) >> 1, e2 + (abs(q2) > 1.0)
    if x.any((c1 == 0.0) | (c2 == 0.0)):
        u1, u2 = x.where(c1 == 0.0, u, u1), x.where(c2 == 0.0, u, u2)
    u = x.larger(x.larger(u, u1), u2)
    b, c, d = x.ldexp(q2, e2 - u), x.ldexp(q1, e1 - 2 * u), x.ldexp(q0, e0 - 3 * u)
    ok = ok & (abs(d) >= _TINY)
    # zc, the larger critical point, in a form that cannot cancel (b >= 0).
    disc, zc = b * b - 3.0 * c, -math.inf
    if x.any(disc > 0.0):
        zc = x.where(disc > 0.0, -c / (b + x.sqrt(disc)), zc)
    fzc = ((zc + b) * zc + c) * zc + d
    dips = (zc > 0.0) & (fzc <= 0.0)
    rooted = (d < 0.0) | dips
    # The root is base + w with w**2*(w + a) <= fb = |f(base)|: on a dip base = zc
    # and f(zc + w) = f(zc) + a*w**2 + w**3, a = 3*zc + b; otherwise base = 0,
    # c >= 0 (0 is right of zc) and a = b. So w <= sqrt(fb/a) and w <= fb**(1/3)
    # < 2**ceil(e/3), fb = m*2**e: Newton starts right of the root, at the smaller
    # bound (div: NaN or inf where a = 0), and every root is below 2.
    base, fb = x.where(dips, zc, 0.0), abs(x.where(dips, fzc, d))
    w = x.smaller(x.sqrt(x.div(fb, 3.0 * base + b)), x.ldexp(1.0, (x.frexp(fb)[1] + 2) // 3))
    z = x.smaller(base + w, 2.0)
    # Newton steps while one shrinks the residual: every lane takes each step
    # and keeps it where it shrank, else repeats it. A zero slope (div gives
    # NaN or inf) or residual shrinks nothing, nor a lane outside ok & rooted (fz = 0).
    fz, b2 = x.where(ok & rooted, ((z + b) * z + c) * z + d, 0.0), 2.0 * b
    lanes = getattr(z, "size", 1)  # 1 on floats, where any is a bool
    for _ in range(_NEWTON_STEPS):
        nxt = z - x.div(fz, (3.0 * z + b2) * z + c)
        fn = ((nxt + b) * nxt + c) * nxt + d
        shrank = abs(fn) < abs(fz)
        kept = x.any(shrank)  # a count on arrays
        if not kept:
            break
        z, fz = (nxt, fn) if kept == lanes else (x.where(shrank, nxt, z), x.where(shrank, fn, fz))
    return x.ldexp(x.where(rooted, z, math.nan), u), ok


def real_roots(coeffs: tuple[float, float, float, float]) -> tuple[float, ...]:
    """The largest real root of ``c3*x**3 + c2*x**2 + c1*x + c0``, from
    ``coeffs = (c3, c2, c1, c0)`` with ``c3 > 0``, ``c2 >= 0`` and ``c0 != 0``:
    a one-tuple, or ``()`` where no root is positive (with ``c0 > 0`` there
    are two or none; with ``c0 < 0`` one, by Descartes' rule).

    Scaled by a power of two read from the coefficients' exponents, the
    monic cubic has coefficients in [-1, 1] and roots below 2. Right of its
    larger critical point it is convex and increasing, so Newton steps
    descend to the root from a start there, right of the root: the smaller
    of a square-root and a power-of-two bound on the root's distance from
    that point or from 0 (Kahan, "To Solve a Real Cubic Equation", 1986). Only
    correctly rounded operations are used (IEEE 754-2019 5.4), so the array
    route gives the same bits.

    Raises NumericalFailure where a coefficient is not finite or the roots
    lie or spread beyond the floating-point range, ValueError for other signs.
    """
    if not all(map(math.isfinite, coeffs)):
        raise NumericalFailure(f"cubic coefficients {coeffs!r} are not finite")
    c3, c2, c1, c0 = coeffs
    if not (c3 > 0.0 and c2 >= 0.0 and c0 != 0.0):
        raise ValueError(f"cubic coefficients {coeffs!r} need c3 > 0, c2 >= 0 and c0 != 0")
    try:
        root, ok = _largest_root(_FLOATS, c3, c2, c1, c0, True)
    except OverflowError:
        ok = False
    if not ok:
        raise NumericalFailure(f"roots of the cubic {coeffs!r} lie or spread beyond the "
                               "floating-point range")
    return (root,) if root == root else ()


def _units(x, a_w, a_m):
    e = x.frexp(x.larger(a_m, a_w))[1]
    return e, x.ldexp(a_w, -e), x.ldexp(a_m, -e)


def income_units(p: ModelParams) -> tuple[int, float, float]:
    """``(e, a_w*2**-e, a_m*2**-e)``: the power of two ``2**e`` that brings the
    larger income into [0.5, 1), and both incomes in that unit (exact unless
    the smaller one falls below the normal range)."""
    return _units(_FLOATS, p.a_w, p.a_m)


def transfer_root(x, alpha, delta, gamma, a_w, a_m):
    """``(rho, ok)``: the positive root of the husband's first-order quadratic
    without a subsidy, ``rho**2 + alpha*a_w*rho - q`` with
    ``q = (alpha*delta/gamma)*a_w*(a_w + a_m)``.

    The root is homogeneous of degree one in incomes, so it is computed in
    the units of :func:`income_units` and scaled back: exact in binary, and
    ``q`` neither overflows near 1e300 nor underflows near 1e-300. It is
    evaluated in the cancellation-free form ``q / (alpha*a_w/2 + sqrt(X))``,
    ``X = (alpha*a_w/2)**2 + q``, exact even where the two terms of the
    textbook ``-alpha*a_w/2 + sqrt(X)`` nearly cancel. ``ok`` holds where
    ``a_w``, ``alpha*delta``, ``q`` and the root are normal floats, in income
    units and scaled back, so the root keeps its digits; a subnormal
    ``alpha*a_w/2`` or its square is then negligible.
    """
    e, a_w, a_m = _units(x, a_w, a_m)
    ad = alpha * delta
    half = 0.5 * alpha * a_w
    q = ad / gamma * a_w * (a_w + a_m)
    root = q / (half + x.sqrt(half * half + q))
    rho = x.ldexp(root, e)
    return rho, ((a_w >= _TINY) & (ad >= _TINY) & (q >= 2.0 * _TINY) & (root >= _TINY)
                 & _normal(rho))


def equilibrium_transfer(p: ModelParams) -> float:
    """The transfer of :func:`transfer_root`. Raises NumericalFailure where
    it, or a term it is computed from, is not a normal float, so that its
    digits would be lost."""
    try:
        rho, ok = transfer_root(_FLOATS, p.alpha, p.delta, p.gamma, p.a_w, p.a_m)
    except (ZeroDivisionError, OverflowError):
        ok = False
    if not ok:
        raise NumericalFailure(
            f"the transfer at incomes {p.a_w!r} and {p.a_m!r} leaves the normal float range")
    return rho


def _leader(x, alpha, delta, gamma, a_w, a_m, paid, subsidy):
    """``(root, rho, n, c_w, c_m, ok)`` of :func:`leader_optimum`, with
    ``rho`` NaN at the no-birth corner; ``subsidy`` is one float."""
    if subsidy and x.any(paid):
        raise ValueError("a leader solve takes a rearing cost or a subsidy, not both")
    g = gamma / delta
    k = paid - subsidy
    zero, cubic = k == 0.0, k != 0.0
    r, ok = math.nan, True
    if x.any(zero):
        r, ok = transfer_root(x, alpha, delta, gamma, a_w, a_m)
        ok = ok | cubic
    if x.any(cubic):
        ratio = a_w / a_m
        e, aw_e, am_e = _units(x, a_w, a_m)
        coeffs = _leader_cubic(g, alpha, aw_e, am_e, x.ldexp(k, -e))
        cubic_ok = ((ratio > 0.0) & (ratio < math.inf)
                    & (coeffs[0] != 0.0) & (coeffs[3] != 0.0))
        if x.any(cubic_ok):
            largest, cubic_ok = x.largest(coeffs, e, cubic_ok)
            r = x.where(zero, r, largest) if x.any(zero) else largest
        ok = ok & (zero | cubic_ok)
    root = r

    found = r > subsidy  # where he pays at the root; narrowed to where the root wins
    n = c_m = u = 0.0
    if x.any(found):
        ok = ok & ((r <= subsidy) | _normal(r - subsidy))
        n = g - a_w / r
        spent = (r + k) * n
        head = spent < 0.5 * a_m
        c_m = x.where(head, a_m - spent, (g * (r / a_w) * r + k) / alpha)
        found = found & (n > 0.0)
        if subsidy > 0.0:
            # His utility measured from the corner, ln(c_m/a_m) + alpha*n.
            found = found & (c_m > 0.0)
            lanes = found & head
            if x.any(lanes):
                u = x.where(lanes, x.log1p(-spent / a_m), u)
            lanes = found & x.not_(head)
            if x.any(lanes):
                u = x.where(lanes, x.log(c_m) - x.log(a_m), u)
            u = u + alpha * n
            found = found & (u > 0.0)
    if subsidy > 0.0:
        # At the boundary rho = 0 he pays nothing (paid is 0 under a
        # subsidy) and keeps a_m.
        n_edge = g - a_w / subsidy
        edge = (n_edge > 0.0) & (alpha * n_edge > x.where(found, u, 0.0))
        found = found | edge
        r, n, c_m = x.where(edge, subsidy, r), x.where(edge, n_edge, n), x.where(edge, a_m, c_m)

    n, rho, c_w, c_m = (x.where(found, n, 0.0), x.where(found, r - subsidy, math.nan),
                        x.where(found, a_w + r * n, a_w), x.where(found, c_m, a_m))
    # A paid transfer needs a normal c_m; the wife's c_w must be finite.
    ok = ok & (x.not_(rho > 0.0) | _normal(c_m)) & x.isfinite(c_w)
    return root, rho, n, c_w, c_m, ok


def leader_optimum(
    p: ModelParams, paid: float, subsidy: float
) -> tuple[float, float | None, float, float, float]:
    """Husband's best transfer when he pays ``paid + rho`` and she receives
    ``r = rho + subsidy`` per child.

    Returns the largest real root of the leader cubic in ``r`` (at ``k = 0``
    the positive root of its quadratic factor), the transfer ``rho`` (None
    at the no-birth corner), fertility and both consumptions. Raises
    NumericalFailure where the income ratio, a coefficient or a root of the
    cubic, a paid transfer, the husband's consumption or the wife's leaves
    the floating-point range, and ValueError where both ``paid`` and
    ``subsidy`` are nonzero: the boundary ``rho = 0`` is solved only for a
    husband who pays nothing there.
    """
    try:
        root, rho, n, c_w, c_m, ok = _leader(
            _FLOATS, p.alpha, p.delta, p.gamma, p.a_w, p.a_m, paid, subsidy)
    except (ZeroDivisionError, OverflowError):
        ok = False
    if not ok:
        raise NumericalFailure(f"the leader optimum at {p!r} (paid {paid!r}, subsidy "
                               f"{subsidy!r}) leaves the normal float range")
    return root, (rho if rho == rho else None), n, c_w, c_m


def leader_optima(alpha, delta, gamma, a_w, a_m, paid, subsidy: float):
    """:func:`leader_optimum` over arrays of households, to the same bits.

    The arguments are arrays or floats, with at least one income an array;
    ``subsidy`` is one float. A float is not broadcast: a preference fixed
    across the households stays one number through every step it enters.
    Returns the arrays ``(n, rho, c_w, c_m, ok)``, with ``rho`` NaN at the
    no-birth corner. Households outside ``ok`` are exactly those the scalar
    route refuses; their values here mean nothing. Raises ValueError, as the
    scalar route does, where a household pays ``paid > 0`` under a subsidy.
    """
    import numpy as np

    # numpy scalars, not floats, so that a scalar step, like a lane, gives
    # inf or NaN under errstate rather than raise.
    columns = [v if isinstance(v, np.ndarray) else np.float64(v)
               for v in (alpha, delta, gamma, a_w, a_m, paid)]
    with np.errstate(all="ignore"):
        _, rho, n, c_w, c_m, ok = _leader(_arrays(), *columns, subsidy)
    if not np.ndim(rho):  # no household reached a transfer: all are refused
        n, rho = np.full(ok.shape, n), np.full(ok.shape, rho)
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

    root, rho, n, c_w, c_m = leader_optimum(p, p.beta, 0.0)

    u_w, u_m = utility_linear_pair(p, c_w, c_m, n)
    wife, husband = participation(p, u_w, u_m)
    return _record(
        ExtendedEquilibrium,
        positive_roots=(root,),
        selected_rho=rho,
        n_star=n,
        c_w=c_w,
        c_m=c_m,
        u_w=u_w,
        u_m=u_m,
        wife_participates=wife,
        husband_participates=husband,
        interior=n > 0,
    )
