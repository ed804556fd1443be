"""The largest root of the leader cubic against an mpmath bisection.

Every cubic is solved by ``real_roots`` and, as one array, by the array
operation set of ``leader_optima``; the two must agree bit for bit. The
certifier brackets the largest positive root between the larger critical
point (or 0) and the Cauchy bound, and bisects in mpmath at
``40 + |log10 G| + |log10 R|`` digits, ``G = gamma/delta`` and
``R = a_w/a_m``, so that evaluating the cubic loses nothing to the spread of
its coefficients. A root must lie within a few units in the last place,
times its condition number, of the certified one.
"""

import hashlib
import math
import random

import mpmath as mp
import numpy as np
import pytest

from fertgames import NumericalFailure, real_roots
from fertgames import extended
from fertgames.extended import _FLOATS, _arrays, _largest_root, _leader_cubic, _units

ULP = 2.0**-53
SEED_ROOTS = 20251019
SPANS = {"e2": 2.0, "1e10": math.log(1e10), "1e50": math.log(1e50), "1e150": math.log(1e150)}


def mp_largest(coeffs, dps: int):
    """``(root, cond)``: the largest positive root of the cubic, or None, and
    its relative condition number ``sum|c_i*r**i| / |r*f'(r)|``."""
    with mp.workdps(dps):
        c3, c2, c1, c0 = map(mp.mpf, coeffs)
        b, c, d = c2 / c3, c1 / c3, c0 / c3

        def f(z):
            return ((z + b) * z + c) * z + d

        lo, hi = mp.mpf(0), 1 + max(abs(b), abs(c), abs(d))
        disc = b * b - 3 * c
        if disc > 0:  # the larger critical point, in a form that cannot cancel
            lo = max(lo, -c / (b + mp.sqrt(disc)))
        if f(lo) > 0:
            return None, None
        while hi > 2 * lo:  # to within a factor of two, geometrically
            mid = hi / mp.mpf(2) ** 64 if lo == 0 else mp.sqrt(lo * hi)
            lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        while hi - lo > hi * mp.mpf(2) ** -120:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        r = (lo + hi) / 2
        slope = abs(r * ((3 * c3 * r + 2 * c2) * r + c1))
        size = ((abs(c3) * r + abs(c2)) * r + abs(c1)) * r + abs(c0)
        return float(r), (float(size / slope) if slope else math.inf)


def leader_cubics(span: float, k_sign: int, count: int):
    """``(coeffs, dps)`` of leader cubics in income units, as the leader
    solve builds them, from log-uniform parameters on ``[e**-span, e**span]``:
    ``k = beta`` (the extended game) or ``k = -s`` (a subsidy ``s``)."""
    rng = np.random.default_rng([SEED_ROOTS, int(span), k_sign + 1])
    out = []
    for alpha, delta, gamma, k, a_w, a_m in np.exp(rng.uniform(-span, span, (count, 6))).tolist():
        e, aw, am = _units(_FLOATS, a_w, a_m)
        coeffs = _leader_cubic(gamma / delta, alpha, aw, am, math.ldexp(k_sign * k, -e))
        if all(map(math.isfinite, coeffs)) and coeffs[0] != 0.0 and coeffs[3] != 0.0:
            out.append((coeffs, 40 + round(abs(math.log10(gamma / delta))
                                           + abs(math.log10(a_w / a_m)))))
    return out


def both_routes(cubics):
    """``real_roots`` of each cubic (a one-tuple, ``()``, or None where it
    raises NumericalFailure), after checking that the array route gives the
    same root bit for bit and refuses the same cubics."""
    columns = tuple(np.array(cubics).T)
    with np.errstate(all="ignore"):  # as in leader_optima: every lane runs every step
        largest, ok = _arrays().largest(columns, 0, True)
    results = []
    for coeffs, lane, lane_ok in zip(cubics, largest.tolist(), ok.tolist()):
        try:
            got = real_roots(coeffs)
        except NumericalFailure:
            got = None
        assert lane_ok == (got is not None), coeffs
        if got is not None:
            assert repr(lane) == repr(got[0] if got else math.nan), coeffs
        results.append(got)
    return results


def assert_certified(got, coeffs, dps: int):
    want, cond = mp_largest(coeffs, dps)
    if want is None:
        assert got == (), coeffs
        return
    assert len(got) == 1, coeffs
    assert abs(got[0] - want) <= 4.0 * ULP * cond * want, (coeffs, got, want, cond)


@pytest.mark.parametrize("k_sign", [1, -1], ids=["k>0", "k<0"])
@pytest.mark.parametrize("span", list(SPANS.values()), ids=list(SPANS))
def test_leader_cubics_match_mpmath(span, k_sign):
    drawn = leader_cubics(span, k_sign, 300)
    results = both_routes([coeffs for coeffs, _ in drawn])
    answered = 0
    for (coeffs, dps), got in zip(drawn, results):
        if got is not None:
            assert_certified(got, coeffs, dps)
            answered += got != ()
    # At 1e+-150 some roots spread beyond the float range and are refused.
    assert answered > 0.5 * len(drawn)


# alpha*G underflows, so c2 = 0: the unit comes from c1 and c0 alone.
C2_ZERO = _leader_cubic(1e-150, 1e-200, 0.5, 1.0, 1.0)
NAMED = {
    "c2 underflowed to 0": C2_ZERO,
    # (z - 1)**2 * (z + 3) lifted by 1e-9: positive roots 1 -+ 1.6e-5.
    "near-double positive root": (1.0, 1.0, -5.0, 3.0 - 1e-9),
    # Positive at its only positive critical point, z = 2/3.
    "no positive root": (1.0, 0.5, -2.0, 1.0),
    # The root is about -c0/c1, three times the smallest normal float.
    "root near the normal floor": (1.0, 0.0, 1.0, -3.0 * 2.0**-1022),
    # (z - 1)**2 * (z + 2): the residual at the critical point z = 1 is 0.
    "double root at the critical point": (1.0, 0.0, -3.0, 2.0),
    # A dip where fb**(1/3) bounds the step from zc = 1e-3 more tightly than
    # sqrt(fb/a): a = 3*zc is small.
    "dip bounded by the cube": (1.0, 0.0, -3e-6, -1.0),
    # The double root lowered by one ulp of c0: roots 1 -+ 2**-26/sqrt(3).
    "double root lowered by an ulp": (1.0, 0.0, -3.0, 2.0 - 2.0**-52),
}


def test_named_cubics_match_mpmath():
    assert C2_ZERO[1] == 0.0 and C2_ZERO[0] > 0.0 and C2_ZERO[3] < 0.0
    results = both_routes(list(NAMED.values()))
    assert None not in results
    for coeffs, got in zip(NAMED.values(), results):
        assert_certified(got, coeffs, 60)
    by_name = dict(zip(NAMED, results))
    assert by_name["no positive root"] == ()
    assert 2.0**-1022 < by_name["root near the normal floor"][0] < 2.0**-1020
    assert by_name["double root at the critical point"] == (1.0,)


def test_root_beyond_the_float_range_raises_numerical_failure():
    # The largest root, about 4.5e315, lies beyond the float range: the
    # float route's ldexp raises OverflowError on the way to it.
    coeffs = (5e-324, 0.0, -1e308, -1.0)
    with pytest.raises(OverflowError):
        _largest_root(_FLOATS, *coeffs, True)
    with pytest.raises(NumericalFailure, match="beyond the floating-point range"):
        real_roots(coeffs)


def pinned_cubics(count: int):
    """Cubics from ``random.Random``, built with exact or correctly rounded
    operations only, so that they are the same on every platform: leader
    cubics from parameters ``m*2**e``, ``2**|e|`` up to 1e2, 1e10, 1e50,
    1e150 or 1e300, with ``k`` of both signs, and near-double roots
    ``(z - t)**2 * (z + w)`` lifted or lowered by a few ulps of ``c0``,
    scaled by powers of two."""
    rng = random.Random(20261020)
    out = []
    while len(out) < count:
        bits = rng.choice((7, 33, 166, 498, 997))  # 2**bits: 1e2, 1e10, ..., 1e300
        if rng.random() < 0.8:
            alpha, delta, gamma, k, a_w, a_m = (
                math.ldexp(0.5 + rng.random() / 2, rng.randint(-bits, bits)) for _ in range(6))
            e, aw, am = _units(_FLOATS, a_w, a_m)
            try:  # as in the leader solve, which refuses these households
                coeffs = _leader_cubic(gamma / delta, alpha, aw, am,
                                       math.ldexp(rng.choice((1, -1)) * k, -e))
            except (ZeroDivisionError, OverflowError):
                continue
        else:
            t, s = 0.5 + rng.random(), rng.randint(-bits // 3, bits // 3)
            w = 2.0 * t + rng.random()
            c0 = t * t * w * (1.0 + rng.choice((1, -1)) * rng.randint(1, 64) * ULP)
            coeffs = (1.0, math.ldexp(w - 2.0 * t, s), math.ldexp(t * t - 2.0 * t * w, 2 * s),
                      math.ldexp(c0, 3 * s))
        if all(map(math.isfinite, coeffs)) and coeffs[0] != 0.0 and coeffs[3] != 0.0:
            out.append(coeffs)
    return out


# SHA-256 of the roots of pinned_cubics(4000) as real_roots gives them. It
# changes only where a root's bits change, on both routes alike or not.
PINNED_ROOTS = "d65067c18f5062a82f7f1971437dda1b25d2230b58815599c01cb21c7acc9159"


def test_roots_match_the_pinned_digest():
    cubics = pinned_cubics(4000)
    results = both_routes(cubics)
    assert {len(got) for got in results if got is not None} == {0, 1}
    assert None in results  # some roots spread beyond the float range
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == PINNED_ROOTS


def test_newton_cap_never_binds(monkeypatch):
    # Every descent stops on its own: more steps move no root and no refusal.
    cubics = pinned_cubics(4000)
    capped = both_routes(cubics)
    monkeypatch.setattr(extended, "_NEWTON_STEPS", 64)
    assert repr(both_routes(cubics)) == repr(capped)
