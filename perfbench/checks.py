"""Comparisons of fertgames outputs with the independent reference.

Every check returns a list of problems; an empty list means the output is
right. Route results are compared at a relative tolerance of 1e-10, so ten
of the twelve printed digits must be right, and each quantity is compared
on the scale of the terms that make it up: fertility ``G - a_w/r`` on
``G = gamma/delta``, the husband's consumption ``a_m - paid*n`` on ``a_m``.

``lam`` is the factor by which incomes, the rearing cost and the subsidy
were multiplied before the call. Fertility does not change under it;
transfers, consumptions and the threshold scale with it, and log utilities
shift by the log of it. This lets one reference answer a whole family of
scaled inputs.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

RTOL = 1e-10
# Central differences with step 1e-6*x are accurate to about 1e-10 of the
# derivative's scale; 1e-6 leaves room and still catches a wrong column.
FD_RTOL = 1e-6
# Population statistics must lie within this many standard errors.
SIGMAS = 6.0


def close(problems: list, name: str, got, want: float, scale: float,
           rtol: float = RTOL) -> None:
    if got is None or not math.isfinite(got) or abs(got - want) > rtol * scale:
        problems.append(f"{name}: got {got!r}, want {want!r} (scale {scale:.3g})")


def outcome(got: dict, ref: dict, p: dict, lam: float = 1.0,
            subsidy: float = 0.0, log_children: bool = False) -> list[str]:
    """Check an equilibrium given as a dict with the keys of ``ref``.

    ``got`` may omit keys (a CLI row has no ``rho`` for the benchmark) and may
    carry ``interior``, participation flags and ``positive_roots``. With a
    subsidy the reported transfer is compared on the scale of what the wife
    receives, ``rho + subsidy``, and not at all at the no-birth corner, where
    every transfer gives the same outcome.
    """
    problems: list[str] = []
    g = p["gamma"] / p["delta"]
    n = ref["n"]
    n_scale = abs(n) if log_children else max(abs(n), g)
    log_lam = math.log(lam)
    if "rho" in got and not (subsidy and not ref["interior"]):
        if ref["rho"] is None:
            if got["rho"] is not None:
                problems.append(f"rho: got {got['rho']!r}, want none (corner)")
        else:
            close(problems, "rho", got["rho"], lam * ref["rho"],
                   lam * (ref["rho"] + subsidy))
    close(problems, "n", got.get("n"), n, n_scale)
    for key, income in (("c_w", "a_w"), ("c_m", "a_m")):
        if key in got:
            close(problems, key, got[key], lam * ref[key],
                   lam * max(abs(ref[key]), p[income]))
    child = 1 + abs(math.log(n)) if log_children else n_scale
    child_w, child_m = p["delta"] * child, p["alpha"] * child
    scales = {
        "u_w": (p["gamma"], p["gamma"] * (1 + abs(math.log(ref["c_w"]))) + child_w),
        "u_m": (1.0, 1 + abs(math.log(ref["c_m"])) + child_m),
        "u_family": (p["gamma"] + 1, p["gamma"] * (1 + abs(math.log(ref["c_w"])))
                     + 1 + abs(math.log(ref["c_m"])) + child_m),
        "wife_delta": (0.0, p["gamma"] * (2 + abs(math.log(ref["c_w"]))
                                          + abs(math.log(p["a_w"]))) + child_w),
    }
    for key, (shift, scale) in scales.items():
        if key in got:
            close(problems, key, got[key], ref[key] + shift * log_lam, scale)
    if "interior" in got and got["interior"] != ref["interior"]:
        problems.append(f"interior: got {got['interior']!r}, want {ref['interior']!r}")
    for key, margin, scale in (("wife_participates", "wife_margin", scales["u_w"][1]),
                               ("husband_participates", "husband_margin", scales["u_m"][1])):
        # A margin within rounding of zero may be called either way.
        if key in got and abs(ref[margin]) > 1e-9 * scale and got[key] != (ref[margin] > 0):
            problems.append(f"{key}: got {got[key]!r}, margin {ref[margin]!r}")
    if "positive_roots" in got and got["positive_roots"] != ref["positive_roots"]:
        problems.append(f"positive_roots: got {got['positive_roots']!r}, "
                        f"want {ref['positive_roots']!r}")
    return problems


def statics(got: dict, ref: dict, p: dict, lam: float = 1.0) -> list[str]:
    """Check a statics report given as a dict (see ``workloads``).

    Partials in a preference scale like the transfer; partials in an income
    scale like the transfer over an income.
    """
    problems: list[str] = []
    g = p["gamma"] / p["delta"]
    if "rho" in got:
        close(problems, "rho", got["rho"], lam * ref["rho"], lam * ref["rho"])
        close(problems, "n", got["n"], ref["n"], g)
        close(problems, "radicand", got["radicand"], lam * lam * ref["radicand"],
               lam * lam * ref["radicand"])
    for key in ref["d_rho"]:
        income = key in ("a_w", "a_m")
        x = lam * p[key] if income else p[key]
        rho_scale = lam * ref["rho"] / x
        n_scale = g / x
        want_rho = ref["d_rho"][key] * (1 if income else lam)
        want_n = ref["d_n"][key] / (lam if income else 1)
        for col, want, scale in (("d_rho", want_rho, rho_scale), ("d_n", want_n, n_scale)):
            close(problems, f"{col}[{key}]", got[col][key], want, scale)
            close(problems, f"fd_{col[2:]}[{key}]", got["fd_" + col[2:]][key], want,
                   scale, FD_RTOL)
        sign_key = f"sign_{key}"
        if sign_key in got and abs(want_n) > 1e-6 * n_scale:
            if got[sign_key] != (1 if want_n > 0 else -1):
                problems.append(f"{sign_key}: got {got[sign_key]!r}, d_n is {want_n!r}")
    ratio_scale = g * p["a_m"] / p["a_w"]
    close(problems, "d_n_ratio", got["d_n_ratio"], ref["d_n_ratio"], ratio_scale)
    if "fd_n_ratio" in got:
        close(problems, "fd_n_ratio", got["fd_n_ratio"], ref["d_n_ratio"], ratio_scale,
               FD_RTOL)
    return problems


def threshold(got, want: float, lam: float = 1.0) -> list[str]:
    problems: list[str] = []
    close(problems, "threshold", got, lam * want, lam * want)
    return problems


def population(got: dict, expect: dict, monotone: bool) -> list[str]:
    """Check an aggregate report against properties of the method.

    ``got`` holds ``count``, ``decile_counts``, ``decile_means``,
    ``mean_fertility``, ``childless_share`` and ``mean_income_ratio``;
    ``expect`` is a quadrature answer from ``reference.population``.
    ``monotone`` asks for decile means that do not rise with the income
    ratio, the paper's result for the game with fixed preferences.
    """
    problems: list[str] = []
    count, counts, means = got["count"], got["decile_counts"], got["decile_means"]
    if sum(counts) != count or max(counts) - min(counts) > 1:
        problems.append(f"decile counts {counts!r} do not split {count} equally")
    weighted = sum(c * m for c, m in zip(counts, means)) / count
    if abs(weighted - got["mean_fertility"]) > 1e-10 * max(map(abs, means)):
        problems.append(f"mean fertility {got['mean_fertility']!r} is not the "
                        f"count-weighted decile mean {weighted!r}")
    root = math.sqrt(count)
    for key, want, spread, err in (
            ("mean_fertility", expect["mean_n"], expect["sd_n"], expect["quad_err_n"]),
            ("childless_share", expect["childless"],
             math.sqrt(expect["childless"] * (1 - expect["childless"])),
             expect["quad_err_childless"]),
            ("mean_income_ratio", expect["mean_ratio"], expect["sd_ratio"], 0.0)):
        if abs(got[key] - want) > SIGMAS * spread / root + 2 * err + 1e-12:
            problems.append(f"{key} {got[key]!r} is more than {SIGMAS:g} standard "
                            f"errors from the expectation {want!r}")
    if monotone and any(a < b for a, b in zip(means, means[1:])):
        problems.append(f"decile means rise with the income ratio: {means!r}")
    return problems


def svg_polyline(text: str, ns: list[float], g: float) -> list[str]:
    """The chart draws one point per sweep row, left to right, higher
    fertility higher up the page."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"svg does not parse: {exc}"]
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if len(lines) != 1:
        return [f"svg has {len(lines)} polylines, want 1"]
    points = [tuple(map(float, pt.split(","))) for pt in lines[0].get("points").split()]
    if len(points) != len(ns):
        return [f"svg has {len(points)} points, want {len(ns)}"]
    problems = []
    if any(b[0] <= a[0] for a, b in zip(points, points[1:])):
        problems.append("svg x coordinates do not increase")
    for i in range(len(ns)):
        for j in range(i + 1, len(ns)):
            if abs(ns[i] - ns[j]) > 1e-6 * g and (points[i][1] < points[j][1]) != (ns[i] > ns[j]):
                problems.append(f"svg points {i} and {j} are drawn in the wrong order")
    return problems
