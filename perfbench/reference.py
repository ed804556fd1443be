"""Independent reference answers for every fertgames solver route.

Nothing here imports fertgames. Each route is derived again from the model
and evaluated in mpmath at 40 digits, or for population expectations by
quadrature in numpy:

* pooled budget: the Cobb-Douglas closed form;
* game: the positive root of the husband's quadratic;
* extended and subsidized game: one leader cubic. When the husband pays
  ``paid + rho`` per child and the wife receives ``r = rho + subsidy``, his
  first-order condition is, with ``G = gamma/delta`` and ``k = paid - subsidy``,

      G r^3 + alpha a_w G r^2 + a_w [k - alpha (a_m + a_w - k G)] r
          - alpha k a_w^2 = 0.

  The equilibrium is the candidate with the highest husband utility among
  its real roots with ``rho > 0``, the boundary ``rho -> 0`` and the
  no-birth corner;
* statics: mpmath numerical derivatives of the transfer and fertility;
* threshold: ``alpha * gamma * a_m / delta``.

Run as a program it answers a JSON list of tasks on stdin with a JSON list of
results on stdout, so the benchmark can keep mpmath out of the process it
measures.
"""

from __future__ import annotations

import json
import math
import sys

import mpmath as mp
import numpy as np

DPS = 40
PARTIAL_KEYS = ("alpha", "delta", "gamma", "a_w", "a_m")


def _mpf(p: dict) -> dict:
    return {k: mp.mpf(v) for k, v in p.items()}


def benchmark(p: dict) -> dict:
    with mp.workdps(DPS):
        q = _mpf(p)
        weight = 1 + q["gamma"] + q["alpha"] - q["delta"]
        total = q["a_w"] + q["a_m"]
        n = (q["alpha"] - q["delta"]) * total / (q["beta"] * weight)
        c_w = q["gamma"] * total / weight
        c_m = total / weight
        return {
            "n": float(n),
            "c_w": float(c_w),
            "c_m": float(c_m),
            "u_family": float(q["gamma"] * mp.log(c_w) + mp.log(c_m)
                              + (q["alpha"] - q["delta"]) * mp.log(n)),
            "u_w": float(q["gamma"] * mp.log(c_w) - q["delta"] * mp.log(n)),
            "u_m": float(mp.log(c_m) + q["alpha"] * mp.log(n)),
            "wife_delta": float(q["gamma"] * mp.log(c_w) - q["delta"] * mp.log(n)
                                - q["gamma"] * mp.log(q["a_w"])),
            "interior": True,
        }


def _game_mp(q: dict) -> tuple:
    """Equilibrium transfer and unclamped fertility of the game, in mpmath."""
    b = q["alpha"] * q["a_w"]
    c = q["alpha"] * q["delta"] / q["gamma"] * q["a_w"] * (q["a_w"] + q["a_m"])
    rho = (-b + mp.sqrt(b * b + 4 * c)) / 2
    return rho, q["gamma"] / q["delta"] - q["a_w"] / rho


def _outcome(q: dict, rho, n, receipt, paid) -> dict:
    """Allocation, utilities and participation at fertility n."""
    c_w = q["a_w"] + receipt * n
    c_m = q["a_m"] - paid * n
    u_w = q["gamma"] * mp.log(c_w) - q["delta"] * n
    u_m = mp.log(c_m) + q["alpha"] * n
    return {
        "rho": None if rho is None else float(rho),
        "n": float(n),
        "c_w": float(c_w),
        "c_m": float(c_m),
        "u_w": float(u_w),
        "u_m": float(u_m),
        # Utility margins over staying childless; their signs are the
        # participation flags.
        "wife_margin": float(u_w - q["gamma"] * mp.log(q["a_w"])),
        "husband_margin": float(u_m - mp.log(q["a_m"])),
        "interior": bool(n > 0),
    }


def game(p: dict) -> dict:
    with mp.workdps(DPS):
        q = _mpf(p)
        rho, n = _game_mp(q)
        n = max(n, mp.mpf(0))
        out = _outcome(q, rho, n, rho, rho)
        out["rho"] = float(rho)  # the formal root is reported at the corner too
        return out


def leader(p: dict, paid_beta: bool, subsidy: float = 0.0) -> dict:
    """Extended game (``paid_beta``) or subsidized game by the leader cubic."""
    with mp.workdps(DPS):
        q = _mpf(p)
        s = mp.mpf(subsidy)
        paid = q["beta"] if paid_beta else mp.mpf(0)
        g = q["gamma"] / q["delta"]
        k = paid - s
        a_w, a_m, alpha = q["a_w"], q["a_m"], q["alpha"]
        coeffs = [g, alpha * a_w * g, a_w * (k - alpha * (a_m + a_w - k * g)),
                  -alpha * k * a_w * a_w]
        roots = mp.polyroots(coeffs, maxsteps=400, extraprec=2 * DPS)
        real = sorted(mp.re(r) for r in roots
                      if abs(mp.im(r)) <= mp.mpf(10) ** (-DPS // 2) * max(1, abs(r)))

        def candidate(rho):
            n = max(mp.mpf(0), g - a_w / (rho + s))
            c_m = a_m - (paid + rho) * n
            if n <= 0 or c_m <= 0:
                return None
            return (mp.log(c_m) + alpha * n, rho, n)

        best = (mp.log(a_m), None, mp.mpf(0))  # the no-birth corner
        for cand in [candidate(r - s) for r in real if r - s > 0] + (
                [candidate(mp.mpf(0))] if s > 0 else []):
            if cand is not None and cand[0] > best[0]:
                best = cand
        _, rho, n = best
        out = _outcome(q, rho, n, (rho or 0) + s, paid + (rho or 0))
        out["positive_roots"] = sum(1 for r in real if r > 0)
        return out


def statics(p: dict) -> dict:
    """Transfer, fertility and their partials by mpmath differentiation."""
    with mp.workdps(DPS):
        q = _mpf(p)

        def at(key, value):
            return _game_mp(dict(q, **{key: value}))

        rho, n = _game_mp(q)
        out = {"rho": float(rho), "n": float(n),
               "radicand": float((q["alpha"] * q["a_w"] / 2) ** 2 + q["alpha"] * q["delta"]
                                 / q["gamma"] * q["a_w"] * (q["a_w"] + q["a_m"])),
               "d_rho": {}, "d_n": {}}
        for key in PARTIAL_KEYS:
            out["d_rho"][key] = float(mp.diff(lambda x: at(key, x)[0], q[key]))
            out["d_n"][key] = float(mp.diff(lambda x: at(key, x)[1], q[key]))
        out["d_n_ratio"] = float(mp.diff(
            lambda r: at("a_w", r * q["a_m"])[1], q["a_w"] / q["a_m"]))
        return out


def threshold(p: dict) -> float:
    return float(mp.mpf(p["alpha"]) * p["gamma"] * p["a_m"] / p["delta"])


# ---------------------------------------------------------------------------
# Population expectations by quadrature


def _fertility_grid(model: str, prefs: dict, a_w, a_m, subsidy: float):
    """Equilibrium fertility at each (a_w, a_m) pair, float64 numpy."""
    alpha, delta, gamma, beta = (prefs[k] for k in ("alpha", "delta", "gamma", "beta"))
    if model == "benchmark":
        return (alpha - delta) * (a_w + a_m) / (beta * (1 + gamma + alpha - delta))
    g = gamma / delta
    if model == "game" and subsidy == 0:
        b = alpha * a_w
        c = alpha / g * a_w * (a_w + a_m)
        rho = 2 * c / (b + np.sqrt(b * b + 4 * c))
        return np.maximum(0.0, g - a_w / rho)
    paid = beta if model == "extended" else 0.0
    k = paid - subsidy
    size = a_w.size
    companion = np.zeros((size, 3, 3))
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    companion[:, 0, 0] = -alpha * a_w
    companion[:, 0, 1] = -a_w * (k - alpha * (a_m + a_w - k * g)) / g
    companion[:, 0, 2] = alpha * k * a_w * a_w / g
    roots = np.linalg.eigvals(companion)
    best_u = np.log(a_m)
    best_n = np.zeros(size)
    rhos = [np.where(np.abs(roots[:, j].imag) <= 1e-9 * np.abs(roots[:, j]),
                     roots[:, j].real - subsidy, np.nan) for j in range(3)]
    if subsidy > 0:
        rhos.append(np.zeros(size))
    for rho in rhos:
        with np.errstate(invalid="ignore", divide="ignore"):
            n = np.maximum(0.0, g - a_w / (rho + subsidy))
            c_m = a_m - (paid + rho) * n
            u = np.log(c_m) + alpha * n
        ok = (rho >= 0) & (n > 0) & (c_m > 0) & (u > best_u)
        best_u = np.where(ok, u, best_u)
        best_n = np.where(ok, n, best_n)
    return best_n


def _moments(model, prefs, aw_dist, am_dist, subsidy, nodes):
    """E[n], E[n^2], P(n = 0) over log-normal incomes.

    The outer integral over the husband's income uses Gauss-Hermite nodes.
    The inner one over the wife's income is split where fertility reaches
    zero, ``a_w = G (alpha a_m - k)``, so each piece is smooth and
    Gauss-Legendre converges fast on it.
    """
    zh, wh = np.polynomial.hermite_e.hermegauss(nodes)
    wh = wh / wh.sum()
    zl, wl = np.polynomial.legendre.leggauss(nodes)
    (mu_w, s_w), (mu_m, s_m) = aw_dist, am_dist
    g = prefs["gamma"] / prefs["delta"]
    k = (prefs["beta"] if model == "extended" else 0.0) - subsidy
    lo, hi = -12.0, 12.0
    e1 = e2 = p0 = 0.0
    for z2, w2 in zip(zh, wh):
        a_m = math.exp(mu_m + s_m * z2)
        edge = g * (prefs["alpha"] * a_m - k)
        cut = (math.log(edge) - mu_w) / s_w if edge > 0 and s_w > 0 else lo
        cut = min(hi, max(lo, cut)) if model != "benchmark" else hi
        for a, b in ((lo, cut), (cut, hi)):
            if b <= a:
                continue
            z1 = 0.5 * (b - a) * zl + 0.5 * (a + b)
            w1 = 0.5 * (b - a) * wl * np.exp(-0.5 * z1 * z1) / math.sqrt(2 * math.pi)
            n = _fertility_grid(model, prefs, np.exp(mu_w + s_w * z1),
                                np.full(z1.size, a_m), subsidy)
            e1 += w2 * float(np.dot(w1, n))
            e2 += w2 * float(np.dot(w1, n * n))
            p0 += w2 * float(np.dot(w1, n <= 0))
    return e1, e2, p0


def population(task: dict) -> dict:
    """Expected mean fertility, its spread, childless share and mean ratio.

    Quadrature error is estimated as the change from ``nodes`` to
    ``2 * nodes`` points per dimension.
    """
    args = (task["model"], task["prefs"], task["aw_dist"], task["am_dist"],
            task.get("subsidy", 0.0))
    coarse = _moments(*args, nodes=48)
    fine = _moments(*args, nodes=96)
    (mu_w, s_w), (mu_m, s_m) = task["aw_dist"], task["am_dist"]
    var_log_ratio = s_w * s_w + s_m * s_m
    mean_ratio = math.exp(mu_w - mu_m + var_log_ratio / 2)
    return {
        "mean_n": fine[0],
        "sd_n": math.sqrt(max(0.0, fine[1] - fine[0] ** 2)),
        "childless": fine[2],
        "quad_err_n": abs(fine[0] - coarse[0]),
        "quad_err_childless": abs(fine[2] - coarse[2]),
        "mean_ratio": mean_ratio,
        "sd_ratio": mean_ratio * math.sqrt(math.expm1(var_log_ratio)),
    }


def answer(task: dict):
    route = task["route"]
    if route == "population":
        return population(task)
    p = task["p"]
    if route == "benchmark":
        return benchmark(p)
    if route == "game":
        return game(p)
    if route == "extended":
        return leader(p, paid_beta=True)
    if route == "subsidized":
        return leader(p, paid_beta=False, subsidy=task["subsidy"])
    if route == "statics":
        return statics(p)
    if route == "threshold":
        return threshold(p)
    raise ValueError(f"unknown route {route!r}")


if __name__ == "__main__":
    json.dump([answer(t) for t in json.load(sys.stdin)], sys.stdout)
