"""The four benchmark workloads: their inputs, operations and checks.

Inputs come only from the workload seed, through ``random.Random``. Each
workload repeats rounds of operations; every round attempts the same number
of operations, so the share of failed ones is the same in every run. An
operation is one CLI call, one ``aggregate`` call or one solver call.

Operations in the slices ``F1`` and ``F2`` run fixed inputs that do not
depend on the seed and hit two known faults. They count as failed while the
faults last; a wrong result anywhere else makes the run incorrect.
"""

from __future__ import annotations

import glob
import math
import os
import random
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import fertgames as fg

import calibration
import checks

# Subsidized-game inputs on which oracle_game's golden-section search stalls
# short of its own rtol=1e-10 (F1): the scenario point and five more anchors.
F1_ANCHORS = (
    (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    (2.0, 1.0, 1.0, 1.0, 1.0, 3.0),
    (1.0, 1.0, 1.0, 1.0, 1.0, 3.0),
    (2.0, 1.0, 1.0, 1.0, 2.0, 2.0),
    (3.0, 1.0, 2.0, 0.5, 1.0, 2.0),
    (1.5, 0.7, 1.3, 2.0, 0.8, 1.7),
)
F1_SUBSIDY = 0.5
# Valid inputs at extreme scale (F2): incomes, rearing cost and subsidy of two
# anchors multiplied together, which leaves fertility unchanged.
F2_ANCHORS = F1_ANCHORS[1:3]
F2_SCALES = (1e300, 1e-300)
PARAM_KEYS = ("alpha", "delta", "gamma", "beta", "a_w", "a_m")
SCALED_KEYS = ("beta", "a_w", "a_m")


@dataclass
class Op:
    """One timed call and the check of its result."""

    call: Callable[[], Any]
    check: Callable[[Any], list]
    households: int = 1
    fault: str | None = None  # the known fault this fixed input hits


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_households(rng: random.Random, count: int) -> list[dict]:
    """Log-uniform preferences and incomes with interior game fertility.

    Each parameter's range is cut into ``count`` equal strata and every
    stratum is used once (Latin hypercube sampling), so two seeds give
    pools of the same make-up and the same cost. alpha > delta keeps the
    pooled budget defined, and a_w stays between 5% and 90% of the
    fertility threshold so statics never meet the kink.
    """
    ranges = {"delta": (0.25, 2.0), "alpha_over_delta": (1.1, 4.0), "gamma": (0.25, 4.0),
              "beta": (0.1, 10.0), "a_m": (0.1, 10.0), "aw_share": (0.05, 0.9)}
    columns = {}
    for key, (lo, hi) in ranges.items():
        strata = list(range(count))
        rng.shuffle(strata)
        columns[key] = [lo * (hi / lo) ** ((k + rng.random()) / count) for k in strata]
    out = []
    for i in range(count):
        v = {key: col[i] for key, col in columns.items()}
        alpha = v["delta"] * v["alpha_over_delta"]
        a_w = v["aw_share"] * alpha * v["gamma"] * v["a_m"] / v["delta"]
        out.append(dict(alpha=alpha, delta=v["delta"], gamma=v["gamma"], beta=v["beta"],
                        a_w=a_w, a_m=v["a_m"]))
    return out


def scaled(p: dict, lam: float) -> dict:
    return {k: v * lam if k in SCALED_KEYS else v for k, v in p.items()}


def params(p: dict) -> fg.ModelParams:
    return fg.ModelParams(**{k: p[k] for k in PARAM_KEYS})


def anchor(values) -> dict:
    return dict(zip(PARAM_KEYS, values))


def _equilibrium_fields(eq, rho) -> dict:
    return {"rho": rho, "n": eq.n_star, "c_w": eq.c_w, "c_m": eq.c_m, "u_w": eq.u_w,
            "u_m": eq.u_m, "interior": eq.interior, "wife_participates": eq.wife_participates,
            "husband_participates": eq.husband_participates}


def game_fields(eq) -> dict:
    return _equilibrium_fields(eq, eq.rho_star)


def extended_fields(eq) -> dict:
    out = _equilibrium_fields(eq, eq.selected_rho)
    out["positive_roots"] = len(eq.positive_roots)
    return out


def statics_fields(rep) -> dict:
    return {"rho": rep.rho_star, "n": rep.n_star, "radicand": rep.radicand,
            "d_rho": rep.partial_rho, "d_n": rep.partial_n, "fd_rho": rep.fd_rho,
            "fd_n": rep.fd_n, "d_n_ratio": rep.ratio_partial,
            "sign_delta": rep.delta_regime.predicted_sign,
            "sign_gamma": rep.gamma_regime.predicted_sign}


def report_fields(rep, count: int) -> dict:
    return {"count": count, "decile_counts": list(rep.decile_counts),
            "decile_means": list(rep.fertility_by_ratio_decile),
            "mean_fertility": rep.mean_fertility, "childless_share": rep.childless_share,
            "mean_income_ratio": rep.mean_income_ratio}


class Workload:
    """Inputs of one workload for one seed; ``ops(r)`` is round r."""

    child_processes = False
    # Operations long enough (over 100 ms) to calibrate around each one.
    calibrate_each_op = True

    def __init__(self, root: str, seed: int, out_dir: str):
        self.root, self.seed, self.out_dir = root, seed, out_dir
        self.ref: list = []

    def reference_tasks(self) -> list[dict]:
        raise NotImplementedError

    def ops(self, r: int) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class LibrarySolves(Workload):
    """Every public solver route, one scalar call at a time.

    A pool of POOL seeded households is computed once by the reference; round
    r multiplies the pool's incomes and rearing costs by a seeded factor
    lam_r, so no two rounds repeat an input while one reference answers all.
    """

    name = "library_solves"
    calibrate_each_op = False
    POOL = 128

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.pool = draw_households(random.Random(f"library/{seed}"), self.POOL)

    def reference_tasks(self):
        tasks = []
        for p in self.pool:
            tasks += [{"route": route, "p": p} for route in
                      ("benchmark", "game", "extended", "statics", "threshold")]
        tasks += [{"route": "subsidized", "p": anchor(a), "subsidy": F1_SUBSIDY}
                  for a in F1_ANCHORS]
        tasks += [{"route": route, "p": anchor(a)} for a in F2_ANCHORS
                  for route in ("game", "extended")]
        return tasks

    def ops(self, r):
        lam = log_uniform(random.Random(f"library/{self.seed}/{r}"), 0.125, 8.0)
        refs = iter(self.ref)
        out = []
        for p in self.pool:
            bench, game, ext, stat, thr = (next(refs) for _ in range(5))
            q = scaled(p, lam)
            mp = params(q)
            out += [
                Op(lambda mp=mp: fg.benchmark_solve(mp),
                   lambda s, b=bench, p=p: checks.outcome(
                       {"n": s.n_star, "c_w": s.c_w, "c_m": s.c_m, "u_family": s.u_family,
                        "wife_delta": s.wife_utility_delta}, b, p, lam, log_children=True)),
                Op(lambda mp=mp: fg.solve_game(mp),
                   lambda eq, g=game, p=p: checks.outcome(game_fields(eq), g, p, lam)),
                Op(lambda mp=mp: fg.solve_extended(mp, "low"),
                   lambda eq, e=ext, p=p: checks.outcome(extended_fields(eq), e, p, lam)),
                Op(lambda mp=mp: fg.solve_extended(mp, "high"),
                   lambda eq, e=ext, p=p: checks.outcome(extended_fields(eq), e, p, lam)),
                Op(lambda mp=mp: fg.build_report(mp),
                   lambda rep, s=stat, p=p: checks.statics(statics_fields(rep), s, p, lam)),
                Op(lambda mp=mp: fg.fertility_threshold(mp, rtol=1e-13),
                   lambda v, t=thr: checks.threshold(v, t, lam)),
            ]
        sub_refs = {}
        for a in F1_ANCHORS:
            p, ref = anchor(a), next(refs)
            sub_refs[a] = ref
            out.append(Op(lambda mp=params(p): fg.oracle_game(mp, subsidy=F1_SUBSIDY),
                          lambda eq, ref=ref, p=p: checks.outcome(
                              game_fields(eq), ref, p, subsidy=F1_SUBSIDY),
                          fault="F1"))
        for a in F2_ANCHORS:
            p = anchor(a)
            game, ext = next(refs), next(refs)
            for scale in F2_SCALES:
                mp = params(scaled(p, scale))
                out += [
                    Op(lambda mp=mp: fg.solve_game(mp),
                       lambda eq, g=game, p=p, s=scale: checks.outcome(
                           game_fields(eq), g, p, s), fault="F2"),
                    Op(lambda mp=mp: fg.solve_extended(mp, "high"),
                       lambda eq, e=ext, p=p, s=scale: checks.outcome(
                           extended_fields(eq), e, p, s), fault="F2"),
                    Op(lambda mp=mp, s=scale: fg.oracle_game(mp, subsidy=F1_SUBSIDY * s),
                       lambda eq, ref=sub_refs[a], p=p, s=scale: checks.outcome(
                           game_fields(eq), ref, p, s, subsidy=F1_SUBSIDY), fault="F2"),
                ]
        return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationCase:
    model: str
    count: int
    prefs: dict
    aw_dist: tuple
    am_dist: tuple
    subsidy: float = 0.0

    def spec(self, seed: int) -> fg.PopulationSpec:
        return fg.PopulationSpec(
            count=self.count, seed=seed,
            aw_dist=fg.LogNormalSpec(*self.aw_dist), am_dist=fg.LogNormalSpec(*self.am_dist),
            model=self.model, subsidy=self.subsidy, **self.prefs)

    def task(self) -> dict:
        return {"route": "population", "model": self.model, "prefs": self.prefs,
                "aw_dist": self.aw_dist, "am_dist": self.am_dist, "subsidy": self.subsidy}


ANCHOR_PREFS = dict(alpha=2.0, delta=1.0, gamma=1.0, beta=1.0)
UNIT_PREFS = dict(alpha=1.0, delta=1.0, gamma=1.0, beta=1.0)
ANCHOR_INCOMES = dict(aw_dist=(0.0, 0.5), am_dist=(math.log(3.0), 0.5))


class Population(Workload):
    """In-process ``aggregate`` calls; each call samples a fresh seeded
    population, checked against a quadrature expectation.

    A round runs ``CASES[i]`` for each i in ``ROUND``. The first case runs
    twice, so the median call is one of its calls and does not jump between
    two models whose calls take different times.
    """

    CASES: tuple = ()
    ROUND = (0, 1, 0)

    def reference_tasks(self):
        return [case.task() for case in self.CASES]

    def ops(self, r):
        out = []
        for j, i in enumerate(self.ROUND):
            case, expect = self.CASES[i], self.ref[i]
            seed = hash_seed(f"{self.name}/{self.seed}/{r}/{j}")
            monotone = case.model == "game" and not case.subsidy
            out.append(Op(
                lambda spec=case.spec(seed): fg.aggregate(spec),
                lambda rep, c=case, e=expect, m=monotone: checks.population(
                    report_fields(rep, c.count), e, m),
                households=case.count))
        return out


class PopulationClosedForm(Population):
    name = "population_closed_form"
    CASES = (PopulationCase("game", 5000, ANCHOR_PREFS, **ANCHOR_INCOMES),
             PopulationCase("benchmark", 5000, ANCHOR_PREFS, **ANCHOR_INCOMES))


class PopulationRootFinding(Population):
    name = "population_root_finding"
    CASES = (PopulationCase("extended", 1000, ANCHOR_PREFS, **ANCHOR_INCOMES),
             PopulationCase("game", 250, UNIT_PREFS, (0.0, 0.5), (0.0, 0.5), subsidy=0.5))


def hash_seed(text: str) -> int:
    return random.Random(text).getrandbits(63)


# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_cli(root: str, out_dir: str, argv: list[str], trace_path: str | None) -> CliResult:
    """One CLI call in a fresh interpreter, loaded from ``src`` like the tests.

    Output goes to files in ``out_dir`` so the child can be reaped with
    ``wait4``, which gives its peak memory.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    if trace_path is None:
        cmd = [sys.executable, "-m", "fertgames.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(root, "perfbench", "traced_cli.py"),
               trace_path, *argv]
    out_path, err_path = os.path.join(out_dir, "cli.out"), os.path.join(out_dir, "cli.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=root, env=env)
        killer = threading.Timer(60.0, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
        return CliResult(proc.returncode, out.read(), err.read(), usage.ru_maxrss)


def parse_scenario_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    return values


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(_cell, ln.split(",")))) for ln in lines[1:]]


def solve_row_fields(row: dict) -> dict:
    out = {k: row[k] for k in ("c_w", "c_m", "u_w", "u_m", "interior")}
    out["n"] = row["n_star"]
    if row["model"] != "benchmark":
        out["rho"] = row["rho_star"]
        out["wife_participates"] = row["wife_participates"]
        out["husband_participates"] = row["husband_participates"]
    if "root_count" in row:
        out["positive_roots"] = int(row["root_count"])
    return out


def statics_rows_fields(text: str) -> dict:
    out = {"d_rho": {}, "d_n": {}, "fd_rho": {}, "fd_n": {}}
    for row in csv_rows(text):
        key = row["param"]
        if key == "income_ratio":
            out["d_n_ratio"], out["fd_n_ratio"] = row["analytic_n"], row["fd_n"]
            continue
        for col in ("rho", "n"):
            out["d_" + col][key] = row["analytic_" + col]
            out["fd_" + col][key] = row["fd_" + col]
        note = row["regime_note"]
        if note:
            out["sign_" + key] = int(note[note.index("(") + 1:note.index(")")])
    return out


def population_rows_fields(text: str, count: int) -> dict:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    summary = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    deciles = [ln.split(",") for ln in lines[3:]]
    return {"count": count, "decile_counts": [int(d[1]) for d in deciles],
            "decile_means": [float(d[2]) for d in deciles],
            "mean_fertility": summary["mean_fertility"],
            "childless_share": summary["childless_share"],
            "mean_income_ratio": summary["mean_income_ratio"]}


class CliSession(Workload):
    """Subprocess CLI calls, one closed-loop client.

    Each round solves the four repository scenarios, then runs statics,
    threshold, a 13-step sweep with an SVG, and a small population on one of
    VARIANTS seeded game scenarios written at set-up.
    """

    name = "cli_session"
    child_processes = True
    VARIANTS = 8
    HOUSEHOLDS = 400
    STEPS = 13
    trace_dir: str | None = None

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.cli_dir = os.path.join(out_dir, "cli")
        os.makedirs(self.cli_dir, exist_ok=True)
        self.fixed = sorted(glob.glob(os.path.join(root, "scenarios", "*.scn")))
        self.fixed_raw = [parse_scenario_file(path) for path in self.fixed]
        # beta is inert in the game, where a scenario may omit it.
        self.fixed_params = [{k: float(raw.get(k, 1.0)) for k in PARAM_KEYS}
                             for raw in self.fixed_raw]
        self.variants = []
        for v, p in enumerate(draw_households(random.Random(f"cli/{seed}"), self.VARIANTS)):
            path = os.path.join(self.cli_dir, f"variant{v}.scn")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("model = game\n")
                fh.writelines(f"{k} = {p[k]!r}\n" for k in PARAM_KEYS if k != "beta")
            t = p["alpha"] * p["gamma"] * p["a_m"] / p["delta"]
            lo, hi = 0.25 * t, 1.25 * t
            xs = [lo + (hi - lo) * i / self.STEPS for i in range(self.STEPS + 1)]
            self.variants.append((path, p, lo, hi, xs))
        self.calls = 0

    def reference_tasks(self):
        tasks = []
        for raw, p in zip(self.fixed_raw, self.fixed_params):
            model = raw["model"]
            if model == "game" and float(raw.get("subsidy", 0)) > 0:
                tasks.append({"route": "subsidized", "p": p, "subsidy": float(raw["subsidy"])})
            else:
                tasks.append({"route": model, "p": p})
        for _, p, _, _, xs in self.variants:
            tasks += [{"route": "statics", "p": p}, {"route": "threshold", "p": p},
                      {"route": "population", "model": "game", "prefs": p,
                       "aw_dist": (math.log(p["a_w"]), 0.5),
                       "am_dist": (math.log(p["a_m"]), 0.5)}]
            tasks += [{"route": "game", "p": dict(p, a_w=x)} for x in xs]
        return tasks

    def _call(self, argv):
        trace_path = None
        if self.trace_dir is not None:
            trace_path = os.path.join(self.trace_dir, f"call{self.calls}.spans")
        self.calls += 1
        return lambda: run_cli(self.root, self.out_dir, argv, trace_path)

    def ops(self, r):
        out = []
        for path, raw, p, ref in zip(self.fixed, self.fixed_raw, self.fixed_params, self.ref):
            subsidy = float(raw.get("subsidy", 0))
            out.append(Op(self._call(["solve", path]),
                          lambda res, p=p, ref=ref, s=subsidy, m=raw["model"]: self._solve_check(
                              res, p, ref, s, m),
                          fault="F1" if subsidy else None))
        v = r % self.VARIANTS
        path, p, lo, hi, xs = self.variants[v]
        base = len(self.fixed) + v * (3 + len(xs))
        stat, thr, expect = self.ref[base:base + 3]
        sweep_refs = self.ref[base + 3:base + 3 + len(xs)]
        sweep_out = os.path.join(self.cli_dir, f"sweep{v}.csv")
        sweep_svg = os.path.join(self.cli_dir, f"sweep{v}.svg")
        pop_seed = hash_seed(f"cli/{self.seed}/{r}") % 2**31
        out += [
            Op(self._call(["statics", path]),
               lambda res: self._ok(res) or checks.statics(
                   statics_rows_fields(res.stdout), stat, p)),
            Op(self._call(["threshold", path]),
               lambda res: self._ok(res) or checks.threshold(
                   csv_rows(res.stdout)[0]["threshold"], thr)),
            Op(self._call(["sweep", path, "--param", "a_w", "--from", repr(lo), "--to", repr(hi),
                           "--steps", str(self.STEPS), "--out", sweep_out, "--svg", sweep_svg]),
               lambda res: self._ok(res) or self._sweep_check(
                   sweep_out, sweep_svg, p, xs, sweep_refs),
               households=len(xs)),
            Op(self._call(["population", path, "--households", str(self.HOUSEHOLDS),
                           "--seed", str(pop_seed)]),
               lambda res: self._ok(res) or checks.population(
                   population_rows_fields(res.stdout, self.HOUSEHOLDS), expect, True),
               households=self.HOUSEHOLDS),
        ]
        return out

    @staticmethod
    def _ok(res: CliResult) -> list[str]:
        if res.code != 0:
            return [f"exit code {res.code}: {res.stderr.strip()[-300:]}"]
        return []

    def _solve_check(self, res, p, ref, subsidy, model):
        problems = self._ok(res)
        if problems:
            return problems
        fields = solve_row_fields(csv_rows(res.stdout)[0])
        return checks.outcome(fields, ref, p, subsidy=subsidy,
                              log_children=model == "benchmark")

    @staticmethod
    def _sweep_check(csv_path, svg_path, p, xs, refs):
        # Read and remove both files, so a later call must write them anew.
        with open(csv_path, encoding="utf-8") as fh:
            rows = csv_rows(fh.read())
        with open(svg_path, encoding="utf-8") as fh:
            svg = fh.read()
        os.remove(csv_path)
        os.remove(svg_path)
        if len(rows) != len(xs):
            return [f"sweep has {len(rows)} rows, want {len(xs)}"]
        problems = []
        for x, row, ref in zip(xs, rows, refs):
            checks.close(problems, "param_value", row["param_value"], x, x)
            problems += checks.outcome(solve_row_fields(row), ref, dict(p, a_w=x))
        return problems + checks.svg_polyline(svg, [row["n_star"] for row in rows],
                                              p["gamma"] / p["delta"])


WORKLOADS = {w.name: w for w in (CliSession, PopulationClosedForm,
                                 PopulationRootFinding, LibrarySolves)}


def measure(workload: Workload, seconds: float) -> dict:
    """Run whole rounds until ``seconds`` have passed; time each operation.

    Times are at reference speed (see ``calibration``): each is multiplied
    by the mean of the speed factors measured right before and right after
    it, around each operation where ``calibrate_each_op`` is set and around
    the whole round otherwise. Returns the times of the operations that did
    not fail, the time of all operations, attempted and failed counts by
    fault slice, households completed, and the problems found outside the
    known faults.
    """
    times_ns = array("d")  # compact, so the run's own memory stays flat
    factors = array("d")
    attempted = households = 0
    busy_ns = raw_busy_ns = 0.0
    failed: dict = {}
    unexpected: list[str] = []
    maxrss_kb = 0
    per_op = workload.calibrate_each_op
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        ops = workload.ops(r)
        timed = []  # raw ns, completed, households, factor (None: the round's)
        if not per_op:
            round_before = calibration.factor()
        for op in ops:
            if per_op:
                before = calibration.factor()
            start = time.perf_counter_ns()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a failing call is counted, not fatal
                result, error = None, exc
            raw = time.perf_counter_ns() - start
            if per_op:
                factors.append((before + calibration.factor()) / 2)
            if error is not None:
                problems = [f"raised {type(error).__name__}: {error}"]
            else:
                try:
                    problems = op.check(result)
                except Exception as exc:  # unparseable output is a wrong output
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if isinstance(result, CliResult):
                maxrss_kb = max(maxrss_kb, result.maxrss_kb)
            if problems:
                failed[op.fault] = failed.get(op.fault, 0) + 1
                if op.fault is None:
                    unexpected.append(f"{workload.name} round {r}: {'; '.join(problems)}")
            timed.append((raw, not problems, op.households, factors[-1] if per_op else None))
        if not per_op:
            factors.append((round_before + calibration.factor()) / 2)
        for raw, completed, n, factor in timed:
            factor = factors[-1] if factor is None else factor
            attempted += 1
            raw_busy_ns += raw
            busy_ns += raw * factor
            if completed:
                times_ns.append(raw * factor)
                households += n
        r += 1
        if time.perf_counter() >= deadline:
            break
    return {"times_ns": times_ns, "attempted": attempted, "failed": failed,
            "households": households, "busy_ns": busy_ns, "raw_busy_ns": raw_busy_ns,
            "factors": factors, "unexpected": unexpected, "child_maxrss_kb": maxrss_kb}
