"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_session, population_closed_form, population_root_finding,
library_solves (see README.md). The program is loaded from ``src``; the
reference answers are computed in a separate process by ``reference.py``.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` the run measures half the time untraced and half traced
and carries the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
TIMEOUT_S = 120


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> float:
    """Import fertgames from this checkout's ``src``; returns import ms."""
    if not os.path.isfile(os.path.join(SRC, "fertgames", "__init__.py")):
        _fail(f"no fertgames package under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import fertgames.cli

    elapsed_ms = (time.perf_counter() - start) * 1e3
    if not os.path.abspath(fertgames.cli.__file__).startswith(SRC + os.sep):
        _fail(f"fertgames was imported from {fertgames.cli.__file__}, not {SRC}")
    return elapsed_ms


def _child(cmd: list[str], stdin: str | None = None) -> str:
    proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=TIMEOUT_S)
    if proc.returncode != 0:
        _fail(f"{' '.join(cmd[1:3])} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def setup_times(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports the program and
    builds the workload's inputs, and median import time inside it, both at
    reference speed."""
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        factor = calibration.factor()
        start = time.perf_counter()
        out = _child([sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
                      "--workload", workload, "--seed", str(seed)])
        walls.append((time.perf_counter() - start) * factor)
        imports.append(json.loads(out)["import_ms"] * factor)
    return statistics.median(walls), statistics.median(imports)


def tail(ms: list[float]) -> float:
    """The highest whole percentile (at most the 99th) with at least ten
    samples beyond it, by nearest rank; the median below 20 samples."""
    n = len(ms)
    for k in range(99, 49, -1):
        rank = -(-k * n // 100)  # ceil(k*n/100)
        if n - rank >= 10:
            return ms[rank - 1]
    return statistics.median(ms)


def end_to_end(stats: dict) -> dict:
    ms = sorted(t / 1e6 for t in stats["times_ns"])
    busy_s = stats["busy_ns"] / 1e9
    if not ms:  # every operation failed; the run is reported incorrect
        ms = [0.0]
    return {
        "call_ms_p50": (statistics.median(ms), "ms"),
        "call_ms_tail": (tail(ms), "ms"),
        "households_per_s": (stats["households"] / busy_s, "1/s"),
        "solves_per_s": (len(ms) / busy_s, "1/s"),
    }


def per_layer(tracer, traced: dict, plain: dict, import_ms: float) -> dict:
    summary = tracer.summary()
    factor = statistics.median(traced["factors"])

    def mean(name: str, unit_ns: float, column: int = 1) -> float:
        """Mean span time per call at reference speed; 0 if never called."""
        row = summary.get(name)
        return row[column] / row[0] / unit_ns * factor if row else 0.0

    def per(count: float, base: float) -> float:
        return count / base if base else 0.0

    oracle_calls = summary.get("oracle.oracle_game", [0])[0]
    out = {
        "cli.import_ms": (import_ms, "ms"),
        "cli.run_command_ms": (mean("cli.run_command", 1e6), "ms"),
        "cli.parse_scenario_us": (mean("cli.parse_scenario", 1e3), "us"),
        "svg.line_chart_us": (mean("svg.line_chart", 1e3), "us"),
        "core.validate_params_per_household": (
            per(tracer.counts.get("core.validate_params", 0), traced["households"]), "count"),
        "population.sample_us_per_household": (mean("population.sample_household", 1e3), "us"),
        "population.aggregate_self_ms": (mean("population.aggregate", 1e6, column=2), "ms"),
        "core.benchmark_solve_us": (mean("core.benchmark_solve", 1e3), "us"),
        "game.solve_game_us": (mean("game.solve_game", 1e3), "us"),
        "extended.solve_extended_us": (mean("extended.solve_extended", 1e3), "us"),
        "extended.real_roots_us": (mean("extended.real_roots", 1e3), "us"),
        "oracle.oracle_game_us": (mean("oracle.oracle_game", 1e3), "us"),
        "oracle.evals_per_solve": (per(tracer.counts.get("oracle.evals", 0), oracle_calls),
                                   "count"),
        "statics.build_report_us": (mean("statics.build_report", 1e3), "us"),
        "game.fertility_threshold_us": (mean("game.fertility_threshold", 1e3), "us"),
    }
    traced_e2e, plain_e2e = end_to_end(traced), end_to_end(plain)
    for key, (value, unit) in traced_e2e.items():
        out[f"trace_overhead.{key}"] = (value - plain_e2e[key][0], unit)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_ms = _import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    out_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        cls(ROOT, args.seed, out_dir)
        print(json.dumps({"import_ms": import_ms}))
        return

    # One CPU for this process and its children, so the calibration kernel
    # runs where the measured work runs (see calibration.py).
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"perfbench: running unpinned: {exc}", file=sys.stderr)
    setup_s, import_ms = setup_times(args.workload, args.seed)
    workload = cls(ROOT, args.seed, out_dir)
    tasks = workload.reference_tasks()
    workload.ref = json.loads(_child([sys.executable, os.path.join(HERE, "reference.py")],
                                     stdin=json.dumps(tasks)))

    if args.trace == 0:
        runs = [workloads.measure(workload, args.seconds)]
        metrics = end_to_end(runs[0])
        metrics["setup_s"] = (setup_s, "s")
        if workload.child_processes:
            rss_kb = runs[0]["child_maxrss_kb"]
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    else:
        plain = workloads.measure(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        if workload.child_processes:
            workload.trace_dir = os.path.join(out_dir, "spans")
            os.makedirs(workload.trace_dir, exist_ok=True)
        else:
            tracer.install()
        try:
            traced = workloads.measure(workload, args.seconds / 2)
        finally:
            tracer.uninstall()
        if workload.child_processes:
            for name in sorted(os.listdir(workload.trace_dir)):
                path = os.path.join(workload.trace_dir, name)
                tracer.merge(path)
                os.remove(path)
        tracer.write(os.path.join(out_dir, "trace.spans.gz"))
        runs = [plain, traced]
        metrics = per_layer(tracer, traced, plain, import_ms)

    unexpected = [p for run in runs for p in run["unexpected"]]
    for problem in unexpected[:20]:
        print(f"perfbench: wrong result: {problem}", file=sys.stderr)
    failed = {}
    for run in runs:
        for fault, n in run["failed"].items():
            failed[fault] = failed.get(fault, 0) + n
    raw_busy_s = sum(r["raw_busy_ns"] for r in runs) / 1e9
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{sum(r['attempted'] for r in runs)} attempted, failed by fault {failed}; "
          f"{sum(r['households'] for r in runs) / raw_busy_s:.6g} households/s unadjusted, "
          f"speed factor median {statistics.median(runs[0]['factors']):.4f}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
