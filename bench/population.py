"""Wall time and peak memory of ``aggregate`` at 10^3 to 10^6 households.

Usage (from the repository root):

    python3 bench/population.py [--quick]

Writes ``BENCH_population.json`` at the repository root and prints one line
per point. A point is one model at one population size, in the
configuration of CI's population memory smoke: seed 11, incomes
``LogNormal(0, 0.5)`` and ``LogNormal(ln 3, 0.5)``, ``alpha`` uniform on
[1.5, 3], the other preferences 1, and the game with and without a subsidy
of 0.5, the extended model and the benchmark model.

Every run of a point is a fresh interpreter, pinned to one CPU, that loads
numpy and the program from this checkout's ``src``, times one
``aggregate`` call and reads its own ``ru_maxrss``. The call pays the
first-use set-up that a ``fertgames population`` call pays after its
imports: numpy's random generators and the solver's array operations. Each
point runs ``REPEATS`` times, with the points interleaved so that a slow
stretch of a shared host falls on all of them; the file reports the median
and the quartiles of the wall time and the median peak RSS. ``--quick``
runs 10^3 and 10^4 households once each, only to keep the script working,
and prints the JSON document instead of writing it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "BENCH_population.json")

CASES = (("game", 0.0), ("extended", 0.0), ("game", 0.5), ("benchmark", 0.0))
COUNTS = (10**3, 10**4, 10**5, 10**6)
QUICK_COUNTS = (10**3, 10**4)
REPEATS = 5

# One run: argv is model, subsidy, households, CPU. Prints the aggregate
# call's wall time in seconds and the process's peak RSS in KiB (Linux).
RUN = """
import math, os, resource, sys, time
model, subsidy, count, cpu = sys.argv[1], float(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
os.sched_setaffinity(0, {cpu})
import numpy
from fertgames import LogNormalSpec, PopulationSpec, aggregate
spec = PopulationSpec(count=count, seed=11, aw_dist=LogNormalSpec(0.0, 0.5),
                      am_dist=LogNormalSpec(math.log(3.0), 0.5), alpha=(1.5, 3.0),
                      delta=1.0, gamma=1.0, beta=1.0, model=model, subsidy=subsidy)
start = time.perf_counter()
aggregate(spec)
seconds = time.perf_counter() - start
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def git(*args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def header(cpu: int, repeats: int) -> dict:
    import numpy

    status = git("status", "--porcelain", "--", "src")
    return {
        "commit": git("rev-parse", "HEAD"),
        # The measured source differs from the commit.
        "src_modified": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "repeats": repeats,
    }


def run(model: str, subsidy: float, count: int, cpu: int) -> tuple[float, float]:
    """``(seconds, peak RSS in MB)`` of one fresh process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", RUN, model, str(subsidy), str(count), str(cpu)],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    seconds, kib = proc.stdout.split()
    return float(seconds), int(kib) / 1024


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="10^3 and 10^4 households, one run each, printed, not written")
    args = parser.parse_args()
    counts, repeats = (QUICK_COUNTS, 1) if args.quick else (COUNTS, REPEATS)
    cpu = max(os.sched_getaffinity(0))
    points = [(model, subsidy, count) for count in counts for model, subsidy in CASES]
    runs = {point: [] for point in points}
    for _ in range(repeats):
        for point in points:
            runs[point].append(run(*point, cpu))

    rows = []
    for (model, subsidy, count), results in runs.items():
        q1, median, q3 = quartiles([seconds for seconds, _ in results])
        rss = statistics.median(mb for _, mb in results)
        rows.append({"model": model, "subsidy": subsidy, "households": count,
                     "seconds_median": median, "seconds_q1": q1, "seconds_q3": q3,
                     "peak_rss_mb_median": rss})
        print(f"{model:9} subsidy {subsidy:3}  {count:>9,} households  "
              f"{median:8.4f} s (IQR {q1:.4f}-{q3:.4f})  {rss:6.1f} MB")
    document = json.dumps({"header": header(cpu, repeats), "points": rows}, indent=1)
    if args.quick:  # keep the committed measurement
        print(document)
        return
    with open(OUT, "w") as f:
        f.write(document + "\n")


if __name__ == "__main__":
    main()
