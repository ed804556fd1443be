"""Paired timing of the population workloads: this checkout against a git revision.

Usage (from the repository root):

    python3 bench/ab.py [--quick] REV

Extracts ``src/fertgames`` at ``REV`` with ``git archive`` into a temporary
directory and loads it as a second package, ``fertgames_base``, beside
``fertgames`` from this checkout's ``src``, in one process. The modules of
the package import each other by relative name only, so the two trees share
no module.

The cases are perfbench's population workloads (``population_closed_form``
and ``population_root_finding``), read from ``perfbench/workloads.py``. A
pair is one round of a workload's ``aggregate`` calls on each tree, with the
same seeds; the trees alternate which one runs first, so that a slow stretch
of a shared host falls on both. A pair's ratio is the base's time over this
checkout's: above 1 where this checkout is faster. For each workload the
script prints the median ratio, its quartiles, the pairs this checkout won
and the pairs whose reports were identical on both trees. A tree against
itself reads 1 within a few percent. A full run makes ``PAIRS`` pairs a
workload, in about 15 s; ``--quick`` makes 20, only to keep the script
working.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy  # noqa: E402

import fertgames  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = (workloads.PopulationClosedForm, workloads.PopulationRootFinding)
PAIRS, QUICK_PAIRS, WARMUP = 2000, 20, 20


def load_revision(rev: str, into: str):
    """The package ``src/fertgames`` at ``rev``, loaded as ``fertgames_base``."""
    archive = subprocess.run(["git", "archive", rev, "src/fertgames"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    package = os.path.join(into, "src", "fertgames")
    spec = importlib.util.spec_from_file_location(
        "fertgames_base", os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def population(fg, case, seed: int):
    """perfbench's ``PopulationCase.spec``, built by the package ``fg``."""
    return fg.PopulationSpec(
        count=case.count, seed=seed, aw_dist=fg.LogNormalSpec(*case.aw_dist),
        am_dist=fg.LogNormalSpec(*case.am_dist), model=case.model, subsidy=case.subsidy,
        **case.prefs)


def timed_round(fg, workload, r: int) -> tuple[float, list[str]]:
    """``(seconds, reprs of the reports)`` of round ``r`` of ``workload``."""
    specs = [population(fg, workload.CASES[i], workloads.hash_seed(f"{workload.name}/ab/{r}/{j}"))
             for j, i in enumerate(workload.ROUND)]
    start = time.perf_counter()
    reports = [fg.aggregate(spec) for spec in specs]
    return time.perf_counter() - start, list(map(repr, reports))


def pair_ratios(base, workload, pairs: int) -> tuple[list[float], int]:
    """The pairs' ratios, base over this checkout, and the count of pairs
    whose reports were identical; the first ``WARMUP`` pairs are not kept."""
    ratios, same = [], 0
    for r in range(WARMUP + pairs):
        if r % 2:
            head, head_reports = timed_round(fertgames, workload, r)
            seconds, reports = timed_round(base, workload, r)
        else:
            seconds, reports = timed_round(base, workload, r)
            head, head_reports = timed_round(fertgames, workload, r)
        if r >= WARMUP:
            ratios.append(seconds / head)
            same += reports == head_reports
    return ratios, same


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare this checkout against")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_PAIRS} pairs per workload, only to check that it runs")
    args = parser.parse_args()
    pairs = QUICK_PAIRS if args.quick else PAIRS
    with tempfile.TemporaryDirectory() as tmp:
        base = load_revision(args.rev, tmp)
        rev = subprocess.run(["git", "rev-parse", "--short", args.rev], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
        print(f"base {rev} against this checkout; python {platform.python_version()}, "
              f"numpy {numpy.__version__}; ratio = base seconds / this checkout's")
        for workload in WORKLOADS:
            ratios, same = pair_ratios(base, workload, pairs)
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            won = sum(ratio > 1.0 for ratio in ratios)
            print(f"{workload.name}: {pairs} pairs, median ratio {median:.3f} "
                  f"(quartiles {q1:.3f}-{q3:.3f}), this checkout faster in {won}, "
                  f"identical reports in {same}")


if __name__ == "__main__":
    main()
