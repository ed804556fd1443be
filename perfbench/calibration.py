"""Machine-speed calibration for the benchmark's timings.

On a shared host the same Python work takes up to twice as long in some
stretches as in others, and the stretches last tens of seconds, longer than
a run. Measured on the 2-CPU machine this benchmark was built on, one
library_solves round of 64 households took 52 ms in quiet stretches and
102 ms in busy ones.

So every timing is multiplied by ``factor()``: the nominal time of a fixed
pure-Python kernel over its median time measured next to the timed work
(``workloads.measure`` averages the factors taken right before and right
after). Times are therefore reported at a reference speed, the speed at
which the kernel takes ``NOMINAL_NS``, which is what it takes on that
machine in its quiet stretches. The run and its children share one CPU, so
the kernel runs where the measured work runs. Over ten 25-second runs per
workload, this cut the spread (inter-quartile range over median) of
households per second from 16.0% to 4.7% on cli_session, 6.6% to 1.8% on
population_closed_form, 11.3% to 2.8% on population_root_finding and 9.3%
to 4.2% on library_solves. The kernel is independent of fertgames, so a
change to the program moves the adjusted numbers as it moves the raw ones.
"""

from __future__ import annotations

import math
import statistics
import time

NOMINAL_NS = 800_000
REPEATS = 5


def _kernel() -> int:
    """Float arithmetic and calls into math, as the solvers run, then short
    strings and a dict, as interpreter start-up and imports build."""
    acc = 0.0
    for i in range(1, 1000):
        x = i * 0.5
        acc += math.sqrt(x) / (1.0 + math.log(x + 1.0))
    names = [str(i) for i in range(3000)]
    table = {name: i for i, name in enumerate(names)}
    return len(table) + int(acc)


def factor() -> float:
    """Multiply a time measured now by this to get it at reference speed."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        _kernel()
        samples.append(time.perf_counter_ns() - start)
    return NOMINAL_NS / statistics.median(samples)
