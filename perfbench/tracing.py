"""Spans and call counts around fertgames functions, installed from outside.

``Tracer.install`` replaces functions in the loaded fertgames modules with
wrappers; the program's source is untouched. It wraps every public function
that one fertgames module imports from another, plus the functions named in
``LAYERS`` whose time a per-layer metric reports. Every binding of a wrapped
function is replaced, in its own module and in each importer, so calls from
inside its module are seen too.

Spans (name, start, end, parent) are kept in memory in one flat integer
array and written out by ``write``. Functions in ``COUNT_ONLY`` are called
thousands of times per population and take about a microsecond, so they are
counted, not timed.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

PACKAGE = "fertgames"
LAYERS = {
    "cli": ("run_command", "parse_scenario"),
    "extended": ("real_roots",),
    "oracle": ("maximize_1d",),
    "population": ("aggregate", "sample_households", "sample_household"),
    "statics": ("build_report",),
}
COUNT_ONLY = ("validate_params", "utility_linear_pair", "utility_log_pair")
EVALS = "oracle.evals"  # objective evaluations inside maximize_1d


def _modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _short(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # name id, start ns, end ns, parent index
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn):
        name_id = self._id(_short(fn))
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts = self.counts
        counts_evals = fn.__name__ == "maximize_1d"

        def wrapper(*args, **kwargs):
            if counts_evals:
                objective = args[0]

                def counted(x):
                    counts[EVALS] = counts.get(EVALS, 0) + 1
                    return objective(x)

                args = (counted,) + args[1:]
            index = len(spans) // 4
            spans.extend((name_id, 0, 0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[4 * index + 1] = start
                spans[4 * index + 2] = end

        return wrapper

    def _count(self, fn):
        name, counts = _short(fn), self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = _modules()
        targets = {}
        for mod in modules:
            for value in vars(mod).values():
                if (inspect.isfunction(value) and value.__module__ != mod.__name__
                        and value.__module__.startswith(PACKAGE + ".")
                        and not value.__name__.startswith("_")):
                    targets[id(value)] = value
        for short, names in LAYERS.items():
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            for name in names if mod else ():
                fn = getattr(mod, name)
                targets[id(fn)] = fn
        for fn in targets.values():
            wrapper = self._count(fn) if fn.__name__ in COUNT_ONLY else self._span(fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in self._patched:
            setattr(mod, attr, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, total and self nanoseconds."""
        spans = self.spans
        count = len(spans) // 4
        child = [0] * count
        for i in range(count):
            parent = spans[4 * i + 3]
            if parent >= 0:
                child[parent] += spans[4 * i + 2] - spans[4 * i + 1]
        out: dict[str, list[int]] = {}
        for i in range(count):
            duration = spans[4 * i + 2] - spans[4 * i + 1]
            row = out.setdefault(self.names[spans[4 * i]], [0, 0, 0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return out

    def write(self, path: str) -> None:
        """One line per span: name, start, end, parent line (-1 for none);
        then one ``#count name value`` line per counter. A path ending in
        ``.gz`` is gzip-compressed."""
        spans = self.spans
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "wt", encoding="utf-8") as fh:
            fh.writelines(
                f"{self.names[spans[i]]}\t{spans[i + 1]}\t{spans[i + 2]}\t{spans[i + 3]}\n"
                for i in range(0, len(spans), 4))
            fh.writelines(f"#count\t{k}\t{v}\n" for k, v in sorted(self.counts.items()))

    def merge(self, path: str) -> None:
        """Append the spans and counts another process wrote with ``write``."""
        offset = len(self.spans) // 4
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                fields = line.rstrip("\n").split("\t")
                if fields[0] == "#count":
                    self.counts[fields[1]] = self.counts.get(fields[1], 0) + int(fields[2])
                    continue
                parent = int(fields[3])
                self.spans.extend((self._id(fields[0]), int(fields[1]), int(fields[2]),
                                   parent + offset if parent >= 0 else -1))
