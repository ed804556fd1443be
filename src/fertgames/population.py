"""Heterogeneous-population aggregation with a childbirth-subsidy lever.

Households draw incomes from log-normal distributions and preferences from
fixed values or uniform ranges. Draws depend only on (seed, index), by one
keyed stream per block of ``_BLOCK`` households (Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC'11): household ``i`` is row
``i % _BLOCK`` of block ``b = i // _BLOCK``. Its two standard normals, for
the incomes, are that row of
``numpy.random.default_rng([seed, b, 1]).standard_normal((rows, 2))``, and
its uniforms, one per ranged preference in the order alpha, delta, gamma,
beta, that row of ``default_rng([seed, b, 2]).random((rows, k))``. Both
calls fill row by row, so a household draws the same whatever the size of
its population or the cuts of its slices, and a test pins these calls. Kind
0 is not used: SeedSequence pads its entropy with zero words, so
``[seed, b, 0]`` would seed as ``[seed, b]`` does. Deciles rank the
households by (income ratio, index). Up to ``_PACKED`` households one sort
of int64 keys ranks them, each key a ratio's bits with the household's
index in its low bits; for more households, or where two keys share their
high bits, numpy's default argsort ranks them, and a stable one only where
two ratios are equal.

A population is walked once, in slices of ``_CHUNK`` households: each
slice is drawn, solved and reduced to its fertility, transfer and income
ratio before the next is drawn, so no draw outlives its slice. Every model
is solved over a slice at once, so that every n* and rho* is bit-identical
to a scalar solve: the pooled budget as array expressions in the scalar
operation order, and the leader condition that the transfer game, with or
without a subsidy, shares with the extended model by the one body of
:mod:`fertgames.extended` that also solves a single household. A population
refuses what it cannot report. Each check of the scalar route on what
``aggregate`` reports (positive parameters, preference order, transfer,
cubic range, allocation range) is an array mask, as is a finite income
ratio, so a household is refused where its scalar solve is, or where its
income ratio overflows. A mean is printed to 12 digits, so a mean beyond
the float range, an income-ratio mean below its normal range, or another
mean that is neither 0 nor normal raises NumericalFailure once every
household is solved. Utilities, which ``aggregate`` does not report, are
not computed, so a household whose scalar solve refuses only a utility
beyond the float range is answered. The first refused household of a
slice is not re-solved: the scalar route runs on it once, only to raise
its error. A positive subsidy is solvable under the transfer game only. It
is funded from general revenue: it raises the wife's effective per-child
receipt without touching either spouse's budget.

Aggregates focus on the relative-income story: fertility by wife-to-husband
income-ratio decile falls as the ratio rises, and the childless share tracks
how much of the population sits past the fertility threshold.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import TYPE_CHECKING

from .core import (
    MODELS,
    PARAM_NAMES,
    ModelParams,
    Record,
    _normal,
    _record,
    benchmark_solve,
    check_subsidy,
    finite,
    pooled_allocation,
)
from .errors import HouseholdSolveFailure, InvalidDistribution, ModelError, NumericalFailure
from .extended import leader_optima, solve_extended
from .game import solve_game

if TYPE_CHECKING:
    import numpy as np

PREFERENCES = ("alpha", "delta", "gamma", "beta")

# A preference entry is either a fixed value or a (lo, hi) uniform range.
PreferenceDist = float | tuple[float, float]

# Households per keyed block of draws; fixed, since it is part of the draw
# contract.
_BLOCK = 1 << 14
# Up to this many households, the decile rank packs each household's index
# into the low bits of its income ratio's bits. The 36 fraction bits left
# tell apart any two ratios that differ by more than about 1.5e-11 relative.
_PACKED = 1 << 16
# Bytes per household that _ratio_order holds at its peak: an int64 order or
# key array and a sorted copy or XOR of neighbours, 8 each, and a 1-byte mask.
_RANK_BYTES = 17
# Households drawn, solved and reduced per slice, which bounds the memory of
# the drawn columns and the solver's temporaries. Slices need not align with
# blocks.
_CHUNK = 1 << 14


class LogNormalSpec(Record):
    """Log-normal income distribution: exp of Normal(mu, sigma)."""

    mu: float
    sigma: float


class PopulationSpec(Record):
    """A seeded population, checked when built: a count or seed out of
    range, an unusable distribution, an unknown model or a subsidy the model
    cannot take raises InvalidDistribution."""

    count: int
    seed: int
    aw_dist: LogNormalSpec
    am_dist: LogNormalSpec
    alpha: PreferenceDist
    delta: PreferenceDist
    gamma: PreferenceDist
    beta: PreferenceDist
    model: str = "game"
    subsidy: float = 0.0

    def __post_init__(self):
        # Indices stay below 2**32, the range over which a test pins the
        # draw contract.
        if not (isinstance(self.count, int) and 1 <= self.count < 2**32):
            raise InvalidDistribution(
                f"count must be an integer in [1, 2**32), got {self.count!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise InvalidDistribution(f"seed must fit in 64 bits, got {self.seed!r}")
        for name, dist in (("aw_dist", self.aw_dist), ("am_dist", self.am_dist)):
            if not (finite(dist.mu) and finite(dist.sigma) and dist.sigma >= 0):
                raise InvalidDistribution(f"{name}: need finite mu and sigma >= 0, got {dist!r}")
        for name in PREFERENCES:
            _check_dist(name, getattr(self, name))
        if self.model not in MODELS:
            raise InvalidDistribution(f"model must be one of {MODELS}, got {self.model!r}")
        check_subsidy(self.model, self.subsidy)


class AggregateReport(Record):
    """Population-level fertility statistics.

    ``mean_transfer`` averages the equilibrium transfer over interior
    households only and is None when no household has children (or the model
    has no transfer). Decile buckets are equal-count by income ratio, lowest
    ratio first; empty buckets carry NaN means.
    """

    mean_fertility: float
    childless_share: float
    mean_transfer: float | None
    mean_income_ratio: float
    fertility_by_ratio_decile: tuple[float, ...]
    decile_counts: tuple[int, ...]
    notes: tuple[str, ...]


def _check_dist(name: str, dist: PreferenceDist) -> None:
    if isinstance(dist, tuple):
        if len(dist) != 2:
            raise InvalidDistribution(f"{name}: range must be (lo, hi), got {dist!r}")
        lo, hi = dist
        if not (finite(lo) and finite(hi) and 0 < lo <= hi):
            raise InvalidDistribution(f"{name}: need finite 0 < lo <= hi, got {dist!r}")
    elif isinstance(dist, (int, float)):
        if not (finite(dist) and dist > 0):
            raise InvalidDistribution(f"{name}: fixed value must be finite and > 0, got {dist!r}")
    else:
        raise InvalidDistribution(f"{name}: unsupported distribution {dist!r}")


# Drawn households are a struct of arrays, ``columns``: one column per
# ModelParams field, in field order, with one entry per household; a fixed
# preference stays a float.
def _params(columns: tuple, i: int) -> ModelParams:
    return ModelParams(*(v if isinstance(v, float) else float(v[i]) for v in columns))


def _rows(columns: tuple) -> list[ModelParams]:
    lists = (repeat(v) if isinstance(v, float) else v.tolist() for v in columns)
    return [ModelParams(*row) for row in zip(*lists)]


def _slices(count: int):
    """The ``(start, stop)`` of each slice of households, in order."""
    for start in range(0, count, _CHUNK):
        yield start, min(start + _CHUNK, count)


def _draw(spec: PopulationSpec, start: int, stop: int) -> tuple:
    """Draw households ``start`` to ``stop - 1``, a run that may cross
    blocks; each depends only on (seed, index). A block's generators draw
    its rows up to the last one wanted, and the rows before the first one
    wanted are dropped.

    Raises NonPositiveParameter, as ModelParams does, for the first
    household whose draw is not finite and positive (an income whose
    log-normal draw overflows or underflows).
    """
    import numpy as np

    ranged = [name for name in PREFERENCES if isinstance(getattr(spec, name), tuple)]
    normals, uniforms = np.empty((stop - start, 2)), np.empty((stop - start, len(ranged)))
    for block in range(start // _BLOCK, (stop - 1) // _BLOCK + 1):
        first = block * _BLOCK
        lo, hi = max(start, first), min(stop, first + _BLOCK)
        rows = slice(lo - start, hi - start)
        gen = np.random.default_rng([spec.seed, block, 1])
        normals[rows] = gen.standard_normal((hi - first, 2))[lo - first:]
        if ranged:
            gen = np.random.default_rng([spec.seed, block, 2])
            uniforms[rows] = gen.random((hi - first, len(ranged)))[lo - first:]

    values = {name: float(getattr(spec, name)) for name in PREFERENCES if name not in ranged}
    for j, name in enumerate(ranged):
        low, high = (float(v) for v in getattr(spec, name))
        values[name] = low + (high - low) * uniforms[:, j]
    with np.errstate(over="ignore", under="ignore"):
        for name, dist, column in (("a_w", spec.aw_dist, 0), ("a_m", spec.am_dist, 1)):
            values[name] = np.exp(float(dist.mu) + float(dist.sigma) * normals[:, column])
    columns = tuple(values[name] for name in PARAM_NAMES)

    # PopulationSpec has checked the preferences, so a range's lo + (hi - lo)*u
    # is finite and at least lo: only an income draw can leave the float range.
    a_w, a_m = values["a_w"], values["a_m"]
    valid = np.isfinite(a_w) & (a_w > 0) & np.isfinite(a_m) & (a_m > 0)
    if not valid.all():
        _params(columns, int(np.argmin(valid)))  # raises
    return columns


def sample_household(spec: PopulationSpec, index: int) -> ModelParams:
    """Draw household ``index``; depends only on (seed, index)."""
    if not (isinstance(index, int) and 0 <= index < 2**32):
        raise InvalidDistribution(f"household index must be in [0, 2**32), got {index!r}")
    return _params(_draw(spec, index, index + 1), 0)


def sample_households(spec: PopulationSpec) -> list[ModelParams]:
    return [p for start, stop in _slices(spec.count) for p in _rows(_draw(spec, start, stop))]


def _solve_household(spec: PopulationSpec, p: ModelParams):
    """The equilibrium of one household by the scalar route of its model."""
    if spec.model == "benchmark":
        return benchmark_solve(p)
    if spec.model == "game":
        return solve_game(p, spec.subsidy)
    return solve_extended(p, "high")


def _refuse(spec: PopulationSpec, p: ModelParams, index: int) -> None:
    """Raises HouseholdSolveFailure for household ``index``, which the array
    route refused, caused by the scalar route's error, or by that of its
    income ratio, or by a NumericalFailure if both answer it."""
    try:
        _solve_household(spec, p)
        p.income_ratio
    except ModelError as exc:
        raise HouseholdSolveFailure(index, exc, p) from exc
    cause = NumericalFailure("the array route refuses a household the scalar route answers")
    raise HouseholdSolveFailure(index, cause, p) from cause


def _solve_arrays(spec: PopulationSpec, alpha, delta, gamma, beta, a_w, a_m):
    """``(n, rho, ok)`` of a slice of households solved as arrays.

    ``benchmark_solve``'s allocation runs as array expressions in its scalar
    operation order, and the leader games run the body of ``leader_optimum``
    on arrays, so every n* and rho* (None for the benchmark model) has the
    scalar route's bits. Households outside ``ok`` are those whose
    ``pooled_allocation`` or ``leader_optimum`` refuses them: the scalar
    solve's refusals, less those of a utility beyond the float range.
    """
    import numpy as np

    if spec.model == "benchmark":
        with np.errstate(all="ignore"):
            c_w, c_m, n = pooled_allocation(alpha, delta, gamma, beta, a_w, a_m)
        return n, None, (alpha > delta) & _normal(c_w) & _normal(c_m) & _normal(n)
    paid = beta if spec.model == "extended" else 0.0
    n, rho, _, _, ok = leader_optima(alpha, delta, gamma, a_w, a_m, paid, spec.subsidy)
    return n, rho, ok


def _left_sum(values: np.ndarray, total: float | None = None) -> float | None:
    """Left-to-right sum, one rounding per addition, which defines every
    mean. It continues from ``total``, the sum of the values before, so a sum
    taken slice by slice has the bits of one taken at once; None while there
    are no values. ``cumsum`` adds in that order; numpy's ``sum`` adds
    pairwise, and the builtin ``sum`` compensates from Python 3.12 on."""
    import numpy as np

    if total is not None:
        values = np.concatenate(([total], values))
    return float(values.cumsum()[-1]) if len(values) else total


def _ratio_order(ratios: np.ndarray) -> np.ndarray:
    """The indices that sort ``ratios``, which are >= 0 and not NaN, equal
    ratios in index order.

    Up to ``_PACKED`` ratios, one in-place sort of int64 keys ranks them. A
    float >= 0 sorts as its bits do, and each key is a ratio's bits with the
    ratio's index in the low ``(count - 1).bit_length()`` bits. Where no two
    sorted keys share their high bits, no two ratios share them either, so
    the keys sort as (ratio, index) do and their low bits are the order.
    Otherwise, and for more ratios, numpy's default ``argsort``, vectorised
    where the CPU allows, ranks them; it is not stable, so the stable sort
    runs only when two sorted neighbours are equal.
    """
    import numpy as np

    count = len(ratios)
    if count <= _PACKED:
        mask = (1 << (count - 1).bit_length()) - 1
        keys = ratios.view(np.int64) & ~mask
        keys |= np.arange(count)
        keys.sort()
        if not np.count_nonzero((keys[1:] ^ keys[:-1]) <= mask):
            keys &= mask
            return keys
        del keys
    order = np.argsort(ratios)
    ordered = ratios[order]
    if not (ordered[1:] == ordered[:-1]).any():
        return order
    del order, ordered
    return np.argsort(ratios, kind="stable")


def aggregate(spec: PopulationSpec) -> AggregateReport:
    """Sample, solve and aggregate one population, one slice at a time.

    The first household that the solve refuses, or whose income ratio
    overflows, raises HouseholdSolveFailure, with its index and parameters
    and the scalar route's error (or the income ratio's) as its cause,
    before the next slice is drawn. A mean beyond the float range, an
    income-ratio mean below the normal range, or another mean that is
    neither 0 nor normal raises NumericalFailure. A population whose
    fertilities and income ratios, 16 bytes per household kept whole for the
    deciles, cannot be allocated beside the ``_RANK_BYTES`` per household
    that ranking them takes raises InvalidDistribution before any household
    is drawn.
    """
    import numpy as np

    count = spec.count
    try:
        n, ratios = np.empty(count), np.empty(count)
        # The rank's workspace is allocated, and freed at once, only to
        # refuse here a count whose rank would fail after every household
        # was solved.
        np.empty(_RANK_BYTES * count, np.uint8)
    except MemoryError:
        raise InvalidDistribution(
            f"a population of {count} households needs {(16 + _RANK_BYTES) * count} bytes "
            "for its fertilities and income ratios and their ranking, more than this "
            "process can allocate") from None
    # The sums of the fertilities, the income ratios and the transfers of
    # households with children are carried from slice to slice, so only n
    # and the ratios, which the deciles sort, are kept whole.
    sums, interior = [None, None, None], 0
    with np.errstate(over="ignore"):  # a ratio or a mean beyond the range is refused
        for start, stop in _slices(count):
            columns = _draw(spec, start, stop)
            n_chunk, rho, ok = _solve_arrays(spec, *columns)
            a_w, a_m = columns[4:]
            chunk = slice(start, stop)
            ratios[chunk] = a_w / a_m
            ok = ok & (ratios[chunk] < math.inf)
            if not ok.all():
                i = int(np.argmin(ok))
                _refuse(spec, _params(columns, i), start + i)
            n[chunk] = n_chunk
            transfers = n_chunk[:0] if rho is None else rho[n_chunk > 0]
            interior += len(transfers)
            sums = list(map(_left_sum, (n_chunk, ratios[chunk], transfers), sums))
        fertility_sum, ratio_sum, transfer_sum = sums
        # The fertilities in income-ratio order take the place of the ratios.
        ranked = np.take(n, _ratio_order(ratios), out=ratios)
        # Bucket b holds the ranks with rank*10//count == b.
        bounds = [-(-b * count // 10) for b in range(11)]
        decile_counts = tuple(bounds[b + 1] - bounds[b] for b in range(10))
        decile_means = tuple(
            _left_sum(ranked[bounds[b]:bounds[b + 1]]) / decile_counts[b]
            if decile_counts[b] else math.nan
            for b in range(10)
        )

    notes = []
    if spec.subsidy > 0:
        notes.append(
            "subsidy funded from general revenue; no spousal budget deduction"
        )
    report = _record(
        AggregateReport,
        mean_fertility=fertility_sum / count,
        childless_share=int(np.count_nonzero(n <= 0.0)) / count,
        mean_transfer=transfer_sum / interior if interior else None,
        mean_income_ratio=ratio_sum / count,
        fertility_by_ratio_decile=decile_means,
        decile_counts=decile_counts,
        notes=tuple(notes),
    )
    # A mean is printed to 12 digits: it must be 0 or a normal float.
    means = (report.mean_fertility, report.mean_transfer or 0.0,
             *(mean for mean, size in zip(decile_means, decile_counts) if size))
    if not (_normal(report.mean_income_ratio) and all(m == 0.0 or _normal(m) for m in means)):
        raise NumericalFailure(f"a mean leaves the normal float range: {report!r}")
    return report
