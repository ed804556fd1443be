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
``[seed, b, 0]`` would seed as ``[seed, b]`` does. Deciles rank the income
ratios with numpy's default sort, and with a stable sort only where two
ratios are equal.

A population is walked once, in slices of ``_CHUNK`` households: each
slice is drawn, solved and reduced to its fertility, transfer and income
ratio before the next is drawn, so no draw outlives its slice. Every model
is solved over a slice at once, so that every n* and rho* is bit-identical
to a scalar solve: the pooled budget as array expressions in the scalar
operation order, and the leader condition that the transfer game, with or
without a subsidy, shares with the extended model by the one body of
:mod:`fertgames.extended` that also solves a single household. Each check of
the scalar route (positive parameters, preference order, transfer, cubic
range, consumption range, utility range) is an array mask, so the array
route refuses exactly the households that the scalar route refuses. The
first refused household of a slice is not re-solved: the scalar route runs
on it once, only to raise its error. A positive subsidy is solvable under
the transfer game only. It is funded from general revenue: it
raises the wife's effective per-child receipt without touching either
spouse's budget.

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
    _record,
    benchmark_solve,
    check_subsidy,
    pooled_allocation,
)
from .errors import HouseholdSolveFailure, InvalidDistribution, ModelError, NumericalFailure
from .extended import _finite_utilities, leader_optima, solve_extended
from .game import solve_game

if TYPE_CHECKING:
    import numpy as np

PREFERENCES = ("alpha", "delta", "gamma", "beta")

# A preference entry is either a fixed value or a (lo, hi) uniform range.
PreferenceDist = float | tuple[float, float]

# Households per keyed block of draws; fixed, since it is part of the draw
# contract.
_BLOCK = 1 << 14
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
            if not (math.isfinite(dist.mu) and math.isfinite(dist.sigma) and dist.sigma >= 0):
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
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo <= hi):
            raise InvalidDistribution(f"{name}: need 0 < lo <= hi, got {dist!r}")
    elif isinstance(dist, (int, float)):
        if not (math.isfinite(dist) and dist > 0):
            raise InvalidDistribution(f"{name}: fixed value must be > 0, got {dist!r}")
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

    # PopulationSpec has checked the fixed preferences.
    valid = np.ones(stop - start, dtype=bool)
    for column in columns:
        if not isinstance(column, float):
            valid &= np.isfinite(column) & (column > 0)
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
    route refused, caused by the scalar route's error, or by a
    NumericalFailure if the scalar route answers it."""
    try:
        _solve_household(spec, p)
    except ModelError as exc:
        raise HouseholdSolveFailure(index, exc, p) from exc
    cause = NumericalFailure("the array route refuses a household the scalar route answers")
    raise HouseholdSolveFailure(index, cause, p) from cause


def _solve_arrays(spec: PopulationSpec, alpha, delta, gamma, beta, a_w, a_m):
    """``(n, rho, ok)`` of a slice of households solved as arrays.

    ``benchmark_solve`` runs as array expressions in its scalar operation
    order, and the leader games run the body of ``leader_optimum`` on arrays,
    so every n* and rho* (None for the benchmark model) has the scalar
    route's bits. Households outside ``ok`` are those the scalar route
    refuses.
    """
    import numpy as np

    if spec.model == "benchmark":
        with np.errstate(all="ignore"):
            c_w, c_m, n = pooled_allocation(alpha, delta, gamma, beta, a_w, a_m)
            # Finite utilities need c_w, c_m and n finite and positive.
            ok = _finite_utilities(_log_utilities, alpha > delta, alpha, delta, gamma, a_w,
                                   c_w, c_m, n)
        return n, None, ok
    paid = beta if spec.model == "extended" else 0.0
    n, rho, _, _, ok = leader_optima(alpha, delta, gamma, a_w, a_m, paid, spec.subsidy)
    return n, rho, ok


def _log_utilities(log, alpha, delta, gamma, a_w, c_w, c_m, n):
    """The utilities that ``benchmark_solve`` checks and the logarithmic
    terms they sum, in its operation order."""
    wife, log_c_m, log_n = gamma * log(c_w), log(c_m), log(n)
    u_w, own = wife - delta * log_n, gamma * log(a_w)
    child, family = alpha * log_n, (alpha - delta) * log_n
    return (wife, delta * log_n, own, child, family, u_w, log_c_m + child, u_w - own,
            wife + log_c_m + family)


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
    """The indices that sort ``ratios``, equal ratios in index order.
    numpy's default sort, vectorised where the CPU allows, is not stable, so
    the stable sort runs only when two sorted neighbours are equal."""
    import numpy as np

    order = np.argsort(ratios)
    ordered = ratios[order]
    if not (ordered[1:] == ordered[:-1]).any():
        return order
    del order, ordered
    return np.argsort(ratios, kind="stable")


def aggregate(spec: PopulationSpec) -> AggregateReport:
    """Sample, solve and aggregate one population, one slice at a time.

    The first household that the solve refuses raises HouseholdSolveFailure,
    with its index and parameters and the scalar route's error as its cause,
    before the next slice is drawn. A population whose fertilities and
    income ratios, 16 bytes per household kept whole for the deciles, cannot
    be allocated raises InvalidDistribution before any household is drawn.
    """
    import numpy as np

    count = spec.count
    try:
        n, ratios = np.empty(count), np.empty(count)
    except MemoryError:
        raise InvalidDistribution(
            f"a population of {count} households needs {16 * count} bytes for its "
            "fertilities and income ratios, more than this process can allocate") from None
    # The sums of the fertilities, the income ratios and the transfers of
    # households with children are carried from slice to slice, so only n
    # and the ratios, which the deciles sort, are kept whole.
    sums, interior = [None, None, None], 0
    for start, stop in _slices(count):
        columns = _draw(spec, start, stop)
        n_chunk, rho, ok = _solve_arrays(spec, *columns)
        if not ok.all():
            i = int(np.argmin(ok))
            _refuse(spec, _params(columns, i), start + i)
        a_w, a_m = columns[4:]
        chunk = slice(start, stop)
        n[chunk], ratios[chunk] = n_chunk, a_w / a_m
        transfers = n_chunk[:0] if rho is None else rho[n_chunk > 0]
        interior += len(transfers)
        sums = [_left_sum(v, total) for v, total in zip((n_chunk, ratios[chunk], transfers), sums)]
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
    return _record(
        AggregateReport,
        mean_fertility=fertility_sum / count,
        childless_share=int(np.count_nonzero(n <= 0.0)) / count,
        mean_transfer=transfer_sum / interior if interior else None,
        mean_income_ratio=ratio_sum / count,
        fertility_by_ratio_decile=decile_means,
        decile_counts=decile_counts,
        notes=tuple(notes),
    )
