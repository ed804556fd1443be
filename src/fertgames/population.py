"""Heterogeneous-population aggregation with a childbirth-subsidy lever.

Households draw incomes from log-normal distributions and preferences from
fixed values or uniform ranges. Household ``i`` draws from its own stream,
bit-identical to ``numpy.random.default_rng([seed, i])``: two standard
normals for the incomes, then one uniform per ranged preference in the order
alpha, delta, gamma, beta. Draws thus depend only on (seed, index), so
parallel and serial generation agree bit for bit, and a test pins the
equality. The sampler does not build a generator per household: it derives
every household's PCG64 state at once by numpy's documented SeedSequence and
PCG64 seeding, and sets each state on one reused generator.

Every model is solved as array expressions over slices of households, in
the operation order of its scalar solver, so every n* and rho* is
bit-identical to a scalar solve: the pooled budget, and the leader condition
of :mod:`fertgames.extended` that the transfer game, with or without a
subsidy, shares with the extended model, whose few transcendental functions
are libm's, applied element by element. Each check of the scalar route
(positive parameters, preference order, transfer, cubic range, consumption
range, utility range) is an array mask; a household that fails one is handed
to the scalar route, which raises the same error. A positive subsidy is
solvable under the transfer game only. It is funded from general revenue: it
raises the wife's effective per-child receipt without touching either
spouse's budget.

Aggregates focus on the relative-income story: fertility by wife-to-husband
income-ratio decile falls as the ratio rises, and the childless share tracks
how much of the population sits past the fertility threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

from .core import PARAM_NAMES, ModelParams, benchmark_solve, pooled_allocation
from .errors import HouseholdSolveFailure, InvalidDistribution, ModelError
from .extended import REGIMES, leader_optima, solve_extended
from .game import solve_game

if TYPE_CHECKING:
    import numpy as np

MODELS = ("benchmark", "game", "extended")
PREFERENCES = ("alpha", "delta", "gamma", "beta")

# A preference entry is either a fixed value or a (lo, hi) uniform range.
PreferenceDist = float | tuple[float, float]

# numpy's SeedSequence (pool of four 32-bit words) and PCG64 seeding constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
# Households seeded per pass, which bounds the memory of the Python-int states.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class LogNormalSpec:
    """Log-normal income distribution: exp of Normal(mu, sigma)."""

    mu: float
    sigma: float


@dataclass(frozen=True)
class PopulationSpec:
    count: int
    seed: int
    aw_dist: LogNormalSpec
    am_dist: LogNormalSpec
    alpha: PreferenceDist
    delta: PreferenceDist
    gamma: PreferenceDist
    beta: PreferenceDist
    model: str = "game"
    regime: str = "high"
    subsidy: float = 0.0


@dataclass(frozen=True)
class AggregateReport:
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


def check_subsidy(model: str, subsidy: float) -> None:
    """Reject a negative or non-finite subsidy, or one under a model other
    than the transfer game, which is the only one that takes a subsidy."""
    if not (math.isfinite(subsidy) and subsidy >= 0):
        raise InvalidDistribution(f"subsidy must be >= 0, got {subsidy!r}")
    if subsidy > 0 and model != "game":
        raise InvalidDistribution(
            "subsidies are only solvable under the transfer game"
        )


def validate_spec(spec: PopulationSpec) -> PopulationSpec:
    # An index of 2**32 or more would take two SeedSequence entropy words,
    # which the batched seeding does not derive.
    if not (isinstance(spec.count, int) and 1 <= spec.count < 2**32):
        raise InvalidDistribution(
            f"count must be an integer in [1, 2**32), got {spec.count!r}")
    if not (isinstance(spec.seed, int) and 0 <= spec.seed < 2**64):
        raise InvalidDistribution(f"seed must fit in 64 bits, got {spec.seed!r}")
    for name, dist in (("aw_dist", spec.aw_dist), ("am_dist", spec.am_dist)):
        if not (math.isfinite(dist.mu) and math.isfinite(dist.sigma) and dist.sigma >= 0):
            raise InvalidDistribution(f"{name}: need finite mu and sigma >= 0, got {dist!r}")
    for name in PREFERENCES:
        _check_dist(name, getattr(spec, name))
    if spec.model not in MODELS:
        raise InvalidDistribution(f"model must be one of {MODELS}, got {spec.model!r}")
    if spec.regime not in REGIMES:
        raise InvalidDistribution(f"regime must be one of {REGIMES}, got {spec.regime!r}")
    check_subsidy(spec.model, spec.subsidy)
    return spec


def _pcg64_states(seed: int, index: np.ndarray):
    """Yield the PCG64 ``(state, inc)`` of ``default_rng([seed, i])`` for
    each ``i`` in ``index`` (all below 2**32).

    numpy's SeedSequence on uint32 arrays: the entropy words (the seed's
    32-bit words, ``[0]`` for seed 0, then ``i``) are hashed into a pool of
    four words, every pool word is mixed into every other, and
    ``generate_state(4, uint64)`` hashes the pool out into eight words read
    as four little-endian uint64. PCG64 takes the first two as the 128-bit
    initial state and the last two as the stream, and seeds by its
    ``srandom`` step.
    """
    import numpy as np

    u32 = np.uint32
    n = len(index)
    words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    entropy = [np.full(n, w, dtype=u32) for w in words] + [index.astype(u32)]
    entropy += [np.zeros(n, dtype=u32)] * (4 - len(entropy))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ u32(const)
        const = const * _MULT_A & _MASK32
        value = value * u32(const)
        return value ^ (value >> u32(16))

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = u32(_MIX_L) * pool[dst] - u32(_MIX_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> u32(16))
    const = _INIT_B
    out = []
    for j in range(8):
        value = pool[j % 4] ^ u32(const)
        const = const * _MULT_B & _MASK32
        value = value * u32(const)
        out.append((value ^ (value >> u32(16))).astype(np.uint64))
    halves = [(out[2 * m] | out[2 * m + 1] << np.uint64(32)).tolist() for m in range(4)]
    for state_hi, state_lo, seq_hi, seq_lo in zip(*halves):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        yield ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128, inc


# Drawn households are a struct of arrays, ``columns``: one column per
# ModelParams field, in field order, with one entry per household; a fixed
# preference stays a float.
def _params(columns: tuple, i: int) -> ModelParams:
    return ModelParams(*(v if isinstance(v, float) else float(v[i]) for v in columns))


def _rows(columns: tuple) -> list[ModelParams]:
    lists = (repeat(v) if isinstance(v, float) else v.tolist() for v in columns)
    return [ModelParams(*row) for row in zip(*lists)]


def _draw(spec: PopulationSpec, index: np.ndarray) -> tuple:
    """Draw the households ``index``; each depends only on (seed, index).

    Raises NonPositiveParameter, as ModelParams does, for the first
    household whose draw is not finite and positive (an income whose
    log-normal draw overflows or underflows).
    """
    import numpy as np

    ranged = [name for name in PREFERENCES if isinstance(getattr(spec, name), tuple)]
    raw = np.empty((len(index), 2 + len(ranged)))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = {"state": 0, "inc": 0}
    setting = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    for start in range(0, len(index), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        for row, (pcg_state, inc) in zip(raw[chunk], _pcg64_states(spec.seed, index[chunk])):
            state["state"], state["inc"] = pcg_state, inc
            bitgen.state = setting
            gen.standard_normal(out=row[:2])
            if ranged:
                gen.random(out=row[2:])

    values = {name: float(getattr(spec, name)) for name in PREFERENCES if name not in ranged}
    for j, name in enumerate(ranged, start=2):
        lo, hi = (float(v) for v in getattr(spec, name))
        values[name] = lo + (hi - lo) * raw[:, j]
    with np.errstate(over="ignore", under="ignore"):
        for name, dist, column in (("a_w", spec.aw_dist, 0), ("a_m", spec.am_dist, 1)):
            values[name] = np.exp(float(dist.mu) + float(dist.sigma) * raw[:, column])
    columns = tuple(values[name] for name in PARAM_NAMES)

    valid = np.ones(len(index), dtype=bool)
    for column in columns:
        valid &= np.isfinite(column) & (column > 0)
    if not valid.all():
        _params(columns, int(np.argmin(valid)))  # raises
    return columns


def sample_household(spec: PopulationSpec, index: int) -> ModelParams:
    """Draw household ``index``; depends only on (seed, index)."""
    # Imported here so that processes which only solve never load numpy,
    # the largest part of the package's import time and memory.
    import numpy as np

    if not (isinstance(index, int) and 0 <= index < 2**32):
        raise InvalidDistribution(f"household index must be in [0, 2**32), got {index!r}")
    return _params(_draw(spec, np.array([index])), 0)


def sample_households(spec: PopulationSpec) -> list[ModelParams]:
    import numpy as np

    validate_spec(spec)
    return _rows(_draw(spec, np.arange(spec.count)))


def _solve_household(spec: PopulationSpec, p: ModelParams) -> tuple[float, float | None]:
    """Returns (fertility, transfer-or-None) for one household."""
    if spec.model == "benchmark":
        return benchmark_solve(p).n_star, None
    if spec.model == "game":
        eq = solve_game(p, spec.subsidy)
        return eq.n_star, (eq.rho_star if eq.interior else None)
    eq = solve_extended(p, spec.regime)
    return eq.n_star, eq.selected_rho if eq.interior else None


def _solve_one(spec: PopulationSpec, p: ModelParams, index: int) -> tuple[float, float | None]:
    try:
        return _solve_household(spec, p)
    except ModelError as exc:
        raise HouseholdSolveFailure(index, exc, p) from exc


def _solve_arrays(spec: PopulationSpec, alpha, delta, gamma, beta, a_w, a_m):
    """``(n, rho, ok)`` of a slice of households solved as arrays.

    ``benchmark_solve`` and ``leader_optimum`` run as array expressions in
    their scalar operation order, so every n* and rho* (None for the
    benchmark model) has the scalar route's bits. Households outside ``ok``
    are those a check of the scalar route would reject.
    """
    import numpy as np

    if spec.model == "benchmark":
        with np.errstate(all="ignore"):
            c_w, c_m, n = pooled_allocation(alpha, delta, gamma, beta, a_w, a_m)
            # Finite utilities need c_w, c_m and n finite and positive.
            log_c_w, log_c_m, log_n = np.log(c_w), np.log(c_m), np.log(n)
            u_w = gamma * log_c_w - delta * log_n
            utilities = (u_w, log_c_m + alpha * log_n, u_w - gamma * np.log(a_w),
                         gamma * log_c_w + log_c_m + (alpha - delta) * log_n)
        return n, None, (alpha > delta) & np.isfinite(utilities).all(axis=0)
    paid = beta if spec.model == "extended" else 0.0
    n, rho, _, _, ok = leader_optima(alpha, delta, gamma, a_w, a_m, paid, spec.subsidy)
    return n, rho, ok


def _solve(spec: PopulationSpec, columns: tuple):
    """n* and rho* (None for the benchmark model) of every household.

    Solved as arrays, ``_CHUNK`` households at a time, into preallocated
    arrays. Households the array route leaves out are solved by the scalar
    route, which raises HouseholdSolveFailure for the first failing one.
    """
    import numpy as np

    count = spec.count
    n = np.empty(count)
    rho = None if spec.model == "benchmark" else np.empty(count)
    flagged = []
    for start in range(0, count, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        n[chunk], rho_chunk, ok = _solve_arrays(
            spec, *(v if isinstance(v, float) else v[chunk] for v in columns))
        if rho is not None:
            rho[chunk] = rho_chunk
        flagged += (np.flatnonzero(~ok) + start).tolist()
    for i in flagged:
        n[i], transfer = _solve_one(spec, _params(columns, i), i)
        if transfer is not None:
            rho[i] = transfer
    return n, rho


def _left_sum(values: np.ndarray) -> float:
    """Left-to-right sum, one rounding per addition, which defines every
    mean. ``cumsum`` adds in that order; numpy's ``sum`` adds pairwise, and
    the builtin ``sum`` compensates from Python 3.12 on."""
    return float(values.cumsum()[-1])


def aggregate(spec: PopulationSpec) -> AggregateReport:
    """Sample, solve and aggregate one population.

    Solver errors propagate wrapped in HouseholdSolveFailure carrying the
    failing household's index and parameters.
    """
    import numpy as np

    validate_spec(spec)
    count = spec.count
    columns = _draw(spec, np.arange(count))
    n, rho = _solve(spec, columns)
    transfers = n[:0] if rho is None else rho[n > 0]

    a_w, a_m = columns[4:]
    ratios = a_w / a_m
    ranked = n[np.argsort(ratios, kind="stable")]
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
    return AggregateReport(
        mean_fertility=_left_sum(n) / count,
        childless_share=int(np.count_nonzero(n <= 0.0)) / count,
        mean_transfer=(_left_sum(transfers) / len(transfers)) if len(transfers) else None,
        mean_income_ratio=_left_sum(ratios) / count,
        fertility_by_ratio_decile=decile_means,
        decile_counts=decile_counts,
        notes=tuple(notes),
    )
