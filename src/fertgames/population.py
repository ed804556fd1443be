"""Heterogeneous-population aggregation with a childbirth-subsidy lever.

Households draw incomes from log-normal distributions and preferences from
fixed values or uniform ranges. Household ``i`` draws from its own stream,
bit-identical to ``numpy.random.default_rng([seed, i])``: two standard
normals for the incomes, then one uniform per ranged preference in the order
alpha, delta, gamma, beta. Draws thus depend only on (seed, index), so
parallel and serial generation agree bit for bit, and a test pins the
equality. The sampler does not build a generator per household: it derives
every household's PCG64 state at once by numpy's SeedSequence and PCG64
seeding, steps the generators as 64-bit halves of arrays, and turns their
outputs into draws by the fast path of numpy's ziggurat (O'Neill's PCG,
HMC-CS-2014-0905; Marsaglia and Tsang, J. Stat. Softw. 2000). The ziggurat's
tables are read out of the installed numpy on first use. The households
whose normals leave the fast path (2.9% over seeds 0 to 19), and every
household if the first-use check finds a difference, are drawn by setting
their seeded states, kept from before the array draws, on one reused
generator. Deciles rank the income ratios with numpy's default sort, and
with a stable sort only where two ratios are equal.

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

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

from .core import (
    MODELS,
    PARAM_NAMES,
    ModelParams,
    _record,
    benchmark_solve,
    check_subsidy,
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

# numpy's SeedSequence (pool of four 32-bit words) and PCG64 seeding constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK52, _MASK64, _MASK128 = 2**32 - 1, 2**52 - 1, 2**64 - 1, 2**128 - 1
_PCG64_INVERSE = pow(_PCG64_MULT, -1, 1 << 128)
# Households drawn, solved and reduced per slice, which bounds the memory of
# the generator states, the drawn columns and the solver's temporaries.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class LogNormalSpec:
    """Log-normal income distribution: exp of Normal(mu, sigma)."""

    mu: float
    sigma: float


@dataclass(frozen=True)
class PopulationSpec:
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
        # An index of 2**32 or more would take two SeedSequence entropy
        # words, which the batched seeding does not derive.
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


def _pcg64_states(seed: int, index: np.ndarray) -> list:
    """The PCG64 ``[state_hi, state_lo, inc_hi, inc_lo]`` of
    ``default_rng([seed, i])`` for each ``i`` in ``index`` (all below 2**32),
    each a uint64 array: the 128-bit state and increment as two 64-bit
    halves, after seeding.

    numpy's SeedSequence on uint32 arrays: the entropy words (the seed's
    32-bit words, ``[0]`` for seed 0, then ``i``) are hashed into a pool of
    four words, every pool word is mixed into every other, and
    ``generate_state(4, uint64)`` hashes the pool out into eight words read
    as four little-endian uint64. PCG64 takes the first two as the 128-bit
    initial state and the last two as the stream, and seeds by its
    ``srandom`` step: ``state = (initial + inc)*MULT + inc``.
    """
    import numpy as np

    u32, u64 = np.uint32, np.uint64
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
    halves = []
    for j in range(8):
        value = pool[j % 4] ^ u32(const)
        const = const * _MULT_B & _MASK32
        value = value * u32(const)
        value = (value ^ (value >> u32(16))).astype(u64)
        if j % 2:
            halves[-1] |= value << u64(32)
        else:
            halves.append(value)
    state_hi, state_lo, inc_hi, inc_lo = halves
    # inc = stream << 1 | 1, mod 2**128.
    inc_hi <<= u64(1)
    inc_hi |= inc_lo >> u64(63)
    inc_lo <<= u64(1)
    inc_lo |= u64(1)
    _add(halves)
    _step(halves)
    return halves


# PCG64 on arrays: a generator is the list ``[state_hi, state_lo, inc_hi,
# inc_lo]`` of uint64 arrays, one lane per household, stepped in place.
def _add(pcg: list) -> None:
    """``state += inc`` mod 2**128."""
    import numpy as np

    state_hi, state_lo, inc_hi, inc_lo = pcg
    state_lo += inc_lo
    state_hi += inc_hi
    state_hi += np.less(state_lo, inc_lo)


def _step(pcg: list) -> None:
    """``state = state*MULT + inc`` mod 2**128. The high word of the low
    halves' 64x64-bit product comes from 32-bit limbs."""
    import numpy as np

    u64 = np.uint64
    state_hi, state_lo = pcg[:2]
    m_hi, m_lo = u64(_PCG64_MULT >> 64), u64(_PCG64_MULT & _MASK64)
    m1, m0 = u64(_PCG64_MULT >> 32 & _MASK32), u64(_PCG64_MULT & _MASK32)
    low, high = state_lo & u64(_MASK32), state_lo >> u64(32)
    state_hi *= m_lo
    state_hi += state_lo * m_hi
    state_lo *= m_lo
    # mulhi(low + high*2**32, m0 + m1*2**32); each limb product fits 64 bits.
    mid = low * m0
    mid >>= u64(32)
    low *= m1
    mid += low & u64(_MASK32)
    state_hi += low >> u64(32)
    np.multiply(high, m0, out=low)
    mid += low & u64(_MASK32)
    state_hi += low >> u64(32)
    high *= m1
    state_hi += high
    mid >>= u64(32)
    state_hi += mid
    _add(pcg)


def _output(pcg: list) -> np.ndarray:
    """Step, then the XSL-RR output ``rotr64(hi ^ lo, hi >> 58)``."""
    import numpy as np

    u64 = np.uint64
    _step(pcg)
    state_hi, state_lo = pcg[:2]
    xored = state_hi ^ state_lo
    rot = state_hi >> u64(58)
    out = xored >> rot
    np.subtract(u64(64), rot, out=rot)
    rot &= u64(63)
    xored <<= rot
    out |= xored
    return out


def _ziggurat_normals(r: np.ndarray, wi: np.ndarray, ki: np.ndarray):
    """The fast path of numpy's ziggurat ``random_standard_normal`` on the
    outputs ``r``: ``(x, fast)``, where ``x`` is the normal wherever ``fast``
    is true."""
    import numpy as np

    u64 = np.uint64
    idx = (r & u64(0xFF)).astype(np.intp)
    rabs = r >> u64(9)
    rabs &= u64(_MASK52)
    fast = rabs < ki[idx]
    x = rabs.astype(float)
    x *= wi[idx]
    r >>= u64(8)
    r &= u64(1)
    np.negative(x, out=x, where=r.astype(bool))
    return x, fast


def _array_draws(seed: int, index: np.ndarray, width: int, tables: tuple):
    """``(raw, flagged, states)``: the ``width`` draws of each household of
    ``index`` (two standard normals, then uniforms) as array arithmetic, one
    row each; the households whose normals leave the ziggurat's fast path,
    whose rows hold no valid draw; and the seeded ``(state, inc)`` of each of
    those, in index order, for :func:`_scalar_draws`, read from a copy of the
    state halves kept before the draws step them."""
    import numpy as np

    pcg = _pcg64_states(seed, index)
    seeded = [half.copy() for half in pcg[:2]]
    raw = np.empty((len(index), width))
    fast = np.ones(len(index), dtype=bool)
    for j in range(width):
        r = _output(pcg)
        if j < 2:
            raw[:, j], lane_fast = _ziggurat_normals(r, *tables)
            fast &= lane_fast
        else:
            r >>= np.uint64(11)
            raw[:, j] = r * 2.0**-53
    flagged = ~fast
    state_hi, state_lo, inc_hi, inc_lo = (half[flagged].tolist() for half in seeded + pcg[2:])
    states = [(s_hi << 64 | s_lo, i_hi << 64 | i_lo)
              for s_hi, s_lo, i_hi, i_lo in zip(state_hi, state_lo, inc_hi, inc_lo)]
    return raw, flagged, states


def _scalar_draws(states: list[tuple[int, int]], width: int) -> np.ndarray:
    """The ``width`` draws of the generator at each ``(state, inc)`` of
    ``states``, one row each, by setting it on one reused generator."""
    import numpy as np

    raw = np.empty((len(states), width))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = {"state": 0, "inc": 0}
    setting = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    for row, (s, inc) in zip(raw, states):
        state["state"], state["inc"] = s, inc
        bitgen.state = setting
        gen.standard_normal(out=row[:2])
        if width > 2:
            gen.random(out=row[2:])
    return raw


def _output_of(state: int) -> int:
    """PCG64's XSL-RR output of a 128-bit state."""
    xored = (state >> 64 ^ state) & _MASK64
    rot = state >> 122
    return (xored >> rot | xored << (64 - rot)) & _MASK64


def _probe_tables():
    """numpy's ziggurat tables ``wi`` and ``ki``, read out of the installed
    numpy by crafted states, with ``ki`` zero at ``idx`` 1 (``ki[1] = 0``)
    and wherever a probe fails, so that those indices are always left to the
    scalar route.

    A probe sets the state and increment whose first two outputs are chosen
    (states with a zero high half output their low half) and draws two
    normals; both took the fast path exactly when the next raw output is the
    stream's third. Probe ``j`` reads ``wi[j]`` from its first output,
    ``j | 1 << 9``, and its second tests ``ki[j - 1]``, which is
    ``floor(2**52*wi[j-2]/wi[j-1])`` to within one, at ``rabs`` one below
    that estimate. ``ki[0]`` is estimated the same way from ``wi[255]``, so a
    last probe tests it with ``ki[255]``. ``ki[i]`` is kept only if the probe
    that read ``wi[i]`` and the one that tested ``ki[i]`` both took the fast
    path.
    """
    import numpy as np

    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = {"state": 0, "inc": 0}
    setting = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    normals = np.empty(2)

    def probe(first: int, second: int) -> bool:
        inc = (second - first * _PCG64_MULT) & _MASK128
        state["state"], state["inc"] = (first - inc) * _PCG64_INVERSE & _MASK128, inc
        bitgen.state = setting
        gen.standard_normal(out=normals)
        return int(bitgen.random_raw()) == _output_of((second * _PCG64_MULT + inc) & _MASK128)

    def estimate(i: int) -> int:
        k = math.ldexp(wi[i - 1] / wi[i], 52) if wi[i] > 0 else 0.0
        return math.floor(k) if 2 <= k < 2**52 else 0

    def test(i: int, otherwise: int) -> int:
        return i | (ki[i] - 1) << 9 if ki[i] else otherwise

    wi, ki, fast = [], [0] * 256, []
    for j in range(256):
        if j >= 2:
            ki[j - 1] = estimate(j - 1)
        first = j | 1 << 9
        fast.append(probe(first, test(j - 1, first)))
        wi.append(float(normals[0]))
    # With wi[255] read, ki[255] and ki[0] are estimated; one probe tests both.
    ki[255], ki[0] = estimate(255), estimate(0)
    first = test(0, 1 << 9)
    fast.append(probe(first, test(255, first)))
    ki = [k if fast[i] and fast[i + 1 if i else 256] else 0 for i, k in enumerate(ki)]
    return np.array(wi), np.array(ki, dtype=np.uint64)


@functools.cache
def _ziggurat() -> tuple:
    """The tables of :func:`_probe_tables`, read once per process. At first
    use 64 households' array draws are compared with the scalar route's; on
    any difference ``ki`` is all zero, so that every household is left to
    the scalar route."""
    import numpy as np

    wi, ki = _probe_tables()
    index = np.arange(64)
    raw, flagged, _ = _array_draws(0, index, 3, (wi, ki))
    # With ki all zero no draw takes the fast path, so every household's
    # seeded state comes back, read from the kept copy as the flagged ones are.
    want = _scalar_draws(_array_draws(0, index, 3, (wi, np.zeros_like(ki)))[2], 3)
    if (raw[~flagged].view(np.uint64) != want[~flagged].view(np.uint64)).any():
        ki = np.zeros_like(ki)
    return wi, ki


# Drawn households are a struct of arrays, ``columns``: one column per
# ModelParams field, in field order, with one entry per household; a fixed
# preference stays a float.
def _params(columns: tuple, i: int) -> ModelParams:
    return ModelParams(*(v if isinstance(v, float) else float(v[i]) for v in columns))


def _rows(columns: tuple) -> list[ModelParams]:
    lists = (repeat(v) if isinstance(v, float) else v.tolist() for v in columns)
    return [ModelParams(*row) for row in zip(*lists)]


def _slices(count: int):
    """The household indices of each slice, in order."""
    import numpy as np

    for start in range(0, count, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, count))


def _draw(spec: PopulationSpec, index: np.ndarray) -> tuple:
    """Draw the households ``index`` (at most ``_CHUNK`` of them); each
    depends only on (seed, index). The draws are array arithmetic; the
    households that leave the ziggurat's fast path are drawn, in index
    order, by the scalar route.

    Raises NonPositiveParameter, as ModelParams does, for the first
    household whose draw is not finite and positive (an income whose
    log-normal draw overflows or underflows).
    """
    import numpy as np

    ranged = [name for name in PREFERENCES if isinstance(getattr(spec, name), tuple)]
    width = 2 + len(ranged)
    raw, flagged, states = _array_draws(spec.seed, index, width, _ziggurat())
    if states:
        raw[flagged] = _scalar_draws(states, width)

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
    return [p for index in _slices(spec.count) for p in _rows(_draw(spec, index))]


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
            log_c_w, log_c_m, log_n = np.log(c_w), np.log(c_m), np.log(n)
            u_w = gamma * log_c_w - delta * log_n
            utilities = (u_w, log_c_m + alpha * log_n, u_w - gamma * np.log(a_w),
                         gamma * log_c_w + log_c_m + (alpha - delta) * log_n)
        return n, None, (alpha > delta) & np.isfinite(utilities).all(axis=0)
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
    before the next slice is drawn.
    """
    import numpy as np

    count = spec.count
    n, ratios = np.empty(count), np.empty(count)
    # The sums of the fertilities, the income ratios and the transfers of
    # households with children are carried from slice to slice, so only n
    # and the ratios, which the deciles sort, are kept whole.
    sums, interior = [None, None, None], 0
    for index in _slices(count):
        start = int(index[0])
        columns = _draw(spec, index)
        n_chunk, rho, ok = _solve_arrays(spec, *columns)
        if not ok.all():
            i = int(np.argmin(ok))
            _refuse(spec, _params(columns, i), start + i)
        a_w, a_m = columns[4:]
        chunk = slice(start, start + len(index))
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
