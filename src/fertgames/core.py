"""Household parameters, spousal utility functions, and the pooled-budget solve.

The household consists of a husband who enjoys children and a wife who bears
a net cost from them. Both value their own consumption. Two utility variants
are used across the package:

* log-log utilities, where the child term enters through ``ln(n)``
  (the pooled-budget family problem), and
* log-linear utilities, where the child term is linear in ``n``
  (the transfer game and its extension).

The pooled-budget solve treats the couple as a single decision maker that
maximizes the sum of spousal utilities under one budget, which yields a
Cobb-Douglas allocation in closed form. Its correctness is certified against
the independent grid-search optimizer in :mod:`fertgames.oracle`.
"""

from __future__ import annotations

import math

from .errors import (
    DomainError,
    InvalidDistribution,
    NonPositiveParameter,
    NumericalFailure,
    PreferenceOrderViolated,
)

# Slack for the weak participation inequalities, so an agent exactly at the
# reservation utility counts as participating.
PARTICIPATION_TOL = 1e-12


class FrozenRecordError(AttributeError):
    """Raised on assigning to or deleting an attribute of a record."""


class Record:
    """A frozen record, declared as a frozen dataclass is: one class
    annotation per field, in order, and a class-level value for a field
    with a default.

    A record is built from its fields by position or keyword, after which
    its ``__post_init__`` runs. It prints as ``Name(field=value, ...)`` and
    compares and hashes as the tuple of its fields, only with a record of
    the same class; a record with an unhashable field is unhashable.
    ``_fields`` names the fields in order.

    Each class gets an ``__init__`` compiled from its field names, as a
    named tuple gets its ``__new__``: Python binds the arguments, and each
    field is set with ``object.__setattr__``, which keeps the interpreter's
    fast path for reading it. The values live in the instance ``__dict__``,
    so ``_record`` can set them all with one dict update instead; on
    CPython 3.11 a record whose ``__dict__`` was touched reads its fields
    about twice as slowly.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A subclass adds its fields after those of its base, as in dataclasses.
        cls._fields = fields = cls._fields + tuple(vars(cls).get("__annotations__", ()))
        defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name
                           for name in fields)
        sets = "".join(f"    _set(self, {name!r}, {name})\n" for name in fields)
        namespace = {"_set": object.__setattr__, "_defaults": defaults}
        exec(f"def __init__(self, {params}):\n{sets}    self.__post_init__()\n", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __post_init__(self) -> None:
        pass

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")


def replace(record: Record, /, **changes) -> Record:
    """A copy of ``record`` with the fields in ``changes`` set, built, and so
    checked, again; an unknown field raises TypeError."""
    cls = type(record)
    values = [changes.pop(name, getattr(record, name)) for name in cls._fields]
    if changes:
        raise TypeError(f"{cls.__qualname__} has no field {next(iter(changes))!r}")
    return cls(*values)


class ModelParams(Record):
    """Exogenous household parameters, valid by construction: each must be
    finite and positive, or NonPositiveParameter names the first that is not.

    alpha:  husband's per-child utility weight
    delta:  wife's per-child disutility weight
    gamma:  wife's consumption utility weight (husband's is normalized to 1)
    beta:   rearing cost per child
    a_w:    wife's income
    a_m:    husband's income
    """

    alpha: float
    delta: float
    gamma: float
    beta: float
    a_w: float
    a_m: float

    def __post_init__(self) -> None:
        validate_params(self)

    @property
    def total_income(self) -> float:
        return self.a_w + self.a_m

    @property
    def income_ratio(self) -> float:
        """Wife-to-husband income ratio; fertility outcomes depend on it.
        Raises NumericalFailure when it leaves the floating-point range."""
        ratio = self.a_w / self.a_m
        if not 0.0 < ratio < math.inf:
            raise NumericalFailure(f"income ratio {ratio!r} leaves the floating-point range")
        return ratio


PARAM_NAMES = ModelParams._fields
MODELS = ("benchmark", "game", "extended")


class BenchmarkSolution(Record):
    """Allocation chosen by the pooled-budget household.

    ``wife_utility_delta`` reports the wife's log-utility at the family
    allocation minus her childless consumption utility ``gamma * ln(a_w)``.
    Whether she ends up better or worse off than staying single depends on
    parameter magnitudes, so the sign is reported rather than asserted.
    """

    n_star: float
    c_w: float
    c_m: float
    u_family: float
    wife_utility_delta: float


def validate_params(raw: ModelParams) -> ModelParams:
    """Check that every parameter is finite and positive; return them unchanged.

    Raises NonPositiveParameter naming the offending field. Every ModelParams
    runs it on construction, :func:`replace` included.
    """
    for name in PARAM_NAMES:
        value = getattr(raw, name)
        try:
            valid = isinstance(value, (int, float)) and math.isfinite(value) and value > 0
        except OverflowError:  # an int beyond the float range
            valid = False
        if not valid:
            raise NonPositiveParameter(name, value)
    return raw


def finite(value) -> bool:
    """``math.isfinite(value)``, but False, not OverflowError or TypeError,
    for an int beyond the float range or a value that is not a number."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


def _record(cls, **fields):
    """``cls(**fields)`` for a record ``cls`` without ``__post_init__``,
    given every field. Its ``__init__`` sets each field with one
    ``object.__setattr__`` call, which costs a scalar solve more than its
    allocation; one dict update sets them all."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def check_subsidy(model: str, subsidy: float) -> None:
    """Reject a negative or non-finite subsidy, or one under a model other
    than the transfer game, which is the only one that takes a subsidy."""
    if not (finite(subsidy) and subsidy >= 0):
        raise InvalidDistribution(f"subsidy must be finite and >= 0, got {subsidy!r}")
    if subsidy > 0 and model != "game":
        raise InvalidDistribution(
            "subsidies are only solvable under the transfer game"
        )


def check_finite(what: str, *values: float) -> None:
    """Raise NumericalFailure unless every one of ``values`` is finite."""
    if not all(map(math.isfinite, values)):
        raise NumericalFailure(f"{what} not finite: {values!r}")


def utility_log_pair(
    p: ModelParams, c_w: float, c_m: float, n: float
) -> tuple[float, float]:
    """Spousal utilities with the child term inside a log.

    Returns ``(u_w, u_m)`` with ``u_w = gamma*ln(c_w) - delta*ln(n)`` and
    ``u_m = ln(c_m) + alpha*ln(n)``. All three arguments must be positive.
    Raises NumericalFailure when a utility is not finite.
    """
    if not (c_w > 0 and c_m > 0 and n > 0):
        raise DomainError(
            f"log utilities need c_w, c_m, n > 0, got ({c_w!r}, {c_m!r}, {n!r})"
        )
    u_w = p.gamma * math.log(c_w) - p.delta * math.log(n)
    u_m = math.log(c_m) + p.alpha * math.log(n)
    check_finite("utilities", u_w, u_m)
    return u_w, u_m


def utility_linear_pair(
    p: ModelParams, c_w: float, c_m: float, n: float
) -> tuple[float, float]:
    """Spousal utilities with the child term linear in n.

    Returns ``(u_w, u_m)`` with ``u_w = gamma*ln(c_w) - delta*n`` and
    ``u_m = ln(c_m) + alpha*n``. Consumptions must be positive; n may be 0.
    Raises NumericalFailure when a utility is not finite.
    """
    if not (c_w > 0 and c_m > 0):
        raise DomainError(f"consumptions must be > 0, got ({c_w!r}, {c_m!r})")
    if not n >= 0:
        raise DomainError(f"fertility must be >= 0, got {n!r}")
    u_w = p.gamma * math.log(c_w) - p.delta * n
    u_m = math.log(c_m) + p.alpha * n
    check_finite("utilities", u_w, u_m)
    return u_w, u_m


def participation(p: ModelParams, u_w: float, u_m: float) -> tuple[bool, bool]:
    """Whether each spouse does at least as well as the no-birth outcome.

    The reservation utilities are those of consuming one's own income with
    no children, ``gamma*ln(a_w)`` for the wife and ``ln(a_m)`` for the
    husband; ``u_w`` and ``u_m`` come from :func:`utility_linear_pair`.
    """
    return (
        u_w >= p.gamma * math.log(p.a_w) - PARTICIPATION_TOL,
        u_m >= math.log(p.a_m) - PARTICIPATION_TOL,
    )


def pooled_allocation(alpha, delta, gamma, beta, a_w, a_m):
    """``(c_w, c_m, n)`` of the pooled budget (see :func:`benchmark_solve`).

    Only arithmetic operators, so it runs unchanged, and to the same bits,
    on floats and on numpy arrays of households.
    """
    total = a_w + a_m
    weight = 1.0 + gamma + (alpha - delta)
    return gamma * total / weight, total / weight, (alpha - delta) * total / (beta * weight)


def benchmark_solve(p: ModelParams) -> BenchmarkSolution:
    """Solve the pooled-budget family problem in closed form.

    The household maximizes ``gamma*ln(c_w) + ln(c_m) + (alpha-delta)*ln(n)``
    subject to ``c_w + c_m + beta*n = a_w + a_m``. This is a Cobb-Douglas
    program with expenditure weights ``gamma``, ``1`` and ``alpha - delta``,
    so each claim on the budget receives its weight share:

        c_w = gamma*A/W,  c_m = A/W,  n = (alpha-delta)*A/(beta*W),

    with ``A = a_w + a_m`` and ``W = 1 + gamma + (alpha - delta)``.

    Requires ``alpha > delta``; with the order reversed the child weight is
    non-positive and the supremum degenerates (utility grows without bound
    as n shrinks to zero), so that case is a hard error rather than a clamp.
    An allocation or utility outside the float range raises NumericalFailure.
    """
    if not p.alpha > p.delta:
        raise PreferenceOrderViolated(
            f"alpha={p.alpha!r} must exceed delta={p.delta!r}"
        )
    c_w, c_m, n = pooled_allocation(p.alpha, p.delta, p.gamma, p.beta, p.a_w, p.a_m)
    if not all(0.0 < v < math.inf for v in (c_w, c_m, n)):
        raise NumericalFailure(f"pooled allocation {(c_w, c_m, n)!r} leaves the float range")
    u_family = (
        p.gamma * math.log(c_w)
        + math.log(c_m)
        + (p.alpha - p.delta) * math.log(n)
    )
    u_w, _ = utility_log_pair(p, c_w, c_m, n)
    wife_utility_delta = u_w - p.gamma * math.log(p.a_w)
    check_finite("utilities", u_family, wife_utility_delta)
    return _record(
        BenchmarkSolution,
        n_star=n,
        c_w=c_w,
        c_m=c_m,
        u_family=u_family,
        wife_utility_delta=wife_utility_delta,
    )
