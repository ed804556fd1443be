"""Exception types shared across the solver modules."""


class ModelError(Exception):
    """Base class for every domain error raised by this package."""


class NonPositiveParameter(ModelError):
    """A parameter violates its positivity requirement."""

    def __init__(self, field: str, value, requirement: str = "> 0"):
        self.field = field
        self.value = value
        super().__init__(f"parameter {field!r} must be {requirement}, got {value!r}")


class DomainError(ModelError):
    """Utility evaluated outside its domain (log of a non-positive value)."""


class PreferenceOrderViolated(ModelError):
    """The pooled-budget solve needs the husband's child preference to
    strictly exceed the wife's aversion; otherwise the problem degenerates."""


class NonPositiveTransfer(ModelError):
    """Per-child transfer must be strictly positive."""


class BoundaryStatics(ModelError):
    """Comparative statics requested at (or across) the zero-fertility kink,
    where the clamped fertility is not differentiable."""


class NumericalFailure(ModelError):
    """A valid input drives an intermediate value outside the floating-point
    range, so no answer can be computed to the printed precision."""


class NonFiniteObjective(ModelError):
    """Objective returned NaN or infinity inside the search interval."""


class InvalidDistribution(ModelError):
    """Population specification contains an unusable distribution or count."""


class HouseholdSolveFailure(ModelError):
    """A household inside a population sweep failed to solve; ``params`` are
    the household's drawn ``ModelParams``."""

    def __init__(self, index: int, cause: Exception, params):
        self.index = index
        self.params = params
        super().__init__(f"household {index} failed to solve: {cause}; {params!r}")


class ScenarioError(ModelError):
    """Base class for scenario-file problems."""


class ParseError(ScenarioError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class UnknownKey(ScenarioError):
    def __init__(self, line_no: int, key: str):
        self.line_no = line_no
        self.key = key
        super().__init__(f"line {line_no}: unknown key {key!r}")


class MissingKey(ScenarioError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"missing required key {key!r}")
