"""Exception types shared across the toolkit, and the type checks of
configuration fields."""

import numbers
import operator


class DagschedError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DagschedError):
    """A DAG or task violates a structural rule.

    ``rule`` names the first violated rule: "cycle", "dangling-edge",
    "self-loop", a value rule such as "wcet", "edge" or "deadline", or a
    document rule such as "schema".
    """

    def __init__(self, rule, message):
        super().__init__(message)
        self.rule = rule


def is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def as_int(value, rule, what):
    """`value` as a Python int; ValidationError(rule) unless it is an integer
    (bools and floats are rejected, not coerced)."""
    if type(value) is int:
        return value
    if not is_integer(value):
        raise ValidationError(rule, f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require(ok, field, expected):
    """Raise ValidationError ("config") unless ok: `field` must be `expected`."""
    if not ok:
        raise ValidationError("config", f"{field} must be {expected}")


class PathExplosionError(DagschedError):
    """Path enumeration aborted because the path count exceeds the cap."""


class OracleLimitError(DagschedError):
    """Brute-force enumeration refused: the search space exceeds the guard."""


class SolverLimitError(DagschedError):
    """Exact solver exceeded its pivot budget or could not recover an
    integer witness of its LP bound."""


class SimulationError(DagschedError):
    """Simulator misuse (horizon too small, incomplete job queried, ...)."""
