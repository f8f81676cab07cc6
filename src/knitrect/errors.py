"""Exception taxonomy shared across the package, and the setting checks.

DataError covers anything caused by malformed or degenerate input data,
settings included (CLI exit code 3).  NumericError covers numerical
failures during computation, e.g. diverging training runs (exit code 4).
"""

import numbers
import sys


class DataError(ValueError):
    """Input data is malformed, inconsistent, or degenerate."""


class NumericError(RuntimeError):
    """A numerical computation failed (non-finite values, divergence)."""


class TrainingDiverged(NumericError):
    """Training loss blew up past the divergence guard."""


def _finite(value) -> bool:
    """Whether value is a real number that is a finite float; bool is none."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _shown(value) -> str:
    """repr(value) for an error message; a value whose repr fails shows as its type.

    repr refuses an int of more digits than sys.get_int_max_str_digits
    (4,300 by default), also inside a tuple, with ValueError.
    """
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


def _integer(name: str, value, minimum: int) -> int:
    """value as an int >= minimum; an integral float such as 8.0 passes."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise DataError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    return int(value)


def _positive(name: str, value) -> None:
    """Raise DataError unless value is a positive finite number; value itself is left as it is."""
    if not _finite(value) or value <= 0:
        raise DataError(f"{name} must be a positive finite number, got {_shown(value)}")


def _integers(obj, **minimums) -> None:
    """Check the named integer fields of a frozen dataclass and store them as ints."""
    for name, low in minimums.items():
        object.__setattr__(obj, name, _integer(name, getattr(obj, name), low))
