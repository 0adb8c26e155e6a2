"""Exception types shared across the package, and the field checks that raise them.

The CLI maps these onto its exit-code contract: validation problems
(bad inputs, capacity guards) exit 1, computation failures exit 2.  Every
entry point and loader checks its fields with the checkers below, so a
malformed field is a ValidationError that names it.
"""

import math
import numbers
import sys
from collections.abc import Sequence

import numpy as np


class ValidationError(ValueError):
    """Invalid user input: bad spec fields, malformed files, out-of-range args."""


class CapacityError(ValidationError):
    """Instance too large for the chosen (dense / exhaustive) representation."""


class SolverError(RuntimeError):
    """Numerical solver failed to produce a usable answer."""


class ConsistencyError(RuntimeError):
    """Internal numerical invariant violated (e.g. entropy below -1e-12)."""


def integer(value, name: str, positive: bool = False) -> int:
    """value as an int, after checking that it is a nonnegative integer, or
    a positive one; a boolean is not one."""
    # value < positive: True compares as 1
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < positive:
        raise ValidationError(f"{name} must be a {'positive' if positive else 'nonnegative'} "
                              f"integer, got {value!r}")
    return int(value)


def power_of_two(value, name: str, limit: int | None = None) -> int:
    """value as an int, after checking that it is a power of two; one above
    limit, when given, is a CapacityError."""
    value = integer(value, name, positive=True)
    if value & (value - 1):
        raise ValidationError(f"{name} must be a power of two, got {value}")
    if limit is not None and value > limit:
        raise CapacityError(f"{name}={value} exceeds the limit {limit}")
    return value


def real(value, name: str, low: float = 0.0, high: float = math.inf,
         open: bool = False) -> float:
    """value as a float, after checking that it is a real number (not a
    boolean) in [low, high], or in (low, high) when open, and within double
    range, so never infinite.  low is 0 or -inf when high is inf."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (low < value < high if open else low <= value <= high)
            or not abs(value) <= sys.float_info.max):  # inf, or an int past double range
        if high < math.inf:
            what = f"lie in {'(' if open else '['}{low:g},{high:g}{')' if open else ']'}"
        elif low > -math.inf:
            what = f"be finite and {'positive' if open else 'nonnegative'}"
        else:
            what = "be a finite number"
        raise ValidationError(f"{name} must {what}, got {value!r}")
    return float(value)


def reals(values, name: str) -> np.ndarray:
    """values as a float array, after checking that its entries are real
    numbers: a string, complex number, ragged nesting or other object is
    refused, and so is a boolean anywhere in a list or tuple, at any
    depth (numpy reads one among numbers as 0 or 1).  An array is judged
    by its dtype alone, so an array of booleans is refused unscanned.
    NaN and the infinities pass, for the caller to rule on."""
    if _holds_boolean(values):
        raise ValidationError(f"{name} must hold only real numbers, got a boolean")
    try:
        a = np.asarray(values)
    except ValueError:  # ragged nesting
        raise ValidationError(f"{name} must hold only real numbers, got nested sequences") from None
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must hold only real numbers, got {a.dtype} entries")
    return a.astype(float, copy=False)


def _holds_boolean(values) -> bool:
    """Whether a list or tuple holds a boolean at any depth of its nested
    lists and tuples."""
    if not isinstance(values, (list, tuple)):
        return isinstance(values, (bool, np.bool_))
    kinds = set(map(type, values))
    # a flat list of Python numbers, the common case, is settled in one pass
    return not kinds <= {int, float} and any(map(_holds_boolean, values))


def sequence(value, name: str):
    """value, after checking that it is a sequence or an array with at
    least one axis: a number, None, string, set or iterator is refused."""
    if isinstance(value, np.ndarray):
        valid = value.ndim > 0
    else:
        valid = isinstance(value, Sequence) and not isinstance(value, (str, bytes))
    if not valid:
        raise ValidationError(f"{name} must be a sequence, got {type(value).__name__}")
    return value


def binary(a, name: str) -> np.ndarray:
    """a as a uint8 array (a itself when it already is one), after checking
    that every entry is 0 or 1."""
    a = np.asarray(a)
    if a.dtype.kind in "bu":  # no negative or fractional entries to rule out
        valid = a.size == 0 or a.max() <= 1
    else:
        valid = np.all((a == 0) | (a == 1))
    if not valid:
        raise ValidationError(f"{name} must hold only 0 and 1")
    return a.astype(np.uint8, copy=False)


def bitmask(value, bits: int, name: str):
    """value, after checking that it is an int or an integer array whose
    every entry is an axis bitmask in [0, 2^bits)."""
    a = np.asarray(value)
    if a.dtype.kind not in "iu" or np.any(a < 0) or np.any(a >= 1 << bits):
        raise ValidationError(f"{name} must hold integer axis bitmasks, none outside "
                              f"[0, {1 << bits})")
    return value
