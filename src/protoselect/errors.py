"""Exception hierarchy, and the one set of rules for reading arguments.

An index or count is a Python or numpy integer, never a bool or a float
(2.0 included). A real is a finite Python or numpy real, never a bool, and
positive unless the caller allows zero. Arrays of reals are data, so a bool
array is valid (binary questionnaire features, say). A value that breaks a
rule raises InputError naming its argument; a valid one comes back as a
Python int or float. Names are a list or tuple of distinct strings, held as
a tuple. An object argument (the Gram, a Dataset, a KernelSpec, a support,
a config or a result) must be of its class.

A value class holds each array as `as_held` returns it, a read-only float
copy of its shape with finite entries, so no later write can change what the
class checked; the class checks only what is its own (signs, order, ranges).
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

# The largest index numpy can hold.
_MAX_INDEX = int(np.iinfo(np.intp).max)


class ProtoSelectError(Exception):
    """Base class for all protoselect errors."""


class InputError(ProtoSelectError):
    """Malformed data, bad configuration, or invalid arguments."""


class DegenerateDataError(InputError):
    """Data admits no meaningful answer, e.g. all rows identical."""


class NumericError(ProtoSelectError):
    """A computation produced non-finite values."""


class GuardError(ProtoSelectError):
    """An enumeration guard refused an instance that is too large."""


class SolverError(ProtoSelectError):
    """The weight solver stopped before it met the KKT tolerance.

    Attributes:
        best_iterate: best feasible weights seen before giving up, if any.
        residual: KKT residual of the best iterate.
        partial: partial selection result attached by selection routines.
        reason: why the solve stopped: "not_positive_definite" (a support
            block did not factor) or "iteration_cap" (the cap ran out).
    """

    def __init__(self, message, best_iterate=None, residual=None, partial=None, reason=None):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.residual = residual
        self.partial = partial
        self.reason = reason


def as_index(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """`value` as a Python int in [least, most]; InputError for a bool, a non-integer or out of range."""
    if isinstance(value, bool):
        raise InputError(f"{name} must be an integer, not a bool")
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise InputError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise InputError(f"{name} must be at most {most}, got {value}")
    return value


def as_indices(values, name: str) -> tuple[int, ...]:
    """`values` as a tuple of ints in [0, intp max] by the rule of `as_index`, in C-level passes."""
    try:
        values = tuple(values)
        out = tuple(map(operator.index, values))
    except TypeError:
        raise InputError(f"{name} must be integers") from None
    if bool in map(type, values):
        raise InputError(f"{name} must be integers, not bools")
    if out and min(out) < 0:
        raise InputError(f"{name} must be non-negative")
    if out and max(out) > _MAX_INDEX:
        raise InputError(f"{name} must be at most {_MAX_INDEX}")
    return out


def as_names(values, name: str) -> tuple[str, ...]:
    """`values`, a list or tuple of distinct strings, as a tuple; InputError for anything else."""
    if (not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values)
            or len(set(values)) != len(values)):
        raise InputError(f"{name} must be a list or tuple of unique strings")
    return tuple(values)


def as_real(value, name: str, allow_zero: bool = False) -> float:
    """`value` as a finite Python float above zero, or at zero with `allow_zero`; else InputError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise InputError(f"{name} is out of floating-point range") from None
    if not (0.0 < value < np.inf or (allow_zero and value == 0.0)):
        raise InputError(f"{name} must be {'non-negative' if allow_zero else 'positive'} "
                         f"and finite, got {value}")
    return value


def as_reals(values, what: str) -> np.ndarray:
    """`values` as a float array; InputError for complex or non-numeric input."""
    try:
        if np.iscomplexobj(values):
            raise InputError(f"{what} must be real numbers, not complex")
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be real numbers") from None


def as_instance(value, cls: type, name: str):
    """`value` if it is a `cls`; InputError naming the argument otherwise."""
    if not isinstance(value, cls):
        raise InputError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def as_held(values, what: str, shape: tuple, error: type = InputError) -> np.ndarray:
    """A read-only, C-ordered float copy of `values`, the one way a value class holds an array.

    InputError unless it has `shape`, where None matches any length; `error` for a
    non-finite entry.
    """
    arr = np.array(as_reals(values, what), order="C")
    if arr.shape != shape and (arr.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(arr.shape, shape))):
        raise InputError(f"{what} must have shape {str(shape).replace('None', 'any')}, "
                         f"got {arr.shape}")
    if not np.isfinite(arr).all():
        raise error(f"{what} contains non-finite entries")
    return read_only(arr)


def read_only(arr: np.ndarray) -> np.ndarray:
    """`arr`, which no one else holds, with writes refused."""
    arr.flags.writeable = False
    return arr
