"""Exception hierarchy, and the one set of rules for reading arguments.

An index or count is a Python or numpy integer, never a bool or a float
(2.0 included). A real is a finite Python or numpy real, never a bool, and
positive unless the caller allows zero. Arrays of reals are data, so a bool
array is valid (binary questionnaire features, say). A value that breaks a
rule raises InputError naming its argument; a valid one comes back as a
Python int or float.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np


class ProtoSelectError(Exception):
    """Base class for all protoselect errors."""


class InputError(ProtoSelectError):
    """Malformed data, bad configuration, or invalid arguments (CLI exit 1)."""


class DegenerateDataError(InputError):
    """Data admits no meaningful answer, e.g. all rows identical."""


class NumericError(ProtoSelectError):
    """A computation produced non-finite values."""


class GuardError(ProtoSelectError):
    """An enumeration guard refused an instance that is too large (CLI exit 3)."""


class SolverError(ProtoSelectError):
    """The weight solver did not converge (CLI exit 2).

    Attributes:
        best_iterate: best feasible weights seen before giving up, if any.
        residual: KKT residual of the best iterate.
        partial: partial selection result attached by selection routines.
    """

    def __init__(self, message, best_iterate=None, residual=None, partial=None):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.residual = residual
        self.partial = partial


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
    """`values` as a tuple of non-negative ints by the rule of `as_index`, in C-level passes."""
    try:
        values = tuple(values)
        out = tuple(map(operator.index, values))
    except TypeError:
        raise InputError(f"{name} must be integers") from None
    if bool in map(type, values):
        raise InputError(f"{name} must be integers, not bools")
    if out and min(out) < 0:
        raise InputError(f"{name} must be non-negative")
    return out


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
