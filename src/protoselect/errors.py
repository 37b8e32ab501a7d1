"""Exception hierarchy shared across the package."""

from __future__ import annotations

import operator


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


def as_index(value, name: str) -> int:
    """`value` as a Python int; InputError if it is not an integer (2.0 included)."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
