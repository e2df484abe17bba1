"""Exception types and the input checks shared across the package.

Public entry points check their input with ``as_number``, ``as_fraction``,
``as_count`` or ``as_array``, so a wrong type, a non-finite value or a wrong
shape is an ``InputError`` that names the offending parameter.
"""

import math

import numpy as np

# e^x is a finite float exactly for x <= this (709.78...): it overflows from
# the next float up.
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


class LiouvilleError(Exception):
    """Base class for all package errors."""


class InputError(LiouvilleError):
    """Rejected input: wrong shape, non-finite data, out-of-range parameter."""


class NoRealRootError(LiouvilleError):
    """The height quadratic has a negative discriminant."""


class DomainError(LiouvilleError):
    """Argument outside the validity domain of the requested operation."""


class OutOfRangeError(DomainError):
    """Radius outside the computed profile range."""


class IntegrationError(LiouvilleError):
    """The ODE integrator failed; carries the last radius that was reached."""

    def __init__(self, message, last_radius=None):
        super().__init__(message)
        self.last_radius = last_radius


class ExtractionError(LiouvilleError):
    """Tail extraction from a profile did not converge."""


class NonConvergenceError(LiouvilleError):
    """A damped Newton solve (``newton.damped_newton``) did not converge.

    Carries the ``best`` iterate, its sup-norm ``best_residual`` and the
    ``trace``: per iterate, the residual, step length and halvings.
    """

    def __init__(self, message, best=None, best_residual=None, trace=()):
        super().__init__(message)
        self.best = best
        self.best_residual = best_residual
        self.trace = trace


class SingularityError(DomainError):
    """Evaluation requested at (or too close to) a singular point."""


class GeometryError(LiouvilleError):
    """Inconsistent geometric data (coincident points, oversized balls...)."""


class WrongRegimeError(LiouvilleError):
    """A leading-term formula was requested outside its parameter regime."""



def as_array(value, name: str, shape: tuple | None = None) -> np.ndarray:
    """A float array of the given shape (any shape if None), every entry finite.

    Strings, booleans, None and ragged nesting are rejected, not converted.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise InputError(f"{name} must be numeric, got {value!r}")
    if shape is not None and arr.shape != shape:
        raise InputError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} must be finite, got {value!r}")
    return arr.astype(float, copy=False)


def as_number(value, name: str) -> float:
    """A finite float: ``as_array`` of shape ()."""
    if type(value) is float and math.isfinite(value):  # already what as_array returns
        return value
    return float(as_array(value, name, ()))


def as_fraction(value, name: str) -> float:
    """A number strictly between 0 and 1, such as a scale or a tolerance."""
    value = as_number(value, name)
    if not 0.0 < value < 1.0:
        raise InputError(f"{name} must lie in (0, 1), got {value}")
    return value


def as_count(value, name: str, lo: int, hi: int | None = None) -> int:
    """An integer in [lo, hi], or of at least ``lo`` if ``hi`` is None.

    Floats such as 2.0 or 2.5 are rejected, not rounded.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise InputError(f"{name} must be {bound}, got {value}")
    return int(value)
