"""Symbolic coefficient-field presets with exact derivatives.

The leading-term formulas need values, log-gradients and log-Laplacians of
the positive coefficient functions h_i at the blowup points, the location
search needs log-Hessians there (the log-Laplacian is their trace), and the
cell quadrature needs values at arbitrary points. Restricting h to named presets
keeps the derivative data exact instead of numerically differentiated.
Frequencies are integer vectors so the fields are periodic on the unit
torus. Every method takes points x of shape (..., 2) and broadcasts over
the leading axes, so one point is the case with none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, as_array, as_number

_TWO_PI = 2.0 * math.pi


class CoefficientField:
    """Interface: positive field with exact log-derivatives.

    At points x of shape (..., 2), ``value`` and ``lap_log`` return shape
    x.shape[:-1], ``grad_log`` x.shape and ``hess_log`` x.shape + (2,).
    """

    def value(self, x) -> np.ndarray:
        raise NotImplementedError

    def grad_log(self, x) -> np.ndarray:
        raise NotImplementedError

    def hess_log(self, x) -> np.ndarray:
        raise NotImplementedError

    def lap_log(self, x) -> np.ndarray:
        return np.trace(self.hess_log(x), axis1=-2, axis2=-1)


@dataclass(frozen=True)
class ConstantField(CoefficientField):
    """h(x) = c with c > 0."""

    constant: float = 1.0

    def __post_init__(self):
        constant = as_number(self.constant, "constant field value")
        if constant <= 0.0:
            raise InputError(f"constant field value must be positive, got {constant}")
        object.__setattr__(self, "constant", constant)

    def value(self, x) -> np.ndarray:
        return np.full(np.shape(x)[:-1], self.constant)

    def grad_log(self, x) -> np.ndarray:
        return np.zeros(np.shape(x))

    def hess_log(self, x) -> np.ndarray:
        return np.zeros(np.shape(x) + (2,))


@dataclass(frozen=True)
class SinusoidalField(CoefficientField):
    """h(x) = base + amplitude * sin(2 pi k . x + phase), integer k."""

    amplitude: float
    frequency: tuple[int, int]
    phase: float = 0.0
    base: float = 1.0

    def __post_init__(self):
        k = as_array(self.frequency, "frequency", (2,))
        if np.any(k != np.round(k)):
            raise InputError(f"frequency must be integers, got {self.frequency}")
        object.__setattr__(self, "frequency", (int(k[0]), int(k[1])))
        for name in ("amplitude", "phase", "base"):
            object.__setattr__(self, name, as_number(getattr(self, name), name))
        if self.base - abs(self.amplitude) <= 0.0:
            raise InputError(
                "sinusoidal field must stay positive: need base > |amplitude|"
            )

    def _angle(self, x):
        x = np.asarray(x, dtype=float)
        return (
            _TWO_PI
            * (self.frequency[0] * x[..., 0] + self.frequency[1] * x[..., 1])
            + self.phase
        )

    def value(self, x) -> np.ndarray:
        return self.base + self.amplitude * np.sin(self._angle(x))

    def _parts(self, x):
        """k, the angle's sine, h and grad h at x, from one angle."""
        angle = self._angle(x)
        k, sin = np.array(self.frequency, dtype=float), np.sin(angle)
        slope = _TWO_PI * self.amplitude * np.cos(angle)
        return k, sin, self.base + self.amplitude * sin, slope[..., None] * k

    def grad_log(self, x) -> np.ndarray:
        _, _, h, grad_h = self._parts(x)
        return grad_h / h[..., None]

    def hess_log(self, x) -> np.ndarray:
        k, sin, h, grad_h = self._parts(x)
        h = h[..., None, None]
        hess_h = (-(_TWO_PI**2) * self.amplitude * sin)[..., None, None] * np.outer(k, k)
        return hess_h / h - grad_h[..., :, None] * grad_h[..., None, :] / h**2


def field_from_config(data: dict) -> CoefficientField:
    """Build a field from its CLI description (type + parameters)."""
    if not isinstance(data, dict) or "type" not in data:
        raise InputError("field description must be an object with a 'type' key")
    kind = data["type"]
    if kind == "constant":
        return ConstantField(constant=data.get("value", 1.0))
    if kind == "sinusoidal":
        for key in ("amplitude", "frequency"):
            if key not in data:
                raise InputError(f"sinusoidal field needs {key!r}")
        return SinusoidalField(
            amplitude=data["amplitude"],
            frequency=data["frequency"],
            phase=data.get("phase", 0.0),
            base=data.get("base", 1.0),
        )
    raise InputError(f"unknown field type {kind!r}")
