"""Symbolic coefficient-field presets with exact derivatives.

The leading-term formulas need values, log-gradients and log-Laplacians of
the positive coefficient functions h_i at the blowup points, and the cell
quadrature needs values at arbitrary points. Restricting h to named presets
keeps the derivative data exact instead of numerically differentiated.
Frequencies are integer vectors so the fields are periodic on the unit
torus. ``value`` broadcasts over leading axes of x; the derivative methods
take a single point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, as_array, as_number

_TWO_PI = 2.0 * math.pi


class CoefficientField:
    """Interface: positive field with exact log-derivatives."""

    def value(self, x):
        raise NotImplementedError

    def grad_log(self, x) -> np.ndarray:
        raise NotImplementedError

    def lap_log(self, x) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantField(CoefficientField):
    """h(x) = c with c > 0."""

    constant: float = 1.0

    def __post_init__(self):
        constant = as_number(self.constant, "constant field value")
        if constant <= 0.0:
            raise InputError(f"constant field value must be positive, got {constant}")
        object.__setattr__(self, "constant", constant)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], self.constant) if x.ndim > 1 else self.constant

    def grad_log(self, x) -> np.ndarray:
        return np.zeros(2)

    def lap_log(self, x) -> float:
        return 0.0


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

    def value(self, x):
        return self.base + self.amplitude * np.sin(self._angle(x))

    def _grad_h(self, x) -> np.ndarray:
        return (
            _TWO_PI
            * self.amplitude
            * math.cos(float(self._angle(x)))
            * np.array(self.frequency, dtype=float)
        )

    def grad_log(self, x) -> np.ndarray:
        return self._grad_h(x) / float(self.value(x))

    def lap_log(self, x) -> float:
        k2 = float(self.frequency[0] ** 2 + self.frequency[1] ** 2)
        h = float(self.value(x))
        lap_h = -(_TWO_PI**2) * k2 * self.amplitude * math.sin(float(self._angle(x)))
        grad_h = self._grad_h(x)
        return lap_h / h - float(grad_h @ grad_h) / h**2


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
