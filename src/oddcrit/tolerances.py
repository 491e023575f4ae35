"""Comparison tolerances used by the spectral condition checkers.

Two constants drive every comparison: spectral equality is decided within
``equality`` and strict inequalities must hold with margin ``strict``.  The
single knob is the scale factor: pass ``Tolerances.scaled(x)`` to loosen or
tighten both together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class Tolerances:
    equality: float = 1e-8
    strict: float = 1e-9

    @classmethod
    def scaled(cls, factor: float) -> "Tolerances":
        if not (math.isfinite(factor) and factor > 0):
            raise ParameterError(
                f"tolerance scale factor must be positive and finite, got {factor!r}"
            )
        return cls(1e-8 * factor, 1e-9 * factor)


DEFAULT_TOLERANCES = Tolerances()
