"""Offline stability check for the consensus controller.

One check: a frequency sweep of the leader-to-follower disturbance
transfer magnitude, for one follower coupled to one delayed leader.  A
gain pair is string stable when the magnitude never exceeds one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .controllers import GainPair, require

__all__ = [
    "FrequencySweep",
    "StabilityMargin",
    "transfer_magnitude",
    "string_stability_margin",
]


@dataclass(frozen=True)
class FrequencySweep:
    """Logarithmically spaced angular frequencies (rad/s)."""

    omega_min: float = 1e-3
    omega_max: float = 1e2
    points: int = 400

    def __post_init__(self) -> None:
        require(self, "finite", math.isfinite, "omega_min", "omega_max")
        require(self, "positive", lambda v: v > 0, "omega_min")
        if not self.omega_min < self.omega_max:
            raise ValueError("omega_max must exceed omega_min")
        require(self, "an integer of at least 2",
                lambda v: isinstance(v, numbers.Integral) and v >= 2, "points")

    def omegas(self) -> np.ndarray:
        return np.logspace(
            math.log10(self.omega_min), math.log10(self.omega_max), self.points
        )


def transfer_magnitude(
    omega,
    gains: GainPair,
    time_gap: float = 0.7,
    comm_delay: float = 0.06,
):
    """|G| of the leader-to-follower disturbance transfer at omega (rad/s).

    Elementwise over arrays.  The delay enters the numerator phase (unit
    magnitude) and the spacing horizon, so the magnitude depends on the
    delay only through time_gap + comm_delay.  The low-frequency limit is
    k, a property of this transfer model rather than unity.
    """
    if not gains.valid:
        raise ValueError("invalid gain pair")
    s = 1j * np.asarray(omega, dtype=float)
    # Huge gains overflow to a non-finite magnitude, which is not stable.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        numerator = (
            gains.k
            * np.exp(-s * comm_delay)
            * (1.0 + s * (time_gap + comm_delay) + s * gains.gamma)
        )
        denominator = s * s + gains.gamma * s + 1.0
        magnitude = np.abs(numerator) / np.abs(denominator)
    if np.ndim(omega) == 0:
        return float(magnitude)
    return magnitude


@dataclass
class StabilityMargin:
    """Result of a string-stability sweep."""

    max_magnitude: float
    worst_omega: float
    stable: bool


def string_stability_margin(
    gains: GainPair,
    time_gap: float = 0.7,
    comm_delay: float = 0.06,
    sweep: FrequencySweep | None = None,
) -> StabilityMargin:
    """Sweep the transfer magnitude; stable when it never exceeds one.

    A magnitude that overflowed (huge k or gamma) counts like any other:
    NaN is taken as the peak and fails the bound, as inf does.
    """
    sweep = sweep or FrequencySweep()
    omegas = sweep.omegas()
    magnitudes = transfer_magnitude(omegas, gains, time_gap, comm_delay)
    worst = int(np.argmax(magnitudes))
    max_magnitude = float(magnitudes[worst])
    return StabilityMargin(
        max_magnitude=max_magnitude,
        worst_omega=float(omegas[worst]),
        stable=max_magnitude <= 1.0,
    )
