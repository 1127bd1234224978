"""Offline stability check for the consensus controller.

One check: a frequency sweep of the leader-to-follower disturbance
transfer magnitude, for one follower coupled to one delayed leader.  A
gain pair is string stable when the magnitude never exceeds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .controllers import GainPair

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
    spacing: str = "log"

    def __post_init__(self) -> None:
        for name in ("omega_min", "omega_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (0 < self.omega_min < self.omega_max):
            raise ValueError("need 0 < omega_min < omega_max")
        if self.points < 2:
            raise ValueError("need at least 2 sweep points")
        if self.spacing != "log":
            raise ValueError(f"unsupported spacing {self.spacing!r}")

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
    # Huge gains overflow to a non-finite magnitude; the sweep skips those.
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
    """Result of a string-stability sweep.

    skipped_omegas lists the sweep points whose magnitude came out
    non-finite: a valid pair's denominator has no zero at omega > 0, so
    these are points where the magnitude overflowed (huge k or gamma).
    """

    max_magnitude: float
    worst_omega: float
    stable: bool
    skipped_omegas: list = field(default_factory=list)


def string_stability_margin(
    gains: GainPair,
    time_gap: float = 0.7,
    comm_delay: float = 0.06,
    sweep: FrequencySweep | None = None,
) -> StabilityMargin:
    """Sweep the transfer magnitude; stable when it never exceeds one.

    Sweep points whose magnitude is not finite (it overflowed) are skipped
    and reported in skipped_omegas.
    """
    sweep = sweep or FrequencySweep()
    omegas = sweep.omegas()
    magnitudes = transfer_magnitude(omegas, gains, time_gap, comm_delay)
    finite = np.isfinite(magnitudes)
    skipped = [float(w) for w in omegas[~finite]]
    if not finite.any():
        raise ValueError("every sweep point gave a non-finite (overflowed) magnitude")
    magnitudes = magnitudes[finite]
    omegas = omegas[finite]
    worst = int(np.argmax(magnitudes))
    max_magnitude = float(magnitudes[worst])
    return StabilityMargin(
        max_magnitude=max_magnitude,
        worst_omega=float(omegas[worst]),
        stable=max_magnitude <= 1.0,
        skipped_omegas=skipped,
    )
