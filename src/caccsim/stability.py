"""Offline stability checks for the consensus controller.

Two independent checks: a lower bound on the speed-error weight derived
from the eigenvalues of the vehicle-network coupling matrix, and a
frequency sweep of the leader-to-follower disturbance transfer magnitude.
A gain pair is string stable when the magnitude never exceeds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .controllers import GainPair

__all__ = [
    "TopologyMatrix",
    "FrequencySweep",
    "StabilityMargin",
    "gamma_lower_bound",
    "transfer_magnitude",
    "string_stability_margin",
]

MAX_EIGEN_SIZE = 16


@dataclass(frozen=True)
class TopologyMatrix:
    """Real square coupling matrix of the vehicle network."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("matrix must be at least 1x1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_predecessor_chain(cls, couplings) -> "TopologyMatrix":
        """Diagonal matrix of per-link couplings (predecessor following)."""
        return cls(np.diag(np.asarray(list(couplings), dtype=float)))


def _is_triangular(arr: np.ndarray) -> bool:
    return np.allclose(arr, np.triu(arr), atol=0.0) or np.allclose(
        arr, np.tril(arr), atol=0.0
    )


def _eigenvalues(arr: np.ndarray) -> np.ndarray:
    """Eigenvalues, exact for triangular structure, LAPACK otherwise."""
    if _is_triangular(arr):
        return np.diag(arr).astype(complex)
    if arr.shape[0] > MAX_EIGEN_SIZE:
        raise ValueError(
            f"matrices larger than {MAX_EIGEN_SIZE}x{MAX_EIGEN_SIZE} are not supported"
        )
    return np.linalg.eigvals(arr)


def gamma_lower_bound(matrix) -> float:
    """Smallest admissible speed-error weight for a coupling matrix.

    Each eigenvalue mu contributes |Im mu| / sqrt(|Re mu| * |mu|); real
    eigenvalues contribute zero, and a purely imaginary eigenvalue makes
    the bound infinite.  The result is the maximum contribution and is
    invariant under transposition and under scaling by a positive factor.
    """
    arr = matrix.entries if isinstance(matrix, TopologyMatrix) else np.asarray(
        matrix, dtype=float
    )
    bound = 0.0
    for mu in _eigenvalues(np.atleast_2d(arr)):
        im = mu.imag
        re = mu.real
        if im == 0.0:
            continue
        if re == 0.0:
            return math.inf
        contribution = abs(im) / math.sqrt(abs(re) * abs(mu))
        bound = max(bound, contribution)
    return bound


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
    adjacency: float = 1.0,
    time_gap: float = 0.7,
    comm_delay: float = 0.06,
):
    """|G| of the leader-to-follower disturbance transfer at omega (rad/s).

    Elementwise over arrays.  The delay enters the numerator phase (unit
    magnitude) and the spacing horizon, so the magnitude depends on the
    delay only through time_gap + comm_delay.  The low-frequency limit is
    adjacency * k, a property of this transfer model rather than unity.
    """
    if not gains.valid:
        raise ValueError("invalid gain pair")
    s = 1j * np.asarray(omega, dtype=float)
    # Huge gains overflow to a non-finite magnitude; the sweep skips those.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        numerator = (
            adjacency
            * gains.k
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
    adjacency: float = 1.0,
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
    magnitudes = transfer_magnitude(
        omegas, gains, adjacency, time_gap, comm_delay
    )
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
