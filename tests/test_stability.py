"""Tests of the offline stability checks."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from caccsim.config import load_sweep
from caccsim.controllers import GainPair
from caccsim.stability import (
    FrequencySweep,
    string_stability_margin,
    transfer_magnitude,
)


def test_frequency_sweep_validation_and_spacing():
    with pytest.raises(ValueError, match="omega_min"):
        FrequencySweep(omega_min=0.0)
    with pytest.raises(ValueError, match="points"):
        FrequencySweep(points=1)
    sweep = FrequencySweep()
    omegas = sweep.omegas()
    assert len(omegas) == 400
    assert omegas[0] == pytest.approx(1e-3, rel=1e-12)
    assert omegas[-1] == pytest.approx(1e2, rel=1e-12)
    ratios = omegas[1:] / omegas[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)


@pytest.mark.parametrize("field", ["omega_min", "omega_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_frequency_sweep_rejects_non_finite_bound_naming_the_field(
    tmp_path, field, value
):
    """A sweep bound that is not finite fails at the dataclass, also when
    read from a sweep file, and the error names that bound."""
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        FrequencySweep(**{field: value})
    path = tmp_path / "sweep.ini"
    path.write_text(f"[sweep]\n{field} = {value}\n", encoding="utf-8")
    prefix = re.escape(f"{path}: [sweep]: ")
    with pytest.raises(ValueError, match=f"^{prefix}{field} must be finite"):
        load_sweep(path)


def test_transfer_magnitude_low_frequency_limit():
    """The sweep floor sits at the static gain, not at unity."""
    gains = GainPair(k=0.1, gamma=1.0)
    assert transfer_magnitude(1e-3, gains) == pytest.approx(0.1, abs=1e-5)


def test_transfer_magnitude_hand_value_at_unit_frequency():
    """At 1 rad/s the denominator has unit magnitude, so
    |G| = k * sqrt(1 + (0.76 + gamma)^2)."""
    gains = GainPair(k=0.1, gamma=1.0)
    expected = 0.1 * math.sqrt(1.0 + 1.76 ** 2)
    assert transfer_magnitude(1.0, gains) == pytest.approx(expected, rel=1e-12)
    assert transfer_magnitude(1.0, gains) == pytest.approx(0.20243, abs=1e-4)


def test_transfer_magnitude_depends_on_delay_only_via_horizon():
    """Moving seconds between time gap and delay leaves |G| unchanged."""
    gains = GainPair(k=0.1, gamma=3.0)
    omegas = FrequencySweep().omegas()
    a = transfer_magnitude(omegas, gains, time_gap=0.7, comm_delay=0.06)
    b = transfer_magnitude(omegas, gains, time_gap=0.76, comm_delay=0.0)
    assert np.allclose(a, b, rtol=1e-12, atol=0.0)


def test_transfer_magnitude_scales_with_k():
    gains = GainPair(k=0.1, gamma=2.0)
    strong = GainPair(k=0.2, gamma=2.0)
    base = transfer_magnitude(0.5, gains)
    assert transfer_magnitude(0.5, strong) == pytest.approx(2.0 * base, rel=1e-12)


def test_transfer_magnitude_array_matches_scalars():
    """Vector and scalar evaluation agree to rounding (the complex exp
    kernel may differ by one ulp between the two paths)."""
    gains = GainPair(k=0.1, gamma=4.0)
    omegas = np.array([0.01, 0.3, 1.0, 7.0])
    batched = transfer_magnitude(omegas, gains)
    for n, w in enumerate(omegas):
        assert batched[n] == pytest.approx(
            transfer_magnitude(float(w), gains), rel=1e-13
        )


def test_transfer_magnitude_refuses_invalid_gains():
    with pytest.raises(ValueError, match="invalid gain"):
        transfer_magnitude(1.0, GainPair.invalid())


@pytest.mark.parametrize("gamma", [float(g) for g in range(1, 11)])
def test_default_candidates_are_string_stable(gamma):
    margin = string_stability_margin(GainPair(k=0.1, gamma=gamma))
    assert margin.stable
    assert margin.max_magnitude <= 1.0


def test_margin_reports_sweep_maximum():
    gains = GainPair(k=0.1, gamma=1.0)
    sweep = FrequencySweep()
    margin = string_stability_margin(gains, sweep=sweep)
    magnitudes = transfer_magnitude(sweep.omegas(), gains)
    assert margin.max_magnitude == float(np.max(magnitudes))
    assert margin.worst_omega == float(sweep.omegas()[int(np.argmax(magnitudes))])
    assert margin.skipped_omegas == []


def test_excessive_static_gain_is_unstable():
    margin = string_stability_margin(GainPair(k=1.2, gamma=1.0))
    assert not margin.stable
    assert margin.max_magnitude > 1.0
