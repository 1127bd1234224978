"""Tests of the offline stability checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from caccsim.config import load_sweep
from caccsim.controllers import GainPair
from caccsim.stability import (
    MAX_EIGEN_SIZE,
    FrequencySweep,
    TopologyMatrix,
    gamma_lower_bound,
    string_stability_margin,
    transfer_magnitude,
)


def test_topology_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        TopologyMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        TopologyMatrix(np.array([[math.nan]]))
    assert TopologyMatrix(np.eye(3)).n == 3


def test_predecessor_chain_is_diagonal():
    m = TopologyMatrix.from_predecessor_chain([1.0, 1.0, 0.5])
    assert m.entries.tolist() == [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 0.5],
    ]


def test_gamma_bound_zero_for_real_spectra():
    """Diagonal and triangular couplings need no speed-error weighting."""
    assert gamma_lower_bound(TopologyMatrix(np.diag([1.0, 2.0, 3.0]))) == 0.0
    assert gamma_lower_bound(TopologyMatrix.from_predecessor_chain([1.0] * 8)) == 0.0
    tri = np.triu(np.ones((5, 5)))
    assert gamma_lower_bound(TopologyMatrix(tri)) == 0.0


def test_gamma_bound_conjugate_pair_hand_value():
    """Eigenvalues 1 +/- j give a bound of 2 to the power -1/4."""
    m = TopologyMatrix(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    assert gamma_lower_bound(m) == pytest.approx(2.0 ** -0.25, abs=1e-6)


def test_gamma_bound_second_hand_value():
    """Eigenvalues 3 +/- 4j give 4 / sqrt(15)."""
    m = TopologyMatrix(np.array([[3.0, 4.0], [-4.0, 3.0]]))
    assert gamma_lower_bound(m) == pytest.approx(4.0 / math.sqrt(15.0), rel=1e-9)


def test_gamma_bound_purely_imaginary_pair_is_unbounded():
    m = TopologyMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert gamma_lower_bound(m) == math.inf


def test_gamma_bound_accepts_plain_arrays():
    assert gamma_lower_bound(np.diag([2.0, 5.0])) == 0.0


def test_gamma_bound_scale_invariant():
    """Scaling the coupling by a positive factor moves every eigenvalue
    by that factor and leaves the bound unchanged."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = rng.normal(size=(4, 4))
        c = float(rng.uniform(0.1, 50.0))
        b0 = gamma_lower_bound(a)
        b1 = gamma_lower_bound(c * a)
        if math.isinf(b0):
            assert math.isinf(b1)
        else:
            assert b1 == pytest.approx(b0, rel=1e-9, abs=1e-12)


def test_gamma_bound_transpose_invariant():
    rng = np.random.default_rng(29)
    for _ in range(50):
        a = rng.normal(size=(5, 5))
        b0 = gamma_lower_bound(a)
        b1 = gamma_lower_bound(a.T)
        if math.isinf(b0):
            assert math.isinf(b1)
        else:
            assert b1 == pytest.approx(b0, rel=1e-9, abs=1e-12)


def test_gamma_bound_eigensolver_against_characteristic_roots():
    """2x2 general case checked against the quadratic formula."""
    rng = np.random.default_rng(41)
    for _ in range(100):
        a = rng.uniform(-3.0, 3.0, size=(2, 2))
        tr = a[0, 0] + a[1, 1]
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        disc = tr * tr - 4.0 * det
        if disc >= 0:
            expected = 0.0
        else:
            re = tr / 2.0
            im = math.sqrt(-disc) / 2.0
            mag = math.hypot(re, im)
            if re == 0.0:
                expected = math.inf
            else:
                expected = im / math.sqrt(abs(re) * mag)
        got = gamma_lower_bound(a)
        if math.isinf(expected):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-10)


def test_eigen_size_guard():
    n = MAX_EIGEN_SIZE + 1
    dense = np.eye(n) + np.ones((n, n))
    with pytest.raises(ValueError, match="not supported"):
        gamma_lower_bound(dense)
    big_tri = np.triu(np.ones((n, n)))
    assert gamma_lower_bound(big_tri) == 0.0


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
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
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


def test_transfer_magnitude_scales_with_adjacency_and_k():
    gains = GainPair(k=0.1, gamma=2.0)
    strong = GainPair(k=0.2, gamma=2.0)
    base = transfer_magnitude(0.5, gains)
    assert transfer_magnitude(0.5, strong) == pytest.approx(2.0 * base, rel=1e-12)
    assert transfer_magnitude(0.5, gains, adjacency=0.5) == pytest.approx(
        0.5 * base, rel=1e-12
    )


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
