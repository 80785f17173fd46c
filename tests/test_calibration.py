import numpy as np
import pytest

from logmult.calibration import (
    make_counterexample_profiles,
    make_lowpass,
    make_lp_pair,
)
from logmult.field import GridSpec, NyquistError, transform
from logmult.multiplier import SpectralFactor


def test_lowpass_plateau_and_support():
    prof = make_lowpass(1.0, 2.0)
    assert prof(0.5) == 1.0
    assert prof(4.0) == 0.0
    assert prof(1.0) == 1.0
    assert prof(2.0) == 0.0


def test_lowpass_monotone_bridge():
    prof = make_lowpass(1.0, 2.0)
    r = np.linspace(0.0, 3.0, 1000)
    v = prof(r)
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.all(np.diff(v) <= 1e-12)
    mid = prof(1.5)
    assert 0.0 < mid < 1.0


def test_lowpass_rejects_bad_radii():
    with pytest.raises(ValueError):
        make_lowpass(2.0, 1.0)


def test_psi_vanishes_off_octave():
    pair = make_lp_pair((-3, 3))
    assert pair.psi_hat(0.25) == 0.0
    assert pair.psi_hat(4.0) == 0.0
    assert pair.psi_hat(1.0) == 1.0


def test_telescoping_sum_at_unit_frequency():
    pair = make_lp_pair((-3, 3))
    val = pair.partition_sum(np.array([1.0]))[0]
    assert abs(val - 1.0) < 1e-14


def test_telescoping_partition_covered_band():
    pair = make_lp_pair((-3, 4))
    lo, hi = pair.covered_band
    r = np.geomspace(lo, hi, 2000)
    assert np.max(np.abs(pair.partition_sum(r) - 1.0)) < 1e-12


def test_at_most_two_octaves_active():
    pair = make_lp_pair((-3, 4))
    r = np.geomspace(*pair.covered_band, 1500)
    counts = np.zeros_like(r)
    for scale in pair.scales:
        counts += (pair.psi_hat(r * 2.0**-scale) > 0).astype(float)
    assert counts.max() <= 2


def test_counterexample_profiles_reference_values():
    eta_hat, beta_hat = make_counterexample_profiles()
    assert beta_hat(1.0) == 1.0
    assert eta_hat(1.0 / 250.0) == 1.0  # inside the rho/2 plateau
    assert eta_hat(1.0 / 50.0) == 0.0


def test_counterexample_profiles_desk_radii():
    eta_hat, _ = make_counterexample_profiles(eta_radius=1.0 / 8.0)
    assert eta_hat(1.0 / 4.0) == 0.0


def test_counterexample_profiles_name_violation():
    with pytest.raises(ValueError, match="plateau"):
        make_counterexample_profiles(beta_plateau=(0.8, 1.2), beta_support=(0.9, 1.1))


def test_profile_field_integral_matches_zero_frequency():
    grid = GridSpec(1, 512, 32.0)
    eta_hat, beta_hat = make_counterexample_profiles(0.4, (0.9, 1.1), (0.55, 1.25))
    eta = SpectralFactor(eta_hat).field_on(grid)
    total = np.sum(eta.values) * grid.cell_volume
    assert abs(total - 1.0) < 1e-12
    beta = SpectralFactor(beta_hat).field_on(grid)
    assert abs(np.sum(beta.values) * grid.cell_volume) < 1e-12


def test_profile_field_is_real():
    grid = GridSpec(1, 512, 32.0)
    _, beta_hat = make_counterexample_profiles(0.4, (0.9, 1.1), (0.55, 1.25))
    beta = SpectralFactor(beta_hat).field_on(grid)
    assert np.max(np.abs(beta.values.imag)) < 1e-12 * np.max(np.abs(beta.values.real))


def test_profile_field_spectrum_matches_samples():
    grid = GridSpec(1, 512, 32.0)
    prof = make_lowpass(1.0, 2.0)
    f = SpectralFactor(prof).field_on(grid)
    s = transform(f)
    expected = prof(grid.frequency_radii())
    assert np.max(np.abs(s.coefficients - expected)) < 1e-12


def test_profile_field_two_resolutions_agree():
    coarse = GridSpec(1, 256, 32.0)
    fine = GridSpec(1, 512, 32.0)
    prof = make_lowpass(1.0, 2.0)
    f_c = SpectralFactor(prof).field_on(coarse)
    f_f = SpectralFactor(prof).field_on(fine)
    # fine grid contains the coarse grid points at even indices
    assert np.max(np.abs(f_f.values[::2] - f_c.values)) < 1e-10


def test_profile_field_nyquist_guard():
    grid = GridSpec(1, 64, 32.0)  # Nyquist = 1
    prof = make_lowpass(1.0, 2.0)
    with pytest.raises(NyquistError):
        SpectralFactor(prof).field_on(grid)


def test_profile_records_round_trip_text():
    pair = make_lp_pair((-2, 5))
    record = pair.to_record()
    assert record["scale_min"] == -2
    assert record["phi"]["kind"] == "lowpass"
    assert record["psi"]["kind"] == "telescoped-annulus"
