"""Differential tests for the spectral-multiplier primitive and the certified-zero skip.

The primitive's reference spells the operation out (profile x translation
phase x inverse FFT, never a sample roll).  The aggregate references call the
primitive at every scale instead of skipping the certified-zero ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logmult.calibration import make_counterexample_profiles, make_lp_pair
from logmult.field import (
    GridSpec,
    NyquistError,
    SampledField,
    Spectrum,
    apply_multiplier,
    multiplier_symbol,
    piece_band,
    transform,
)
from logmult.lp_ops import (
    DyadicCubeSet,
    bmo_norm,
    maximal_function,
    representable_cube_scales,
    square_function,
)
from logmult.shifted_lab import random_band_limited

PAIR = make_lp_pair((-2, 8))
_, BETA = make_counterexample_profiles(0.4, (0.9, 1.1), (0.55, 1.25))
PROFILES = {"phi": PAIR.phi_hat, "psi": PAIR.psi_hat, "beta": BETA}
GRIDS = (GridSpec(1, 512, 16.0), GridSpec(2, 32, 8.0))


def reference_symbol(grid, profile, scale, translation):
    mesh = grid.frequency_mesh()
    radii = np.sqrt(sum(np.asarray(axis, dtype=float) ** 2 for axis in mesh))
    phase_arg = sum(t * 2.0**-scale * axis for t, axis in zip(translation, mesh))
    return profile(radii * 2.0**-scale) * np.exp(-2j * np.pi * phase_arg)


def reference_values(spectrum, profile, scale, translation):
    symbol = reference_symbol(spectrum.grid, profile, scale, translation)
    return np.fft.ifftn(spectrum.coefficients * symbol) / spectrum.grid.cell_volume


@st.composite
def multiplier_cases(draw):
    grid = draw(st.sampled_from(GRIDS))
    profile = PROFILES[draw(st.sampled_from(sorted(PROFILES)))]
    scale = draw(st.integers(-2, 4))
    if draw(st.booleans()):
        # grid-aligned after dilation: a whole number of samples at this scale
        steps = draw(st.lists(st.integers(-40, 40), min_size=grid.dimension, max_size=grid.dimension))
        translation = [k * grid.spacing * 2.0**scale for k in steps]
    else:
        translation = draw(
            st.lists(
                st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False),
                min_size=grid.dimension,
                max_size=grid.dimension,
            )
        )
    seed = draw(st.integers(0, 2**32 - 1))
    return grid, profile, scale, translation, seed


def random_spectrum(grid, seed):
    rng = np.random.default_rng(seed)
    return Spectrum(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def assert_close(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@settings(max_examples=120, deadline=None)
@given(multiplier_cases())
def test_apply_multiplier_matches_reference(case):
    grid, profile, scale, translation, seed = case
    spectrum = random_spectrum(grid, seed)
    got = apply_multiplier(spectrum, profile, scale, translation)
    assert_close(got, reference_values(spectrum, profile, scale, translation))


@settings(max_examples=60, deadline=None)
@given(multiplier_cases())
def test_multiplier_symbol_matches_reference(case):
    grid, profile, scale, translation, _ = case
    got = multiplier_symbol(grid, profile, scale, translation)
    assert_close(got, reference_symbol(grid, profile, scale, translation))


@settings(max_examples=40, deadline=None)
@given(multiplier_cases())
def test_apply_multiplier_without_profile_is_translation(case):
    grid, _, scale, translation, seed = case
    spectrum = random_spectrum(grid, seed)
    got = apply_multiplier(spectrum, translation=translation, scale=scale)
    assert_close(got, reference_values(spectrum, lambda r: np.ones_like(r), scale, translation))


def test_piece_band_rule():
    grid = GridSpec(1, 512, 16.0)
    banded = random_band_limited(grid, (0.5, 4.0), 5)
    support = PAIR.psi_hat.support  # (0.5, 2.0)
    assert piece_band(banded, support, 1) == (1.0, 4.0)
    assert piece_band(banded, support, 3) == (4.0, 4.0)  # closed: touching is not zero
    assert piece_band(banded, support, 4) is None
    unbanded = SampledField(grid, banded.values)
    assert piece_band(unbanded, support, 2) == (2.0, 8.0)
    with pytest.raises(NyquistError):
        piece_band(unbanded, support, 4)  # dilated support (8, 32) reaches Nyquist 16


# ---------------------------------------------------------------------------
# skipping certified-zero scales leaves the aggregates bit-for-bit unchanged
# ---------------------------------------------------------------------------

def every_scale(f, profile, shift):
    spectrum = transform(f)
    return {scale: apply_multiplier(spectrum, profile, scale, shift) for scale in PAIR.scales}


def full_square(f, shift):
    acc = np.zeros(f.grid.shape)
    for piece in every_scale(f, PAIR.psi_hat, shift).values():
        acc += np.abs(piece) ** 2
    return np.sqrt(acc)


def full_maximal(f, shift):
    acc = np.zeros(f.grid.shape)
    for piece in every_scale(f, PAIR.phi_hat, shift).values():
        np.maximum(acc, np.abs(piece), out=acc)
    return acc


def full_bmo(f):
    pieces = every_scale(f, PAIR.psi_hat, (0.0,) * f.grid.dimension)
    tail = {}
    running = np.zeros(f.grid.shape)
    for scale in sorted(pieces, reverse=True):
        running = running + np.abs(pieces[scale]) ** 2
        tail[scale] = running
    best = 0.0
    for k in representable_cube_scales(f.grid):
        if k <= PAIR.scale_max:
            means = DyadicCubeSet(f.grid, k).reduce(tail[max(k, PAIR.scale_min)], "mean")
            best = max(best, float(np.max(means)))
    return math.sqrt(best)


def skip_cases():
    grid = GridSpec(1, 4096, 16.0)
    f = random_band_limited(grid, (2.0, 4.0), 21)
    # the band (2, 4) leaves psi certified zero at scales -2, -1 and 4..8 and
    # phi at -2 and -1; scales 0 and 3 touch the band and are kept
    zero = {
        name: [s for s in PAIR.scales if piece_band(f, profile.support, s) is None]
        for name, profile in (("psi", PAIR.psi_hat), ("phi", PAIR.phi_hat))
    }
    assert zero == {"psi": [-2, -1, 4, 5, 6, 7, 8], "phi": [-2, -1]}
    return f, ((0.0,), (0.25,), (1.7,), (-3.0,))


def test_square_function_skip_is_exact():
    f, shifts = skip_cases()
    for shift in shifts:
        assert np.array_equal(square_function(f, PAIR, shift).values, full_square(f, shift))


def test_maximal_function_skip_is_exact():
    f, shifts = skip_cases()
    for shift in shifts:
        assert np.array_equal(maximal_function(f, PAIR, shift).values, full_maximal(f, shift))


def test_bmo_norm_skip_is_exact():
    f, _ = skip_cases()
    assert bmo_norm(f, PAIR) == full_bmo(f)
