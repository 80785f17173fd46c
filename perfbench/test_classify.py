"""Checks of the benchmark's piece classifier against the library, on small grids.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_classify.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from classify import PARTIAL, PLATEAU, ZERO, classify, piece_classes  # noqa: E402
from logmult.calibration import make_lp_pair  # noqa: E402
from logmult.field import GridSpec, phase_shift, transform  # noqa: E402
from logmult.lp_ops import ShiftedDyadicOp, dyadic_piece  # noqa: E402
from logmult.shifted_lab import modulated_bump, random_band_limited  # noqa: E402

GRID = GridSpec(1, 4096, 64.0)
PAIR = make_lp_pair((-3, 5))
BAND = (0.5, 1.0)


def _bank():
    return [modulated_bump(GRID), random_band_limited(GRID, BAND, 7, 0), random_band_limited(GRID, BAND, 7, 1)]


def test_growth_configuration_counts():
    # criterion-10 bank band against the scales -1..14 of the standard pair
    pair = make_lp_pair((-1, 14))
    assert piece_classes(BAND, pair.phi_hat, pair.scales) == {PLATEAU: 15, PARTIAL: 1}
    assert piece_classes(BAND, pair.psi_hat, pair.scales) == {ZERO: 13, PARTIAL: 3}


def test_uncertified_input_is_partial():
    assert classify(None, PAIR.phi_hat, 3) == PARTIAL


@pytest.mark.parametrize("shift", [0.0, 5.0, 0.3])
def test_zero_pieces_are_exact_zeros(shift):
    seen = 0
    for f in _bank():
        spectrum = transform(f)
        for profile in (PAIR.phi_hat, PAIR.psi_hat):
            for scale in PAIR.scales:
                if classify(f.band, profile, scale) != ZERO:
                    continue
                seen += 1
                product = spectrum.coefficients * profile(GRID.frequency_radii() * 2.0**-scale)
                assert np.all(product == 0.0)
                piece = dyadic_piece(f, ShiftedDyadicOp(profile, scale, (shift,)))
                assert np.all(piece.values == 0.0)
    assert seen > 0


@pytest.mark.parametrize("shift", [0.0, 5.0, 0.3, -17.25])
def test_plateau_pieces_are_translated_inputs(shift):
    seen = 0
    for f in _bank():
        peak = float(np.max(np.abs(f.values)))
        for profile in (PAIR.phi_hat, PAIR.psi_hat):
            for scale in PAIR.scales:
                if classify(f.band, profile, scale) != PLATEAU:
                    continue
                seen += 1
                piece = dyadic_piece(f, ShiftedDyadicOp(profile, scale, (shift,)))
                moved = phase_shift(f, [shift * 2.0**-scale])
                assert np.max(np.abs(piece.values - moved.values)) <= 1e-12 * peak
    assert seen > 0
