"""Differential tests for the spectral-multiplier primitive and the piece dispatch.

The primitive's reference spells the operation out (profile x translation
phase x inverse FFT, never a sample roll).  A dyadic piece evaluates its
symbol only on the bins its certificate allows; the whole-grid evaluation
(:func:`dense_apply`) is kept here as the oracle, and the results must be
bit-for-bit equal.  The aggregate references (the square and maximal
functions, apply_t) take the whole-grid evaluation with the profile at every
scale and slot, so they neither skip certified-zero pieces nor serve plateau
pieces as translates.
"""

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from logmult.calibration import (
    AnnularProfile,
    LPPair,
    RadialProfile,
    make_counterexample_profiles,
    make_lp_pair,
)
from logmult.counterexample import build_inputs, build_kernel, identity_config, separation_config
from logmult import field
from logmult.field import (
    PARTIAL,
    PLATEAU,
    ZERO,
    GridSpec,
    NyquistError,
    SampledField,
    Shell,
    Shells,
    Spectrum,
    add_box_product,
    box_modulus,
    bin_boxes,
    conjugate,
    dilated_steps,
    inverse,
    lp_norm,
    piece_plan,
    spectrum_from_boxes,
    symbol_box,
    transform,
    translation_phase,
)
from logmult.lp_ops import (
    DyadicCubeSet,
    ShiftedDyadicOp,
    bmo_norm,
    dyadic_piece,
    maximal_function,
    maximal_functions,
    representable_cube_scales,
    square_function,
)
from logmult.multiplier import SpectralFactor, TensorKernel, apply_t
from logmult.shifted_lab import (
    GrowthBankSpec,
    GrowthExperiment,
    bump_train,
    modulated_bump,
    operator_norm_proxy,
    random_band_limited,
)

PAIR = make_lp_pair((-2, 8))
ETA, BETA = make_counterexample_profiles(0.4, (0.9, 1.1), (0.55, 1.25))
PROFILES = {"phi": PAIR.phi_hat, "psi": PAIR.psi_hat, "beta": BETA, "eta": ETA}
GRIDS = (GridSpec(1, 512, 16.0), GridSpec(2, 32, 8.0))


def reference_symbol(grid, profile, scale, translation):
    mesh = grid.frequency_mesh()
    radii = np.sqrt(sum(np.asarray(axis, dtype=float) ** 2 for axis in mesh))
    phase_arg = sum(t * 2.0**-scale * axis for t, axis in zip(translation, mesh))
    return profile(radii * 2.0**-scale) * np.exp(-2j * np.pi * phase_arg)


def reference_values(spectrum, profile, scale, translation):
    symbol = reference_symbol(spectrum.grid, profile, scale, translation)
    return np.fft.ifftn(spectrum.coefficients * symbol) / spectrum.grid.cell_volume


def draw_translation(draw, grid, scale):
    kind = draw(st.sampled_from(["zero", "aligned", "off-grid"]))
    if kind == "zero":
        return [0.0] * grid.dimension
    if kind == "aligned":
        # a whole number of samples at this scale
        steps = draw(st.lists(st.integers(-40, 40), min_size=grid.dimension, max_size=grid.dimension))
        return [k * grid.spacing * 2.0**scale for k in steps]
    return draw(
        st.lists(
            st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False),
            min_size=grid.dimension,
            max_size=grid.dimension,
        )
    )


@st.composite
def multiplier_cases(draw):
    grid = draw(st.sampled_from(GRIDS))
    profile = PROFILES[draw(st.sampled_from(sorted(PROFILES)))]
    scale = draw(st.integers(-3, 4))
    band = None
    if draw(st.booleans()):
        # edges on grid radii k / L; the top one may be the last bin below Nyquist
        top = grid.samples_per_axis // 2 - 1
        k_out = top if draw(st.booleans()) else draw(st.integers(0, top))
        k_in = draw(st.integers(0, k_out))
        band = (k_in / grid.period, k_out / grid.period)
    translation = draw_translation(draw, grid, scale)
    return grid, profile, scale, band, translation, draw(st.integers(0, 2**32 - 1))


def random_spectrum(grid, seed, band=None):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if band is not None:
        r = grid.frequency_radii()
        coeffs[(r < band[0]) | (r > band[1])] = 0.0
    return Spectrum(grid, coeffs, shells=None if band is None else Shells.radial(*band, grid.dimension))


def assert_close(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def dense_symbol(grid, profile, scale, translation):
    """The whole-grid symbol: profile at every bin, times the phase at every bin."""
    values = profile(grid.frequency_radii() * 2.0**-scale).astype(np.complex128)
    shift = np.asarray(translation, dtype=float) * 2.0**-scale
    if np.any(shift != 0.0):
        values *= translation_phase(grid, shift)
    return values


def dense_apply(spectrum, profile, scale, translation):
    """The whole-grid multiplier: every bin multiplied, then inverted (and rolled when aligned).

    ``profile=None`` is the constant 1 and ``translation=None`` no translation.
    """
    grid = spectrum.grid
    coeffs = spectrum.coefficients
    if profile is not None:
        coeffs = coeffs * profile(grid.frequency_radii() * 2.0**-scale)
    shift = np.asarray([0.0] * grid.dimension if translation is None else translation, dtype=float) * 2.0**-scale
    steps = dilated_steps(grid, shift, 0)
    if steps is None:
        phase = translation_phase(grid, shift)
        phase *= coeffs  # the primitive's operand order
        coeffs = phase
    values = np.fft.ifftn(coeffs) / grid.cell_volume
    return np.roll(values, steps, axis=tuple(range(grid.dimension))) if steps else values


@settings(max_examples=200, deadline=None)
@given(multiplier_cases())
def test_dyadic_piece_matches_reference(case):
    grid, profile, scale, band, translation, seed = case
    f = inverse(random_spectrum(grid, seed, band))
    op = ShiftedDyadicOp(profile, scale, tuple(translation))
    if band is None and profile.support[1] * 2.0**scale >= grid.nyquist:
        with pytest.raises(NyquistError):  # an uncertified piece must fit below Nyquist
            dyadic_piece(f, op)
        return
    spectrum = transform(f)
    piece = dyadic_piece(f, op)
    assert np.array_equal(piece.values, dense_apply(spectrum, profile, scale, translation))
    assert_close(piece.values, reference_values(spectrum, profile, scale, translation))
    shells = piece_plan(f, profile, scale)[1]
    assert piece.shells == (Shells.radial(0.0, 0.0, grid.dimension) if shells is None else shells)


@settings(max_examples=100, deadline=None)
@given(multiplier_cases())
def test_symbol_box_scatter_matches_reference(case):
    grid, profile, scale, _, translation, _ = case
    got = field._scattered(grid, symbol_box(grid, profile, translation, scale))
    assert np.array_equal(got, dense_symbol(grid, profile, scale, translation))
    assert_close(got, reference_symbol(grid, profile, scale, translation))


# 1 on |xi| <= 256, past Nyquist on every grid of GRIDS at every drawn scale
FLAT = RadialProfile(256.0, 512.0)


@settings(max_examples=60, deadline=None)
@given(multiplier_cases())
def test_a_piece_on_its_whole_plateau_is_a_translation(case):
    grid, _, scale, band, translation, seed = case
    f = inverse(random_spectrum(grid, seed, band))
    op = ShiftedDyadicOp(FLAT, scale, tuple(translation))
    if band is None:
        with pytest.raises(NyquistError):  # the flat profile's dilated support reaches Nyquist
            dyadic_piece(f, op)
        return
    assert piece_plan(f, FLAT, scale)[::2] == (PLATEAU, None)  # the profile is not evaluated
    spectrum = transform(f)
    got = dyadic_piece(f, op).values
    assert np.array_equal(got, dense_apply(spectrum, None, scale, translation))
    assert_close(got, reference_values(spectrum, lambda r: np.ones_like(r), scale, translation))


@st.composite
def window_cases(draw):
    """1-4 window boxes, one interval per axis each."""
    grid = draw(st.sampled_from(GRIDS))
    edge = st.floats(-1.2 * grid.nyquist, 1.2 * grid.nyquist)
    windows = [
        [tuple(sorted((draw(edge), draw(edge)))) for _ in range(grid.dimension)]
        for _ in range(draw(st.integers(1, 4)))
    ]
    return grid, windows


@settings(max_examples=150, deadline=None)
@given(window_cases())
def test_bin_boxes_cover_each_window_bin_once(case):
    grid, windows = case
    m = grid.samples_per_axis
    boxes = bin_boxes(grid, windows)
    hits = np.zeros(grid.shape, dtype=int)
    spans = []
    for first, index in boxes:
        hits[index] += 1
        # one interval of signed bins per axis, inside -M/2 .. M/2-1
        for k, bins in zip(first, index):
            w = bins.size
            assert -(m // 2) <= k and k + w - 1 <= m // 2 - 1
            assert np.array_equal(bins.ravel(), (k + np.arange(w)) % m)
        spans.append([(k, k + bins.size - 1) for k, bins in zip(first, index)])
    assert hits.max(initial=0) <= 1
    inside = np.zeros(grid.shape, dtype=bool)
    for window in windows:
        box = np.ones(grid.shape, dtype=bool)
        for axis, (a, b) in zip(np.ix_(*[grid.axis_frequencies()] * grid.dimension), window):
            box = box & (a <= axis) & (axis <= b)
        inside |= box
    assert np.all(hits[inside] == 1)
    # the boxes are merged: any two are apart, not even adjacent, on some axis
    for i, one in enumerate(spans):
        for other in spans[i + 1:]:
            assert any(hi + 1 < a or b + 1 < lo for (lo, hi), (a, b) in zip(one, other))
    # a radial certificate keeps one box (a 2-D one is not four corners), and
    # so does a 1-D shell about the origin; a 1-D annulus keeps two
    d, reach = grid.dimension, grid.nyquist / 4
    assert len(bin_boxes(grid, Shells.radial(0.0, reach, d).windows(d))) == 1
    assert len(bin_boxes(grid, Shells.radial(0.5 * reach, reach, d).windows(d))) == (2 if d == 1 else 1)


def test_bin_boxes_keep_one_box_per_far_apart_shell_in_2d():
    # balls about the corners of a square: one box each, not the k**2 products of their axis intervals
    grid = GridSpec(2, 64, 8.0)
    balls = [Shell(center, 0.0, 0.25) for center in ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))]
    for k in (2, 4):
        boxes = bin_boxes(grid, Shells(tuple(balls[:k])).windows(2))
        assert len(boxes) == k
        assert all(np.any(Shells(tuple(balls[:k])).contains(grid, index)) for _, index in boxes)
    # overlapping balls share one box; 1-D shells keep theirs
    assert len(bin_boxes(grid, Shells((Shell((1.0, 1.0), 0.0, 0.5), Shell((1.5, 1.0), 0.0, 0.5))).windows(2))) == 1
    line = GridSpec(1, 64, 8.0)
    assert len(bin_boxes(line, Shells((Shell((1.0,), 0.0, 0.25), Shell((-1.0,), 0.0, 0.25))).windows(1))) == 2
    assert len(bin_boxes(line, Shells((Shell((1.0,), 0.5, 0.75),)).windows(1))) == 2


class CountedProfile:
    """A profile that records how many radii each call evaluates."""

    def __init__(self, profile):
        self.profile = profile
        self.sizes = []

    @property
    def support(self):
        return self.profile.support

    def __call__(self, r):
        self.sizes.append(np.size(r))
        return self.profile(r)


def box_bins(grid, band):
    """Bins of the per-axis box (1-D: the two mirrored intervals) around ``band``, one bin wider."""
    lo, hi = band
    k_hi = math.floor(hi * grid.period) + 1
    if grid.dimension == 1:
        k_lo = max(math.ceil(lo * grid.period) - 1, 0)
        return 2 * (k_hi - k_lo + 1)
    return (2 * k_hi + 1) ** 2


@pytest.mark.parametrize("grid", [GridSpec(1, 4096, 16.0), GridSpec(2, 128, 16.0)])
def test_profile_sees_only_the_certified_bins(grid):
    psi = CountedProfile(PAIR.psi_hat)  # support (1/2, 2), dilated to (1, 4) at scale 1
    f = random_band_limited(grid, (2.0, 3.0), 7)
    dyadic_piece(f, ShiftedDyadicOp(psi, 1, (0.3,) * grid.dimension))
    assert sum(psi.sizes) <= box_bins(grid, (2.0, 3.0))
    psi.sizes.clear()
    # an unbanded field: the profile's dilated support alone bounds the bins,
    # and must fit below Nyquist (4 on the 2-D grid)
    op = ShiftedDyadicOp(psi, 1, (0.0,) * grid.dimension)
    if 4.0 < grid.nyquist:
        dyadic_piece(SampledField(grid, f.values), op)
    else:
        with pytest.raises(NyquistError):
            dyadic_piece(SampledField(grid, f.values), op)
    symbol_box(grid, psi, None, 1)
    assert max(psi.sizes) <= box_bins(grid, (1.0, 4.0))


def test_piece_band_rule():
    grid = GridSpec(1, 512, 16.0)
    banded = random_band_limited(grid, (0.5, 4.0), 5)
    psi = PAIR.psi_hat  # support (0.5, 2.0)
    assert piece_plan(banded, psi, 1)[1].hull == (1.0, 4.0)
    assert piece_plan(banded, psi, 3)[1].hull == (4.0, 4.0)  # closed: touching is not zero
    assert piece_plan(banded, psi, 4)[1] is None
    unbanded = SampledField(grid, banded.values)
    assert piece_plan(unbanded, psi, 2)[1].hull == (2.0, 8.0)
    with pytest.raises(NyquistError):
        piece_plan(unbanded, psi, 4)  # dilated support (8, 32) reaches Nyquist 16


def test_piece_plan_class_rule():
    grid = GridSpec(1, 512, 16.0)
    f = random_band_limited(grid, (2.0, 4.0), 5)
    phi = PAIR.phi_hat  # plateau [0, 1], support [0, 2]
    assert piece_plan(f, phi, 0)[0] == PARTIAL  # support touches the band at 2
    assert piece_plan(f, phi, -1)[0] == ZERO
    assert piece_plan(f, phi, 1)[0] == PARTIAL  # plateau [0, 2] covers only the edge
    assert piece_plan(f, phi, 2)[0] == PLATEAU  # plateau [0, 4] ends on the band edge
    assert piece_plan(SampledField(grid, f.values), phi, 2)[0] == PARTIAL  # no certificate
    # the telescoped psi is 1 only at |xi| = 1 and has no plateau to certify
    unit = random_band_limited(grid, (1.0, 1.0), 5)
    assert piece_plan(unit, PAIR.psi_hat, 0)[0] == PARTIAL


@st.composite
def plateau_cases(draw):
    grid = draw(st.sampled_from(GRIDS))
    scale = draw(st.integers(-3, 3))
    dilation = 2.0**scale
    # plateau edges on grid radii k / L, so bands can end exactly on them
    k_in = draw(st.integers(1, 12))
    k_out = draw(st.integers(k_in, 24))
    inner, outer = k_in / grid.period / dilation, k_out / grid.period / dilation
    profile = draw(
        st.sampled_from(
            [
                RadialProfile(outer, 1.5 * outer),
                AnnularProfile(inner, outer, 0.5 * inner, 1.5 * outer),
            ]
        )
    )
    return grid, scale, profile


@settings(max_examples=80, deadline=None)
@given(plateau_cases())
def test_profiles_are_exactly_one_on_the_dilated_plateau(case):
    # the certificate the plateau dispatch relies on
    grid, scale, profile = case
    radii = grid.frequency_radii()
    lo, hi = profile.plateau
    on = (lo * 2.0**scale <= radii) & (radii <= hi * 2.0**scale)
    assert np.any(on)
    assert np.all(profile(radii[on] * 2.0**-scale) == 1.0)


# ---------------------------------------------------------------------------
# the zero/plateau/partial dispatch leaves the aggregates bit-for-bit unchanged
# ---------------------------------------------------------------------------

# an annular psi with a plateau, so the square function has plateau pieces too
ANNULUS = AnnularProfile(0.75, 1.25, 0.5, 1.5)
SQUARE_PAIR = LPPair(PAIR.phi_hat, ANNULUS, PAIR.scale_min, PAIR.scale_max)


def every_scale(f, profile, shift, scales=PAIR.scales):
    spectrum = transform(f)
    return {scale: dense_apply(spectrum, profile, scale, shift) for scale in scales}


def full_square(f, shift, pair=PAIR):
    acc = np.zeros(f.grid.shape)
    for piece in every_scale(f, pair.psi_hat, shift, pair.scales).values():
        acc += np.abs(piece) ** 2
    return np.sqrt(acc)


def full_maximal(f, shift, pair=PAIR):
    acc = np.zeros(f.grid.shape)
    for piece in every_scale(f, pair.phi_hat, shift, pair.scales).values():
        np.maximum(acc, np.abs(piece), out=acc)
    return acc


@st.composite
def dispatch_cases(draw):
    grid = draw(st.sampled_from(GRIDS))
    profile = draw(st.sampled_from([PAIR.phi_hat, ANNULUS]))
    scale = draw(st.integers(-2, 3))
    dilation = 2.0**scale
    lo, hi = (x * dilation for x in profile.plateau)
    relation = draw(st.sampled_from(["inside", "edge", "straddle"]))
    if relation == "edge":
        band = (lo, hi)
    elif relation == "inside":
        a, b = sorted(draw(st.floats(0.05, 0.95)) for _ in range(2))
        band = (lo + a * (hi - lo), lo + b * (hi - lo))
    else:
        band = (lo * draw(st.floats(0.6, 1.0)), hi * draw(st.floats(1.05, 1.4)))
    assume(band[1] < grid.nyquist)
    kind = draw(st.sampled_from(["zero", "aligned", "off-grid"]))
    axes = grid.dimension
    if kind == "zero":
        shift = [0.0] * axes
    elif kind == "aligned":
        # whole samples at every scale up to `top`, off-grid above it
        top = draw(st.integers(-2, 8))
        steps = draw(st.lists(st.integers(-40, 40), min_size=axes, max_size=axes))
        shift = [k * grid.spacing * 2.0**top for k in steps]
    else:
        shift = draw(st.lists(st.floats(-20.0, 20.0), min_size=axes, max_size=axes))
    f = random_band_limited(grid, band, draw(st.integers(0, 2**32 - 1)))
    return f, profile, scale, relation, shift


@settings(max_examples=150, deadline=None)
@given(dispatch_cases())
def test_dispatch_matches_every_scale_reference(case):
    f, profile, scale, relation, shift = case
    cls, shells, _ = piece_plan(f, profile, scale)
    assert cls == (PARTIAL if relation == "straddle" else PLATEAU)
    piece = dyadic_piece(f, ShiftedDyadicOp(profile, scale, tuple(shift)))
    want = dense_apply(transform(f), profile, scale, shift)
    assert np.array_equal(piece.values, want)
    assert piece.band == shells.hull
    if profile is ANNULUS:
        got = square_function(f, SQUARE_PAIR, shift).values
        assert np.array_equal(got, full_square(f, shift, SQUARE_PAIR))
    else:
        assert np.array_equal(maximal_function(f, PAIR, shift).values, full_maximal(f, shift))
        assert np.array_equal(square_function(f, PAIR, shift).values, full_square(f, shift))


@pytest.mark.parametrize("shift", [(0.0,), (0.25,), (1.7,)])
def test_a_dyadic_piece_meets_its_certificate_once(monkeypatch, shift):
    # piece_plan meets the field's certificate with the dilated support; the piece is built on that meet
    f, _ = skip_cases()
    meets = []
    meet = Shells.meet

    def counting(self, other):
        meets.append(other)
        return meet(self, other)

    monkeypatch.setattr(Shells, "meet", counting)
    for profile in (PAIR.phi_hat, PAIR.psi_hat):
        meets.clear()
        dyadic_piece(f, ShiftedDyadicOp(profile, 1, shift))
        assert len(meets) == 1


@st.composite
def shift_list_cases(draw):
    """A field of one or two random bands and a list of shifts: zero, aligned, off-grid, repeated."""
    grid = draw(st.sampled_from(GRIDS))
    axes = grid.dimension
    cuts = sorted(draw(st.lists(st.floats(0.0, 0.95), min_size=4, max_size=4)))
    f = random_band_limited(grid, (cuts[0] * grid.nyquist, cuts[1] * grid.nyquist), draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # a second band: plateau pieces that meet only the lower shell evaluate the profile
        f = f + random_band_limited(grid, (cuts[2] * grid.nyquist, cuts[3] * grid.nyquist), draw(st.integers(0, 2**32 - 1)))
    shifts = []
    for kind in draw(st.lists(st.sampled_from(["zero", "aligned", "off-grid", "repeat"]), min_size=1, max_size=5)):
        if kind == "zero":
            shifts.append(draw(st.sampled_from([None, [0.0] * axes])))
        elif kind == "aligned":
            # whole samples at every scale up to `top`, off-grid above it
            top = draw(st.integers(-2, 8))
            steps = draw(st.lists(st.integers(-40, 40), min_size=axes, max_size=axes))
            shifts.append([k * grid.spacing * 2.0**top for k in steps])
        elif kind == "off-grid":
            shifts.append(draw(st.lists(st.floats(-20.0, 20.0), min_size=axes, max_size=axes)))
        else:
            shifts.append(shifts[-1] if shifts else None)
    return f, shifts


@settings(max_examples=80, deadline=None)
@given(shift_list_cases())
def test_maximal_functions_match_every_scale_reference_at_each_shift(case):
    f, shifts = case
    got = list(maximal_functions(f, PAIR, shifts))
    assert len(got) == len(shifts)
    for field_at, shift in zip(got, shifts):
        assert np.array_equal(field_at.values, full_maximal(f, shift))


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
        name: [s for s in PAIR.scales if piece_plan(f, profile, s)[1] is None]
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


def test_maximal_function_inverse_fft_count(fft_calls):
    # partial pieces (scales 0, 1) take one inverse each; the plateau pieces
    # (scales 2..8) share one untranslated inverse while their dilated shift is
    # a whole number of samples and take one each when it is not
    f, shifts = skip_cases()
    counts = []
    for shift in shifts:
        fft_calls.clear()
        maximal_function(f, PAIR, shift)
        counts.append(sum(name == "ifftn" for name, _ in fft_calls))
    assert counts == [3, 5, 9, 3]


def test_square_function_norms_run_no_full_size_fft(monkeypatch):
    # ||S f||_2 is a Parseval sum over the boxes of the live psi pieces at every
    # shift, and the square half of a growth unit (the criterion-10 bank and its
    # proxy at p = 2) runs no transform, full-size or other; ||S f||_4 takes
    # small products, fewer points than one full-size inverse per piece
    f, shifts = skip_cases()
    calls = []
    for name in ("fftn", "ifftn"):
        transform_fn = getattr(np.fft, name)

        def counting(*args, _fn=transform_fn, **kwargs):
            calls.append(np.size(args[0]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    counts = []
    for shift in shifts:
        calls.clear()
        lp_norm(square_function(f, PAIR, shift), 2)
        counts.append(len(calls))
    assert counts == [0, 0, 0, 0]
    bank = GrowthBankSpec(seed=20240801, n_random=2, random_band=(0.5, 1.0), adversarial="bump")
    experiment = GrowthExperiment(
        kind="shifted-square", p=2.0, shifts=(16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0),
        grid=GridSpec(1, 2**20, 2.0**16), scale_range=(-1, 14), bank=bank,
    )
    calls.clear()
    for y in (16.0, 16384.0):
        ratio = operator_norm_proxy("shifted-square", 2.0, [y], experiment.make_bank(), experiment.make_pair())
        assert abs(ratio - 1.0) <= 1e-12
    assert calls == []
    for g in experiment.make_bank():
        square = square_function(g, experiment.make_pair(), (16.0,))
        lp_norm(square, 4)
        assert "values" not in vars(square)
    assert calls and experiment.grid.size not in calls


@st.composite
def square_norm_cases(draw):
    """A random field on a band well below Nyquist or reaching one bin below it, and a shift.

    The shift is none, whole samples at every scale up to a drawn one, or off the grid.
    """
    grid = draw(st.sampled_from(GRIDS))
    near_nyquist = draw(st.booleans())
    hi = grid.nyquist - 1.0 / grid.period if near_nyquist else draw(st.integers(1, 7)) / 16 * grid.nyquist
    lo = draw(st.integers(0, 8)) / 8 * hi
    kind = draw(st.sampled_from(["none", "aligned", "off-grid"]))
    axes = grid.dimension
    if kind == "none":
        shift = None
    elif kind == "aligned":
        top = draw(st.integers(-2, 8))
        steps = draw(st.lists(st.integers(-40, 40), min_size=axes, max_size=axes))
        shift = [k * grid.spacing * 2.0**top for k in steps]
    else:
        shift = draw(st.lists(st.floats(-20.0, 20.0), min_size=axes, max_size=axes))
    return random_band_limited(grid, (lo, hi), draw(st.integers(0, 2**32 - 1))), shift, near_nyquist


@settings(max_examples=120, deadline=None)
@given(square_norm_cases(), st.sampled_from([-900, 0, 900]), st.sampled_from([2, 4]))
def test_square_norms_match_sampled_norms(case, exponent, p):
    # L^2 by Parseval over the pieces and L^4 from the spectrum of |S f|^2, against
    # the samples of a values-only copy; next to Nyquist |S f|^2 would alias on
    # the grid, so L^4 reads the samples
    f, shift, near_nyquist = case
    square = square_function(2.0**exponent * f, PAIR, shift)
    got = lp_norm(square, p)
    if p == 2:
        assert "values" not in vars(square)
    elif near_nyquist:
        assert "values" in vars(square)
    want = lp_norm(SampledField(f.grid, square.values), p)
    assert abs(got - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# apply_t: slot pieces dispatched on piece_plan, products formed band-locally
# in the spectrum, so equal to the sample-domain product to roundoff
# ---------------------------------------------------------------------------

def every_slot_apply_t(kernel, fs, scales):
    """apply_t with the profile evaluated on every slot and scale, nothing skipped."""
    spectra = [transform(f) for f in fs]
    out = np.zeros(fs[0].grid.shape, dtype=np.complex128)
    for scale in scales:
        for coeff, factors in kernel.terms:
            prod = np.full(fs[0].grid.shape, coeff, dtype=np.complex128)
            for spec, factor in zip(spectra, factors):
                prod *= dense_apply(spec, factor.profile, scale, factor.translation)
            out += prod
    return out


def test_apply_t_identity_plateau_slot_is_exact():
    cfg = identity_config(n=3, n_packets=4, samples=2**15, period=2.0**7)
    kernel, fs = build_kernel(cfg), build_inputs(cfg)
    eta = kernel.terms[0][1][2]
    # the low-pass eta slot is plateau at every scale of the construction
    assert [piece_plan(fs[2], eta.profile, s)[0] for s in cfg.scale_range] == [PLATEAU] * 4
    got = apply_t(kernel, fs, cfg.scale_range).values
    assert_close(got, every_slot_apply_t(kernel, fs, cfg.scale_range))


@settings(max_examples=60, deadline=None)
@given(dispatch_cases())
def test_apply_t_dispatch_matches_every_slot_reference(case):
    # bands inside, on and straddling the dilated plateau of the first slot;
    # the second slot's beta is zero or partial depending on the scale
    f, profile, scale, relation, shift = case
    kernel = TensorKernel.rank_one([SpectralFactor(profile, tuple(shift)), SpectralFactor(BETA)])
    fs = [f, random_band_limited(f.grid, (0.0, f.band[1]), 3, 1)]
    scales = range(scale - 1, scale + 2)
    got = apply_t(kernel, fs, scales).values
    assert_close(got, every_slot_apply_t(kernel, fs, scales))


def test_separation_apply_t_takes_one_full_size_inverse(monkeypatch):
    # each packet meets the annular factor only at its own scale, where it is
    # inside the plateau: 3 live scales of 5, every other slot piece certified zero
    cfg = separation_config(n_packets=3, samples=2**13, period=40.0, spacing=2, eta_radius=1 / 8)
    kernel, fs = build_kernel(cfg), build_inputs(cfg)
    factors = kernel.terms[0][1]
    classes = Counter(
        piece_plan(f, factor.profile, s)[0] for s in cfg.scale_range for f, factor in zip(fs, factors)
    )
    assert classes == {PLATEAU: 6, ZERO: 4}
    sizes = []
    ifftn = np.fft.ifftn

    def counting(a, *args, **kwargs):
        sizes.append(np.size(a))
        return ifftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", counting)
    out = apply_t(kernel, fs, cfg.scale_range)
    # the output is deferred: its one full-size inverse runs when its samples are first read
    assert sizes.count(cfg.grid.size) == 0
    out.values
    monkeypatch.undo()
    assert sizes.count(cfg.grid.size) == 1
    # the packet pairs multiply to balls about the origin, far below Nyquist
    assert out.band == (0.0, 2 * cfg.eta_radius)
    assert_close(out.values, every_slot_apply_t(kernel, fs, cfg.scale_range))


def test_separation_apply_t_output_keeps_a_clean_spectrum():
    # the band-local scatter leaves roundoff dust just outside the output's
    # certificate; it is cleared before the inverse, so the kept spectrum is
    # exactly zero off the certificate
    cfg = separation_config(n_packets=3, samples=2**13, period=40.0, spacing=2, eta_radius=1 / 8)
    kernel, fs = build_kernel(cfg), build_inputs(cfg)
    out = apply_t(kernel, fs, cfg.scale_range)
    assert out.kept is not None
    coeffs = transform(out).coefficients
    inside = out.shells.contains(cfg.grid, None)
    assert np.count_nonzero(coeffs[~inside]) == 0
    assert np.count_nonzero(coeffs[inside]) > 0
    assert_close(out.values, every_slot_apply_t(kernel, fs, cfg.scale_range))


PRODUCT_GRIDS = (GridSpec(1, 64, 8.0), GridSpec(1, 256, 5.0), GridSpec(2, 16, 4.0), GridSpec(2, 32, 3.0))


def box_bins_index(grid, first, shape):
    m = grid.samples_per_axis
    return np.ix_(*((k + np.arange(w)) % m for k, w in zip(first, shape)))


@st.composite
def box_product_cases(draw):
    """Slots of 1-3 disjoint boxes of random coefficients.

    The first boxes' widths sum to up to P (sometimes exactly P); the other
    boxes are no wider.  At P = M the widths may sum past M: the product
    wraps, as on the full grid.
    """
    grid = draw(st.sampled_from(PRODUCT_GRIDS))
    m = grid.samples_per_axis
    n = draw(st.integers(2, 3))
    budget = 2 ** draw(st.integers(1, int(math.log2(m))))  # P
    top = budget if budget < m else 2 * m
    widths = [[1] * grid.dimension for _ in range(n)]
    for axis in range(grid.dimension):
        total = budget if draw(st.booleans()) else draw(st.integers(n, max(n, top)))
        for _ in range(max(0, total - n)):
            k = draw(st.integers(0, n - 1))
            widths[k][axis] = min(m, widths[k][axis] + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def box(w):
        first = []
        for width in w:
            # anywhere, or against the wrap: ending on the last bin, starting on
            # the Nyquist bin, or straddling the two
            place = draw(st.sampled_from(["any", "end", "nyquist", "straddle"]))
            if place == "any":
                first.append(draw(st.integers(-m // 2, m // 2 - 1)))
            else:
                first.append({"end": m // 2 - width, "nyquist": -m // 2, "straddle": m // 2 - width // 2 - 1}[place])
        return tuple(first), rng.standard_normal(w) + 1j * rng.standard_normal(w)

    slots = []
    for w in widths:
        drawn = [box(w)] + [box([draw(st.integers(1, width)) for width in w]) for _ in range(draw(st.integers(0, 2)))]
        boxes, taken = [], np.zeros(grid.shape, dtype=bool)
        for first, values in drawn:  # keep the boxes that miss the slot's earlier ones
            bins = np.zeros(grid.shape, dtype=bool)
            bins[box_bins_index(grid, first, values.shape)] = True
            if not np.any(taken & bins):
                boxes.append((first, values))
                taken |= bins
        slots.append(tuple(boxes))
    coefficient = complex(*rng.standard_normal(2))
    return grid, coefficient, slots


def full_grid_product(grid, coefficient, slots):
    """The oracle: every box of a slot placed on the whole grid, ``ifftn . ifftn -> fftn``."""
    prod = np.full(grid.shape, coefficient, dtype=np.complex128)
    for boxes in slots:
        full = np.zeros(grid.shape, dtype=np.complex128)
        for first, values in boxes:
            full[box_bins_index(grid, first, values.shape)] = values
        prod *= np.fft.ifftn(full) / grid.cell_volume
    return np.fft.fftn(prod) * grid.cell_volume


@settings(max_examples=150, deadline=None)
@given(box_product_cases())
def test_band_local_product_matches_full_grid(case):
    grid, coefficient, slots = case
    got = np.zeros(grid.shape, dtype=np.complex128)
    add_box_product([((0,) * grid.dimension, got)], grid, coefficient, slots)  # the whole grid as one box
    assert_close(got, full_grid_product(grid, coefficient, slots))


def pairwise_box_product(out, grid, coefficient, slots):
    """The oracle: :func:`add_box_product` inverting every chosen box again for each choice."""
    m = grid.samples_per_axis
    for pieces in itertools.product(*slots):
        sizes = field._product_sizes(grid, pieces)
        prod = np.full(sizes, coefficient, dtype=np.complex128)
        for _, values in pieces:
            padded = np.zeros(sizes, dtype=np.complex128)
            padded[tuple(slice(0, w) for w in values.shape)] = values
            piece = np.fft.ifftn(padded)
            piece /= grid.cell_volume
            prod *= piece
        spectrum = np.fft.fftn(prod)
        spectrum *= grid.cell_volume * math.prod(p / m for p in sizes) ** (len(pieces) - 1)
        counts = [min(p, sum(v.shape[i] for _, v in pieces) - len(pieces) + 1) for i, p in enumerate(sizes)]
        starts = [sum(first[i] for first, _ in pieces) for i in range(grid.dimension)]
        out[box_bins_index(grid, starts, counts)] += spectrum[tuple(slice(0, c) for c in counts)]


@settings(max_examples=100, deadline=None)
@given(box_product_cases())
def test_band_local_product_inverts_each_box_once_with_the_same_arithmetic(case):
    grid, coefficient, slots = case
    got, want = np.zeros(grid.shape, dtype=np.complex128), np.zeros(grid.shape, dtype=np.complex128)
    add_box_product([((0,) * grid.dimension, got)], grid, coefficient, slots)
    pairwise_box_product(want, grid, coefficient, slots)
    assert np.array_equal(got, want)


def test_l4_norm_of_a_packet_train_inverts_each_box_once(monkeypatch):
    # three equal packets: every box pair of |f|**2 = f * conj(f) shares one small grid
    grid = GridSpec(1, 2**14, 64.0)
    f = bump_train(grid, 3.0, [1, 2, 3], 0.25)
    assert len(f.kept.boxes) == 3 and len({values.shape for _, values in f.kept.boxes}) == 1
    sizes = []
    original = np.fft.ifftn

    def counting(a, *args, **kwargs):
        sizes.append(np.size(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", counting)
    norm = lp_norm(f, 4)
    monkeypatch.undo()
    assert len(sizes) == 2 * 3 and max(sizes) < grid.size
    assert abs(norm - lp_norm(SampledField(grid, f.values), 4)) <= 1e-12 * norm


def hermitian_runs(m, intervals, wrapped, pad):
    """Runs ``[first, width]`` of signed bins holding every bin of ``intervals`` and its reflection, mod ``m``.

    Signed runs lie in ``-m/2 .. m/2-1``, so a set across Nyquist becomes
    runs against both ends; wrapped runs start after the set's widest gap
    and may pass ``m/2 - 1``, so such a set is one run across Nyquist.
    ``pad`` widens the first run by one empty bin below it.
    """
    held = np.zeros(m, dtype=bool)
    for lo, w in intervals:
        held[(lo + np.arange(w)) % m] = True
    held |= held[-np.arange(m) % m]
    start = -(m // 2)
    if wrapped and not held.all():
        bins = np.flatnonzero(held)
        gaps = np.diff(np.append(bins, bins[0] + m))
        start = int(bins[(np.argmax(gaps) + 1) % bins.size])
        start -= m if start >= m // 2 else 0
    runs = []
    for b in range(start, start + m):
        if held[b % m]:
            if runs and sum(runs[-1]) == b:
                runs[-1][1] += 1
            else:
                runs.append([b, 1])
    if pad and not held[(runs[0][0] - 1) % m]:
        runs[0] = [runs[0][0] - 1, runs[0][1] + 1]
    return held, runs


@st.composite
def narrow_spectra(draw):
    """Disjoint boxes of a random Hermitian spectrum, whose signed-bin span is drawn per axis.

    The span is often a power of two, sometimes past M/2; it sits anywhere,
    across 0, against the Nyquist bin at either end, or across it.  Each
    axis splits the span into one or two intervals and holds them with
    their reflections (:func:`hermitian_runs`), so a span of M is the whole
    grid; a padded run makes an even span, exactly P, possible.  The boxes
    are the products of the runs, and the coefficients are ``(a_k +
    conj(a_{-k})) / 2`` of random ``a``, 0 on the padded bins.
    """
    dim = draw(st.sampled_from([1, 1, 2]))
    m = 2 ** draw(st.integers(3, 12 if dim == 1 else 6))
    grid = GridSpec(dim, m, draw(st.sampled_from([1.0, 10.0, 320.0])))
    held, per_axis = np.ones(grid.shape, dtype=bool), []
    for i in range(dim):
        if draw(st.booleans()):
            span = 2 ** draw(st.integers(0, int(math.log2(m))))
        else:
            span = draw(st.integers(1, m))
        place = draw(st.sampled_from(["any", "zero", "low-nyquist", "high-nyquist", "across-nyquist"]))
        if place == "any":
            lo = draw(st.integers(-(m // 2), m // 2 - span))
        else:
            lo = {"zero": -(span // 2), "low-nyquist": -(m // 2), "high-nyquist": m // 2 - span,
                  "across-nyquist": m // 2 - span // 2 - 1}[place]
        intervals = [(lo, span)]
        if span >= 3 and draw(st.booleans()):
            cut = draw(st.integers(1, span - 2))
            gap = draw(st.integers(0, span - 1 - cut - 1))
            intervals = [(lo, cut), (lo + cut + gap, span - cut - gap)]
        axis_held, runs = hermitian_runs(m, intervals, draw(st.booleans()), draw(st.booleans()))
        held &= axis_held.reshape((1,) * i + (m,) + (1,) * (dim - 1 - i))
        per_axis.append(runs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.where(held, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape), 0.0)
    hermitian = (a + np.conj(a[np.ix_(*[-np.arange(m) % m] * dim)])) / 2.0
    pieces = []
    for box in itertools.product(*per_axis):
        first, shape = tuple(k for k, _ in box), tuple(w for _, w in box)
        pieces.append((first, hermitian[box_bins_index(grid, first, shape)]))
    return grid, pieces


@settings(max_examples=150, deadline=None)
@given(narrow_spectra())
def test_box_modulus_matches_full_size_inverse(case):
    grid, pieces = case
    want = np.abs(np.fft.ifftn(field._scattered(grid, pieces)) / grid.cell_volume)
    got = box_modulus(grid, pieces)
    assert got.shape == grid.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def test_box_modulus_rejects_a_spectrum_that_is_not_hermitian():
    grid = GridSpec(1, 64, 10.0)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    with pytest.raises(ValueError, match="not Hermitian"):
        box_modulus(grid, [((5,), values)])  # bins 5 .. 10 without -10 .. -5
    reflection = np.conj(values[::-1])
    assert box_modulus(grid, [((-10,), reflection), ((5,), values)]).shape == grid.shape
    reflection[2] = complex(np.nextafter(reflection[2].real, np.inf), reflection[2].imag)
    with pytest.raises(ValueError, match="not Hermitian"):
        box_modulus(grid, [((-10,), reflection), ((5,), values)])


def test_box_modulus_transforms_the_folded_length(monkeypatch):
    # a Hermitian band of 64 bins on 2**14 points: one real inverse of 256 columns of 64 points,
    # over axis 0 of the (P/2 + 1, Q) batch, whose samples are then in natural order
    grid = GridSpec(1, 2**14, 64.0)
    rng = np.random.default_rng(3)
    low = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    low[0] = 0.0  # bin -32, whose reflection +32 no box holds
    pieces = [((-32,), low), ((13,), np.conj(low[:0:-1]))]
    calls = []

    def counting(name):
        original = getattr(np.fft, name)

        def counted(a, *args, **kwargs):
            calls.append((name, np.shape(a), kwargs.get("s"), kwargs.get("axes")))
            return original(a, *args, **kwargs)

        return counted

    for name in ("ifftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counting(name))
    box_modulus(grid, pieces)
    assert calls == [("irfftn", (33, 256), (64,), (0,))]


# grids from field._FOLD_MIN points, where the inverse folds; the periods leave cell volumes that are not powers of two
FOLD_GRIDS = (GridSpec(1, 2**17, 10.0), GridSpec(1, 2**18, 2.0**7), GridSpec(2, 512, 37.5))


@st.composite
def folded_spectra(draw):
    """Disjoint boxes on a grid that folds: per axis 1-3 intervals, at any signed bins, across the seam or below 0.

    Per axis the intervals lie in an extent of ``M/64`` or ``M/4`` bins, which
    folds onto ``Q = 4`` transforms, or of ``M/2`` or ``M`` bins, which keeps
    ``Q = 1``; a 2-D grid may fold one axis and not the other.
    """
    grid = draw(st.sampled_from(FOLD_GRIDS))
    m = grid.samples_per_axis
    per_axis = []
    for _ in range(grid.dimension):
        extent = draw(st.sampled_from([m // 64, m // 4, m // 2, m]))
        n = draw(st.integers(1, 3))
        cuts = sorted(draw(st.lists(st.integers(0, extent), min_size=2 * n, max_size=2 * n, unique=True)))
        place = draw(st.sampled_from(["any", "seam", "negative"]))
        lo = {"any": draw(st.integers(-(m // 2), m // 2 - 1)), "seam": m // 2 - extent // 2, "negative": -(m // 2)}[place]
        per_axis.append([(lo + a, b - a) for a, b in zip(cuts[::2], cuts[1::2])])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = []
    for box in itertools.product(*per_axis):
        shape = tuple(w for _, w in box)
        pieces.append((tuple(k for k, _ in box), rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    return grid, pieces


@settings(max_examples=60, deadline=None)
@given(folded_spectra())
def test_folded_inverse_matches_full_size_inverse(case):
    grid, pieces = case
    want = np.fft.ifftn(field._scattered(grid, pieces)) / grid.cell_volume
    got = field._inverted(grid, pieces)
    assert got.shape == grid.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_a_growth_bump_inverts_on_folded_axes(fft_calls):
    # the bump's box spans 32771 of the 2**20 bins: one ifftn of four 2**18-point transforms
    grid = GridSpec(1, 2**20, 2.0**16)
    f = modulated_bump(grid, 0.75, 0.25)
    fft_calls.clear()
    f.values
    maximal_function(f, make_lp_pair((-1, 14)), (16.0,))
    # the input's samples above, then the partial piece at scale -1, the untranslated plateau piece the
    # scales whose shift 2**-l * 16 is whole samples (l <= 8) share, and one per off-grid scale 9 .. 14
    assert fft_calls == [("ifftn", (2**18,))] * 9


def test_a_desk_grid_keeps_one_full_size_inverse(fft_calls):
    # below field._FOLD_MIN points nothing folds: one 4096-point ifftn, bit for bit the scattered spectrum's
    f = random_band_limited(GridSpec(1, 4096, 16.0), (2.0, 4.0), 21)
    fft_calls.clear()
    values = f.values
    assert fft_calls == [("ifftn", (4096,))]
    assert np.array_equal(values, np.fft.ifftn(transform(f).coefficients) / f.grid.cell_volume)


# ---------------------------------------------------------------------------
# packet synthesis on packet windows: bit-for-bit the whole-grid evaluation
# ---------------------------------------------------------------------------

def dense_modulated_bump(grid, center_frequency, envelope_radius, position):
    profile = RadialProfile(envelope_radius / 2.0, envelope_radius)
    centered = [np.array(a, dtype=float) for a in np.broadcast_arrays(*grid.frequency_mesh())]
    centered[0] = centered[0] - center_frequency
    coeffs = profile(np.sqrt(sum(a**2 for a in centered))).astype(np.complex128)
    if position is not None:
        coeffs = coeffs * translation_phase(grid, np.atleast_1d(position))
    return coeffs


def dense_bump_train(grid, shift_magnitude, scales, envelope_radius, sign=1.0):
    """Packet-train coefficients evaluated on the whole grid: the packets at carriers ``sign * 2**s``, positions ``-2**-s y``."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for scale in scales:
        position = [-(2.0**-scale) * shift_magnitude] + [0.0] * (grid.dimension - 1)
        coeffs += dense_modulated_bump(grid, sign * 2.0**scale, envelope_radius, position)
    return coeffs


@pytest.mark.parametrize("grid", [GridSpec(1, 2048, 16.0), GridSpec(2, 256, 16.0)])
@pytest.mark.parametrize("mirrored", [False, True])
def test_bump_train_equals_whole_grid_evaluation(grid, mirrored):
    # packets at 1/2 .. 2 overlap the origin's window and each other's; the
    # mirrored train is the conjugate, its spectrum the packets at -2**s
    for scales, radius in (([-1, 0, 1], 0.4), ([0, 1, 2], 1.5), ([1], 0.05)):
        train = bump_train(grid, 3.7, scales, radius)
        if mirrored:
            got, want = transform(conjugate(train)).coefficients, dense_bump_train(grid, 3.7, scales, radius, -1.0)
        else:
            got, want = train.values, np.fft.ifftn(dense_bump_train(grid, 3.7, scales, radius)) / grid.cell_volume
        assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(
    dimension=st.sampled_from([1, 2]),
    shift=st.one_of(st.integers(-512, 512).map(float), st.floats(-512.0, 512.0)),
    scales=st.lists(st.integers(-2, 1), min_size=1, max_size=4, unique=True),
    radius=st.sampled_from([0.05, 0.3, 0.6]),
)
def test_bump_train_is_the_sum_of_its_translated_packets(dimension, shift, scales, radius):
    # packet s is modulated_bump at carrier 2**s translated by -2**-s y: kappa p = -y, whole or not
    grid = GridSpec(dimension, 256 if dimension == 1 else 128, 16.0)
    train = bump_train(grid, shift, scales, radius)
    rest = [0.0] * (dimension - 1)
    packets = [modulated_bump(grid, 2.0**s, radius, [-(2.0**-s) * shift] + rest) for s in scales]
    want = spectrum_from_boxes(grid, (box for packet in packets for box in packet.kept.boxes), train.shells)
    assert [first for first, _ in train.kept.boxes] == [first for first, _ in want.boxes]
    for (_, got), (_, values) in zip(train.kept.boxes, want.boxes):
        assert np.array_equal(got, values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_packet_translations_are_refused_by_the_split(fft_calls, bad):
    grid = GridSpec(1, 256, 16.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="translation .* is not a finite 1-vector"):
            bump_train(grid, bad, [0, 1], 0.25)
        with pytest.raises(ValueError, match="translation .* is not a finite 1-vector"):
            modulated_bump(grid, 0.75, 0.25, [bad])
    assert fft_calls == []


@pytest.mark.parametrize("grid", [GridSpec(1, 2048, 16.0), GridSpec(2, 256, 16.0)])
@pytest.mark.parametrize("position", [None, 1.3, -0.71])
def test_modulated_bump_equals_whole_grid_evaluation(grid, position):
    pos = None if position is None else [position] * grid.dimension
    for center, radius in ((0.75, 0.25), (0.1, 0.25), (3.0, 1.0)):
        got = modulated_bump(grid, center, radius, pos).values
        want = np.fft.ifftn(dense_modulated_bump(grid, center, radius, pos)) / grid.cell_volume
        assert np.array_equal(got, want)
