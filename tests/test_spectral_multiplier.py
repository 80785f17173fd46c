"""Differential tests for the spectral-multiplier primitive and the piece dispatch.

The primitive's reference spells the operation out (profile x translation
phase x inverse FFT, never a sample roll).  The primitive evaluates its symbol
only on the bins its certificates allow; the whole-grid evaluation it replaced
is kept here as the oracle, and the results must be bit-for-bit equal.  The aggregate references (the
square and maximal functions, apply_t) call the primitive with the profile at
every scale and slot, so they neither skip certified-zero pieces nor serve
plateau pieces as translates.
"""

import math
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
from logmult.field import (
    PARTIAL,
    PLATEAU,
    ZERO,
    GridSpec,
    NyquistError,
    SampledField,
    Spectrum,
    add_box_product,
    apply_multiplier,
    bin_blocks,
    grid_aligned_steps,
    multiplier_symbol,
    piece_band,
    piece_class,
    transform,
    translation_phase,
)
from logmult.lp_ops import (
    DyadicCubeSet,
    ShiftedDyadicOp,
    bmo_norm,
    dyadic_piece,
    maximal_function,
    representable_cube_scales,
    square_function,
)
from logmult.multiplier import SpectralFactor, TensorKernel, apply_t
from logmult.shifted_lab import bump_train, modulated_bump, random_band_limited

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
    return Spectrum(grid, coeffs, support_certificate=band)


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
    """The whole-grid multiplier: every bin multiplied, then inverted (and rolled when aligned)."""
    grid = spectrum.grid
    coeffs = spectrum.coefficients
    if profile is not None:
        coeffs = coeffs * profile(grid.frequency_radii() * 2.0**-scale)
    shift = np.asarray(translation, dtype=float) * 2.0**-scale
    steps = grid_aligned_steps(shift, grid)
    if steps is None:
        phase = translation_phase(grid, shift)
        phase *= coeffs  # the primitive's operand order
        coeffs = phase
    values = np.fft.ifftn(coeffs) / grid.cell_volume
    return np.roll(values, steps, axis=tuple(range(grid.dimension))) if steps else values


@settings(max_examples=200, deadline=None)
@given(multiplier_cases())
def test_apply_multiplier_matches_reference(case):
    grid, profile, scale, band, translation, seed = case
    spectrum = random_spectrum(grid, seed, band)
    got = apply_multiplier(spectrum, profile, scale, translation)
    assert np.array_equal(got, dense_apply(spectrum, profile, scale, translation))
    assert_close(got, reference_values(spectrum, profile, scale, translation))


@settings(max_examples=100, deadline=None)
@given(multiplier_cases())
def test_multiplier_symbol_matches_reference(case):
    grid, profile, scale, _, translation, _ = case
    got = multiplier_symbol(grid, profile, scale, translation)
    assert np.array_equal(got, dense_symbol(grid, profile, scale, translation))
    assert_close(got, reference_symbol(grid, profile, scale, translation))


@settings(max_examples=60, deadline=None)
@given(multiplier_cases())
def test_apply_multiplier_without_profile_is_translation(case):
    grid, _, scale, band, translation, seed = case
    spectrum = random_spectrum(grid, seed, band)
    got = apply_multiplier(spectrum, translation=translation, scale=scale)
    assert np.array_equal(got, dense_apply(spectrum, None, scale, translation))
    assert_close(got, reference_values(spectrum, lambda r: np.ones_like(r), scale, translation))


@st.composite
def window_cases(draw):
    grid = draw(st.sampled_from(GRIDS))
    edge = st.floats(-1.2 * grid.nyquist, 1.2 * grid.nyquist)
    windows = [
        [tuple(sorted((draw(edge), draw(edge)))) for _ in range(draw(st.integers(1, 3)))]
        for _ in range(grid.dimension)
    ]
    return grid, windows


@settings(max_examples=150, deadline=None)
@given(window_cases())
def test_bin_blocks_cover_each_window_bin_once(case):
    grid, windows = case
    hits = np.zeros(grid.shape, dtype=int)
    for block in bin_blocks(grid, windows):
        hits[block] += 1
    assert hits.max(initial=0) <= 1
    inside = np.ones(grid.shape, dtype=bool)
    for axis, intervals in zip(np.ix_(*[grid.axis_frequencies()] * grid.dimension), windows):
        inside = inside & np.any([(a <= axis) & (axis <= b) for a, b in intervals], axis=0)
    assert np.all(hits[inside] == 1)


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
    spectrum = transform(random_band_limited(grid, (2.0, 3.0), 7))
    apply_multiplier(spectrum, psi, 1, [0.3] * grid.dimension)
    assert sum(psi.sizes) <= box_bins(grid, (2.0, 3.0))
    psi.sizes.clear()
    # an unbanded spectrum: the profile's dilated support alone bounds the bins
    apply_multiplier(Spectrum(grid, spectrum.coefficients), psi, 1)
    multiplier_symbol(grid, psi, 1)
    assert max(psi.sizes) <= box_bins(grid, (1.0, 4.0))


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


def test_piece_class_rule():
    grid = GridSpec(1, 512, 16.0)
    f = random_band_limited(grid, (2.0, 4.0), 5)
    phi = PAIR.phi_hat  # plateau [0, 1], support [0, 2]
    assert piece_class(f, phi, 0) == PARTIAL  # support touches the band at 2
    assert piece_class(f, phi, -1) == ZERO
    assert piece_class(f, phi, 1) == PARTIAL  # plateau [0, 2] covers only the edge
    assert piece_class(f, phi, 2) == PLATEAU  # plateau [0, 4] ends on the band edge
    assert piece_class(SampledField(grid, f.values), phi, 2) == PARTIAL  # no certificate
    # the telescoped psi is 1 only at |xi| = 1 and has no plateau to certify
    unit = random_band_limited(grid, (1.0, 1.0), 5)
    assert piece_class(unit, PAIR.psi_hat, 0) == PARTIAL


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
    return {scale: apply_multiplier(spectrum, profile, scale, shift) for scale in scales}


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
    assert piece_class(f, profile, scale) == (PARTIAL if relation == "straddle" else PLATEAU)
    piece = dyadic_piece(f, ShiftedDyadicOp(profile, scale, tuple(shift)))
    want = apply_multiplier(transform(f), profile, scale, shift)
    assert np.array_equal(piece.values, want)
    assert piece.band == piece_band(f, profile.support, scale)
    if profile is ANNULUS:
        got = square_function(f, SQUARE_PAIR, shift).values
        assert np.array_equal(got, full_square(f, shift, SQUARE_PAIR))
    else:
        assert np.array_equal(maximal_function(f, PAIR, shift).values, full_maximal(f, shift))
        assert np.array_equal(square_function(f, PAIR, shift).values, full_square(f, shift))


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


def test_maximal_function_inverse_fft_count(monkeypatch):
    # partial pieces (scales 0, 1) take one inverse each; the plateau pieces
    # (scales 2..8) share one untranslated inverse while their dilated shift is
    # a whole number of samples and take one each when it is not
    f, shifts = skip_cases()
    calls = []
    ifftn = np.fft.ifftn

    def counting(*args, **kwargs):
        calls.append(1)
        return ifftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", counting)
    counts = []
    for shift in shifts:
        calls.clear()
        maximal_function(f, PAIR, shift)
        counts.append(len(calls))
    assert counts == [3, 5, 9, 3]


# ---------------------------------------------------------------------------
# apply_t: slot pieces dispatched on piece_class, products formed band-locally
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
                prod *= apply_multiplier(spec, factor.profile, scale, factor.translation)
            out += prod
    return out


def test_apply_t_identity_plateau_slot_is_exact():
    cfg = identity_config(n=3, n_packets=4, samples=2**15, period=2.0**7)
    kernel, fs = build_kernel(cfg), build_inputs(cfg)
    eta = kernel.terms[0][1][2]
    # the low-pass eta slot is plateau at every scale of the construction
    assert [piece_class(fs[2], eta.profile, s) for s in cfg.scale_range] == [PLATEAU] * 4
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
        piece_class(f, factor.profile, s) for s in cfg.scale_range for f, factor in zip(fs, factors)
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
    inside = out.shells.contains(cfg.grid, (slice(None),))
    assert np.count_nonzero(coeffs[~inside]) == 0
    assert np.count_nonzero(coeffs[inside]) > 0
    assert_close(out.values, every_slot_apply_t(kernel, fs, cfg.scale_range))


PRODUCT_GRIDS = (GridSpec(1, 64, 8.0), GridSpec(1, 256, 5.0), GridSpec(2, 16, 4.0), GridSpec(2, 32, 3.0))


@st.composite
def box_product_cases(draw):
    """Boxes of random coefficients whose summed widths reach up to P (sometimes exactly P).

    At P = M the widths may sum past M: the product wraps, as on the full grid.
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
    pieces = []
    for w in widths:
        first = []
        for width in w:
            # anywhere, or against the wrap: ending on the last bin, starting on
            # the Nyquist bin, or straddling the two
            place = draw(st.sampled_from(["any", "end", "nyquist", "straddle"]))
            if place == "any":
                first.append(draw(st.integers(-m // 2, m // 2 - 1)))
            else:
                first.append({"end": m // 2 - width, "nyquist": -m // 2, "straddle": m // 2 - width // 2 - 1}[place])
        values = rng.standard_normal(w) + 1j * rng.standard_normal(w)
        pieces.append((tuple(first), values))
    coefficient = complex(*rng.standard_normal(2))
    return grid, coefficient, pieces


def full_grid_product(grid, coefficient, pieces):
    """The oracle: every piece placed on the whole grid, ``ifftn . ifftn -> fftn``."""
    m = grid.samples_per_axis
    prod = np.full(grid.shape, coefficient, dtype=np.complex128)
    for first, values in pieces:
        full = np.zeros(grid.shape, dtype=np.complex128)
        full[np.ix_(*((k + np.arange(w)) % m for k, w in zip(first, values.shape)))] = values
        prod *= np.fft.ifftn(full) / grid.cell_volume
    return np.fft.fftn(prod) * grid.cell_volume


@settings(max_examples=150, deadline=None)
@given(box_product_cases())
def test_band_local_product_matches_full_grid(case):
    grid, coefficient, pieces = case
    got = np.zeros(grid.shape, dtype=np.complex128)
    add_box_product(got, grid, coefficient, pieces)
    assert_close(got, full_grid_product(grid, coefficient, pieces))


# ---------------------------------------------------------------------------
# packet synthesis on packet windows: bit-for-bit the whole-grid evaluation
# ---------------------------------------------------------------------------

def dense_bump_train(grid, shift_magnitude, scales, envelope_radius, conjugate):
    """Packet-train coefficients evaluated on the whole grid, packet by packet."""
    axis0 = np.asarray(grid.frequency_mesh()[0], dtype=float)
    rest_sq = sum(np.asarray(a, dtype=float) ** 2 for a in grid.frequency_mesh()[1:]) if grid.dimension > 1 else 0.0
    profile = RadialProfile(envelope_radius / 2.0, envelope_radius)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    sign = -1.0 if conjugate else 1.0
    for scale in scales:
        kappa = sign * 2.0**scale
        centered = axis0 - kappa
        packet = profile(np.sqrt(centered**2 + rest_sq)).astype(np.complex128)
        position = -(2.0**-scale) * shift_magnitude
        coeffs += packet * np.exp(-2j * np.pi * position * centered)
    return coeffs


def dense_modulated_bump(grid, center_frequency, envelope_radius, position):
    profile = RadialProfile(envelope_radius / 2.0, envelope_radius)
    centered = [np.array(a, dtype=float) for a in np.broadcast_arrays(*grid.frequency_mesh())]
    centered[0] = centered[0] - center_frequency
    coeffs = profile(np.sqrt(sum(a**2 for a in centered))).astype(np.complex128)
    if position is not None:
        coeffs = coeffs * translation_phase(grid, np.atleast_1d(position))
    return coeffs


@pytest.mark.parametrize("grid", [GridSpec(1, 2048, 16.0), GridSpec(2, 256, 16.0)])
@pytest.mark.parametrize("conjugate", [False, True])
def test_bump_train_equals_whole_grid_evaluation(grid, conjugate):
    # packets at 1/2 .. 2 overlap the origin's window and each other's
    for scales, radius in (([-1, 0, 1], 0.4), ([0, 1, 2], 1.5), ([1], 0.05)):
        got = bump_train(grid, 3.7, scales, radius, conjugate).values
        want = np.fft.ifftn(dense_bump_train(grid, 3.7, scales, radius, conjugate)) / grid.cell_volume
        assert np.array_equal(got, want)


@pytest.mark.parametrize("grid", [GridSpec(1, 2048, 16.0), GridSpec(2, 256, 16.0)])
@pytest.mark.parametrize("position", [None, 1.3, -0.71])
def test_modulated_bump_equals_whole_grid_evaluation(grid, position):
    pos = None if position is None else [position] * grid.dimension
    for center, radius in ((0.75, 0.25), (0.1, 0.25), (3.0, 1.0)):
        got = modulated_bump(grid, center, radius, pos).values
        want = np.fft.ifftn(dense_modulated_bump(grid, center, radius, pos)) / grid.cell_volume
        assert np.array_equal(got, want)
