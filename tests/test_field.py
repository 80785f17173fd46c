import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logmult.field import (
    GridMismatchError,
    GridSpec,
    MixedNormSpec,
    NyquistError,
    SampledField,
    Shell,
    Shells,
    Spectrum,
    apply_multiplier,
    bin_blocks,
    conjugate,
    convolve,
    frozen,
    inverse,
    lp_norm,
    mixed_norm,
    phase_shift,
    transform,
)
from logmult.shifted_lab import bump_train, dilate_field


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, vals)


@pytest.fixture
def grid():
    return GridSpec(1, 256, 16.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 64, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 100, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 4, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 64, -2.0)


def test_constant_field_transform(grid):
    c = 2.5 - 1.25j
    f = SampledField(grid, np.full(grid.shape, c))
    s = transform(f)
    assert s.coefficients[0] == pytest.approx(c * grid.period)
    assert np.max(np.abs(s.coefficients.ravel()[1:])) == 0.0


def test_pure_exponential_single_coefficient(grid):
    x = grid.axis_coordinates()
    k = 5
    f = SampledField(grid, np.exp(2j * np.pi * k * x / grid.period))
    s = transform(f)
    others = np.delete(s.coefficients, k)
    assert abs(s.coefficients[k] - grid.period) < 1e-10
    assert np.max(np.abs(others)) < 1e-10


def test_round_trip(grid):
    f = random_field(grid, 3)
    g = inverse(transform(f))
    rel = np.max(np.abs(g.values - f.values)) / np.max(np.abs(f.values))
    assert rel < 1e-12


def test_round_trip_2d():
    grid = GridSpec(2, 32, 4.0)
    f = random_field(grid, 4)
    g = inverse(transform(f))
    assert np.max(np.abs(g.values - f.values)) < 1e-12 * np.max(np.abs(f.values))


def test_convolve_identity_element(grid):
    f = random_field(grid, 5)
    delta = np.zeros(grid.shape, dtype=complex)
    delta[0] = 1.0 / grid.cell_volume  # unit-mass discrete delta
    g = convolve(f, SampledField(grid, delta))
    assert np.max(np.abs(g.values - f.values)) < 1e-11 * np.max(np.abs(f.values))


def test_convolve_commutes(grid):
    f, g = random_field(grid, 6), random_field(grid, 7)
    fg = convolve(f, g)
    gf = convolve(g, f)
    assert np.max(np.abs(fg.values - gf.values)) < 1e-12 * np.max(np.abs(fg.values))


def test_convolve_grid_mismatch(grid):
    other = GridSpec(1, 512, 16.0)
    with pytest.raises(GridMismatchError):
        convolve(random_field(grid), random_field(other))


def test_convolve_disjoint_supports_zero(grid):
    def banded(lo, hi, seed):
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(grid.shape, dtype=complex)
        r = grid.frequency_radii()
        mask = (r >= lo) & (r <= hi)
        coeffs[mask] = rng.standard_normal(int(mask.sum()))
        return inverse(Spectrum(grid, coeffs, support_certificate=(lo, hi)))

    f = banded(1.0, 2.0, 1)
    g = banded(3.0, 4.0, 2)
    out = convolve(f, g)
    assert np.max(np.abs(out.values)) == 0.0
    assert out.band == (0.0, 0.0)


def test_convolve_certificate_intersection(grid):
    rng = np.random.default_rng(8)

    def banded(lo, hi, seed):
        coeffs = np.zeros(grid.shape, dtype=complex)
        r = grid.frequency_radii()
        mask = (r >= lo) & (r <= hi)
        coeffs[mask] = np.random.default_rng(seed).standard_normal(int(mask.sum()))
        return inverse(Spectrum(grid, coeffs, support_certificate=(lo, hi)))

    f = banded(1.0, 3.0, 1)
    g = banded(2.0, 5.0, 2)
    out = convolve(f, g)
    assert out.band == (2.0, 3.0)
    transform(out)  # certificate survives verification


def test_phase_shift_identity_and_period(grid):
    f = random_field(grid, 9)
    same = phase_shift(f, [0.0])
    assert np.max(np.abs(same.values - f.values)) == 0.0
    full = phase_shift(f, [grid.period])
    assert np.max(np.abs(full.values - f.values)) < 1e-11


def test_phase_shift_group_property(grid):
    f = random_field(grid, 10)
    a = 0.7391
    back = phase_shift(phase_shift(f, [a]), [-a])
    assert np.max(np.abs(back.values - f.values)) < 1e-11


def test_phase_shift_translation_invariance_of_norms(grid):
    # aligned shifts permute samples: every norm is preserved exactly
    f = random_field(grid, 11)
    g = phase_shift(f, [5 * grid.spacing])
    for p in (1, 2, 4, np.inf):
        a, b = lp_norm(f, p), lp_norm(g, p)
        assert abs(a - b) < 1e-10 * a
    # off-grid shifts: quadrature-exact whenever |f|**p stays band-limited
    rng = np.random.default_rng(21)
    coeffs = np.zeros(grid.shape, dtype=complex)
    r = grid.frequency_radii()
    mask = r <= 1.5
    coeffs[mask] = rng.standard_normal(int(mask.sum())) + 1j * rng.standard_normal(int(mask.sum()))
    h = inverse(Spectrum(grid, coeffs, support_certificate=(0.0, 1.5)))
    k = phase_shift(h, [1.2345])
    for p in (2, 4):
        a, b = lp_norm(h, p), lp_norm(k, p)
        assert abs(a - b) < 1e-10 * a


def test_lp_norm_constant(grid):
    c = 3.0
    f = SampledField(grid, np.full(grid.shape, c))
    assert lp_norm(f, 2) == pytest.approx(c * np.sqrt(grid.period))
    assert lp_norm(f, np.inf) == pytest.approx(c)


def test_lp_norm_rejects_small_p(grid):
    with pytest.raises(ValueError):
        lp_norm(random_field(grid), 0.5)


def test_lp_norm_rejects_a_nan_exponent(grid):
    # a sampled field and a synthesised one, whose L^2 and L^4 norms come from its spectrum
    for f in (random_field(grid), bump_train(grid, 1.0, [1], 0.5)):
        with pytest.raises(ValueError, match="p must be"):
            lp_norm(f, float("nan"))


def test_plancherel(grid):
    f = random_field(grid, 12)
    s = transform(f)
    freq_side = np.sqrt(np.sum(np.abs(s.coefficients) ** 2) / grid.period**grid.dimension)
    assert abs(lp_norm(f, 2) - freq_side) < 1e-10 * freq_side


def test_young_inequality(grid):
    f, g = random_field(grid, 13), random_field(grid, 14)
    lhs = lp_norm(convolve(f, g), 2)
    rhs = lp_norm(f, 1) * lp_norm(g, 2)
    assert lhs <= rhs * (1 + 1e-9)


def test_mixed_norm_single_element(grid):
    f = random_field(grid, 15)
    for q in (1, 2, np.inf):
        assert mixed_norm([f], MixedNormSpec(2, q)) == pytest.approx(lp_norm(f, 2))


def test_mixed_norm_two_identical(grid):
    f = random_field(grid, 16)
    val = mixed_norm([f, f], MixedNormSpec(2, 2))
    assert val == pytest.approx(np.sqrt(2) * lp_norm(f, 2))


def test_mixed_norm_p2q2_fubini(grid):
    fs = [random_field(grid, s) for s in (17, 18, 19)]
    val = mixed_norm(fs, MixedNormSpec(2, 2))
    direct = np.sqrt(sum(lp_norm(f, 2) ** 2 for f in fs))
    assert abs(val - direct) < 1e-10 * direct


def test_mixed_norm_empty(grid):
    with pytest.raises(ValueError):
        mixed_norm([], MixedNormSpec(2, 2))


def test_spectrum_certificate_rejects_content(grid):
    coeffs = np.ones(grid.shape, dtype=complex)
    with pytest.raises(ValueError):
        Spectrum(grid, coeffs, support_certificate=(0.0, 1.0))


def test_field_values_must_be_finite(grid):
    vals = np.zeros(grid.shape, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        SampledField(grid, vals)


def test_round_trip_hundred_fields_two_grids():
    rng = np.random.default_rng(99)
    for case in range(100):
        m = 64 if case % 2 == 0 else 4096
        g = GridSpec(1, m, 16.0)
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        f = SampledField(g, vals)
        back = inverse(transform(f))
        rel = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-12


def test_pointwise_product_band_arithmetic(grid):
    rng = np.random.default_rng(30)

    def banded(hi, seed):
        coeffs = np.zeros(grid.shape, dtype=complex)
        r = grid.frequency_radii()
        mask = r <= hi
        coeffs[mask] = np.random.default_rng(seed).standard_normal(int(mask.sum()))
        return inverse(Spectrum(grid, coeffs, support_certificate=(0.0, hi)))

    f = banded(1.0, 1)
    g = banded(2.0, 2)
    prod = f.pointwise(g)
    assert prod.band == (0.0, 3.0)
    transform(prod)  # the summed certificate verifies


def test_lp_norm_survives_extreme_amplitudes(grid):
    big = SampledField(grid, np.full(grid.shape, 1e6 + 0j))
    assert lp_norm(big, 64) == pytest.approx(1e6 * grid.period ** (1 / 64), rel=1e-12)
    tiny = SampledField(grid, np.full(grid.shape, 1e-170 + 0j))
    assert lp_norm(tiny, 2) == pytest.approx(1e-170 * grid.period**0.5, rel=1e-12)
    assert lp_norm(tiny, 3) == pytest.approx(1e-170 * grid.period ** (1 / 3), rel=1e-12)


def test_mixed_norm_survives_extreme_amplitudes(grid):
    huge = SampledField(grid, np.full(grid.shape, 1e200 + 0j))
    want = 1e200 * (2.0 * grid.period) ** 0.5
    assert mixed_norm([huge, huge], MixedNormSpec(2, 2)) == pytest.approx(want, rel=1e-12)
    tiny = SampledField(grid, np.full(grid.shape, 1e-200 + 0j))
    want = 1e-200 * 2.0 ** (1 / 3) * grid.period ** (1 / 4)
    assert mixed_norm([tiny, tiny], MixedNormSpec(4, 3)) == pytest.approx(want, rel=1e-12)


def test_norms_of_zero_field(grid):
    zero = SampledField(grid, np.zeros(grid.shape, dtype=complex))
    assert lp_norm(zero, 2) == 0.0
    assert lp_norm(zero, 3) == 0.0
    assert mixed_norm([zero, zero], MixedNormSpec(2, np.inf)) == 0.0


def test_constructors_copy_arrays_the_caller_can_still_write(grid):
    vals = np.ones(grid.shape, dtype=np.complex128)
    view = vals[:]
    view.flags.writeable = False  # read-only, but its base is not
    f = SampledField(grid, vals)
    g = SampledField(grid, view)
    s = Spectrum(grid, vals)
    vals[:] = 2.0
    assert np.all(f.values == 1.0) and np.all(g.values == 1.0) and np.all(s.coefficients == 1.0)
    assert not f.values.flags.writeable and not s.coefficients.flags.writeable


def test_constructors_adopt_handed_over_arrays(grid):
    vals = frozen(np.ones(grid.shape, dtype=np.complex128))
    assert SampledField(grid, vals).values is vals
    assert Spectrum(grid, vals).coefficients is vals
    f = random_field(grid)
    assert SampledField(grid, f.values).values is f.values  # already immutable: shared


# ---------------------------------------------------------------------------
# shell-union certificates against brute-force bin supports
# ---------------------------------------------------------------------------

SHELL_GRIDS = (GridSpec(1, 64, 8.0), GridSpec(2, 16, 4.0))


@st.composite
def shell_cases(draw):
    """A small grid and two unions: centres and radii on half-bins, origin-centred shells often."""
    grid = draw(st.sampled_from(SHELL_GRIDS))
    m, half_bin = grid.samples_per_axis, 0.5 / grid.period
    coordinate = st.integers(-m // 2, m // 2).map(lambda k: k * half_bin)
    radius = st.integers(0, m // 4).map(lambda k: k * half_bin)

    def union():
        parts = []
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                center = (0.0,) * grid.dimension
            else:
                center = tuple(draw(coordinate) for _ in range(grid.dimension))
            inner, outer = sorted((draw(radius), draw(radius)))
            parts.append(Shell(center, inner, outer))
        return Shells(tuple(parts))

    return grid, union(), union()


def brute_bins(grid, shells):
    """Every bin of the grid tested against every shell: the definition of membership."""
    mesh = np.meshgrid(*[grid.axis_frequencies()] * grid.dimension, indexing="ij")
    inside = np.zeros(grid.shape, dtype=bool)
    for center, inner, outer in shells.parts:
        dist = np.sqrt(sum((axis - c) ** 2 for axis, c in zip(mesh, center)))
        inside |= (inner <= dist) & (dist <= outer)
    return inside


def bin_points(grid, mask):
    mesh = np.meshgrid(*[grid.axis_frequencies()] * grid.dimension, indexing="ij")
    return np.stack([axis[mask] for axis in mesh], axis=-1)


@settings(max_examples=150, deadline=None)
@given(shell_cases())
def test_shell_unions_match_brute_force_bins(case):
    grid, u, v = case
    bins_u, bins_v = brute_bins(grid, u), brute_bins(grid, v)
    # membership on the disjoint certificate blocks is the whole-grid membership
    hits = np.zeros(grid.shape, dtype=int)
    member = np.zeros(grid.shape, dtype=bool)
    for block in bin_blocks(grid, u.windows(grid.dimension)):
        hits[block] += 1
        member[block] = u.contains(grid, block)
    assert hits.max(initial=0) <= 1
    assert np.array_equal(member, bins_u)
    # the radial hull holds every bin
    radii = grid.frequency_radii()
    lo, hi = u.hull
    assert np.all((lo - 1e-12 <= radii[bins_u]) & (radii[bins_u] <= hi + 1e-12))
    # meet: every bin of both unions; concentric shells exactly
    met = u.meet(v)
    assert not np.any(bins_u & bins_v & ~brute_bins(grid, met))
    if all(not any(s.center) for s in u.parts + v.parts):
        assert np.array_equal(brute_bins(grid, met), bins_u & bins_v)
    # plateau rule: a union inside an annulus puts every bin in it
    for inner, outer in ((0.0, hi), (lo, hi), (0.25 * hi, 0.75 * hi)):
        if u.within(grid, inner, outer):
            assert np.all((inner <= radii[bins_u]) & (radii[bins_u] <= outer))
    # Minkowski sum: every sum of a bin of u and a bin of v lies in u + v
    total = u + v
    sums = bin_points(grid, bins_u)[:, None, :] + bin_points(grid, bins_v)[None, :, :]
    covered = np.zeros(sums.shape[:2], dtype=bool)
    for center, inner, outer in total.parts:
        dist = np.sqrt(np.sum((sums - np.asarray(center)) ** 2, axis=-1))
        covered |= (inner - 1e-9 <= dist) & (dist <= outer + 1e-9)
    assert np.all(covered)


def test_pointwise_certifies_the_minkowski_sum(grid):
    # packets at +2 and -2 (radius 0.5) multiply to a ball of radius 1 about 0
    f = bump_train(grid, 1.0, [1], 0.5)
    g = bump_train(grid, 1.0, [1], 0.5, conjugate=True)
    prod = f.pointwise(g)
    assert prod.shells == Shells((Shell((0.0,), 0.0, 1.0),))
    assert prod.band == (0.0, 1.0)
    transform(prod)  # the summed certificate verifies


def test_pointwise_product_reaching_nyquist_is_refused(grid):
    # packets at 4 (radius 0.5) square to a ball about 8, the Nyquist frequency
    f = bump_train(grid, 1.0, [2], 0.5)
    with pytest.raises(NyquistError):
        f.pointwise(f)


@pytest.mark.parametrize(
    "grid, band", [(GridSpec(1, 256, 16.0), (1.0, 3.0)), (GridSpec(2, 64, 10.0), (0.5, 2.7))]
)
def test_transform_zeroes_exactly_the_bins_off_a_radial_band(grid, band):
    rng = np.random.default_rng(4)
    radii = grid.frequency_radii()
    off = (radii < band[0]) | (radii > band[1])
    coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    coeffs[off] *= 1e-13  # roundoff-sized dust off the band
    values = np.fft.ifftn(coeffs) / grid.cell_volume
    got = transform(SampledField(grid, values, band)).coefficients
    want = np.fft.fftn(values) * grid.cell_volume
    want[off] = 0.0
    assert np.array_equal(got, want)


def test_spectrum_checks_a_ball_union(grid):
    balls = Shells((Shell((2.0,), 0.0, 0.5), Shell((-3.0,), 0.0, 0.25)))
    inside = brute_bins(grid, balls)
    coeffs = np.where(inside, 1.0 + 0.5j, 0.0)
    spectrum = Spectrum(grid, coeffs, shells=balls)
    assert spectrum.support_certificate == (1.5, 3.25)
    coeffs[np.flatnonzero(~inside)[40]] = 1e-300
    with pytest.raises(ValueError, match="violated"):
        Spectrum(grid, coeffs, shells=balls)


# ---------------------------------------------------------------------------
# kept spectra: a field made by inverse transforms back without an FFT
# ---------------------------------------------------------------------------

KEPT_GRIDS = (GridSpec(1, 128, 8.0), GridSpec(1, 256, 5.0), GridSpec(2, 32, 4.0), GridSpec(2, 16, 3.0))


@st.composite
def certified_spectra(draw):
    """A random spectrum on a radial band or a union of balls, within a quarter of Nyquist.

    The quarter leaves room for the dyadic dilate by 2 the test also takes.
    """
    grid = draw(st.sampled_from(KEPT_GRIDS))
    reach = grid.nyquist / 4
    fraction = st.integers(0, 16).map(lambda k: k / 16)
    if draw(st.booleans()):
        inner, outer = sorted((draw(fraction) * reach, draw(fraction) * reach))
        shells = Shells.radial(inner, outer, grid.dimension)
    else:
        balls = []
        for _ in range(draw(st.integers(1, 3))):
            radius = draw(fraction) * reach / 2
            center = tuple(draw(st.integers(-8, 8)) / 8 * (reach - radius) / grid.dimension for _ in range(grid.dimension))
            balls.append(Shell(center, 0.0, radius))
        shells = Shells(tuple(balls))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    coeffs[~brute_bins(grid, shells)] = 0.0
    return Spectrum(grid, coeffs, shells=shells)


@settings(max_examples=150, deadline=None)
@given(certified_spectra())
def test_kept_spectrum_round_trips_exactly(s):
    grid = s.grid
    f = inverse(s)
    assert f.kept is not None
    assert np.array_equal(transform(f).coefficients, s.coefficients)
    # the FFT path on a values-only copy agrees to roundoff
    fft_path = transform(SampledField(grid, f.values, shells=f.shells)).coefficients
    assert np.max(np.abs(fft_path - s.coefficients), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(s.coefficients)))
    # a scalar multiple scales them, so f and 2 f transform alike (exact homogeneity)
    for c in (2.0, 0.5 - 1.5j):
        assert np.array_equal(transform(c * f).coefficients, s.coefficients * c)
    # no other constructor keeps coefficients
    pedestal = SampledField(grid, np.ones(grid.shape), band=(0.0, 0.0))
    shift = np.full(grid.dimension, 0.3 * grid.spacing)
    others = [f + f, f - f, f.pointwise(pedestal), phase_shift(f, shift)]
    others += [SampledField(grid, f.values, shells=f.shells), dataclasses.replace(f, values=2.0 * f.values)]
    assert all(g.kept is None for g in others)
    # a dilate is built through inverse and keeps its spectrum, which its samples' FFT reproduces
    d = dilate_field(f, 1)
    assert d.kept is not None
    kept = transform(d).coefficients
    fft_path = transform(SampledField(grid, d.values, shells=d.shells)).coefficients
    assert np.max(np.abs(fft_path - kept), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(kept)))
    # conjugation conjugates the samples exactly and keeps the reflected spectrum
    c = conjugate(f)
    assert np.array_equal(c.values, np.conj(f.values))
    reflected = np.conj(s.coefficients[np.ix_(*[-np.arange(grid.samples_per_axis) % grid.samples_per_axis] * grid.dimension)])
    assert np.array_equal(transform(c).coefficients, reflected)


def test_values_path_has_no_kept_coefficients(grid):
    assert random_field(grid).kept is None
    assert SampledField(grid, np.ones(grid.shape), band=(0.0, 1.0)).kept is None


@pytest.mark.parametrize("grid", [GridSpec(1, 2048, 16.0), GridSpec(2, 128, 8.0)])
def test_conjugate_matches_the_mirrored_bump_train(grid):
    f = bump_train(grid, 3.7, [0, 1, 2], 0.4)
    g = conjugate(f)
    h = bump_train(grid, 3.7, [0, 1, 2], 0.4, conjugate=True)
    assert np.array_equal(g.values, np.conj(f.values))
    assert g.shells == h.shells
    peak = np.max(np.abs(h.values))
    assert np.max(np.abs(g.values - h.values)) <= 1e-12 * peak
    want = transform(h).coefficients
    assert np.max(np.abs(transform(g).coefficients - want)) <= 1e-12 * np.max(np.abs(want))


def test_conjugate_of_a_values_field_reflects_its_certificate(grid):
    f = SampledField(grid, bump_train(grid, 1.0, [1], 0.5).values, shells=Shells((Shell((2.0,), 0.0, 0.5),)))
    g = conjugate(f)
    assert g.kept is None
    assert g.shells == Shells((Shell((-2.0,), 0.0, 0.5),))
    assert np.array_equal(g.values, np.conj(f.values))
    transform(g)  # the reflected certificate verifies


# ---------------------------------------------------------------------------
# deferred samples and norms read from the kept spectrum
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(certified_spectra())
def test_deferred_samples_equal_the_eager_ones(s):
    eager = apply_multiplier(s)  # what inverse stored when it sampled at once
    f = inverse(s)
    c, g = conjugate(f), (0.5 - 1.5j) * f
    assert all("values" not in vars(h) for h in (f, c, g))
    # a derived field read first reads its parent through
    assert np.array_equal(c.values, np.conj(eager))
    assert np.array_equal(f.values, eager)
    assert np.array_equal(g.values, eager * (0.5 - 1.5j))
    assert f.values is f.values


@settings(max_examples=150, deadline=None)
@given(certified_spectra(), st.sampled_from([-900, 0, 900]), st.sampled_from([2, 4]))
def test_kept_norms_match_sampled_norms(s, exponent, p):
    # L^2 by Parseval and L^4 from the spectrum of |f|^2, against the samples of a values-only copy
    f = inverse(Spectrum(s.grid, s.coefficients * 2.0**exponent, shells=s.shells))
    kept = lp_norm(f, p)
    if p == 2:
        assert "values" not in vars(f)
    sampled = lp_norm(SampledField(s.grid, f.values, shells=f.shells), p)
    assert abs(kept - sampled) <= 1e-12 * sampled


def test_l4_norm_of_a_packet_train_reads_no_samples():
    grid = GridSpec(1, 2**14, 64.0)
    f = bump_train(grid, 3.7, [2, 4, 6], 0.4)
    fields = (f, conjugate(f), 2.0 * f)
    norms = [lp_norm(h, 4) for h in fields]
    assert all("values" not in vars(h) for h in fields)
    assert norms[0] == norms[1] and norms[2] == 2.0 * norms[0]
    assert abs(norms[0] - lp_norm(SampledField(grid, f.values), 4)) <= 1e-12 * norms[0]


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_deferred_fields_check_coefficients_and_samples():
    grid = GridSpec(1, 256, 0.25)
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        inverse(Spectrum(grid, coeffs, support_certificate=(0.0, 20.0)))
    coeffs[3] = 1.0
    with pytest.raises(ValueError, match="finite"):
        inverse(Spectrum(grid, coeffs, support_certificate=(0.0, 20.0))) * np.inf
    # finite coefficients whose samples overflow: caught when the samples are first read
    coeffs[:5] = 1e308
    f = inverse(Spectrum(grid, coeffs, support_certificate=(0.0, 20.0)))
    for _ in range(2):
        with pytest.raises(ValueError, match="finite"):
            f.values
