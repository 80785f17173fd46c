import cmath
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from logmult import field
from logmult.field import (
    GridMismatchError,
    GridSpec,
    NyquistError,
    SampledField,
    Shell,
    Shells,
    Spectrum,
    bin_boxes,
    box_frequencies,
    box_piece,
    box_radii,
    conjugate,
    convolve,
    dilated_steps,
    frozen,
    inverse,
    lp_norm,
    mixed_norm,
    phase_shift,
    transform,
    translation_phase,
)
from logmult.calibration import make_lp_pair
from logmult.lp_ops import maximal_function, square_function
from logmult.shifted_lab import bump_train, dilate_field, random_band_limited


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
        return inverse(Spectrum(grid, coeffs, shells=Shells.radial(lo, hi, grid.dimension)))

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
        return inverse(Spectrum(grid, coeffs, shells=Shells.radial(lo, hi, grid.dimension)))

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
    h = inverse(Spectrum(grid, coeffs, shells=Shells.radial(0.0, 1.5, grid.dimension)))
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
        assert mixed_norm([f], 2, q) == pytest.approx(lp_norm(f, 2))


def test_mixed_norm_two_identical(grid):
    f = random_field(grid, 16)
    val = mixed_norm([f, f], 2, 2)
    assert val == pytest.approx(np.sqrt(2) * lp_norm(f, 2))


def test_mixed_norm_p2q2_fubini(grid):
    fs = [random_field(grid, s) for s in (17, 18, 19)]
    val = mixed_norm(fs, 2, 2)
    direct = np.sqrt(sum(lp_norm(f, 2) ** 2 for f in fs))
    assert abs(val - direct) < 1e-10 * direct


def test_mixed_norm_empty(grid):
    with pytest.raises(ValueError):
        mixed_norm([], 2, 2)


@pytest.mark.parametrize("p, q, name", [(0.5, 2, "p"), (2, 0.5, "q"), (math.nan, 2, "p"), (2, math.nan, "q")])
def test_mixed_norm_refuses_exponents_below_one_and_nan(grid, p, q, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1 or infinity"):
        mixed_norm([random_field(grid, 15)], p, q)


def test_spectrum_certificate_rejects_content(grid):
    coeffs = np.ones(grid.shape, dtype=complex)
    with pytest.raises(ValueError):
        Spectrum(grid, coeffs, shells=Shells.radial(0.0, 1.0, grid.dimension))


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
        return inverse(Spectrum(grid, coeffs, shells=Shells.radial(0.0, hi, grid.dimension)))

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
    assert mixed_norm([huge, huge], 2, 2) == pytest.approx(want, rel=1e-12)
    tiny = SampledField(grid, np.full(grid.shape, 1e-200 + 0j))
    want = 1e-200 * 2.0 ** (1 / 3) * grid.period ** (1 / 4)
    assert mixed_norm([tiny, tiny], 4, 3) == pytest.approx(want, rel=1e-12)


def test_norms_of_zero_field(grid):
    zero = SampledField(grid, np.zeros(grid.shape, dtype=complex))
    assert lp_norm(zero, 2) == 0.0
    assert lp_norm(zero, 3) == 0.0
    assert mixed_norm([zero, zero], 2, np.inf) == 0.0


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


@st.composite
def grid_boxes(draw):
    """A grid and one box of its bins: signed first bins in ``[-M/2, M/2)``, wrapping past M/2 when wide."""
    d = draw(st.sampled_from([1, 2]))
    m = 2 ** draw(st.integers(3, 12 if d == 1 else 10))  # the 2-D reference is a full M**2 array
    period = draw(st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False))
    grid = GridSpec(d, m, period)
    first = [draw(st.integers(-m // 2, m // 2 - 1)) for _ in range(d)]
    widths = [draw(st.integers(1, m)) for _ in range(d)]
    return grid, np.ix_(*((k + np.arange(w)) % m for k, w in zip(first, widths)))


@settings(max_examples=150, deadline=None)
@given(grid_boxes())
@example((GridSpec(1, 8, 3.0), np.ix_(np.arange(-4, 4) % 8)))  # from the bin -M/2, every bin
@example((GridSpec(2, 16, 0.7), np.ix_(np.arange(-8, -5) % 16, np.arange(6, 11) % 16)))  # wraps at M/2
def test_box_frequencies_and_radii_are_the_fftfreq_grid_at_the_box(case):
    grid, index = case
    axis = grid.axis_frequencies()
    assert all(np.array_equal(got, axis[i]) for got, i in zip(box_frequencies(grid, index), index))
    assert np.array_equal(box_radii(grid, index), grid.frequency_radii()[index])
    # no index: the whole grid in FFT order
    assert all(np.array_equal(np.ravel(got), axis) for got in box_frequencies(grid))
    assert np.array_equal(box_radii(grid), grid.frequency_radii())


@settings(max_examples=150, deadline=None)
@given(shell_cases())
def test_shell_unions_match_brute_force_bins(case):
    grid, u, v = case
    bins_u, bins_v = brute_bins(grid, u), brute_bins(grid, v)
    # membership on the disjoint certificate boxes is the whole-grid membership
    hits = np.zeros(grid.shape, dtype=int)
    member = np.zeros(grid.shape, dtype=bool)
    for _, index in bin_boxes(grid, u.windows(grid.dimension)):
        hits[index] += 1
        member[index] = u.contains(grid, index)
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


LAYOUT_GRIDS = SHELL_GRIDS + (GridSpec(1, 4096, 16.0), GridSpec(2, 64, 0.3))


@st.composite
def layout_cases(draw):
    """A grid and a certificate: radial bands, off-centre balls, shells across +-M/2, mixed unions, or None."""
    grid = draw(st.sampled_from(LAYOUT_GRIDS))
    m, half_bin, d = grid.samples_per_axis, 0.5 / grid.period, grid.dimension
    radius = st.integers(0, m // 2).map(lambda k: k * half_bin)

    def part(kind):
        if kind == "band":
            inner, outer = sorted((draw(radius), draw(radius)))
            return Shell((0.0,) * d, inner, outer)
        if kind == "ball":
            center = tuple(draw(st.integers(-m, m)) * half_bin for _ in range(d))
            return Shell(center, 0.0, draw(radius))
        # about a centre within a few bins of -M/2 or M/2, so the windows cross it and are clipped
        edge = draw(st.sampled_from([-1, 1])) * (grid.nyquist - draw(st.integers(0, 4)) * half_bin)
        return Shell((edge,) + (0.0,) * (d - 1), 0.0, draw(st.integers(2, 8)) * half_bin)

    kinds = draw(st.lists(st.sampled_from(["band", "ball", "edge"]), max_size=3))
    return grid, None if draw(st.booleans()) and not kinds else Shells(tuple(part(kind) for kind in kinds))


@settings(max_examples=200, deadline=None)
@given(layout_cases())
def test_the_cached_layout_is_a_fresh_bin_boxes(case):
    # every caller reads the boxes of a (grid, certificate) from the one cache: they are bin_boxes's
    grid, shells = case
    got = field._boxes(grid, shells)
    if shells is None:
        want = [((0,) * grid.dimension, np.ix_(*[np.arange(grid.samples_per_axis)] * grid.dimension))]
    else:
        want = bin_boxes(grid, shells.windows(grid.dimension))
    assert [first for first, _ in got] == [first for first, _ in want]
    for (_, index), (_, fresh) in zip(got, want):
        assert len(index) == len(fresh) and all(np.array_equal(a, b) for a, b in zip(index, fresh))
    # a second read shares the same (read-only) index arrays
    assert all(a is b for (_, i), (_, j) in zip(field._boxes(grid, shells), got) for a, b in zip(i, j))


@pytest.mark.parametrize(
    "grid, shells",
    [
        (GridSpec(1, 64, 8.0), None),
        (GridSpec(1, 64, 8.0), Shells.radial(0.5, 2.0, 1)),
        (GridSpec(2, 16, 4.0), Shells((Shell((0.5, -0.25), 0.0, 0.5), Shell((0.0, 0.0), 0.25, 1.0)))),
    ],
)
def test_the_shared_layout_is_read_only(grid, shells):
    for _, index in field._boxes(grid, shells):
        for axis in index:
            with pytest.raises(ValueError):
                axis[(0,) * axis.ndim] = 1


def test_pointwise_certifies_the_minkowski_sum(grid):
    # packets at +2 and -2 (radius 0.5) multiply to a ball of radius 1 about 0
    f = bump_train(grid, 1.0, [1], 0.5)
    g = conjugate(bump_train(grid, 1.0, [1], 0.5))
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
    got = transform(SampledField(grid, values, Shells.radial(*band, grid.dimension))).coefficients
    want = np.fft.fftn(values) * grid.cell_volume
    want[off] = 0.0
    assert np.array_equal(got, want)


def test_spectrum_checks_a_ball_union(grid):
    balls = Shells((Shell((2.0,), 0.0, 0.5), Shell((-3.0,), 0.0, 0.25)))
    inside = brute_bins(grid, balls)
    coeffs = np.where(inside, 1.0 + 0.5j, 0.0)
    spectrum = Spectrum(grid, coeffs, shells=balls)
    assert spectrum.shells.hull == (1.5, 3.25)
    coeffs[np.flatnonzero(~inside)[40]] = 1e-300
    with pytest.raises(ValueError, match="violated"):
        Spectrum(grid, coeffs, shells=balls)


def test_sampled_field_rejects_a_band_tuple_certificate(grid):
    with pytest.raises(TypeError, match="Shells"):
        SampledField(grid, np.ones(grid.shape), (0.0, 1.0))


def test_spectrum_rejects_a_band_tuple_certificate(grid):
    with pytest.raises(TypeError, match="Shells"):
        Spectrum(grid, np.zeros(grid.shape, dtype=complex), shells=(0.0, 1.0))


def test_band_reads_as_the_radial_hull_of_the_certificate(grid):
    kept = bump_train(grid, 1.0, [0, 1], 0.5)
    eager = SampledField(grid, kept.values, shells=kept.shells)
    assert kept.kept is not None and eager.kept is None
    for f in (kept, eager):
        assert f.band == f.shells.hull == (0.5, 2.5)
        with pytest.raises(AttributeError):
            f.band = (0.0, 1.0)
    square = square_function(kept, make_lp_pair((-2, 3)))
    assert square.shells is None and square.band is None


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
    pedestal = SampledField(grid, np.ones(grid.shape), shells=Shells.radial(0.0, 0.0, grid.dimension))
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


@settings(max_examples=150, deadline=None)
@given(certified_spectra(), st.data())
def test_reading_a_spectrum_on_other_boxes_matches_its_full_scatter(s, data):
    # the boxes of another certificate, and of its meet with the spectrum's, as
    # _symbol_times reads them: boxes about the origin straddle 0, a ball against
    # -Nyquist widens onto bin -M/2, and a grown own shell widens past the
    # spectrum's own boxes
    grid, d = s.grid, s.grid.dimension
    m, half_bin = grid.samples_per_axis, 0.5 / grid.period
    parts = []
    for _ in range(data.draw(st.integers(1, 3))):
        radius = data.draw(st.integers(0, m // 4)) * half_bin
        kind = data.draw(st.sampled_from(["origin", "nyquist", "own", "any"]))
        if kind == "origin":
            center = (0.0,) * d
        elif kind == "nyquist":
            center = (radius - grid.nyquist,) + (0.0,) * (d - 1)
        elif kind == "own":
            center, _, outer = data.draw(st.sampled_from(s.shells.parts))
            radius = outer + data.draw(st.integers(0, 3)) * half_bin
        else:
            center = tuple(data.draw(st.integers(-m // 2, m // 2)) * half_bin for _ in range(d))
        inner = data.draw(st.sampled_from([0.0, 0.5 * radius]))
        parts.append(Shell(center, inner, radius))
    full = s.coefficients
    for shells in (Shells(tuple(parts)), s.shells.meet(Shells(tuple(parts)))):
        boxes = bin_boxes(grid, shells.windows(d))
        pieces = box_piece(s, shells)
        assert [first for first, _ in pieces] == [first for first, _ in boxes]
        for (_, values), (_, index) in zip(pieces, boxes):
            assert np.array_equal(values, full[index])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KEPT_GRIDS), st.data())
def test_box_adds_match_the_mod_m_gather(grid, data):
    # _add_into adds by at most two slice runs per axis, before and after the
    # wrap at M; the mod-M fancy index it replaced is the oracle, bit for bit
    m, d = grid.samples_per_axis, grid.dimension
    firsts = st.lists(st.integers(-2 * m, 2 * m), min_size=d, max_size=d).map(tuple)
    shapes = st.lists(st.integers(1, m), min_size=d, max_size=d).map(tuple)
    (at, target_shape), (first, shape) = [(data.draw(firsts), data.draw(shapes)) for _ in range(2)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    target = rng.standard_normal(target_shape) + 1j * rng.standard_normal(target_shape)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = target.copy()
    positions = [(a + np.arange(w) - b) % m for a, w, b in zip(first, shape, at)]
    hit = [np.flatnonzero(q < t) for q, t in zip(positions, target_shape)]
    if all(h.size for h in hit):
        want[np.ix_(*(q[h] for q, h in zip(positions, hit)))] += values[np.ix_(*hit)]
    field._add_into(grid, [(at, target)], first, values)
    assert np.array_equal(target, want)


@settings(max_examples=100, deadline=None)
@given(certified_spectra())
def test_a_read_of_a_spectrums_own_boxes_is_a_view_of_them(s):
    # no copy: the piece on the spectrum's own boxes, with nothing to multiply, is its boxes
    pieces = box_piece(s, s.shells)
    assert [first for first, _ in pieces] == [first for first, _ in s.boxes]
    for (_, got), (_, own) in zip(pieces, s.boxes):
        assert np.shares_memory(got, own) and not got.flags.writeable
    # the scatter, the one full-size inverse and the band-local products write fresh arrays only
    before = [(first, values.copy()) for first, values in s.boxes]
    assert np.array_equal(inverse(s).values, field._inverted(s.grid, s.boxes))
    assert np.array_equal(s.coefficients, field._scattered(s.grid, before))
    assert lp_norm(inverse(s), 4) >= 0.0
    assert all(np.array_equal(values, copy) for (_, values), (_, copy) in zip(s.boxes, before))


def test_values_path_has_no_kept_coefficients(grid):
    assert random_field(grid).kept is None
    assert SampledField(grid, np.ones(grid.shape), shells=Shells.radial(0.0, 1.0, grid.dimension)).kept is None


@pytest.mark.parametrize("grid", [GridSpec(1, 2048, 16.0), GridSpec(2, 128, 8.0)])
def test_conjugate_matches_the_mirrored_bump_train(grid):
    # its spectrum is the mirrored train's bit for bit (test_bump_train_equals_whole_grid_evaluation)
    f = bump_train(grid, 3.7, [0, 1, 2], 0.4)
    g = conjugate(f)
    assert np.array_equal(g.values, np.conj(f.values))
    rest = (0.0,) * (grid.dimension - 1)
    assert g.shells == Shells(tuple(Shell((-(2.0**s),) + rest, 0.0, 0.4) for s in (0, 1, 2)))


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
    eager = field._inverted(s.grid, s.boxes)  # what an eager inverse stores
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
        inverse(Spectrum(grid, coeffs, shells=Shells.radial(0.0, 20.0, grid.dimension)))
    coeffs[3] = 1.0
    with pytest.raises(ValueError, match="finite"):
        inverse(Spectrum(grid, coeffs, shells=Shells.radial(0.0, 20.0, grid.dimension))) * np.inf
    # finite coefficients whose samples overflow: caught when the samples are first read
    coeffs[:5] = 1e308
    f = inverse(Spectrum(grid, coeffs, shells=Shells.radial(0.0, 20.0, grid.dimension)))
    for _ in range(2):
        with pytest.raises(ValueError, match="finite"):
            f.values


# ---------------------------------------------------------------------------
# inverses are scaled by a multiply with the reciprocal, the quotient's values
# ---------------------------------------------------------------------------

SCALED_GRIDS = [GridSpec(d, m, period) for d, m in ((1, 2**17), (1, 4096), (2, 64)) for period in (16.0, 320.0, 0.3)]
# each grid's cell volume, and the folded inverse's scale M**d / prod P times it (Q = 4 on one axis)
INVERSE_SCALES = [g.cell_volume for g in SCALED_GRIDS] + [4 * g.cell_volume for g in SCALED_GRIDS]
EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1.7976931348623157e308]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(*[st.sampled_from(EDGE_PARTS) | st.floats(allow_nan=False, allow_infinity=False)] * 2),
        min_size=1, max_size=32,
    ),
    st.sampled_from(INVERSE_SCALES) | st.floats(1e-300, 1e300),
)
def test_dividing_by_a_real_scale_is_multiplying_by_its_reciprocal(parts, c):
    # numpy divides complex by real as (re + im 0) (1 / c), (im - re 0) (1 / c): equal values, bar zeros' signs
    z = np.array([complex(a, b) for a, b in parts])
    with np.errstate(over="ignore"):
        assert np.array_equal(z / c, z * (1.0 / c))


def divided_inverse(grid, pieces):
    """:func:`field._inverted` as it was, scaled by a division."""
    if grid.size < field._FOLD_MIN:
        samples = field._scattered(grid, pieces)
        np.fft.ifftn(samples, out=samples)
        samples /= grid.cell_volume
        return samples
    m = grid.samples_per_axis
    sizes = tuple(m // field._FOLD if p <= m // field._FOLD else m for p in field._fold_sizes(grid, pieces))
    batch = field._folded(grid, pieces, sizes)
    np.fft.ifftn(batch, axes=tuple(range(0, 2 * grid.dimension, 2)), out=batch)
    batch /= grid.size // math.prod(sizes) * grid.cell_volume
    return batch.reshape(grid.shape)


@pytest.mark.parametrize("grid", SCALED_GRIDS, ids=str)
def test_inverted_equals_the_divided_inverse(grid):
    m, d = grid.samples_per_axis, grid.dimension
    rng = np.random.default_rng(m + d)
    # a narrow box (folds onto Q = 4 on the 2**17-point grid), a wide one (does not), two apart
    for boxes in ([(-m // 32, m // 16)], [(-m // 4, m // 2)], [(-m // 2, m // 8), (m // 4, 3)]):
        pieces = []
        for first, w in boxes:
            values = rng.standard_normal((w,) * d) + 1j * rng.standard_normal((w,) * d)
            values[rng.random(values.shape) < 0.1] = 0.0
            pieces.append(((first,) * d, values))
        assert np.array_equal(field._inverted(grid, pieces), divided_inverse(grid, pieces))


# ---------------------------------------------------------------------------
# one translation rule: whole samples and a remainder, one Hermitian phase
# ---------------------------------------------------------------------------

PERIODS = (1.0, 0.3, 16.0, 320.0, 1000.0 / 3.0, 2.0**16)


def exact_phase(shift, period, bins):
    """``exp(-2 pi i (shift, k) / L)`` from the exact rational ``(shift, k) / L`` taken mod 1 into ``[-1/2, 1/2)``."""
    turns = sum(Fraction(t) * k for t, k in zip(shift, bins)) / Fraction(period)
    turns -= math.floor(turns + Fraction(1, 2))
    return cmath.exp(-2j * math.pi * float(turns))


@st.composite
def phase_cases(draw):
    """A grid (1-D up to 2**22 points, 2-D up to 256**2), a shift up to 2**16 and a box of bins, maybe across +-M/2."""
    dimension = draw(st.sampled_from([1, 2]))
    m = 2 ** draw(st.integers(3, 22 if dimension == 1 else 8))
    grid = GridSpec(dimension, m, draw(st.sampled_from(PERIODS)))
    shift = []
    for _ in range(dimension):
        kind = draw(st.sampled_from(["float", "whole", "next to whole"]))
        if kind == "float":
            shift.append(draw(st.floats(-(2.0**16), 2.0**16)))
            continue
        t = draw(st.integers(-int(2**16 / grid.spacing), int(2**16 / grid.spacing))) * grid.spacing
        shift.append(t if kind == "whole" else math.nextafter(t, draw(st.sampled_from([-math.inf, math.inf]))))
    widths = [draw(st.integers(1, min(m, 64 if dimension == 1 else 8))) for _ in range(dimension)]
    firsts = [draw(st.one_of(st.integers(-m // 2, m // 2 - 1), st.just(m // 2 - w // 2))) for w in widths]
    return grid, shift, firsts, widths


@settings(max_examples=300, deadline=None)
@given(phase_cases())
# far past the period, which the split reduces by first
@example((GridSpec(1, 64, 0.3), [2.0**60], [-32], [64]))
@example((GridSpec(2, 256, 320.0), [-3.3e17, 1e20 + 2.0**20], [120, -5], [16, 10]))
def test_translation_phase_is_the_exact_phase_and_hermitian(case):
    grid, shift, firsts, widths = case
    m = grid.samples_per_axis
    signed = [(k + np.arange(w) + m // 2) % m - m // 2 for k, w in zip(firsts, widths)]
    got = translation_phase(grid, shift, np.ix_(*(k % m for k in signed)))
    want = np.array([exact_phase(shift, grid.period, bins) for bins in itertools.product(*signed)]).reshape(got.shape)
    assert np.max(np.abs(got - want)) <= 4e-15
    # the phase at -k is the conjugate of the phase at k, bit for bit, off the unpaired bin -M/2
    mirrored = translation_phase(grid, shift, np.ix_(*(-k % m for k in signed)))
    paired = np.ix_(*(k != -m // 2 for k in signed))
    assert np.array_equal(mirrored[paired], np.conj(got)[paired])


@pytest.mark.parametrize("shift", [4096.0, 65536.0])
def test_translation_phase_stays_exact_at_large_shifts(shift):
    # criterion 15's grid; the float product (shift * xi) erred by 2.8e-8 at 4096 and 4.5e-7 at 65536.
    # The shift and the period are integers, so (shift k mod L) / L is the exact phase.
    grid = GridSpec(1, 2**22, 320.0)
    m, t, period = grid.samples_per_axis, int(shift), int(grid.period)
    worst = 0.0
    for first in range(-m // 2, m // 2, 2**18):
        k = first + np.arange(2**18)
        want = np.exp(-2j * np.pi * (((t * k + period // 2) % period - period // 2) / period))
        worst = max(worst, float(np.max(np.abs(translation_phase(grid, [shift], (k % m,)) - want))))
    assert worst <= 4e-15


def test_aligned_means_exactly_whole_samples():
    grid = GridSpec(1, 64, 0.3)
    h = grid.spacing
    # the float 3 * h is not 3 samples, though it divides back to 3.0; only exact multiples roll
    assert (3 * h) / h == 3.0 and Fraction(3 * h) != 3 * Fraction(h)
    assert dilated_steps(grid, [3 * h], 0) is None
    assert dilated_steps(grid, [4 * h], 0) == (4,) and dilated_steps(grid, [grid.period], 0) == (0,)
    assert dilated_steps(grid, [3 * h], -1) is None and dilated_steps(grid, [4 * h], 1) == (2,)
    for k in range(3000):
        for t in (k * h, math.nextafter(k * h, -math.inf), math.nextafter(k * h, math.inf)):
            samples = Fraction(t) / Fraction(h)
            want = (int(samples) % grid.samples_per_axis,) if samples.denominator == 1 else None
            assert dilated_steps(grid, [t], 0) == want
    f = random_field(grid, 5)
    shifted = phase_shift(f, [3 * h]).values
    assert not np.array_equal(shifted, np.roll(f.values, 3))
    assert np.max(np.abs(shifted - np.roll(f.values, 3))) < 1e-12


NON_FINITE_ENTRY_POINTS = {
    "phase_shift": lambda f, t: phase_shift(f, [t]),
    "maximal_function": lambda f, t: maximal_function(f, make_lp_pair((-2, 6)), [t]),
    "square_function": lambda f, t: square_function(f, make_lp_pair((-2, 6)), [t]),
    "translation_phase": lambda f, t: translation_phase(f.grid, [t]),
}


@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRY_POINTS))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_translations_are_refused_by_name(entry, value, fft_calls):
    g = random_band_limited(GridSpec(1, 256, 16.0), (0.5, 2.0), 3)
    f = SampledField(g.grid, g.values, shells=g.shells)  # no kept spectrum: each entry point would transform it
    fft_calls.clear()
    with pytest.raises(ValueError, match=r"translation \[.*\] is not a finite 1-vector"):
        NON_FINITE_ENTRY_POINTS[entry](f, value)
    assert fft_calls == []
