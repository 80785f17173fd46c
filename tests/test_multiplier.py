import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from logmult import multiplier
from logmult.calibration import AnnularProfile, RadialProfile, make_counterexample_profiles, make_lp_pair
from logmult.field import GridSpec, conjugate, convolve, lp_norm, piece_plan
from logmult.lp_ops import ShiftedDyadicOp, dyadic_piece
from logmult.multiplier import (
    SpectralFactor,
    TensorKernel,
    apply_t,
    d_lambda,
    lambda_form,
    shifted_form,
    transpose_kernel,
)
from logmult.shifted_lab import bump_train, random_band_limited


@pytest.fixture
def grid():
    return GridSpec(1, 1024, 64.0)


@pytest.fixture
def profiles():
    return make_counterexample_profiles(0.4, (0.9, 1.1), (0.55, 1.25))


@pytest.fixture
def kernel2(profiles):
    _, beta_hat = profiles
    return TensorKernel.rank_one([SpectralFactor(beta_hat), SpectralFactor(beta_hat)])


def test_joint_annulus_certificate(kernel2, profiles):
    eta_hat, beta_hat = profiles
    lo, hi = kernel2.annulus_certificate()
    assert 0.5 <= lo <= hi <= 2.0
    k3 = TensorKernel.rank_one(
        [SpectralFactor(beta_hat), SpectralFactor(beta_hat), SpectralFactor(eta_hat)]
    )
    lo3, hi3 = k3.annulus_certificate()
    assert 0.5 <= lo3 <= hi3 <= 2.0


@pytest.mark.parametrize("reverse", [False, True])
def test_joint_support_does_not_depend_on_term_order(profiles, reverse):
    eta_hat, beta_hat = profiles
    terms = [
        (1.0, (SpectralFactor(eta_hat), SpectralFactor(eta_hat))),
        (1.0, (SpectralFactor(beta_hat), SpectralFactor(beta_hat))),
    ]
    kernel = TensorKernel(2, tuple(reversed(terms)) if reverse else tuple(terms))
    lo, hi = kernel.joint_support()
    assert lo == 0.0  # the eta term reaches the origin
    assert hi == pytest.approx(1.768, abs=1e-3)  # sqrt(2) * 1.25
    with pytest.raises(ValueError, match="unit annulus"):
        kernel.annulus_certificate()


@pytest.fixture(autouse=True)
def fresh_shell_memo():
    """Every test starts and ends with an empty shell-mass memo: none reads or leaves another's masses."""
    multiplier._shell_data.cache_clear()
    yield
    multiplier._shell_data.cache_clear()


def shell_data(factor, grid, shells):
    """The memoised shell masses of one factor."""
    return multiplier._shell_data(factor.profile, tuple(float(c) for c in factor.center(grid.dimension)), grid, shells)


def test_bracket_samples_each_distinct_factor_once(monkeypatch, profiles):
    eta_hat, beta_hat = profiles
    grid = GridSpec(1, 4096, 64.0)
    calls = []  # one box_modulus call per sampled factor
    original = multiplier.box_modulus

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(multiplier, "box_modulus", counting)
    # the separation kernel: equal translated annular factors on both slots
    pair = TensorKernel.rank_one([SpectralFactor(beta_hat, (16.0,)), SpectralFactor(beta_hat, (16.0,))])
    multiplier._bracket_d_lambda(pair, 0.5, grid)
    assert len(calls) == 1
    # its shear reads the same base factors, and no lambda enters the masses
    multiplier._bracket_d_lambda(transpose_kernel(pair, 1), 0.5, grid)
    multiplier._bracket_d_lambda(pair, 1.5, grid)
    assert len(calls) == 1
    calls.clear()
    mixed = TensorKernel.rank_one([SpectralFactor(beta_hat, (16.0,)), SpectralFactor(beta_hat)])
    multiplier._bracket_d_lambda(mixed, 0.5, grid)
    assert len(calls) == 1  # the translated factor is a hit; the untranslated one is sampled
    multiplier._shell_data.cache_clear()
    calls.clear()
    multiplier._bracket_d_lambda(mixed, 0.5, grid)
    assert len(calls) == 2


def test_a_translation_of_another_dimension_is_refused_by_name(profiles):
    # it used to fail inside the multiplier core with numpy's broadcast error
    _, beta_hat = profiles
    factor = SpectralFactor(beta_hat, (3.0,))
    grid = GridSpec(2, 64, 16.0)
    refused = r"SpectralFactor\(.*\): translation \(3\.0,\) does not have 2 coordinates"
    with pytest.raises(ValueError, match=refused):
        multiplier._bracket_d_lambda(TensorKernel.rank_one([factor, factor]), 0.5, grid)
    for use in (factor.center, lambda d: factor.spectrum_on(grid), lambda d: factor.field_on(grid)):
        with pytest.raises(ValueError, match=refused):
            use(2)
    assert np.array_equal(factor.center(1), [3.0]) and np.array_equal(SpectralFactor(beta_hat).center(2), [0.0, 0.0])


def test_memo_hit_is_the_fresh_read_only_computation(profiles):
    _, beta_hat = profiles
    grid = GridSpec(1, 4096, 64.0)
    factor = SpectralFactor(beta_hat, (16.0,))
    first = shell_data(factor, grid, 256)
    hit = shell_data(factor, grid, 256)
    fresh = multiplier._shell_data.__wrapped__(beta_hat, (16.0,), grid, 256)
    assert multiplier._shell_data.cache_info().hits == 1
    for got, want in zip(hit, fresh):
        assert np.array_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0.0
    assert all(a is b for a, b in zip(first, hit))


@pytest.mark.parametrize("translation", [[16.0], np.array([16.0])], ids=["list", "array"])
def test_sequence_translation_shares_the_tuple_entry(profiles, translation):
    """A list translation (as :func:`shifted_form` builds) or an array one brackets like the tuple form, from its entry."""
    _, beta_hat = profiles
    grid = GridSpec(1, 4096, 64.0)
    as_tuple = TensorKernel.rank_one([SpectralFactor(beta_hat, (16.0,))] * 2)
    as_sequence = TensorKernel.rank_one([SpectralFactor(beta_hat, translation)] * 2)
    want = multiplier._bracket_d_lambda(as_tuple, 0.5, grid)
    assert multiplier._bracket_d_lambda(as_sequence, 0.5, grid) == want
    info = multiplier._shell_data.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


def test_exact_path_refuses_nearly_equal_translations(profiles):
    """Terms translated by 5.0 and 5.00004 passed an ``allclose`` check, and the value then
    hung on term order (17.144396 one way, 17.145922 the other): each term was weighed
    at the first term's centres."""
    _, beta_hat = profiles
    grid = GridSpec(1, 256, 32.0)
    terms = [(1.0, (SpectralFactor(beta_hat, (a,)),) * 2) for a in (5.0, 5.00004)]
    for order in (terms, terms[::-1]):
        with pytest.raises(ValueError, match="share slot translations"):
            d_lambda(TensorKernel(2, tuple(order)), 1.0, grid)


def sampled_shell_data(factor, grid, shells, mags=None):
    """The oracle: the factor sampled by a full-size inverse FFT, every offset bucketed by ``bincount``."""
    center = factor.center(grid.dimension)
    off = multiplier._signed_offsets(grid, center)
    signed = grid.dimension == 1
    if not signed:
        off = np.abs(off)
    base = float(off.min()) if signed else 0.0
    reach = float(off.max()) - base
    width = reach / shells if reach > 0 else 1.0
    idx = np.minimum(((off - base) / width).astype(int), shells - 1)
    if mags is None:
        mags = np.abs(factor.field_on(grid).values)
    mass = np.bincount(idx.ravel(), weights=mags.ravel(), minlength=shells) * grid.cell_volume
    lo = base + np.arange(shells) * width
    return mass, lo, lo + width


@st.composite
def shell_cases(draw):
    """A translated radial factor, its grid and a shell count.

    1-D grids of 8 .. 2**14 points and 2-D grids of 8 .. 128 per axis, with
    periods 320, 10 and 2**16; the profile's support fits below Nyquist.  The
    centre sits on the grid, off it, at +-L/2, at a multiple of L, or far out
    (4096, the separation kernel's shift at N = 3).
    """
    dim = draw(st.sampled_from([1, 1, 2]))
    m = 2 ** draw(st.integers(3, 14 if dim == 1 else 7))
    period = draw(st.sampled_from([320.0, 10.0, 2.0**16]))
    grid = GridSpec(dim, m, period)
    outer = draw(st.floats(0.2, 0.95)) * grid.nyquist
    inner = draw(st.floats(0.0, 0.8)) * outer
    if inner < 0.05 * outer:
        profile = RadialProfile(outer / 2.0, outer)
    else:
        profile = AnnularProfile(inner + (outer - inner) / 3.0, outer - (outer - inner) / 3.0, inner, outer)

    def coordinate():
        kind = draw(st.sampled_from(["on-grid", "off-grid", "half", "multiple", "far"]))
        if kind == "on-grid":
            return draw(st.integers(-2 * m, 2 * m)) * grid.spacing
        if kind == "off-grid":
            return draw(st.floats(-2.0 * period, 2.0 * period))
        if kind == "half":
            return draw(st.sampled_from([-0.5, 0.5])) * period
        if kind == "multiple":
            return draw(st.integers(-2, 3)) * period
        return 4096.0

    factor = SpectralFactor(profile, tuple(coordinate() for _ in range(dim)))
    return factor, grid, draw(st.sampled_from([1, 3, 16, 128, 256]))


@settings(max_examples=120, deadline=None)
@given(shell_cases())
# one box over the whole grid, [-M/2, M/2): its reflection [-M/2 + 1, M/2] wraps onto it
@example((SpectralFactor(RadialProfile(0.004687500000000001, 0.009375000000000001), (0.0,)), GridSpec(1, 8, 320.0), 1))
def test_shell_data_matches_sampled_factor(case):
    factor, grid, shells = case
    mass, lo, hi = shell_data(factor, grid, shells)
    want_mass, want_lo, want_hi = sampled_shell_data(factor, grid, shells)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
    assert np.max(np.abs(mass - want_mass)) <= 1e-12 * want_mass.sum()
    # unit moduli: each shell's mass is its sample count times the cell volume, exactly;
    # computed past the memo, which holds this factor's real masses and must not keep ones
    ones = np.ones(grid.shape)
    center = tuple(float(c) for c in factor.center(grid.dimension))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multiplier, "box_modulus", lambda grid, pieces: ones)
        counts = multiplier._shell_data.__wrapped__(factor.profile, center, grid, shells)[0]
    assert np.array_equal(counts, sampled_shell_data(factor, grid, shells, ones)[0])


def test_d_lambda_zero_is_l1(grid, kernel2, profiles):
    _, beta_hat = profiles
    beta = SpectralFactor(beta_hat).field_on(grid)
    oracle = lp_norm(beta, 1) ** 2
    res = d_lambda(kernel2, 0.0, grid)
    assert abs(res.value - oracle) < 1e-8 * oracle


def test_d_lambda_monotone(grid, kernel2):
    vals = [d_lambda(kernel2, lam, grid).value for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_d_lambda_bracket_contains_exact(grid, kernel2):
    exact = d_lambda(kernel2, 1.0, grid)
    assert exact.method == "exact"
    lower, upper = multiplier._bracket_d_lambda(kernel2, 1.0, grid)
    assert lower <= exact.value <= upper
    assert upper - lower <= 0.1 * 0.5 * (lower + upper)


def assert_exact_in_bracket(kernel, lam, grid):
    """The exact value lies in the certified bracket, up to 1e-12 relative roundoff.

    At lambda = 0 the bracket has zero width, and the two paths sum the same
    masses in different orders.
    """
    exact = multiplier._exact_d_lambda(kernel, lam, grid)
    lower, upper = multiplier._bracket_d_lambda(kernel, lam, grid)
    slack = 1e-12 * upper
    assert lower - slack <= exact <= upper + slack, (exact, lower, upper)


@pytest.mark.parametrize(
    "translations, grid",
    [
        ((40.0, 0.0), GridSpec(1, 1024, 64.0)),
        ((24.0, -8.0), GridSpec(1, 1024, 64.0)),
        ((3.0, None, -2.0), GridSpec(1, 128, 16.0)),
        ((6.0, -3.0, None), GridSpec(1, 128, 16.0)),
    ],
)
def test_transposed_exact_lies_in_bracket_for_far_slots(profiles, translations, grid):
    """Both paths weigh a transpose at the shear of the base kernel's lifted coordinates.

    A slot gap |a_k - a_j| >= L/2 puts the unfolded difference y_k = u_k - u_j
    beyond the torus min-image, where folding it would cap the weight.
    """
    _, beta_hat = profiles
    kernel = TensorKernel.rank_one([SpectralFactor(beta_hat, None if a is None else (a,)) for a in translations])
    for j in range(kernel.n + 1):
        assert_exact_in_bracket(transpose_kernel(kernel, j) if j else kernel, 1.0, grid)


def test_transposed_weight_is_the_unfolded_shear(grid, profiles):
    """Slots at 40 and 0, j = 1: the folded difference read 13.209, below the bracket [15.004, 15.037]."""
    _, beta_hat = profiles
    kernel = TensorKernel.rank_one([SpectralFactor(beta_hat, (40.0,)), SpectralFactor(beta_hat, (0.0,))])
    assert d_lambda(transpose_kernel(kernel, 1), 1.0, grid).value == pytest.approx(15.0206041, rel=1e-7)


@st.composite
def sheared_cases(draw):
    """A rank-1 kernel of n in {2, 3} annular factors, a swapped slot j in 0..n and lambda in [0, 2].

    Each slot is untranslated or translated on or off the grid, within 1.5
    periods, so slot gaps |a_k - a_j| >= L/2 occur.
    """
    _, beta_hat = make_counterexample_profiles(0.4, (0.9, 1.1), (0.55, 1.25))
    n = draw(st.sampled_from([2, 3]))
    grid = GridSpec(1, 256 if n == 2 else 64, 32.0 if n == 2 else 16.0)

    def translation():
        kind = draw(st.sampled_from(["none", "on-grid", "off-grid"]))
        if kind == "none":
            return None
        if kind == "on-grid":
            return (draw(st.integers(-3 * grid.size // 2, 3 * grid.size // 2)) * grid.spacing,)
        return (draw(st.floats(-1.5 * grid.period, 1.5 * grid.period)),)

    kernel = TensorKernel.rank_one([SpectralFactor(beta_hat, translation()) for _ in range(n)])
    j = draw(st.integers(0, n))
    return (transpose_kernel(kernel, j) if j else kernel), draw(st.floats(0.0, 2.0)), grid


@settings(max_examples=40, deadline=None)
@given(sheared_cases())
def test_exact_d_lambda_lies_in_bracket(case):
    kernel, lam, grid = case
    assert_exact_in_bracket(kernel, lam, grid)


def gathered_bracket(kernel, lam, grid):
    """Reference bracket: every slot's shell arrays gathered onto the flat s^n lattice by a meshgrid index."""
    base, j = multiplier._sheared(kernel)
    n = base.n
    s = multiplier._DEFAULT_SHELLS.get(n, 16)
    coeff, factors = base.terms[0]
    flat = [g.ravel() for g in np.meshgrid(*[np.arange(s)] * n, indexing="ij")]
    mass = np.ones(flat[0].size)
    lows, highs = [], []
    for k, factor in enumerate(factors):
        m_k, lo_k, hi_k = shell_data(factor, grid, s)
        mass *= m_k[flat[k]]
        lows.append(lo_k[flat[k]])
        highs.append(hi_k[flat[k]])
    centers = [f.center(grid.dimension) for f in factors]
    bounds = multiplier._shell_bounds(j, centers, lows, highs, signed=grid.dimension == 1)
    lo_sq = sum(lo**2 for lo, _ in bounds)
    hi_sq = sum(hi**2 for _, hi in bounds)
    live = mass > 0
    lower = abs(coeff) * float(np.sum(mass[live] * multiplier._weight(np.sqrt(lo_sq[live]), lam)))
    upper = abs(coeff) * float(np.sum(mass[live] * multiplier._weight(np.sqrt(hi_sq[live]), lam)))
    return lower, upper


@st.composite
def bracket_cases(draw):
    """A rank-1 kernel of n in {2, 3} annular factors on a small d in {1, 2} grid, a shear j in 0..n and lambda in [0, 3]."""
    _, beta_hat = make_counterexample_profiles(0.4, (0.9, 1.1), (0.55, 1.25))
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([2, 3]))
    grid = GridSpec(1, 256, 32.0) if d == 1 else GridSpec(2, 32, 8.0)
    reach = grid.period

    def translation():
        return draw(st.none() | st.tuples(*[st.floats(-reach, reach)] * d))

    kernel = TensorKernel.rank_one([SpectralFactor(beta_hat, translation()) for _ in range(n)])
    j = draw(st.integers(0, n))
    return (transpose_kernel(kernel, j) if j else kernel), draw(st.floats(0.0, 3.0)), grid


@settings(max_examples=16, deadline=None)
@given(bracket_cases())
def test_broadcast_bracket_is_the_gathered_bracket(case):
    """The bracket on the broadcast shell lattice sums the gathered lattice's terms in its order, bit for bit."""
    kernel, lam, grid = case
    assert multiplier._bracket_d_lambda(kernel, lam, grid) == gathered_bracket(kernel, lam, grid)


@pytest.mark.parametrize("j", [0, 2])
def test_a_warm_three_slot_bracket_holds_few_lattice_arrays(profiles, j):
    """A warm n = 3 bracket (128^3 shell combinations) peaks at no more than 8 lattice-sized float64 arrays.

    Gathering every slot's shell arrays onto the lattice peaked at about 22.
    """
    _, beta_hat = profiles
    grid = GridSpec(1, 256, 64.0)
    kernel = TensorKernel.rank_one(
        [SpectralFactor(beta_hat, (16.0,)), SpectralFactor(beta_hat), SpectralFactor(beta_hat, (-8.0,))]
    )
    kernel = transpose_kernel(kernel, j) if j else kernel
    multiplier._bracket_d_lambda(kernel, 1.0, grid)  # samples the factors into the memo
    tracemalloc.start()
    try:
        multiplier._bracket_d_lambda(kernel, 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lattice = 8 * 128**3  # bytes of one float64 array over the shell combinations
    assert peak <= 8 * lattice, f"{peak / lattice:.2f} lattice arrays"


def test_d_lambda_unit_mass_bump_weight_bounds(grid, profiles):
    eta_hat, _ = profiles
    k = TensorKernel.rank_one([SpectralFactor(eta_hat), SpectralFactor(eta_hat)])
    d0 = d_lambda(k, 0.0, grid).value
    d1 = d_lambda(k, 1.0, grid).value
    r_max = grid.period * math.sqrt(2) / 2.0
    assert d1 >= d0 * (1 - 1e-12)
    assert d1 <= d0 * math.log(math.e + r_max) * (1 + 1e-12)


def test_d_lambda_rejects_negative(grid, kernel2):
    with pytest.raises(ValueError):
        d_lambda(kernel2, -0.5, grid)


@pytest.mark.parametrize("lam", [float("nan"), math.inf])
def test_d_lambda_rejects_non_finite_lambda(grid, kernel2, lam):
    with pytest.raises(ValueError, match="finite"):
        d_lambda(kernel2, lam, grid)


def test_d_lambda_exact_path_checks_grid(kernel2):
    flat = GridSpec(2, 32, 8.0)
    for kernel in (kernel2, transpose_kernel(kernel2, 2)):
        with pytest.raises(ValueError, match="d = 1"):
            multiplier._exact_d_lambda(kernel, 0.0, flat)


def test_apply_t_single_term_single_scale(grid, kernel2, profiles):
    _, beta_hat = profiles
    beta = SpectralFactor(beta_hat).field_on(grid)
    f1 = random_band_limited(grid, (0.6, 1.2), 7, 0)
    f2 = random_band_limited(grid, (0.6, 1.2), 7, 1)
    out = apply_t(kernel2, [f1, f2], range(0, 1))
    direct = convolve(beta, f1).values * convolve(beta, f2).values
    assert np.max(np.abs(out.values - direct)) < 1e-12


def test_apply_t_multilinear(grid, kernel2):
    f1 = random_band_limited(grid, (0.6, 1.2), 7, 0)
    f2 = random_band_limited(grid, (0.6, 1.2), 7, 1)
    base = apply_t(kernel2, [f1, f2], range(0, 3))
    scaled = apply_t(kernel2, [(2.0 + 1.0j) * f1, f2], range(0, 3))
    assert np.max(np.abs(scaled.values - (2.0 + 1.0j) * base.values)) < 1e-12


def test_apply_t_two_point_slot_linearity(grid, kernel2):
    f1a = random_band_limited(grid, (0.6, 1.2), 8, 0)
    f1b = random_band_limited(grid, (0.6, 1.2), 8, 1)
    f2 = random_band_limited(grid, (0.6, 1.2), 8, 2)
    lhs = apply_t(kernel2, [f1a + f1b, f2], range(0, 3))
    rhs = apply_t(kernel2, [f1a, f2], range(0, 3)) + apply_t(
        kernel2, [f1b, f2], range(0, 3)
    )
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


def test_apply_t_single_contributing_scale(grid, kernel2):
    # inputs confined to one octave: only the matching scale contributes
    f1 = random_band_limited(grid, (1.8, 2.2), 9, 0)
    f2 = random_band_limited(grid, (1.8, 2.2), 9, 1)
    wide = apply_t(kernel2, [f1, f2], range(-2, 5))
    single = apply_t(kernel2, [f1, f2], range(1, 2))
    assert np.max(np.abs(wide.values - single.values)) < 1e-10


def test_lambda_form_examples(grid, kernel2):
    f1 = random_band_limited(grid, (0.6, 1.2), 10, 0)
    f2 = random_band_limited(grid, (0.6, 1.2), 10, 1)
    zero = 0.0 * f1
    assert lambda_form(kernel2, [f1, f2, zero], range(0, 2)) == 0.0
    f3 = random_band_limited(grid, (0.6, 1.2), 10, 2)
    val = lambda_form(kernel2, [f1, f2, f3], range(0, 2))
    out = apply_t(kernel2, [f1, f2], range(0, 2))
    direct = complex(np.sum(out.values * f3.values) * grid.cell_volume)
    assert abs(val - direct) < 1e-12 * max(1.0, abs(val))


def test_lambda_form_real_for_real_integrand(grid, kernel2, profiles):
    _, beta_hat = profiles
    beta = SpectralFactor(beta_hat).field_on(grid)
    val = lambda_form(kernel2, [beta, beta, beta], range(-1, 3))
    assert abs(val.imag) < 1e-10 * max(1.0, abs(val.real))


def test_transpose_pointwise(grid, kernel2, profiles):
    _, beta_hat = profiles
    beta = SpectralFactor(beta_hat).field_on(grid).values
    m = grid.samples_per_axis
    t1 = transpose_kernel(kernel2, 1)
    rng = np.random.default_rng(0)
    rows = [int(r) for r in rng.integers(0, m, size=10)]
    vals = t1.values_on_rows(grid, rows)
    for ri, r in enumerate(rows):
        for y2 in rng.integers(0, m, size=10):
            direct = beta[(-r) % m] * beta[(int(y2) - r) % m]
            assert abs(vals[ri, int(y2)] - direct) < 1e-12


def test_transpose_d0_preserved(grid, kernel2):
    base = d_lambda(kernel2, 0.0, grid).value
    for j in (1, 2):
        tj = d_lambda(transpose_kernel(kernel2, j), 0.0, grid).value
        assert abs(tj - base) < 1e-6 * base


def test_transpose_d_lambda_comparable(grid, kernel2):
    lam = 1.0
    base = d_lambda(kernel2, lam, grid).value
    ratio = d_lambda(transpose_kernel(kernel2, 1), lam, grid).value / base
    assert 0.5 < ratio < 2.0


def test_shifted_form_disjoint_spectra_vanish(grid):
    pair = make_lp_pair((-2, 4))
    fs = [
        random_band_limited(grid, (0.9, 1.1), 11, 0),
        random_band_limited(grid, (3.6, 4.4), 11, 1),
        random_band_limited(grid, (6.5, 7.5), 11, 2),
    ]
    # at scales where the low-pass slot passes anything, the annular slot 1
    # profile has left the first field's octave: every scale product vanishes
    val = shifted_form(fs, (1, 2), 3, [[0.0]] * 3, range(-2, 5), pair)
    assert abs(val) < 1e-12


def test_shifted_form_single_scale_direct(grid):
    pair = make_lp_pair((-2, 4))
    fs = [random_band_limited(grid, (1.8, 2.2), 12, i) for i in range(3)]
    full = shifted_form(fs, (1, 2), 3, [[0.3], [1.7], [0.0]], range(-2, 5), pair)
    # packets live one octave up: scales {0, 1, 2} can contribute; compare to
    # the same evaluation restricted to those scales
    narrow = shifted_form(fs, (1, 2), 3, [[0.3], [1.7], [0.0]], range(0, 3), pair)
    assert abs(full - narrow) < 1e-10 * max(1.0, abs(full))


from logmult.shifted_lab import fit_log_exponent, modulated_bump


def test_shifted_form_growth_tracks_pairwise_exponent():
    # stacked packet trains witness log(e+|y|)**lambda_(s,t) growth of the
    # normalized form; lambda_(s,t) = 1/2 at p = (4, 4) with the dual slot
    # unshifted
    grid = GridSpec(1, 2**17, 2.0**9)
    pair = make_lp_pair((-1, 8))
    f_tau = modulated_bump(grid, 0.75, 0.25)
    rows = []
    for j in (4, 5, 6, 7, 8, 9):
        y = 2.0**j
        n_scales = round(math.log(math.e + y))
        scales = range(1, n_scales + 1)
        f_s = bump_train(grid, y, scales)
        f_t = conjugate(bump_train(grid, y, scales))
        val = abs(
            shifted_form(
                [f_s, f_t, f_tau], (1, 2), 3, [[y], [y], [0.0]], range(0, n_scales + 2), pair
            )
        )
        denom = lp_norm(f_s, 4) * lp_norm(f_t, 4) * lp_norm(f_tau, 2)
        rows.append((y, val / denom))
    fit = fit_log_exponent(rows, 0.5)
    assert abs(fit.slope - 0.5) < 0.3


def _direct_bilinear_output(kernel_values, g1, g2, grid):
    """Brute-force T at a single scale from pointwise kernel values (d = 1)."""
    m = grid.samples_per_axis
    idx = np.arange(m)
    shift_matrix = (idx[None, :] - idx[:, None]) % m  # [a, x] -> (x - a) mod m
    tmp = kernel_values @ g2.values[shift_matrix]  # sum over b of K[a, b] g2(x - b)
    out = np.sum(g1.values[shift_matrix] * tmp, axis=0)
    return out * grid.cell_volume**2


def test_lambda_form_transpose_consistency():
    # swapping a slot with the dual argument and shearing the kernel leaves
    # the trilinear pairing unchanged (coarse grid, single scale)
    grid = GridSpec(1, 128, 16.0)
    _, beta_hat = make_counterexample_profiles(0.4, (0.9, 1.1), (0.55, 1.25))
    kernel = TensorKernel.rank_one([SpectralFactor(beta_hat), SpectralFactor(beta_hat)])
    f1 = random_band_limited(grid, (0.6, 1.2), 41, 0)
    f2 = random_band_limited(grid, (0.6, 1.2), 41, 1)
    # the output spectrum sits in the band-sum; the dual slot must meet it
    f3 = random_band_limited(grid, (1.3, 2.3), 41, 2)
    form = lambda_form(kernel, [f1, f2, f3], range(0, 1))
    assert abs(form) > 1e-6  # nondegenerate pairing

    t1 = transpose_kernel(kernel, 1)
    k1_values = t1.values_on_rows(grid, list(range(grid.samples_per_axis)))
    swapped = _direct_bilinear_output(k1_values, f3, f2, grid)
    via_transpose = complex(np.sum(swapped * f1.values) * grid.cell_volume)
    assert abs(via_transpose - form) < 1e-4 * abs(form)


def per_scale_shifted_form(fs, psi_slots, tau, shifts, scales, pair):
    """The shifted form as its own loop: one integral per scale, summed."""
    s, t = psi_slots
    grid = fs[0].grid
    profiles = [pair.psi_hat if k in (s, t) else pair.phi_hat for k in range(1, len(fs) + 1)]
    translations = [None if k == tau else shifts[k - 1] for k in range(1, len(fs) + 1)]
    total = 0.0 + 0.0j
    for scale in scales:
        if any(piece_plan(f, p, scale)[1] is None for f, p in zip(fs, profiles)):
            continue
        prod = np.ones(grid.shape, dtype=np.complex128)
        for f, profile, translation in zip(fs, profiles, translations):
            prod *= dyadic_piece(f, ShiftedDyadicOp(profile, scale, translation)).values
        total += np.sum(prod) * grid.cell_volume
    return complex(total)


@pytest.mark.parametrize("y", [0.0, 16.0, 37.5])
@pytest.mark.parametrize("tau", [1, 3])
def test_shifted_form_matches_per_scale_loop(y, tau):
    grid = GridSpec(1, 2**14, 2.0**8)
    pair = make_lp_pair((-1, 6))
    scales = range(1, 5)
    fs = [
        bump_train(grid, y, scales),
        conjugate(bump_train(grid, y, scales)),
        modulated_bump(grid, 0.75, 0.25),
    ]
    shifts = [[y], [y], [0.5 * y]]
    got = shifted_form(fs, (1, 2), tau, shifts, range(0, 6), pair)
    want = per_scale_shifted_form(fs, (1, 2), tau, shifts, range(0, 6), pair)
    assert abs(want) > 0
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("j", [None, 1, 2, 3])
def test_rows_match_pointwise_evaluation_n3(j):
    grid = GridSpec(1, 64, 16.0)
    eta_hat, beta_hat = make_counterexample_profiles(0.4, (0.9, 1.1), (0.55, 1.25))
    slots = [SpectralFactor(beta_hat, (1.5,)), SpectralFactor(beta_hat), SpectralFactor(eta_hat, (-0.75,))]
    kernel = TensorKernel(
        3, ((1.0 + 0.0j, tuple(slots)), (0.5 - 1.0j, (slots[1], slots[2], SpectralFactor(eta_hat))))
    )
    handle = kernel if j is None else transpose_kernel(kernel, j)
    m = grid.samples_per_axis
    rows = [0, 5, 31, 63]
    vals = handle.values_on_rows(grid, rows)
    assert vals.shape == (len(rows), m, m)
    terms = [(c, [f.field_on(grid).values for f in fs]) for c, fs in kernel.terms]
    rng = np.random.default_rng(3)
    for ri, r in enumerate(rows):
        for y2, y3 in rng.integers(0, m, size=(20, 2)):
            y = (r, int(y2), int(y3))
            if j is None:
                idx = y
            else:
                # K^j(y) = K(y_1 - y_j, ..., -y_j, ..., y_n - y_j)
                idx = tuple(((0 if k == j - 1 else y[k]) - y[j - 1]) % m for k in range(3))
            direct = sum(c * f[0][idx[0]] * f[1][idx[1]] * f[2][idx[2]] for c, f in terms)
            assert abs(vals[ri, y[1], y[2]] - direct) <= 1e-12 * np.max(np.abs(vals))
