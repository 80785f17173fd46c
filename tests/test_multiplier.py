import math

import numpy as np
import pytest

from logmult.calibration import make_counterexample_profiles, make_lp_pair
from logmult.field import GridSpec, apply_multiplier, convolve, lp_norm, piece_band, transform
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


def test_bracket_samples_each_distinct_factor_once(monkeypatch, profiles):
    import logmult.multiplier as multiplier

    eta_hat, beta_hat = profiles
    grid = GridSpec(1, 4096, 64.0)
    calls = []
    original = multiplier._shell_data

    def counting(factor, *args):
        calls.append(factor)
        return original(factor, *args)

    monkeypatch.setattr(multiplier, "_shell_data", counting)
    # the separation kernel: equal translated annular factors on both slots
    pair = TensorKernel.rank_one([SpectralFactor(beta_hat, (16.0,)), SpectralFactor(beta_hat, (16.0,))])
    d_lambda(pair, 0.5, grid, method="bracket")
    assert len(calls) == 1
    # its shear reads the same base factors
    calls.clear()
    d_lambda(transpose_kernel(pair, 1), 0.5, grid, method="bracket")
    assert len(calls) == 1
    calls.clear()
    mixed = TensorKernel.rank_one([SpectralFactor(beta_hat, (16.0,)), SpectralFactor(beta_hat)])
    d_lambda(mixed, 0.5, grid, method="bracket")
    assert len(calls) == 2


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
    bracket = d_lambda(kernel2, 1.0, grid, method="bracket")
    assert bracket.lower <= exact.value <= bracket.upper
    assert bracket.width <= 0.1 * bracket.value


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


def test_d_lambda_rejects_unknown_method(grid, kernel2):
    for kernel in (kernel2, transpose_kernel(kernel2, 1)):
        with pytest.raises(ValueError, match="unknown method"):
            d_lambda(kernel, 0.0, grid, method="exakt")


def test_d_lambda_exact_path_checks_grid(kernel2):
    flat = GridSpec(2, 32, 8.0)
    for kernel in (kernel2, transpose_kernel(kernel2, 2)):
        with pytest.raises(ValueError, match="d = 1"):
            d_lambda(kernel, 0.0, flat, method="exact")


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
        f_t = bump_train(grid, y, scales, conjugate=True)
        val = abs(
            shifted_form(
                [f_s, f_t, f_tau], (1, 2), 3, [[y], [y], [0.0]], range(0, n_scales + 2), pair
            )
        )
        denom = lp_norm(f_s, 4) * lp_norm(f_t, 4) * lp_norm(f_tau, 2)
        rows.append((y, val / denom))
    fit = fit_log_exponent(rows)
    assert abs(fit.exponent - 0.5) < 0.3


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


def test_kernel_manifest_serialization(kernel2):
    manifest = kernel2.to_manifest()
    assert manifest["n"] == 2
    assert len(manifest["terms"]) == 1
    factors = manifest["terms"][0]["factors"]
    assert len(factors) == 2
    assert factors[0]["kind"] == "annular"
    assert "translation" in factors[0]


def per_scale_shifted_form(fs, psi_slots, tau, shifts, scales, pair):
    """The shifted form as its own loop: one integral per scale, summed."""
    s, t = psi_slots
    grid = fs[0].grid
    spectra = [transform(f) for f in fs]
    profiles = [pair.psi_hat if k in (s, t) else pair.phi_hat for k in range(1, len(fs) + 1)]
    translations = [None if k == tau else shifts[k - 1] for k in range(1, len(fs) + 1)]
    total = 0.0 + 0.0j
    for scale in scales:
        if any(piece_band(f, p.support, scale) is None for f, p in zip(fs, profiles)):
            continue
        prod = np.ones(grid.shape, dtype=np.complex128)
        for spec, profile, translation in zip(spectra, profiles, translations):
            prod *= apply_multiplier(spec, profile, scale, translation)
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
        bump_train(grid, y, scales, conjugate=True),
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
