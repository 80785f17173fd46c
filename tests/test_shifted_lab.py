import math
from collections import Counter

import numpy as np
import pytest

from logmult import shifted_lab
from logmult.calibration import make_lp_pair
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
    inverse,
    phase_shift,
    piece_class,
    transform,
)
from logmult.shifted_lab import (
    GrowthBankSpec,
    GrowthExperiment,
    bump_train,
    change_of_variables_check,
    dilate_field,
    fit_log_exponent,
    modulated_bump,
    operator_norm_proxy,
    predicted_growth_exponent,
    random_band_limited,
    run_growth,
)


@pytest.fixture
def grid():
    return GridSpec(1, 4096, 16.0)


def offset_bank(grid, m, seed):
    """Nonvanishing band-limited inputs (a DC pedestal keeps |prod|**p analytic)."""
    gs = []
    for slot in range(m):
        base = random_band_limited(grid, (0.0, 3.0), seed, slot)
        pedestal = SampledField(
            grid,
            np.full(grid.shape, 1.5 * float(np.max(np.abs(base.values)))),
            band=(0.0, 0.0),
        )
        gs.append(base + pedestal)
    return gs


# --- fitting ---------------------------------------------------------------

def test_fit_recovers_exact_power_law():
    ladder = [2.0**j for j in (4, 6, 8, 10, 12, 14)]
    pairs = [(y, math.log(math.e + y) ** 0.5) for y in ladder]
    fit = fit_log_exponent(pairs)
    assert abs(fit.exponent - 0.5) < 1e-9
    assert fit.residual < 1e-12


def test_fit_constant_ratios():
    ladder = [2.0**j for j in (4, 6, 8, 10)]
    fit = fit_log_exponent([(y, 3.7) for y in ladder])
    assert abs(fit.exponent) < 1e-9


def test_fit_with_noise_recovers_exponent():
    # 5% multiplicative noise around exponent 1 on a 6-octave ladder
    rng = np.random.default_rng(6)
    ladder = [2.0**j for j in range(4, 16, 2)]
    pairs = [
        (y, math.log(math.e + y) ** 1.0 * float(np.exp(rng.normal(0, 0.05))))
        for y in ladder
    ]
    fit = fit_log_exponent(pairs)
    assert abs(fit.exponent - 1.0) < 0.05


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_log_exponent([(16.0, 1.0), (32.0, 1.1), (64.0, 1.2)])
    with pytest.raises(ValueError):
        fit_log_exponent([(16.0, 1.0), (17.0, 1.1), (18.0, 1.2), (19.0, 1.3)])


# --- proxies ---------------------------------------------------------------

def test_proxy_self_ratio_at_zero_shift(grid):
    pair = make_lp_pair((-2, 3))
    bank = [random_band_limited(grid, (0.5, 4.0), 7, i) for i in range(3)]
    for kind in ("shifted-square", "shifted-maximal"):
        ratio = operator_norm_proxy(kind, 2.0, [0.0], bank, pair)
        assert abs(ratio - 1.0) < 1e-6


def test_proxy_linf_equality(grid):
    pair = make_lp_pair((-2, 3))
    bank = [random_band_limited(grid, (0.5, 4.0), 7, i) for i in range(2)]
    # aligned at every scale in the range
    y = [2.0 ** pair.scale_max * 8 * grid.spacing]
    ratio = operator_norm_proxy("shifted-maximal", math.inf, y, bank, pair)
    assert ratio == 1.0


def test_proxy_grows_with_bank(grid):
    pair = make_lp_pair((-2, 3))
    small = [modulated_bump(grid, 0.75, 0.25)]
    larger = small + [random_band_limited(grid, (0.5, 4.0), 7, 0)]
    y = [6.0]
    assert operator_norm_proxy("shifted-maximal", 2.0, y, larger, pair) >= operator_norm_proxy(
        "shifted-maximal", 2.0, y, small, pair
    )


def test_proxy_rejects_degenerate_bank(grid):
    pair = make_lp_pair((-2, 3))
    zero = SampledField(grid, np.zeros(grid.shape, dtype=complex), band=(0.0, 0.0))
    with pytest.raises(ValueError):
        with pytest.warns(UserWarning):
            operator_norm_proxy("shifted-square", 2.0, [1.0], [zero], pair)


def test_operator_norm_proxy_never_samples_the_bank():
    # the estimators read the bank's kept spectra, so no synthesis runs its inverse FFT
    grid = GridSpec(1, 2**14, 2.0**10)
    for kind in ("shifted-square", "shifted-maximal"):
        exp = GrowthExperiment(
            kind=kind, p=2.0, shifts=(4.0, 8.0, 16.0, 32.0), grid=grid, scale_range=(0, 6),
            bank=GrowthBankSpec(seed=3, n_random=2, random_band=(0.5, 1.0)),
        )
        bank = exp.make_bank()
        operator_norm_proxy(kind, exp.p, [16.0], bank, exp.make_pair())
        assert [f.kept is not None and "values" not in vars(f) for f in bank] == [True] * 3


def test_growth_experiment_rejects_a_nan_exponent():
    with pytest.raises(ValueError, match="p must be"):
        GrowthExperiment(
            kind="shifted-maximal", p=float("nan"), shifts=(16.0, 64.0), grid=GridSpec(1, 1024, 64.0),
            scale_range=(0, 1),
        )


def test_predicted_exponents():
    assert predicted_growth_exponent("shifted-square", 2.0) == 0.0
    assert predicted_growth_exponent("shifted-maximal", 2.0) == 0.5
    assert predicted_growth_exponent("shifted-maximal", math.inf) == 0.0
    assert predicted_growth_exponent("shifted-square", 4.0) == 0.25


def test_run_growth_small_maximal():
    grid = GridSpec(1, 2**16, 2.0**12)
    exp = GrowthExperiment(
        kind="shifted-maximal",
        p=2.0,
        shifts=(16.0, 64.0, 256.0, 1024.0),
        grid=grid,
        scale_range=(-1, 10),
        bank=GrowthBankSpec(seed=3, n_random=1, random_band=(0.5, 1.0)),
        tolerance=0.4,
    )
    report = run_growth(exp)
    assert report.summary["predicted_exponent"] == 0.5
    assert 0.2 <= report.summary["fitted_exponent"] <= 0.8
    ratios = [row["ratio"] for row in report.rows]
    assert all(r >= 1.0 - 1e-9 for r in ratios)


def test_run_growth_computes_each_unshifted_estimator_once(monkeypatch):
    grid = GridSpec(1, 2**14, 2.0**10)
    exp = GrowthExperiment(
        kind="shifted-maximal",
        p=2.0,
        shifts=(4.0, 8.0, 16.0, 32.0),
        grid=grid,
        scale_range=(0, 6),
        bank=GrowthBankSpec(seed=3, n_random=1, random_band=(0.5, 1.0)),
    )
    bank, pair = exp.make_bank(), exp.make_pair()
    direct = [operator_norm_proxy(exp.kind, exp.p, [y], bank, pair) for y in exp.shifts]
    shifts = []
    estimator = shifted_lab.maximal_function

    def counting(f, pair, shift=None):
        shifts.append(shift)
        return estimator(f, pair, shift)

    monkeypatch.setattr(shifted_lab, "maximal_function", counting)
    report = run_growth(exp)
    assert sum(y is None for y in shifts) == len(bank)
    assert len(shifts) == len(bank) * (1 + len(exp.shifts))
    assert [row["ratio"] for row in report.rows] == direct


def test_growth_experiment_validates_ladder():
    grid = GridSpec(1, 1024, 64.0)
    with pytest.raises(ValueError):
        GrowthExperiment(
            kind="shifted-maximal",
            p=2.0,
            shifts=(16.0, 8.0),
            grid=grid,
            scale_range=(0, 4),
        )
    with pytest.raises(ValueError):
        GrowthExperiment(
            kind="shifted-maximal",
            p=2.0,
            shifts=(16.0, 20000.0),
            grid=grid,
            scale_range=(0, 4),
        )


# --- dilation and change of variables ---------------------------------------

def test_dilate_field_moves_tone(grid):
    x = grid.axis_coordinates()
    f = SampledField(grid, np.exp(2j * np.pi * x * 2.0), band=(2.0, 2.0))
    g = dilate_field(f, 2)
    expected = 4.0 * np.exp(2j * np.pi * x * 8.0)
    assert np.max(np.abs(g.values - expected)) < 1e-10
    with pytest.raises(ValueError):
        dilate_field(f, -1)


def test_dilate_field_scales_each_shell(grid):
    # packets at 2 and 8 (radius 0.25) dilate to balls about 4 and 16 (radius 0.5),
    # not to the annulus (3.5, 16.5) around them
    f = bump_train(grid, 1.0, [1, 3], 0.25)
    g = dilate_field(f, 1)
    assert g.shells == Shells((Shell((4.0,), 0.0, 0.5), Shell((16.0,), 0.0, 0.5)))
    assert g.kept is not None
    transform(g)  # the dilated certificate verifies
    # the union's hull must stay below Nyquist (128 here): 8 * 2**4 + 0.25 * 2**4 reaches it
    dilate_field(f, 3)
    with pytest.raises(NyquistError):
        dilate_field(f, 4)


def test_phase_shift_of_a_dilate_runs_no_forward_fft(grid, monkeypatch):
    d = dilate_field(random_band_limited(grid, (0.5, 3.0), 5), 1)
    sizes = []
    fftn = np.fft.fftn

    def counting(a, *args, **kwargs):
        sizes.append(np.size(a))
        return fftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counting)
    shifted = phase_shift(d, [0.3 * grid.spacing])
    monkeypatch.undo()
    assert sizes == []
    # the kept spectrum shifts as the FFT of the samples does, to roundoff
    want = phase_shift(SampledField(grid, d.values, shells=d.shells), [0.3 * grid.spacing]).values
    assert np.max(np.abs(shifted.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_modulated_bump_certifies_one_ball():
    grid = GridSpec(1, 2**20, 2.0**16)
    f = modulated_bump(grid, 0.75, 0.25)
    assert f.shells == Shells((Shell((0.75,), 0.0, 0.25),))
    assert modulated_bump(GridSpec(2, 64, 16.0)).shells == Shells((Shell((0.75, 0.0), 0.0, 0.25),))
    # the two-sided annulus it replaces keeps twice the bins, half of them zero
    annulus = inverse(Spectrum(grid, transform(f).coefficients, support_certificate=(0.5, 1.0)))
    assert 2 * sum(v.size for _, v in f.kept) == sum(v.size for _, v in annulus.kept)
    # on the growth grid and pair the ball keeps the annulus's dispatch
    pair = make_lp_pair((-1, 14))
    assert Counter(piece_class(f, pair.phi_hat, s) for s in pair.scales) == {PLATEAU: 15, PARTIAL: 1}
    assert Counter(piece_class(f, pair.psi_hat, s) for s in pair.scales) == {ZERO: 13, PARTIAL: 3}


def test_change_of_variables_zero_shifts(grid):
    gs = offset_bank(grid, 3, 17)
    res = change_of_variables_check(gs, [[0.0]] * 3, 1, (0, 2))
    assert res.discrepancy < 1e-12


def test_change_of_variables_single_factor(grid):
    gs = offset_bank(grid, 1, 23)
    res = change_of_variables_check(gs, [[1.2345]], 0, (0, 2))
    assert res.discrepancy < 1e-11


def test_change_of_variables_three_factors(grid):
    gs = offset_bank(grid, 3, 29)
    ys = [[0.731], [-2.417], [1.113]]
    res = change_of_variables_check(gs, ys, 1, (0, 2))
    assert res.discrepancy < 1e-10


def test_change_of_variables_lp_variant(grid):
    gs = offset_bank(grid, 2, 31)
    res = change_of_variables_check(gs, [[0.911], [-1.533]], 0, (0, 2), p=3.0)
    assert res.discrepancy < 1e-9


def test_change_of_variables_zero_lhs_flag(grid):
    zero = SampledField(grid, np.zeros(grid.shape, dtype=complex), band=(0.0, 0.0))
    res = change_of_variables_check([zero, zero], [[0.5], [1.5]], 0, (0, 1))
    assert not res.relative
    assert res.discrepancy == 0.0


def test_bump_train_band_certificate(grid):
    f = bump_train(grid, 4.0, [1, 2, 3])
    assert f.band is not None
    assert f.band[0] > 0


def test_change_of_variables_rejects_empty_scale_range(grid):
    gs = offset_bank(grid, 2, 31)
    with pytest.raises(ValueError, match="empty scale range"):
        change_of_variables_check(gs, [[0.5], [1.5]], 0, (3, 1))


def test_random_band_limited_certificate_holds_at_band_edges():
    # period 10 is not a power of two: the band edge 12.7 and the radii of
    # some integer frequencies round differently under hypot(k1, k2) / L
    grid = GridSpec(2, 256, 10.0)
    f = random_band_limited(grid, (1.0, 12.7), 0, 1)
    assert f.band == (1.0, 12.7)
    assert np.any(f.values != 0)


def test_random_band_limited_is_resolution_independent():
    # the same integer frequencies, with the same draws, at 128 and 256 points
    coarse, fine = (
        transform(random_band_limited(GridSpec(2, m, 10.0), (0.3, 6.0), 9, 0)) for m in (128, 256)
    )
    k = np.fft.fftfreq(128, 1 / 128).astype(int) % 256
    assert np.allclose(fine.coefficients[np.ix_(k, k)], coarse.coefficients, rtol=0, atol=1e-12)
    assert np.count_nonzero(np.abs(fine.coefficients) > 1e-12) == np.count_nonzero(
        np.abs(coarse.coefficients) > 1e-12
    )
