import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    dilated_steps,
    inverse,
    lp_norm,
    phase_shift,
    piece_plan,
    transform,
)
from logmult.lp_ops import square_function
from logmult.reporting import render_report
from logmult.shifted_lab import (
    GrowthBankSpec,
    GrowthExperiment,
    LogLawFit,
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
            shells=Shells.radial(0.0, 0.0, grid.dimension),
        )
        gs.append(base + pedestal)
    return gs


# --- fitting ---------------------------------------------------------------

def test_fit_recovers_exact_power_law():
    ladder = [2.0**j for j in (4, 6, 8, 10, 12, 14)]
    pairs = [(y, math.log(math.e + y) ** 0.5) for y in ladder]
    fit = fit_log_exponent(pairs, 0.5)
    assert abs(fit.slope - 0.5) < 1e-9
    assert fit.residual < 1e-12


def test_fit_constant_ratios():
    ladder = [2.0**j for j in (4, 6, 8, 10)]
    fit = fit_log_exponent([(y, 3.7) for y in ladder], 0.0)
    assert abs(fit.slope) < 1e-9


def test_fit_with_noise_recovers_exponent():
    # 5% multiplicative noise around exponent 1 on a 6-octave ladder
    rng = np.random.default_rng(6)
    ladder = [2.0**j for j in range(4, 16, 2)]
    pairs = [
        (y, math.log(math.e + y) ** 1.0 * float(np.exp(rng.normal(0, 0.05))))
        for y in ladder
    ]
    fit = fit_log_exponent(pairs, 1.0)
    assert abs(fit.slope - 1.0) < 0.05


def test_fit_rows_are_the_shifts_and_ratios():
    fit = fit_log_exponent([(-16.0, 1.0), (32.0, 1.1), (64.0, 1.2), (128.0, 1.3)], 0.5)
    assert fit.rows == tuple({"shift": y, "ratio": r} for y, r in ((16.0, 1.0), (32.0, 1.1), (64.0, 1.2), (128.0, 1.3)))
    assert fit.predicted == 0.5 and fit.gap == fit.slope - 0.5


def test_a_verdict_is_vacuous_only_for_a_nonzero_prediction_a_flat_fit_meets():
    flat = LogLawFit(rows=(), slope=0.0, residual=0.0, predicted=0.25)
    passed, notes = flat.verdict(0.3)
    assert passed and len(notes) == 1 and "predicted exponent 0.25 is within the tolerance 0.3" in notes[0]
    assert flat.verdict(0.2) == (False, ())
    assert LogLawFit(rows=(), slope=0.01, residual=0.0, predicted=0.0).verdict(0.3) == (True, ())


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_log_exponent([(16.0, 1.0), (32.0, 1.1), (64.0, 1.2)], 0.5)
    with pytest.raises(ValueError):
        fit_log_exponent([(16.0, 1.0), (17.0, 1.1), (18.0, 1.2), (19.0, 1.3)], 0.5)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="positive"):
            fit_log_exponent([(16.0, 1.0), (32.0, bad), (64.0, 1.2), (128.0, 1.3)], 0.5)


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
    zero = SampledField(grid, np.zeros(grid.shape, dtype=complex), shells=Shells.radial(0.0, 0.0, grid.dimension))
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


def test_growth_experiment_refuses_an_unknown_criterion():
    grid = GridSpec(1, 1024, 64.0)
    with pytest.raises(ValueError, match="unknown growth criterion 'bogus'"):
        GrowthExperiment(kind="shifted-maximal", p=2.0, shifts=(16.0, 64.0), grid=grid, scale_range=(0, 1), criterion="bogus")
    # equality alone does not rely on separated positions, so a ladder past the period is accepted
    GrowthExperiment(kind="shifted-maximal", p=2.0, shifts=(16.0, 20000.0), grid=grid, scale_range=(0, 4), criterion="equality")


@pytest.mark.parametrize(
    "name, value", [("bound_factor", math.nan), ("tolerance", -1.0), ("tolerance", math.inf), ("tolerance", math.nan)]
)
def test_growth_experiment_refuses_a_threshold_that_is_not_finite_and_nonnegative(name, value):
    """A NaN bound or a negative tolerance used to construct, and the ladder then failed at ratio 1 or defect 0."""
    grid = GridSpec(1, 4096, 256.0)
    ladder = dict(kind="shifted-maximal", p=2.0, shifts=(16.0, 64.0), grid=grid, scale_range=(0, 1))
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative, got {value}"):
        GrowthExperiment(**ladder, **{name: value})
    GrowthExperiment(**ladder, tolerance=0.0, bound_factor=0.0)


@pytest.mark.parametrize("criterion", ["fit", "bounded", "equality"])
@pytest.mark.parametrize("shifts", [(1.0, math.nan, 4.0), (1.0, 2.0, math.inf)])
def test_growth_experiment_refuses_a_non_finite_shift_by_name(criterion, shifts):
    """A NaN rung passed the ordering check, and only the first split of it refused it, after the bank was made."""
    grid = GridSpec(1, 4096, 256.0)
    with pytest.raises(ValueError, match="shifts must be finite"):
        GrowthExperiment(kind="shifted-maximal", p=2.0, shifts=shifts, grid=grid, scale_range=(0, 1), criterion=criterion)


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


def test_run_growth_notes_a_vacuous_fit_verdict():
    # the square family's predicted |1/2 - 1/p| is 0.25 at p = 4, within the default
    # tolerance 0.3 of a flat fit, and 0.375 at p = 8; the verdicts stay as they are
    grid = GridSpec(1, 2**12, 2.0**8)
    reports = {
        p: run_growth(GrowthExperiment(
            kind="shifted-square", p=p, shifts=(1.0, 2.0, 4.0, 8.0), grid=grid, scale_range=(0, 3),
            bank=GrowthBankSpec(seed=3, n_random=1, random_band=(0.5, 1.0)),
        ))
        for p in (4.0, 8.0)
    }
    flat = reports[4.0]
    assert len(flat.notes) == 1 and "a flat fit (exponent 0) would also pass" in flat.notes[0]
    assert f"note: {flat.notes[0]}" in render_report(flat)
    assert abs(flat.summary["fitted_exponent"]) <= 1e-9 and flat.passed
    assert reports[8.0].notes == () and not reports[8.0].passed


def test_run_growth_inverts_each_input_once_per_untranslated_piece(fft_calls):
    # per bank input the maximal half takes one inverse of the input itself (its
    # plateau pieces), one of its partial piece at scale -1 (whole samples at every
    # rung) and one per plateau piece whose dilated shift is off the grid
    grid = GridSpec(1, 2**14, 2.0**10)
    exp = GrowthExperiment(
        kind="shifted-maximal",
        p=2.0,
        shifts=(0.5, 2.0, 8.0, 32.0),
        grid=grid,
        scale_range=(-1, 6),
        bank=GrowthBankSpec(seed=3, n_random=1, random_band=(0.5, 1.0)),
    )
    bank, pair = exp.make_bank(), exp.make_pair()
    direct = [operator_norm_proxy(exp.kind, exp.p, [y], bank, pair) for y in exp.shifts]
    off_grid = 0
    for f in bank:
        classes = {scale: piece_plan(f, pair.phi_hat, scale)[0] for scale in pair.scales}
        assert [scale for scale, cls in classes.items() if cls != PLATEAU] == [-1]
        assert classes[-1] == PARTIAL and all(dilated_steps(grid, [y], -1) is not None for y in exp.shifts)
        off_grid += sum(dilated_steps(grid, [y], scale) is None for y in exp.shifts for scale in pair.scales)
    assert off_grid == 2 * (3 + 1)  # scales 4, 5, 6 at y = 0.5 and 6 at y = 2
    fft_calls.clear()
    report = run_growth(exp)
    calls = [n for name, n in fft_calls if name == "ifftn"]
    assert len(calls) == 2 * len(bank) + off_grid
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
    f = SampledField(grid, np.exp(2j * np.pi * x * 2.0), shells=Shells.radial(2.0, 2.0, grid.dimension))
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


def test_phase_shift_of_a_dilate_runs_no_forward_fft(grid, fft_calls):
    d = dilate_field(random_band_limited(grid, (0.5, 3.0), 5), 1)
    fft_calls.clear()
    shifted = phase_shift(d, [0.3 * grid.spacing])
    sizes = [n for name, n in fft_calls if name == "fftn"]
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
    annulus = inverse(Spectrum(grid, transform(f).coefficients, shells=Shells.radial(0.5, 1.0, grid.dimension)))
    assert 2 * sum(v.size for _, v in f.kept.boxes) == sum(v.size for _, v in annulus.kept.boxes)
    # on the growth grid and pair the ball keeps the annulus's dispatch
    pair = make_lp_pair((-1, 14))
    assert Counter(piece_plan(f, pair.phi_hat, s)[0] for s in pair.scales) == {PLATEAU: 15, PARTIAL: 1}
    assert Counter(piece_plan(f, pair.psi_hat, s)[0] for s in pair.scales) == {ZERO: 13, PARTIAL: 3}


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


def test_change_of_variables_survives_extreme_amplitudes():
    # at 1e80 the unscaled products overflowed (lhs = rhs = inf, discrepancy nan), and at 1e-80 they
    # underflowed to an absolute discrepancy of 0; scaled by powers of two, every side is exact
    gs = [random_band_limited(GridSpec(1, 1024, 16.0), (0.2, 2.0), 5, i) for i in range(3)]
    ys = [[0.3], [1.1], [-0.7]]
    unit = change_of_variables_check(gs, ys, 1, (0, 1), p=3.0)
    assert unit.relative and 0.0 < unit.discrepancy < 1e-4
    for e in (300, -300):
        res = change_of_variables_check([g * 2.0**e for g in gs], ys, 1, (0, 1), p=3.0)
        assert (res.lhs, res.rhs) == (math.ldexp(unit.lhs, 3 * e), math.ldexp(unit.rhs, 3 * e))
        assert res.relative and res.discrepancy == unit.discrepancy
    for amplitude in (1e80, 1e-80):
        res = change_of_variables_check([g * amplitude for g in gs], ys, 1, (0, 1), p=3.0)
        assert res.relative and abs(res.discrepancy - unit.discrepancy) < 1e-12


def test_change_of_variables_zero_lhs_flag(grid):
    zero = SampledField(grid, np.zeros(grid.shape, dtype=complex), shells=Shells.radial(0.0, 0.0, grid.dimension))
    res = change_of_variables_check([zero, zero], [[0.5], [1.5]], 0, (0, 1))
    assert not res.relative
    assert res.discrepancy == 0.0


def test_bump_train_band_certificate(grid):
    f = bump_train(grid, 4.0, [1, 2, 3])
    assert f.band is not None
    assert f.band[0] > 0


def test_log_law_ladder_at_2_24_reads_no_full_size_frequency_array():
    # the p = 4 ladder: a train of K live octaves at shift y = 2**(K + 3), its
    # shifted over unshifted square-function L^4 norms, read from the pieces' boxes
    grid, pair = GridSpec(1, 2**24, 2.0**15), make_lp_pair((-1, 14))

    def ratio(k):
        y = 2.0 ** (k + 3)
        f = bump_train(grid, y, range(-1, k - 1), 0.1)
        return lp_norm(square_function(f, pair, (y,)), 4) / lp_norm(square_function(f, pair), 4)

    tracemalloc.start()
    try:
        f = bump_train(grid, 1024.0, range(-1, 6), 0.1)
        lp_norm(square_function(f, pair, (1024.0,)), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.size  # one full-size float64 array: 128 MiB
    got = [repr(ratio(k)) for k in (3, 5, 7, 9)]
    assert got == ["1.315954233842094", "1.4952611310472126", "1.6265064974399457", "1.7319918801795904"]


def test_change_of_variables_rejects_empty_scale_range(grid):
    gs = offset_bank(grid, 2, 31)
    with pytest.raises(ValueError, match="empty scale range"):
        change_of_variables_check(gs, [[0.5], [1.5]], 0, (3, 1))


def test_change_of_variables_rejects_an_aliasing_product_before_any_transform(fft_calls):
    # each dilate fits under Nyquist 32 at scale 2 (3 * 4 = 12), their product's sum 36 does not
    grid = GridSpec(1, 1024, 16.0)
    gs = [random_band_limited(grid, (0.2, 3.0), 3, slot) for slot in range(3)]
    ys = [[0.731], [-2.417], [1.113]]
    fft_calls.clear()
    with pytest.raises(NyquistError, match="36.0"):
        change_of_variables_check(gs, ys, 1, (0, 2))
    transforms = list(fft_calls)
    assert transforms == []
    # two of them stay under it
    assert change_of_variables_check(gs[:2], ys[:2], 1, (0, 2)).discrepancy < 1e-10


def test_change_of_variables_keeps_the_dilate_checks(grid):
    gs = offset_bank(grid, 2, 31)
    with pytest.raises(ValueError, match="nonnegative"):
        change_of_variables_check(gs, [[0.5], [1.5]], 0, (-1, 1))
    # an uncertified input has no dilate; at scale 0 alone it still leaves the product unchecked
    bare = SampledField(grid, gs[1].values)
    with pytest.raises(NyquistError, match=f"radius {2 * grid.nyquist}"):
        change_of_variables_check([gs[0], bare], [[0.5], [1.5]], 0, (0, 1))
    with pytest.raises(ValueError, match="input 1 carries no support certificate"):
        change_of_variables_check([gs[0], bare], [[0.5], [1.5]], 0, (0, 0))


def test_change_of_variables_refuses_uncertified_inputs_before_any_transform(fft_calls):
    # uncertified, these three alias in the product: the unchecked run read a discrepancy of 3.2e-4
    grid = GridSpec(1, 1024, 16.0)
    gs = [SampledField(grid, random_band_limited(grid, (0.2, 20.0), 1, i).values) for i in range(3)]
    fft_calls.clear()
    with pytest.raises(ValueError, match="input 0 carries no support certificate"):
        change_of_variables_check(gs, [[0.3], [1.1], [-0.7]], 0, (0, 0))
    assert fft_calls == []
    # certified, the same inputs are refused for the product's reach
    with pytest.raises(NyquistError):
        change_of_variables_check([random_band_limited(grid, (0.2, 20.0), 1, i) for i in range(3)], [[0.3], [1.1], [-0.7]], 0, (0, 0))


@pytest.mark.parametrize("grid", [GridSpec(1, 64, 8.0), GridSpec(2, 16, 4.0)])
def test_a_constant_dilates_past_the_torus_to_its_closed_form(grid):
    # a zero-radius certificate stays below Nyquist at every scale, so 2**l reaches 4 M
    c = 2.0
    const = SampledField(grid, np.full(grid.shape, c), shells=Shells.radial(0.0, 0.0, grid.dimension))
    top = int(math.log2(grid.samples_per_axis)) + 2
    for scale in range(top + 1):
        want = 2.0 ** (scale * grid.dimension) * c
        assert np.max(np.abs(dilate_field(const, scale).values - want)) <= 1e-12 * want, scale
    volume = grid.period**grid.dimension
    for m in (1, 2, 3):
        ys = [[0.3 * (k + 1)] * grid.dimension for k in range(m)]
        for p in (2.0, 3.0):
            want = sum(2.0 ** (scale * grid.dimension * m * p) * c ** (m * p) * volume for scale in range(top + 1)) ** (1 / p)
            res = change_of_variables_check([const] * m, ys, m - 1, (0, top), p=p)
            assert res.lhs == pytest.approx(want, rel=1e-12) and res.rhs == pytest.approx(want, rel=1e-12)


def reference_norm(gs, shifts, scales, p):
    """L_p(l_p) norm of the product of shifted dilates, each built by :func:`dilate_field`."""
    grid = gs[0].grid
    total = 0.0
    for scale in scales:
        prod = np.ones(grid.shape, dtype=np.complex128)
        for g, y in zip(gs, shifts):
            prod = prod * phase_shift(dilate_field(g, scale), 2.0**-scale * np.asarray(y)).values
        total += float(np.sum(np.abs(prod) ** p)) * grid.cell_volume
    return total ** (1.0 / p)


@st.composite
def changevars_cases(draw):
    grid = draw(st.sampled_from([GridSpec(1, 1024, 8.0), GridSpec(2, 256, 4.0)]))
    m = draw(st.integers(1, 4))
    lo = draw(st.integers(0, 3))
    hi = draw(st.integers(lo, 3))
    # the product's certificate m * band * 2**hi stays below Nyquist
    band = draw(st.floats(0.3, 0.95)) * grid.nyquist / (m * 2**hi)
    gs = [random_band_limited(grid, (0.0, band), draw(st.integers(0, 2**16)), slot) for slot in range(m)]
    shift = st.one_of(
        st.just(0.0),
        st.integers(-grid.samples_per_axis, grid.samples_per_axis).map(lambda n: n * grid.spacing),
        st.floats(-grid.period, grid.period),
    )
    ys = [[draw(shift) for _ in range(grid.dimension)] for _ in range(m)]
    return gs, ys, draw(st.integers(0, m - 1)), (lo, hi), draw(st.sampled_from([2.0, 3.0]))


@settings(max_examples=40, deadline=None)
@given(changevars_cases())
def test_change_of_variables_matches_the_dilate_reference(case):
    gs, ys, k0, scale_range, p = case
    res = change_of_variables_check(gs, ys, k0, scale_range, p=p)
    scales = range(scale_range[0], scale_range[1] + 1)
    ys = np.asarray(ys)
    assert res.lhs == pytest.approx(reference_norm(gs, ys, scales, p), rel=1e-12)
    assert res.rhs == pytest.approx(reference_norm(gs, ys - ys[k0], scales, p), rel=1e-12)


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
