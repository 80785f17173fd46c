import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from logmult import counterexample, multiplier
from logmult.counterexample import (
    CxConfig,
    build_inputs,
    build_kernel,
    identity_config,
    orthogonality_check,
    reference_config,
    ratio_growth_fit,
    run_counterexample,
    separation_config,
    validate_config,
)
from logmult.field import GridSpec, Spectrum, lp_norm, transform
from logmult.multiplier import SpectralFactor, apply_t, d_lambda


def small_identity(n=3, packets=2):
    return identity_config(n=n, n_packets=packets, samples=2**15, period=2.0**7)


def test_reference_parameters_validate_symbolically():
    validation = validate_config(reference_config())
    assert validation.frequency_ok
    names = [c.name for c in validation.constraints]
    assert "lowpass-plateau-covers-annulus" in names


def test_desk_identity_flags_overlap_but_keeps_frequency_constraints():
    cfg = small_identity(packets=4)
    validation = validate_config(cfg)
    assert validation.frequency_ok
    assert not validation.separation_ok  # physical bumps overlap; identity unaffected


def test_repeated_schedule_is_a_violation():
    cfg = replace(small_identity(), zetas=(3, 3))
    validation = validate_config(cfg)
    bad = validation.first_violation()
    assert bad is not None
    assert bad.name in ("schedule-strictly-increasing", "shifted-supports-disjoint")


def test_unit_spacing_without_offset_fails_for_n3():
    cfg = identity_config(n=3, n_packets=2, samples=2**15, period=2.0**7, offset=0)
    validation = validate_config(cfg)
    assert not validation.frequency_ok


def test_build_inputs_single_packet_structure():
    cfg = small_identity(packets=1)
    fields = build_inputs(cfg)
    f_s = fields[0]
    s = transform(f_s)
    z = cfg.zetas[0]
    r = cfg.grid.frequency_radii()
    inside = np.abs(r - 2.0**z) <= cfg.eta_radius
    assert np.max(np.abs(s.coefficients[~inside])) == 0.0
    assert abs(s.coefficients[0]) == 0.0  # vanishes at the origin exactly


def test_build_inputs_conjugate_mirror():
    cfg = small_identity(packets=2)
    fields = build_inputs(cfg)
    f_s, f_t = fields[0], fields[1]
    assert np.max(np.abs(f_t.values - np.conj(f_s.values))) < 1e-12 * np.max(np.abs(f_s.values))


def test_separation_run_takes_no_full_size_fft(fft_calls):
    # the packet trains and the apply_t output are deferred fields whose samples
    # nothing reads, since their transforms, the closed form, the identity error
    # and the L^4/L^2 norms all stay in the spectrum; the bracket's sampled factor
    # is a batch of short transforms (field.box_modulus)
    cfg = separation_config(n_packets=3, samples=2**13, period=40.0, spacing=2, eta_radius=1 / 8)
    report = run_counterexample(cfg)
    lengths = [math.prod(n) for _, n in fft_calls]
    assert lengths and lengths.count(cfg.grid.size) == 0
    # the ratio recorded when the run took 7 full-size FFTs
    assert abs(report.ratio - 0.1735847898266246) <= 1e-12 * 0.1735847898266246
    assert report.identity_error < 1e-12


def test_t_train_norm_is_the_s_train_norm(monkeypatch):
    # |f_t| = |conj f_s| = |f_s|: the t slot takes the s-train's L^4 norm and runs no FFT of its own
    cfg = separation_config(n_packets=3, samples=2**13, period=40.0, spacing=2, eta_radius=1 / 8)
    ffts = []
    for name in ("fftn", "ifftn"):
        fft = getattr(np.fft, name)

        def counting(a, *args, _fft=fft, **kwargs):
            ffts.append(1)
            return _fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    calls = []
    original = counterexample.lp_norm

    def recording(f, p):
        before = len(ffts)
        norm = original(f, p)
        calls.append((f, p, len(ffts) - before))
        return norm

    monkeypatch.setattr(counterexample, "lp_norm", recording)
    report = run_counterexample(cfg)
    monkeypatch.undo()
    # the s-train's L^4 norm runs FFTs; the t-train's is never taken
    trains = build_inputs(cfg)
    runs = {slot: [n for f, p, n in calls if f.shells == trains[slot - 1].shells] for slot in (1, 2)}
    assert len(runs[1]) == 1 and runs[1][0] > 0
    assert runs[2] == []
    assert report.input_norms[0] == report.input_norms[1]


def test_separation_run_scatters_no_full_spectrum(monkeypatch):
    # every spectrum of the run stays in its boxes: nothing reads the full-size coefficients
    reads = []
    scatter = Spectrum.coefficients

    def counting(s):
        reads.append(s.grid)
        return scatter.fget(s)

    monkeypatch.setattr(Spectrum, "coefficients", property(counting))
    run_counterexample(separation_config(3, 2**13, 40, spacing=2, eta_radius=1 / 8))
    assert reads == []
    transform(build_inputs(separation_config(1, 2**13, 40, spacing=2, eta_radius=1 / 8))[0]).coefficients
    assert len(reads) == 1  # the count sees a read


def test_separation_run_builds_no_beta_symbol(monkeypatch):
    # the closed form N eta**2 beta**(n-2) takes no beta symbol when n = 2
    cfg = separation_config(n_packets=2, samples=2**13, period=40.0, spacing=2, eta_radius=1 / 8)
    _, beta_hat = cfg.profiles
    profiles = []
    original = counterexample.symbol_box

    def counting(grid, profile, *args):
        profiles.append(profile)
        return original(grid, profile, *args)

    monkeypatch.setattr(counterexample, "symbol_box", counting)
    run_counterexample(cfg)
    assert profiles and beta_hat not in profiles


# bracket bounds of separation_config(N) at 2**22 points, recorded when the
# bracket's factor was sampled by a full-size inverse FFT
FULL_SIZE_BOUNDS = {
    (1, "sharp"): (7.794309399038736, 7.874398526359669),
    (2, "sharp"): (10.500646437982489, 10.504960870661794),
    (3, "sharp"): (12.728710529994636, 12.728934580314906),
    (1, "lowered"): (5.803551547435648, 5.8336383076117215),
    (2, "lowered"): (6.738480890802842, 6.7398651458480625),
    (3, "lowered"): (7.419020560282887, 7.4190858546748615),
}


@pytest.mark.parametrize("n_packets", [1, 2, 3])
def test_separation_bracket_bounds_at_full_size(n_packets):
    cfg = separation_config(n_packets=n_packets)
    kernel = build_kernel(cfg)
    for kind, lam in (("sharp", cfg.lam_value), ("lowered", cfg.lam_value - 0.25)):
        res = d_lambda(kernel, lam, cfg.grid)
        assert res.method == "bracket"
        for got, want in zip((res.lower, res.upper), FULL_SIZE_BOUNDS[n_packets, kind]):
            assert abs(got - want) <= 1e-12 * want


def test_separation_sharp_slope_at_full_size():
    # criterion 15's sharp fit, recorded as for FULL_SIZE_BOUNDS
    fit = ratio_growth_fit([separation_config(n_packets=n) for n in (1, 2, 3)])
    assert abs(fit.slope - 0.06024448114885299) <= 1e-12 * 0.06024448114885299
    # the trains' phases are exact, so the collapse identity holds to roundoff at every N
    assert max(row["identity_error"] for row in fit.rows) <= 1e-15


def test_criterion_15_fits_sample_each_factor_once(monkeypatch):
    """The sharp and lowered fits at 2**22 sample their three kernel factors once, in the first fit.

    The masses of ``|g|`` do not depend on lambda; rows read from the memo
    equal those of fits that clear it before every ``d_lambda``.
    """
    lowered = separation_config().lam_value - 0.25
    configs = [[separation_config(n_packets=n, lam=lam) for n in (1, 2, 3)] for lam in (None, lowered)]
    samplings = []
    sample = multiplier.box_modulus

    def counting(*args):
        samplings.append(args)
        return sample(*args)

    monkeypatch.setattr(multiplier, "box_modulus", counting)
    multiplier._shell_data.cache_clear()
    counts, memo_fits = [], []
    for cfgs in configs:
        samplings.clear()
        memo_fits.append(ratio_growth_fit(cfgs))
        counts.append(len(samplings))
    assert counts == [3, 0]

    def cold(*args):
        multiplier._shell_data.cache_clear()
        return d_lambda(*args)

    monkeypatch.setattr(counterexample, "d_lambda", cold)
    samplings.clear()
    cold_fits = [ratio_growth_fit(cfgs) for cfgs in configs]
    multiplier._shell_data.cache_clear()
    assert len(samplings) == 6
    for memo, fresh in zip(memo_fits, cold_fits):
        assert memo.rows == fresh.rows and memo.slope == fresh.slope


def test_input_norms_match_for_every_p():
    cfg = small_identity(packets=3)
    fields = build_inputs(cfg)
    f_s, f_t = fields[0], fields[1]
    for p in (1, 2, 4, np.inf):
        a, b = lp_norm(f_s, p), lp_norm(f_t, p)
        assert abs(a - b) < 1e-10 * a


def test_kernel_factor_translation_leaves_modulus():
    cfg = small_identity(packets=2)
    kernel = build_kernel(cfg)
    _, factors = kernel.terms[0]
    slot_s = factors[0]
    spec = slot_s.spectrum_on(cfg.grid)
    _, beta_hat = cfg.profiles
    expected = beta_hat(cfg.grid.frequency_radii())
    assert np.max(np.abs(np.abs(spec) - expected)) < 1e-12


def test_kernel_bilinear_case_has_no_lowpass_factors():
    cfg = separation_config(n_packets=1, samples=2**15, period=320.0)
    kernel = build_kernel(cfg)
    assert kernel.n == 2
    lo, hi = kernel.annulus_certificate()
    assert 0.5 <= lo <= hi <= 2.0


def test_orthogonality_exact_zeros():
    cfg = small_identity(packets=3)
    assert orthogonality_check(cfg) < 1e-14


def test_identity_error_roundoff_small_grid():
    for packets in (2, 4):
        cfg = small_identity(packets=packets)
        rep = run_counterexample(cfg)
        assert rep.identity_error < 1e-8
        assert orthogonality_check(cfg) < 1e-14
        assert rep.ratio > 0


def test_identity_bilinear():
    cfg = CxConfig(
        n=2,
        zetas=(1, 2, 3),
        eta_radius=1.0 / 16.0,
        beta_plateau=(20.0 / 21.0, 21.0 / 20.0),
        beta_support=(10.0 / 11.0, 11.0 / 10.0),
        reciprocals=(F(1, 4), F(1, 4)),
        grid=GridSpec(1, 2**15, 2.0**7),
    )
    assert validate_config(cfg).frequency_ok
    rep = run_counterexample(cfg)
    assert rep.identity_error < 1e-8


def test_identity_error_stable_across_resolutions():
    errs = []
    for samples in (2**15, 2**16):
        cfg = identity_config(n=3, n_packets=2, samples=samples, period=2.0**7)
        errs.append(run_counterexample(cfg).identity_error)
    assert all(e < 1e-8 for e in errs)
    floor = 1e-15  # both errors sit at roundoff; compare above that floor
    assert max(errs) <= 10 * max(min(errs), floor)


def test_ratio_invariant_under_rescaling():
    cfg = small_identity(packets=2)
    rep = run_counterexample(cfg)
    fields = build_inputs(cfg)
    kernel = build_kernel(cfg)
    scaled = [c * f for c, f in zip((2.0, 0.5, 3.0), fields)]
    out = apply_t(kernel, scaled, cfg.scale_range)
    pt = cfg.ptuple
    norms = []
    for f, r in zip(scaled, pt.reciprocals):
        norms.append(lp_norm(f, float(1 / r)))
    p_out = float(1 / sum(pt.reciprocals))
    ratio = lp_norm(out, p_out) / (rep.d_lambda_value * math.prod(norms))
    assert abs(ratio - rep.ratio) < 1e-10 * rep.ratio


def test_ratio_growth_fit_synthetic_consistency():
    cfgs = [
        separation_config(
            n_packets=N, samples=2**13, period=40.0, spacing=2, eta_radius=1.0 / 8.0
        )
        for N in (1, 2, 3)
    ]
    fit = ratio_growth_fit(cfgs)
    assert fit.predicted == 0.0
    assert np.isfinite(fit.slope)
    assert len(fit.rows) == 3


def test_ratio_growth_fit_requires_three_runs():
    with pytest.raises(ValueError):
        ratio_growth_fit([separation_config(n_packets=1), separation_config(n_packets=2)])


def test_ratio_growth_fit_reads_given_reports_after_its_checks():
    cfgs = [separation_config(n_packets=N, samples=2**13, period=40.0, spacing=2, eta_radius=1 / 8) for N in (1, 2, 3)]
    read = []

    def reports(cfgs):
        for cfg in cfgs:
            read.append(cfg.n_packets)
            yield run_counterexample(cfg)

    with pytest.raises(ValueError, match="strictly increase"):
        ratio_growth_fit(cfgs[::-1], reports(cfgs[::-1]))
    assert read == []
    assert ratio_growth_fit(cfgs, reports(cfgs)) == ratio_growth_fit(cfgs)
    assert read == [1, 2, 3]


def small_separation(N, lam=None):
    return separation_config(n_packets=N, samples=2**13, period=40.0, spacing=2, lam=lam, eta_radius=1 / 8)


@pytest.fixture(scope="module")
def small_runs():
    cfgs = [small_separation(N) for N in (1, 2, 3)]
    return cfgs, [run_counterexample(cfg) for cfg in cfgs]


def test_ratio_growth_fit_rows_are_the_runs_own_rows(small_runs):
    cfgs, reports = small_runs
    assert ratio_growth_fit(cfgs, reports).rows == tuple(row for rep in reports for row in rep.rows())


def test_ratio_growth_fit_refuses_mixed_lambda_before_any_run(monkeypatch):
    runs = []
    monkeypatch.setattr(counterexample, "run_counterexample", lambda cfg: runs.append(cfg))
    cfgs = [small_separation(1), small_separation(2, lam=0.25), small_separation(3)]
    assert [cfg.lam_value for cfg in cfgs] == [0.5, 0.25, 0.5]
    with pytest.raises(ValueError, match="the same slot count, exponents and λ across runs"):
        ratio_growth_fit(cfgs)
    assert runs == []


def test_ratio_growth_fit_refuses_a_zero_ratio_before_any_run(monkeypatch, small_runs):
    cfgs, reports = small_runs
    reports = [reports[0], replace(reports[1], ratio=0.0), reports[2]]
    runs = []
    monkeypatch.setattr(counterexample, "run_counterexample", lambda cfg: runs.append(cfg))
    with pytest.raises(ValueError, match="ratios must be positive"):
        ratio_growth_fit(cfgs, reports)
    assert runs == []


def test_ratio_growth_fit_refuses_reports_that_are_not_one_per_config_in_order(small_runs):
    cfgs, reports = small_runs
    for given in (reports[:2], reports[::-1], reports + reports[:1]):
        with pytest.raises(ValueError, match="do not match the configs' \\[1, 2, 3\\]"):
            ratio_growth_fit(cfgs, given)


def test_a_separation_fit_derives_each_config_once(cx_derivations):
    cfgs = [separation_config(n_packets=N, samples=2**13, period=40.0, spacing=2, eta_radius=1 / 8) for N in (1, 2, 3)]
    ratio_growth_fit(cfgs)
    assert cx_derivations == {"validate_config": 3, "make_counterexample_profiles": 3, "sharp_lambda": 3}


def test_an_exponent_tuple_the_construction_cannot_run_is_refused_when_made(fft_calls):
    # five slots of reciprocal 1/4 sum to 5/4 > 1
    with pytest.raises(ValueError, match="5/4"):
        identity_config(n=5)
    assert fft_calls == []


def test_predicted_slope_shifts_with_lambda():
    cfgs = [
        separation_config(
            n_packets=N, samples=2**13, period=40.0, spacing=2, lam=0.25, eta_radius=1.0 / 8.0
        )
        for N in (1, 2, 3)
    ]
    fit = ratio_growth_fit(cfgs)
    assert fit.predicted == pytest.approx(0.25)


def test_single_packet_baseline_quantities():
    rep = run_counterexample(small_identity(packets=1))
    assert rep.identity_error < 1e-8
    assert rep.output_norm > 0
    assert all(v > 0 and math.isfinite(v) for v in rep.input_norms)
    assert rep.d_lambda_value > 0 and rep.ratio > 0


def test_vanishing_closed_form_is_value_error():
    cfg = identity_config(n=3, n_packets=2, samples=1024, period=0.5)
    with pytest.raises(ValueError, match="closed form vanishes"):
        run_counterexample(cfg)


@pytest.mark.parametrize("n, calls", [(2, 0), (3, 1)])
def test_build_inputs_synthesizes_beta_only_for_extra_slots(monkeypatch, n, calls):
    seen = []
    original = SpectralFactor.field_on

    def counting(factor, grid):
        seen.append(factor.profile)
        return original(factor, grid)

    monkeypatch.setattr(SpectralFactor, "field_on", counting)
    fields = build_inputs(small_identity(n=n, packets=2))
    assert len(fields) == n
    assert len(seen) == calls


def whole_grid_orthogonality(cfg):
    """The frequency sweep over every grid bin, for every scale and packet."""
    grid = cfg.grid
    eta_hat, beta_hat = cfg.profiles
    mesh = grid.frequency_mesh()
    rest_sq = sum(np.asarray(a, dtype=float) ** 2 for a in mesh[1:]) if grid.dimension > 1 else 0.0
    worst = 0.0
    for ell in cfg.scale_range:
        dilated = beta_hat(grid.frequency_radii() * 2.0**-ell)
        for z in cfg.zetas:
            ball = eta_hat(np.sqrt((np.asarray(mesh[0], dtype=float) - 2.0**z) ** 2 + rest_sq))
            expected = ball if ell == z else 0.0
            worst = max(worst, float(np.max(np.abs(dilated * ball - expected))))
    return worst


@pytest.mark.parametrize(
    "cfg",
    [
        small_identity(packets=3),
        separation_config(n_packets=3, samples=2**13, period=40.0, spacing=2, eta_radius=1 / 8),
        replace(identity_config(n=3, n_packets=2), grid=GridSpec(2, 256, 4.0)),
    ],
    ids=["identity", "separation", "identity-2d"],
)
@pytest.mark.parametrize("skew", [0.0, 1e-3])
def test_orthogonality_on_packet_blocks_equals_whole_grid_sweep(cfg, skew, monkeypatch):
    # a skewed annular profile is no longer exactly 1 on its plateau, so the
    # two sweeps have a nonzero maximum to agree on
    eta_hat, beta_hat = cfg.profiles

    def skewed(r):
        return beta_hat(r) * (1.0 - skew * np.asarray(r))

    monkeypatch.setattr(CxConfig, "profiles", property(lambda self: (eta_hat, skewed)))
    want = whole_grid_orthogonality(cfg)
    assert (want > 0) == (skew > 0)
    assert orthogonality_check(cfg) == want
