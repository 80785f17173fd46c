import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from logmult import counterexample
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
from logmult.field import GridSpec, lp_norm, transform
from logmult.multiplier import apply_t


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
    cfg = replace(small_identity(), zetas=(3, 3), n_packets=2)
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
    f_s = fields[cfg.s - 1]
    s = transform(f_s)
    z = cfg.zetas[0]
    r = cfg.grid.frequency_radii()
    inside = np.abs(r - 2.0**z) <= cfg.eta_radius
    assert np.max(np.abs(s.coefficients[~inside])) == 0.0
    assert abs(s.coefficients[0]) == 0.0  # vanishes at the origin exactly


def test_build_inputs_conjugate_mirror():
    cfg = small_identity(packets=2)
    fields = build_inputs(cfg)
    f_s, f_t = fields[cfg.s - 1], fields[cfg.t - 1]
    assert np.max(np.abs(f_t.values - np.conj(f_s.values))) < 1e-12 * np.max(np.abs(f_s.values))


def test_separation_run_takes_one_full_size_fft(monkeypatch):
    # the bracket's sampled factor: the packet trains and the apply_t output are
    # deferred fields whose samples nothing reads, since their transforms, the
    # closed form, the identity error and the L^4/L^2 norms all stay in the spectrum
    cfg = separation_config(n_packets=3, samples=2**13, period=40.0, spacing=2, eta_radius=1 / 8)
    sizes = []
    for name in ("fftn", "ifftn"):
        fft = getattr(np.fft, name)

        def counting(a, *args, _fft=fft, **kwargs):
            sizes.append(np.size(a))
            return _fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    report = run_counterexample(cfg)
    monkeypatch.undo()
    assert sizes.count(cfg.grid.size) == 1
    # the ratio recorded when the run took 7 full-size FFTs
    assert abs(report.ratio - 0.1735847898266246) <= 1e-12 * 0.1735847898266246
    assert report.identity_error < 1e-12


def test_input_norms_match_for_every_p():
    cfg = small_identity(packets=3)
    fields = build_inputs(cfg)
    f_s, f_t = fields[cfg.s - 1], fields[cfg.t - 1]
    for p in (1, 2, 4, np.inf):
        a, b = lp_norm(f_s, p), lp_norm(f_t, p)
        assert abs(a - b) < 1e-10 * a


def test_kernel_factor_translation_leaves_modulus():
    cfg = small_identity(packets=2)
    kernel = build_kernel(cfg)
    _, factors = kernel.terms[0]
    slot_s = factors[cfg.s - 1]
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
        rep = run_counterexample(small_identity(packets=packets))
        assert rep.identity_error < 1e-8
        assert rep.orthogonality < 1e-14
        assert rep.ratio > 0


def test_identity_bilinear():
    cfg = CxConfig(
        n=2,
        n_packets=3,
        s=1,
        t=2,
        zetas=(1, 2, 3),
        eta_radius=1.0 / 16.0,
        beta_plateau=(20.0 / 21.0, 21.0 / 20.0),
        beta_support=(10.0 / 11.0, 11.0 / 10.0),
        reciprocals=(F(1, 4), F(1, 4)),
        grid=GridSpec(1, 2**15, 2.0**7),
        mode="custom",
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
    assert fit.predicted_slope == 0.0
    assert np.isfinite(fit.slope)
    assert len(fit.rows) == 3


def test_ratio_growth_fit_requires_three_runs():
    with pytest.raises(ValueError):
        ratio_growth_fit([separation_config(n_packets=1), separation_config(n_packets=2)])


def test_predicted_slope_shifts_with_lambda():
    cfgs = [
        separation_config(
            n_packets=N, samples=2**13, period=40.0, spacing=2, lam=0.25, eta_radius=1.0 / 8.0
        )
        for N in (1, 2, 3)
    ]
    fit = ratio_growth_fit(cfgs)
    assert fit.predicted_slope == pytest.approx(0.25)


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
    original = counterexample.profile_to_field

    def counting(profile, grid):
        seen.append(profile)
        return original(profile, grid)

    monkeypatch.setattr(counterexample, "profile_to_field", counting)
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
