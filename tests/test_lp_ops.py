import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import logmult.lp_ops as lp_ops
from logmult.calibration import make_lp_pair
from logmult.field import GridMismatchError, GridSpec, NyquistError, SampledField, Shells, lp_norm, phase_shift
from logmult.lp_ops import (
    DyadicCubeSet,
    _peetre_weights,
    ShiftedDyadicOp,
    bmo_norm,
    dyadic_piece,
    fefferman_stein_ratio,
    maximal_function,
    maximal_functions,
    peetre_cube_ratio,
    peetre_max,
    representable_cube_scales,
    square_function,
)
from logmult.shifted_lab import modulated_bump, random_band_limited


@pytest.fixture
def grid():
    return GridSpec(1, 512, 16.0)


@pytest.fixture
def pair():
    return make_lp_pair((-2, 3))


def banded(grid, lo, hi, seed):
    return random_band_limited(grid, (lo, hi), seed)


def test_dyadic_piece_plateau_passthrough(grid, pair):
    # a pure tone at |xi| = 2**l sits where the annular profile equals one
    x = grid.axis_coordinates()
    tone = np.exp(2j * np.pi * 2.0 * x)
    f = SampledField(grid, tone, shells=Shells.radial(2.0, 2.0, grid.dimension))
    piece = dyadic_piece(f, ShiftedDyadicOp(pair.psi_hat, 1, (0.0,)))
    assert np.max(np.abs(piece.values - f.values)) < 1e-12


def test_dyadic_piece_disjoint_support_is_zero(grid, pair):
    f = banded(grid, 4.0, 8.0, 1)
    piece = dyadic_piece(f, ShiftedDyadicOp(pair.psi_hat, 0, (0.0,)))
    assert np.max(np.abs(piece.values)) == 0.0


def test_dyadic_piece_shift_identity(grid, pair):
    rng = np.random.default_rng(2)
    worst = 0.0
    for case in range(10):
        f = banded(grid, 0.5, 4.0, 100 + case)
        scale = int(rng.integers(-1, 3))
        y = float(rng.uniform(-8.0, 8.0))
        shifted = dyadic_piece(f, ShiftedDyadicOp(pair.phi_hat, scale, (y,)))
        unshifted = dyadic_piece(f, ShiftedDyadicOp(pair.phi_hat, scale, (0.0,)))
        moved = phase_shift(unshifted, [y * 2.0**-scale])
        worst = max(worst, float(np.max(np.abs(shifted.values - moved.values))))
    assert worst < 1e-11


def test_dyadic_piece_nyquist_guard(grid, pair):
    f = SampledField(grid, np.ones(grid.shape, dtype=complex))  # no certificate
    with pytest.raises(NyquistError):
        dyadic_piece(f, ShiftedDyadicOp(pair.phi_hat, 6, (0.0,)))


def test_square_function_zero_input(grid, pair):
    z = SampledField(grid, np.zeros(grid.shape, dtype=complex), shells=Shells.radial(0.0, 0.0, grid.dimension))
    assert np.max(np.abs(square_function(z, pair).values)) == 0.0


def test_square_function_single_packet_direct_sum(grid, pair):
    f = banded(grid, 1.8, 2.2, 3)
    y = (0.37,)
    sq = square_function(f, pair, y)
    acc = np.zeros(grid.shape)
    for scale in pair.scales:
        piece = dyadic_piece(f, ShiftedDyadicOp(pair.psi_hat, scale, y))
        acc += np.abs(piece.values) ** 2
    assert np.max(np.abs(sq.values - np.sqrt(acc))) < 1e-12


def test_square_function_l2_two_sided(grid, pair):
    lo, hi = pair.covered_band
    for seed in range(5):
        f = banded(grid, 2 * lo, hi / 2, 40 + seed)
        ratio = lp_norm(square_function(f, pair), 2) / lp_norm(f, 2)
        assert 1 / np.sqrt(2) * (1 - 1e-6) <= ratio <= 1 + 1e-6


def test_square_function_translation_covariance(grid, pair):
    # aligned translation: permutation of samples commutes with the operator
    f = banded(grid, 1.0, 4.0, 5)
    a = [22 * grid.spacing]
    y = (1.3,)
    lhs = square_function(phase_shift(f, a), pair, y)
    rhs = phase_shift(square_function(f, pair, y), a)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_square_and_maximal_homogeneous(grid, pair):
    f = banded(grid, 1.0, 4.0, 6)
    for op in (square_function, maximal_function):
        base = op(f, pair)
        scaled = op(2.0 * f, pair)
        assert np.max(np.abs(scaled.values - 2.0 * base.values)) == 0.0


def test_maximal_function_dominates_plateau_field(grid, pair):
    # spectrum inside the top-scale plateau: that piece reproduces the field
    f = banded(grid, 0.5, 2.0 ** pair.scale_max, 7)
    mx = maximal_function(f, pair)
    assert np.min(mx.values.real - np.abs(f.values)) > -1e-10


def planned_scales(monkeypatch):
    """The scale of every ``piece_plan`` call made through ``lp_ops``; the plans still run."""
    calls = []
    original = lp_ops.piece_plan

    def counting(f, profile, scale):
        calls.append(scale)
        return original(f, profile, scale)

    monkeypatch.setattr(lp_ops, "piece_plan", counting)
    return calls


@pytest.mark.parametrize("n_shifts", [1, 2, 7])
def test_maximal_functions_plan_each_scale_once_per_input(grid, monkeypatch, n_shifts):
    pair = make_lp_pair((-1, 14))
    shifts = [None, (0.25,), (1.0,), (3.7,), (16.0,), (100.3,), (0.0,)][:n_shifts]
    calls = planned_scales(monkeypatch)
    for seed in (1, 2):
        calls.clear()
        assert len(list(maximal_functions(banded(grid, 0.5, 1.0, seed), pair, shifts))) == n_shifts
        assert calls == list(pair.scales)


def test_a_sampled_square_function_read_plans_nothing(grid, monkeypatch):
    pair = make_lp_pair((-1, 14))
    s = square_function(banded(grid, 0.5, 3.0, 4), pair, (1.3,))
    calls = planned_scales(monkeypatch)
    assert np.all(np.isfinite(s.values)) and calls == []


def test_maximal_linf_shift_invariance(grid, pair):
    f = banded(grid, 0.5, 4.0, 8)
    # 2**-l y stays grid-aligned across the range for dyadic y
    y = (2.0**3 * grid.spacing * 2.0 ** pair.scale_max,)
    a = lp_norm(maximal_function(f, pair, y), np.inf)
    b = lp_norm(maximal_function(f, pair), np.inf)
    assert abs(a - b) <= 1e-10 * b


def test_maximal_zero(grid, pair):
    z = SampledField(grid, np.zeros(grid.shape, dtype=complex), shells=Shells.radial(0.0, 0.0, grid.dimension))
    assert np.max(maximal_function(z, pair).values.real) == 0.0


def test_bmo_constant_is_zero(grid, pair):
    c = SampledField(grid, np.full(grid.shape, 2.0 + 0j), shells=Shells.radial(0.0, 0.0, grid.dimension))
    assert bmo_norm(c, pair) == 0.0


def test_bmo_modulo_constants(grid, pair):
    f = banded(grid, 1.0, 4.0, 9)
    g = f + SampledField(grid, np.full(grid.shape, 5.0 + 0j), shells=Shells.radial(0.0, 0.0, grid.dimension))
    a, b = bmo_norm(f, pair), bmo_norm(g, pair)
    assert abs(a - b) < 1e-10 * max(a, 1e-30)


@pytest.mark.parametrize("e", [600, -600])
def test_bmo_survives_extreme_amplitudes(grid, pair, e):
    # unscaled squares of the pieces would overflow to inf or underflow to 0
    f = random_band_limited(grid, (1.0, 4.0), 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bmo_norm(2.0**e * f, pair)
    want = 2.0**e * bmo_norm(f, pair)
    assert abs(got - want) <= 1e-12 * want


def test_bmo_single_octave_vs_single_scale_sweep(grid, pair):
    f = banded(grid, 1.8, 2.2, 10)
    val = bmo_norm(f, pair)
    # direct oracle at the packet's own scales: cube sweep of the pieces
    best = 0.0
    pieces = {
        s: np.abs(dyadic_piece(f, ShiftedDyadicOp(pair.psi_hat, s, (0.0,))).values) ** 2
        for s in pair.scales
    }
    single = max(
        float(np.max(DyadicCubeSet(grid, k).reduce(pieces[s], "mean")))
        for k in representable_cube_scales(grid)
        if k <= pair.scale_max
        for s in pair.scales
        if s >= k
    )
    single = np.sqrt(single)
    assert val >= single * (1 - 1e-12)
    assert val <= np.sqrt(2) * single / (1 / np.sqrt(2))  # within the two-scale overlap factor


def test_cube_scales_and_cube_set(grid):
    scales = representable_cube_scales(grid)
    assert -4 in scales and 5 in scales
    cubes = DyadicCubeSet(grid, 1)
    assert cubes.cubes_per_axis == 32
    assert cubes.points_per_cube_axis == 16
    with pytest.raises(ValueError):
        DyadicCubeSet(grid, 9)


def test_peetre_constant_field(grid):
    c = SampledField(grid, np.full(grid.shape, -3.0 + 0j))
    pm = peetre_max(c, 2.0, 0)
    assert np.max(np.abs(pm.values - 3.0)) == 0.0


def test_peetre_lower_bound(grid):
    f = banded(grid, 0.0, 4.0, 11)
    pm = peetre_max(f, 3.0, 1)
    assert np.min(pm.values.real - np.abs(f.values)) >= -1e-14


def test_peetre_spike_closed_form(grid):
    vals = np.zeros(grid.shape, dtype=complex)
    vals[100] = 1.0
    spike = SampledField(grid, vals)
    pm = peetre_max(spike, 2.0, 0)
    x = grid.axis_coordinates()
    for i in (100, 110, 150, 260, 400, 40, 5, 480, 210, 330):
        t = min(abs(x[i] - x[100]), grid.period - abs(x[i] - x[100]))
        assert abs(pm.values[i].real - 1.0 / (1.0 + t) ** 2) < 1e-12


def test_peetre_cube_ratio_constant(grid):
    c = SampledField(grid, np.full(grid.shape, 1.0 + 0j))
    res = peetre_cube_ratio(c, 2.0, 1)
    assert res.ratio == 1.0


def test_peetre_cube_ratio_ceiling(grid):
    # weight modulus over one cube diameter bounds the ratio by (1 + sqrt(d))**sigma
    sigma = 2.0
    f = banded(grid, 0.0, 1.0, 12)
    res = peetre_cube_ratio(f, sigma, 0)
    assert res.ratio < (1.0 + 1.0) ** sigma


def test_peetre_cube_ratio_two_resolutions():
    vals = []
    for m in (256, 512):
        g = GridSpec(1, m, 16.0)
        f = random_band_limited(g, (0.0, 1.0), 77)
        vals.append(peetre_cube_ratio(f, 2.0, 1).ratio)
    assert abs(vals[1] - vals[0]) <= 0.10 * vals[0]


def test_peetre_cube_ratio_refuses_cubes_of_another_grid():
    # cubes of side 1/2 on period 32 reshape a 256-point field into 64 cubes
    # that are not its own 32: the ratio read from them is meaningless
    g = GridSpec(1, 256, 16.0)
    f = modulated_bump(g, position=[5.0])
    own = peetre_cube_ratio(f, 2.0, 1, DyadicCubeSet(g, 1))
    assert own == peetre_cube_ratio(f, 2.0, 1)
    other = GridSpec(1, 256, 32.0)
    with pytest.raises(GridMismatchError, match=re.escape(f"{other!r}") + ".*" + re.escape(f"{g!r}")):
        peetre_cube_ratio(f, 2.0, 1, DyadicCubeSet(other, 1))


def test_fefferman_stein_constant_is_one(grid):
    c = SampledField(grid, np.full(grid.shape, 2.0 + 0j), shells=Shells.radial(0.0, 0.0, grid.dimension))
    assert fefferman_stein_ratio([c], [0], 2.0, 2, 2) == pytest.approx(1.0)


def test_fefferman_stein_bank(grid):
    scales = [0, 1, 2, 3]
    bank = [random_band_limited(grid, (0.0, 0.5 * 2.0**k), 90 + k, k) for k in scales]
    ratio = fefferman_stein_ratio(bank, scales, 2.0, 2, 2, band_factor=0.5)
    assert ratio >= 1.0
    assert np.isfinite(ratio)


def test_fefferman_stein_band_guard(grid):
    f = random_band_limited(grid, (0.0, 4.0), 13)
    with pytest.raises(ValueError):
        fefferman_stein_ratio([f], [0], 2.0, 2, 2, band_factor=0.5)


@pytest.mark.parametrize("band_factor", [math.nan, math.inf, 0.0, -0.5])
def test_fefferman_stein_refuses_a_declared_constant_that_is_not_positive_and_finite(band_factor):
    """A NaN constant made the band check false for every field, so it was skipped and a ratio returned."""
    grid = GridSpec(1, 256, 16.0)
    bank = [random_band_limited(grid, (0.0, 0.5 * 2.0**k), 90 + k, k) for k in (0, 1)]
    with pytest.raises(ValueError, match="band_factor must be positive and finite"):
        fefferman_stein_ratio(bank, [0, 1], 2.0, 2, 2, band_factor=band_factor)


def test_fefferman_stein_empty_bank():
    with pytest.raises(ValueError, match="empty bank"):
        fefferman_stein_ratio([], [], 2.0, 2, 2)


def test_fefferman_stein_zero_bank(grid):
    z = SampledField(grid, np.zeros(grid.shape, dtype=complex), shells=Shells.radial(0.0, 0.0, grid.dimension))
    with pytest.raises(ValueError, match="zero bank"):
        fefferman_stein_ratio([z], [0], 2.0, 2, 2)


def test_fefferman_stein_small_sigma_refinement_diagnostic():
    # below the d/min(p, q) threshold a spike input makes the ratio grow with
    # grid refinement (diagnostic behavior, not a bound)
    ratios = []
    for m in (256, 512):
        g = GridSpec(1, m, 16.0)
        vals = np.zeros(g.shape, dtype=complex)
        vals[m // 2] = 1.0
        spike = SampledField(g, vals)
        pm = peetre_max(spike, 0.4, 0)
        num = lp_norm(pm, 2)
        den = lp_norm(spike, 2)
        ratios.append(num / den)
    assert ratios[1] > ratios[0] * 1.2


# ---------------------------------------------------------------------------
# peetre_max against the offset scan it replaced
# ---------------------------------------------------------------------------

def peetre_scan(f, sigma, k):
    """Reference Peetre maximal function: offsets in decreasing weight, global early exit.

    The exit is exact: once ``w * max|f| <= min(out)``, no remaining offset can
    raise a value, so this is the sup of ``w[z] * |f[x - z]|`` over every z.
    """
    weights = _peetre_weights(f.grid, sigma, k)
    absf = np.abs(f.values)
    peak = float(absf.max())
    out = absf.copy()  # z = 0
    if peak == 0.0:
        return out
    axes = tuple(range(f.grid.dimension))
    for flat in np.argsort(weights, axis=None)[::-1]:
        idx = np.unravel_index(flat, f.grid.shape)
        w = weights[idx]
        if w >= 1.0:  # z = 0 already accounted for
            continue
        if w * peak <= out.min():
            break
        np.maximum(out, w * np.roll(absf, idx, axis=axes), out=out)
    return out


@st.composite
def peetre_cases(draw, dimension):
    """A field, sigma and k for the tiled-vs-scan comparison.

    The period is M / 2**j, so Nyquist is 2**(j - 1) >= 2 and every drawn
    spectrum (band <= 1.5, bump ball radius 1) is certified below it.
    """
    m = 2 ** draw(st.integers(3, 12 if dimension == 1 else 6))
    grid = GridSpec(dimension, m, m / 2.0 ** draw(st.integers(2, 4)))
    kind = draw(st.sampled_from(["random", "bump", "spike", "zero", "constant"]))
    if kind == "random":
        values = random_band_limited(grid, (0.0, 1.5), draw(st.integers(0, 2**16)), 0).values
    elif kind == "bump":
        position = [draw(st.floats(0.0, grid.period)) for _ in range(dimension)]
        values = modulated_bump(grid, position=position).values
    else:
        values = np.full(grid.shape, 0.0 if kind == "zero" else -2.5 + 1j, dtype=complex)
        if kind == "spike":
            values[tuple(draw(st.integers(0, m - 1)) for _ in range(dimension))] = 1.0
    scale = 2.0 ** draw(st.sampled_from([-900, 0, 900]))
    sigma = draw(st.floats(0.1, 8.0, exclude_min=True))
    return SampledField(grid, values * scale), sigma, draw(st.integers(0, 2))


@pytest.mark.parametrize("dimension", [1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_peetre_max_is_the_scan_bit_for_bit(dimension, data):
    f, sigma, k = data.draw(peetre_cases(dimension))
    assert np.array_equal(peetre_max(f, sigma, k).values.real, peetre_scan(f, sigma, k))


@pytest.mark.parametrize("m", [4096, 16384])
def test_peetre_max_localized_bump_is_the_scan(m):
    # the desk workload's input: the scan visits every offset here
    g = GridSpec(1, m, 16.0)
    bump = modulated_bump(g, position=[5.3])
    assert np.array_equal(peetre_max(bump, 2.0, 1).values.real, peetre_scan(bump, 2.0, 1))


def test_peetre_max_temporaries_stay_bounded():
    m = 16384
    g = GridSpec(1, m, 16.0)
    bump = modulated_bump(g, position=[5.3])
    peetre_max(bump, 2.0, 1)  # samples and the distance cache are built outside the trace
    tracemalloc.start()
    try:
        peetre_max(bump, 2.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the chunked pair products take 2 MiB; everything else is a few arrays of M doubles
    assert peak < 2 * 2**20 + 16 * 8 * m, peak
