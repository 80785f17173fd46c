"""Growth experiments for shifted-operator norms and the exact change-of-variables check.

Operator-norm proxies are maxima of per-input ratios over a declared test
bank, hence lower bounds on the true operator norms.  Random band-limited
fields alone do not witness logarithmic growth; the banks therefore include
adversarial inputs (a modulated bump whose dyadic pieces translate to
geometrically spaced positions, and trains of octave-matched packets that
stack at a common point after shifting).

The change-of-variables identity holds on the torus exactly, so its check is
a roundoff test, not a statistical one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .calibration import LPPair, RadialProfile, make_lp_pair
from .field import (
    GridSpec,
    SampledField,
    Shell,
    Shells,
    Spectrum,
    bin_blocks,
    block_frequencies,
    frozen,
    inverse,
    lp_norm,
    phase_shift,
    require_same_grid,
    transform,
    translation_phase,
)
from .lp_ops import maximal_function, square_function
from .reporting import ExperimentReport

__all__ = [
    "GrowthBankSpec",
    "GrowthExperiment",
    "FitResult",
    "ChangeOfVariablesResult",
    "operator_norm_proxy",
    "fit_log_exponent",
    "run_growth",
    "change_of_variables_check",
    "dilate_field",
    "random_band_limited",
    "modulated_bump",
    "bump_train",
    "predicted_growth_exponent",
]

SQUARE = "shifted-square"
MAXIMAL = "shifted-maximal"


# ---------------------------------------------------------------------------
# test-bank synthesis (all spectral, deterministic, certificate-carrying)
# ---------------------------------------------------------------------------

def _rng(seed: int, *stream: int) -> np.random.Generator:
    # counter-based generator: one 64-bit seed, per-purpose stream keys
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=list(stream) + [0] * (4 - len(stream))))


def random_band_limited(
    grid: GridSpec, band: Tuple[float, float], seed: int, index: int = 0
) -> SampledField:
    """Random field with spectrum supported in the annulus ``band``.

    Coefficients are drawn per integer frequency in a resolution-independent
    order, so the same (seed, index) produces the same physical field on a
    finer grid.
    """
    lo, hi = band
    grid.check_supports_radius(hi)
    gen = _rng(seed, 1, index)
    kmax = int(math.floor(hi * grid.period))
    ks = np.arange(-kmax, kmax + 1)
    draws = gen.standard_normal((ks.size,) * grid.dimension + (2,))
    mesh = np.meshgrid(*([ks] * grid.dimension), indexing="ij")
    bins = tuple(k % grid.samples_per_axis for k in mesh)
    # the radii the support certificate checks, so band edges round alike
    xi = grid.frequency_radii()[bins]
    inside = (lo <= xi) & (xi <= hi)
    where = tuple(b[inside] for b in bins)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs.real[where] = draws[inside, 0]
    coeffs.imag[where] = draws[inside, 1]
    return inverse(Spectrum(grid, frozen(coeffs), support_certificate=band))


def packet_bins(grid: GridSpec, profile: RadialProfile, kappa: float):
    """``(block, xi_1 - kappa, profile(|xi - kappa e_1|))`` on the bins of a packet at ``kappa e_1``.

    The blocks cover the box ``|xi - kappa e_1|_i <= profile.support[1]``, so
    the profile, hard 0 off its support, is exactly 0 on every other bin.
    """
    radius = profile.support[1]
    windows = [[(kappa - radius, kappa + radius)]] + [[(-radius, radius)]] * (grid.dimension - 1)
    for block in bin_blocks(grid, windows):
        freqs = block_frequencies(grid, block)
        centered = freqs[0] - kappa
        rest_sq = sum(f**2 for f in freqs[1:])
        yield block, centered, profile(np.sqrt(centered**2 + rest_sq)).astype(np.complex128)


def modulated_bump(
    grid: GridSpec,
    center_frequency: float = 0.75,
    envelope_radius: float = 0.25,
    position: Optional[Sequence[float]] = None,
) -> SampledField:
    """Smooth packet at a single base frequency, certified by the one ball it occupies.

    Its low-pass dyadic pieces at every scale l >= 0 are the packet itself, so
    under a shift y the maximal field develops copies at the geometrically
    spaced positions 2**-l y: the witness for logarithmic maximal growth.
    """
    profile = RadialProfile(envelope_radius / 2.0, envelope_radius)
    shift = None if position is None else np.atleast_1d(position)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for block, _, packet in packet_bins(grid, profile, center_frequency):
        if shift is not None:
            packet = packet * translation_phase(grid, shift, block)
        coeffs[block] = packet
    ball = Shell((center_frequency,) + (0.0,) * (grid.dimension - 1), 0.0, envelope_radius)
    return inverse(Spectrum(grid, frozen(coeffs), shells=Shells((ball,))))


def bump_train(
    grid: GridSpec,
    shift_magnitude: float,
    scales: Sequence[int],
    envelope_radius: float = 0.5,
    conjugate: bool = False,
) -> SampledField:
    """Train of fixed-width packets, one per scale: frequency 2**s, position -2**-s y e_1.

    After applying the shifted annular pieces at shift y e_1, every packet
    lands at the origin, which stacks the aggregate to ~#scales while the
    input's own L_p norm only grows like (#scales)**(1/p) as long as the
    positions stay separated.  The certificate is one ball per packet, of
    radius ``envelope_radius`` about its carrier frequency.
    """
    profile = RadialProfile(envelope_radius / 2.0, envelope_radius)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    sign = -1.0 if conjugate else 1.0
    balls = []
    for scale in scales:
        kappa = sign * 2.0**scale
        position = -(2.0**-scale) * shift_magnitude
        for block, centered, packet in packet_bins(grid, profile, kappa):
            # f(x) = eta(x - position) exp(2 pi i kappa x): translation phase in
            # the centered frequency variable
            coeffs[block] += packet * np.exp(-2j * np.pi * position * centered)
        balls.append(Shell((kappa,) + (0.0,) * (grid.dimension - 1), 0.0, envelope_radius))
    return inverse(Spectrum(grid, frozen(coeffs), shells=Shells(tuple(balls))))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthBankSpec:
    """What goes into the test bank for one growth experiment."""

    seed: int = 20240801
    n_random: int = 2
    random_band: Tuple[float, float] = (1.0, 8.0)
    adversarial: str = "bump"  # "bump" | "none"
    bump_center: float = 0.75
    bump_radius: float = 0.25


@dataclass(frozen=True)
class GrowthExperiment:
    kind: str
    p: float
    shifts: Tuple[float, ...]
    grid: GridSpec
    scale_range: Tuple[int, int]
    bank: GrowthBankSpec = GrowthBankSpec()
    tolerance: float = 0.3
    bump_width_hint: float = 16.0
    allow_wrapped_positions: bool = False

    def __post_init__(self):
        if self.kind not in (SQUARE, MAXIMAL):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not (self.p == math.inf or self.p >= 1):  # NaN fails both
            raise ValueError(f"p must be >= 1 or infinity, got {self.p}")
        if any(b <= a for a, b in zip(self.shifts, self.shifts[1:])):
            raise ValueError("shift ladder must be strictly increasing")
        if self.allow_wrapped_positions:
            # norm-equality experiments do not rely on separated hump positions
            return
        reach = max(self.shifts) * 2.0 ** -self.scale_range[0]
        margin = 4.0 * self.bump_width_hint
        if reach + margin > self.grid.period:
            raise ValueError(
                f"largest shifted position {reach} plus margin {margin} exceeds the "
                f"period {self.grid.period}"
            )

    def make_pair(self) -> LPPair:
        return make_lp_pair(self.scale_range)

    def make_bank(self) -> List[SampledField]:
        bank: List[SampledField] = []
        if self.bank.adversarial == "bump":
            bank.append(
                modulated_bump(self.grid, self.bank.bump_center, self.bank.bump_radius)
            )
        for i in range(self.bank.n_random):
            bank.append(random_band_limited(self.grid, self.bank.random_band, self.bank.seed, i))
        return bank


def _estimator(kind: str):
    if kind not in (SQUARE, MAXIMAL):
        raise ValueError(f"unknown operator kind {kind!r}")
    return square_function if kind == SQUARE else maximal_function


def _unshifted_norms(op, p: float, bank: Sequence[SampledField], pair: LPPair) -> List[float]:
    """L_p norm of the unshifted estimator of every bank input (warns on zeros)."""
    if len(bank) == 0:
        raise ValueError("empty bank")
    norms = [lp_norm(op(f, pair), p) for f in bank]
    for i, denom in enumerate(norms):
        if denom == 0.0:
            warnings.warn(f"bank input {i} has zero unshifted estimator; skipped")
    return norms


def _max_ratio(
    op,
    p: float,
    y: Sequence[float],
    bank: Sequence[SampledField],
    pair: LPPair,
    denoms: Sequence[float],
) -> float:
    best = None
    for f, denom in zip(bank, denoms):
        if denom == 0.0:
            continue
        ratio = lp_norm(op(f, pair, y), p) / denom
        best = ratio if best is None else max(best, ratio)
    if best is None:
        raise ValueError("every bank input had a zero unshifted estimator")
    return best


def operator_norm_proxy(
    kind: str,
    p: float,
    y: Sequence[float],
    bank: Sequence[SampledField],
    pair: LPPair,
) -> float:
    """Max over the bank of shifted-norm / unshifted-estimator ratios (a lower bound)."""
    op = _estimator(kind)
    return _max_ratio(op, p, y, bank, pair, _unshifted_norms(op, p, bank, pair))


@dataclass(frozen=True)
class FitResult:
    exponent: float
    residual: float
    pairs: Tuple[Tuple[float, float], ...]


def fit_log_exponent(pairs: Sequence[Tuple[float, float]]) -> FitResult:
    """Least-squares slope of log(ratio) against log(log(e + |y|))."""
    if len(pairs) < 4:
        raise ValueError(f"need at least 4 (|y|, ratio) pairs, got {len(pairs)}")
    ys = np.array([abs(y) for y, _ in pairs], dtype=float)
    ratios = np.array([r for _, r in pairs], dtype=float)
    if np.any(ratios <= 0):
        raise ValueError("ratios must be positive")
    if math.log2(ys.max() / ys.min()) < 3.0:
        raise ValueError("shift ladder must span at least 3 octaves")
    x = np.log(np.log(np.e + ys))
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate abscissas")
    z = np.log(ratios)
    slope, intercept = np.polyfit(x, z, 1)
    resid = float(np.sqrt(np.mean((z - (slope * x + intercept)) ** 2)))
    return FitResult(float(slope), resid, tuple((float(a), float(b)) for a, b in zip(ys, ratios)))


def predicted_growth_exponent(kind: str, p: float) -> float:
    """Expected logarithmic exponent: |1/2 - 1/p| for the square family, 1/p for maximal."""
    inv_p = 0.0 if p == math.inf else 1.0 / p
    if kind == SQUARE:
        return abs(0.5 - inv_p)
    if kind == MAXIMAL:
        return inv_p
    raise ValueError(f"unknown operator kind {kind!r}")


def run_growth(experiment: GrowthExperiment) -> ExperimentReport:
    """Measure the proxy along the shift ladder, fit, and compare to the prediction."""
    pair = experiment.make_pair()
    bank = experiment.make_bank()
    direction = np.zeros(experiment.grid.dimension)
    rows = []
    measured: List[Tuple[float, float]] = []
    # the unshifted estimators do not depend on the shift: one per bank input
    op = _estimator(experiment.kind)
    denoms = _unshifted_norms(op, experiment.p, bank, pair)
    for magnitude in experiment.shifts:
        y = direction.copy()
        y[0] = magnitude
        ratio = _max_ratio(op, experiment.p, y, bank, pair, denoms)
        rows.append({"shift": magnitude, "ratio": ratio})
        measured.append((magnitude, ratio))
    fit = fit_log_exponent(measured)
    predicted = predicted_growth_exponent(experiment.kind, experiment.p)
    gap = fit.exponent - predicted
    report = ExperimentReport(
        name=f"growth-{experiment.kind}",
        params={
            "kind": experiment.kind,
            "p": experiment.p,
            "scale_range": experiment.scale_range,
            "samples": experiment.grid.samples_per_axis,
            "period": experiment.grid.period,
            "bank_seed": experiment.bank.seed,
            "bank_random": experiment.bank.n_random,
            "bank_adversarial": experiment.bank.adversarial,
        },
        rows=rows,
        summary={
            "fitted_exponent": fit.exponent,
            "fit_residual": fit.residual,
            "predicted_exponent": predicted,
            "gap": gap,
            "tolerance": experiment.tolerance,
        },
        passed=abs(gap) <= experiment.tolerance,
    )
    return report


# ---------------------------------------------------------------------------
# change of variables
# ---------------------------------------------------------------------------

def dilate_field(g: SampledField, scale: int) -> SampledField:
    """The L1-normalized dyadic dilate ``2**(l d) g(2**l x)`` for l >= 0.

    Spectral index map: the coefficient at integer frequency k moves to
    2**l k (scaled by 2**(l d)); compressions (l < 0) do not stay periodic on
    the fixed torus and are rejected.  Each shell dilates; the union must stay below Nyquist.
    A certified dilate keeps its spectrum (see :func:`field.inverse`).
    """
    if scale < 0:
        raise ValueError("dilation scales must be nonnegative on a fixed period")
    if scale == 0:
        return g
    grid = g.grid
    step = 2**scale
    shells = None if g.shells is None else g.shells.scaled(step)
    grid.check_supports_radius(grid.nyquist * step if shells is None else shells.hull[1])
    m = grid.samples_per_axis
    coeffs = transform(g).coefficients
    out = np.zeros_like(coeffs)
    k = np.fft.fftfreq(m, d=1.0 / m).astype(int)  # signed integer frequencies
    keep = np.abs(k) * step <= m // 2
    idx = (k[keep] * step) % m
    out[np.ix_(*[idx] * grid.dimension)] = coeffs[np.ix_(*[keep] * grid.dimension)]
    out *= float(step) ** grid.dimension
    return inverse(Spectrum(grid, frozen(out), shells=shells))


@dataclass(frozen=True)
class ChangeOfVariablesResult:
    lhs: float
    rhs: float
    discrepancy: float
    relative: bool


def change_of_variables_check(
    gs: Sequence[SampledField],
    ys: Sequence[Sequence[float]],
    k0: int,
    scale_range: Tuple[int, int],
    p: float = 2.0,
) -> ChangeOfVariablesResult:
    """Compare the shifted product norm against its shift-removed counterpart.

    Both sides are L_p(l_p) norms over the scale range of the pointwise
    product of shifted dyadic dilates; the right-hand side removes the shift
    from slot ``k0`` and moves it onto the others.  On the torus the equality
    is exact, so the discrepancy measures only roundoff/quadrature.
    """
    if not 0 <= k0 < len(gs):
        raise ValueError(f"k0={k0} out of range for {len(gs)} inputs")
    grid = require_same_grid(*gs)
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in ys]
    if len(ys) != len(gs):
        raise ValueError("one shift per input required")
    scales = range(scale_range[0], scale_range[1] + 1)
    if not scales:
        raise ValueError(f"empty scale range {scale_range}")
    dilates = {scale: [dilate_field(g, scale) for g in gs] for scale in scales}

    def norm_p(shifts: Sequence[np.ndarray]) -> float:
        total = 0.0
        for scale in scales:
            prod = np.ones(grid.shape, dtype=np.complex128)
            for g_l, y in zip(dilates[scale], shifts):
                shifted = phase_shift(g_l, 2.0**-scale * y)
                prod = prod * shifted.values
            total += float(np.sum(np.abs(prod) ** p)) * grid.cell_volume
        return total ** (1.0 / p)

    lhs = norm_p(ys)
    rhs = norm_p([y - ys[k0] for y in ys])
    if lhs == 0.0:
        return ChangeOfVariablesResult(lhs, rhs, abs(lhs - rhs), relative=False)
    return ChangeOfVariablesResult(lhs, rhs, abs(lhs - rhs) / lhs, relative=True)
