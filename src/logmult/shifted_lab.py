"""Growth experiments for shifted-operator norms and the exact change-of-variables check.

Operator-norm proxies are maxima of per-input ratios over a declared test
bank, hence lower bounds on the true operator norms.  Random band-limited
fields alone do not witness logarithmic growth; the banks therefore include
adversarial inputs (a modulated bump whose dyadic pieces translate to
geometrically spaced positions, and trains of octave-matched packets that
stack at a common point after shifting).  Every packet is one rule: the
multiplier core's symbol of a low-pass profile about its carrier
(:func:`field.symbol_box`), on the cached boxes of its ball, translated by
the one exact phase.

The change-of-variables identity holds on the torus exactly, so its check is
a roundoff test, not a statistical one.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from .calibration import LPPair, RadialProfile, make_lp_pair
from .field import (
    GridSpec,
    SampledField,
    Shell,
    Shells,
    Spectrum,
    _ldexp,
    _peak_exponent,
    box_radii,
    inverse,
    keep_spectrum,
    lp_norm,
    phase_shift,
    require_same_grid,
    spectrum_from_boxes,
    symbol_box,
    transform,
)
from .lp_ops import maximal_functions, square_function
from .reporting import ExperimentReport

__all__ = [
    "GrowthBankSpec",
    "GrowthExperiment",
    "CRITERIA",
    "LogLawFit",
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
CRITERIA = ("fit", "bounded", "equality")


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
    # the radii the support certificate checks, so band edges round alike
    xi = box_radii(grid, np.ix_(*[ks % grid.samples_per_axis] * grid.dimension))
    inside = (lo <= xi) & (xi <= hi)
    drawn = np.zeros(inside.shape, dtype=np.complex128)
    drawn.real[inside] = draws[inside, 0]
    drawn.imag[inside] = draws[inside, 1]
    # one box: the integer frequencies -kmax .. kmax per axis
    return inverse(spectrum_from_boxes(grid, [((-kmax,) * grid.dimension, drawn)], Shells.radial(lo, hi, grid.dimension)))


def modulated_bump(
    grid: GridSpec,
    center_frequency: float = 0.75,
    envelope_radius: float = 0.25,
    position: Optional[Sequence[float]] = None,
) -> SampledField:
    """Smooth packet at a single base frequency, certified by the one ball it occupies.

    The packet ``eta(x - p) exp(2 pi i kappa (x - p))``, kappa the centre frequency and p the
    ``position`` (default 0): :func:`field.symbol_box` of ``RadialProfile(r / 2, r)`` (r the
    envelope radius) about ``kappa e_1``.
    Its low-pass dyadic pieces at every scale l >= 0 are the packet itself, so
    under a shift y the maximal field develops copies at the geometrically
    spaced positions 2**-l y: the witness for logarithmic maximal growth.
    """
    profile = RadialProfile(envelope_radius / 2.0, envelope_radius)
    carrier = (center_frequency,) + (0.0,) * (grid.dimension - 1)
    ball = Shells((Shell(carrier, 0.0, envelope_radius),))
    return inverse(Spectrum(grid, symbol_box(grid, profile, position, center=carrier), shells=ball))


def bump_train(
    grid: GridSpec,
    shift_magnitude: float,
    scales: Sequence[int],
    envelope_radius: float = 0.5,
) -> SampledField:
    """Train of fixed-width packets, one per scale: frequency 2**s, position p_s = -2**-s y e_1.

    After applying the shifted annular pieces at shift y e_1, every packet
    lands at the origin, which stacks the aggregate to ~#scales while the
    input's own L_p norm only grows like (#scales)**(1/p) as long as the
    positions stay separated.  The certificate is one ball per packet, of
    radius ``envelope_radius`` about its carrier frequency.

    Packet s is :func:`modulated_bump` at ``(2**s, p_s)``, ``eta(x - p_s) exp(2 pi i 2**s
    (x - p_s))``; as ``2**s p_s = -y``, that is ``eta(x - p_s) exp(2 pi i 2**s x)`` times
    ``exp(2 pi i y)``, which is 1 for an integer y.  The mirrored train is its :func:`field.conjugate`.
    """
    profile = RadialProfile(envelope_radius / 2.0, envelope_radius)
    rest = (0.0,) * (grid.dimension - 1)
    pieces, balls = [], []
    for scale in scales:
        carrier = (2.0**scale,) + rest
        pieces += symbol_box(grid, profile, (-(2.0**-scale) * shift_magnitude,) + rest, center=carrier)
        balls.append(Shell(carrier, 0.0, envelope_radius))
    return inverse(spectrum_from_boxes(grid, pieces, Shells(tuple(balls))))


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
    bump_center: ClassVar[float] = 0.75
    bump_radius: ClassVar[float] = 0.25

    def __post_init__(self):
        if self.n_random < 0:
            raise ValueError(f"n_random must be nonnegative, got {self.n_random}")
        if self.adversarial not in ("bump", "none"):
            raise ValueError(f"unknown adversarial input {self.adversarial!r}; expected bump or none")


# spatial width assumed of a bank input, for the margin kept beyond the largest shifted position
_BUMP_WIDTH_HINT = 16.0


@dataclass(frozen=True)
class GrowthExperiment:
    """A shift ladder, its operator and bank, and the criterion (one of :data:`CRITERIA`) it is judged by.

    Only ``"equality"``, which does not rely on separated hump positions, skips the period guard.
    """

    kind: str
    p: float
    shifts: Tuple[float, ...]
    grid: GridSpec
    scale_range: Tuple[int, int]
    bank: GrowthBankSpec = GrowthBankSpec()
    criterion: str = "fit"
    tolerance: float = 0.3
    bound_factor: float = 3.0

    def __post_init__(self):
        if self.kind not in (SQUARE, MAXIMAL):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown growth criterion {self.criterion!r}; expected one of {', '.join(CRITERIA)}")
        if not (self.p == math.inf or self.p >= 1):  # NaN fails both
            raise ValueError(f"p must be >= 1 or infinity, got {self.p}")
        for name in ("tolerance", "bound_factor"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        if not all(map(math.isfinite, self.shifts)) or any(b <= a for a, b in zip(self.shifts, self.shifts[1:])):
            raise ValueError(f"shifts must be finite and strictly increasing, got {self.shifts}")
        if self.criterion == "equality":
            return
        reach = max(self.shifts) * 2.0 ** -self.scale_range[0]
        margin = 4.0 * _BUMP_WIDTH_HINT
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


def _max_ratios(
    kind: str, p: float, shifts: Sequence[Sequence[float]], bank: Sequence[SampledField], pair: LPPair
) -> List[float]:
    """Per shift, the max over the bank of shifted / unshifted estimator-norm ratios.

    Each input's estimators are read at ``[None] + shifts`` in one pass; an
    input with a zero unshifted estimator is skipped with a warning.
    """
    if kind not in (SQUARE, MAXIMAL):
        raise ValueError(f"unknown operator kind {kind!r}")
    if len(bank) == 0:
        raise ValueError("empty bank")
    at, best = [None, *shifts], None
    for i, f in enumerate(bank):
        estimators = maximal_functions(f, pair, at) if kind == MAXIMAL else (square_function(f, pair, y) for y in at)
        # map holds no estimator past its norm, so only one is alive at a time
        norms = map(lp_norm, estimators, itertools.repeat(p))
        denom = next(norms)
        if denom == 0.0:
            warnings.warn(f"bank input {i} has zero unshifted estimator; skipped")
            continue
        ratios = [norm / denom for norm in norms]
        best = ratios if best is None else list(map(max, best, ratios))
    if best is None:
        raise ValueError("every bank input had a zero unshifted estimator")
    return best


def operator_norm_proxy(kind: str, p: float, y: Sequence[float], bank: Sequence[SampledField], pair: LPPair) -> float:
    """Max over the bank of shifted-norm / unshifted-estimator ratios (a lower bound)."""
    return _max_ratios(kind, p, [y], bank, pair)[0]


@dataclass(frozen=True)
class LogLawFit:
    """A log law's fit: slope and RMS residual of log(row["ratio"]) over the fit's abscissa, and the predicted slope."""

    rows: Tuple[dict, ...]
    slope: float
    residual: float
    predicted: float

    @property
    def gap(self) -> float:
        return self.slope - self.predicted

    def verdict(self, tolerance: float) -> Tuple[bool, Tuple[str, ...]]:
        """Whether the slope is within ``tolerance`` of the prediction, with a note when that verdict is vacuous."""
        passed = abs(self.gap) <= tolerance
        if self.predicted == 0.0 or abs(self.predicted) > tolerance:
            return passed, ()
        # growth predicted within the tolerance of none: the fit's verdict cannot tell them apart
        return passed, (f"the fit's verdict is vacuous: a flat fit (exponent 0) would also pass, since the "
                        f"predicted exponent {self.predicted!r} is within the tolerance {tolerance!r}",)


def _log_law_fit(x: np.ndarray, rows: Sequence[dict], predicted: float) -> LogLawFit:
    """The one line fit: log(row["ratio"]) against the abscissas ``x``, one per row, refusing what cannot be fitted."""
    ratios = np.array([row["ratio"] for row in rows], dtype=float)
    if not np.all(ratios > 0):  # NaN fails too
        raise ValueError("ratios must be positive")
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate abscissas")
    z = np.log(ratios)
    slope, intercept = np.polyfit(x, z, 1)
    return LogLawFit(tuple(rows), float(slope), float(np.sqrt(np.mean((z - (slope * x + intercept)) ** 2))), predicted)


def fit_log_exponent(pairs: Sequence[Tuple[float, float]], predicted: float) -> LogLawFit:
    """Least-squares slope of log(ratio) against log(log(e + |y|)), against the ``predicted`` exponent."""
    if len(pairs) < 4:
        raise ValueError(f"need at least 4 (|y|, ratio) pairs, got {len(pairs)}")
    rows = [{"shift": abs(float(y)), "ratio": float(r)} for y, r in pairs]
    ys = np.array([row["shift"] for row in rows])
    if math.log2(ys.max() / ys.min()) < 3.0:
        raise ValueError("shift ladder must span at least 3 octaves")
    return _log_law_fit(np.log(np.log(np.e + ys)), rows, predicted)


def predicted_growth_exponent(kind: str, p: float) -> float:
    """Expected logarithmic exponent: |1/2 - 1/p| for the square family, 1/p for maximal."""
    inv_p = 0.0 if p == math.inf else 1.0 / p
    if kind == SQUARE:
        return abs(0.5 - inv_p)
    if kind == MAXIMAL:
        return inv_p
    raise ValueError(f"unknown operator kind {kind!r}")


def run_growth(experiment: GrowthExperiment) -> ExperimentReport:
    """Measure the proxy along the shift ladder and judge it by the experiment's criterion alone.

    ``fit``: the log exponent's fit (at least 4 shifts over 3 octaves) against the
    prediction within ``tolerance``, noting a vacuous verdict; ``bounded``: every ratio
    at most ``bound_factor`` times the first; ``equality``: every ratio 1 within ``tolerance``.
    """
    ys = np.zeros((len(experiment.shifts), experiment.grid.dimension))
    ys[:, 0] = experiment.shifts
    ratios = _max_ratios(experiment.kind, experiment.p, list(ys), experiment.make_bank(), experiment.make_pair())
    rows = [{"shift": magnitude, "ratio": ratio} for magnitude, ratio in zip(experiment.shifts, ratios)]
    notes = ()
    if experiment.criterion == "fit":
        fit = fit_log_exponent(list(zip(experiment.shifts, ratios)), predicted_growth_exponent(experiment.kind, experiment.p))
        summary = {
            "fitted_exponent": fit.slope,
            "fit_residual": fit.residual,
            "predicted_exponent": fit.predicted,
            "gap": fit.gap,
            "tolerance": experiment.tolerance,
        }
        passed, notes = fit.verdict(experiment.tolerance)
    elif experiment.criterion == "bounded":
        summary = {"max_ratio": max(ratios), "bound": experiment.bound_factor * ratios[0]}
        passed = summary["max_ratio"] <= summary["bound"]
    else:
        summary = {"max_equality_defect": max(abs(r - 1.0) for r in ratios), "tolerance": experiment.tolerance}
        passed = summary["max_equality_defect"] <= experiment.tolerance
    return ExperimentReport(
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
            "criterion": experiment.criterion,
        },
        rows=rows,
        summary=summary,
        passed=passed,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# change of variables
# ---------------------------------------------------------------------------

def _dilated_shells(g: SampledField, scale: int) -> Optional[Shells]:
    """``g``'s certificate dilated by ``2**scale`` (None for none); :class:`NyquistError` unless it stays below Nyquist.

    An uncertified field is taken to reach Nyquist, so it dilates to past it.
    """
    step = 2**scale
    shells = None if g.shells is None else g.shells.scaled(step)
    g.grid.check_supports_radius(g.grid.nyquist * step if shells is None else shells.hull[1])
    return shells


def dilate_field(g: SampledField, scale: int) -> SampledField:
    """The L1-normalized dyadic dilate ``2**(l d) g(2**l x)`` for l >= 0.

    Spectral index map: the coefficient at integer frequency k moves to
    2**l k (scaled by 2**(l d)); compressions (l < 0) do not stay periodic on
    the fixed torus and are rejected.  Each shell dilates; the union must stay below Nyquist.
    Each box of the spectrum spreads by the step, zeros between its bins, and
    adds into the dilated certificate's boxes; the dilate keeps that spectrum
    (see :func:`field.inverse`).  A box spread wider than the M bins of an
    axis folds onto them mod M: only its certified-zero bins collide there.
    """
    if scale < 0:
        raise ValueError("dilation scales must be nonnegative on a fixed period")
    if scale == 0:
        return g
    grid = g.grid
    step = 2**scale
    shells = _dilated_shells(g, scale)
    spread = []
    for first, values in transform(g).boxes:
        shape = tuple(min((w - 1) * step + 1, grid.samples_per_axis) for w in values.shape)
        box = np.zeros(shape, dtype=np.complex128)
        np.add.at(box, np.ix_(*((np.arange(w) * step) % s for w, s in zip(values.shape, shape))), values)
        box *= float(step) ** grid.dimension
        spread.append((tuple(k * step for k in first), box))
    return inverse(spectrum_from_boxes(grid, spread, shells))


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

    No dilate is built.  On the torus ``g_l(x - 2**-l y) = 2**(l d) (tau_y
    g)(2**l x)``, and ``x_n -> 2**l x_n`` maps samples to samples, so each
    input is translated once per side, by :func:`field.phase_shift` at scale
    0, and scale l reads every ``2**l``-th sample per axis of that translate
    (times ``2**(l d)``), forming the product on that subgrid only.  Each
    subgrid sample stands for ``grid.size / subgrid.size`` grid points, the
    weight of its quadrature term (times the cell volume); that is
    ``2**(l d)`` only while ``2**l <= M``.

    Every dilate's certificate must stay below Nyquist, as for
    :func:`dilate_field`, and so must the product's at the top scale (the sum
    of the dilated hulls), else the product aliases on the grid:
    :class:`field.NyquistError`; an input without a certificate leaves it
    unchecked (``ValueError``).  Both are raised before any transform.
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
    if scales[0] < 0:
        raise ValueError("dilation scales must be nonnegative on a fixed period")
    # a dilated hull is exactly 2**l times g's, so the top scale's check covers every lower one
    for g in gs if scales[-1] > 0 else ():  # scale 0 reads g itself
        _dilated_shells(g, scales[-1])
    for i, g in enumerate(gs):
        if g.shells is None:
            raise ValueError(f"input {i} carries no support certificate, so the product's alias check cannot run")
    grid.check_supports_radius(sum(g.shells.hull[1] for g in gs) * 2**scales[-1])
    gs = [keep_spectrum(g) for g in gs]  # one FFT per input: both sides' off-grid translates read it
    # translates over 2**e (exact), e from each spectrum's peak (within L**d M**d of the samples'): no power overflows
    peaks = [_peak_exponent(*(np.abs(v) for _, v in transform(g).boxes)) or 0 for g in gs]

    def norm_p(shifts: Sequence[np.ndarray]) -> float:
        translates = [_ldexp(phase_shift(g, y).values, -e) for g, y, e in zip(gs, shifts, peaks)]
        total = 0.0
        for scale in scales:
            sub = (slice(None, None, 2**scale),) * grid.dimension
            prod = 2.0 ** (scale * grid.dimension * len(gs))
            for v in translates:
                prod = prod * v[sub]
            total += float(np.sum(np.abs(prod) ** p)) * (grid.size / prod.size) * grid.cell_volume
        return float(np.ldexp(total ** (1.0 / p), sum(peaks)))

    lhs = norm_p(ys)
    rhs = norm_p([y - ys[k0] for y in ys])
    if lhs == 0.0:
        return ChangeOfVariablesResult(lhs, rhs, abs(lhs - rhs), relative=False)
    return ChangeOfVariablesResult(lhs, rhs, abs(lhs - rhs) / lhs, relative=True)
