"""Shifted dyadic convolution operators and the derived square/maximal machinery.

The shifted dilate of a profile ``Phi`` at scale ``l`` and shift ``y`` acts on
a field by frequency multiplication with ``Phi_hat(2**-l xi) *
exp(-2 pi i (2**-l y, xi))``; equivalently it is the unshifted piece translated
by ``2**-l y``.  Because fields are band-limited interpolants, the action is
exact to roundoff for any real shift.  The multiplication is the field's
multiplier core, evaluated on the certified boxes :func:`field.piece_plan`
returns.  A call plans its pieces once (:func:`_plans`), and :func:`_pieces`
builds every one from its plan and one :func:`field._split` of its shift.

Every piece falls into one of the three classes of :func:`field.piece_plan`:

* *zero*: the dilated support misses the field's certificate; the piece is
  skipped.
* *plateau*: the certificate the support meets lies inside the dilated closed
  plateau, where the profile is exactly ``1.0`` on every occupied bin.  When
  the support meets every shell of the field's certificate (always, for a
  radial band), the piece is the input translated by ``2**-l y`` and the
  profile is never evaluated.
* *partial*: profile times phase on the certified boxes, then an inverse.

A piece translated by whole samples (no shift included) is a roll of one
untranslated inverse: one for the plateau pieces that are the input itself,
one per scale for any other, each taken at most once per call and shared by
the shifts of a :func:`maximal_functions` call.  An off-grid translation is a
phase multiply and an inverse.

All three give the same arrays as evaluating the profile at every scale.

The square function is deferred: it keeps each live piece as its multiplier
core's boxes (the coefficients the piece's inverse would take), and sums the
samples above only when its ``values`` are first read.
At p = 2, ``||S^y f||_2**2 = sum_l ||psi_l f_hat||**2`` by Parseval for every
shift ``y``, so :func:`field.lp_norm` reads that norm, and the p = 4 norm
where the spectrum of ``|S^y f|**2`` is cheaper than the samples, from those
boxes without an FFT.  The maximal function and the oscillation norm take a
supremum, which has no spectrum, and always sample.

Scale sums and suprema run over a pair's declared scale range; experiments are
expected to certify that their inputs' spectra sit inside the covered octaves
so that the truncation is exact rather than approximate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .calibration import LPPair
from .field import (
    ZERO,
    GridMismatchError,
    GridSpec,
    SampledField,
    Shells,
    Split,
    Spectrum,
    _deferred,
    _inverted,
    _peak_exponent,
    _runs,
    _split,
    _symbol_times,
    frozen,
    mixed_norm,
    piece_plan,
    require_same_grid,
    transform,
)

__all__ = [
    "ShiftedDyadicOp",
    "DyadicCubeSet",
    "CubeRatioResult",
    "dyadic_piece",
    "square_function",
    "maximal_function",
    "maximal_functions",
    "bmo_norm",
    "peetre_max",
    "peetre_cube_ratio",
    "fefferman_stein_ratio",
    "representable_cube_scales",
]


@dataclass(frozen=True)
class ShiftedDyadicOp:
    """Convolution against ``2**(l d) Phi(2**l x - y)`` for a radial profile Phi."""

    profile: object
    scale: int
    shift: Tuple[float, ...]


def dyadic_piece(f: SampledField, op: ShiftedDyadicOp) -> SampledField:
    """Apply one shifted dyadic dilate in the frequency domain (exact to roundoff).

    The one piece :func:`_pieces` builds from its plan, rolled by the whole
    samples of its shift.
    """
    grid = f.grid
    plans = _plans(f, op.profile, [op.scale])
    if not plans:
        return SampledField(grid, frozen(np.zeros(grid.shape, dtype=np.complex128)), Shells.radial(0.0, 0.0, grid.dimension))
    ((_, _, steps, values),) = _pieces(transform(f), [(plans[0], _split(grid, op.shift, op.scale))], lambda v: v, {})
    if any(steps or ()):
        values = np.roll(values, steps, axis=tuple(range(grid.dimension)))
    return SampledField(grid, frozen(values), shells=plans[0][1])


def _energy(values: np.ndarray, e: int) -> np.ndarray:
    """``(2**-e |values|)**2``; the power of two is exact."""
    energy = np.ldexp(np.abs(values), -e)
    energy *= energy  # in place, bit for bit abs(values) ** 2 at e = 0
    return energy


def _fold_rolled(op, acc: np.ndarray, values: np.ndarray, steps: Optional[Tuple[int, ...]]) -> None:
    """``op(acc, np.roll(values, steps), out=acc)``, bit for bit, on the (at most ``2**d``) slice pairs of the roll."""
    m = acc.shape[0]
    for run in itertools.product(*(_runs(s, m, m, m) for s in steps or (0,) * acc.ndim)):
        target = acc[tuple(t for _, t in run)]
        op(target, values[tuple(v for v, _ in run)], out=target)


Plan = Tuple[int, "Shells", object]  # (scale, certificate, profile); unquoted, typing's cache would pin older imports


def _plans(f: SampledField, profile, scales: Iterable[int]) -> List[Plan]:
    """The pieces of ``f`` at ``scales`` that :func:`field.piece_plan`, called once per scale, does not class zero."""
    planned = ((scale, *piece_plan(f, profile, scale)) for scale in scales)
    return [(scale, shells, piece_profile) for scale, cls, shells, piece_profile in planned if cls != ZERO]


def _pieces(
    spectrum: Spectrum, pieces: Iterable[Tuple[Plan, Split]], lift: Callable[[np.ndarray], np.ndarray], untranslated: dict
) -> Iterator[Tuple[int, Optional[int], Optional[Tuple[int, ...]], np.ndarray]]:
    """``(scale, key, steps, lifted)`` of each ``(plan, split)`` of ``pieces``: the multiplier core on the plan's certificate.

    ``key`` is None for a plateau piece that is the field itself, else the scale.  A split into whole samples makes
    the piece ``lift`` (pointwise) of its untranslated inverse, taken once into the caller's ``untranslated`` under
    ``key``, for the caller to roll by ``steps``; any other is ``lift`` of the phased piece, with ``steps`` None.
    """
    grid = spectrum.grid
    for (scale, shells, profile), split in pieces:
        key = None if profile is None else scale
        steps, rests = split
        if any(rests):
            yield scale, key, None, lift(_inverted(grid, _symbol_times(grid, spectrum, shells, profile, scale, split)))
            continue
        if key not in untranslated:
            untranslated[key] = lift(_inverted(grid, _symbol_times(grid, spectrum, shells, profile, scale)))
        yield scale, key, steps, untranslated[key]


def square_function(
    f: SampledField, pair: LPPair, shift: Optional[Sequence[float]] = None
) -> SampledField:
    """Pointwise l2 aggregate of the shifted annular pieces over the pair's scales.

    Deferred (see the module docstring): the pieces not certified zero are
    kept as multiplier-core boxes, and the samples summed when ``values`` is
    first read; both read the one list of plans and splits.
    """
    _split(f.grid, shift, 0)  # refuses a malformed shift before the transform
    pieces = [(plan, _split(f.grid, shift, plan[0])) for plan in _plans(f, pair.psi_hat, pair.scales)]
    spectrum = transform(f)
    moduli = [(shells, _symbol_times(f.grid, spectrum, shells, profile, scale, split))
              for (scale, shells, profile), split in pieces]

    def sample(_) -> np.ndarray:
        # far from amplitude 1 a squared piece would leave the double range: sum the
        # squares at 2**-e times the pieces, e the power of two of their peak, and scale back
        e = _peak_exponent(*(np.abs(v) for _, piece in moduli for _, v in piece)) or 0
        acc = np.zeros(f.grid.shape, dtype=float)
        untranslated: dict = {}
        for _, key, steps, energy in _pieces(spectrum, pieces, lambda v: _energy(v, e), untranslated):
            _fold_rolled(np.add, acc, energy, steps)
            if key is not None:  # a scale's own piece serves this one shift
                untranslated.pop(key, None)
        return np.ldexp(np.sqrt(acc), e).astype(np.complex128)

    return _deferred(None, sample, f.grid, moduli)


def _maximal(spectrum: Spectrum, pieces: Sequence[Tuple[Plan, Split]], untranslated: dict, last: bool) -> SampledField:
    aligned = [(plan, split) for plan, split in pieces if not any(split[1])]
    acc, seen = np.zeros(spectrum.grid.shape, dtype=float), set()
    for _, key, steps, modulus in _pieces(spectrum, aligned, np.abs, untranslated):
        if (key, steps) not in seen:
            seen.add((key, steps))
            _fold_rolled(np.maximum, acc, modulus, steps)
    if last:
        untranslated.clear()
    off_grid = [(plan, split) for plan, split in pieces if any(split[1])]
    for *_, modulus in _pieces(spectrum, off_grid, np.abs, untranslated):
        np.maximum(acc, modulus, out=acc)
    return SampledField(spectrum.grid, acc)


def maximal_functions(f: SampledField, pair: LPPair, shifts: Sequence[Optional[Sequence[float]]]) -> Iterator[SampledField]:
    """``maximal_function(f, pair, shift)`` for each of ``shifts`` in order, bit for bit.

    The pieces are planned once, and their untranslated inverses serve every
    shift.  Per shift the rolled pieces are folded first, one per ``(key,
    steps)`` (max is idempotent, exact and order-free), and the off-grid pieces
    after; on the last shift the shared inverses are released before the
    off-grid ones run.
    """
    for shift in shifts:
        _split(f.grid, shift, 0)  # refuses a malformed shift before the transform
    plans = _plans(f, pair.phi_hat, pair.scales)
    spectrum, untranslated = transform(f), {}
    for i, shift in enumerate(shifts):
        pieces = [(plan, _split(f.grid, shift, plan[0])) for plan in plans]
        yield _maximal(spectrum, pieces, untranslated, i == len(shifts) - 1)


def maximal_function(f: SampledField, pair: LPPair, shift: Optional[Sequence[float]] = None) -> SampledField:
    """Pointwise sup over scales of the shifted low-pass pieces."""
    return next(maximal_functions(f, pair, [shift]))


def representable_cube_scales(grid: GridSpec) -> List[int]:
    """Dyadic cube scales k whose cubes (side 2**-k) tile the grid exactly."""
    period = Fraction(grid.period)
    scales = []
    # sides range from the full period down to the grid spacing
    k_lo = -(period.numerator.bit_length())  # generous lower sweep bound
    k_hi = int(math.log2(grid.samples_per_axis)) + period.denominator.bit_length()
    for k in range(k_lo, k_hi + 1):
        cubes = period * Fraction(2) ** k
        if cubes.denominator != 1 or cubes.numerator < 1:
            continue
        n = cubes.numerator
        if grid.samples_per_axis % n == 0:
            scales.append(k)
    return scales


@dataclass(frozen=True)
class DyadicCubeSet:
    """Grid-aligned partition of the period into cubes of side 2**-scale."""

    grid: GridSpec
    scale: int

    def __post_init__(self):
        period = Fraction(self.grid.period)
        cubes = period * Fraction(2) ** self.scale
        if cubes.denominator != 1 or cubes.numerator < 1:
            raise ValueError(
                f"cube side 2**{-self.scale} does not tile the period {self.grid.period}"
            )
        if self.grid.samples_per_axis % cubes.numerator != 0:
            raise ValueError(
                f"cube side 2**{-self.scale} is not an integer multiple of the grid spacing"
            )

    @property
    def cubes_per_axis(self) -> int:
        return int(Fraction(self.grid.period) * Fraction(2) ** self.scale)

    @property
    def points_per_cube_axis(self) -> int:
        return self.grid.samples_per_axis // self.cubes_per_axis

    def reduce(self, values: np.ndarray, how: str) -> np.ndarray:
        """Per-cube reduction (mean / max / min) of a grid-shaped real array."""
        if how not in ("mean", "max", "min"):
            raise ValueError(f"unknown reduction {how!r}")
        d = self.grid.dimension
        blocks = values.reshape((self.cubes_per_axis, self.points_per_cube_axis) * d)
        return getattr(blocks, how)(axis=tuple(range(1, 2 * d, 2)))


def bmo_norm(f: SampledField, pair: LPPair) -> float:
    """Dyadic square-function oscillation estimator.

    sup over representable cubes P of the square root of the mean over P of
    ``sum_{l >= -log2 side(P)} |psi_l * f|**2``, the scale sum truncated at the
    pair's top scale.
    """
    scales = representable_cube_scales(f.grid)
    if not scales:
        raise ValueError(
            f"no dyadic cube scale tiles period {f.grid.period} on {f.grid.samples_per_axis} points"
        )
    spectrum = transform(f)
    # squares at 2**-e times the pieces, as in square_function, scaled back at the end
    e = _peak_exponent(*(np.abs(v) for _, v in spectrum.boxes)) or 0
    pieces = [(plan, _split(f.grid, None, plan[0])) for plan in _plans(f, pair.psi_hat, pair.scales)]  # every piece unshifted
    sq_pieces = {scale: energy for scale, _, _, energy in _pieces(spectrum, pieces, lambda v: _energy(v, e), {})}
    # cumulative sums from the top scale down: tail[l] = sum_{j >= l} |psi_j * f|^2
    tail: dict = {}
    running = np.zeros(f.grid.shape, dtype=float)
    for scale in sorted(pair.scales, reverse=True):
        if scale in sq_pieces:
            running = running + sq_pieces[scale]
        tail[scale] = running
    best = 0.0
    for k in scales:
        if k > pair.scale_max:
            continue
        start = max(k, pair.scale_min)
        cubes = DyadicCubeSet(f.grid, k)
        means = cubes.reduce(tail[start], "mean")
        best = max(best, float(np.max(means)))
    return math.ldexp(math.sqrt(best), e)


def _peetre_weights(grid: GridSpec, sigma: float, k: int) -> np.ndarray:
    return (1.0 + 2.0**k * grid.torus_distances()) ** (-sigma)


def peetre_max(f: SampledField, sigma: float, k: int) -> SampledField:
    """Weighted sup ``sup_z |f(x - z)| / (1 + 2**k |z|)**sigma`` over grid offsets.

    |z| is the torus min-image distance.  Targets are cut into square tiles and
    sources into blocks of B points per axis (B = sqrt(M) rounded down to a
    power of two, at least 8).  ``out`` starts at ``|f|`` and at each block's
    argmax source times its weights; then, block offsets taken in decreasing
    weight, a (tile, block) pair is evaluated only while ``max |f| on the block
    * max w on the pair's offsets`` exceeds the tile's minimum.  Rounded
    multiplication is monotone, so a pruned pair cannot raise any value: every
    value is the largest product ``w[z] * |f[x - z]|`` over all z, bit for bit.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    d, m = f.grid.dimension, f.grid.samples_per_axis
    b = max(8, 1 << (m.bit_length() - 1) // 2)
    n, axes, order = m // b, tuple(range(d)), tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))

    def tiles(a: np.ndarray) -> np.ndarray:  # (n**d tiles, b**d points), a view in 1-D
        return a.reshape((n, b) * d).transpose(order).reshape(n**d, b**d)

    weights, absf = _peetre_weights(f.grid, sigma, k), np.abs(f.values)
    blocks, peak = tiles(absf), float(absf.max())
    if peak == 0.0:
        return SampledField(f.grid, absf)
    out, product, wrapped = absf.copy(), np.empty_like(absf), np.tile(weights, (2,) * d)
    for i, (blk, arg) in enumerate(zip(np.ndindex(*(n,) * d), blocks.argmax(axis=1))):
        src = (c * b + j for c, j in zip(blk, np.unravel_index(arg, (b,) * d)))
        view = wrapped[tuple(slice(m - s, 2 * m - s) for s in src)]  # w[x - s] = wrapped[m + x - s]
        np.maximum(out, np.multiply(view, blocks[i, arg], out=product), out=out)
    out_t, block_max, bound = tiles(out), blocks.max(axis=1), weights.copy()
    low, ids = out_t.min(axis=1), np.arange(n**d).reshape((n,) * d)
    bound[(0,) * d] = 0.0  # z = 0 is in out already
    w_max = tiles(bound).max(axis=1).reshape((n,) * d)  # a pair's offsets lie in blocks delta - 1 and delta
    for axis in axes:
        w_max = np.maximum(w_max, np.roll(w_max, 1, axis=axis))
    for flat in np.argsort(w_max, axis=None)[::-1]:
        delta = np.unravel_index(flat, w_max.shape)
        if w_max[delta] * peak <= low.min():
            break
        sources = np.roll(ids, delta, axis=axes).ravel()  # block t - delta for tile t
        live = np.flatnonzero(block_max[sources] * w_max[delta] > low)
        if live.size == 0:
            continue
        window = weights[np.ix_(*[(c * b + np.arange(1 - b, b)) % m for c in delta])]
        # toeplitz[j, i] = w[delta b + i - j]: source j of a block to target i of its tile
        toeplitz = np.lib.stride_tricks.sliding_window_view(window, (b,) * d)[(slice(None, None, -1),) * d]
        toeplitz = toeplitz.reshape(b**d, b**d)
        step = max(1, 2**18 // b ** (2 * d))  # 2 MiB of products at once
        for lo in range(0, live.size, step):
            t = live[lo : lo + step]
            vals = np.max(toeplitz * blocks[sources[t], :, None], axis=1)
            out_t[t] = np.maximum(out_t[t], vals, out=vals)
            low[t] = vals.min(axis=1)
    untiled = out_t.reshape((n,) * d + (b,) * d).transpose(np.argsort(order))
    return SampledField(f.grid, untiled.reshape(f.grid.shape))


@dataclass(frozen=True)
class CubeRatioResult:
    ratio: float
    cube_index: Tuple[int, ...]
    scale: int


def peetre_cube_ratio(
    f: SampledField, sigma: float, k: int, cubes: Optional[DyadicCubeSet] = None
) -> CubeRatioResult:
    """Worst-case sup/inf of the Peetre maximal function over dyadic cubes at scale k.

    Returns an infinite ratio (flag) when some cube has zero infimum but
    positive supremum, which signals sigma too small or a support violation.
    """
    if cubes is None:
        cubes = DyadicCubeSet(f.grid, k)
    elif cubes.scale != k:
        raise ValueError(f"cube set at scale {cubes.scale} does not match k={k}")
    elif cubes.grid != f.grid:
        raise GridMismatchError(f"grid mismatch: cube set on {cubes.grid} vs field on {f.grid}")
    m = np.abs(peetre_max(f, sigma, k).values)
    sups = cubes.reduce(m, "max")
    infs = cubes.reduce(m, "min")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(sups == 0.0, 1.0, sups / infs)
    flat = int(np.argmax(ratios))
    idx = np.unravel_index(flat, sups.shape)
    worst = float(ratios[idx])
    if infs[idx] == 0.0 and sups[idx] > 0.0:
        worst = float("inf")
    return CubeRatioResult(worst, tuple(int(i) for i in idx), k)


def fefferman_stein_ratio(
    fs: Sequence[SampledField],
    scales: Sequence[int],
    sigma: float,
    p: Union[int, float, Fraction],
    q: Union[int, float, Fraction],
    band_factor: Optional[float] = None,
) -> float:
    """Mixed-norm ratio of the Peetre-maximal bank to the bank itself (always >= 1).

    ``band_factor`` is the declared constant A: when given, each field must
    certify a spectral support radius at most ``2 * A * 2**k``.
    """
    if len(fs) != len(scales):
        raise ValueError("fs and scales must align")
    if len(fs) == 0:
        raise ValueError("empty bank: the ratio needs at least one field")
    require_same_grid(*fs)
    if band_factor is not None:
        if not 0.0 < band_factor < math.inf:  # NaN fails too
            raise ValueError(f"band_factor must be positive and finite, got {band_factor}")
        for f, k in zip(fs, scales):
            if f.band is None:
                raise ValueError("fields must carry band certificates for the declared A")
            if f.band[1] > 2.0 * band_factor * 2.0**k:
                raise ValueError(
                    f"field certified to radius {f.band[1]} exceeds 2*A*2**k = "
                    f"{2.0 * band_factor * 2.0 ** k} at k={k}"
                )
    denom = mixed_norm(fs, p, q)
    if denom == 0.0:
        raise ValueError("zero bank: mixed norm of the inputs vanishes")
    numer = mixed_norm([peetre_max(f, sigma, k) for f, k in zip(fs, scales)], p, q)
    return numer / denom
