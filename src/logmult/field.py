"""Sampled periodic fields, spectra, and the norms everything else is built on.

The computational domain is a flat torus of period ``L`` per axis, sampled on a
regular grid of ``M`` points per axis (``M`` a power of two).  A
:class:`SampledField` is identified with its band-limited trigonometric
interpolant; under that identification the Fourier transform, convolution
against analytic frequency profiles, and translation by arbitrary real vectors
are all exact up to roundoff.

Conventions:

* Fourier transform  ``f_hat(xi) = integral f(x) exp(-2 pi i (x, xi)) dx``
  discretized with quadrature weight ``(L/M)**d``.
* Grid frequencies are ``k / L`` for integer ``k`` in ``(-M/2, M/2]`` per axis
  (numpy FFT ordering).
* All integrals are plain Riemann sums with weight ``(L/M)**d``; band-limited
  integrands make these spectrally accurate.

Fields and spectra are immutable after construction; every operation here is a
pure function.  A constructor copies an array its caller may still write to
and adopts, without a copy, an array handed over through :func:`frozen`.

The spectral multiplier ``profile(2**-l |xi|) * exp(-2 pi i (2**-l t, xi))``
is evaluated only on the bins its certificates allow: the spectrum's support
certificate intersected with the profile's dilated closed support, widened by
one bin.  This is exact, not an approximation: profiles are hard 0 off their
closed support and certified spectra are exactly 0 off their band, so every
skipped product was a signed zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "GridSpec",
    "SampledField",
    "Spectrum",
    "MixedNormSpec",
    "GridMismatchError",
    "NyquistError",
    "transform",
    "inverse",
    "convolve",
    "frozen",
    "bin_blocks",
    "block_frequencies",
    "translation_phase",
    "multiplier_symbol",
    "apply_multiplier",
    "piece_band",
    "piece_class",
    "ZERO",
    "PLATEAU",
    "PARTIAL",
    "dilated_steps",
    "phase_shift",
    "grid_aligned_steps",
    "lp_norm",
    "mixed_norm",
]

Exponent = Union[int, float, Fraction]
Block = Tuple[slice, ...]


class GridMismatchError(ValueError):
    """Two operands live on different grids."""


class NyquistError(ValueError):
    """A certified spectral support does not fit under the grid's Nyquist frequency."""


@dataclass(frozen=True)
class GridSpec:
    """Regular sampling grid on the d-dimensional torus of period ``period``.

    ``samples_per_axis`` must be a power of two and at least 8 so that dyadic
    cube partitions and FFT sizes stay well behaved.
    """

    dimension: int
    samples_per_axis: int
    period: float

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        m = self.samples_per_axis
        if m < 8 or (m & (m - 1)) != 0:
            raise ValueError(f"samples_per_axis must be a power of two >= 8, got {m}")
        if not (self.period > 0):
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def spacing(self) -> float:
        return self.period / self.samples_per_axis

    @property
    def nyquist(self) -> float:
        """Largest representable frequency radius, M / (2 L)."""
        return self.samples_per_axis / (2.0 * self.period)

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.samples_per_axis,) * self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    @property
    def size(self) -> int:
        return self.samples_per_axis**self.dimension

    def axis_coordinates(self) -> np.ndarray:
        return _axis_coordinates(self.samples_per_axis, self.period)

    def axis_frequencies(self) -> np.ndarray:
        return _axis_frequencies(self.samples_per_axis, self.period)

    def frequency_mesh(self) -> Tuple[np.ndarray, ...]:
        """Frequency coordinate arrays, one per axis, broadcastable to ``shape``."""
        return _frequency_mesh(self.samples_per_axis, self.period, self.dimension)

    def frequency_radii(self) -> np.ndarray:
        """|xi| on the full frequency grid."""
        return _frequency_radii(self.samples_per_axis, self.period, self.dimension)

    def coordinate_mesh(self) -> Tuple[np.ndarray, ...]:
        return _coordinate_mesh(self.samples_per_axis, self.period, self.dimension)

    def torus_distances(self) -> np.ndarray:
        """Min-image distance |x| from the origin for every grid point."""
        return _torus_distances(self.samples_per_axis, self.period, self.dimension)

    def check_supports_radius(self, radius: float) -> None:
        if radius >= self.nyquist:
            raise NyquistError(
                f"certified support radius {radius} is not strictly below the "
                f"Nyquist frequency {self.nyquist} (M={self.samples_per_axis}, L={self.period})"
            )


@lru_cache(maxsize=64)
def _axis_coordinates(m: int, period: float) -> np.ndarray:
    x = np.arange(m) * (period / m)
    x.flags.writeable = False
    return x


@lru_cache(maxsize=64)
def _axis_frequencies(m: int, period: float) -> np.ndarray:
    xi = np.fft.fftfreq(m, d=period / m)
    xi.flags.writeable = False
    return xi


@lru_cache(maxsize=64)
def _frequency_mesh(m: int, period: float, dim: int) -> Tuple[np.ndarray, ...]:
    axis = _axis_frequencies(m, period)
    if dim == 1:
        return (axis,)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij", sparse=True)
    for a in mesh:
        a.flags.writeable = False
    return tuple(mesh)

@lru_cache(maxsize=64)
def _frequency_radii(m: int, period: float, dim: int) -> np.ndarray:
    mesh = _frequency_mesh(m, period, dim)
    r = np.sqrt(sum(a**2 for a in mesh))
    r.flags.writeable = False
    return r


@lru_cache(maxsize=64)
def _coordinate_mesh(m: int, period: float, dim: int) -> Tuple[np.ndarray, ...]:
    axis = _axis_coordinates(m, period)
    if dim == 1:
        return (axis,)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij", sparse=True)
    for a in mesh:
        a.flags.writeable = False
    return tuple(mesh)


@lru_cache(maxsize=64)
def _torus_distances(m: int, period: float, dim: int) -> np.ndarray:
    axis = _axis_coordinates(m, period)
    folded = np.minimum(axis, period - axis)
    if dim == 1:
        d = folded
    else:
        mesh = np.meshgrid(*([folded] * dim), indexing="ij", sparse=True)
        d = np.sqrt(sum(a**2 for a in mesh))
    d = np.asarray(d, dtype=float)
    d.flags.writeable = False
    return d


def frozen(values: np.ndarray) -> np.ndarray:
    """Hand a freshly built array to :class:`SampledField`/:class:`Spectrum` without a copy.

    The array becomes read-only; the caller must hold no writable view of it.
    """
    values.flags.writeable = False
    return values


def _freeze(values: np.ndarray) -> np.ndarray:
    """Read-only complex128 array the caller cannot change.

    A conversion builds a fresh array and a read-only array that owns its data
    (see :func:`frozen`) is adopted as is; anything else is copied.
    """
    out = np.asarray(values, dtype=np.complex128)
    if out.base is not None or (out is values and out.flags.writeable):
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SampledField:
    """Complex samples of a periodic function, row-major over the grid.

    ``band`` is an optional certificate ``(inner, outer)`` in physical
    frequency units: the field's spectrum is guaranteed (and, where asserted,
    verified) to vanish outside the annulus ``inner <= |xi| <= outer``.
    """

    grid: GridSpec
    values: np.ndarray
    band: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        vals = _freeze(self.values)
        if vals.shape != self.grid.shape:
            if vals.size == self.grid.size:
                vals = _freeze(vals.reshape(self.grid.shape))
            else:
                raise ValueError(
                    f"values shape {vals.shape} incompatible with grid {self.grid.shape}"
                )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)
        if self.band is not None:
            inner, outer = self.band
            if not (0 <= inner <= outer):
                raise ValueError(f"invalid band certificate {self.band}")
            self.grid.check_supports_radius(outer)

    # Small arithmetic surface used for bank construction and linearity tests.
    def __add__(self, other: "SampledField") -> "SampledField":
        if not isinstance(other, SampledField):
            return NotImplemented
        require_same_grid(self, other)
        band = None
        if self.band is not None and other.band is not None:
            band = (min(self.band[0], other.band[0]), max(self.band[1], other.band[1]))
        return SampledField(self.grid, frozen(self.values + other.values), band)

    def __sub__(self, other: "SampledField") -> "SampledField":
        if not isinstance(other, SampledField):
            return NotImplemented
        return self + (other * (-1.0))

    def __mul__(self, scalar: complex) -> "SampledField":
        if isinstance(scalar, SampledField):
            return NotImplemented
        return SampledField(self.grid, frozen(self.values * complex(scalar)), self.band)

    __rmul__ = __mul__

    def pointwise(self, other: "SampledField") -> "SampledField":
        """Pointwise product; band certificates add (supports convolve in frequency)."""
        require_same_grid(self, other)
        band = None
        if self.band is not None and other.band is not None:
            outer = self.band[1] + other.band[1]
            if outer < self.grid.nyquist:
                band = (0.0, outer)
        return SampledField(self.grid, frozen(self.values * other.values), band)


@dataclass(frozen=True)
class Spectrum:
    """Discrete Fourier coefficients with an optional certified support annulus."""

    grid: GridSpec
    coefficients: np.ndarray
    support_certificate: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        coeffs = _freeze(self.coefficients)
        if coeffs.shape != self.grid.shape:
            if coeffs.size == self.grid.size:
                coeffs = _freeze(coeffs.reshape(self.grid.shape))
            else:
                raise ValueError(
                    f"coefficients shape {coeffs.shape} incompatible with grid {self.grid.shape}"
                )
        object.__setattr__(self, "coefficients", coeffs)
        if self.support_certificate is not None:
            inner, outer = self.support_certificate
            if not (0 <= inner <= outer):
                raise ValueError(f"invalid support certificate {self.support_certificate}")
            self.grid.check_supports_radius(outer)
            r = self.grid.frequency_radii()
            off = (r < inner) | (r > outer)
            if np.any(coeffs[off] != 0):
                bad = np.max(np.abs(coeffs[off]))
                raise ValueError(
                    f"support certificate {self.support_certificate} violated: "
                    f"max |coefficient| outside annulus is {bad}"
                )


@dataclass(frozen=True)
class MixedNormSpec:
    """Outer Lebesgue exponent over space, inner sequence exponent: L_p(l_q)."""

    outer_p: Exponent
    inner_q: Exponent

    def __post_init__(self):
        for name, e in (("outer_p", self.outer_p), ("inner_q", self.inner_q)):
            if not (e == np.inf or e >= 1):
                raise ValueError(f"{name} must be >= 1 or infinity, got {e}")


def require_same_grid(*objs) -> GridSpec:
    grid = objs[0].grid
    for o in objs[1:]:
        if o.grid != grid:
            raise GridMismatchError(f"grid mismatch: {o.grid} vs {grid}")
    return grid


def transform(f: SampledField) -> Spectrum:
    """Forward transform: quadrature-weighted FFT, f_hat(k/L) per grid frequency.

    A band certificate asserts the out-of-band coefficients are mathematically
    zero; FFT roundoff dust there is zeroed to keep the certificate exact.
    Content that is genuinely out of band (beyond roundoff) is an error.
    """
    coeffs = np.fft.fftn(f.values) * f.grid.cell_volume
    if f.band is not None:
        inner, outer = f.band
        r = f.grid.frequency_radii()
        off = (r < inner) | (r > outer)
        if np.any(off):
            dust = float(np.max(np.abs(coeffs[off]))) if coeffs[off].size else 0.0
            scale = float(np.max(np.abs(coeffs)))
            if scale > 0 and dust > 1e-10 * scale:
                raise ValueError(
                    f"band certificate {f.band} violated: out-of-band content "
                    f"{dust} vs in-band scale {scale}"
                )
            coeffs[off] = 0.0
    return Spectrum(f.grid, frozen(coeffs), support_certificate=f.band)


def inverse(s: Spectrum) -> SampledField:
    """Inverse transform; round-trips with :func:`transform` to roundoff."""
    return SampledField(s.grid, frozen(apply_multiplier(s)), band=s.support_certificate)


def convolve(f: SampledField, g: SampledField) -> SampledField:
    """Periodic convolution with physical weight: pointwise product of spectra."""
    require_same_grid(f, g)
    sf = transform(f)
    sg = transform(g)
    coeffs = sf.coefficients * sg.coefficients
    cert = None
    if f.band is not None and g.band is not None:
        inner = max(f.band[0], g.band[0])
        outer = min(f.band[1], g.band[1])
        if inner > outer:
            cert = (0.0, 0.0)
            coeffs = np.zeros_like(coeffs)
        else:
            cert = (inner, outer)
    return inverse(Spectrum(f.grid, frozen(coeffs), support_certificate=cert))


def grid_aligned_steps(shift: Sequence[float], grid: GridSpec) -> Optional[Tuple[int, ...]]:
    """Sample steps realizing the shift exactly, or None when off-grid.

    The spacing is the period over a power of two, so ``a / spacing`` is exact
    and only a whole number of samples counts as aligned: a shift a hair off
    the grid keeps its sub-sample part instead of being rounded onto it.
    """
    steps = []
    for a in shift:
        t = a / grid.spacing
        r = round(t)
        if t != r:
            return None
        steps.append(int(r) % grid.samples_per_axis)
    return tuple(steps)


# ---------------------------------------------------------------------------
# the spectral multiplier: profile(2**-l |xi|) * exp(-2 pi i (2**-l t, xi))
# ---------------------------------------------------------------------------

def _axis_slices(m: int, lo: int, hi: int) -> List[slice]:
    """FFT-order index slices holding the integer frequencies ``lo..hi`` of an ``m``-point axis."""
    lo, hi = max(lo, -(m // 2)), min(hi, m // 2 - 1)
    out = []
    if lo <= min(hi, -1):
        out.append(slice(m + lo, m + min(hi, -1) + 1))
    if max(lo, 0) <= hi:
        out.append(slice(max(lo, 0), hi + 1))
    return out


def bin_blocks(grid: GridSpec, windows: Sequence[Sequence[Tuple[float, float]]]) -> List[Block]:
    """Blocks of grid bins, as index slices, covering every frequency in the per-axis windows.

    ``windows[i]`` lists closed intervals of axis-``i`` frequencies; a block is
    one interval (or its two wrapped halves) per axis.  Each edge is widened by
    one bin, so roundoff in ``k / L`` never drops a bin.
    """
    per_axis = []
    for intervals in windows:
        ks = sorted(
            (math.ceil(a * grid.period) - 1, math.floor(b * grid.period) + 1) for a, b in intervals
        )
        merged: List[List[int]] = []
        for lo, hi in ks:
            if lo > hi:
                continue
            if merged and lo <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        per_axis.append([s for lo, hi in merged for s in _axis_slices(grid.samples_per_axis, lo, hi)])
    return list(itertools.product(*per_axis))


def _band_blocks(grid: GridSpec, band: Optional[Tuple[float, float]]) -> List[Block]:
    """Blocks holding every bin with ``inner <= |xi| <= outer``; the whole grid for None.

    1-D: the positive and the mirrored negative interval.  2-D: the box
    ``|xi_i| <= outer``, four corner blocks.
    """
    if band is None:
        return [(slice(None),) * grid.dimension]
    inner, outer = band
    if grid.dimension == 1:
        return bin_blocks(grid, [[(-outer, -inner), (inner, outer)]])
    return bin_blocks(grid, [[(-outer, outer)]] * grid.dimension)


def block_frequencies(grid: GridSpec, block: Optional[Block] = None) -> Tuple[np.ndarray, ...]:
    """Axis frequencies on ``block`` (default: the whole grid), broadcastable over it."""
    axis = grid.axis_frequencies()
    d = grid.dimension
    block = block or (slice(None),) * d
    return tuple(axis[s].reshape((1,) * i + (-1,) + (1,) * (d - 1 - i)) for i, s in enumerate(block))


def translation_phase(grid: GridSpec, shift: Sequence[float], block: Optional[Block] = None) -> np.ndarray:
    """``exp(-2 pi i (shift, xi))`` on the grid frequencies (or on ``block`` of them)."""
    phase_arg = sum(a * axis for a, axis in zip(shift, block_frequencies(grid, block)))
    return np.exp(-2j * np.pi * phase_arg)


def _dilated_shift(translation: Optional[Sequence[float]], scale: int) -> Optional[np.ndarray]:
    """``2**-scale * translation``, or None when there is nothing to translate."""
    if translation is None:
        return None
    shift = np.atleast_1d(np.asarray(translation, dtype=float)) * 2.0**-scale
    return shift if np.any(shift != 0.0) else None


def dilated_steps(
    grid: GridSpec, translation: Optional[Sequence[float]], scale: int
) -> Optional[Tuple[int, ...]]:
    """Sample steps realizing ``2**-scale * translation`` exactly, or None when off-grid.

    No translation (or a zero one) is the all-zero step vector.
    """
    shift = _dilated_shift(translation, scale)
    if shift is None:
        return (0,) * grid.dimension
    return grid_aligned_steps(shift, grid)


def _symbol_band(
    certificate: Optional[Tuple[float, float]], profile, scale: int
) -> Optional[Tuple[float, float]]:
    """Closed band outside which ``coefficients * profile(2**-scale |xi|)`` vanishes.

    The certificate intersected with the dilated profile support; either one
    alone when the other is absent; None (the whole grid) when neither is.
    """
    if profile is None:
        return certificate
    lo, hi = profile.support[0] * 2.0**scale, profile.support[1] * 2.0**scale
    if certificate is None:
        return (lo, hi)
    return (max(lo, certificate[0]), min(hi, certificate[1]))


def _on_band(
    grid: GridSpec,
    coefficients: Optional[np.ndarray],
    band: Optional[Tuple[float, float]],
    profile,
    scale: int,
    shift: Optional[np.ndarray],
) -> np.ndarray:
    """``coefficients * profile(2**-scale |xi|) * phase`` on the bins of ``band``, 0 elsewhere.

    ``coefficients=None`` is 1, ``profile=None`` is 1 and ``shift=None`` is no
    phase.  The phase is the left operand of the last product, as when numpy
    evaluates a large whole-grid ``coefficients * phase`` in the phase's
    temporary buffer: with fused multiply-adds, a complex product depends on
    the operand order.
    """
    out = np.zeros(grid.shape, dtype=np.complex128)
    for block in _band_blocks(grid, band):
        values = 1.0 if coefficients is None else coefficients[block]
        if profile is not None:
            values = values * profile(grid.frequency_radii()[block] * 2.0**-scale)
        if shift is not None:
            phase = translation_phase(grid, shift, block)
            phase *= values
            values = phase
        out[block] = values
    return out


def multiplier_symbol(
    grid: GridSpec, profile, scale: int = 0, translation: Optional[Sequence[float]] = None
) -> np.ndarray:
    """The symbol ``profile(2**-l |xi|) * exp(-2 pi i (2**-l t, xi))`` on the grid frequencies.

    Evaluated only on the bins of the profile's dilated support; 0 elsewhere.
    """
    shift = _dilated_shift(translation, scale)
    return _on_band(grid, None, _symbol_band(None, profile, scale), profile, scale, shift)


def apply_multiplier(
    spectrum: Spectrum,
    profile=None,
    scale: int = 0,
    translation: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Samples of the inverse transform of ``spectrum`` times :func:`multiplier_symbol`.

    ``profile=None`` is the constant 1.  A grid-aligned dilated translation
    rolls the untranslated samples (an exact permutation); any other one
    multiplies by :func:`translation_phase`.  Profile and phase are evaluated
    only on the bins where the spectrum's support certificate meets the
    profile's dilated closed support (either one alone when the other is
    absent).  Every other product is a signed zero, because profiles are hard
    0 off their support and certified coefficients are exactly 0 off their
    band, so the result equals the whole-grid evaluation.
    """
    grid = spectrum.grid
    shift = _dilated_shift(translation, scale)
    steps = None if shift is None else grid_aligned_steps(shift, grid)
    phase = shift if steps is None else None
    if profile is None and phase is None:
        coeffs = spectrum.coefficients
    else:
        band = _symbol_band(spectrum.support_certificate, profile, scale)
        coeffs = _on_band(grid, spectrum.coefficients, band, profile, scale, phase)
    values = np.fft.ifftn(coeffs)
    values /= grid.cell_volume
    if steps is not None:
        values = np.roll(values, steps, axis=tuple(range(grid.dimension)))
    return values


def piece_band(
    f: SampledField, support: Tuple[float, float], scale: int
) -> Optional[Tuple[float, float]]:
    """Certified band of the scale-``scale`` piece of ``f`` under a profile supported on ``support``.

    Intervals are closed; None certifies that the piece is identically zero.
    A field without a band certificate is only accepted while the dilated
    support stays below Nyquist, where the piece is exactly representable.
    """
    lo, hi = support[0] * 2.0**scale, support[1] * 2.0**scale
    if f.band is None:
        if hi >= f.grid.nyquist:
            raise NyquistError(
                f"dilated support reaches {hi} at scale {scale}, not below the Nyquist "
                f"frequency {f.grid.nyquist}, and the field carries no band certificate"
            )
        return (lo, hi)
    inner = max(lo, f.band[0])
    outer = min(hi, f.band[1])
    return None if inner > outer else (inner, outer)


ZERO, PLATEAU, PARTIAL = "zero", "plateau", "partial"


def piece_class(f: SampledField, profile, scale: int) -> str:
    """Dispatch class of the scale-``scale`` piece of ``f`` under ``profile``.

    * ``ZERO``: :func:`piece_band` certifies the piece identically zero.
    * ``PLATEAU``: the band certificate of ``f`` lies inside the profile's
      dilated closed plateau ``2**scale * profile.plateau``, so the profile is
      exactly 1.0 on every bin :func:`transform` leaves nonzero (dividing a
      radius by ``2**scale`` is exact, and the profiles' ramps reach 1 exactly
      at the plateau edge), and the piece is the input translated by
      ``2**-scale`` times the shift.
    * ``PARTIAL``: the profile must be evaluated.

    A profile without a ``plateau`` (the telescoped annulus is 1 only on the
    sphere ``|xi| = 1``) and a field without a band certificate are never
    ``PLATEAU``.
    """
    if piece_band(f, profile.support, scale) is None:
        return ZERO
    plateau = getattr(profile, "plateau", None)
    if plateau is not None and f.band is not None:
        dilation = 2.0**scale
        if plateau[0] * dilation <= f.band[0] and f.band[1] <= plateau[1] * dilation:
            return PLATEAU
    return PARTIAL


def phase_shift(f: SampledField, shift: Sequence[float]) -> SampledField:
    """Exact translation x -> f(x - shift) for arbitrary real shifts.

    Grid-aligned shifts take a sample-roll path (bit-exact permutation);
    everything else goes through the spectrum with unimodular phases.
    """
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if shift.shape != (f.grid.dimension,):
        raise ValueError(f"shift must have length {f.grid.dimension}, got {shift.shape}")
    steps = grid_aligned_steps(shift, f.grid)
    if steps is not None:
        values = np.roll(f.values, steps, axis=tuple(range(f.grid.dimension)))
    else:
        values = apply_multiplier(transform(f), translation=shift)
    return SampledField(f.grid, frozen(values), band=f.band)


def _as_float_exponent(p: Exponent) -> float:
    if p == np.inf:
        return np.inf
    return float(p)


def _peak_exponent(mags: np.ndarray) -> Optional[int]:
    """Binary exponent e with max(mags) < 2**e, or None when every entry is zero.

    Dividing by 2**e is exact and keeps every power of the quotient finite.
    """
    peak = float(np.max(mags))
    return int(np.frexp(peak)[1]) if peak > 0.0 else None


def lp_norm(f: SampledField, p: Exponent) -> float:
    """Riemann-sum L_p quadrature norm; max modulus when p is infinity."""
    q = _as_float_exponent(p)
    if q != np.inf and q < 1:
        raise ValueError(f"p must be >= 1 or infinity, got {p}")
    mags = np.abs(f.values)
    if q == np.inf:
        return float(np.max(mags))
    e = _peak_exponent(mags)
    if e is None:
        return 0.0
    mags = np.ldexp(mags, -e)
    if q == 2.0:
        norm = np.sqrt(np.sum(mags**2) * f.grid.cell_volume)
    else:
        norm = (np.sum(mags**q) * f.grid.cell_volume) ** (1.0 / q)
    return float(np.ldexp(norm, e))


def mixed_norm(fs: Sequence[SampledField], spec: MixedNormSpec) -> float:
    """Inner l_q over the sequence index pointwise, then outer L_p quadrature."""
    if len(fs) == 0:
        raise ValueError("mixed_norm of an empty sequence")
    grid = require_same_grid(*fs)
    q = _as_float_exponent(spec.inner_q)
    p = _as_float_exponent(spec.outer_p)
    stack = np.stack([np.abs(f.values) for f in fs])
    e = _peak_exponent(stack)
    if e is None:
        return 0.0
    stack = np.ldexp(stack, -e)
    if q == np.inf:
        inner = np.max(stack, axis=0)
    else:
        inner = np.sum(stack**q, axis=0) ** (1.0 / q)
    if p == np.inf:
        norm = np.max(inner)
    else:
        norm = (np.sum(inner**p) * grid.cell_volume) ** (1.0 / p)
    return float(np.ldexp(norm, e))
