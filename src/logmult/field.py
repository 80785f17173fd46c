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

Support certificates are :class:`Shells`: unions of closed shells
``{xi : inner <= |xi - center| <= outer}``.  A radial band ``(inner, outer)``
is the single shell centred at the origin, and a packet is a ball around its
carrier frequency, so a train of separated packets is certified packet by
packet.  ``SampledField.band`` and ``Spectrum.support_certificate`` read as
the union's radial hull.  Certificates are checked and enforced on the bin
blocks that can hold certified bins, never on a whole-grid mask.

A field made by :func:`inverse` from a certified spectrum keeps its coefficients on
the certificate's bin blocks (``kept``) and is *deferred*: its samples are computed
when ``values`` is first read.  :func:`transform` scatters the kept
coefficients back and :func:`lp_norm` reads L_2 and L_4 from them, without an FFT.

The spectral multiplier ``profile(2**-l |xi|) * exp(-2 pi i (2**-l t, xi))``
is evaluated only on the bins its certificates allow: the spectrum's support
certificate met with the profile's dilated closed support, widened by one
bin.  This is exact, not an approximation: profiles are hard 0 off their
closed support and certified spectra are exactly 0 off their shells, so every
skipped product was a signed zero.  Products of such pieces are formed
band-locally (:func:`add_box_product`): each piece's certified bin box is
multiplied on the smallest power-of-two grid its product cannot wrap on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "GridSpec",
    "Shell",
    "Shells",
    "SampledField",
    "Spectrum",
    "MixedNormSpec",
    "GridMismatchError",
    "NyquistError",
    "transform",
    "inverse",
    "certify",
    "conjugate",
    "convolve",
    "frozen",
    "bin_blocks",
    "block_frequencies",
    "translation_phase",
    "multiplier_symbol",
    "apply_multiplier",
    "box_piece",
    "symbol_box",
    "add_box_product",
    "piece_shells",
    "piece_band",
    "piece_class",
    "piece_plan",
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
# ``(first, values)``: coefficients at the signed bins ``first + [0, w)`` per axis
BoxPiece = Tuple[Tuple[int, ...], np.ndarray]


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
        if not (0 < self.period < math.inf):
            raise ValueError(f"period must be positive and finite, got {self.period}")

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


class Shell(NamedTuple):
    """The closed shell ``{xi : inner <= |xi - center| <= outer}``; a ball when ``inner`` is 0."""

    center: Tuple[float, ...]
    inner: float
    outer: float


# Off-centre range tests compare distances from different centres, which round
# apart by a few ulps; widening such ranges by this relative slack keeps every
# decision sound.  Ranges about a shell's own centre are exact and unwidened.
_OFF_CENTRE_SLACK = 1e-12


def _distance_range(shell: Shell, point: Sequence[float], slack: bool = False) -> Tuple[float, float]:
    """Closed range of ``|xi - point|`` over ``shell``: exact about its centre, a hull elsewhere."""
    delta = math.dist(shell.center, point)
    if delta == 0.0:
        return shell.inner, shell.outer
    lo, hi = max(0.0, delta - shell.outer, shell.inner - delta), delta + shell.outer
    pad = _OFF_CENTRE_SLACK * hi if slack else 0.0
    return lo - pad, hi + pad


@dataclass(frozen=True)
class Shells:
    """A spectral support certificate: the union of closed shells ``parts``.

    The spectrum is certified to vanish at every frequency outside the union.
    ``Shells.radial(inner, outer, d)`` is the classical annulus; an empty union
    certifies zero.  Parts are kept sorted and without repeats.
    """

    parts: Tuple[Shell, ...]

    def __post_init__(self):
        parts = []
        for center, inner, outer in self.parts:
            if not (0 <= inner <= outer < math.inf):
                raise ValueError(f"invalid support certificate shell {(center, inner, outer)}")
            parts.append(Shell(tuple(float(c) for c in center), float(inner), float(outer)))
        object.__setattr__(self, "parts", tuple(sorted(set(parts))))

    @classmethod
    def radial(cls, inner: float, outer: float, dimension: int) -> "Shells":
        return cls((Shell((0.0,) * dimension, inner, outer),))

    @property
    def hull(self) -> Tuple[float, float]:
        """The radial band ``(inner, outer)`` containing the union; ``(0, 0)`` when empty."""
        if not self.parts:
            return (0.0, 0.0)
        ranges = [_distance_range(s, (0.0,) * len(s.center)) for s in self.parts]
        return min(lo for lo, _ in ranges), max(hi for _, hi in ranges)

    def scaled(self, factor: float) -> "Shells":
        """The image under ``xi -> factor xi``: centres times ``factor``, radii times ``|factor|``."""
        a = abs(factor)
        return Shells(tuple(Shell(tuple(factor * x for x in c), a * lo, a * hi) for c, lo, hi in self.parts))

    def __or__(self, other: "Shells") -> "Shells":
        return Shells(self.parts + other.parts)

    def __add__(self, other: "Shells") -> "Shells":
        """Minkowski sum: the support of a product of fields certified by the two unions."""
        return Shells(tuple(
            Shell(
                tuple(a + b for a, b in zip(s.center, t.center)),
                max(0.0, s.inner - t.outer, t.inner - s.outer),
                s.outer + t.outer,
            )
            for s in self.parts
            for t in other.parts
        ))

    def meet(self, other: "Shells") -> "Shells":
        """A union containing the intersection, built from this union's shells.

        Concentric shells intersect exactly; a shell whose range of distances
        from another centre misses that shell is dropped; any other shell is
        kept whole.
        """
        out = []
        for s in self.parts:
            for t in other.parts:
                if s.center == t.center:
                    inner, outer = max(s.inner, t.inner), min(s.outer, t.outer)
                    if inner <= outer:
                        out.append(Shell(s.center, inner, outer))
                    continue
                lo, hi = _distance_range(s, t.center, slack=True)
                if hi >= t.inner and lo <= t.outer:
                    out.append(s)
        return Shells(tuple(out))

    def within(self, grid: GridSpec, inner: float, outer: float) -> bool:
        """Whether every bin of the union on ``grid`` lies in the closed annulus ``inner <= |xi| <= outer``.

        A shell about the origin is tested by its own radii.  An off-centre
        shell is tested by the radii of its bins, as :meth:`GridSpec.frequency_radii`
        gives them (the radii profiles are evaluated at), so it needs no slack.
        """
        for s in self.parts:
            lo, hi = _bin_radii(grid, Shells((s,))) if any(s.center) else (s.inner, s.outer)
            if lo < inner or hi > outer:
                return False
        return True

    def windows(self, dimension: int) -> List[List[Tuple[float, float]]]:
        """Per-axis frequency intervals whose product blocks cover the union (see :func:`bin_blocks`).

        1-D: the two intervals of each shell.  2-D: each shell's bounding box.
        """
        if dimension == 1:
            return [[iv for (c,), a, b in self.parts for iv in ((c - b, c - a), (c + a, c + b))]]
        return [
            [(s.center[i] - s.outer, s.center[i] + s.outer) for s in self.parts] for i in range(dimension)
        ]

    def contains(self, grid: GridSpec, block: "Block") -> np.ndarray:
        """Boolean mask of the bins of ``block`` that lie in the union.

        About the origin the distance is bit for bit the radius
        :meth:`GridSpec.frequency_radii` computes, so a radial certificate
        admits exactly the bins it always has.
        """
        freqs = block_frequencies(grid, block)
        inside = np.zeros(np.broadcast_shapes(*(f.shape for f in freqs)), dtype=bool)
        for center, inner, outer in self.parts:
            dist = np.sqrt(sum((f - c) ** 2 for f, c in zip(freqs, center)))
            inside |= (inner <= dist) & (dist <= outer)
        return inside


@dataclass(frozen=True)
class SampledField:
    """Complex samples of a periodic function, row-major over the grid.

    ``shells`` is an optional support certificate: the field's spectrum is
    guaranteed (and, where asserted, verified) to vanish off the union.
    ``band`` is its radial hull ``(inner, outer)`` in physical frequency
    units; a field given only a ``band`` is certified by that annulus.

    ``kept``, when set, holds the exact spectrum as :data:`BoxPiece` boxes.
    :func:`inverse` of a certified spectrum, :func:`conjugate` and ``*`` set
    it and build *deferred* fields, whose ``values`` are computed on first
    read and cached, bit for bit what an eager construction stores.  Every
    other constructor samples at once and keeps nothing.
    """

    grid: GridSpec
    values: np.ndarray
    band: Optional[Tuple[float, float]] = None
    shells: Optional[Shells] = None
    kept: Optional[Tuple[BoxPiece, ...]] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        vals = _freeze(self.values)
        if vals.shape != self.grid.shape:
            if vals.size == self.grid.size:
                vals = _freeze(vals.reshape(self.grid.shape))
            else:
                raise ValueError(
                    f"values shape {vals.shape} incompatible with grid {self.grid.shape}"
                )
        _require_finite(vals, "field values")
        object.__setattr__(self, "values", vals)
        band, shells = _certificate(self.grid, self.band, self.shells)
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "shells", shells)

    def __getattr__(self, name: str):
        # reached only for attributes the instance does not hold: the samples of a deferred field
        sampler = self.__dict__.get("_sampler") if name == "values" else None
        if sampler is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = frozen(sampler(self))
        _require_finite(values, "field values")
        object.__setattr__(self, "values", values)
        del self.__dict__["_sampler"]
        return values

    # Small arithmetic surface used for bank construction and linearity tests.
    def __add__(self, other: "SampledField") -> "SampledField":
        if not isinstance(other, SampledField):
            return NotImplemented
        require_same_grid(self, other)
        shells = None
        if self.shells is not None and other.shells is not None:
            shells = self.shells | other.shells
        return SampledField(self.grid, frozen(self.values + other.values), shells=shells)

    def __sub__(self, other: "SampledField") -> "SampledField":
        if not isinstance(other, SampledField):
            return NotImplemented
        return self + (other * (-1.0))

    def __mul__(self, scalar: complex) -> "SampledField":
        if isinstance(scalar, SampledField):
            return NotImplemented
        c = complex(scalar)
        if self.kept is None:
            return SampledField(self.grid, frozen(self.values * c), shells=self.shells)
        kept = tuple((first, frozen(values * c)) for first, values in self.kept)
        return _deferred(self.grid, self.shells, kept, lambda _: self.values * c)

    __rmul__ = __mul__

    def pointwise(self, other: "SampledField") -> "SampledField":
        """Pointwise product, certified by the Minkowski sum of the two certificates.

        A sum reaching Nyquist would alias on the grid: :class:`NyquistError`.
        """
        require_same_grid(self, other)
        shells = None
        if self.shells is not None and other.shells is not None:
            shells = self.shells + other.shells
        return SampledField(self.grid, frozen(self.values * other.values), shells=shells)


def _certificate(
    grid: GridSpec, band: Optional[Tuple[float, float]], shells: Optional[Shells]
) -> Tuple[Optional[Tuple[float, float]], Optional[Shells]]:
    """``(radial hull, union)`` from a band or a union; the union must fit below Nyquist."""
    if shells is None:
        if band is None:
            return None, None
        inner, outer = band
        if not (0 <= inner <= outer):
            raise ValueError(f"invalid band certificate {band}")
        shells = Shells.radial(inner, outer, grid.dimension)
    elif band is not None and tuple(band) != shells.hull:
        raise ValueError(f"band {band} is not the radial hull {shells.hull} of the certificate")
    if any(len(s.center) != grid.dimension for s in shells.parts):
        raise ValueError(f"certificate shells do not live in dimension {grid.dimension}")
    hull = shells.hull
    grid.check_supports_radius(hull[1])
    return hull, shells


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values.view(np.float64))):
        raise ValueError(f"{what} must be finite")


def _deferred(grid: GridSpec, shells: Shells, kept: Tuple[BoxPiece, ...], sampler) -> SampledField:
    """A field certified by ``shells`` with (finite) spectrum ``kept``, whose samples ``sampler(field)`` computes when first read."""
    for _, values in kept:
        _require_finite(values, "field coefficients")
    f = object.__new__(SampledField)
    for name, value in (("grid", grid), ("band", shells.hull), ("shells", shells), ("kept", kept), ("_sampler", sampler)):
        object.__setattr__(f, name, value)
    return f


@lru_cache(maxsize=32)
def _certified_bins(grid: GridSpec, shells: Shells) -> Tuple[Tuple[Block, np.ndarray], ...]:
    """Disjoint blocks holding every bin of ``shells``, each with its (read-only) mask of certified bins.

    Cached like the grid's frequency arrays: the same certificate is checked
    by every transform and spectrum that carries it.
    """
    out = []
    for block in _band_blocks(grid, shells):
        inside = shells.contains(grid, block)
        inside.flags.writeable = False
        out.append((block, inside))
    return tuple(out)


@lru_cache(maxsize=64)
def _bin_radii(grid: GridSpec, shells: Shells) -> Tuple[float, float]:
    """Least and greatest :meth:`GridSpec.frequency_radii` over the bins of ``shells``; ``(inf, -inf)`` for none."""
    radii = np.concatenate([grid.frequency_radii()[b][inside] for b, inside in _certified_bins(grid, shells)] + [[]])
    return float(np.min(radii, initial=math.inf)), float(np.max(radii, initial=-math.inf))


def _max_modulus(values: np.ndarray) -> float:
    return float(np.max(np.abs(values), initial=0.0))


@dataclass(frozen=True)
class Spectrum:
    """Discrete Fourier coefficients with an optional support certificate.

    As for :class:`SampledField`, ``shells`` is the certificate and
    ``support_certificate`` its radial hull (or the annulus it was given).
    Coefficients off the certificate must be exactly zero; the check counts
    the nonzero coefficients on the certified bins against the whole array's.
    """

    grid: GridSpec
    coefficients: np.ndarray
    support_certificate: Optional[Tuple[float, float]] = None
    shells: Optional[Shells] = None

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
        hull, shells = _certificate(self.grid, self.support_certificate, self.shells)
        object.__setattr__(self, "support_certificate", hull)
        object.__setattr__(self, "shells", shells)
        if shells is None:
            return
        bins = _certified_bins(self.grid, shells)
        certified = sum(np.count_nonzero(coeffs[block][inside]) for block, inside in bins)
        if certified != np.count_nonzero(coeffs):
            off = coeffs.copy()
            for block, inside in bins:
                off[block][inside] = 0.0
            raise ValueError(
                f"support certificate {hull} violated: "
                f"max |coefficient| off the certificate is {_max_modulus(off)}"
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


def certify(grid: GridSpec, coefficients: np.ndarray, shells: Optional[Shells]) -> Spectrum:
    """Spectrum of fresh ``coefficients``, roundoff dust off ``shells`` zeroed in place (more is an error).

    The certified bins are set aside block by block, the rest cleared, and the certified bins put back.
    """
    if shells is not None:
        scale = _max_modulus(coefficients)
        bins = _certified_bins(grid, shells)
        certified = [coefficients[block][inside] for block, inside in bins]
        for block, inside in bins:
            coefficients[block][inside] = 0.0
        dust = _max_modulus(coefficients)
        if scale > 0 and dust > 1e-10 * scale:
            raise ValueError(f"band certificate {shells.hull} violated: "
                             f"out-of-band content {dust} vs in-band scale {scale}")
        coefficients[...] = 0.0
        for (block, inside), values in zip(bins, certified):
            coefficients[block][inside] = values
    return Spectrum(grid, frozen(coefficients), shells=shells)


def transform(f: SampledField) -> Spectrum:
    """Forward transform, f_hat(k/L) per grid frequency: ``kept`` coefficients
    scattered into zeros, else a quadrature-weighted FFT, :func:`certify`-ed."""
    if f.kept is None:
        coeffs = np.fft.fftn(f.values)
        coeffs *= f.grid.cell_volume
        return certify(f.grid, coeffs, f.shells)
    return Spectrum(f.grid, frozen(_scattered(f)), shells=f.shells)


def _scattered(f: SampledField) -> np.ndarray:
    """A fresh full-size array of ``f``'s kept coefficients, zero elsewhere."""
    coeffs = np.zeros(f.grid.shape, dtype=np.complex128)
    for first, values in f.kept:
        coeffs[_box_index(f.grid, first, values.shape)] = values
    return coeffs


def _kept_samples(f: SampledField) -> np.ndarray:
    """Samples of ``f`` from its kept spectrum: the inverse FFT :func:`apply_multiplier` takes, run in place."""
    coeffs = _scattered(f)
    np.fft.ifftn(coeffs, out=coeffs)
    coeffs /= f.grid.cell_volume
    return coeffs


def inverse(s: Spectrum) -> SampledField:
    """Inverse transform; round-trips with :func:`transform` (exactly, for a certified ``s``).

    A certified ``s`` gives a deferred field keeping its (finite) coefficients
    on the certificate's bin blocks; an uncertified one is inverted at once.
    """
    if s.shells is None:
        return SampledField(s.grid, frozen(apply_multiplier(s)))
    m = s.grid.samples_per_axis
    kept = tuple(
        (tuple(b.start - m if b.start >= m // 2 else b.start for b in block), frozen(s.coefficients[block].copy()))
        for block, _ in _certified_bins(s.grid, s.shells)
    )
    return _deferred(s.grid, s.shells, kept, _kept_samples)


def _reflected(piece: BoxPiece) -> BoxPiece:
    """The box of ``conj(f_hat(-xi))`` from a box of ``f_hat``: bins negated, values flipped and conjugated."""
    first, values = piece
    return tuple(-(k + w - 1) for k, w in zip(first, values.shape)), np.conj(np.flip(values))


def conjugate(f: SampledField) -> SampledField:
    """``conj(f(x))``, with spectrum ``conj(f_hat(-xi))``: shells and kept boxes reflect, no FFT runs."""
    shells = None if f.shells is None else f.shells.scaled(-1.0)
    if f.kept is None:
        return SampledField(f.grid, frozen(np.conj(f.values)), shells=shells)
    kept = tuple((first, frozen(values)) for first, values in map(_reflected, f.kept))
    return _deferred(f.grid, shells, kept, lambda _: np.conj(f.values))


def convolve(f: SampledField, g: SampledField) -> SampledField:
    """Periodic convolution with physical weight: pointwise product of spectra."""
    require_same_grid(f, g)
    sf = transform(f)
    sg = transform(g)
    coeffs = sf.coefficients * sg.coefficients
    shells = None
    if f.shells is not None and g.shells is not None:
        shells = f.shells.meet(g.shells)
        if not shells.parts:
            shells = Shells.radial(0.0, 0.0, f.grid.dimension)
            coeffs = np.zeros_like(coeffs)
    return inverse(Spectrum(f.grid, frozen(coeffs), shells=shells))


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


def _widened_bins(a: float, b: float, period: float) -> Tuple[int, int]:
    """Signed bins holding every frequency in ``[a, b]``, widened by one bin each side."""
    return math.ceil(a * period) - 1, math.floor(b * period) + 1


def bin_blocks(grid: GridSpec, windows: Sequence[Sequence[Tuple[float, float]]]) -> List[Block]:
    """Blocks of grid bins, as index slices, covering every frequency in the per-axis windows.

    ``windows[i]`` lists closed intervals of axis-``i`` frequencies; a block is
    one interval (or its two wrapped halves) per axis.  Each edge is widened by
    one bin, so roundoff in ``k / L`` never drops a bin.
    """
    per_axis = []
    for intervals in windows:
        ks = sorted(_widened_bins(a, b, grid.period) for a, b in intervals)
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


def _box_index(grid: GridSpec, first: Sequence[int], shape: Sequence[int]) -> Tuple[np.ndarray, ...]:
    """Open-mesh index of the signed bins ``first + [0, w)`` per axis, wrapped onto the grid."""
    m = grid.samples_per_axis
    return np.ix_(*((k + np.arange(w)) % m for k, w in zip(first, shape)))


def _band_blocks(grid: GridSpec, shells: Optional[Shells]) -> List[Block]:
    """Disjoint blocks holding every bin of ``shells``; the whole grid for None.

    A radial shell gives, in 1-D, the positive and the mirrored negative
    interval and, in 2-D, the box ``|xi_i| <= outer``: four corner blocks.
    """
    if shells is None:
        return [(slice(None),) * grid.dimension]
    return bin_blocks(grid, shells.windows(grid.dimension))


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


def _dilated_support(support: Tuple[float, float], scale: int, dimension: int) -> Shells:
    return Shells.radial(support[0] * 2.0**scale, support[1] * 2.0**scale, dimension)


def _symbol_shells(shells: Optional[Shells], profile, scale: int, dimension: int) -> Optional[Shells]:
    """Certificate off which ``coefficients * profile(2**-scale |xi|)`` vanishes.

    The spectrum's certificate met with the dilated profile support; either
    one alone when the other is absent; None (the whole grid) when neither is.
    """
    if profile is None:
        return shells
    support = _dilated_support(profile.support, scale, dimension)
    return support if shells is None else shells.meet(support)


def _symbol_times(grid: GridSpec, values, block: Block, profile, scale: int, shift: Optional[np.ndarray]):
    """``values * profile(2**-scale |xi|) * phase`` on the bins of ``block``.

    ``profile=None`` is 1 and ``shift=None`` is no phase.  The phase is the
    left operand of the last product, as when numpy evaluates a large
    whole-grid ``coefficients * phase`` in the phase's temporary buffer: with
    fused multiply-adds, a complex product depends on the operand order.
    """
    if profile is not None:
        values = values * profile(grid.frequency_radii()[block] * 2.0**-scale)
    if shift is not None:
        phase = translation_phase(grid, shift, block)
        phase *= values
        values = phase
    return values


def _on_band(
    grid: GridSpec,
    coefficients: Optional[np.ndarray],
    shells: Optional[Shells],
    profile,
    scale: int,
    shift: Optional[np.ndarray],
) -> np.ndarray:
    """:func:`_symbol_times` on the bins of ``shells`` (``coefficients=None`` is 1), 0 elsewhere."""
    out = np.zeros(grid.shape, dtype=np.complex128)
    for block in _band_blocks(grid, shells):
        values = 1.0 if coefficients is None else coefficients[block]
        out[block] = _symbol_times(grid, values, block, profile, scale, shift)
    return out


def multiplier_symbol(
    grid: GridSpec, profile, scale: int = 0, translation: Optional[Sequence[float]] = None
) -> np.ndarray:
    """The symbol ``profile(2**-l |xi|) * exp(-2 pi i (2**-l t, xi))`` on the grid frequencies.

    Evaluated only on the bins of the profile's dilated support; 0 elsewhere.
    """
    shift = _dilated_shift(translation, scale)
    shells = _symbol_shells(None, profile, scale, grid.dimension)
    return _on_band(grid, None, shells, profile, scale, shift)


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
    shells, so the result equals the whole-grid evaluation.
    """
    grid = spectrum.grid
    shift = _dilated_shift(translation, scale)
    steps = None if shift is None else grid_aligned_steps(shift, grid)
    phase = shift if steps is None else None
    if profile is None and phase is None:
        values = np.fft.ifftn(spectrum.coefficients)
    else:
        shells = _symbol_shells(spectrum.shells, profile, scale, grid.dimension)
        coeffs = _on_band(grid, spectrum.coefficients, shells, profile, scale, phase)
        values = np.fft.ifftn(coeffs, out=coeffs)  # the product is ours: no second full-size array
    values /= grid.cell_volume
    if steps is not None:
        values = np.roll(values, steps, axis=tuple(range(grid.dimension)))
    return values


# ---------------------------------------------------------------------------
# band-local products of multiplier pieces
# ---------------------------------------------------------------------------

def _box(grid: GridSpec, shells: Shells) -> Tuple[Tuple[int, ...], Tuple[np.ndarray, ...]]:
    """First signed bin, per axis, and the open-mesh index of a box holding every bin of ``shells``.

    Edges are widened as in :func:`bin_blocks`; a box as wide as the grid is
    the whole axis.
    """
    m = grid.samples_per_axis
    first, widths = [], []
    for intervals in shells.windows(grid.dimension):
        ks = [_widened_bins(a, b, grid.period) for a, b in intervals]
        lo, hi = min(k for k, _ in ks), max(k for _, k in ks)
        width = hi - lo + 1
        first.append(lo if width < m else -(m // 2))
        widths.append(min(width, m))
    return tuple(first), _box_index(grid, first, widths)


def box_piece(
    spectrum: Spectrum,
    shells: Shells,
    profile=None,
    scale: int = 0,
    translation: Optional[Sequence[float]] = None,
) -> BoxPiece:
    """``(first, values)``: one multiplier piece on the certified bin box of ``shells``.

    ``values`` holds ``coefficients * profile(2**-scale |xi|) *
    exp(-2 pi i (2**-scale t, xi))`` at the signed bins ``first + [0, w)`` per
    axis: the coefficients :func:`apply_multiplier` inverts, on the box (a
    grid-aligned translation, which it applies as a roll, is the roll's phase).
    ``shells`` must hold every bin where the product can be nonzero, as the
    certificate :func:`piece_plan` returns does.
    """
    grid = spectrum.grid
    m = grid.samples_per_axis
    first, box = _box(grid, shells)
    shift = _dilated_shift(translation, scale)
    steps = None if shift is None else grid_aligned_steps(shift, grid)
    values = _symbol_times(
        grid, spectrum.coefficients[box], box, profile, scale, shift if steps is None else None
    )
    if steps is not None:
        # the roll by `steps` samples as a phase, its argument reduced modulo M in
        # integers, so it stays as exact as the roll for any size of shift
        phase = np.exp(-2j * np.pi * (sum(s * k for s, k in zip(steps, box)) % m) / m)
        phase *= values
        values = phase
    return first, values


def symbol_box(grid: GridSpec, profile) -> BoxPiece:
    """``(first, profile(|xi|))`` on the bin box of the profile's closed support: a symbol as a piece."""
    first, box = _box(grid, _dilated_support(profile.support, 0, grid.dimension))
    return first, profile(grid.frequency_radii()[box])


def add_box_product(
    out: np.ndarray, grid: GridSpec, coefficient: complex, pieces: Sequence[BoxPiece]
) -> None:
    """Add the transform of ``coefficient * prod_k inverse(piece_k)`` to ``out``, band-locally.

    Every piece is moved to start at bin 0 and inverted on ``P = min(M, next
    power of two >= summed box widths)`` points per axis.  The product of the
    moved pieces then occupies bins ``0 .. sum(w_k - 1)``, which do not wrap,
    so its forward transform on that grid holds the full-grid product's
    coefficients at bins ``sum(first_k) + q``.  The rescale between the two
    grids is a power of two, hence exact; at ``P = M`` this is the full-grid
    product itself (cyclic, so an aliasing product aliases as it would there).
    """
    m = grid.samples_per_axis
    axes = range(grid.dimension)
    widths = [[values.shape[i] for _, values in pieces] for i in axes]
    sizes = _product_sizes(grid, pieces)
    prod = np.full(sizes, coefficient, dtype=np.complex128)
    for _, values in pieces:
        padded = np.zeros(sizes, dtype=np.complex128)
        padded[tuple(slice(0, w) for w in values.shape)] = values
        piece = np.fft.ifftn(padded)
        piece /= grid.cell_volume
        prod *= piece
    spectrum = np.fft.fftn(prod)
    spectrum *= grid.cell_volume * math.prod(p / m for p in sizes) ** (len(pieces) - 1)
    counts = [min(p, sum(w) - len(w) + 1) for p, w in zip(sizes, widths)]
    starts = [sum(first[i] for first, _ in pieces) for i in axes]
    out[_box_index(grid, starts, counts)] += spectrum[tuple(slice(0, c) for c in counts)]


def _product_sizes(grid: GridSpec, pieces: Sequence[BoxPiece]) -> Tuple[int, ...]:
    """The grid :func:`add_box_product` multiplies ``pieces`` on: ``min(M, next power of two >= summed widths)`` per axis."""
    m = grid.samples_per_axis
    return tuple(
        min(m, 1 << (sum(values.shape[i] for _, values in pieces) - 1).bit_length()) for i in range(grid.dimension)
    )


# ---------------------------------------------------------------------------
# the one band rule: certificates and dispatch classes of dyadic pieces
# ---------------------------------------------------------------------------

def piece_shells(f: SampledField, support: Tuple[float, float], scale: int) -> Optional[Shells]:
    """Certificate of the scale-``scale`` piece of ``f`` under a profile supported on ``support``.

    ``f``'s certificate met with the dilated closed support; None certifies
    that the piece is identically zero.  A field without a certificate is
    only accepted while the dilated support stays below Nyquist, where the
    piece is exactly representable.
    """
    dilated = _dilated_support(support, scale, f.grid.dimension)
    if f.shells is None:
        hi = dilated.hull[1]
        if hi >= f.grid.nyquist:
            raise NyquistError(
                f"dilated support reaches {hi} at scale {scale}, not below the Nyquist "
                f"frequency {f.grid.nyquist}, and the field carries no band certificate"
            )
        return dilated
    met = f.shells.meet(dilated)
    return met if met.parts else None


def piece_band(
    f: SampledField, support: Tuple[float, float], scale: int
) -> Optional[Tuple[float, float]]:
    """Radial hull of :func:`piece_shells`; None when the piece is certified zero."""
    shells = piece_shells(f, support, scale)
    return None if shells is None else shells.hull


ZERO, PLATEAU, PARTIAL = "zero", "plateau", "partial"


def piece_plan(f: SampledField, profile, scale: int) -> Tuple[str, Optional[Shells], object]:
    """``(class, certificate, profile to evaluate)`` of the scale-``scale`` piece of ``f``.

    * ``ZERO``: :func:`piece_shells` certifies the piece identically zero.
    * ``PLATEAU``: every bin of the piece's certificate lies inside the
      profile's dilated closed plateau ``2**scale * profile.plateau``
      (:meth:`Shells.within`).  The profile is then
      exactly 1.0 on every bin of it that :func:`transform` leaves nonzero
      (dividing a radius by ``2**scale`` is exact, and the profiles' ramps
      reach 1 exactly at the plateau edge) and exactly 0 on the shells of
      ``f`` the support misses.  When the certificate keeps every shell of
      ``f``, the piece is ``f`` translated by ``2**-scale`` times the shift and
      the profile to evaluate is None; otherwise the profile is evaluated.
    * ``PARTIAL``: the profile must be evaluated.

    A profile without a ``plateau`` (the telescoped annulus is 1 only on the
    sphere ``|xi| = 1``) and a field without a certificate are never
    ``PLATEAU``.
    """
    shells = piece_shells(f, profile.support, scale)
    if shells is None:
        return ZERO, None, profile
    plateau = getattr(profile, "plateau", None)
    if plateau is not None and f.shells is not None:
        dilation = 2.0**scale
        if shells.within(f.grid, plateau[0] * dilation, plateau[1] * dilation):
            return PLATEAU, shells, None if shells == f.shells else profile
    return PARTIAL, shells, profile


def piece_class(f: SampledField, profile, scale: int) -> str:
    """Dispatch class of the scale-``scale`` piece of ``f`` under ``profile`` (see :func:`piece_plan`)."""
    return piece_plan(f, profile, scale)[0]


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
    return SampledField(f.grid, frozen(values), shells=f.shells)


def _as_float_exponent(p: Exponent) -> float:
    q = np.inf if p == np.inf else float(p)
    if not (q == np.inf or q >= 1):  # NaN fails both
        raise ValueError(f"p must be >= 1 or infinity, got {p}")
    return q


def _peak_exponent(*mags: np.ndarray) -> Optional[int]:
    """Binary exponent e with max(mags) < 2**e, or None when every entry is zero.

    Dividing by 2**e is exact and keeps every power of the quotient finite.
    """
    peak = max((float(np.max(m, initial=0.0)) for m in mags), default=0.0)
    return int(np.frexp(peak)[1]) if peak > 0.0 else None


def _ldexp(values: np.ndarray, e: int) -> np.ndarray:
    """``values * 2**e`` for complex ``values``, each part scaled by :func:`np.ldexp`."""
    return np.ldexp(np.ascontiguousarray(values).view(np.float64), e).view(np.complex128)


def _kept_norm(f: SampledField, q: float) -> Optional[float]:
    """The L_2 or L_4 quadrature norm of ``f`` from its kept spectrum; None where L_4 would cost more than an FFT.

    Discrete Parseval: ``sum_x |f|**2 h**d = sum_k |f_hat(k)|**2 / L**d``.  The
    L_4 norm is the L_2 norm of ``|f|**2``, whose spectrum is the sum over box
    pairs of the band-local products ``f_a * conj(f_b)``: the mod-M scatter of
    :func:`add_box_product` makes it the cyclic spectrum of the sampled
    ``|f|**2``, so this is the sampled quadrature to roundoff.  It is taken
    while the pairs' small grids hold no more points than the full grid.
    """
    grid = f.grid
    if q == 4.0 and sum(math.prod(_product_sizes(grid, (a, b))) for a in f.kept for b in f.kept) > grid.size:
        return None
    e = _peak_exponent(*(np.abs(values) for _, values in f.kept))
    if e is None:
        return 0.0
    pieces = [(first, _ldexp(values, -e)) for first, values in f.kept]
    if q == 2.0:
        total = sum(np.vdot(values, values).real for _, values in pieces)
    else:
        mirrored = [_reflected(piece) for piece in pieces]
        square = np.zeros(grid.shape, dtype=np.complex128)
        for a in pieces:
            for b in mirrored:
                add_box_product(square, grid, 1.0, (a, b))
        total = np.vdot(square, square).real
    return float(np.ldexp((total / grid.period**grid.dimension) ** (1.0 / q), e))


def lp_norm(f: SampledField, p: Exponent) -> float:
    """Riemann-sum L_p quadrature norm; max modulus when p is infinity.

    A field with kept coefficients has its p = 2 norm, and its p = 4 norm
    while that is cheaper than an inverse FFT, read from the spectrum
    (:func:`_kept_norm`), so a deferred field's samples are not computed;
    every other case reads the samples.  Both routes divide by the power of
    two of :func:`_peak_exponent` first, so no amplitude overflows or underflows.
    """
    q = _as_float_exponent(p)
    if f.kept is not None and q in (2.0, 4.0):
        norm = _kept_norm(f, q)
        if norm is not None:
            return norm
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
