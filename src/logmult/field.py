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
* Array index ``i`` on an axis is the signed bin ``k = i mod M`` in
  ``[-M/2, M/2)`` (numpy FFT ordering), at frequency ``k / L``.  One rule
  computes it: :func:`box_frequencies` and :func:`box_radii` evaluate a box's
  bins from their signed bins, bit for bit fftfreq's values, and no
  full-size frequency array is cached.
* All integrals are plain Riemann sums with weight ``(L/M)**d``; band-limited
  integrands make these spectrally accurate.

Fields and spectra are immutable after construction; every operation here is a
pure function.  A constructor copies an array its caller may still write to
and adopts, without a copy, an array handed over through :func:`frozen`.

Support certificates are :class:`Shells`: unions of closed shells
``{xi : inner <= |xi - center| <= outer}``.  A radial band ``(inner, outer)``
is the single shell centred at the origin, and a packet is a ball around its
carrier frequency, so a train of separated packets is certified packet by
packet.  ``SampledField.band`` reads as the union's radial hull.

A set of certified bins has one layout, the boxes of :func:`bin_boxes`: one
merged interval of signed bins per axis, computed once per (grid, certificate)
and shared read-only (:func:`_certified_bins`).  A :class:`Spectrum` *is* its
boxes: a certified one holds its coefficients on its certificate's boxes,
zero off them, and is checked box by box; its full-size ``coefficients``
are scattered only when read; a read of one of its own boxes is a view.  A
field made by :func:`inverse` from a certified spectrum keeps that spectrum
(``kept``) and is *deferred*: its samples are computed when ``values`` is
first read; :func:`transform` returns the kept spectrum.  A deferred field
also holds pieces whose squared moduli sum to ``|f|**2`` (its kept spectrum,
or a square function's dyadic pieces), from which :func:`lp_norm` reads L_2
and L_4 without an FFT.

The spectral multiplier ``profile(2**-l |xi - c|) * exp(-2 pi i (2**-l t, xi))``
has one core, which evaluates it only on the boxes of a certificate it is
given.  The centre ``c`` is the origin but for a packet, whose carrier it is.
A dyadic piece's certificate, the spectrum's met with the profile's dilated
closed support, and its dispatch class come from one rule, :func:`piece_plan`.
This is exact, not an approximation: profiles are hard 0 off their closed
support and certified spectra are exactly 0 off their shells, so every
skipped product was a signed zero.  A translation is split once, exactly, per
axis, into whole samples mod M and a remainder (:func:`_split`); it is aligned,
and rolls samples, only when every remainder is 0 (:func:`dilated_steps`), and
its one phase, :func:`_phase` of the split, is exactly Hermitian and as
accurate at any shift.  Products of such pieces are formed band-locally
(:func:`add_box_product`), one choice of box per piece at a time, on the
smallest power-of-two grid the product cannot wrap on, and added into the
boxes of the product's certificate.  Narrow spectra invert on
short transforms (:func:`_folded`, the four-step split): boxes fold onto ``P``
bins per axis, one batched inverse runs all ``Q = M / P`` transforms, and the
batch is the samples in natural order.  Samples fold onto ``Q = 4`` from 2**17
grid points (:func:`_inverted`); a real field's modulus folds its Hermitian
half onto the least ``P`` (:func:`box_modulus`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "GridSpec",
    "Shell",
    "Shells",
    "SampledField",
    "Spectrum",
    "GridMismatchError",
    "NyquistError",
    "transform",
    "inverse",
    "keep_spectrum",
    "certify",
    "zero_boxes",
    "spectrum_from_boxes",
    "conjugate",
    "convolve",
    "frozen",
    "bin_boxes",
    "box_frequencies",
    "box_radii",
    "translation_phase",
    "box_piece",
    "symbol_box",
    "add_box_product",
    "box_modulus",
    "piece_plan",
    "ZERO",
    "PLATEAU",
    "PARTIAL",
    "dilated_steps",
    "phase_shift",
    "lp_norm",
    "mixed_norm",
]

Exponent = Union[int, float, Fraction]
# ``(first, index)``: the signed bins ``first + [0, w)`` per axis and their open-mesh grid index
Box = Tuple[Tuple[int, ...], Tuple[np.ndarray, ...]]
Split = Tuple[Tuple[int, ...], Tuple[float, ...]]  # ``(n, rho)``: whole samples and remainder per axis (:func:`_split`)
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
        """``numpy.fft.fftfreq`` of the axis, built on each call: the reference :func:`box_frequencies` is equal to."""
        return np.fft.fftfreq(self.samples_per_axis, d=self.period / self.samples_per_axis)

    def frequency_mesh(self) -> Tuple[np.ndarray, ...]:
        """Frequency coordinate arrays, one per axis, broadcastable to ``shape``."""
        return tuple(np.meshgrid(*[self.axis_frequencies()] * self.dimension, indexing="ij", sparse=True))

    def frequency_radii(self) -> np.ndarray:
        """|xi| on the full frequency grid, built on each call: the reference :func:`box_radii` is equal to."""
        return np.sqrt(sum(a**2 for a in self.frequency_mesh()))

    def coordinate_mesh(self) -> Tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*[self.axis_coordinates()] * self.dimension, indexing="ij", sparse=True))

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


def _freeze(values: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Read-only complex128 array of ``shape`` the caller cannot change.

    A conversion builds a fresh array and a read-only array that owns its data
    (see :func:`frozen`) is adopted as is; anything else is copied.
    """
    out = np.asarray(values, dtype=np.complex128)
    if out.base is not None or (out is values and out.flags.writeable):
        out = out.copy()
    if out.shape != shape:
        out = out.reshape(shape)
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

    @cached_property  # kept beside the fields: equality and hashing read ``parts`` only
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
        shell is tested by the radii of its bins, as :func:`box_radii` gives
        them (the radii profiles are evaluated at), so it needs no slack.
        """
        for s in self.parts:
            lo, hi = _bin_radii(grid, Shells((s,))) if any(s.center) else (s.inner, s.outer)
            if lo < inner or hi > outer:
                return False
        return True

    def windows(self, dimension: int) -> List[List[Tuple[float, float]]]:
        """Frequency boxes, one closed interval per axis, that cover the union (see :func:`bin_boxes`).

        1-D: the two intervals of each shell.  2-D: each shell's bounding box.
        """
        if dimension == 1:
            return [[iv] for (c,), a, b in self.parts for iv in ((c - b, c - a), (c + a, c + b))]
        return [[(c - s.outer, c + s.outer) for c in s.center] for s in self.parts]

    def contains(self, grid: GridSpec, index) -> np.ndarray:
        """Boolean mask of the bins of ``index`` (see :func:`box_frequencies`) that lie in the union.

        Each part's distance is :func:`box_radii` about its centre, the radius
        a profile about that centre is evaluated at, so a certificate admits
        exactly the bins a profile reads.
        """
        inside = np.zeros(grid.shape if index is None else np.broadcast_shapes(*(i.shape for i in index)), dtype=bool)
        for center, inner, outer in self.parts:
            dist = box_radii(grid, index, center)
            inside |= (inner <= dist) & (dist <= outer)
        return inside


@dataclass(frozen=True)
class SampledField:
    """Complex samples of a periodic function, row-major over the grid.

    ``shells`` is an optional support certificate: the field's spectrum is
    guaranteed (and, where asserted, verified) to vanish off the union.
    ``band`` reads as its radial hull ``(inner, outer)`` in physical
    frequency units, None without a certificate.

    ``kept``, when set, is the field's exact spectrum, a certified
    :class:`Spectrum` (its boxes).  :func:`inverse` of a certified spectrum,
    :func:`conjugate` and ``*`` set it and build *deferred* fields, whose
    ``values`` are computed on first read and cached, bit for bit what an
    eager construction stores; :func:`lp_ops.square_function` builds a
    deferred field without ``kept``.  Every other constructor samples at once
    and keeps nothing.
    """

    grid: GridSpec
    values: np.ndarray
    shells: Optional[Shells] = None
    kept: Optional["Spectrum"] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        vals = _freeze(self.values, self.grid.shape)
        _require_finite(vals, "field values")
        object.__setattr__(self, "values", vals)
        _check_certificate(self.grid, self.shells)

    @property
    def band(self) -> Optional[Tuple[float, float]]:
        return None if self.shells is None else self.shells.hull

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
        shells = None if self.shells is None or other.shells is None else self.shells | other.shells
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
        kept = Spectrum(self.grid, tuple((first, values * c) for first, values in self.kept.boxes), shells=self.shells)
        return _deferred(kept, lambda _: self.values * c)

    __rmul__ = __mul__

    def pointwise(self, other: "SampledField") -> "SampledField":
        """Pointwise product, certified by the Minkowski sum of the two certificates.

        A sum reaching Nyquist would alias on the grid: :class:`NyquistError`.
        """
        require_same_grid(self, other)
        shells = None if self.shells is None or other.shells is None else self.shells + other.shells
        return SampledField(self.grid, frozen(self.values * other.values), shells=shells)


def _check_certificate(grid: GridSpec, shells: Optional[Shells]) -> None:
    """A certificate is None or a :class:`Shells` in the grid's dimension that fits below Nyquist."""
    if shells is None:
        return
    if not isinstance(shells, Shells):
        raise TypeError(f"a support certificate must be Shells or None, not {type(shells).__name__}")
    if any(len(s.center) != grid.dimension for s in shells.parts):
        raise ValueError(f"certificate shells do not live in dimension {grid.dimension}")
    grid.check_supports_radius(shells.hull[1])


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values.view(np.float64))):
        raise ValueError(f"{what} must be finite")


def _deferred(kept: Optional["Spectrum"], sampler, grid: Optional[GridSpec] = None, moduli=()) -> SampledField:
    """A field whose samples ``sampler(field)`` computes when first read.

    A field with a certified spectrum ``kept`` is certified by it and has it
    as its one piece; one without (``kept=None``) lives on ``grid``,
    uncertified, with the pieces ``moduli``.  Pieces are ``(shells, boxes)``
    whose squared moduli sum to ``|f|**2``; :func:`lp_norm` reads them.
    """
    f = object.__new__(SampledField)
    shells = None
    if kept is not None:
        grid, shells, moduli = kept.grid, kept.shells, ((kept.shells, kept.boxes),)
    for name, value in (("grid", grid), ("shells", shells), ("kept", kept), ("_sampler", sampler), ("_moduli", tuple(moduli))):
        object.__setattr__(f, name, value)
    return f


@lru_cache(maxsize=32)
def _certified_bins(grid: GridSpec, shells: Optional[Shells]) -> Tuple[Tuple[Tuple[int, ...], Tuple[np.ndarray, ...], Optional[np.ndarray]], ...]:
    """``(first, index, mask)`` per :func:`bin_boxes` box of ``shells``, with its (read-only) mask of certified bins; None is
    the whole grid as one box in FFT order, without a mask.  Cached: the one layout of a (grid, certificate), which every
    transform, inverse, symbol and spectrum that carries the certificate reads."""
    if shells is None:
        return (((0,) * grid.dimension, _box_index(grid, (0,) * grid.dimension, grid.shape), None),)
    return tuple((first, index, frozen(shells.contains(grid, index))) for first, index in bin_boxes(grid, shells.windows(grid.dimension)))


@lru_cache(maxsize=64)
def _bin_radii(grid: GridSpec, shells: Shells) -> Tuple[float, float]:
    """Least and greatest :func:`box_radii` over the bins of ``shells``; ``(inf, -inf)`` for none."""
    radii = np.concatenate([box_radii(grid, index)[inside] for _, index, inside in _certified_bins(grid, shells)] + [[]])
    return float(np.min(radii, initial=math.inf)), float(np.max(radii, initial=-math.inf))


def _max_modulus(values: np.ndarray) -> float:
    return float(np.max(np.abs(values), initial=0.0))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Discrete Fourier coefficients, held as boxes, with an optional support certificate.

    As for :class:`SampledField`, ``shells`` is the certificate.  ``boxes``
    are laid out as :func:`zero_boxes` of ``shells`` and adopted; a full-size
    array given instead is copied (as samples are) and cut into them.
    Coefficients off the certified bins must be exactly zero, checked box by
    box, and certified ones finite.  ``coefficients`` scatters the boxes on
    each read.
    """

    grid: GridSpec
    boxes: Tuple[BoxPiece, ...]
    shells: Optional[Shells] = None

    def __post_init__(self):
        shells = self.shells
        _check_certificate(self.grid, shells)
        bins = _certified_bins(self.grid, shells)
        boxes, off = self.boxes, 0
        if isinstance(boxes, np.ndarray):
            coeffs = _freeze(boxes, self.grid.shape)
            boxes = [(first, coeffs if inside is None else coeffs[index]) for first, index, inside in bins]
            if shells is not None:
                off = np.count_nonzero(coeffs) - sum(np.count_nonzero(values) for _, values in boxes)
        boxes = tuple((first, frozen(np.asarray(values, dtype=np.complex128))) for first, values in boxes)
        if [(first, values.shape) for first, values in boxes] != [(first, tuple(i.size for i in index)) for first, index, _ in bins]:
            raise ValueError(f"boxes are not laid out on the certificate {shells}")
        object.__setattr__(self, "boxes", boxes)
        if shells is not None:
            for _, values in boxes:
                _require_finite(values, "certified coefficients")
            off += sum(np.count_nonzero(np.where(inside, 0.0, values)) for (_, values), (_, _, inside) in zip(boxes, bins))
            if off:
                raise ValueError(f"support certificate {shells.hull} violated: {off} nonzero coefficients off it")

    @property
    def coefficients(self) -> np.ndarray:
        """The full-size (read-only) array of the coefficients."""
        return self.boxes[0][1] if self.shells is None else frozen(_scattered(self.grid, self.boxes))


def require_same_grid(*objs) -> GridSpec:
    grid = objs[0].grid
    for o in objs[1:]:
        if o.grid != grid:
            raise GridMismatchError(f"grid mismatch: {o.grid} vs {grid}")
    return grid


def zero_boxes(grid: GridSpec, shells: Optional[Shells]) -> List[BoxPiece]:
    """Fresh zero boxes on the boxes of ``shells`` (the whole grid for None), for :func:`add_box_product` to add into."""
    return [(first, np.zeros(tuple(i.size for i in index), dtype=np.complex128)) for first, index in _boxes(grid, shells)]


def certify(grid: GridSpec, pieces: Sequence[BoxPiece], shells: Optional[Shells], outside: float = 0.0) -> Spectrum:
    """Spectrum of the fresh boxes ``pieces`` (laid out as :func:`zero_boxes`), roundoff dust off ``shells`` zeroed in place (more is an error).

    ``outside`` is the largest modulus the caller dropped off the boxes; it counts as dust.
    """
    if shells is not None:
        bins = _certified_bins(grid, shells)
        scale = max([outside] + [_max_modulus(values) for _, values in pieces])
        dust = max([outside] + [_max_modulus(values[~inside]) for (_, values), (_, _, inside) in zip(pieces, bins)])
        if scale > 0 and dust > 1e-10 * scale:
            raise ValueError(f"band certificate {shells.hull} violated: "
                             f"out-of-band content {dust} vs in-band scale {scale}")
        for (_, values), (_, _, inside) in zip(pieces, bins):
            values[~inside] = 0.0
    return Spectrum(grid, tuple(pieces), shells=shells)


def spectrum_from_boxes(grid: GridSpec, pieces: Iterable[BoxPiece], shells: Optional[Shells]) -> Spectrum:
    """The sum of the boxes ``pieces``, added in order into :func:`zero_boxes` of ``shells``, off which they must vanish."""
    out = zero_boxes(grid, shells)
    for first, values in pieces:
        _add_into(grid, out, first, values)
    return Spectrum(grid, tuple(out), shells=shells)


def transform(f: SampledField) -> Spectrum:
    """Forward transform, f_hat(k/L) per grid frequency: the ``kept`` spectrum,
    else a quadrature-weighted FFT, :func:`certify`-ed on the certificate's boxes."""
    if f.kept is not None:
        return f.kept
    coeffs = np.fft.fftn(f.values)
    coeffs *= f.grid.cell_volume
    if f.shells is None:
        return Spectrum(f.grid, frozen(coeffs))
    bins = _certified_bins(f.grid, f.shells)
    pieces = [(first, coeffs[index]) for first, index, _ in bins]
    for _, index, _ in bins:
        coeffs[index] = 0.0
    return certify(f.grid, pieces, f.shells, _max_modulus(coeffs))


def _runs(offset: int, width: int, target: int, m: int) -> List[Tuple[slice, slice]]:
    """``(source, target)`` slices of the bins ``offset + [0, width)``, taken mod ``m``, that land in ``[0, target)``.

    At most two runs: the bins before the wrap at ``m`` and those after it.
    """
    runs = []
    head = min(width, m - offset, target - offset)
    if head > 0:
        runs.append((slice(0, head), slice(offset, offset + head)))
    if offset > 0:
        start, stop = m - offset, min(width, target + m - offset)
        if stop > start:
            runs.append((slice(start, stop), slice(0, stop - start)))
    return runs


def _add_into(grid: GridSpec, targets: Sequence[BoxPiece], first: Sequence[int], values: np.ndarray) -> None:
    """Add the box ``(first, values)`` into the (writable) boxes ``targets`` on every bin they share, mod M."""
    m = grid.samples_per_axis
    for k, target in targets:
        runs = [_runs((a - b) % m, w, t, m) for a, w, b, t in zip(first, values.shape, k, target.shape)]
        for run in itertools.product(*runs):
            target[tuple(t for _, t in run)] += values[tuple(s for s, _ in run)]


def _read(grid: GridSpec, pieces: Sequence[BoxPiece], first: Sequence[int], shape: Sequence[int]) -> np.ndarray:
    """The spectrum held as the (disjoint) boxes ``pieces`` on the signed bins ``first + [0, w)`` per axis, 0 off them.

    A box inside one of ``pieces`` (one of the spectrum's own boxes, say) is
    handed back as a read-only view of it, without a copy; otherwise the
    array is fresh.
    """
    m = grid.samples_per_axis
    for k, values in pieces:
        at = [(a - b) % m for a, b in zip(first, k)]
        if all(o + w <= v for o, w, v in zip(at, shape, values.shape)):
            return values[tuple(slice(o, o + w) for o, w in zip(at, shape))]
    return _gathered(grid, pieces, first, shape)


def _gathered(grid: GridSpec, pieces: Sequence[BoxPiece], first: Sequence[int], shape: Sequence[int]) -> np.ndarray:
    """:func:`_read` into a fresh array, always."""
    out = np.zeros(shape, dtype=np.complex128)
    for k, values in pieces:
        _add_into(grid, [(first, out)], k, values)
    return out


def _scattered(grid: GridSpec, pieces: Sequence[BoxPiece]) -> np.ndarray:
    """A fresh full-size array of the (disjoint) boxes ``pieces``, zero elsewhere."""
    return _gathered(grid, pieces, (0,) * grid.dimension, grid.shape)


def _inverted(grid: GridSpec, pieces: Sequence[BoxPiece]) -> np.ndarray:
    """Samples of the spectrum held as the (disjoint) boxes ``pieces``: one inverse FFT, in place.

    Below ``_FOLD_MIN`` grid points, the full-size inverse of :func:`_scattered`.  From there, an
    axis whose boxes span at most ``M / _FOLD`` bins folds onto ``Q = _FOLD`` transforms (else
    ``Q = 1``), and :func:`_folded`'s batch, inverted, is the samples in natural order.  Either is
    scaled by ``1 / c`` (``c`` the cell volume, times ``M**d / prod P`` folded): numpy's quotient by a
    real ``c`` is ``(re + im 0) (1 / c)`` (Smith's method), equal bar a zero's sign, at a fifth of the cost.
    """
    if grid.size < _FOLD_MIN:
        samples = _scattered(grid, pieces)
        np.fft.ifftn(samples, out=samples)
        samples *= 1.0 / grid.cell_volume
        return samples
    m = grid.samples_per_axis
    sizes = tuple(m // _FOLD if p <= m // _FOLD else m for p in _fold_sizes(grid, pieces))
    batch = _folded(grid, pieces, sizes)
    np.fft.ifftn(batch, axes=tuple(range(0, 2 * grid.dimension, 2)), out=batch)
    batch *= 1.0 / (grid.size // math.prod(sizes) * grid.cell_volume)
    return batch.reshape(grid.shape)


def inverse(s: Spectrum) -> SampledField:
    """Inverse transform; round-trips with :func:`transform` (exactly, for a certified ``s``).

    A certified ``s`` gives a deferred field that keeps ``s`` itself; an
    uncertified one is inverted at once.
    """
    if s.shells is None:
        return SampledField(s.grid, frozen(_inverted(s.grid, s.boxes)))
    return _deferred(s, lambda f: _inverted(f.grid, f.kept.boxes))


def keep_spectrum(f: SampledField) -> SampledField:
    """``f`` with its certified :func:`transform` kept, taken once: later transforms read it."""
    if f.kept is not None or f.shells is None:
        return f
    return _deferred(transform(f), lambda _: f.values)


def _reflected(piece: BoxPiece) -> BoxPiece:
    """The box of ``conj(f_hat(-xi))`` from a box of ``f_hat``: bins negated, values flipped and conjugated."""
    first, values = piece
    return tuple(-(k + w - 1) for k, w in zip(first, values.shape)), np.conj(np.flip(values))


def conjugate(f: SampledField) -> SampledField:
    """``conj(f(x))``, with spectrum ``conj(f_hat(-xi))``: shells and kept boxes reflect, no FFT runs."""
    shells = None if f.shells is None else f.shells.scaled(-1.0)
    if f.kept is None:
        return SampledField(f.grid, frozen(np.conj(f.values)), shells=shells)
    kept = spectrum_from_boxes(f.grid, map(_reflected, f.kept.boxes), shells)
    return _deferred(kept, lambda _: np.conj(f.values))


def convolve(f: SampledField, g: SampledField) -> SampledField:
    """Periodic convolution with physical weight: pointwise product of spectra, on the boxes of the certificates' meet."""
    grid = require_same_grid(f, g)
    sf, sg = transform(f), transform(g)
    shells = None if f.shells is None or g.shells is None else f.shells.meet(g.shells)
    boxes = []
    for first, index in _boxes(grid, shells):
        shape = tuple(i.size for i in index)
        boxes.append((first, _read(grid, sf.boxes, first, shape) * _read(grid, sg.boxes, first, shape)))
    return inverse(Spectrum(grid, boxes, shells=shells))


# ---------------------------------------------------------------------------
# the spectral multiplier: profile(2**-l |xi|) * exp(-2 pi i (2**-l t, xi))
# ---------------------------------------------------------------------------

def _widened_bins(a: float, b: float, period: float) -> Tuple[int, int]:
    """Signed bins holding every frequency in ``[a, b]``, widened by one bin each side."""
    return math.ceil(a * period) - 1, math.floor(b * period) + 1


def _box_index(grid: GridSpec, first: Sequence[int], shape: Sequence[int]) -> Tuple[np.ndarray, ...]:
    """Read-only open-mesh index of the signed bins ``first + [0, w)`` per axis, wrapped onto the grid."""
    m = grid.samples_per_axis
    return tuple(map(frozen, np.ix_(*((k + np.arange(w)) % m for k, w in zip(first, shape)))))


def bin_boxes(grid: GridSpec, windows: Sequence[Sequence[Tuple[float, float]]]) -> List[Box]:
    """Disjoint boxes of grid bins covering every frequency in the window boxes.

    A window is a box of frequencies, one closed interval per axis.  Each
    edge is widened by one bin, so roundoff in ``k / L`` never drops a bin,
    and clipped to the signed bins ``-M/2 .. M/2-1``.  Boxes that overlap or
    touch on every axis merge into their bounding box until none do: an
    interval straddling 0 is one box, and windows far apart keep one box
    each.  A box is ``(first signed bin, open-mesh index)``; boxes are sorted.
    """
    m = grid.samples_per_axis
    merged: List[List[Tuple[int, int]]] = []
    for window in windows:
        box = [(max(lo, -(m // 2)), min(hi, m // 2 - 1)) for lo, hi in (_widened_bins(a, b, grid.period) for a, b in window)]
        if any(lo > hi for lo, hi in box):
            continue
        while True:
            touching = [other for other in merged if all(lo <= b + 1 and a <= hi + 1 for (lo, hi), (a, b) in zip(box, other))]
            if not touching:
                break
            merged = [other for other in merged if other not in touching]
            box = [(min(lo for lo, _ in axis), max(hi for _, hi in axis)) for axis in zip(box, *touching)]
        merged.append(box)
    return [
        (tuple(lo for lo, _ in box), _box_index(grid, [lo for lo, _ in box], [hi - lo + 1 for lo, hi in box]))
        for box in sorted(merged)
    ]


def _boxes(grid: GridSpec, shells: Optional[Shells]) -> List[Box]:
    """The :func:`bin_boxes` holding every bin of ``shells``, read from :func:`_certified_bins`; for None, the whole grid."""
    return [(first, index) for first, index, _ in _certified_bins(grid, shells)]


def box_frequencies(grid: GridSpec, index=None) -> Tuple[np.ndarray, ...]:
    """Axis frequencies on the bins of ``index`` (an open-mesh index; default the whole grid), broadcastable over them.

    Bin ``i`` is the signed bin ``k = i mod M`` in ``[-M/2, M/2)`` (M is a
    power of two, so a mask takes the modulus), at ``k`` times fftfreq's own
    factor ``1 / (M (L / M))``: bit for bit :meth:`GridSpec.axis_frequencies` at ``i``.
    """
    m = grid.samples_per_axis
    step = 1.0 / (m * (grid.period / m))
    return tuple((((i + m // 2) & (m - 1)) - m // 2) * step for i in index or _box_index(grid, (0,) * grid.dimension, grid.shape))


def box_radii(grid: GridSpec, index=None, center: Optional[Sequence[float]] = None) -> np.ndarray:
    """|xi - c| on the bins of ``index`` (default the whole grid), about ``center`` (default the origin): the radii every profile is evaluated at.

    The square root of the summed squares of :func:`box_frequencies` less the
    centre's coordinates; about the origin, bit for bit
    :meth:`GridSpec.frequency_radii` at ``index``.
    """
    freqs = box_frequencies(grid, index)
    for f, c in zip(freqs, center or ()):
        f -= c
    radii = reduce(np.add, (f**2 for f in freqs))
    return np.sqrt(radii, out=radii)


def _split(grid: GridSpec, translation: Optional[Sequence[float]], scale: int = 0) -> Split:
    """``(n, rho)`` per axis with ``2**-scale t = (n + rho) h`` mod L: ``0 <= n < M`` whole samples, ``|rho| < 1`` (none: 0).

    ``L = M h`` exactly, so ``math.fmod`` reduces ``t`` by ``L``, then by ``h``, exactly: ``rho`` is rounded once and
    is 0 only for exactly whole samples, and one ``round`` counts the fewer than M whole samples left.  A
    translation that is not ``d`` coordinates, finite once dilated, is a ``ValueError`` naming it.
    """
    coords = [0.0] * grid.dimension if translation is None else np.ravel(translation).tolist()
    dilated = [t * 2.0**-scale for t in coords]
    if len(dilated) != grid.dimension or not all(map(math.isfinite, dilated)):
        raise ValueError(f"translation {coords} is not a finite {grid.dimension}-vector at scale {scale}")
    h, m = grid.spacing, grid.samples_per_axis
    steps, rests = [], []
    for t in dilated:
        t = math.fmod(t, grid.period)
        r = math.fmod(t, h)
        steps.append(round((t - r) / h) % m)
        rests.append(r / h)
    return tuple(steps), tuple(rests)


def dilated_steps(grid: GridSpec, translation: Optional[Sequence[float]], scale: int) -> Optional[Tuple[int, ...]]:
    """The one alignment test: whole samples ``n`` (mod M) of ``2**-scale * translation`` when its exact :func:`_split` remainder is 0, else None."""
    steps, rests = _split(grid, translation, scale)
    return None if any(rests) else steps


def translation_phase(grid: GridSpec, shift: Sequence[float], index=None) -> np.ndarray:
    """``exp(-2 pi i (shift, xi))`` on the grid frequencies (or on the bins of ``index``), exactly Hermitian: :func:`_phase` of :func:`_split`."""
    return _phase(grid, _split(grid, shift), index)


def _phase(grid: GridSpec, split: Split, index=None) -> np.ndarray:
    """The one translation phase, of a shift split into ``(n + rho) h`` per axis: ``exp(-2 pi i w)`` at signed bins ``k``.

    ``w`` sums over axes ``u - trunc(2 u) + rho k / M``, ``u = fmod(n k, M) / M`` (``n < M``, so ``n k`` fits in int64);
    ``u - trunc(2 u)`` is ``sign(k) (((n |k| + M/2) mod M) - M/2) / M`` exactly.  So ``|w| < 1`` per axis at any shift,
    and ``w`` is odd in ``k`` bit for bit: the phase at ``-k`` is the conjugate of that at ``k``.
    """
    m = grid.samples_per_axis
    turns = []
    for n, rho, i in zip(*split, index or _box_index(grid, (0,) * grid.dimension, grid.shape)):
        k = ((i + m // 2) & (m - 1)) - m // 2
        u = np.fmod(n * k, m) / m
        turns.append(u - np.trunc(u + u) + k * (rho / m))
    return np.exp(-2j * np.pi * reduce(np.add, turns))


def _dilated_support(support: Tuple[float, float], scale: int, dimension: int, center: Optional[Sequence[float]] = None) -> Shells:
    return Shells((Shell(center or (0.0,) * dimension, support[0] * 2.0**scale, support[1] * 2.0**scale),))


def _symbol_times(
    grid: GridSpec,
    spectrum: Optional[Spectrum],
    shells: Optional[Shells],
    profile=None,
    scale: int = 0,
    split: Optional[Split] = None,
    center: Optional[Sequence[float]] = None,
) -> Tuple[BoxPiece, ...]:
    """``spectrum * profile(2**-scale |xi - c|) * exp(-2 pi i (2**-scale t, xi))`` on each box of ``shells``: the one multiplier core.

    ``spectrum=None`` and ``profile=None`` are 1; ``shells=None`` is the
    whole grid; the spectrum is read on the boxes of ``shells`` from its own.
    The profile reads :func:`box_radii` about ``center`` (default the origin).
    The phase is :func:`_phase` of the dilated translation's one ``split``,
    whole samples or not; none, or a split of no samples (zero, or whole
    periods), multiplies by nothing.  The phase is the left operand of the
    last product, as when numpy evaluates a large whole-grid ``coefficients *
    phase`` in the phase's temporary buffer: with fused multiply-adds, a
    complex product depends on the operand order.
    """
    phased = split is not None and any(map(any, split))
    pieces = []
    for first, index in _boxes(grid, shells):
        shape = tuple(i.size for i in index)
        values = np.ones(shape) if spectrum is None else _read(grid, spectrum.boxes, first, shape)
        if profile is not None:
            values = values * profile(box_radii(grid, index, center) * 2.0**-scale)
        if phased:
            phase = _phase(grid, split, index)
            phase *= values
            values = phase
        pieces.append((first, values))
    return tuple(pieces)


# ---------------------------------------------------------------------------
# band-local products of multiplier pieces
# ---------------------------------------------------------------------------

def box_piece(
    spectrum: Spectrum,
    shells: Shells,
    profile=None,
    scale: int = 0,
    translation: Optional[Sequence[float]] = None,
) -> Tuple[BoxPiece, ...]:
    """One multiplier piece on the certified boxes of ``shells``, as :data:`BoxPiece` boxes.

    Each box holds ``spectrum * profile(2**-scale |xi|) * exp(-2 pi i
    (2**-scale t, xi))``, one :func:`translation_phase` for any translation:
    the coefficients :func:`lp_ops.dyadic_piece` inverts (or rolls, for whole
    samples).  ``shells`` must hold every bin where the product can be
    nonzero, as the certificate :func:`piece_plan` returns does.
    """
    return _symbol_times(spectrum.grid, spectrum, shells, profile, scale, _split(spectrum.grid, translation, scale))


def symbol_box(grid: GridSpec, profile, translation: Optional[Sequence[float]] = None, scale: int = 0, center=None) -> Tuple[BoxPiece, ...]:
    """``profile(2**-l |xi - c|) * exp(-2 pi i (2**-l t, xi))`` on :func:`zero_boxes` of the profile's dilated closed support about ``c``.

    A symbol as a piece, 0 off those boxes: ``Spectrum(grid, symbol_box(...), shells=support)`` holds it.
    ``center`` (default the origin) is a carrier ``c``: a low-pass profile about it is a packet, its
    support a ball about ``c``, and the phase of :func:`_phase` translates the whole packet.
    """
    support = _dilated_support(profile.support, scale, grid.dimension, center)
    return _symbol_times(grid, None, support, profile, scale, _split(grid, translation, scale), center)


def add_box_product(
    out: Sequence[BoxPiece], grid: GridSpec, coefficient: complex, slots: Sequence[Sequence[BoxPiece]]
) -> None:
    """Add the transform of ``coefficient * prod_k inverse(slot_k)`` into the boxes ``out``, band-locally.

    A slot is a piece as a tuple of boxes; the product is the sum, over every
    choice of one box per slot, of the product of the chosen boxes.  Every
    chosen box is moved to start at bin 0 and inverted on ``P = min(M, next
    power of two >= summed box widths)`` points per axis.  The product of the
    moved boxes then occupies bins ``0 .. sum(w_k - 1)``, which do not wrap,
    so its forward transform on that grid holds the full-grid product's
    coefficients at bins ``sum(first_k) + q``.  The rescale between the two
    grids is a power of two, hence exact; at ``P = M`` this is the full-grid
    product itself (cyclic, so an aliasing product aliases as it would there).
    Each box is inverted once per product grid it enters.  The product is
    added into the (writable) boxes ``out``, such as :func:`zero_boxes` of
    its certificate, on every bin they hold; the rest of it is dropped.
    """
    m = grid.samples_per_axis
    axes = range(grid.dimension)
    inverted = {}  # (slot, box, product grid) -> the moved box's samples on that grid
    for choice in itertools.product(*(range(len(slot)) for slot in slots)):
        pieces = [slot[b] for slot, b in zip(slots, choice)]
        widths = [[values.shape[i] for _, values in pieces] for i in axes]
        sizes = _product_sizes(grid, pieces)
        prod = np.full(sizes, coefficient, dtype=np.complex128)
        for slot, (b, (_, values)) in enumerate(zip(choice, pieces)):
            key = (slot, b, sizes)
            if key not in inverted:
                padded = np.zeros(sizes, dtype=np.complex128)
                padded[tuple(slice(0, w) for w in values.shape)] = values
                piece = np.fft.ifftn(padded)
                piece *= 1.0 / grid.cell_volume
                inverted[key] = piece
            prod *= inverted[key]
        spectrum = np.fft.fftn(prod)
        spectrum *= grid.cell_volume * math.prod(p / m for p in sizes) ** (len(pieces) - 1)
        counts = [min(p, sum(w) - len(w) + 1) for p, w in zip(sizes, widths)]
        starts = [sum(first[i] for first, _ in pieces) for i in axes]
        _add_into(grid, out, starts, spectrum[tuple(slice(0, c) for c in counts)])


def _fold_size(m: int, span: int) -> int:
    """``min(M, next power of two >= span)``: the smallest grid a band ``span`` bins wide does not wrap on."""
    return min(m, 1 << (span - 1).bit_length())


def _product_sizes(grid: GridSpec, pieces: Sequence[BoxPiece]) -> Tuple[int, ...]:
    """The grid :func:`add_box_product` multiplies ``pieces`` on: :func:`_fold_size` of the summed widths per axis."""
    m = grid.samples_per_axis
    return tuple(_fold_size(m, sum(values.shape[i] for _, values in pieces)) for i in range(grid.dimension))


# on a 2-core Xeon, Q = 4 beat the full-size inverse in 1-D from 2**14 points and in 2-D from 512**2
# (25.5 -> 15.2 ms at 2**20); Q = 2 never did, and Q = 8 or 16 lost to Q = 4
_FOLD_MIN, _FOLD = 2**17, 4  # grid points from which _inverted folds, onto Q = _FOLD transforms


def _fold_sizes(grid: GridSpec, pieces: Sequence[BoxPiece]) -> Tuple[int, ...]:
    """The least ``P`` per axis: :func:`_fold_size` of the boxes' signed-bin span."""
    return tuple(
        _fold_size(grid.samples_per_axis, max((f[i] + v.shape[i] for f, v in pieces), default=0) - min((f[i] for f, _ in pieces), default=0))
        for i in range(grid.dimension)
    )


def _twiddles(m: int, q: int, first: int, width: int) -> np.ndarray:
    """``exp(2 pi i r k / M)`` at ``(k - first, r)``, ``k = first + [0, width)``, ``r < q``: the product of two
    short tables, over ``(k - first) mod S`` and ``div S``, with every argument reduced mod M in integers."""
    s = 1 << (width.bit_length() + 1) // 2
    r = np.arange(q)
    low = np.exp(2j * np.pi * ((np.arange(s)[:, None] * r) % m) / m)
    high = np.exp(2j * np.pi * (((first + s * np.arange(-(-width // s)))[:, None] * r) % m) / m)
    return (high[:, None, :] * low[None, :, :]).reshape(-1, q)[:width]


def _folded(grid: GridSpec, pieces: Sequence[BoxPiece], sizes: Sequence[int], real: bool = False) -> np.ndarray:
    """The batch of the four-step split (Bailey, J. Supercomputing 4, 1990), laid out ``(P_1, Q_1, ..., P_d, Q_d)``.

    Per axis, with ``P`` from ``sizes`` and ``Q = M / P``, sample ``p Q + r`` is ``1/Q`` times the
    ``P``-point inverse transform, over ``p``, of the coefficients ``c_k exp(2 pi i r k / M)`` folded
    onto bin ``k mod P``; the boxes span at most ``P`` bins per axis, so no two share a bin.
    ``real`` holds only the last axis's residues ``[0, P/2]``, the half a real inverse reads.
    """
    m, d = grid.samples_per_axis, grid.dimension
    folds = [m // p for p in sizes]
    held = list(sizes[:-1]) + [sizes[-1] // 2 + 1 if real else sizes[-1]]
    batch = np.zeros([n for pq in zip(held, folds) for n in pq], dtype=np.complex128)
    for first, values in pieces:
        runs = [_runs(k % p, w, h, p) for k, w, p, h in zip(first, values.shape, sizes, held)]
        for run in itertools.product(*runs):
            target = batch[tuple(a for _, t in run for a in (t, slice(None)))]
            block = values[tuple(s for s, _ in run)].reshape([a for w in target.shape[::2] for a in (w, 1)])
            for i, ((s, _), k, q) in enumerate(zip(run, first, folds)):
                if q > 1:
                    turns = _twiddles(m, q, k + s.start, s.stop - s.start)
                    np.multiply(block, turns.reshape((1,) * (2 * i) + turns.shape + (1,) * (2 * (d - 1 - i))), out=target)
                    block = target
            if block is not target:
                target[...] = block
    return batch


def box_modulus(grid: GridSpec, pieces: Sequence[BoxPiece]) -> np.ndarray:
    """``|samples|`` of the real field whose spectrum is held as the (disjoint) boxes ``pieces``, in natural order.

    The spectrum must be Hermitian, ``c_{-k} = conj(c_k)`` with ``-k`` taken
    mod M, and 0 where no box holds the bin: the pieces are read on each
    :func:`_reflected` box and must equal it exactly, else ``ValueError``.
    The symbol of a real radial profile times a translation phase is such a
    spectrum, since its frequencies negate exactly.

    The four-step split of :func:`_folded` at the least ``P`` per axis, as a real transform: each
    row of samples ``p Q + r`` over ``p`` is real, so only the half of it a real inverse reads is
    folded.  One ``irfftn`` over the ``P`` axes leaves the samples in natural order.
    """
    for piece in pieces:
        first, values = _reflected(piece)
        if not np.array_equal(_read(grid, pieces, first, values.shape), values):
            raise ValueError(f"spectrum is not Hermitian: its reflection differs on the bins {first} + {values.shape}")
    sizes = _fold_sizes(grid, pieces)
    samples = np.fft.irfftn(_folded(grid, pieces, sizes, real=True), s=sizes, axes=tuple(range(0, 2 * grid.dimension, 2)))
    mags = np.abs(samples, out=samples)
    mags /= grid.size // math.prod(sizes) * grid.cell_volume
    return mags.reshape(grid.shape)


# ---------------------------------------------------------------------------
# the one band rule: certificates and dispatch classes of dyadic pieces
# ---------------------------------------------------------------------------

ZERO, PLATEAU, PARTIAL = "zero", "plateau", "partial"


def piece_plan(f: SampledField, profile, scale: int) -> Tuple[str, Optional[Shells], object]:
    """``(class, certificate, profile to evaluate)`` of the scale-``scale`` piece of ``f``: the one band rule.

    The certificate is ``f``'s met with the profile's dilated closed support.
    A field without a certificate is only accepted while the dilated support
    stays below Nyquist, where the piece is exactly representable; the
    certificate is then the dilated support itself.

    * ``ZERO``: the meet is empty, so the piece is identically zero; the
      certificate is None.
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
    dilated = _dilated_support(profile.support, scale, f.grid.dimension)
    if f.shells is None:
        hi = dilated.hull[1]
        if hi >= f.grid.nyquist:
            raise NyquistError(
                f"dilated support reaches {hi} at scale {scale}, not below the Nyquist "
                f"frequency {f.grid.nyquist}, and the field carries no band certificate"
            )
        return PARTIAL, dilated, profile
    shells = f.shells.meet(dilated)
    if not shells.parts:
        return ZERO, None, profile
    plateau = getattr(profile, "plateau", None)
    if plateau is not None:
        dilation = 2.0**scale
        if shells.within(f.grid, plateau[0] * dilation, plateau[1] * dilation):
            return PLATEAU, shells, None if shells == f.shells else profile
    return PARTIAL, shells, profile


def phase_shift(f: SampledField, shift: Sequence[float]) -> SampledField:
    """Exact translation x -> f(x - shift) for arbitrary real shifts.

    The shift is split once (:func:`_split`): exactly whole samples roll the
    samples (a bit-exact permutation); any other goes through the spectrum
    with its :func:`translation_phase`.
    """
    steps, rests = split = _split(f.grid, shift)
    if any(rests):
        values = _inverted(f.grid, _symbol_times(f.grid, transform(f), f.shells, split=split))
    else:
        values = np.roll(f.values, steps, axis=tuple(range(f.grid.dimension)))
    return SampledField(f.grid, frozen(values), shells=f.shells)


def _as_float_exponent(p: Exponent, name: str = "p") -> float:
    q = np.inf if p == np.inf else float(p)
    if not (q == np.inf or q >= 1):  # NaN fails both
        raise ValueError(f"{name} must be >= 1 or infinity, got {p}")
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


def _kept_norm(grid: GridSpec, moduli, q: float) -> Optional[float]:
    """The L_2 or L_4 quadrature norm of a field ``f`` from certified pieces
    ``(shells, boxes)`` whose squared moduli sum to ``|f|**2``; None where L_4
    is not read from them.

    A kept field is one piece, its kept spectrum; a square function is its
    live dyadic pieces.  Discrete Parseval: ``sum_x |g|**2 h**d = sum_k
    |g_hat(k)|**2 / L**d`` for each piece ``g``.  The L_4 norm is the L_2
    norm of ``|f|**2 = sum_g g * conj(g)``, whose spectrum is the sum over
    pieces and box pairs of the band-local products ``g_a * conj(g_b)``, added
    into the boxes of its certificate: the union of each piece's Minkowski sum
    with its reflection.  While that stays below Nyquist ``|f|**2`` does not
    alias on the grid, so this is the sampled quadrature to roundoff.  It is
    taken while it does and the pairs' small grids hold no more points than
    the full-size inverses the samples take, one per piece.
    """
    if q == 4.0:
        shells = Shells(tuple(part for s, _ in moduli for part in (s + s.scaled(-1.0)).parts))
        sizes = sum(math.prod(_product_sizes(grid, (a, b))) for _, boxes in moduli for a in boxes for b in boxes)
        if shells.hull[1] >= grid.nyquist or sizes > len(moduli) * grid.size:
            return None
    e = _peak_exponent(*(np.abs(values) for _, boxes in moduli for _, values in boxes))
    if e is None:
        return 0.0
    pieces = [[(first, _ldexp(values, -e)) for first, values in boxes] for _, boxes in moduli]
    if q == 4.0:
        square = zero_boxes(grid, shells)
        for piece in pieces:
            add_box_product(square, grid, 1.0, (piece, [_reflected(box) for box in piece]))
        pieces = [square]
    total = sum(np.vdot(values, values).real for piece in pieces for _, values in piece)
    return float(np.ldexp((total / grid.period**grid.dimension) ** (1.0 / q), e))


def lp_norm(f: SampledField, p: Exponent) -> float:
    """Riemann-sum L_p quadrature norm; max modulus when p is infinity.

    A deferred field (a kept spectrum, or a square function's pieces) has its
    p = 2 norm, and its p = 4 norm while that is cheaper than its samples,
    read from its pieces (:func:`_kept_norm`), so its samples are not
    computed; every other case reads the samples.  Both routes divide by the
    power of two of :func:`_peak_exponent` first, so no amplitude overflows or
    underflows.
    """
    q = _as_float_exponent(p)
    moduli = f.__dict__.get("_moduli")
    if moduli is not None and q in (2.0, 4.0):
        norm = _kept_norm(f.grid, moduli, q)
        if norm is not None:
            return norm
    mags = np.abs(f.values)
    if q == np.inf:
        return float(np.max(mags))
    e = _peak_exponent(mags)
    if e is None:
        return 0.0
    np.ldexp(mags, -e, out=mags)  # mags is a fresh array: scale and raise it in place
    if q == 2.0:
        norm = np.sqrt(np.sum(np.square(mags, out=mags)) * f.grid.cell_volume)
    else:
        norm = (np.sum(np.power(mags, q, out=mags)) * f.grid.cell_volume) ** (1.0 / q)
    return float(np.ldexp(norm, e))


def mixed_norm(fs: Sequence[SampledField], p: Exponent, q: Exponent) -> float:
    """L_p(l_q): inner l_q over the sequence index pointwise, then outer L_p quadrature."""
    if len(fs) == 0:
        raise ValueError("mixed_norm of an empty sequence")
    grid = require_same_grid(*fs)
    q = _as_float_exponent(q, "q")
    p = _as_float_exponent(p)
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
