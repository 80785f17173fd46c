"""The n-linear operator, its (n+1)-linear form, kernels, and the log-weighted size.

Kernels are finite sums of rank-1 tensor terms whose per-slot factors are
*spectrally evaluable*: each factor is a radial frequency profile together
with an optional physical translation, so the dilated factor transforms
``g_hat(2**-l xi)`` needed by the scale sum can be evaluated exactly at any
frequency.  The operator, its form and the shifted form are one scale loop,
:func:`apply_t`, over a plain ``range`` of scales.  Each slot piece is
dispatched on :func:`field.piece_plan` and cut to its certified boxes
(:func:`field.box_piece`); each product of pieces is formed band-locally, one
choice of box per slot at a time (:func:`field.add_box_product`), into one
output spectrum, which the output keeps: its samples take one full-size
inverse transform, when first read.

The log-weighted size D_lambda treats a factor's declared translation as a
position in unbounded space: slot k's lifted coordinate is ``u_k = center_k +
offset`` with the offset folded to the torus min-image, and the weight sees
``log(e + |u|)``.  Without the lift, the period would cap the weight and mask
the very growth the functional measures.  A transposed kernel's weight sees
the shear of the base kernel's lifted coordinates, ``y_j = -u_j`` and ``y_k =
u_k - u_j``, unfolded; the shear is a bijection of the product grid, so both
paths read the base kernel and apply this one rule.  The exact path sums
``|K|`` over the base kernel's rows; the certified bracket buckets each
factor's sampled modulus by offset and bounds the same weight by interval
arithmetic.  The modulus comes from the factor's symbol boxes
(:func:`field.box_modulus`), so the bracket runs no full-size transform.  A
factor is a real radial profile times a translation phase, and its grid
frequencies negate exactly, so its symbol is Hermitian and ``g`` is real:
the modulus folds half the symbol and takes one batched real inverse.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .calibration import LPPair
from .field import (
    ZERO,
    GridSpec,
    SampledField,
    Shells,
    Spectrum,
    add_box_product,
    box_modulus,
    box_piece,
    certify,
    frozen,
    inverse,
    piece_plan,
    require_same_grid,
    symbol_box,
    transform,
    zero_boxes,
)

__all__ = [
    "SpectralFactor",
    "TensorKernel",
    "TransposedKernel",
    "DLambdaResult",
    "d_lambda",
    "apply_t",
    "lambda_form",
    "transpose_kernel",
    "shifted_form",
]


@dataclass(frozen=True)
class SpectralFactor:
    """One slot of a rank-1 kernel term: a radial profile, optionally translated.

    Physical function: ``g(x) = P(x - translation)`` where ``P`` is the inverse
    transform of the profile.  Its transform is ``profile(|xi|) *
    exp(-2 pi i (translation, xi))``, evaluable at dilated frequencies.
    """

    profile: object
    translation: Optional[Tuple[float, ...]] = None

    @property
    def support(self) -> Tuple[float, float]:
        return self.profile.support

    def spectrum_on(self, grid: GridSpec) -> np.ndarray:
        """Values of g_hat on the grid frequencies: the full-size scatter of the symbol's boxes."""
        return Spectrum(grid, symbol_box(grid, self.profile, self.center(grid.dimension)), Shells.radial(*self.support, grid.dimension)).coefficients

    def field_on(self, grid: GridSpec) -> SampledField:
        """The physical function ``g``: the inverse transform of its symbol, certified by the profile's support."""
        return inverse(Spectrum(grid, symbol_box(grid, self.profile, self.center(grid.dimension)), Shells.radial(*self.support, grid.dimension)))

    def center(self, dimension: int) -> np.ndarray:
        """The translation as ``dimension`` coordinates (the origin for none); ``ValueError`` if it has another length."""
        if self.translation is None:
            return np.zeros(dimension)
        center = np.atleast_1d(np.asarray(self.translation, dtype=float))
        if center.shape != (dimension,):
            raise ValueError(f"{self!r}: translation {self.translation!r} does not have {dimension} coordinates")
        return center


@dataclass(frozen=True)
class TensorKernel:
    """Sum of rank-1 terms ``coeff * prod_k g_k(y_k)`` on a common grid geometry."""

    n: int
    terms: Tuple[Tuple[complex, Tuple[SpectralFactor, ...]], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("kernels are at least bilinear (n >= 2)")
        if not self.terms:
            raise ValueError("kernel needs at least one term")
        for _, factors in self.terms:
            if len(factors) != self.n:
                raise ValueError("every term needs one factor per slot")

    @classmethod
    def rank_one(cls, factors: Sequence[SpectralFactor]) -> "TensorKernel":
        return cls(len(factors), ((1.0 + 0.0j, tuple(factors)),))

    @property
    def rank(self) -> int:
        return len(self.terms)

    def joint_support(self) -> Tuple[float, float]:
        """Interval-arithmetic bounds on |(xi_1, ..., xi_n)| over the joint spectrum."""
        lo = min(math.sqrt(sum(f.support[0] ** 2 for f in factors)) for _, factors in self.terms)
        hi = max(math.sqrt(sum(f.support[1] ** 2 for f in factors)) for _, factors in self.terms)
        return lo, hi

    def annulus_certificate(self) -> Tuple[float, float]:
        """The joint support, which must land in [1/2, 2]."""
        lo, hi = self.joint_support()
        if not (0.5 <= lo and hi <= 2.0):
            raise ValueError(f"joint spectrum [{lo}, {hi}] leaves the unit annulus [1/2, 2]")
        return lo, hi

    def values_on_rows(self, grid: GridSpec, rows: Sequence[int]) -> np.ndarray:
        """Pointwise values on {y_1 in rows} x grid^(n-1), d = 1 and n in {2, 3}."""
        _require_exact_grid(grid, self.n)
        base, j = _sheared(self)
        return _shear_rows(j, _sampled_terms(base, grid), np.asarray(rows))


def apply_t(kernel: TensorKernel, fs: Sequence[SampledField], scales: range) -> SampledField:
    """Diagonal restriction of the dyadic-sum action: per term and scale, the
    pointwise product of the per-slot convolutions ``g_{k,l} * f_k``.

    Slot pieces dispatch on :func:`field.piece_plan`: a zero slot skips the
    term at that scale, and a plateau slot that keeps every shell of its input
    leaves the profile out, which is exact because the profile is 1.0 on every
    occupied bin.  The output is certified by the union of the products'
    Minkowski sums while every sum stays below Nyquist; a product reaching
    Nyquist aliases on the grid, as the sampled product does, and the output
    then carries no certificate.  With that certificate planned first, each
    product is formed on its pieces' certified boxes and added into the
    certificate's (:func:`field.add_box_product`, :func:`field.certify`).
    """
    if len(fs) != kernel.n:
        raise ValueError(f"kernel is {kernel.n}-linear, got {len(fs)} inputs")
    grid = require_same_grid(*fs)
    live = []
    for scale in scales:
        for coeff, factors in kernel.terms:
            plans = [piece_plan(f, factor.profile, scale) for f, factor in zip(fs, factors)]
            if all(cls != ZERO for cls, _, _ in plans):
                live.append((scale, coeff, factors, plans))
    products = [reduce(operator.add, (shells for _, shells, _ in plans)) for *_, plans in live]
    certificate = None if any(p.hull[1] >= grid.nyquist for p in products) else reduce(operator.or_, products, Shells(()))
    spectra = [transform(f) for f in fs]
    out = zero_boxes(grid, certificate)
    for scale, coeff, factors, plans in live:
        pieces = [
            box_piece(spec, shells, profile, scale, factor.center(grid.dimension))
            for spec, factor, (_, shells, profile) in zip(spectra, factors, plans)
        ]
        add_box_product(out, grid, coeff, pieces)
    return inverse(certify(grid, out, certificate))


def lambda_form(kernel: TensorKernel, fs: Sequence[SampledField], scales: range) -> complex:
    """Quadrature pairing of the operator output against the last input."""
    if len(fs) != kernel.n + 1:
        raise ValueError(f"form is {kernel.n + 1}-linear, got {len(fs)} inputs")
    t_out = apply_t(kernel, fs[:-1], scales)
    grid = require_same_grid(t_out, fs[-1])
    return complex(np.sum(t_out.values * fs[-1].values) * grid.cell_volume)


# ---------------------------------------------------------------------------
# D_lambda: exact product-grid path and certified bracket path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DLambdaResult:
    value: float
    lower: float
    upper: float
    method: str


def _signed_offsets(grid: GridSpec, center: np.ndarray, index: Optional[np.ndarray] = None) -> np.ndarray:
    """Min-image offsets x - center per grid point (d=1: shape (M,), d=2: radii).

    d = 1 takes the sample numbers ``index`` instead of every sample when
    given; the offset of each is the one the full array holds.
    """
    if grid.dimension == 1:
        x = grid.axis_coordinates() if index is None else index * grid.spacing
        return (x - center[0] + grid.period / 2.0) % grid.period - grid.period / 2.0
    mesh = grid.coordinate_mesh()
    comps = [
        (np.asarray(axis) - c + grid.period / 2.0) % grid.period - grid.period / 2.0
        for axis, c in zip(mesh, center)
    ]
    return np.sqrt(sum(c**2 for c in comps))


def _weight(r: np.ndarray, lam: float) -> np.ndarray:
    return np.log(np.e + r) ** lam


def _lifted_axis(grid: GridSpec, center: np.ndarray) -> np.ndarray:
    """Unwrapped slot coordinate: declared center plus the min-image offset."""
    return center[0] + _signed_offsets(grid, center)


def _require_exact_grid(grid: GridSpec, n: int) -> None:
    if grid.dimension != 1 or n > 3:
        raise ValueError("exact kernel evaluation supports d = 1 with n in {2, 3}")


def _sheared(kernel: Union[TensorKernel, "TransposedKernel"]) -> Tuple[TensorKernel, int]:
    """The base kernel and the swapped slot (0: a base kernel swaps nothing)."""
    if isinstance(kernel, TransposedKernel):
        return kernel.base, kernel.j
    return kernel, 0


def _sampled_terms(kernel: TensorKernel, grid: GridSpec) -> List[Tuple[complex, List[np.ndarray]]]:
    """Every term's coefficient and sampled factors."""
    return [(coeff, [f.field_on(grid).values for f in factors]) for coeff, factors in kernel.terms]


def _shear_rows(j: int, terms: List[Tuple[complex, List[np.ndarray]]], rows: np.ndarray) -> np.ndarray:
    """The shear K^j on {y_1 in rows} x grid^(n-1) from sampled factors (d = 1).

    Slot k reads its factor at y_k - y_j and the swapped slot j at -y_j; j = 0
    swaps nothing, so every slot reads y_k.  The swapped slot multiplies first.
    """
    n, m = len(terms[0][1]), terms[0][1][0].size
    ys = [rows.reshape((-1,) + (1,) * (n - 1))]
    ys += [np.arange(m).reshape((1,) * k + (m,) + (1,) * (n - 1 - k)) for k in range(1, n)]
    jj = j - 1  # -1 when nothing is swapped
    order = ([jj] if j else []) + [k for k in range(n) if k != jj]
    y_j = ys[jj] if j else 0
    out = None
    for coeff, fields in terms:
        term = math.prod(np.take(fields[k], (0 if k == jj else ys[k]) - y_j, mode="wrap") for k in order)
        term *= coeff
        out = term if out is None else out + term
    return out


def _exact_d_lambda(kernel: Union[TensorKernel, "TransposedKernel"], lam: float, grid: GridSpec) -> float:
    """Direct quadrature over the n-fold product grid (d = 1, n in {2, 3}), in row chunks.

    The sum runs over the base kernel's rows at its lifted axes ``u``; a
    transposed kernel weighs them at ``y_j = -u_j``, ``y_k = u_k - u_j``.
    """
    base, j = _sheared(kernel)
    n = base.n
    _require_exact_grid(grid, n)
    m = grid.samples_per_axis
    first = base.terms[0][1]
    for _, factors in base.terms[1:]:
        for k, factor in enumerate(factors):
            if not np.array_equal(factor.center(1), first[k].center(1)):
                raise ValueError("exact path requires all terms to share slot translations")
    axes = [
        _lifted_axis(grid, f.center(1)).reshape((1,) * k + (m,) + (1,) * (n - 1 - k)) for k, f in enumerate(first)
    ]
    terms = _sampled_terms(base, grid)
    chunk = 64  # rows per chunk: bounds peak memory
    total = 0.0
    for start in range(0, m, chunk):
        rows = np.arange(start, min(start + chunk, m))
        u = [axes[0][rows]] + axes[1:]
        y = [-u[k] if k == j - 1 else u[k] - u[j - 1] for k in range(n)] if j else u
        vals = np.abs(_shear_rows(0, terms, rows))
        total += float(np.sum(vals * _weight(np.sqrt(y[0] ** 2 + sum(c**2 for c in y[1:])), lam)))
    return total * grid.cell_volume**n


_DEFAULT_SHELLS = {2: 256, 3: 128, 4: 48, 5: 24}
_EXACT_BUDGET = 2**24  # most product-grid points the exact D_lambda path sums


def _bucket(off: np.ndarray, base: float, width: float, shells: int) -> np.ndarray:
    """Shell number of each offset: ``shells`` shells of ``width`` from ``base``, the last one closed."""
    return np.minimum(((off - base) / width).astype(int), shells - 1)


@lru_cache(maxsize=32)
def _shell_data(
    profile, center: Tuple[float, ...], grid: GridSpec, shells: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-shell (mass, offset low, offset high), read-only, for the factor ``profile`` translated to ``center``.

    A shell's mass is the quadrature of ``|g|`` over the samples whose offset
    falls in it; ``|g|`` is :func:`field.box_modulus` of the factor's symbol
    boxes, so no full-size transform runs.  The symbol is Hermitian (a real
    profile times ``exp(-2 pi i (t, xi))``, with ``xi(-k) = -xi(k)``
    exactly), which that real-field modulus checks before it folds half of
    it.  d = 1 buckets the *signed* min-image offset, which keeps interval
    arithmetic on differences tight (:func:`_signed_mass`); d = 2 buckets the
    radial offset.  No lambda enters, so the masses are cached like the grid's
    frequency arrays: each factor, grid and shell count is sampled once.
    """
    grid.check_supports_radius(profile.support[1])
    center = np.asarray(center)
    mags = box_modulus(grid, symbol_box(grid, profile, center))
    if grid.dimension == 1:
        mass, base, width = _signed_mass(grid, center, mags, shells)
    else:
        off = _signed_offsets(grid, center)
        base, reach = 0.0, float(off.max())
        width = reach / shells if reach > 0 else 1.0
        mass = np.bincount(_bucket(off, base, width, shells).ravel(), weights=mags.ravel(), minlength=shells)
    lo = base + np.arange(shells) * width
    return frozen(mass * grid.cell_volume), frozen(lo), frozen(lo + width)


def _signed_mass(grid: GridSpec, center: np.ndarray, mags: np.ndarray, shells: int) -> Tuple[np.ndarray, float, float]:
    """d = 1: ``(sum of mags per shell, base, width)`` of the signed-offset shells, summed over runs.

    The signed offset rises with the sample number along at most two wrap
    segments, so each shell is at most two runs of consecutive samples.  The
    wrap and the first sample of each shell in each segment are found by
    bisection on :func:`_signed_offsets` of single samples, and the extremes
    are segment end samples: every sample lands in the shell it would by the
    whole offset array, without building it.
    """
    m = grid.samples_per_axis
    offsets = partial(_signed_offsets, grid, center)
    wrap = int(_first_true(lambda j: offsets(j) < offsets(0), 1, m))
    segments = [(0, wrap), (wrap, m)] if wrap < m else [(0, m)]
    base = float(offsets(np.array([a for a, _ in segments])).min())
    reach = float(offsets(np.array([b - 1 for _, b in segments])).max()) - base
    width = reach / shells if reach > 0 else 1.0
    mass = np.zeros(shells)
    ranks = np.arange(shells)
    for a, b in segments:
        firsts = _first_true(
            lambda j: _bucket(offsets(j), base, width, shells) >= ranks, np.full(shells, a), np.full(shells, b)
        )
        live = firsts < np.append(firsts[1:], b)  # shell s holds samples firsts[s] .. firsts[s + 1] - 1
        mass[live] += np.add.reduceat(mags[a:b], firsts[live] - a)
    return mass, base, width


def _first_true(pred, lo, hi) -> np.ndarray:
    """Per entry, the least ``j`` in ``[lo, hi)`` with ``pred(j)`` (``hi`` when none), by vectorised bisection.

    ``pred`` is elementwise and, on each range, false up to some ``j`` and true from there on.
    """
    lo, hi = np.array(lo), np.array(hi)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        ok, live = pred(mid), lo < hi
        lo, hi = np.where(live & ~ok, mid + 1, lo), np.where(live & ok, mid, hi)
    return lo


def _offset_bounds(
    center: np.ndarray, lo: np.ndarray, hi: np.ndarray, signed: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Bounds of |center + v| for v in a shell.

    ``signed`` (d = 1): v ranges over the signed interval [lo, hi].
    Otherwise [lo, hi] bounds |v| and only |center| matters.
    """
    if signed:
        x_lo, x_hi = center[0] + lo, center[0] + hi
        lo_abs = np.where((x_lo <= 0.0) & (x_hi >= 0.0), 0.0, np.minimum(np.abs(x_lo), np.abs(x_hi)))
        return lo_abs, np.maximum(np.abs(x_lo), np.abs(x_hi))
    c = float(np.linalg.norm(center))
    return np.maximum(0.0, np.maximum(lo - c, c - hi)), c + hi


def _shell_bounds(j: int, centers, lows, highs, signed: bool) -> list:
    """Per-slot bounds on |y_k| over each shell combination, after the shear
    y_j = -u_j, y_k = u_k - u_j of swapped slot j (none when j = 0)."""
    if not j:
        return [_offset_bounds(c, lo, hi, signed) for c, lo, hi in zip(centers, lows, highs)]
    jj = j - 1
    c_j, lo_j, hi_j = centers[jj], lows[jj], highs[jj]
    bounds = [_offset_bounds(c_j, lo_j, hi_j, signed)]
    for k in range(len(centers)):
        if k == jj:
            continue
        # y_k = (a_k - a_j) + (v_k - v_j): interval arithmetic on the difference
        if signed:
            lo, hi = lows[k] - hi_j, highs[k] - lo_j
        else:
            lo = np.maximum(0.0, np.maximum(lows[k] - hi_j, lo_j - highs[k]))
            hi = highs[k] + hi_j
        bounds.append(_offset_bounds(centers[k] - c_j, lo, hi, signed))
    return bounds


def _bracket_d_lambda(
    kernel: Union[TensorKernel, "TransposedKernel"], lam: float, grid: GridSpec
) -> Tuple[float, float]:
    """Certified bounds from per-slot shell masses and the shell bounds of the sheared weight.

    Slot k's shell arrays lie along axis k of the s^n lattice of shell combinations: broadcasting bounds a slot on
    its s shells and a sheared difference on s x s; only the mass, the squared bounds and ``live`` fill the lattice.
    Masking reads it in C order, the flat order of an ``indexing="ij"`` meshgrid, so each sum runs term for term.
    """
    base, j = _sheared(kernel)
    if base.rank != 1:
        raise ValueError("bracket path handles rank-1 kernels")
    n = base.n
    s = _DEFAULT_SHELLS.get(n, 16)
    coeff, factors = base.terms[0]
    centers = [f.center(grid.dimension) for f in factors]
    masses, lows, highs = [], [], []
    for k, (factor, center) in enumerate(zip(factors, centers)):
        for arrays, a in zip((masses, lows, highs), _shell_data(factor.profile, tuple(float(c) for c in center), grid, s)):
            arrays.append(a.reshape((s,) + (1,) * (n - 1 - k)))  # axis k; broadcasting supplies the leading axes
    mass = reduce(operator.mul, masses)
    bounds = _shell_bounds(j, centers, lows, highs, signed=grid.dimension == 1)
    live = mass > 0
    mass = mass[live]  # gathered once for both bounds
    return tuple(
        abs(coeff) * float(np.sum(mass * _weight(np.sqrt(sum(b[side] ** 2 for b in bounds)[live]), lam))) for side in (0, 1)
    )


def d_lambda(kernel: Union[TensorKernel, "TransposedKernel"], lam: float, grid: GridSpec) -> DLambdaResult:
    """The log-weighted kernel size; exact on small product grids, bracketed otherwise.

    The exact path runs for d = 1, n <= 3 and at most ``_EXACT_BUDGET``
    product-grid points.  The bracket is certified (quadrature value lies
    between the bounds); a bracket wider than 10% of the value is refused
    with advice.
    """
    if not 0 <= lam < math.inf:  # NaN fails too
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    if grid.dimension == 1 and kernel.n <= 3 and grid.size**kernel.n <= _EXACT_BUDGET:
        value = _exact_d_lambda(kernel, lam, grid)
        return DLambdaResult(value, value, value, "exact")
    lower, upper = _bracket_d_lambda(kernel, lam, grid)
    value = 0.5 * (lower + upper)
    if value > 0 and (upper - lower) > 0.1 * value:
        raise ValueError(
            f"bracket width {upper - lower} exceeds 10% of the value {value}; "
            "reduce the slot count or dimension"
        )
    return DLambdaResult(value, lower, upper, "bracket")


@dataclass(frozen=True)
class TransposedKernel:
    """Shear of a kernel: slot j swaps with the dual argument.

    Evaluation at (y_1, ..., y_n) is K(y_1 - y_j, ..., -y_j, ..., y_n - y_j).
    The shear mixes slots, so the result is generally not rank-1; the handle
    supports pointwise row evaluation, and both D_lambda paths read its base
    kernel (:func:`_sheared`).  Grid differences stay on the grid, so the
    shear evaluates exactly from the sampled factor fields.
    """

    base: TensorKernel
    j: int  # 1-based slot index

    def __post_init__(self):
        if not 1 <= self.j <= self.base.n:
            raise ValueError(f"transpose index must lie in 1..{self.base.n}, got {self.j}")

    @property
    def n(self) -> int:
        return self.base.n

    values_on_rows = TensorKernel.values_on_rows


def transpose_kernel(kernel: TensorKernel, j: int) -> TransposedKernel:
    """Kernel of the j-th transpose operator (a unimodular shear of the base kernel)."""
    return TransposedKernel(kernel, j)


def shifted_form(
    fs: Sequence[SampledField],
    psi_slots: Tuple[int, int],
    tau: int,
    shifts: Sequence[Sequence[float]],
    scales: range,
    pair: LPPair,
) -> complex:
    """The scale-summed integrand with annular pieces on two slots and no shift on tau.

    ``psi_slots`` names the (1-based) pair carrying the annular profile; every
    other slot carries the low-pass profile.  Slot ``tau`` is evaluated
    unshifted regardless of its entry in ``shifts``.  The value is the
    quadrature integral of :func:`apply_t` over that rank-1 kernel.
    """
    n1 = len(fs)
    s, t = psi_slots
    if not (1 <= s < t <= n1):
        raise ValueError(f"psi slots must satisfy 1 <= s < t <= {n1}, got ({s}, {t})")
    if not 1 <= tau <= n1:
        raise ValueError(f"tau must lie in 1..{n1}, got {tau}")
    grid = require_same_grid(*fs)
    if len(shifts) != n1:
        raise ValueError("one shift per slot required (tau's entry is ignored)")
    profiles = [pair.psi_hat if k in (s, t) else pair.phi_hat for k in range(1, n1 + 1)]
    kernel = TensorKernel.rank_one(
        [SpectralFactor(p, None if k == tau else shifts[k - 1]) for k, p in enumerate(profiles, 1)]
    )
    return complex(np.sum(apply_t(kernel, fs, scales).values) * grid.cell_volume)
