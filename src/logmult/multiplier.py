"""The n-linear operator, its (n+1)-linear form, kernels, and the log-weighted size.

Kernels are finite sums of rank-1 tensor terms whose per-slot factors are
*spectrally evaluable*: each factor is a radial frequency profile together
with an optional physical translation, so the dilated factor transforms
``g_hat(2**-l xi)`` needed by the scale sum can be evaluated exactly at any
frequency.  The operator, its form and the shifted form are one scale loop,
:func:`apply_t`, over a plain ``range`` of scales.  Each slot piece is
dispatched on :func:`field.piece_plan` and cut to its certified bin box
(:func:`field.box_piece`); each product of pieces is formed band-locally
(:func:`field.add_box_product`) into one output spectrum, and one full-size
inverse transform ends the loop; the output keeps its spectrum.

The log-weighted size D_lambda treats a factor's declared translation as a
position in unbounded space: the weight sees ``log(e + |center + offset|)``
with the offset folded to the torus min-image.  Without the lift, the period
would cap the weight and mask the very growth the functional measures.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
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
    box_piece,
    certify,
    frozen,
    inverse,
    multiplier_symbol,
    piece_plan,
    require_same_grid,
    transform,
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

    def spectrum_on(self, grid: GridSpec, dilation_scale: int = 0) -> np.ndarray:
        """Values of g_hat(2**-l xi) on the grid frequencies."""
        return multiplier_symbol(grid, self.profile, dilation_scale, self.translation)

    def field_on(self, grid: GridSpec) -> SampledField:
        return inverse(Spectrum(grid, frozen(self.spectrum_on(grid)), support_certificate=self.support))

    def center(self, dimension: int) -> np.ndarray:
        if self.translation is None:
            return np.zeros(dimension)
        return np.asarray(self.translation, dtype=float)


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
    def rank_one(cls, factors: Sequence[SpectralFactor], coefficient: complex = 1.0) -> "TensorKernel":
        return cls(len(factors), ((complex(coefficient), tuple(factors)),))

    @property
    def rank(self) -> int:
        return len(self.terms)

    def joint_support(self) -> Tuple[float, float]:
        """Interval-arithmetic bounds on |(xi_1, ..., xi_n)| over the joint spectrum."""
        lo = min(math.sqrt(sum(f.support[0] ** 2 for f in factors)) for _, factors in self.terms)
        hi = max(math.sqrt(sum(f.support[1] ** 2 for f in factors)) for _, factors in self.terms)
        return lo, hi

    def annulus_certificate(self, normalization_scale: float = 1.0) -> Tuple[float, float]:
        """Joint support divided by the declared normalization; must land in [1/2, 2]."""
        lo, hi = self.joint_support()
        lo, hi = lo / normalization_scale, hi / normalization_scale
        if not (0.5 <= lo and hi <= 2.0):
            raise ValueError(
                f"joint spectrum [{lo}, {hi}] (after normalization) leaves the unit annulus [1/2, 2]"
            )
        return lo, hi

    def values_on_rows(self, grid: GridSpec, rows: Sequence[int]) -> np.ndarray:
        """Pointwise values on {y_1 in rows} x grid^(n-1), d = 1 and n in {2, 3}."""
        _require_exact_grid(grid, self.n)
        return _shear_rows(*self._sampled_terms(grid), np.asarray(rows))

    def _sampled_terms(self, grid: GridSpec) -> Tuple[int, list]:
        """No swapped slot (0), and every term's coefficient and sampled factors."""
        return 0, [(coeff, [f.field_on(grid).values for f in factors]) for coeff, factors in self.terms]

    def _exact_axes(self, grid: GridSpec) -> list:
        """Per-slot weight coordinates: the lifted slot axes (shared by every term)."""
        first = self.terms[0][1]
        for _, factors in self.terms[1:]:
            for k, factor in enumerate(factors):
                if not np.allclose(factor.center(1), first[k].center(1)):
                    raise ValueError("exact path requires all terms to share slot translations")
        return [_lifted_axis(grid, factor.center(1)) for factor in first]

    def _shell_bounds(self, centers, lows, highs, signed: bool) -> list:
        """Per-slot bounds on |y_k| over each shell combination."""
        return [_offset_bounds(c, lo, hi, signed) for c, lo, hi in zip(centers, lows, highs)]

    def to_manifest(self) -> dict:
        terms = [
            {
                "coefficient": str(coeff),
                "factors": [{**f.profile.to_record(), "translation": f.translation} for f in factors],
            }
            for coeff, factors in self.terms
        ]
        return {"n": self.n, "terms": terms}


def apply_t(kernel: TensorKernel, fs: Sequence[SampledField], scales: range) -> SampledField:
    """Diagonal restriction of the dyadic-sum action: per term and scale, the
    pointwise product of the per-slot convolutions ``g_{k,l} * f_k``.

    Slot pieces dispatch on :func:`field.piece_plan`: a zero slot skips the
    term at that scale, and a plateau slot that keeps every shell of its input
    leaves the profile out, which is exact because the profile is 1.0 on every
    occupied bin.  Each product is formed on its pieces' certified bin boxes
    (:func:`field.add_box_product`) and added to one output spectrum, which is
    inverted once.  The output is certified by the union of the products'
    Minkowski sums while every sum stays below Nyquist (scatter dust off it is
    zeroed, :func:`field.certify`); a product reaching Nyquist aliases on the
    grid, as the sampled product does, and the output then carries no certificate.
    """
    if len(fs) != kernel.n:
        raise ValueError(f"kernel is {kernel.n}-linear, got {len(fs)} inputs")
    grid = require_same_grid(*fs)
    spectra = [transform(f) for f in fs]
    out = np.zeros(grid.shape, dtype=np.complex128)
    certificate: Optional[Shells] = Shells(())
    for scale in scales:
        for coeff, factors in kernel.terms:
            plans = [piece_plan(f, factor.profile, scale) for f, factor in zip(fs, factors)]
            if any(cls == ZERO for cls, _, _ in plans):
                continue
            pieces = [
                box_piece(spec, shells, profile, scale, factor.translation)
                for spec, factor, (_, shells, profile) in zip(spectra, factors, plans)
            ]
            add_box_product(out, grid, coeff, pieces)
            if certificate is not None:
                product = reduce(operator.add, (shells for _, shells, _ in plans))
                certificate = certificate | product if product.hull[1] < grid.nyquist else None
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

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _signed_offsets(grid: GridSpec, center: np.ndarray) -> np.ndarray:
    """Min-image offsets x - center per grid point (d=1: shape (M,), d=2: radii)."""
    if grid.dimension == 1:
        x = grid.axis_coordinates()
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
    """Direct quadrature over the n-fold product grid (d = 1, n in {2, 3}), in row chunks."""
    n = kernel.n
    _require_exact_grid(grid, n)
    m = grid.samples_per_axis
    axes = kernel._exact_axes(grid)
    j, terms = kernel._sampled_terms(grid)
    if n == 2:
        rest_sq = axes[1][None, :] ** 2
    else:
        rest_sq = (axes[1][:, None] ** 2 + axes[2][None, :] ** 2)[None]
    chunk = m if n == 2 else 64
    total = 0.0
    for start in range(0, m, chunk):
        rows = np.arange(start, min(start + chunk, m))
        vals = np.abs(_shear_rows(j, terms, rows))
        lead_sq = (axes[0][rows] ** 2).reshape((rows.size,) + (1,) * (n - 1))
        total += float(np.sum(vals * _weight(np.sqrt(lead_sq + rest_sq), lam)))
    return total * grid.cell_volume**n


_DEFAULT_SHELLS = {2: 256, 3: 128, 4: 48, 5: 24}


def _shell_data(
    factor: SpectralFactor, grid: GridSpec, shells: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-shell (mass, offset low, offset high) for one factor.

    d = 1 buckets the *signed* min-image offset, which keeps interval
    arithmetic on differences tight; d = 2 buckets the radial offset.
    """
    center = factor.center(grid.dimension)
    off = _signed_offsets(grid, center)
    signed = grid.dimension == 1
    if not signed:
        off = np.abs(off)
    base = float(off.min()) if signed else 0.0
    reach = float(off.max()) - base
    width = reach / shells if reach > 0 else 1.0
    idx = np.minimum(((off - base) / width).astype(int), shells - 1)
    mags = np.abs(factor.field_on(grid).values)
    mass = np.bincount(idx.ravel(), weights=mags.ravel(), minlength=shells) * grid.cell_volume
    lo = base + np.arange(shells) * width
    hi = lo + width
    return mass, lo, hi


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


def _bracket_d_lambda(
    kernel: Union[TensorKernel, "TransposedKernel"], lam: float, grid: GridSpec, shells: Optional[int]
) -> Tuple[float, float]:
    """Certified bounds from per-slot shell masses and the kernel's per-slot shell bounds."""
    base = kernel.base if isinstance(kernel, TransposedKernel) else kernel
    if base.rank != 1:
        raise ValueError("bracket path handles rank-1 kernels")
    n = base.n
    s = shells or _DEFAULT_SHELLS.get(n, 16)
    coeff, factors = base.terms[0]
    flat = [g.ravel() for g in np.meshgrid(*[np.arange(s)] * n, indexing="ij")]
    mass = np.ones(flat[0].size)
    lows, highs = [], []
    shell = {}  # equal factors (the s and t slots in separation mode) share one sampling
    for k, factor in enumerate(factors):
        key = (factor.profile, tuple(factor.center(grid.dimension)))
        if key not in shell:
            shell[key] = _shell_data(factor, grid, s)
        m_k, lo_k, hi_k = shell[key]
        mass *= m_k[flat[k]]
        lows.append(lo_k[flat[k]])
        highs.append(hi_k[flat[k]])
    centers = [f.center(grid.dimension) for f in factors]
    bounds = kernel._shell_bounds(centers, lows, highs, signed=grid.dimension == 1)
    lo_sq = sum(lo**2 for lo, _ in bounds)
    hi_sq = sum(hi**2 for _, hi in bounds)
    live = mass > 0
    lower = abs(coeff) * float(np.sum(mass[live] * _weight(np.sqrt(lo_sq[live]), lam)))
    upper = abs(coeff) * float(np.sum(mass[live] * _weight(np.sqrt(hi_sq[live]), lam)))
    return lower, upper


def d_lambda(
    kernel: Union[TensorKernel, "TransposedKernel"],
    lam: float,
    grid: GridSpec,
    method: str = "auto",
    shells: Optional[int] = None,
    budget: int = 2**24,
) -> DLambdaResult:
    """The log-weighted kernel size; exact on small product grids, bracketed otherwise.

    The bracket is certified (quadrature value lies between the bounds); a
    bracket wider than 10% of the value is refused with advice.
    """
    if not 0 <= lam < math.inf:  # NaN fails too
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    if method == "auto":
        exact_ok = grid.dimension == 1 and kernel.n <= 3 and grid.size**kernel.n <= budget
        method = "exact" if exact_ok else "bracket"
    if method == "exact":
        value = _exact_d_lambda(kernel, lam, grid)
        return DLambdaResult(value, value, value, "exact")
    if method != "bracket":
        raise ValueError(f"unknown method {method!r}")
    lower, upper = _bracket_d_lambda(kernel, lam, grid, shells)
    value = 0.5 * (lower + upper)
    if value > 0 and (upper - lower) > 0.1 * value:
        raise ValueError(
            f"bracket width {upper - lower} exceeds 10% of the value {value}; "
            "reduce the slot count/dimension or use more shells"
        )
    return DLambdaResult(value, lower, upper, "bracket")


@dataclass(frozen=True)
class TransposedKernel:
    """Shear of a kernel: slot j swaps with the dual argument.

    Evaluation at (y_1, ..., y_n) is K(y_1 - y_j, ..., -y_j, ..., y_n - y_j).
    The shear mixes slots, so the result is generally not rank-1; the handle
    supports pointwise row evaluation (the exact D_lambda path) and the
    bracketed size.  Grid differences stay on the grid, so the shear
    evaluates exactly from the sampled factor fields.
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

    def _sampled_terms(self, grid: GridSpec) -> Tuple[int, list]:
        """The swapped slot and the base kernel's sampled terms."""
        return self.j, self.base._sampled_terms(grid)[1]

    def _exact_axes(self, grid: GridSpec) -> list:
        """Per-slot weight coordinates: min-image offsets from the origin."""
        return [_signed_offsets(grid, np.zeros(1))] * self.n

    def _shell_bounds(self, centers, lows, highs, signed: bool) -> list:
        """Per-slot bounds on |y_k| after the shear y_k -> y_k - y_j (y_j -> -y_j)."""
        jj = self.j - 1
        c_j, lo_j, hi_j = centers[jj], lows[jj], highs[jj]
        bounds = [_offset_bounds(c_j, lo_j, hi_j, signed)]
        for k in range(self.n):
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
