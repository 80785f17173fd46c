"""End-to-end sharpness stress construction for the log-weighted multiplier bound.

Two prepackaged regimes share the same machinery:

* identity mode: tightly spaced modulation exponents on a modest grid.  The
  physical bumps may overlap (flagged, not fatal) because the cancellation
  that collapses the scale sum to ``N * eta**2 * beta**(n-2)`` is purely
  spectral and stays exact.
* separation mode: wider spacing and a large grid, so the bump positions stay
  separated and the measured input norms track ``N**(1/p)``; this is the
  regime where the output/input ratio exposes the converse direction.

Every support condition the construction relies on is checked by exact
interval arithmetic on the profile certificates before anything is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .calibration import AnnularProfile, RadialProfile, make_counterexample_profiles, profile_to_field
from .exponents import PTuple, lambda_st, sharp_lambda
from .field import GridSpec, SampledField, add_box_product, conjugate, lp_norm, symbol_box, transform
from .multiplier import SpectralFactor, TensorKernel, apply_t, d_lambda
from .shifted_lab import bump_train, packet_bins

__all__ = [
    "CxConfig",
    "CxConstraint",
    "CxValidation",
    "CxReport",
    "identity_config",
    "separation_config",
    "reference_config",
    "validate_config",
    "build_inputs",
    "build_kernel",
    "orthogonality_check",
    "run_counterexample",
    "ratio_growth_fit",
]


@dataclass(frozen=True)
class CxConfig:
    """Full parameterization of one construction run.

    ``grid`` may be None for symbolic (support-arithmetic only) validation.
    ``lam`` defaults to the sharp exponent of the p-tuple when unset.
    """

    n: int
    n_packets: int
    s: int
    t: int
    zetas: Tuple[int, ...]
    eta_radius: float
    beta_plateau: Tuple[float, float]
    beta_support: Tuple[float, float]
    reciprocals: Tuple[Fraction, ...]
    grid: Optional[GridSpec] = None
    lam: Optional[float] = None
    mode: str = "custom"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n >= 2 required")
        if not (1 <= self.s < self.t <= self.n):
            raise ValueError(f"need 1 <= s < t <= n, got ({self.s}, {self.t})")
        if len(self.zetas) != self.n_packets:
            raise ValueError("one modulation exponent per packet required")
        if len(self.reciprocals) != self.n:
            raise ValueError("one reciprocal exponent per slot required")

    @property
    def ptuple(self) -> PTuple:
        return PTuple(self.reciprocals)

    @property
    def scale_range(self) -> range:
        return range(min(self.zetas), max(self.zetas) + 1)

    @property
    def profiles(self) -> Tuple[RadialProfile, AnnularProfile]:
        return make_counterexample_profiles(self.eta_radius, self.beta_plateau, self.beta_support)

    @property
    def bump_positions(self) -> Tuple[float, ...]:
        top = max(self.zetas)
        return tuple(2.0 ** (top - z) for z in self.zetas)

    @property
    def bump_width(self) -> float:
        # decay-length proxy for the band-limited envelope
        return 4.0 / self.eta_radius

    @property
    def lam_value(self) -> float:
        if self.lam is not None:
            return self.lam
        return float(sharp_lambda(self.ptuple))


def identity_config(
    n: int = 3,
    n_packets: int = 4,
    samples: int = 2**18,
    period: float = 2.0**8,
    offset: int = 2,
    reciprocals: Optional[Sequence[Fraction]] = None,
) -> CxConfig:
    """Spectral-identity regime: unit spacing with a small offset.

    Unit spacing needs the offset so the low-pass factor's plateau covers the
    annular factor's support at the smallest scale (an n >= 3 constraint).
    """
    recs = tuple(reciprocals) if reciprocals is not None else (Fraction(1, 4),) * n
    return CxConfig(
        n=n,
        n_packets=n_packets,
        s=1,
        t=2,
        zetas=tuple(k + offset for k in range(1, n_packets + 1)),
        eta_radius=0.4,
        beta_plateau=(0.9, 1.1),
        beta_support=(0.55, 1.25),
        reciprocals=recs,
        grid=GridSpec(1, samples, period),
        mode="identity",
    )


def separation_config(
    n_packets: int = 3,
    samples: int = 2**22,
    period: float = 320.0,
    spacing: int = 4,
    lam: Optional[float] = None,
    eta_radius: float = 0.4,
) -> CxConfig:
    """Separated-bump regime (bilinear): spacing 4, positions distinct modulo the period."""
    return CxConfig(
        n=2,
        n_packets=n_packets,
        s=1,
        t=2,
        zetas=tuple(spacing * k for k in range(1, n_packets + 1)),
        eta_radius=eta_radius,
        beta_plateau=(20.0 / 21.0, 21.0 / 20.0),
        beta_support=(10.0 / 11.0, 11.0 / 10.0),
        reciprocals=(Fraction(1, 4), Fraction(1, 4)),
        grid=GridSpec(1, samples, period),
        lam=lam,
        mode="separation",
    )


def reference_config(n: int = 3, n_packets: int = 3) -> CxConfig:
    """Reference radii and schedule; symbolic validation only (no grid fits it)."""
    return CxConfig(
        n=n,
        n_packets=n_packets,
        s=1,
        t=2,
        zetas=tuple(10 * k for k in range(1, n_packets + 1)),
        eta_radius=1.0 / 100.0,
        beta_plateau=(20.0 / 21.0, 21.0 / 20.0),
        beta_support=(10.0 / 11.0, 11.0 / 10.0),
        reciprocals=(Fraction(1, 4),) * n,
        grid=None,
        mode="reference",
    )


@dataclass(frozen=True)
class CxConstraint:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class CxValidation:
    constraints: Tuple[CxConstraint, ...]

    @property
    def frequency_ok(self) -> bool:
        return all(c.ok for c in self.constraints if not c.name.startswith("separation"))

    @property
    def separation_ok(self) -> bool:
        return all(c.ok for c in self.constraints if c.name.startswith("separation"))

    def first_violation(self) -> Optional[CxConstraint]:
        return next((c for c in self.constraints if not c.ok), None)


def validate_config(cfg: CxConfig) -> CxValidation:
    """Exact interval arithmetic over every support condition the identity needs."""
    rho = cfg.eta_radius
    pl_lo, pl_hi = cfg.beta_plateau
    su_lo, su_hi = cfg.beta_support
    zetas = cfg.zetas
    out: List[CxConstraint] = []

    distinct = all(a < b for a, b in zip(zetas, zetas[1:]))
    out.append(
        CxConstraint(
            "schedule-strictly-increasing",
            distinct,
            f"zetas={zetas}" if distinct else f"zetas={zetas} are not strictly increasing",
        )
    )
    if distinct:
        gap = min(2.0**b - 2.0**a for a, b in zip(zetas, zetas[1:])) if len(zetas) > 1 else math.inf
        out.append(
            CxConstraint(
                "shifted-supports-disjoint",
                gap > 2 * rho,
                f"min modulation gap {gap} vs ball diameter {2 * rho}",
            )
        )
    else:
        out.append(
            CxConstraint(
                "shifted-supports-disjoint", False, "repeated schedule values make shifted supports coincide"
            )
        )

    z1 = min(zetas)
    ok_plateau = (2.0**z1 * (1.0 - pl_lo) > rho) and (2.0**z1 * (pl_hi - 1.0) > rho)
    out.append(
        CxConstraint(
            "ball-inside-own-plateau",
            ok_plateau,
            f"2**{z1}*(1-{pl_lo})={2.0 ** z1 * (1 - pl_lo)}, "
            f"2**{z1}*({pl_hi}-1)={2.0 ** z1 * (pl_hi - 1)} vs rho={rho}",
        )
    )

    ok_off = True
    detail_off = "all off-scale dilates miss every shifted ball"
    for zk in zetas:
        for ell in range(min(zetas), max(zetas) + 1):
            if ell == zk:
                continue
            if ell > zk:
                if not (2.0**ell * su_lo > 2.0**zk + rho):
                    ok_off = False
                    detail_off = (
                        f"scale {ell} support inner edge {2.0 ** ell * su_lo} does not clear "
                        f"ball at 2**{zk} + {rho}"
                    )
            else:
                if not (2.0**ell * su_hi < 2.0**zk - rho):
                    ok_off = False
                    detail_off = (
                        f"scale {ell} support outer edge {2.0 ** ell * su_hi} reaches "
                        f"ball at 2**{zk} - {rho}"
                    )
    out.append(CxConstraint("ball-outside-other-scales", ok_off, detail_off))

    if cfg.n >= 3:
        cover = 2.0**z1 * (rho / 2.0)
        out.append(
            CxConstraint(
                "lowpass-plateau-covers-annulus",
                cover >= su_hi,
                f"2**{z1}*rho/2={cover} vs annulus outer edge {su_hi}",
            )
        )

    if cfg.grid is not None:
        nyq = cfg.grid.nyquist
        top = max(zetas)
        needed = max(2.0**top + rho, 2.0**top * su_hi)
        out.append(
            CxConstraint(
                "below-nyquist",
                needed < nyq,
                f"max certified frequency {needed} vs Nyquist {nyq}",
            )
        )
        positions = sorted(p % cfg.grid.period for p in cfg.bump_positions)
        width = cfg.bump_width
        fit = max(cfg.bump_positions) + width <= cfg.grid.period
        sep = True
        if len(positions) > 1:
            gaps = [b - a for a, b in zip(positions, positions[1:])]
            gaps.append(positions[0] + cfg.grid.period - positions[-1])
            sep = min(gaps) >= width
        out.append(
            CxConstraint(
                "separation-positions-fit",
                fit,
                f"max position {max(cfg.bump_positions)} + width {width} vs period {cfg.grid.period}",
            )
        )
        out.append(
            CxConstraint(
                "separation-positions-apart",
                sep,
                f"positions mod period {positions}, width {width}"
                + ("" if sep else " (overlapping; spectral identity unaffected)"),
            )
        )
    return CxValidation(tuple(out))


def _require_valid(cfg: CxConfig) -> CxValidation:
    validation = validate_config(cfg)
    if not validation.frequency_ok:
        bad = validation.first_violation()
        raise ValueError(f"configuration violates {bad.name}: {bad.detail}")
    return validation


def build_inputs(cfg: CxConfig) -> List[SampledField]:
    """The two modulated packet trains plus annular-profile fields in the other slots."""
    if cfg.grid is None:
        raise ValueError("building inputs requires a grid")
    _require_valid(cfg)
    grid = cfg.grid
    # packet z sits at -2**(top - z): the annular factor's shift 2**top / 2**z
    # brings every packet to the origin
    top = max(cfg.zetas)
    f_s = bump_train(grid, 2**top, cfg.zetas, cfg.eta_radius)
    # the packet envelope is real, so the mirrored train is exactly the conjugate
    f_t = conjugate(f_s)
    # only n >= 3 has slots besides s and t
    beta_field = profile_to_field(cfg.profiles[1], grid) if cfg.n > 2 else None
    fields: List[SampledField] = []
    for slot in range(1, cfg.n + 1):
        if slot == cfg.s:
            fields.append(f_s)
        elif slot == cfg.t:
            fields.append(f_t)
        else:
            fields.append(beta_field)
    return fields


def build_kernel(cfg: CxConfig) -> TensorKernel:
    """Rank-1 kernel: translated annular factors in the pair slots, low-pass elsewhere."""
    _require_valid(cfg)
    eta_hat, beta_hat = cfg.profiles
    dim = cfg.grid.dimension if cfg.grid is not None else 1
    shift = (2.0 ** max(cfg.zetas),) + (0.0,) * (dim - 1)
    factors = []
    for slot in range(1, cfg.n + 1):
        if slot in (cfg.s, cfg.t):
            factors.append(SpectralFactor(beta_hat, translation=shift))
        else:
            factors.append(SpectralFactor(eta_hat))
    return TensorKernel.rank_one(factors)


def orthogonality_check(cfg: CxConfig) -> float:
    """Max over scales, packets, and grid frequencies of the annulus/ball mismatch.

    The product of the dilated annular profile with a shifted ball profile must
    be exactly the ball profile at the matching scale and exactly zero at every
    other scale; hard-zero profiles make this a roundoff-free statement.  Off
    a ball's bin blocks the ball profile is exactly 0, and so is the mismatch,
    so each packet is swept on its own blocks only.
    """
    if cfg.grid is None:
        raise ValueError("the frequency sweep requires a grid")
    _require_valid(cfg)
    grid = cfg.grid
    eta_hat, beta_hat = cfg.profiles
    radii = grid.frequency_radii()
    worst = 0.0
    for z in cfg.zetas:
        for block, _, ball in packet_bins(grid, eta_hat, 2.0**z):
            ball = ball.real
            for ell in cfg.scale_range:
                dilated = beta_hat(radii[block] * 2.0**-ell)
                expected = ball if ell == z else 0.0
                worst = max(worst, float(np.max(np.abs(dilated * ball - expected))))
    return worst


@dataclass(frozen=True)
class CxReport:
    n: int
    n_packets: int
    identity_error: float
    output_norm: float
    input_norms: Tuple[float, ...]
    d_lambda_value: float
    d_lambda_bounds: Tuple[float, float]
    lam: float
    ratio: float
    validation: CxValidation
    orthogonality: float

    def rows(self) -> List[dict]:
        return [
            {
                "N": self.n_packets,
                "identity_error": self.identity_error,
                "output_norm": self.output_norm,
                **{f"norm_{i + 1}": v for i, v in enumerate(self.input_norms)},
                "d_lambda": self.d_lambda_value,
                "ratio": self.ratio,
            }
        ]


def run_counterexample(cfg: CxConfig, check_orthogonality: bool = True) -> CxReport:
    """Build, verify the collapse identity, and measure the norm ratio."""
    if cfg.grid is None:
        raise ValueError("running the construction requires a grid")
    validation = _require_valid(cfg)
    grid = cfg.grid
    fields = build_inputs(cfg)
    kernel = build_kernel(cfg)
    ortho = orthogonality_check(cfg) if check_orthogonality else float("nan")

    output = apply_t(kernel, fields, cfg.scale_range)
    # closed form N eta**2 beta**(n-2) from the symbols, vs the kept output spectrum (Parseval)
    eta_hat, beta_hat = cfg.profiles
    closed = np.zeros(grid.shape, dtype=np.complex128)
    symbols = [symbol_box(grid, eta_hat)] * 2 + [symbol_box(grid, beta_hat)] * (cfg.n - 2)
    add_box_product(closed, grid, cfg.n_packets, symbols)
    closed_norm = math.sqrt(np.vdot(closed, closed).real)
    if closed_norm == 0.0:
        raise ValueError("closed form vanishes; the grid underresolves the profiles")
    closed -= transform(output).coefficients
    identity_error = math.sqrt(np.vdot(closed, closed).real) / closed_norm

    # the trains and the output keep their spectra: lp_norm reads L^2 and L^4 from them, unsampled
    pt = cfg.ptuple
    input_norms = []
    for f, r in zip(fields, pt.reciprocals):
        p = math.inf if r == 0 else float(1 / r)
        input_norms.append(lp_norm(f, p))
    r_sum = sum(pt.reciprocals)
    if r_sum == 0:
        raise ValueError("output exponent is infinite; the oscillation norm is out of scope here")
    p_out = float(1 / r_sum)
    output_norm = lp_norm(output, p_out)

    lam = cfg.lam_value
    dres = d_lambda(kernel, lam, grid)
    ratio = output_norm / (dres.value * math.prod(input_norms))
    return CxReport(
        n=cfg.n,
        n_packets=cfg.n_packets,
        identity_error=identity_error,
        output_norm=output_norm,
        input_norms=tuple(input_norms),
        d_lambda_value=dres.value,
        d_lambda_bounds=(dres.lower, dres.upper),
        lam=lam,
        ratio=ratio,
        validation=validation,
        orthogonality=ortho,
    )


@dataclass(frozen=True)
class RatioGrowthFit:
    slope: float
    residual: float
    predicted_slope: float
    rows: Tuple[dict, ...]


def ratio_growth_fit(cfgs: Sequence[CxConfig]) -> RatioGrowthFit:
    """Slope of log(ratio) against log(N) across runs, vs the exact prediction.

    The predicted slope is the pairwise exponent of the (s, t) slots minus the
    weight exponent actually used in the denominator.
    """
    return _fit_reports(cfgs, (run_counterexample(cfg, check_orthogonality=False) for cfg in cfgs))


def _fit_reports(cfgs: Sequence[CxConfig], reports: Iterable[CxReport]) -> RatioGrowthFit:
    """:func:`ratio_growth_fit` from one report per config.

    ``reports`` is consumed only after the configs pass the checks, so a lazy
    iterable runs nothing for a rejected set.
    """
    if len(cfgs) < 3:
        raise ValueError("need at least 3 packet counts for a growth fit")
    base = cfgs[0]
    for cfg in cfgs[1:]:
        if (cfg.n, cfg.s, cfg.t, cfg.reciprocals) != (base.n, base.s, base.t, base.reciprocals):
            raise ValueError("growth fits require consistent slots and exponents across runs")
    ns = [cfg.n_packets for cfg in cfgs]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("packet counts must strictly increase")
    reports = list(reports)
    x = np.log(np.array(ns, dtype=float))
    z = np.log(np.array([r.ratio for r in reports]))
    slope, intercept = np.polyfit(x, z, 1)
    resid = float(np.sqrt(np.mean((z - (slope * x + intercept)) ** 2)))
    pt = base.ptuple
    predicted = float(lambda_st(pt, base.s, base.t)) - base.lam_value
    rows = tuple(
        {"N": r.n_packets, "ratio": r.ratio, "identity_error": r.identity_error} for r in reports
    )
    return RatioGrowthFit(float(slope), resid, predicted, rows)
