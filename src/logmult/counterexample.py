"""End-to-end sharpness stress construction for the log-weighted multiplier bound.

The pair of slots is fixed at (s, t) = (1, 2): slot 1 holds the modulated
packet train, slot 2 its conjugate, and every slot from 3 to n (n >= 3 only)
an annular-profile field.  The predicted ratio slope is ``lambda_st(p, 1, 2)``
minus the weight exponent.

Two prepackaged regimes share the same machinery:

* identity mode: tightly spaced modulation exponents on a modest grid.  The
  physical bumps may overlap (flagged, not fatal) because the cancellation
  that collapses the scale sum to ``N * eta**2 * beta**(n-2)`` is purely
  spectral and stays exact.
* separation mode: wider spacing and a large grid, so the bump positions stay
  separated and the measured input norms track ``N**(1/p)``; this is the
  regime where the output/input ratio exposes the converse direction.

Every support condition the construction relies on is checked by exact
interval arithmetic on the profile certificates before anything is sampled,
once per configuration: each builder reads the config's one
:attr:`CxConfig.validation`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .calibration import AnnularProfile, RadialProfile, make_counterexample_profiles
from .exponents import PTuple, lambda_st, sharp_lambda
from .field import GridSpec, SampledField, Shell, Shells, add_box_product, certify, conjugate, inverse, lp_norm, transform
from .field import _boxes, box_radii, spectrum_from_boxes, symbol_box, zero_boxes
from .multiplier import SpectralFactor, TensorKernel, apply_t, d_lambda
from .shifted_lab import LogLawFit, _log_law_fit, bump_train

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

    The packet trains sit in slots 1 and 2, one packet per modulation
    exponent in ``zetas``.  ``grid`` may be None for symbolic
    (support-arithmetic only) validation.  ``lam`` defaults to the sharp
    exponent of the p-tuple when unset.

    Each derived fact is decided once: the exponent tuple when the config is
    made, so a tuple the construction cannot run (fewer than 2 slots,
    reciprocals summing past 1) is refused before anything is sampled; the
    profiles and the validation on first use, so a config that is only
    replaced costs nothing.  They are kept beside the fields: equality and
    hashing read the fields only.
    """

    n: int
    zetas: Tuple[int, ...]
    eta_radius: float
    beta_plateau: Tuple[float, float]
    beta_support: Tuple[float, float]
    reciprocals: Tuple[Fraction, ...]
    grid: Optional[GridSpec] = None
    lam: Optional[float] = None

    def __post_init__(self):
        if len(self.reciprocals) != self.n:
            raise ValueError("one reciprocal exponent per slot required")
        self.ptuple  # made, and so checked, now

    @property
    def n_packets(self) -> int:
        return len(self.zetas)

    @cached_property
    def ptuple(self) -> PTuple:
        return PTuple(self.reciprocals)

    @property
    def scale_range(self) -> range:
        return range(min(self.zetas), max(self.zetas) + 1)

    @cached_property
    def profiles(self) -> Tuple[RadialProfile, AnnularProfile]:
        return make_counterexample_profiles(self.eta_radius, self.beta_plateau, self.beta_support)

    @cached_property
    def validation(self) -> CxValidation:
        return validate_config(self)

    @property
    def bump_positions(self) -> Tuple[float, ...]:
        top = max(self.zetas)
        return tuple(2.0 ** (top - z) for z in self.zetas)

    @property
    def bump_width(self) -> float:
        # decay-length proxy for the band-limited envelope
        return 4.0 / self.eta_radius

    @cached_property
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
    lam: Optional[float] = None,
) -> CxConfig:
    """Spectral-identity regime: unit spacing with a small offset.

    Unit spacing needs the offset so the low-pass factor's plateau covers the
    annular factor's support at the smallest scale (an n >= 3 constraint).
    """
    return CxConfig(
        n=n,
        zetas=tuple(k + offset for k in range(1, n_packets + 1)),
        eta_radius=0.4,
        beta_plateau=(0.9, 1.1),
        beta_support=(0.55, 1.25),
        reciprocals=(Fraction(1, 4),) * n,
        grid=GridSpec(1, samples, period),
        lam=lam,
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
        zetas=tuple(spacing * k for k in range(1, n_packets + 1)),
        eta_radius=eta_radius,
        beta_plateau=(20.0 / 21.0, 21.0 / 20.0),
        beta_support=(10.0 / 11.0, 11.0 / 10.0),
        reciprocals=(Fraction(1, 4), Fraction(1, 4)),
        grid=GridSpec(1, samples, period),
        lam=lam,
    )


def reference_config(n: int = 3, n_packets: int = 3) -> CxConfig:
    """Reference radii and schedule; symbolic validation only (no grid fits it)."""
    return CxConfig(
        n=n,
        zetas=tuple(10 * k for k in range(1, n_packets + 1)),
        eta_radius=1.0 / 100.0,
        beta_plateau=(20.0 / 21.0, 21.0 / 20.0),
        beta_support=(10.0 / 11.0, 11.0 / 10.0),
        reciprocals=(Fraction(1, 4),) * n,
        grid=None,
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
    """Exact interval arithmetic over every support condition the identity needs.

    Reports, never raises; the construction reads it once per config, as
    :attr:`CxConfig.validation`.
    """
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


def _require_valid(cfg: CxConfig) -> None:
    if not cfg.validation.frequency_ok:
        bad = cfg.validation.first_violation()
        raise ValueError(f"configuration violates {bad.name}: {bad.detail}")


def build_inputs(cfg: CxConfig) -> List[SampledField]:
    """The packet train and its conjugate in slots 1 and 2, annular-profile fields in the rest."""
    if cfg.grid is None:
        raise ValueError("building inputs requires a grid")
    _require_valid(cfg)
    grid = cfg.grid
    # packet z sits at -2**(top - z): the annular factor's shift 2**top / 2**z
    # brings every packet to the origin
    top = max(cfg.zetas)
    train = bump_train(grid, 2**top, cfg.zetas, cfg.eta_radius)
    # the packet envelope is real, so the mirrored train is exactly the conjugate
    fields = [train, conjugate(train)]
    if cfg.n > 2:  # only n >= 3 has slots besides the trains
        fields += [SpectralFactor(cfg.profiles[1]).field_on(grid)] * (cfg.n - 2)
    return fields


def build_kernel(cfg: CxConfig) -> TensorKernel:
    """Rank-1 kernel: translated annular factors in slots 1 and 2, low-pass elsewhere."""
    _require_valid(cfg)
    eta_hat, beta_hat = cfg.profiles
    dim = cfg.grid.dimension if cfg.grid is not None else 1
    shift = (2.0 ** max(cfg.zetas),) + (0.0,) * (dim - 1)
    pair = [SpectralFactor(beta_hat, translation=shift)] * 2
    return TensorKernel.rank_one(pair + [SpectralFactor(eta_hat)] * (cfg.n - 2))


def orthogonality_check(cfg: CxConfig) -> float:
    """Max over scales, packets, and grid frequencies of the annulus/ball mismatch.

    The product of the dilated annular profile with a shifted ball profile must
    be exactly the ball profile at the matching scale and exactly zero at every
    other scale; hard-zero profiles make this a roundoff-free statement.  Off
    a ball's boxes the ball profile is exactly 0, and so is the mismatch, so
    each packet is swept on its own ball's boxes only, its profile read about
    the carrier.
    """
    if cfg.grid is None:
        raise ValueError("the frequency sweep requires a grid")
    _require_valid(cfg)
    grid = cfg.grid
    eta_hat, beta_hat = cfg.profiles
    worst = 0.0
    for z in cfg.zetas:
        carrier = (2.0**z,) + (0.0,) * (grid.dimension - 1)
        for _, index in _boxes(grid, Shells((Shell(carrier, *eta_hat.support),))):
            ball, radii = eta_hat(box_radii(grid, index, carrier)), box_radii(grid, index)
            for ell in cfg.scale_range:
                dilated = beta_hat(radii * 2.0**-ell)
                expected = ball if ell == z else 0.0
                worst = max(worst, float(np.max(np.abs(dilated * ball - expected))))
    return worst


@dataclass(frozen=True)
class CxReport:
    """One run's measurements; the config it ran holds its ``n``, ``lam_value`` and ``validation``."""

    n_packets: int
    identity_error: float
    output_norm: float
    input_norms: Tuple[float, ...]
    d_lambda_value: float
    d_lambda_bounds: Tuple[float, float]
    ratio: float

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


def run_counterexample(cfg: CxConfig) -> CxReport:
    """Build, verify the collapse identity, and measure the norm ratio."""
    fields = build_inputs(cfg)  # refuses a config without a grid or with a violated frequency constraint
    grid = cfg.grid
    kernel = build_kernel(cfg)

    output = apply_t(kernel, fields, cfg.scale_range)
    # closed form N eta**2 beta**(n-2) from the symbols, in the boxes of its
    # certificate (the supports' Minkowski sum), vs the kept output spectrum (Parseval)
    eta_hat, beta_hat = cfg.profiles
    profiles = [eta_hat] * 2 + [beta_hat] * (cfg.n - 2)
    symbols = {profile: symbol_box(grid, profile) for profile in set(profiles)}
    shells = reduce(operator.add, (Shells.radial(*profile.support, grid.dimension) for profile in profiles))
    boxes = zero_boxes(grid, shells)
    add_box_product(boxes, grid, cfg.n_packets, [symbols[profile] for profile in profiles])
    closed = certify(grid, boxes, shells)
    closed_norm = lp_norm(inverse(closed), 2)
    if closed_norm == 0.0:
        raise ValueError("closed form vanishes; the grid underresolves the profiles")
    got = transform(output)
    union = None if got.shells is None else shells | got.shells
    error = spectrum_from_boxes(grid, closed.boxes + tuple((first, -values) for first, values in got.boxes), union)
    identity_error = lp_norm(inverse(error), 2) / closed_norm

    # the trains and the output keep their spectra: lp_norm reads L^2 and L^4 from them, unsampled;
    # |f_2| = |conj f_1| = |f_1|, so slot 2 takes slot 1's norm at the same p
    pt = cfg.ptuple
    norm = lru_cache(maxsize=None)(lambda slot, p: lp_norm(fields[slot - 1], p))
    input_norms = [
        norm(1 if slot == 2 else slot, math.inf if r == 0 else float(1 / r))
        for slot, r in enumerate(pt.reciprocals, 1)
    ]
    r_sum = sum(pt.reciprocals)
    if r_sum == 0:
        raise ValueError("output exponent is infinite; the oscillation norm is out of scope here")
    p_out = float(1 / r_sum)
    output_norm = lp_norm(output, p_out)

    dres = d_lambda(kernel, cfg.lam_value, grid)
    ratio = output_norm / (dres.value * math.prod(input_norms))
    return CxReport(
        n_packets=cfg.n_packets,
        identity_error=identity_error,
        output_norm=output_norm,
        input_norms=tuple(input_norms),
        d_lambda_value=dres.value,
        d_lambda_bounds=(dres.lower, dres.upper),
        ratio=ratio,
    )


def ratio_growth_fit(cfgs: Sequence[CxConfig], reports: Optional[Iterable[CxReport]] = None) -> LogLawFit:
    """Slope of log(ratio) against log(N) across the runs' own rows, vs the exact prediction.

    The predicted slope is the pairwise exponent of slots (1, 2) minus the
    weight exponent λ actually used in the denominator, both shared by every run.
    ``reports`` gives one run per config where the caller already made them (each
    config runs here otherwise); it is consumed only after the configs pass the
    checks, so a lazy iterable runs nothing for a rejected set.
    """
    if len(cfgs) < 3:
        raise ValueError("need at least 3 packet counts for a growth fit")
    base = cfgs[0]
    for cfg in cfgs[1:]:
        if (cfg.n, cfg.reciprocals, cfg.lam_value) != (base.n, base.reciprocals, base.lam_value):
            raise ValueError("growth fits require the same slot count, exponents and λ across runs")
    ns = [cfg.n_packets for cfg in cfgs]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("packet counts must strictly increase")
    reports = list(map(run_counterexample, cfgs) if reports is None else reports)
    if [r.n_packets for r in reports] != ns:
        raise ValueError(f"reports of packet counts {[r.n_packets for r in reports]} do not match the configs' {ns}")
    predicted = float(lambda_st(base.ptuple, 1, 2)) - base.lam_value
    return _log_law_fit(np.log(np.array(ns, dtype=float)), [row for r in reports for row in r.rows()], predicted)
