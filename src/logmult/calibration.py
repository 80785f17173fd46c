"""Frequency-side profile construction with machine-checkable certificates.

All profiles are radial, take values in [0, 1], and are *exactly* 0 / 1 off
and on their certified regions: the smooth bridge between plateau and support
edge is the classical exp(-1/t) mollifier ramp, whose branches are evaluated
piecewise so that the zeros are hard zeros, not small numbers.

The plateau guarantee is exact too: at every radius on the closed plateau the
ramp argument is at least 1 in floating point (rounding is monotone and the
plateau edge maps to exactly 1), so the profile returns exactly ``1.0``, and
dividing a grid radius by ``2**l`` is exact.  :func:`field.piece_plan` relies
on this to sort each scale's piece of a field into one of three classes by
its shell certificate, the field's met with the dilated support: zero (the
meet is empty), plateau (every bin of the meet lies inside the dilated closed
plateau, so the profile is exactly 1 there) and partial.

The low-pass/annular pair is telescoped: ``psi_hat(xi) = phi_hat(xi) -
phi_hat(2 xi)`` makes the dyadic partition of unity an algebraic identity on
the covered octaves rather than a numerical approximation.  The telescoped
annulus is 1 only on the sphere ``|xi| = 1`` and declares no plateau, so its
pieces are never plateau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "RadialProfile",
    "AnnularProfile",
    "LPPair",
    "make_lowpass",
    "make_lp_pair",
    "make_counterexample_profiles",
]


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class RadialProfile:
    """Radial low-pass bump: 1 on |xi| <= plateau_radius, 0 off |xi| >= support_radius."""

    plateau_radius: float
    support_radius: float

    def __post_init__(self):
        if not (0 < self.plateau_radius < self.support_radius):
            raise ValueError(
                f"need 0 < plateau_radius < support_radius, got "
                f"({self.plateau_radius}, {self.support_radius})"
            )

    def __call__(self, r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        # ramp decreasing from 1 at plateau edge to 0 at support edge
        t = (self.support_radius - r) / (self.support_radius - self.plateau_radius)
        return _smoothstep(t)

    @property
    def support(self) -> Tuple[float, float]:
        return (0.0, self.support_radius)

    @property
    def plateau(self) -> Tuple[float, float]:
        return (0.0, self.plateau_radius)

    def to_record(self) -> Dict[str, float]:
        return {
            "kind": "lowpass",
            "plateau_radius": self.plateau_radius,
            "support_radius": self.support_radius,
            "bridge": "exp-reciprocal",
        }


@dataclass(frozen=True)
class AnnularProfile:
    """Radial annular bump: 1 on the plateau annulus, 0 off the support annulus."""

    plateau_inner: float
    plateau_outer: float
    support_inner: float
    support_outer: float

    def __post_init__(self):
        ok = 0 < self.support_inner < self.plateau_inner <= self.plateau_outer < self.support_outer
        if not ok:
            raise ValueError(
                "need 0 < support_inner < plateau_inner <= plateau_outer < support_outer, got "
                f"({self.support_inner}, {self.plateau_inner}, "
                f"{self.plateau_outer}, {self.support_outer})"
            )

    def __call__(self, r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        rise = _smoothstep((r - self.support_inner) / (self.plateau_inner - self.support_inner))
        fall = _smoothstep((self.support_outer - r) / (self.support_outer - self.plateau_outer))
        return np.minimum(rise, fall)

    @property
    def support(self) -> Tuple[float, float]:
        return (self.support_inner, self.support_outer)

    @property
    def plateau(self) -> Tuple[float, float]:
        return (self.plateau_inner, self.plateau_outer)

    def to_record(self) -> Dict[str, float]:
        return {
            "kind": "annular",
            "plateau_inner": self.plateau_inner,
            "plateau_outer": self.plateau_outer,
            "support_inner": self.support_inner,
            "support_outer": self.support_outer,
            "bridge": "exp-reciprocal",
        }


@dataclass(frozen=True)
class _TelescopedAnnulus:
    """psi_hat(xi) = phi_hat(xi) - phi_hat(2 xi); supported in 1/2 <= |xi| <= 2."""

    phi_hat: RadialProfile

    def __call__(self, r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        return self.phi_hat(r) - self.phi_hat(2.0 * r)

    @property
    def support(self) -> Tuple[float, float]:
        return (self.phi_hat.plateau_radius / 2.0, self.phi_hat.support_radius)

    def to_record(self) -> Dict[str, float]:
        return {"kind": "telescoped-annulus", **{f"phi_{k}": v for k, v in self.phi_hat.to_record().items()}}


@dataclass(frozen=True)
class LPPair:
    """Calibrated low-pass/annular pair with a dyadic scale range.

    The telescoping identity ``sum_l psi_hat(2**-l xi) = 1`` holds exactly for
    ``2**scale_min <= |xi| <= 2**scale_max``; at most two consecutive dilates
    are nonzero at any frequency.
    """

    phi_hat: RadialProfile
    psi_hat: _TelescopedAnnulus
    scale_min: int
    scale_max: int

    def __post_init__(self):
        if self.scale_min >= self.scale_max:
            raise ValueError(f"need scale_min < scale_max, got [{self.scale_min}, {self.scale_max}]")

    @property
    def scales(self) -> range:
        return range(self.scale_min, self.scale_max + 1)

    @property
    def covered_band(self) -> Tuple[float, float]:
        """Frequency annulus on which the dyadic partition sums to exactly 1."""
        return (2.0**self.scale_min, 2.0**self.scale_max)

    def partition_sum(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        total = np.zeros_like(r)
        for scale in self.scales:
            total = total + self.psi_hat(r * 2.0**-scale)
        return total

    def to_record(self) -> Dict[str, object]:
        return {
            "phi": self.phi_hat.to_record(),
            "psi": self.psi_hat.to_record(),
            "scale_min": self.scale_min,
            "scale_max": self.scale_max,
        }


def make_lowpass(plateau_radius: float, support_radius: float) -> RadialProfile:
    """Smooth radial low-pass profile, exactly 1 inside and 0 outside."""
    return RadialProfile(plateau_radius, support_radius)


def make_lp_pair(scale_range: Tuple[int, int]) -> LPPair:
    """Standard calibrated pair: phi_hat = lowpass(1, 2), psi_hat telescoped."""
    scale_min, scale_max = scale_range
    phi = make_lowpass(1.0, 2.0)
    return LPPair(phi, _TelescopedAnnulus(phi), int(scale_min), int(scale_max))


def make_counterexample_profiles(
    eta_radius: float = 1.0 / 100.0,
    beta_plateau: Tuple[float, float] = (20.0 / 21.0, 21.0 / 20.0),
    beta_support: Tuple[float, float] = (10.0 / 11.0, 11.0 / 10.0),
) -> Tuple[RadialProfile, AnnularProfile]:
    """Low-pass eta_hat (plateau rho/2, support rho) and annular beta_hat.

    Defaults are the reference radii; desk experiments override them with
    wider, coarser-grid-friendly values.  Each profile's constructor refuses
    its own geometry, naming the radii it needs ordered.
    """
    return RadialProfile(eta_radius / 2.0, eta_radius), AnnularProfile(*beta_plateau, *beta_support)

