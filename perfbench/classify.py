"""Certificate-based dispatch classes of shifted dyadic pieces.

A piece ``Phi_hat(2**-l xi) * f_hat(xi)`` (times a translation phase) falls
into exactly one class, decided from the input's band certificate and the
profile's support and plateau alone:

* ``zero``    -- the dilated support misses the band (closed intervals, the
                 same rule ``lp_ops._effective_band`` uses), so the piece is
                 identically zero;
* ``plateau`` -- the band lies inside the dilated plateau, where the profile is
                 exactly 1, so the piece is the input translated by 2**-l y;
* ``partial`` -- everything else: the profile must be evaluated.

Inputs without a band certificate are ``partial`` at every scale.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Tuple

ZERO, PLATEAU, PARTIAL = "zero", "plateau", "partial"
CLASSES = (ZERO, PLATEAU, PARTIAL)


def plateau_of(profile) -> Optional[Tuple[float, float]]:
    """Closed radial interval on which ``profile`` is exactly 1, or None."""
    plateau = getattr(profile, "plateau", None)
    if plateau is not None:
        return plateau
    phi_hat = getattr(profile, "phi_hat", None)
    if phi_hat is not None:
        # telescoped annulus phi(r) - phi(2r): 1 where phi(r) = 1 and phi(2r) = 0
        lo, hi = phi_hat.support_radius / 2.0, phi_hat.plateau_radius
        return (lo, hi) if lo <= hi else None
    return None


def classify(band: Optional[Tuple[float, float]], profile, scale: int) -> str:
    """Dispatch class of the piece of a field certified to ``band`` at ``scale``."""
    if band is None:
        return PARTIAL
    dilation = 2.0**scale
    s_lo, s_hi = profile.support
    if max(s_lo * dilation, band[0]) > min(s_hi * dilation, band[1]):
        return ZERO
    plateau = plateau_of(profile)
    if plateau is not None and plateau[0] * dilation <= band[0] and band[1] <= plateau[1] * dilation:
        return PLATEAU
    return PARTIAL


def piece_classes(band, profile, scales: Iterable[int]) -> Counter:
    """Count of pieces per class over ``scales``."""
    return Counter(classify(band, profile, scale) for scale in scales)
