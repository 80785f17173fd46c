"""Exact rational arithmetic for sharp logarithmic exponents and plan selection.

Everything here works on reciprocal tuples: an n-linear problem is described
by ``r_k = 1/p_k`` for k = 1..n together with the derived dual reciprocal
``r' = 1 - sum r_k``; the "full point" ``(r_1, ..., r_n, r')`` always sums to
one.  Infinite exponents are represented by reciprocal zero.

All arithmetic is in :class:`fractions.Fraction`.  The threshold branches at
1/2 and the duplicate-counting order statistics are discontinuous in their
inputs, so floats are never used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple, Union

__all__ = [
    "INF_TOKENS",
    "PTuple",
    "SplitPlan",
    "InterpolationStep",
    "InterpolationPlan",
    "InterpolationDiagnosis",
    "mx_k",
    "mn_k",
    "sharp_lambda",
    "lambda_st",
    "lambda_st_prime",
    "lambda_prime",
    "lambda_st_dprime",
    "select_split",
    "interpolation_step",
    "interpolation_plan",
    "brute_lambda",
    "counterexample_slots",
]

RationalLike = Union[int, Fraction, str]
INF_TOKENS = ("inf", "infinity", "oo")  # exponent spellings of infinity, any case
HALF = Fraction(1, 2)
ONE = Fraction(1)


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, float):
        raise TypeError(f"exponent arithmetic is exact; pass Fraction/int/str, not float {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class PTuple:
    """Exact reciprocal tuple (1/p_1, ..., 1/p_n) with the derived dual reciprocal."""

    reciprocals: Tuple[Fraction, ...]

    def __post_init__(self):
        recs = tuple(_frac(r) for r in self.reciprocals)
        if len(recs) < 2:
            raise ValueError("need n >= 2 exponents")
        for r in recs:
            if not (0 <= r <= 1):
                raise ValueError(f"reciprocal {r} outside [0, 1]")
        if sum(recs) > 1:
            raise ValueError(f"reciprocals sum to {sum(recs)} > 1 (p < 1 is out of scope)")
        object.__setattr__(self, "reciprocals", recs)

    @classmethod
    def from_ps(cls, ps: Sequence[RationalLike]) -> "PTuple":
        """Build from exponent values; the string 'inf' (or Fraction 0 reciprocal) is allowed."""
        recs = []
        for p in ps:
            if isinstance(p, str) and p.strip().lower() in INF_TOKENS:
                recs.append(Fraction(0))
                continue
            pf = _frac(p)
            if pf < 1:
                raise ValueError(f"exponent {p} < 1 is out of scope")
            recs.append(1 / pf)
        return cls(tuple(recs))

    @property
    def n(self) -> int:
        return len(self.reciprocals)

    @property
    def dual_reciprocal(self) -> Fraction:
        return ONE - sum(self.reciprocals)

    @property
    def full_point(self) -> Tuple[Fraction, ...]:
        return self.reciprocals + (self.dual_reciprocal,)


def mx_k(values: Sequence[RationalLike], k: int) -> Fraction:
    """k-th largest element, duplicates counted independently."""
    vals = sorted((_frac(v) for v in values), reverse=True)
    if not 1 <= k <= len(vals):
        raise ValueError(f"k={k} out of range for {len(vals)} values")
    return vals[k - 1]


def mn_k(values: Sequence[RationalLike], k: int) -> Fraction:
    """k-th smallest element, duplicates counted independently."""
    vals = sorted(_frac(v) for v in values)
    if not 1 <= k <= len(vals):
        raise ValueError(f"k={k} out of range for {len(vals)} values")
    return vals[k - 1]


def sharp_lambda(pt: PTuple) -> Fraction:
    """Sum of the n-1 largest full-point coordinates (= 1 minus the two smallest)."""
    point = pt.full_point
    return ONE - mn_k(point, 1) - mn_k(point, 2)


def brute_lambda(pt: PTuple) -> Fraction:
    """Independent oracle: exhaustive max over pairs of the pairwise exponents."""
    point = pt.full_point
    best = None
    for s, t in combinations(range(1, pt.n + 2), 2):
        val = sum(r for k, r in enumerate(point, start=1) if k not in (s, t))
        if best is None or val > best:
            best = val
    return best


def _check_pair(pt: PTuple, s: int, t: int) -> None:
    if not (1 <= s < t <= pt.n + 1):
        raise ValueError(f"need 1 <= s < t <= n+1, got (s, t) = ({s}, {t})")


def lambda_st(pt: PTuple, s: int, t: int) -> Fraction:
    """Sum of the full-point coordinates off the pair (s, t)."""
    _check_pair(pt, s, t)
    return sum(r for k, r in enumerate(pt.full_point, start=1) if k not in (s, t))


def lambda_st_prime(pt: PTuple, s: int, t: int, tau: int) -> Fraction:
    """|1/2 - r_s| + |1/2 - r_t| + sum over coordinates off {s, t, tau}."""
    _check_pair(pt, s, t)
    if tau in (s, t) or not 1 <= tau <= pt.n + 1:
        raise ValueError(f"tau must avoid the pair and stay in range, got tau={tau}")
    point = pt.full_point
    rest = sum(r for k, r in enumerate(point, start=1) if k not in (s, t, tau))
    return abs(HALF - point[s - 1]) + abs(HALF - point[t - 1]) + rest


def lambda_prime(pt: PTuple) -> Fraction:
    """mx_1 + 2 * (mx_2 + ... + mx_{n-1}) of the full point."""
    point = pt.full_point
    total = mx_k(point, 1)
    for k in range(2, pt.n):
        total += 2 * mx_k(point, k)
    return total


def lambda_st_dprime(pt: PTuple, s: int, t: int) -> Fraction:
    """|1/2 - r_s| + sum over coordinates off the pair (the shift-free-tau variant).

    Asymmetric: the absolute-value term sits on the first index, so (s, t) may
    come in either order as long as the indices are distinct.
    """
    if s == t or not (1 <= s <= pt.n + 1 and 1 <= t <= pt.n + 1):
        raise ValueError(f"need distinct indices in 1..n+1, got (s, t) = ({s}, {t})")
    point = pt.full_point
    rest = sum(r for k, r in enumerate(point, start=1) if k not in (s, t))
    return abs(HALF - point[s - 1]) + rest


@dataclass(frozen=True)
class SplitPlan:
    """How one reciprocal is split so a group of slots sums to exactly 1/2.

    ``kind`` is one of:

    * ``standard``         -- scan produced J0 and a split index alpha;
    * ``exact-half``       -- the scan hit 1/2 exactly, no split needed (gamma absent);
    * ``alpha-exceeds-half`` -- some off-pair coordinate is >= 1/2, J0 empty, alpha there;
    * ``unshifted-square`` -- r_s or r_t is >= 1/2; handled with the shift-free
      aggregate exponent instead, no numeric split attached.
    """

    s: int
    t: int
    kind: str
    j0: Tuple[int, ...]
    alpha: Optional[int]
    q0_reciprocal: Optional[Fraction]
    q1_reciprocal: Optional[Fraction]
    gamma: Optional[Fraction]

    def group_sum(self, pt: PTuple) -> Fraction:
        point = pt.full_point
        return sum(point[i - 1] for i in self.j0) + point[self.s - 1]


def select_split(pt: PTuple, s: int, t: int) -> SplitPlan:
    """Left-to-right scan choosing J0, the split index alpha, and gamma exactly."""
    _check_pair(pt, s, t)
    point = pt.full_point
    n1 = pt.n + 1
    if point[s - 1] >= HALF or point[t - 1] >= HALF:
        return SplitPlan(s, t, "unshifted-square", (), None, None, None, None)

    dominant = next(
        (u for u in range(1, n1 + 1) if u not in (s, t) and point[u - 1] >= HALF), None
    )
    if dominant is not None:
        x = HALF - point[s - 1]
        r_alpha = point[dominant - 1]
        if x == r_alpha:
            return SplitPlan(s, t, "exact-half", (dominant,), None, None, None, None)
        plan = SplitPlan(
            s, t, "alpha-exceeds-half", (), dominant, x, r_alpha - x, x / r_alpha
        )
        _check_split_identities(plan, pt)
        return plan

    j0: List[int] = []
    running = point[s - 1]
    for i in range(1, n1 + 1):
        if i in (s, t):
            continue
        r_i = point[i - 1]
        if running + r_i < HALF:
            j0.append(i)
            running += r_i
        elif running + r_i == HALF:
            j0.append(i)
            return SplitPlan(s, t, "exact-half", tuple(j0), None, None, None, None)
        else:
            x = HALF - running
            gamma = x / r_i
            plan = SplitPlan(s, t, "standard", tuple(j0), i, x, r_i - x, gamma)
            _check_split_identities(plan, pt)
            return plan
    raise ValueError(
        f"no admissible split index for (s, t) = ({s}, {t}): off-pair mass "
        f"{1 - point[t - 1] - point[s - 1]} cannot reach 1/2"
    )


def _check_split_identities(plan: SplitPlan, pt: PTuple) -> None:
    point = pt.full_point
    assert plan.group_sum(pt) + plan.q0_reciprocal == HALF
    r_alpha = point[plan.alpha - 1]
    assert plan.q0_reciprocal + plan.q1_reciprocal == r_alpha
    # gamma * q0 = p_alpha and (1 - gamma) * q1 = p_alpha, in reciprocal form
    assert plan.gamma * r_alpha == plan.q0_reciprocal
    assert (1 - plan.gamma) * r_alpha == plan.q1_reciprocal
    assert 0 < plan.gamma < 1


Point = Tuple[Fraction, ...]


def _check_point(point: Sequence[RationalLike]) -> Point:
    pt = tuple(_frac(c) for c in point)
    if sum(pt) != 1:
        raise ValueError(f"point coordinates must sum to 1, got {sum(pt)}")
    if any(c < 0 or c > 1 for c in pt):
        raise ValueError(f"point coordinates must lie in [0, 1]: {pt}")
    return pt


def interpolation_step(
    point0: Sequence[RationalLike],
    e0: RationalLike,
    point1: Sequence[RationalLike],
    e1: RationalLike,
    theta: RationalLike,
) -> Tuple[Point, Fraction]:
    """Coordinatewise convex combination with the log-convex exponent rule."""
    p0 = _check_point(point0)
    p1 = _check_point(point1)
    th = _frac(theta)
    if not 0 <= th <= 1:
        raise ValueError(f"theta must lie in [0, 1], got {th}")
    if len(p0) != len(p1):
        raise ValueError("endpoint dimensions differ")
    point = tuple((1 - th) * a + th * b for a, b in zip(p0, p1))
    exponent = (1 - th) * _frac(e0) + th * _frac(e1)
    return point, exponent


@dataclass(frozen=True)
class InterpolationStep:
    point0: Point
    e0: Fraction
    point1: Point
    e1: Fraction
    theta: Fraction
    result_point: Point
    result_exponent: Fraction


@dataclass(frozen=True)
class InterpolationPlan:
    target: Point
    steps: Tuple[InterpolationStep, ...]
    final_exponent: Fraction
    target_sharp_exponent: Fraction
    achieves_sharp: bool
    notes: Tuple[str, ...] = ()

    def fold(self) -> Tuple[Point, Fraction]:
        """Replay the steps as a chain; returns the final (point, exponent)."""
        if not self.steps:
            return self.target, self.final_exponent
        point, exponent = self.steps[0].point0, self.steps[0].e0
        for step in self.steps:
            if step.point0 != point:
                raise ValueError("interpolation steps do not chain")
            point, exponent = interpolation_step(
                point, exponent, step.point1, step.e1, step.theta
            )
        return point, exponent


@dataclass(frozen=True)
class InterpolationDiagnosis:
    target: Point
    reason: str


def _vertex(dim: int, position: int) -> Point:
    return tuple(ONE if i == position else Fraction(0) for i in range(dim))


def interpolation_plan(
    target: Union[PTuple, Sequence[RationalLike]]
) -> Union[InterpolationPlan, InterpolationDiagnosis]:
    """Iterated vertex-interpolation schedule reaching the target full point.

    Each step combines the running point with a fresh vertex, so every
    intermediate operator-norm exponent stays at 1.  The schedule exists
    whenever at least one coordinate of the full point vanishes; the plan is
    *sharp* only when at least two of them do.  Targets with every coordinate
    positive are refused with a diagnosis: reaching them sharply would require
    interpolating endpoints whose largest n-1 coordinates align, which the
    vertex repertoire cannot provide.
    """
    if isinstance(target, PTuple):
        point = target.full_point
        n = target.n
    else:
        point = _check_point(target)
        n = len(point) - 1
    dim = len(point)
    nonzero = [i for i, c in enumerate(point) if c != 0]
    if len(nonzero) == dim:
        return InterpolationDiagnosis(
            point,
            "every coordinate of the target is positive: the vertex schedule stalls "
            "because sharp interpolation requires endpoints whose largest "
            f"{n - 1} coordinates align, and no vertex pair aligns with an "
            "interior point",
        )
    sharp = ONE - mn_k(point, 1) - mn_k(point, 2)
    steps: List[InterpolationStep] = []
    current = _vertex(dim, nonzero[0])
    running_mass = point[nonzero[0]]
    for idx in nonzero[1:]:
        running_mass += point[idx]
        theta = point[idx] / running_mass
        vertex = _vertex(dim, idx)
        result, exponent = interpolation_step(current, ONE, vertex, ONE, theta)
        steps.append(InterpolationStep(current, ONE, vertex, ONE, theta, result, exponent))
        current = result
    final_exponent = ONE
    notes: Tuple[str, ...] = ()
    if len(nonzero) > n - 1:
        notes = (
            "target has more than n-1 nonzero coordinates: the schedule's exponent 1 "
            "exceeds the sharp exponent " + str(sharp),
        )
    return InterpolationPlan(
        target=point,
        steps=tuple(steps),
        final_exponent=final_exponent,
        target_sharp_exponent=sharp,
        achieves_sharp=(final_exponent == sharp),
        notes=notes,
    )


def counterexample_slots(pt: PTuple) -> Tuple[int, int, Optional[str]]:
    """Slots (s, t) carrying the two smallest full-point reciprocals, left to right.

    When the dual slot n+1 is among the two smallest, the numeric construction
    does not apply directly; the annotation names the transpose index to use
    instead, with no computation attached.
    """
    point = pt.full_point
    order = sorted(range(1, pt.n + 2), key=lambda i: (point[i - 1], i))
    s, t = sorted(order[:2])
    if t == pt.n + 1:
        j = next(i for i in range(1, pt.n + 1) if i != s)
        return s, t, (
            f"dual slot {t} carries one of the two smallest reciprocals: rerun the "
            f"construction against transpose index j={j} (any j != {s})"
        )
    return s, t, None
