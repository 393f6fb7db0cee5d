"""Instance-level mathematics: gaps, exchange allowance, hardness, and regret.

The gap and hardness operations take a mean vector sorted non-increasing
(callers that hold shuffled means sort first); ``aggregate_regret`` and
``is_eps_top_k`` take means in any order.

Conventions:
    * Arm positions are 0-based indices; into a sorted vector they are ranks.
    * The boundary gap index K+t+1 can exceed n on extreme instances; it is
      clamped to n and the clamp is recorded on the report.
    * A zero gap contributes the capped term, never infinity.

The uncapped sum of inverse-square gaps (without the tolerance cap) is a
classical difficulty measure for exact selection; it is deliberately not an
operation here because it blows up on tied means, which the capped variants
are designed to tolerate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .env import _arm_ids, _integer, _positive

__all__ = [
    "HardnessReport",
    "gaps",
    "t_of",
    "psi_quantities",
    "hardness",
    "aggregate_regret",
    "is_eps_top_k",
]


@dataclass(frozen=True)
class HardnessReport:
    """Gap vector and the derived difficulty quantities for one instance.

    ``index_clamped`` is True when the tail boundary index K+t+1 exceeded n
    and was clamped to n (a corner the definitions leave open).
    """

    gaps: np.ndarray
    t: int
    psi_t: float
    psi_t_eps: float
    h_t_eps: float
    h_0_eps: float
    index_clamped: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "gaps": self.gaps.tolist()}


def _vector(means) -> np.ndarray:
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 1 or means.size == 0:
        raise ValueError("means must be a non-empty 1-D vector")
    # A NaN passes every order test and the regret clamp; an infinity
    # turns the gaps and sums into NaN.
    if not np.isfinite(means).all():
        raise ValueError("means must be finite")
    return means


def _require_sorted(means: np.ndarray) -> np.ndarray:
    means = _vector(means)
    if np.any(means[1:] > means[:-1]):
        raise ValueError("means must be sorted non-increasing")
    return means


def _gaps(means: np.ndarray, K: int) -> np.ndarray:
    return np.concatenate((means[:K] - means[K], means[K - 1] - means[K:]))


def gaps(means: np.ndarray, K: int) -> np.ndarray:
    """Distance of each arm's mean from the top-K boundary.

    For rank i (1-indexed): theta_i - theta_{K+1} when i <= K, else
    theta_K - theta_i.  Requires K < n so the boundary values exist.
    """
    means = _require_sorted(means)
    _integer("K", K, 1, means.size - 1)
    return _gaps(means, K)


def _boundary(means: np.ndarray, K: int, epsilon: float):
    """Gap vector, t, psi_t and whether the tail index was clamped, for
    validated means and K.

    t is the largest t in {1, ..., K-1} passing both exchange-budget
    inequalities, gap(rank K-t) * t <= K * epsilon and
    gap(rank K+t+1) * t <= K * epsilon (tail rank clamped to n), or 0 when
    none does.
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative")
    n = means.size
    gap = _gaps(means, K)
    ts = np.arange(1, K)
    budget = K * epsilon
    ok = (gap[K - ts - 1] * ts <= budget) & (gap[np.minimum(K + ts + 1, n) - 1] * ts <= budget)
    passing = ts[ok]
    t = int(passing[-1]) if passing.size else 0
    tail_rank = min(K + t + 1, n)
    psi_t = min(float(gap[K - t - 1]), float(gap[tail_rank - 1]))
    return gap, t, psi_t, K + t + 1 > n


def t_of(means: np.ndarray, K: int, epsilon: float) -> int:
    """Largest t in {0, ..., K-1} whose head and tail exchange budgets hold.

    t = 0 always qualifies (both products vanish), so the result is total.
    """
    means = _require_sorted(means)
    _integer("K", K, 1, means.size - 1)
    return _boundary(means, K, epsilon)[1]


def psi_quantities(means: np.ndarray, K: int, epsilon: float):
    """Boundary-gap floor and its epsilon cap: (psi_t, max(epsilon, psi_t))."""
    means = _require_sorted(means)
    _integer("K", K, 1, means.size - 1)
    psi_t = _boundary(means, K, epsilon)[2]
    return psi_t, max(float(epsilon), psi_t)


def _capped_sum(inv: np.ndarray, cap: float) -> float:
    # Sequential, left to right, as a scalar loop would add: np.sum's
    # pairwise order could differ in the last bits.
    return float(np.cumsum(np.minimum(inv, cap))[-1])


def hardness(means: np.ndarray, K: int, epsilon: float) -> HardnessReport:
    """Full difficulty report: gaps, t, psi quantities, and both capped sums.

    The sums run left to right in rank order, so that independent
    re-evaluations of the same formulas agree bit-for-bit.
    """
    means = _require_sorted(means)
    _integer("K", K, 1, means.size - 1)
    _positive("epsilon", epsilon)
    gap, t, psi_t, clamped = _boundary(means, K, epsilon)
    psi_eps = max(float(epsilon), psi_t)

    # A zero gap (or one whose square underflows) has an infinite inverse,
    # which the cap replaces.
    with np.errstate(divide="ignore"):
        inv = 1.0 / (gap * gap)
    h_t = _capped_sum(inv, 1.0 / (psi_eps * psi_eps))
    h_0 = _capped_sum(inv, 1.0 / (float(epsilon) * float(epsilon)))
    return HardnessReport(gap, t, psi_t, psi_eps, h_t, h_0, clamped)


def _selection(selected, K: int, n: int) -> np.ndarray:
    """``selected`` as an intp array; ValueError unless it holds exactly K
    distinct integer ids in [0, n), for K >= 1."""
    # Float ids or a mask would be cast silently: reject them like arm ids.
    sel = _arm_ids(selected if isinstance(selected, np.ndarray) else list(selected))
    if sel.size != K:
        raise ValueError(f"selected set has size {sel.size}, expected K={K}")
    # Sorted as unsigned, a negative index wraps above n: the last entry
    # checks the range, and equal neighbours are duplicates.
    ids = np.sort(sel.view(np.uintp))
    if np.any(ids[1:] == ids[:-1]):
        raise ValueError("selected set contains duplicate ids")
    if ids[-1] >= n:
        raise ValueError("selected id out of range")
    return sel


def aggregate_regret(means: np.ndarray, K: int, selected) -> float:
    """Average shortfall of a selected K-set versus the true best K arms.

    ``means`` may be in any order.  ``selected`` holds exactly K distinct
    0-based integer indices into it; on a vector sorted non-increasing an
    index is a rank.  The result is clamped at 0 to absorb floating-point
    dust on perfect selections.
    """
    means = _vector(means)
    K = _integer("K", K, 1, means.size)
    sel = _selection(selected, K, means.size)
    # fsum rounds exactly and tied arms have equal means, so any top-K
    # partition sums alike; a memoryview passes fsum floats with no list.
    best = math.fsum(memoryview(np.partition(means, -K)[-K:]))
    shortfall = (best - math.fsum(memoryview(means[sel]))) / K
    return max(0.0, shortfall)


def is_eps_top_k(means: np.ndarray, K: int, epsilon: float, selected) -> bool:
    """True when the selection's aggregate regret is within tolerance.

    The boundary is inclusive: regret exactly equal to epsilon counts as a
    success (boundary cases are measure-zero in simulation anyway).
    """
    return aggregate_regret(means, K, selected) <= epsilon
