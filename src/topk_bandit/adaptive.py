"""Round-based adaptive top-K selection with early accept/reject.

The algorithm proceeds in rounds r = 1, 2, ...; in round r every undecided
arm is pulled ceil(4^r * ln(2 n r^2 / delta)) times and fresh empirical means
are formed from this round's pulls alone.  An inner sweep then commits arms
whose empirical distance from the selection boundary exceeds 2 * 2^{-r}:
clearly-high arms are accepted into A, clearly-low arms rejected into B.  The
outer loop stops once the residual boundary uncertainty fits inside the
regret budget, and the remaining slots are filled by the best current
empirical means.

A fixed-budget variant drops the stopping rule and simply runs rounds until
the pull budget is exhausted.

The fixed-budget variant's ``tuned`` flag switches to a gentler geometric
schedule (1.01^{-r}) with a more aggressive commit threshold (one third of the
scale instead of twice); it trades the per-round guarantee for smoother budget
growth and is off by default.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["SelectionResult", "adaptive_topk", "adaptive_topk_fixed_budget"]


@dataclass
class SelectionResult:
    """Outcome of one selection run with full pull accounting.

    ``selected``, ``accepted_early`` and ``rejected`` are sorted, read-only
    1-D intp arrays of arm ids.  Invariants: ``len(selected) == K``;
    ``accepted_early`` is a subset of ``selected``; ``rejected`` is disjoint
    from ``selected``; ``total_pulls`` equals the sum of ``per_arm_pulls``.
    """

    selected: np.ndarray
    total_pulls: int
    per_arm_pulls: np.ndarray
    rounds_completed: int
    accepted_early: np.ndarray
    rejected: np.ndarray

    def __eq__(self, other):
        # The generated __eq__ compares the array fields with ``==`` and raises.
        if not isinstance(other, SelectionResult):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _sorted_ids(ids) -> np.ndarray:
    """Integer ids as a sorted, read-only intp array, the form of every id field."""
    out = np.sort(np.asarray(ids, dtype=np.intp))
    out.flags.writeable = False
    return out


class SelectionRun:
    """Pull accounting for one selection call; the only builder of results.

    Checks 0 <= K <= env.n and snapshots the pull counters, so the result
    reports only the pulls made after construction.
    """

    def __init__(self, env, K: int):
        if not 0 <= K <= env.n:
            raise ValueError(f"K={K} out of range [0, {env.n}]")
        self.env = env
        self.K = K
        self._start = env.pull_counts.copy()
        self._start_total = env.total_pulls()

    def trivial(self) -> bool:
        """True when K is 0 or n: the answer needs no pulls."""
        return self.K in (0, self.env.n)

    def spent(self) -> int:
        """Pulls made since construction."""
        return self.env.total_pulls() - self._start_total

    def pulls(self) -> np.ndarray:
        """Per-arm pulls made since construction."""
        return self.env.pull_counts - self._start

    def result(self, selected, rounds_completed: int, accepted=(), rejected=()) -> SelectionResult:
        """Build the result from id arrays (or integer sequences) in any order."""
        per_arm = self.pulls()
        return SelectionResult(
            selected=_sorted_ids(selected),
            total_pulls=int(per_arm.sum()),
            per_arm_pulls=per_arm,
            rounds_completed=rounds_completed,
            accepted_early=_sorted_ids(accepted),
            rejected=_sorted_ids(rejected),
        )


def _schedule(r: int, tuned: bool) -> float:
    return 1.01 ** (-r) if tuned else 2.0 ** (-r)


def _round_pulls(n: int, r: int, delta: float, tuned: bool) -> int:
    scale = _schedule(r, tuned)
    return math.ceil(math.log(2.0 * n * r * r / delta) / (scale * scale))


def _order_by_sums(sums: np.ndarray, m: int) -> np.ndarray:
    """Stable order of the means ``sums / m``, largest first: exactly
    ``np.argsort(-(sums / m), kind="stable")`` (ties: lower position first).

    Every arm had the same m pulls, so for integer sums in [0, m] the mean is
    strictly increasing in the sum (m < 2^53), and the order is the stable
    ascending order of the integer key m - sums.  Below 2^16 that key fits in
    uint16, which numpy sorts stably by radix sort, in linear time.  Any other
    input takes the float sort.
    """
    if (m < 1 << 16 and sums.size and sums.dtype.kind in "iu"
            and sums.min() >= 0 and sums.max() <= m):
        return np.argsort(np.uint16(m) - sums.astype(np.uint16), kind="stable")
    return np.argsort(-(sums / m), kind="stable")


class _SortedPool:
    """Undecided arms kept sorted by the current round's empirical means
    ``sums / m``.

    The commit sweep only ever removes an extreme element (the boundary-gap
    maximizer is always at an end of the sorted order), so the pool is a
    shrinking window [lo, hi] over one stable descending sort per round.
    """

    def __init__(self, arm_ids: np.ndarray, sums: np.ndarray, m: int):
        order = _order_by_sums(sums, m)
        self.ids = arm_ids[order]
        self.vals = sums[order] / m
        self.lo = 0
        self.hi = len(arm_ids) - 1

    def size(self) -> int:
        return self.hi - self.lo + 1

    def surviving(self) -> np.ndarray:
        return self.ids[self.lo : self.hi + 1]


def _commit_sweep(pool: _SortedPool, k_rem: int, threshold: float, accepted: list, rejected: list) -> int:
    """Commit arms at the selection boundary; returns the updated k_rem.

    The sweep commits, one at a time, the arm maximizing
    max(mean_i - a, b - mean_i), a and b being the (k_rem + 1)-th and k_rem-th
    largest means, while that maximum exceeds ``threshold`` (ties accept).
    An accept moves ``lo`` and ``k_rem`` together and a reject moves only
    ``hi``, so p = lo + k_rem, a = vals[p] and b = vals[p - 1] stay fixed: the
    sweep merges the non-increasing gaps vals[i] - a (i in [lo, p)) and
    b - vals[j] (j from hi down to p), which both end at b - a.  Hence, by
    binary search on those exact float expressions, it accepts
    #{i : vals[i] - a > threshold} arms; if that leaves slots open it rejects
    #{j : b - vals[j] > threshold}, and if it fills them it stops at its
    last accept and rejects #{j : b - vals[j] > b - a}.

    Appends the accepted ids (best first) and the rejected ids (worst first)
    as one array each.
    """
    lo, hi = pool.lo, pool.hi
    p = lo + k_rem
    if k_rem < 1 or hi < p:
        return k_rem
    vals = pool.vals
    a, b = vals[p], vals[p - 1]
    n_acc = bisect_left(range(lo, p), True, key=lambda i: vals[i] - a <= threshold)
    limit = threshold if n_acc < k_rem else b - a
    n_rej = hi + 1 - p - bisect_left(range(p, hi + 1), True, key=lambda j: b - vals[j] > limit)
    # Copies: a view would keep the round's whole pool alive.
    accepted.append(pool.ids[lo : lo + n_acc].copy())
    rejected.append(pool.ids[hi - n_rej + 1 : hi + 1][::-1].copy())
    pool.lo = lo + n_acc
    pool.hi = hi - n_rej
    return k_rem - n_acc


def _round_loop(env, K: int, delta: float, tuned: bool, more, observe=None):
    """Pulling rounds with commit sweeps, shared by both selectors.

    Before each round, ``more(r, k_rem, cost)`` decides whether to run it,
    given the r rounds completed so far, the open slots and the pulls the
    round would take; ``observe(arms, m, sums)``, when given, sees every
    round's reward sums.  Rounds also stop once every slot is decided.

    Returns (accepted, rejected, survivors, k_rem, r), the first three as id
    arrays: ``survivors`` are the undecided arms, best first by the last
    round's means (in input order when no round ran).
    """
    n = env.n
    accepted: list = [np.empty(0, dtype=np.intp)]  # one id array per sweep
    rejected: list = [np.empty(0, dtype=np.intp)]
    survivors = np.arange(n)
    r = 0
    k_rem = K
    while k_rem >= 1 and len(survivors) > k_rem:
        m = _round_pulls(n, r + 1, delta, tuned)
        if not more(r, k_rem, m * len(survivors)):
            break
        r += 1
        scale = _schedule(r, tuned)
        sums = env.pull_many(survivors, m)
        if observe is not None:
            observe(survivors, m, sums)
        pool = _SortedPool(survivors, sums, m)
        threshold = scale / 3.0 if tuned else 2.0 * scale
        k_rem = _commit_sweep(pool, k_rem, threshold, accepted, rejected)
        survivors = pool.surviving()
        assert pool.size() + sum(map(len, accepted)) + sum(map(len, rejected)) == n
    return np.concatenate(accepted), np.concatenate(rejected), survivors, k_rem, r


def adaptive_topk(env, K: int, epsilon: float, delta: float) -> SelectionResult:
    """Fixed-confidence selection: returns K arms whose aggregate regret is
    at most ``epsilon`` with probability at least 1 - ``delta``.

    Args:
        env: sampling environment (the only reward channel).
        K: number of arms to return, 0 <= K <= env.n.
        epsilon: regret tolerance, > 0.
        delta: failure probability, in (0, 1).
    """
    run = SelectionRun(env, K)
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if run.trivial() or epsilon >= 1.0:
        # Any K arms meet a tolerance of 1 for means in [0, 1].
        return run.result(range(K), 0)

    # The stopping rule is evaluated with the scale of the round just
    # completed (2^0 = 1 before any round, which always admits epsilon < 2).
    accepted, rejected, survivors, k_rem, r = _round_loop(
        env, K, delta, False,
        lambda r, k_rem, cost: 2.0 * _schedule(r, False) * k_rem > epsilon * K)
    return run.result(np.concatenate([accepted, survivors[:k_rem]]), r, accepted, rejected)


def adaptive_topk_fixed_budget(env, K: int, budget: int, delta: float = 0.01,
                               tuned: bool = False) -> SelectionResult:
    """Budget-capped variant: same rounds and commit sweep, no stopping rule.

    Pulls never exceed ``budget``.  When the next round no longer fits, the
    remaining budget is spread uniformly over the surviving arms (the first
    few survivors absorb the remainder), and the open slots are filled by the
    best per-arm means pooled over every pull of the run, so no observation
    is wasted.  A budget below n runs no round: it pulls the first
    ``budget`` arms once each, and the never-pulled arms rank last.

    ``delta`` only shapes the per-round pull counts (default mirrors the
    benchmark protocol); there is no confidence guarantee in this mode.
    """
    run = SelectionRun(env, K)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if run.trivial():
        return run.result(range(K), 0)

    # Reward sums of every pull of the run; ``run`` counts the pulls.
    sums = np.zeros(env.n)

    def observe(arms, m, rewards):
        sums[arms] += rewards  # distinct ids: survivors never repeat

    accepted, rejected, survivors, k_rem, r = _round_loop(
        env, K, delta, tuned, lambda r, k_rem, cost: cost <= budget - run.spent(), observe)
    if k_rem >= 1 and len(survivors) > k_rem:
        # The budget ran out first: spread the rest over the survivors and
        # rank them by means pooled over every pull of the run.
        q, extra = divmod(budget - run.spent(), len(survivors))
        if q:
            observe(survivors, q, env.pull_many(survivors, q))
        if extra:
            observe(survivors[:extra], 1, env.pull_many(survivors[:extra], 1))
        # 0/0 is NaN for an arm never pulled, which a stable sort puts last.
        with np.errstate(invalid="ignore"):
            means = sums[survivors] / run.pulls()[survivors]
        survivors = survivors[np.argsort(-means, kind="stable")]
    return run.result(np.concatenate([accepted, survivors[:k_rem]]), r, accepted, rejected)
