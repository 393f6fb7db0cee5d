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

from .env import _CHUNK, _integer, _open, _positive

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

    Checks that K is an integer in [0, env.n] and snapshots the pull
    counters, so the result reports only the pulls made after construction.
    The snapshot is a copy only when a counter is non-zero: counters can be
    set by hand, so a zero total does not mean zero counters.
    """

    def __init__(self, env, K: int):
        _integer("K", K, 0, env.n)
        self.env = env
        self.K = K
        counts = env.pull_counts
        self._start = counts.copy() if np.count_nonzero(counts) else None
        self._start_total = env.total_pulls()

    def trivial(self) -> bool:
        """True when K is 0 or n: the answer needs no pulls."""
        return self.K in (0, self.env.n)

    def spent(self) -> int:
        """Pulls made since construction."""
        return self.env.total_pulls() - self._start_total

    def result(self, selected, rounds_completed: int, accepted=(), rejected=()) -> SelectionResult:
        """Build the result from id arrays (or integer sequences) in any order."""
        counts = self.env.pull_counts
        return SelectionResult(
            selected=_sorted_ids(selected),
            total_pulls=self.spent(),
            per_arm_pulls=counts.copy() if self._start is None else counts - self._start,
            rounds_completed=rounds_completed,
            accepted_early=_sorted_ids(accepted),
            rejected=_sorted_ids(rejected),
        )


def _schedule(r: int, tuned: bool) -> float:
    """Round r's scale: 2^-r, or 1.01^-r in the tuned schedule."""
    return 1.01 ** (-r) if tuned else 2.0 ** (-r)


def _round_pulls(n: int, r: int, delta: float, tuned: bool) -> int:
    """Pulls per undecided arm in round r: ceil(ln(2 n r^2 / delta) / s^2)
    for the round's scale s, which is ceil(4^r ln(2 n r^2 / delta)) in the
    doubling schedule."""
    scale = _schedule(r, tuned)
    return math.ceil(math.log(2.0 * n * r * r / delta) / (scale * scale))


def _order_by_sums(sums: np.ndarray, m: int) -> np.ndarray:
    """Stable order of the means ``sums / m``, largest first: exactly
    ``np.argsort(-(sums / m), kind="stable")`` (ties: lower position first).

    The one ranking of arms that share a pull count: the adaptive rounds,
    the even split of ``_spread`` and the ``improved`` subroutines all
    use it.  Every arm had the same m pulls, so for integer
    sums in [0, m] with m < 2^53 the mean is strictly increasing in the sum,
    and the order is the stable ascending order of the exact integer key
    ``m - sums``.  One int64 subtract forms the key, and one unsigned max
    over it checks the range: the subtract wraps modulo 2^64, so a sum below
    0 or above m leaves a key that reads above m as unsigned.  A small
    ranking (at most 2^16 arms) with m < 2^16 sorts the key as 16-bit
    integers, which numpy's stable sort orders by radix in two passes.  Any
    other key is shifted left past the b bits of the position and the
    position or-ed in (past 2^16 arms 2^16 positions at a time, so the words
    are the only n-length array): those int64 words are distinct, so any
    sort of them gives the stable order, and the low b bits read it off.
    Keys too wide for that, and any other input, take the float sort.
    """
    if sums.size and sums.dtype.kind in "iu" and 0 <= m < 1 << 53:
        words = np.subtract(m, sums, dtype=np.int64, casting="unsafe")
        top = int(np.maximum.reduce(words.view(np.uint64)))
        if top <= m < 1 << 16 and sums.size <= _CHUNK:
            return words.astype(np.uint16).argsort(kind="stable")
        b = (sums.size - 1).bit_length()
        if top <= m and top.bit_length() + b <= 63:
            words <<= b
            if sums.size <= _CHUNK:
                words |= np.arange(sums.size)
            else:  # no n-length position array beside the words
                for lo in range(0, sums.size, _CHUNK):
                    part = words[lo:lo + _CHUNK]
                    part |= np.arange(lo, lo + part.size)
            words.sort()
            words &= (1 << b) - 1
            return words
    return np.argsort(-(sums / m), kind="stable")


def _spread(env, arms: np.ndarray, rest: int, P: int = 0, sums=None) -> np.ndarray:
    """Pull each of ``arms`` q = rest // len(arms) times, the first
    rest % len(arms) once more, and return the positions in ``arms`` best
    first by mean over all pulls: ``uniform_topk``'s even split and the
    fixed-budget top-up.  Each arm had P pulls before, with int64 reward
    sums ``sums`` (aligned with ``arms``, added to in place; None for P = 0
    and q >= 1).  Scaled to L = (P + q)(P + q + 1), a sum times L over its
    pulls ranks as the mean, exactly while L < 2^53; past that the keys are
    the float means.  With P + q = 0 an unpulled arm counts as pulled once,
    and its sum 0 ranks it after the pulled arms of mean 0.
    """
    q, extra = divmod(rest, len(arms))
    if q:
        got = env.pull_many(arms, q)
        sums = got if sums is None else np.add(sums, got, out=sums)
        del got
    if extra:
        sums[:extra] += env.pull_many(arms[:extra], 1)
    del arms  # uniform_topk's ids: the ranking needs none
    lo, hi = max(P + q, 1), P + q + 1  # the pulls of arms[extra:] and of arms[:extra]
    if lo * hi >= 1 << 53:
        means = sums / lo
        means[:extra] = sums[:extra] / hi
        return _order_by_sums(means, 1)
    sums[:extra] *= lo
    sums[extra:] *= hi
    return _order_by_sums(sums, lo * hi)


def _commit_sweep(sums: np.ndarray, order: np.ndarray, m: int, k_rem: int,
                  threshold: float) -> tuple[int, int]:
    """Count the arms one round's boundary sweep commits: (n_acc, n_rej).

    The undecided arms' means, largest first, are vals[i] = sums[order[i]] / m;
    the sweep reads them only at the O(log size) positions it probes.  It
    commits, one at a time, the arm maximizing max(mean_i - a, b - mean_i),
    a and b being the (k_rem + 1)-th and k_rem-th largest means, while that
    maximum exceeds ``threshold`` (ties accept).  That arm is always at an
    end of the sorted order: an accept takes the top arm and a slot, a
    reject the bottom arm, so a = vals[k_rem] and b = vals[k_rem - 1] stay
    fixed and the sweep merges the non-increasing gaps vals[i] - a
    (i < k_rem) and b - vals[j] (j from the end down to k_rem), which both
    end at b - a.  Hence, by binary search on those exact float
    expressions, it accepts the first #{i : vals[i] - a > threshold} arms;
    if that leaves slots open it rejects the last
    #{j : b - vals[j] > threshold}, and if it fills them it stops at its
    last accept and rejects the last #{j : b - vals[j] > b - a}.
    """
    size = len(order)
    if k_rem < 1 or size <= k_rem:
        return 0, 0

    # Python scalars: sums and m are below 2^53, so the quotient is the same
    # float64 numpy would give, without a numpy scalar per probe.
    item, at = sums.item, order.item
    a, b = item(at(k_rem)) / m, item(at(k_rem - 1)) / m
    n_acc = bisect_left(range(k_rem), True, key=lambda i: item(at(i)) / m - a <= threshold)
    limit = threshold if n_acc < k_rem else b - a
    n_rej = size - k_rem - bisect_left(range(k_rem, size), True,
                                       key=lambda j: b - item(at(j)) / m > limit)
    return n_acc, n_rej


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
    accepted: list = [np.empty(0, dtype=np.intp)]  # one id array per committing sweep
    rejected: list = [np.empty(0, dtype=np.intp)]
    decided = 0  # the ids in accepted and rejected
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
        order = _order_by_sums(sums, m)
        threshold = scale / 3.0 if tuned else 2.0 * scale
        n_acc, n_rej = _commit_sweep(sums, order, m, k_rem, threshold)
        # The sums go before the gather, the order after it: at most three
        # arrays of the round's size are alive at once.
        del sums
        ranked = survivors[order]
        del order
        end = len(ranked) - n_rej
        # Copies: a view would keep the round's whole ranking alive.
        if n_acc:
            accepted.append(ranked[:n_acc].copy())  # best first
            decided += len(accepted[-1])
        if n_rej:
            rejected.append(ranked[end:][::-1].copy())  # worst first
            decided += len(rejected[-1])
        survivors = ranked[n_acc:end]
        k_rem -= n_acc
        assert len(survivors) + decided == n
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
    _positive("epsilon", epsilon)
    _open("delta", delta)
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
    budget = _integer("budget", budget, 1)
    _open("delta", delta)
    if run.trivial():
        return run.result(range(K), 0)

    # Reward sums of every round's pulls, pooled in place (no gathered copy
    # of sums[arms]); ``run`` counts the pulls.
    sums = np.zeros(env.n, dtype=np.int64)
    accepted, rejected, survivors, k_rem, r = _round_loop(
        env, K, delta, tuned, lambda r, k_rem, cost: cost <= budget - run.spent(),
        lambda arms, m, rewards: np.add.at(sums, arms, rewards))
    if k_rem >= 1 and len(survivors) > k_rem:
        # The budget ran out first: spread the rest over the survivors, which
        # every round pulled alike, and rank them by their pooled means.
        keys = sums[survivors]
        del sums  # the run's n-length sums: no round follows
        P = sum(_round_pulls(env.n, i, delta, tuned) for i in range(1, r + 1))
        order = _spread(env, survivors, budget - run.spent(), P, keys)
        del keys
        survivors = survivors[order]
    return run.result(np.concatenate([accepted, survivors[:k_rem]]), r, accepted, rejected)
