"""Comparison algorithms for the benchmark harness.

Both baselines are anytime in the budget: they never request more pulls than
allowed and always return exactly K arms.  The confidence-bound routine is a
stand-in calibrated to mimic accept/reject selectors from the literature, not
a reimplementation of any of them; comparisons against it are qualitative.
"""

from __future__ import annotations

import math

import numpy as np

from .adaptive import SelectionResult, SelectionRun, _order_by_sums
from .env import _integer

__all__ = ["uniform_topk", "cb_accept_reject_topk"]

# Constant inside the confidence radius sqrt(ln(_CB_C * n * T^2) / (2 m));
# chosen so the union bound over arms and time steps closes.
_CB_C = 4.0


def uniform_topk(env, K: int, budget: int) -> SelectionResult:
    """Split the budget evenly, then take the K best empirical means."""
    run = SelectionRun(env, K)
    _integer("budget", budget, env.n)  # one pull per arm at least
    if run.trivial():
        return run.result(range(K), 1)
    n = env.n
    m = budget // n
    arms = np.arange(n)
    order = _order_by_sums(env.pull_many(arms, m), m)
    return run.result(order[:K], 1)


def cb_accept_reject_topk(env, K: int, budget: int) -> SelectionResult:
    """Confidence-bound accept/reject selection under a hard budget.

    After one sweep of single pulls, the routine repeatedly pulls the most
    ambiguous undecided arm (smallest margin between its interval and the
    current boundary between the K-th and (K+1)-th empirical means), doubling
    that arm's pull count each visit.  An arm is accepted once its lower
    bound clears every remaining competitor's upper bound, rejected in the
    mirror case, and the selection is topped up by empirical means when the
    budget runs out.  The radius sqrt(ln(_CB_C * n * T^2) / (2 m)) counts in
    T this run's pulls, not the environment's lifetime total.

    The undecided arms ``u`` stay in id order, so ties go to the lower id.
    ``means``, ``neg`` (the negated means) and ``twoc`` (twice the pull
    counts) are aligned with ``u``: a pull rewrites the pulled arm's three
    entries, and a decision step deletes the decided positions from all four.
    """
    run = SelectionRun(env, K)
    _integer("budget", budget, env.n)  # one pull per arm at least
    if run.trivial():
        return run.result(range(K), 1)

    n = env.n
    u = np.arange(n)  # undecided arms, in id order
    first = env.pull_many(u, 1)
    sums = first.tolist()  # per-arm reward sums and pull counts, by id
    counts = [1] * n
    means = first.astype(np.float64)
    neg = -means
    twoc = np.full(n, 2.0)
    remaining = budget - n

    accepted: list = [np.empty(0, dtype=np.intp)]  # one id array per decision step
    rejected: list = [np.empty(0, dtype=np.intp)]
    k_rem = K

    while remaining > 0 and k_rem and len(u) > k_rem:
        T = max(budget - remaining, 2)  # this run's pulls
        radius = np.sqrt(np.log(_CB_C * n * T * T) / twoc)
        order = neg.argsort(kind="stable")

        # Decide whatever has already separated from the boundary set: the
        # head is the k_rem best means, the tail the rest.
        ms = means[order]
        rs = radius[order]
        lcb = ms[:k_rem] - rs[:k_rem]
        ucb = ms[k_rem:] + rs[k_rem:]
        lcb_lo = np.minimum.reduce(lcb)
        ucb_hi = np.maximum.reduce(ucb)
        if np.maximum.reduce(lcb) > ucb_hi or np.minimum.reduce(ucb) < lcb_lo:
            take = order[:k_rem][lcb > ucb_hi]
            drop = order[k_rem:][ucb < lcb_lo]
            accepted.append(u[take])
            rejected.append(u[drop])
            k_rem -= len(take)
            gone = np.concatenate([take, drop])
            u, means, neg, twoc = (np.delete(a, gone) for a in (u, means, neg, twoc))
            continue

        boundary = 0.5 * (ms[k_rem - 1] + ms[k_rem])
        margins = means - boundary
        np.abs(margins, out=margins)
        margins -= radius
        i = margins.argmin()
        x = u[i].item()
        chunk = min(counts[x], remaining)
        counts[x] += chunk
        sums[x] += env.pull_many(u[i:i + 1], chunk)[0].item()
        mean = sums[x] / counts[x]
        means[i], neg[i], twoc[i] = mean, -mean, 2.0 * counts[x]
        remaining -= chunk

    accepted = np.concatenate(accepted)
    # Top up the open slots (none once k_rem is 0) by empirical means.
    final = np.concatenate([accepted, u[neg.argsort(kind="stable")[:k_rem]]])
    return run.result(final, 1, accepted, np.concatenate(rejected))
