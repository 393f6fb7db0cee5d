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

__all__ = ["uniform_topk", "cb_accept_reject_topk"]

# Constant inside the confidence radius sqrt(ln(_CB_C * n * T^2) / (2 m));
# chosen so the union bound over arms and time steps closes.
_CB_C = 4.0


def _check_budget(env, budget: int) -> None:
    if budget < env.n:
        raise ValueError(f"budget {budget} is below one pull per arm (n={env.n})")


def uniform_topk(env, K: int, budget: int) -> SelectionResult:
    """Split the budget evenly, then take the K best empirical means."""
    run = SelectionRun(env, K)
    _check_budget(env, budget)
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
    budget runs out.
    """
    run = SelectionRun(env, K)
    _check_budget(env, budget)
    if run.trivial():
        return run.result(range(K), 1)

    n = env.n
    u = np.arange(n)  # undecided arms, in id order
    counts = np.ones(n, dtype=np.int64)  # per-arm pulls and reward sums
    sums = env.pull_many(u, 1).astype(np.float64)
    remaining = budget - n

    accepted: list = [np.empty(0, dtype=np.intp)]  # one id array per decision step
    rejected: list = [np.empty(0, dtype=np.intp)]
    k_rem = K

    while remaining > 0 and k_rem and len(u) > k_rem:
        means = sums[u] / counts[u]
        T = max(env.total_pulls(), 2)
        radius = np.sqrt(np.log(_CB_C * n * T * T) / (2.0 * counts[u]))

        order = np.argsort(-means, kind="stable")
        boundary = 0.5 * (means[order[k_rem - 1]] + means[order[k_rem]])

        # Decide whatever has already separated from the boundary set.
        head = order[:k_rem]
        tail = order[k_rem:]
        lcb = means - radius
        ucb = means + radius
        take = head[lcb[head] > ucb[tail].max()]
        drop = tail[ucb[tail] < lcb[head].min()]
        if len(take) or len(drop):
            accepted.append(u[take])
            rejected.append(u[drop])
            k_rem -= len(take)
            u = np.delete(u, np.concatenate([take, drop]))
            continue

        margins = np.abs(means - boundary) - radius
        x = int(u[int(np.argmin(margins))])
        chunk = int(min(counts[x], remaining))
        counts[x] += chunk
        sums[x] += env.pull_batch(x, chunk)
        remaining -= chunk

    accepted = np.concatenate(accepted)
    # Top up the open slots (none once k_rem is 0) by empirical means.
    order = np.argsort(-(sums[u] / counts[u]), kind="stable")
    final = np.concatenate([accepted, u[order[:k_rem]]])
    return run.result(final, 1, accepted, np.concatenate(rejected))
