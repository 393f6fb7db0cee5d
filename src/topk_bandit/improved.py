"""Selection machinery built around approximate order-statistic estimation.

Subroutines:
  * ``est_kth_arm``: returns an arm whose true mean is close to the k-th
    largest in a set, via successive halving with shrinking error budgets.
  * ``eps_split``: same halving core used to split a set at the boundary
    when the surrounding gap is known to be wide.
  * ``elim`` / ``reverse_elim``: one uniform pulling pass that discards the
    worst (resp. commits the best) tenth of a set with a bounded number of
    boundary mistakes.
  * ``opt_mai``: an interface-compatible PAC selector backed by uniform
    allocation and a union bound.  It satisfies the same success contract as
    the allocation-optimal method it stands in for, at the cost of an extra
    log-factor in pulls; it is a stand-in, not a reimplementation.

``improved_topk`` combines these.  It probes the undecided arms at
precision phi = 2^-r_phi, halving phi until a rule fires.  Once the remaining
uncertainty fits the regret budget it finishes with ``opt_mai``; otherwise it
estimates the means at the top-K boundary and mid-head/mid-tail, and reads
three gaps: ``wide_gap`` (across the boundary) licenses ``eps_split``, which
finishes the run; ``tail_gap`` (boundary over mid-tail) licenses ``elim``,
which sheds a tenth from the tail; ``head_gap`` (mid-head over boundary)
licenses ``reverse_elim``, which also commits a tenth from the head when more
than half the set must be taken.
"""

from __future__ import annotations

import math

import numpy as np

from .adaptive import SelectionResult, SelectionRun, _order_by_sums, _sorted_ids
from .env import ComplementEnvironment, _arm_ids, _integer, _open, _positive

__all__ = [
    "est_kth_arm",
    "est_kth_arm_cost",
    "eps_split",
    "elim",
    "reverse_elim",
    "elim_cost",
    "opt_mai",
    "opt_mai_cost",
    "improved_topk",
]


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _round_half_down(x: float) -> int:
    return math.ceil(x - 0.5)


def _clamp(v: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, v))


def _halving_rounds(size: int, k_target: int, tau: float, phi: float, delta: float):
    """Yield (set_size, pulls_per_arm) for each halving round.

    When the set already fits (size <= k_target) a single calibration pass at
    the first-round parameters is emitted so empirical means always exist.
    """
    tau_r, phi_r, delta_r = tau / 4.0, phi / 4.0, delta / 8.0
    calibration = size <= k_target
    while calibration or size > k_target:
        yield size, math.ceil(8.0 / (phi_r * phi_r) * math.log(1.0 / (tau_r * delta_r * delta)))
        calibration = False
        size = max(k_target, math.ceil(size / 2))
        tau_r, phi_r, delta_r = 0.75 * tau_r, 0.75 * phi_r, 0.5 * delta_r


def est_kth_arm_cost(size: int, k_target: int, tau: float, phi: float, delta: float) -> int:
    """Exact pull count the halving schedule charges for these parameters."""
    return sum(s * m for s, m in _halving_rounds(size, k_target, tau, phi, delta))


def _halving(env, arms: np.ndarray, k_target: int, tau: float, phi: float, delta: float):
    """Successive halving keeping the top max(k_target, half) arms per round,
    on the schedule of :func:`_halving_rounds`.

    Returns (kept, kept_means, dropped): ``kept`` holds the survivors'
    positions in ``arms``, best first, ``kept_means`` their last means, and
    ``dropped`` each round's dropped positions, best first, in round order;
    a round ranks its drops as it ranks its survivors.  The calibration pass
    of a set that already fits keeps the input order and drops nothing.
    """
    arms = np.asarray(arms, dtype=np.intp)
    kept = np.arange(len(arms))
    dropped = []
    for size, m in _halving_rounds(len(arms), k_target, tau, phi, delta):
        sums = env.pull_many(arms[kept], m)
        if size > k_target:
            order = _order_by_sums(sums, m)
            cut = max(k_target, math.ceil(size / 2))
            dropped.append(kept[order[cut:]])
            kept, sums = kept[order[:cut]], sums[order[:cut]]
    return kept, sums / m, dropped


def est_kth_arm(env, S, K: int, tau: float, phi: float, delta: float, rng=None):
    """Locate an arm whose true mean is near the K-th largest of S.

    With probability at least 1 - delta the returned arm's true mean lies in
    [theta_(K) - phi, theta_((1-tau)K) + phi], where theta_(j) is the j-th
    largest true mean in S.

    Returns:
        (arm index, its latest empirical mean).
    """
    arms = _arm_ids(S)
    _integer("K", K, 1, len(arms))
    for name, v in (("tau", tau), ("phi", phi), ("delta", delta)):
        _open(name, v)
    kept, means, _ = _halving(env, arms, K, tau, phi, delta)
    cut = _clamp(_round_half_down((1.0 - tau / 2.0) * K), 1, len(kept))
    cut_val = np.sort(means)[len(means) - cut]  # the cut-th largest mean
    candidates = np.flatnonzero(means <= cut_val)
    rng = rng if rng is not None else env.spawn_rng()
    pick = int(candidates[rng.integers(len(candidates))])
    return int(arms[kept[pick]]), float(means[pick])


def eps_split(env, S, K: int, tau: float, phi: float, delta: float) -> np.ndarray:
    """Split S at the top-K boundary, valid when the surrounding gap is wide.

    Runs the halving core down to about (1 - tau) * K survivors and tops the
    selection up to exactly K arms from the halving's drops, the last
    round's first, each best first.  When the true gap theta_((1-tau)K) -
    theta_((1+tau)K+1) is at least phi, the aggregate regret is at most
    2 * tau with probability at least 1 - delta (the precondition is not
    checkable from samples; harness code that knows the means enforces it).
    """
    arms = np.sort(_arm_ids(S))
    _integer("K", K, 1, len(arms))
    for name, v in (("tau", tau), ("phi", phi), ("delta", delta)):
        _open(name, v)
    if K == len(arms):
        return _sorted_ids(arms)
    k_target = _clamp(_round_half_up((1.0 - tau) * K), 1, K)
    kept, _, dropped = _halving(env, arms, k_target, tau, phi, delta)
    # At most K arms survive, and "any arms" would do for the contract.
    return _sorted_ids(arms[np.concatenate([kept, *reversed(dropped)])[:K]])


def _elim_pulls(phi: float, gamma: float, delta: float) -> int:
    # Smallest count for which a two-sided tail bound at radius phi/2 caps the
    # per-arm mistake probability by gamma * delta / 2.
    return math.ceil(2.0 / (phi * phi) * math.log(4.0 / (gamma * delta)))


def elim_cost(size: int, gamma: float, phi: float, delta: float) -> int:
    return size * _elim_pulls(phi, gamma, delta)


def _elim_core(env, S, K: int, gamma: float, phi: float, delta: float, reverse: bool) -> np.ndarray:
    arms = np.sort(_arm_ids(S))
    _integer("K", K, 1, len(arms))  # K >= 1 also refuses an empty S
    for name, v in (("gamma", gamma), ("phi", phi), ("delta", delta)):
        _open(name, v)
    m = _elim_pulls(phi, gamma, delta)
    sums = env.pull_many(arms, m)
    # The complement sums m - sums rank the smallest means first, ties to
    # the lower id, as an ascending stable sort of the means does.
    order = _order_by_sums(sums if reverse else m - sums, m)
    return _sorted_ids(arms[order[: math.ceil(len(arms) / 10)]])


def elim(env, S, K: int, gamma: float, phi: float, delta: float) -> np.ndarray:
    """Discard candidates: the ceil(|S|/10) arms with the smallest means.

    Contract (when theta_(K) - theta_((|S|+K)/2) >= phi and K <= 2|S|/3):
    with probability 1 - delta at most gamma * K of the returned arms are
    among the true top-K of S.
    """
    return _elim_core(env, S, K, gamma, phi, delta, reverse=False)


def reverse_elim(env, S, K: int, gamma: float, phi: float, delta: float) -> np.ndarray:
    """Mirror image of :func:`elim`: returns the ceil(|S|/10) largest-mean arms.

    Contract (when theta_(K/2) - theta_(K) >= phi and K >= |S|/3): with
    probability 1 - delta at most gamma * K of the returned arms are among
    the true bottom |S| - K of S.
    """
    return _elim_core(env, S, K, gamma, phi, delta, reverse=True)


def _opt_mai_pulls(size: int, epsilon: float, delta: float) -> int:
    # Per-arm count for which a union bound over the set closes at epsilon.
    return math.ceil(2.0 / (epsilon * epsilon) * math.log(2.0 * size / delta))


def opt_mai_cost(size: int, epsilon: float, delta: float) -> int:
    return size * _opt_mai_pulls(size, epsilon, delta)


def opt_mai(env, S, K: int, epsilon: float, delta: float) -> np.ndarray:
    """PAC selection of K arms from S with aggregate regret <= epsilon.

    Interface-compatible stand-in: uniform allocation sized by a union bound,
    then the top K empirical means.  Matches the success contract of the
    allocation-optimal selector it replaces, with an extra log|S| factor in
    the pull count.
    """
    arms = np.sort(_arm_ids(S))
    _integer("K", K, 0, len(arms))
    _positive("epsilon", epsilon)
    _open("delta", delta)
    if K in (0, len(arms)) or epsilon >= 1.0:
        return _sorted_ids(arms[:K])
    m = _opt_mai_pulls(len(arms), epsilon, delta)
    order = _order_by_sums(env.pull_many(arms, m), m)
    return _sorted_ids(arms[order[:K]])


_UNDECIDED, _ACCEPTED, _REJECTED = 0, 1, 2


def improved_topk(env, K: int, epsilon: float, delta: float) -> SelectionResult:
    """Select K arms with aggregate regret <= epsilon, w.p. >= 1 - delta.

    For K > n/2 the problem is reflected: the complement environment is asked
    for the bottom n - K arms and the rest are reported.
    """
    run = SelectionRun(env, K)
    _positive("epsilon", epsilon)
    _open("delta", delta)
    if run.trivial() or epsilon >= 1.0:
        return run.result(range(K), 0)
    n = env.n
    if 2 * K > n:
        inner = improved_topk(ComplementEnvironment(env), n - K, epsilon, delta)
        selected = np.setdiff1d(np.arange(n), inner.selected, assume_unique=True)
        return run.result(selected, inner.rounds_completed, inner.rejected, inner.accepted_early)

    rng = env.spawn_rng()
    # Per arm: undecided, accepted early (A) or rejected (B).  S, the
    # undecided arms, is read in ascending id order, the order of its pulls.
    state = np.full(n, _UNDECIDED, dtype=np.int8)
    S = np.arange(n)
    k_rem = K
    r = r_phi = 1
    K_L = (1.0 - epsilon * epsilon) * K
    K_R = (1.0 + epsilon * epsilon) * K + 1.0

    def finish(chosen):
        A = np.flatnonzero(state == _ACCEPTED)
        return run.result(np.concatenate([chosen, A]), r, A, np.flatnonzero(state == _REJECTED))

    # Each round leaves at least k_rem >= 1 undecided arms, so S never empties.
    while True:
        phi = 2.0 ** (-r_phi)
        if 10.0 * k_rem * phi < K * epsilon:
            # No estimates needed; the uncertainty already fits the budget.
            return finish(opt_mai(env, S, k_rem, phi, delta / 100.0))
        tau = epsilon * epsilon / (100.0 * r * r)
        d_sub = delta / (100.0 * (r + r_phi) ** 2)
        kp_hi = _clamp(_round_half_up(K_R - (K - k_rem)), 1, len(S))
        kp_lo = _clamp(_round_half_up(K_L - (K - k_rem)), 1, len(S))
        kp_mid_tail = _clamp(_round_half_up((len(S) + k_rem) / 2.0), 1, len(S))
        kp_mid_head = _clamp(_round_half_up(k_rem / 2.0), 1, len(S))
        _, theta_K_plus = est_kth_arm(env, S, kp_hi, tau, phi, d_sub, rng=rng)
        _, theta_K_minus = est_kth_arm(env, S, kp_lo, tau, phi, d_sub, rng=rng)
        _, theta_plus = est_kth_arm(env, S, kp_mid_tail, tau, phi, d_sub, rng=rng)
        _, theta_minus = est_kth_arm(env, S, kp_mid_head, tau, phi, d_sub, rng=rng)
        # Each gap, shown at 3 phi, gives the precondition (a true gap of at
        # least phi) of the subroutine it licenses: eps_split across the
        # boundary, elim below it, reverse_elim above it.
        wide_gap = theta_K_minus - theta_K_plus > 3.0 * phi
        tail_gap = theta_K_plus - theta_plus > 3.0 * phi
        head_gap = theta_minus - theta_K_minus > 3.0 * phi
        if not (wide_gap or tail_gap and (k_rem <= len(S) / 2.0 or head_gap)):
            r_phi += 1  # no rule fires: probe again at twice the precision
            continue
        if wide_gap:
            tau_split = (K_R - K_L) / k_rem
            if tau_split < 1.0 and _round_half_up((1.0 - tau_split) * k_rem) >= 1:
                return finish(eps_split(env, S, k_rem, tau_split, phi, delta / 100.0))
        if wide_gap or len(S) - math.ceil(len(S) / 10) < k_rem:
            # The split ratio collapses on small sets, or shedding a tenth
            # would cut into arms we must return: a direct PAC selection at
            # the budget's share of the tolerance is safe.
            return finish(opt_mai(env, S, k_rem, K * epsilon / (10.0 * k_rem), delta / 100.0))
        gamma = epsilon * epsilon / (100.0 * r * r)
        d_round = delta / (100.0 * r * r)
        U = elim(env, S, k_rem, gamma, phi, d_round)
        state[U] = _REJECTED
        if k_rem > len(S) / 2.0:
            # Separate samples can put an arm in both; its rejection stands.
            V = np.setdiff1d(reverse_elim(env, S, k_rem, gamma, phi, d_round), U)
            state[V] = _ACCEPTED
            k_rem -= len(V)
        r += 1
        S = np.flatnonzero(state == _UNDECIDED)
