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

``improved_topk`` combines these: it repeatedly estimates the boundary and
mid-head/mid-tail means, shrinks the precision until either the remaining
uncertainty fits the regret budget (finish with ``opt_mai``), a wide boundary
gap appears (finish with ``eps_split``), or the set can safely shed a tenth
from its tail (and, when accepted arms must dominate, its head).
"""

from __future__ import annotations

import math

import numpy as np

from .adaptive import SelectionResult, SelectionRun, _sorted_ids
from .env import ComplementEnvironment, _arm_ids

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

    Returns (kept, kept_means, last_seen): ``kept`` holds the
    survivors' positions in ``arms``, best first, and ``last_seen`` is an
    array aligned with ``arms`` giving every input arm the freshest mean
    observed before it was dropped (or at the end, for survivors).  The
    calibration pass of a set that already fits keeps the input order.
    """
    arms = np.asarray(arms, dtype=np.intp)
    kept = np.arange(len(arms))
    last_seen = np.empty(len(arms))
    for size, m in _halving_rounds(len(arms), k_target, tau, phi, delta):
        means = env.pull_many(arms[kept], m) / m
        last_seen[kept] = means
        if size > k_target:
            keep = np.argsort(-means, kind="stable")[: max(k_target, math.ceil(size / 2))]
            kept, means = kept[keep], means[keep]
    return kept, means, last_seen


def est_kth_arm(env, S, K: int, tau: float, phi: float, delta: float, rng=None):
    """Locate an arm whose true mean is near the K-th largest of S.

    With probability at least 1 - delta the returned arm's true mean lies in
    [theta_(K) - phi, theta_((1-tau)K) + phi], where theta_(j) is the j-th
    largest true mean in S.

    Returns:
        (arm index, its latest empirical mean).
    """
    arms = _arm_ids(S)
    if not 1 <= K <= len(arms):
        raise ValueError(f"need 1 <= K <= |S|; got K={K}, |S|={len(arms)}")
    for name, v in (("tau", tau), ("phi", phi), ("delta", delta)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must lie in (0, 1)")
    kept, means, _ = _halving(env, arms, K, tau, phi, delta)
    order = np.argsort(-means, kind="stable")
    cut = _clamp(_round_half_down((1.0 - tau / 2.0) * K), 1, len(kept))
    cut_val = means[order[cut - 1]]
    candidates = np.flatnonzero(means <= cut_val)
    rng = rng if rng is not None else env.spawn_rng()
    pick = int(candidates[rng.integers(len(candidates))])
    return int(arms[kept[pick]]), float(means[pick])


def eps_split(env, S, K: int, tau: float, phi: float, delta: float) -> np.ndarray:
    """Split S at the top-K boundary, valid when the surrounding gap is wide.

    Runs the halving core down to about (1 - tau) * K survivors and tops the
    selection up to exactly K arms using the freshest means seen for the
    rest.  When the true gap theta_((1-tau)K) - theta_((1+tau)K+1) is at
    least phi, the aggregate regret is at most 2 * tau with probability at
    least 1 - delta (the precondition is not checkable from samples; harness
    code that knows the means enforces it).
    """
    arms = np.sort(_arm_ids(S))
    if not 1 <= K <= len(arms):
        raise ValueError(f"need 1 <= K <= |S|; got K={K}, |S|={len(arms)}")
    if K == len(arms):
        return _sorted_ids(arms)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    k_target = _clamp(_round_half_up((1.0 - tau) * K), 1, K)
    kept, _, last_seen = _halving(env, arms, k_target, tau, phi, delta)
    if len(kept) < K:
        # "any arms" would do for the contract; the freshest means are free.
        # ``arms`` is sorted, so a stable sort breaks ties by arm id.
        rest = np.setdiff1d(np.arange(len(arms)), kept, assume_unique=True)
        top_up = rest[np.argsort(-last_seen[rest], kind="stable")[: K - len(kept)]]
        kept = np.concatenate([kept, top_up])
    return _sorted_ids(arms[kept])


def _elim_pulls(phi: float, gamma: float, delta: float) -> int:
    # Smallest count for which a two-sided tail bound at radius phi/2 caps the
    # per-arm mistake probability by gamma * delta / 2.
    return math.ceil(2.0 / (phi * phi) * math.log(4.0 / (gamma * delta)))


def elim_cost(size: int, gamma: float, phi: float, delta: float) -> int:
    return size * _elim_pulls(phi, gamma, delta)


def _elim_core(env, S, gamma: float, phi: float, delta: float, reverse: bool) -> np.ndarray:
    arms = np.sort(_arm_ids(S))
    if len(arms) == 0:
        raise ValueError("S must be non-empty")
    for pname, v in (("gamma", gamma), ("phi", phi), ("delta", delta)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{pname} must lie in (0, 1)")
    m = _elim_pulls(phi, gamma, delta)
    means = env.pull_many(arms, m) / m
    t_size = math.ceil(len(arms) / 10)
    if reverse:
        order = np.argsort(-means, kind="stable")
    else:
        order = np.argsort(means, kind="stable")
    return _sorted_ids(arms[order[:t_size]])


def elim(env, S, K: int, gamma: float, phi: float, delta: float) -> np.ndarray:
    """Discard candidates: the ceil(|S|/10) arms with the smallest means.

    Contract (when theta_(K) - theta_((|S|+K)/2) >= phi and K <= 2|S|/3):
    with probability 1 - delta at most gamma * K of the returned arms are
    among the true top-K of S.
    """
    return _elim_core(env, S, gamma, phi, delta, reverse=False)


def reverse_elim(env, S, K: int, gamma: float, phi: float, delta: float) -> np.ndarray:
    """Mirror image of :func:`elim`: returns the ceil(|S|/10) largest-mean arms.

    Contract (when theta_(K/2) - theta_(K) >= phi and K >= |S|/3): with
    probability 1 - delta at most gamma * K of the returned arms are among
    the true bottom |S| - K of S.
    """
    return _elim_core(env, S, gamma, phi, delta, reverse=True)


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
    if not 0 <= K <= len(arms):
        raise ValueError(f"need 0 <= K <= |S|; got K={K}, |S|={len(arms)}")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if K in (0, len(arms)) or epsilon >= 1.0:
        return _sorted_ids(arms[:K])
    m = _opt_mai_pulls(len(arms), epsilon, delta)
    means = env.pull_many(arms, m) / m
    order = np.argsort(-means, kind="stable")
    return _sorted_ids(arms[order[:K]])


_UNDECIDED, _ACCEPTED, _REJECTED = 0, 1, 2


def improved_topk(env, K: int, epsilon: float, delta: float) -> SelectionResult:
    """Select K arms with aggregate regret <= epsilon, w.p. >= 1 - delta.

    For K > n/2 the problem is reflected: the complement environment is asked
    for the bottom n - K arms and the rest are reported.
    """
    run = SelectionRun(env, K)
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
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
    chosen = np.empty(0, dtype=np.intp)  # the finishing subroutine's picks from S
    k_rem = K
    r = 1
    r_phi = 1
    K_L = (1.0 - epsilon * epsilon) * K
    K_R = (1.0 + epsilon * epsilon) * K + 1.0

    while len(S):
        r_phi -= 1
        while True:
            r_phi += 1
            phi = 2.0 ** (-r_phi)
            tau = epsilon * epsilon / (100.0 * r * r)
            d_sub = delta / (100.0 * (r + r_phi) ** 2)
            cond1 = 10.0 * k_rem * phi < K * epsilon
            if cond1:
                # No estimates needed; the uncertainty already fits the budget.
                break
            kp_hi = _clamp(_round_half_up(K_R - (K - k_rem)), 1, len(S))
            kp_lo = _clamp(_round_half_up(K_L - (K - k_rem)), 1, len(S))
            kp_mid_tail = _clamp(_round_half_up((len(S) + k_rem) / 2.0), 1, len(S))
            kp_mid_head = _clamp(_round_half_up(k_rem / 2.0), 1, len(S))
            _, theta_K_plus = est_kth_arm(env, S, kp_hi, tau, phi, d_sub, rng=rng)
            _, theta_K_minus = est_kth_arm(env, S, kp_lo, tau, phi, d_sub, rng=rng)
            _, theta_plus = est_kth_arm(env, S, kp_mid_tail, tau, phi, d_sub, rng=rng)
            _, theta_minus = est_kth_arm(env, S, kp_mid_head, tau, phi, d_sub, rng=rng)
            cond2 = theta_K_minus - theta_K_plus > 3.0 * phi
            head_sep = theta_K_plus - theta_plus > 3.0 * phi
            tail_sep = theta_minus - theta_K_minus > 3.0 * phi
            cond3 = (k_rem <= len(S) / 2.0) and head_sep
            cond4 = (k_rem > len(S) / 2.0) and head_sep and tail_sep
            if cond2 or cond3 or cond4:
                break

        if cond1:
            chosen = opt_mai(env, S, k_rem, phi, delta / 100.0)
            break
        if cond2:
            tau_split = (K_R - K_L) / k_rem
            if tau_split < 1.0 and _round_half_up((1.0 - tau_split) * k_rem) >= 1:
                chosen = eps_split(env, S, k_rem, tau_split, phi, delta / 100.0)
            else:
                # The split ratio collapses on small sets; a direct PAC
                # selection at the budget's share of the tolerance is safe.
                chosen = opt_mai(env, S, k_rem, K * epsilon / (10.0 * k_rem), delta / 100.0)
            break

        u_size = math.ceil(len(S) / 10)
        if len(S) - u_size < k_rem:
            # Shedding a tenth would cut into arms we must return.
            chosen = opt_mai(env, S, k_rem, K * epsilon / (10.0 * k_rem), delta / 100.0)
            break
        gamma = epsilon * epsilon / (100.0 * r * r)
        d_round = delta / (100.0 * r * r)
        U = elim(env, S, k_rem, gamma, phi, d_round)
        state[U] = _REJECTED
        if k_rem > len(S) / 2.0:
            V = reverse_elim(env, S, k_rem, gamma, phi, d_round)
            # Separate samples can put an arm in both; its rejection stands.
            V = np.setdiff1d(V, U)
            state[V] = _ACCEPTED
            k_rem -= len(V)
        r += 1
        S = np.flatnonzero(state == _UNDECIDED)

    A = np.flatnonzero(state == _ACCEPTED)
    return run.result(np.concatenate([chosen, A]), r, A, np.flatnonzero(state == _REJECTED))
