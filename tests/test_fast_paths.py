"""Differential tests: each vectorised, closed-form or integer-keyed hot path
against the per-element loop or the float form it replaced.

The reference functions below are the earlier implementations, kept
verbatim apart from names and docstrings (local arrays in place of the
package's former tally class, the local ``_Pool`` in place of its former
sorted pool, ``ref_halving`` under ``ref_est_kth_arm``, and the optional
logs of decision and pull steps in ``ref_cb_accept_reject_topk``), except that
``ref_halving`` returns each round's drops and ``ref_eps_split`` tops up
from them, the last round's first, as the package does, and that
``ref_improved_topk`` calls its subroutines through the module, as the
package's loop does, so a test can stub them; they live here and nowhere in
the package.
Every comparison is exact: the fast paths do the same float operations, so
they must agree bit for bit, not within a tolerance.  The exceptions are the
coin computations.  The threshold search sums in another order than its
scan; it must still give the same integer threshold.  The numpy log-pmf and
its tail sum replace scipy's ``gammaln`` and ``logsumexp``, which stay here
as references; they must give the same threshold and agree within a bound
derived from the rounding of each form.
"""

import hashlib
import math
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

import topk_bandit.adaptive as adaptive_module
import topk_bandit.bench as bench_module
import topk_bandit.improved as improved_module
from topk_bandit.adaptive import (
    SelectionResult, SelectionRun, _commit_sweep, _order_by_sums, _round_loop, _sorted_ids,
    _spread, adaptive_topk, adaptive_topk_fixed_budget,
)
from topk_bandit.baselines import _CB_C, cb_accept_reject_topk, uniform_topk
from topk_bandit.bench import (
    ALGORITHMS, ExperimentConfig, ExperimentReport, resolve_means, run_experiment, setup_trial,
)
from topk_bandit.env import (
    ArmEnvironment, ComplementEnvironment, Instance, PullTrace, _arm_ids, _integer, _open, _positive,
)
from topk_bandit.hardness import (
    HardnessReport, _require_sorted, gaps, hardness, psi_quantities, t_of,
)
from topk_bandit.improved import (
    _ACCEPTED, _REJECTED, _UNDECIDED, _clamp, _halving, _round_half_down, _round_half_up, elim,
    eps_split, est_kth_arm, improved_topk, opt_mai, reverse_elim,
)
from topk_bandit.instances import gen_two_group
from topk_bandit.lowerbound import (
    GIVE_UP_RATE_CAP, _binomial_logpmf, _coin_threshold, _log_choose, optimal_coin_log_error,
)


# --- schedule oracles: the pull formulas, transcribed from their statements --
#
# The statements are those of the adaptive and improved module docstrings and
# of the schedule functions' docstrings.  The references below use these, not
# the package's functions, so no formula is checked against itself; the
# transcriptions keep each statement's float operations in their stated
# order, so the counts agree exactly.

def oracle_scale(r: int, tuned: bool) -> float:
    """Round r's scale: 2^-r, or 1.01^-r in the tuned schedule."""
    return 1.01 ** -r if tuned else 0.5 ** r


def oracle_round_pulls(n: int, r: int, delta: float, tuned: bool) -> int:
    """Round r pulls each undecided arm ceil(4^r ln(2 n r^2 / delta)) times;
    the tuned schedule divides the log by its squared scale instead."""
    log = math.log(2 * n * r**2 / delta)
    if tuned:
        s = oracle_scale(r, True)
        return math.ceil(log / (s * s))
    return math.ceil(4**r * log)


def oracle_halving_rounds(size: int, k_target: int, tau: float, phi: float,
                          delta: float) -> list:
    """(set size, pulls per arm) of each halving round i = 0, 1, ...: each arm
    is pulled ceil(8 / phi_i^2 * ln(1 / (tau_i delta_i delta))) times, with
    tau_0 = tau / 4, phi_0 = phi / 4 and delta_0 = delta / 8; each round
    multiplies tau_i and phi_i by 3/4 and halves delta_i, and the set keeps
    max(k_target, ceil(size / 2)) arms.  Rounds run while the set exceeds
    k_target; a set that already fits gets one calibration round."""
    rounds = []
    t, p, d = tau / 4, phi / 4, delta / 8
    while not rounds or size > k_target:
        rounds.append((size, math.ceil(8 / (p * p) * math.log(1 / (t * d * delta)))))
        size = max(k_target, -(-size // 2))
        t, p, d = t * 0.75, p * 0.75, d / 2
    return rounds


def oracle_elim_pulls(phi: float, gamma: float, delta: float) -> int:
    """ceil(2 / phi^2 * ln(4 / (gamma delta))) pulls per arm."""
    return math.ceil(2 / (phi * phi) * math.log(4 / (gamma * delta)))


def oracle_opt_mai_pulls(size: int, epsilon: float, delta: float) -> int:
    """ceil(2 / epsilon^2 * ln(2 |S| / delta)) pulls per arm."""
    return math.ceil(2 / (epsilon * epsilon) * math.log(2 * size / delta))


def test_schedules_match_their_statements():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        n = int(rng.integers(2, 10**7))
        delta = _log_uniform(rng, 1e-12, 0.9)
        for tuned in (False, True):
            r = int(rng.integers(1, 400 if tuned else 40))
            assert adaptive_module._schedule(r, tuned) == oracle_scale(r, tuned)
            assert adaptive_module._round_pulls(n, r, delta, tuned) == \
                oracle_round_pulls(n, r, delta, tuned)
        size = int(rng.integers(1, 10**6))
        k_target = int(rng.integers(1, size + 2))
        tau, phi, gamma = (float(v) for v in rng.uniform(1e-4, 0.999, 3))
        assert list(improved_module._halving_rounds(size, k_target, tau, phi, delta)) == \
            oracle_halving_rounds(size, k_target, tau, phi, delta)
        assert improved_module._elim_pulls(phi, gamma, delta) == \
            oracle_elim_pulls(phi, gamma, delta)
        assert improved_module._opt_mai_pulls(size, phi, delta) == \
            oracle_opt_mai_pulls(size, phi, delta)
    # Anchors worked by hand: ceil(4 ln(2 * 10^5)) = ceil(48.82) and
    # ceil(16 ln(8 * 10^5)) = ceil(217.5); ceil(2 / 0.01 * ln(4 / 0.01)) =
    # ceil(1198.3); ceil(2 / 0.01 * ln(2000 / 0.01)) = ceil(2441.2).
    assert oracle_round_pulls(1000, 1, 0.01, False) == 49
    assert oracle_round_pulls(1000, 2, 0.01, False) == 218
    assert oracle_elim_pulls(0.1, 0.1, 0.1) == 1199
    assert oracle_opt_mai_pulls(1000, 0.1, 0.01) == 2442


# --- references: the loop implementations -----------------------------------

def ref_order_by_sums(sums: np.ndarray, m: int) -> np.ndarray:
    return np.argsort(-(sums / m), kind="stable")


class _Pool:
    """Undecided arms sorted by the round's float means ``sums / m``, as a
    window [lo, hi] that the one-arm-at-a-time sweep shrinks from its ends."""

    def __init__(self, arm_ids: np.ndarray, sums: np.ndarray, m: int):
        self.order = order = ref_order_by_sums(sums, m)
        self.ids = arm_ids[order]
        self.vals = sums[order] / m
        self.lo = 0
        self.hi = len(arm_ids) - 1

    def size(self) -> int:
        return self.hi - self.lo + 1


def ref_commit_sweep(pool, k_rem: int, threshold: float, accepted: list, rejected: list) -> int:
    while k_rem >= 1 and pool.size() > k_rem:
        a_val = pool.vals[pool.lo + k_rem]      # (k_rem + 1)-th largest mean
        b_val = pool.vals[pool.lo + k_rem - 1]  # k_rem-th largest mean
        top_gap = pool.vals[pool.lo] - a_val
        bot_gap = b_val - pool.vals[pool.hi]
        if top_gap <= threshold and bot_gap <= threshold:
            break
        if top_gap >= bot_gap:
            # top element clears the boundary from above: accept
            accepted.append(int(pool.ids[pool.lo]))
            pool.lo += 1
            k_rem -= 1
        else:
            rejected.append(int(pool.ids[pool.hi]))
            pool.hi -= 1
    return k_rem


def ref_round_loop(env, K: int, delta: float, tuned: bool, more):
    n = env.n
    accepted: list = []
    rejected: list = []
    survivors = np.arange(n)
    r = 0
    k_rem = K
    while k_rem >= 1 and len(survivors) > k_rem:
        m = oracle_round_pulls(n, r + 1, delta, tuned)
        if not more(r, k_rem, m * len(survivors)):
            break
        r += 1
        scale = oracle_scale(r, tuned)
        pool = _Pool(survivors, env.pull_many(survivors, m), m)
        threshold = scale / 3.0 if tuned else 2.0 * scale
        k_rem = ref_commit_sweep(pool, k_rem, threshold, accepted, rejected)
        survivors = pool.ids[pool.lo : pool.hi + 1]
    return accepted, rejected, survivors, k_rem, r


def ref_cb_accept_reject_topk(env, K: int, budget: int, steps: list = None,
                              picks: list = None) -> SelectionResult:
    run = SelectionRun(env, K)
    _integer("budget", budget, env.n)
    if run.trivial():
        return run.result(range(K), 1)

    n = env.n
    counts = np.zeros(n, dtype=np.int64)
    sums = np.zeros(n, dtype=np.float64)
    arms = np.arange(n)
    np.add.at(counts, arms, 1)
    np.add.at(sums, arms, env.pull_many(arms, 1))
    remaining = budget - n

    accepted: set = set()
    rejected: set = set()
    undecided = list(range(n))

    while remaining > 0:
        k_rem = K - len(accepted)
        if k_rem == 0 or len(undecided) <= k_rem:
            break
        u = np.asarray(undecided)
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
        tail_ucb, head_lcb = ucb[tail].max(), lcb[head].min()
        new_accept = [int(u[i]) for i in head if lcb[i] > tail_ucb]
        new_reject = [int(u[i]) for i in tail if ucb[i] < head_lcb]
        if new_accept or new_reject:
            if steps is not None:
                steps.append((len(new_accept), len(new_reject)))
            accepted.update(new_accept)
            rejected.update(new_reject)
            done = set(new_accept) | set(new_reject)
            undecided = [a for a in undecided if a not in done]
            continue

        margins = np.abs(means - boundary) - radius
        x = int(u[int(np.argmin(margins))])
        if picks is not None:
            picks.append((u, counts[u], means, boundary, margins, x))
        chunk = int(min(counts[x], remaining))
        counts[x] += chunk
        sums[x] += env.pull_many([x], chunk)[0]
        remaining -= chunk

    k_rem = K - len(accepted)
    if k_rem > 0:
        u = np.asarray(undecided)
        means = sums[u] / counts[u]
        order = np.argsort(-means, kind="stable")
        final = set(accepted) | set(int(u[i]) for i in order[:k_rem])
    else:
        final = set(accepted)
    return run.result(sorted(final), 1, sorted(accepted), sorted(rejected))


def ref_adaptive_topk_fixed_budget(env, K: int, budget: int, delta: float = 0.01,
                                   tuned: bool = False) -> SelectionResult:
    run = SelectionRun(env, K)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if run.trivial():
        return run.result(range(K), 0)

    n = env.n
    counts = np.zeros(n, dtype=np.int64)
    sums = np.zeros(n, dtype=np.float64)

    def add_many(arms, m, reward_sums):
        np.add.at(counts, arms, m)
        np.add.at(sums, arms, reward_sums)

    def means():
        with np.errstate(invalid="ignore", divide="ignore"):
            return sums / counts

    if budget < n:
        # Documented degradation: not even one sweep fits.
        head = np.arange(budget)
        add_many(head, 1, env.pull_many(head, 1))
        order = np.argsort(-np.nan_to_num(means(), nan=-1.0), kind="stable")
        return run.result(order[:K], 0)

    # The tally counts every pull of the run, so budget - its count is what
    # is left.
    accepted, rejected, survivors, k_rem, r = _round_loop(
        env, K, delta, tuned,
        lambda r, k_rem, cost: cost <= budget - counts.sum(), add_many)
    if k_rem >= 1 and len(survivors) > k_rem:
        # The budget ran out first: spread the rest over the survivors and
        # rank them by means pooled over every pull of the run.
        q, extra = divmod(budget - int(counts.sum()), len(survivors))
        if q:
            add_many(survivors, q, env.pull_many(survivors, q))
        if extra:
            add_many(survivors[:extra], 1, env.pull_many(survivors[:extra], 1))
        survivors = survivors[np.argsort(-means()[survivors], kind="stable")]
    return run.result(np.concatenate([accepted, survivors[:k_rem]]), r, accepted, rejected)


def ref_top_up(env, arms: np.ndarray, rest: int, P: int = 0, sums=None) -> np.ndarray:
    """The even split as float means: arms that had P pulls with reward sums
    ``sums`` get q = rest // len(arms) more, the first rest % len(arms) one
    more again; an unpulled arm counts as pulled once."""
    q, extra = divmod(rest, len(arms))
    total = np.zeros(len(arms), dtype=np.int64) if sums is None else sums.copy()
    pulls = np.full(len(arms), P + q, dtype=np.int64)
    pulls[:extra] += 1
    if q:
        total += env.pull_many(arms, q)
    if extra:
        total[:extra] += env.pull_many(arms[:extra], 1)
    return np.argsort(-(total / np.maximum(pulls, 1)), kind="stable")


def ref_uniform_topk(env, K: int, budget: int) -> SelectionResult:
    run = SelectionRun(env, K)
    if run.trivial():
        return run.result(range(K), 1)
    return run.result(ref_top_up(env, np.arange(env.n), budget)[:K], 1)


def ref_binomial_logpmf(m: int, p: float) -> np.ndarray:
    k = np.arange(m + 1, dtype=np.float64)
    return (gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
            + k * math.log(p) + (m - k) * math.log1p(-p))


def ref_optimal_coin_log_error(m: int, eta: float):
    """The scipy form: (t, log error) from the ``gammaln`` log-pmf and a
    ``logsumexp`` of its tail."""
    logpmf = ref_binomial_logpmf(m, 0.5 - eta)
    k = np.arange(m + 1)
    mass = np.cumsum(np.bincount((np.abs(2 * k - m) + 1) // 2, weights=np.exp(logpmf)))
    t = int(np.searchsorted(mass, GIVE_UP_RATE_CAP, side="right")) - 1
    hi = math.floor(0.5 * m + t)
    # The window of half-width ceil(m / 2) holds all the mass, so
    # t <= ceil(m / 2) - 1 and the tail holds toss count m.
    assert hi + 1 <= m, (m, t)
    return t, float(logsumexp(logpmf[hi + 1 :]))


def ref_coin_threshold(m: int, eta: float):
    logpmf = _binomial_logpmf(m, 0.5 - eta)
    pmf = np.exp(logpmf)
    center = 0.5 * m

    total = 0.0
    comp = 0.0

    def add(x: float) -> None:
        nonlocal total, comp
        y = x - comp
        s = total + y
        comp = (s - total) - y
        total = s

    def bounds(t: int):
        return math.ceil(center - t), math.floor(center + t)

    lo, hi = bounds(0)
    for idx in range(max(lo, 0), min(hi, m) + 1):
        add(float(pmf[idx]))
    if total > GIVE_UP_RATE_CAP:
        return -1, logpmf
    t = 0
    while t + 1 <= m:
        new_lo, new_hi = bounds(t + 1)
        for idx in range(max(new_lo, 0), lo):
            add(float(pmf[idx]))
        for idx in range(hi + 1, min(new_hi, m) + 1):
            add(float(pmf[idx]))
        if total > GIVE_UP_RATE_CAP:
            break
        t += 1
        lo, hi = max(new_lo, 0), min(new_hi, m)
    return t, logpmf


def ref_halving(env, arms: np.ndarray, k_target: int, tau: float, phi: float, delta: float):
    R = np.asarray(arms, dtype=np.intp)
    drops = []
    pulls = 0
    for size, m in oracle_halving_rounds(len(R), k_target, tau, phi, delta):
        means = env.pull_many(R, m) / m
        pulls += m * size
        if size > k_target:
            order = np.argsort(-means, kind="stable")
            cut = max(k_target, math.ceil(size / 2))
            drops.append(R[order[cut:]])
            R, means = R[order[:cut]], means[order[:cut]]
    return R, means, drops, pulls


def ref_est_kth_arm(env, S, K: int, tau: float, phi: float, delta: float, rng=None):
    arms = _arm_ids(S)
    if not 1 <= K <= len(arms):
        raise ValueError(f"need 1 <= K <= |S|; got K={K}, |S|={len(arms)}")
    for name, v in (("tau", tau), ("phi", phi), ("delta", delta)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must lie in (0, 1)")
    R, means, _, _ = ref_halving(env, arms, K, tau, phi, delta)
    order = np.argsort(-means, kind="stable")
    cut = _clamp(_round_half_down((1.0 - tau / 2.0) * K), 1, len(R))
    cut_val = means[order[cut - 1]]
    candidates = np.flatnonzero(means <= cut_val)
    rng = rng if rng is not None else env.spawn_rng()
    pick = int(candidates[rng.integers(len(candidates))])
    return int(R[pick]), float(means[pick])


def ref_elim_core(env, S, gamma: float, phi: float, delta: float, reverse: bool) -> np.ndarray:
    arms = np.sort(_arm_ids(S))
    if len(arms) == 0:
        raise ValueError("S must be non-empty")
    for pname, v in (("gamma", gamma), ("phi", phi), ("delta", delta)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{pname} must lie in (0, 1)")
    m = oracle_elim_pulls(phi, gamma, delta)
    means = env.pull_many(arms, m) / m
    t_size = math.ceil(len(arms) / 10)
    if reverse:
        order = np.argsort(-means, kind="stable")
    else:
        order = np.argsort(means, kind="stable")
    return _sorted_ids(arms[order[:t_size]])


def ref_opt_mai(env, S, K: int, epsilon: float, delta: float) -> np.ndarray:
    arms = np.sort(_arm_ids(S))
    if not 0 <= K <= len(arms):
        raise ValueError(f"need 0 <= K <= |S|; got K={K}, |S|={len(arms)}")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if K in (0, len(arms)) or epsilon >= 1.0:
        return _sorted_ids(arms[:K])
    m = oracle_opt_mai_pulls(len(arms), epsilon, delta)
    means = env.pull_many(arms, m) / m
    order = np.argsort(-means, kind="stable")
    return _sorted_ids(arms[order[:K]])


def ref_eps_split(env, S, K: int, tau: float, phi: float, delta: float) -> set:
    arms = np.asarray(sorted(int(a) for a in S), dtype=np.intp)
    if not 1 <= K <= len(arms):
        raise ValueError(f"need 1 <= K <= |S|; got K={K}, |S|={len(arms)}")
    if K == len(arms):
        return set(int(a) for a in arms)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    k_target = _clamp(_round_half_up((1.0 - tau) * K), 1, K)
    R, _, drops, _ = ref_halving(env, arms, k_target, tau, phi, delta)
    chosen = [int(a) for a in R]
    # The top-up takes the last round's drops first, each round's best first.
    for dropped in reversed(drops):
        chosen.extend(int(a) for a in dropped)
    return set(chosen[:K])


def ref_improved_topk(env, K: int, epsilon: float, delta: float) -> SelectionResult:
    # The eager probe loop: four estimates per pass, from phi = 1/2 on.
    run = SelectionRun(env, K)
    _positive("epsilon", epsilon)
    _open("delta", delta)
    if run.trivial() or epsilon >= 1.0:
        return run.result(range(K), 0)
    n = env.n
    if 2 * K > n:
        inner = ref_improved_topk(ComplementEnvironment(env), n - K, epsilon, delta)
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
            return finish(improved_module.opt_mai(env, S, k_rem, phi, delta / 100.0))
        tau = epsilon * epsilon / (100.0 * r * r)
        d_sub = delta / (100.0 * (r + r_phi) ** 2)
        kp_hi = _clamp(_round_half_up(K_R - (K - k_rem)), 1, len(S))
        kp_lo = _clamp(_round_half_up(K_L - (K - k_rem)), 1, len(S))
        kp_mid_tail = _clamp(_round_half_up((len(S) + k_rem) / 2.0), 1, len(S))
        kp_mid_head = _clamp(_round_half_up(k_rem / 2.0), 1, len(S))
        _, theta_K_plus = improved_module.est_kth_arm(env, S, kp_hi, tau, phi, d_sub, rng=rng)
        _, theta_K_minus = improved_module.est_kth_arm(env, S, kp_lo, tau, phi, d_sub, rng=rng)
        _, theta_plus = improved_module.est_kth_arm(env, S, kp_mid_tail, tau, phi, d_sub, rng=rng)
        _, theta_minus = improved_module.est_kth_arm(env, S, kp_mid_head, tau, phi, d_sub, rng=rng)
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
                return finish(improved_module.eps_split(env, S, k_rem, tau_split, phi,
                                                        delta / 100.0))
        if wide_gap or len(S) - math.ceil(len(S) / 10) < k_rem:
            # The split ratio collapses on small sets, or shedding a tenth
            # would cut into arms we must return: a direct PAC selection at
            # the budget's share of the tolerance is safe.
            return finish(improved_module.opt_mai(env, S, k_rem, K * epsilon / (10.0 * k_rem),
                                                  delta / 100.0))
        gamma = epsilon * epsilon / (100.0 * r * r)
        d_round = delta / (100.0 * r * r)
        U = improved_module.elim(env, S, k_rem, gamma, phi, d_round)
        state[U] = _REJECTED
        if k_rem > len(S) / 2.0:
            # Separate samples can put an arm in both; its rejection stands.
            V = np.setdiff1d(improved_module.reverse_elim(env, S, k_rem, gamma, phi, d_round), U)
            state[V] = _ACCEPTED
            k_rem -= len(V)
        r += 1
        S = np.flatnonzero(state == _UNDECIDED)


def _t_conditions(gap: np.ndarray, K: int, epsilon: float, t: int) -> bool:
    """Both exchange-budget inequalities for a candidate t (tail index clamped)."""
    n = gap.size
    head = gap[K - t - 1] * t  # gap of rank K-t (1-indexed)
    tail_rank = min(K + t + 1, n)
    tail = gap[tail_rank - 1] * t
    budget = K * epsilon
    return head <= budget and tail <= budget


def ref_t_of(means: np.ndarray, K: int, epsilon: float) -> int:
    means = _require_sorted(means)
    _integer("K", K, 1, means.size - 1)
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    gap = gaps(means, K)
    best = 0
    for t in range(1, K):
        if _t_conditions(gap, K, epsilon, t):
            best = t
    return best


def ref_hardness(means: np.ndarray, K: int, epsilon: float) -> HardnessReport:
    means = _require_sorted(means)
    _integer("K", K, 1, means.size - 1)
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    gap = gaps(means, K)
    t = ref_t_of(means, K, epsilon)
    tail_rank = min(K + t + 1, means.size)
    clamped = (K + t + 1) > means.size
    psi_t = min(float(gap[K - t - 1]), float(gap[tail_rank - 1]))
    psi_eps = max(float(epsilon), psi_t)

    cap_t = 1.0 / (psi_eps * psi_eps)
    cap_0 = 1.0 / (float(epsilon) * float(epsilon))
    h_t = 0.0
    h_0 = 0.0
    for g in gap:
        g = float(g)
        if g > 0.0:
            inv = 1.0 / (g * g)
            h_t += min(inv, cap_t)
            h_0 += min(inv, cap_0)
        else:
            h_t += cap_t
            h_0 += cap_0
    return HardnessReport(gap, t, psi_t, psi_eps, h_t, h_0, clamped)


# --- _order_by_sums ---------------------------------------------------------

# In-range integer sums take the 16-bit keys below m = 2^16 (65535 is the
# last such m) and the int64 words from 2^16 on; at 2^53 - 1 some take the
# float sort, where the largest key m - min(sums) and the position need 64
# bits; at 2^60 + 1 all do, as near m the floats of distinct sums tie.
ORDER_MS = [1, 2, 77, 65535, 65536, 10**6, 2**40, 2**53 - 1, 2**60 + 1]


def _order_branch(sums: np.ndarray, m: int) -> str:
    """The sort _order_by_sums is meant to take: "key16", "word" (int64
    words), "word32" (uint32 words) or "float"."""
    if not (sums.size and sums.dtype.kind in "iu" and m < 2**53 and 0 <= sums.min() and sums.max() <= m):
        return "float"
    b = (sums.size - 1).bit_length()
    if sums.size > 2**16:  # keyed on max(sums) - sums
        bits = (int(sums.max()) - int(sums.min())).bit_length() + b
        return "word32" if bits <= 32 else "word" if bits <= 63 else "float"
    if m < 2**16:
        return "key16"
    top = m - int(sums.min())  # the largest key m - sums
    return "word" if top.bit_length() + b <= 63 else "float"


# The dtype of the positions each branch returns.
ORDER_DTYPES = {"key16": np.intp, "word": np.intp, "word32": np.uint32, "float": np.intp}


def _sums_cases(rng, m: int):
    for size in (1, 2, 37, 1_000, 2_000):
        yield rng.integers(0, m + 1, size)                            # uniform
        yield rng.choice(rng.integers(0, m + 1, 3), size)             # heavy ties
        yield np.full(size, int(rng.integers(0, m + 1)))              # all equal
        yield rng.choice([0, m], size)                                # 0 and m only
        yield m - rng.binomial(m, rng.random(size))                   # complement sums
        yield m // 2 + rng.integers(0, min(m - m // 2, 3_000) + 1, size)  # narrow span
        if m < 2**31:
            yield rng.integers(0, m + 1, size).astype(np.int32)
        yield rng.integers(0, m + 1, size).astype(np.uint64)


INT64 = np.iinfo(np.int64)


def _out_of_range_cases(rng, m: int):
    for size in (1, 2, 37, 2_000):
        for bad in (-1, -1 - int(rng.integers(70_000)), m + 1, m + 1 + int(rng.integers(70_000)),
                    INT64.min, INT64.max):
            sums = rng.integers(0, m + 1, size)
            sums[rng.integers(size)] = bad
            yield sums
        # m - sums wraps in 64 bits; these must still read as out of range.
        sums = rng.integers(0, m + 1, size).astype(np.uint64)
        sums[rng.integers(size)] = np.iinfo(np.uint64).max
        yield sums
        # Duck-typed float sums, in range: halves must not truncate into ties.
        yield rng.integers(0, m, size) + rng.choice([0.0, 0.5], size)
        yield rng.integers(0, m + 1, size).astype(np.float64)


def _order_cases(m: int):
    rng = np.random.default_rng(m)
    return list(_sums_cases(rng, m)) + list(_out_of_range_cases(rng, m))


@pytest.mark.parametrize("m", ORDER_MS)
def test_order_by_sums_matches_float_sort(m):
    for sums in _order_cases(m):
        ref = ref_order_by_sums(sums, m)
        # A numpy integer m, too: uniform_topk gets one from a numpy budget.
        for pulls in (m, np.int64(m)):
            fast = _order_by_sums(sums, pulls)
            assert np.array_equal(fast, ref), (m, type(pulls), sums.dtype, sums[:10])
            assert fast.dtype == np.intp
    assert len(_order_by_sums(np.zeros(0, dtype=np.int64), m)) == 0


def test_order_by_sums_matches_float_sort_past_one_chunk():
    # Past 2^16 arms the positions are or-ed in 2^16 at a time; heavy ties
    # make every chunk's positions decide the order.
    rng = np.random.default_rng(22)
    for size in (2**16, 2**16 + 1, 3 * 2**16 + 5):
        for m in (7, 10**6):
            sums = rng.integers(0, m + 1, size)
            assert np.array_equal(_order_by_sums(sums, m), ref_order_by_sums(sums, m))


def _wide_order_cases(size: int):
    """(sums, m) for a ranking of ``size`` > 2^16 arms.  With b position
    bits, the spreads max - min take 32 - b, 33 - b, 63 - b and 64 - b bits:
    the widest uint32 words, the narrowest int64 words, the widest int64
    words and the float sort.  Each spread comes with sums at 0 and at m,
    sums offset from 0 below an m past their max, heavy ties, int32 and
    uint64 sums, and a sum of -1 or m + 1, which must take the float sort."""
    rng = np.random.default_rng(size)
    b = (size - 1).bit_length()
    for spread in ((1 << (32 - b)) - 1, 1 << (32 - b), (1 << (63 - b)) - 1, 1 << (63 - b)):
        m = spread
        full = rng.integers(0, m + 1, size)
        full[[0, -1]] = 0, m
        yield full, m
        offset = full + 3 * spread
        yield offset, 4 * spread + 5
        ties = rng.choice([0, spread // 2, spread], size)
        ties[-2:] = 0, spread
        yield ties, m
        if m < 2**31:
            yield full.astype(np.int32), m
        yield offset.astype(np.uint64), 4 * spread + 5
        for bad in (-1, m + 1):
            sums = full.copy()
            sums[size // 2] = bad
            yield sums, m


WIDE_SIZES = (2**16 + 1, 2**20)


@pytest.mark.parametrize("size", WIDE_SIZES)
def test_wide_order_by_sums_matches_float_sort(size):
    seen = Counter()
    for sums, m in _wide_order_cases(size):
        branch = _order_branch(sums, m)
        fast = _order_by_sums(sums, m)
        assert np.array_equal(fast, ref_order_by_sums(sums, m)), (size, m, branch, sums.dtype)
        assert fast.dtype == ORDER_DTYPES[branch], (size, m, branch)
        seen[branch] += 1
    assert seen == {"word32": 5, "word": 9, "float": 12}


def test_order_by_sums_cases_reach_every_branch(monkeypatch):
    # The float sort is the one np.argsort call and the word sorts the only
    # np.arange calls, for uint32 positions in the uint32 words: record them
    # to see the branch taken.
    calls = []
    argsort, arange = np.argsort, np.arange
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append("float") or argsort(*a, **kw))
    monkeypatch.setattr(np, "arange", lambda *a, **kw: calls.append(
        "word32" if kw.get("dtype") == np.uint32 else "word") or arange(*a, **kw))

    def taken(sums, m):
        calls.clear()
        _order_by_sums(sums, m)
        branch = calls[0] if calls else "key16"
        assert branch == _order_branch(sums, m), (m, sums.dtype, sums[:10])
        return branch

    counts = {m: Counter(taken(sums, m) for sums in _order_cases(m)) for m in ORDER_MS}
    assert {m: (c["key16"], c["word"], c["float"], c["word32"]) for m, c in counts.items()} == {
        1: (40, 0, 36, 0), 2: (40, 0, 36, 0), 77: (40, 0, 36, 0), 65535: (40, 0, 36, 0),
        65536: (0, 40, 36, 0), 10**6: (0, 40, 36, 0), 2**40: (0, 35, 36, 0),
        2**53 - 1: (0, 28, 43, 0),  # 7 in-range cases need 64 bits
        2**60 + 1: (0, 0, 71, 0),
    }
    wide = Counter(taken(sums, m) for sums, m in _wide_order_cases(WIDE_SIZES[0]))
    assert wide == {"word32": 5, "word": 9, "float": 12}


# --- _commit_sweep and _round_loop ----------------------------------------

def _random_pool(rng):
    # Integer reward sums of m pulls each, heavily tied in half the pools.
    size = int(rng.integers(1, 40))
    m = int(rng.choice([1, 2, 3, 5, 8, 77, 65535, 10**6]))
    if rng.random() < 0.5:
        sums = rng.choice(rng.integers(0, m + 1, int(rng.integers(1, 8))), size)  # heavy ties
    else:
        sums = rng.integers(0, m + 1, size)
    ids = rng.permutation(1000)[:size]
    return ids, sums, m


def test_commit_sweep_matches_loop_on_random_pools():
    rng = np.random.default_rng(3)
    for _ in range(20_000):
        ids, sums, m = _random_pool(rng)
        pool = _Pool(ids, sums, m)
        size = len(ids)
        lo, hi = 0, size - 1
        if size > 1 and rng.random() < 0.3:
            # A window that earlier commits already narrowed.
            lo = int(rng.integers(0, size))
            hi = int(rng.integers(lo, size))
            pool.lo, pool.hi = lo, hi
        k_rem = int(rng.integers(0, pool.size() + 1))
        p = lo + k_rem
        choice = rng.random()
        if choice < 0.2:
            threshold = 0.0
        elif choice < 0.4 and 1 <= k_rem and p <= hi:
            threshold = float(pool.vals[p - 1] - pool.vals[p])  # exactly b - a
        else:
            threshold = float(rng.random() * 0.6)
        n_acc, n_rej = _commit_sweep(sums, pool.order[lo : hi + 1], m, k_rem, threshold)
        acc_slow, rej_slow = [], []
        k_slow = ref_commit_sweep(pool, k_rem, threshold, acc_slow, rej_slow)
        assert (k_rem - n_acc, lo + n_acc, hi - n_rej) == (k_slow, pool.lo, pool.hi)
        assert pool.ids[lo : lo + n_acc].tolist() == acc_slow
        assert pool.ids[hi - n_rej + 1 : hi + 1][::-1].tolist() == rej_slow


def test_round_loop_matches_pool_loop():
    rng = np.random.default_rng(19)
    committed = wide_rounds = 0
    for seed in range(300):
        n = int(rng.integers(2, 60))
        means = np.round(rng.random(n), int(rng.integers(0, 3)))  # ties at 0-2 decimals
        K = int(rng.integers(1, n))
        delta = float(rng.choice([0.01, 0.1, 0.5]))
        tuned = bool(rng.random() < 0.5)
        rounds = int(rng.integers(1, 10))
        seen = []
        fast_env, slow_env = _env(means, K, seed), _env(means, K, seed)
        fast = _round_loop(fast_env, K, delta, tuned, lambda r, k_rem, cost: r < rounds,
                           lambda arms, m, sums: seen.append(m))
        slow = ref_round_loop(slow_env, K, delta, tuned, lambda r, k_rem, cost: r < rounds)
        accepted, rejected, survivors, k_rem, r = fast
        assert accepted.tolist() == slow[0] and rejected.tolist() == slow[1]
        assert survivors.tolist() == slow[2].tolist() and (k_rem, r) == slow[3:]
        assert all(ids.dtype == np.intp for ids in (accepted, rejected, survivors))
        _same_env_state(fast_env, slow_env)
        committed += len(accepted) + len(rejected) > 0
        wide_rounds += sum(m >= 1 << 16 for m in seen)
    assert committed > 100 and wide_rounds > 50


# --- cb_accept_reject_topk --------------------------------------------------

def _env(means, K, seed):
    return ArmEnvironment(Instance(means, K, 0.05, 0.1), seed=seed)


CB_CASES = [
    # (means, K, budget, seed); the large budgets make arms separate, so the
    # accept and reject steps run.
    (gen_two_group(20, 4), 4, 20_000, 1),                             # decides every arm
    (gen_two_group(30, 20), 20, 40_000, 2),                           # K > n/2
    (gen_two_group(200, 20), 20, 200_000, 3),
    (np.random.default_rng(5).random(25), 5, 60_000, 4),             # budget runs out
    (np.round(np.random.default_rng(7).random(40), 1), 8, 80_000, 5),  # tied means
    (gen_two_group(200, 20), 20, 1250, 6),                            # no arm decided
    (np.full(30, 0.5), 5, 3000, 7),                                   # every mean tied
    (gen_two_group(50, 10), 10, 50, 8),                               # budget == n
    # Tied means straddle the head/tail cut on deciding steps, so the
    # rejected set depends on the sort keeping ties in id order.
    (np.round(np.random.default_rng(1).random(60), 1), 2, 15_000, 1),
]


def _check_cb(means, K, budget, seed, steps=None, picks=None):
    """Run both loops on twin environments, require the same outcome and
    the same next draw, and return the fast loop's pull requests."""
    fast_env, slow_env = PullTrace(_env(means, K, seed)), _env(means, K, seed)
    fast = cb_accept_reject_topk(fast_env, K, budget)
    slow = ref_cb_accept_reject_topk(slow_env, K, budget, steps, picks)
    assert fast.selected.tolist() == slow.selected.tolist()
    assert fast.accepted_early.tolist() == slow.accepted_early.tolist()
    assert fast.rejected.tolist() == slow.rejected.tolist()
    assert np.array_equal(fast.per_arm_pulls, slow.per_arm_pulls)
    assert (fast.total_pulls, fast.rounds_completed) == (slow.total_pulls, slow.rounds_completed)
    assert all(ids.dtype == np.intp for ids in (fast.selected, fast.accepted_early, fast.rejected))
    events = list(fast_env.events)
    _same_env_state(fast_env, slow_env)
    return events


@pytest.mark.parametrize("means, K, budget, seed", CB_CASES)
def test_cb_accept_reject_matches_loop(means, K, budget, seed):
    _check_cb(means, K, budget, seed)


def test_cb_accept_reject_matches_loop_on_shuffled_arms():
    # The step-loops benchmark shape: no arm separates within the budget, so
    # every step pulls.  Ties in the argsort and the argmin go to the lower
    # position, and each shuffle moves them to other arms.
    means = gen_two_group(200, 20)
    for seed in range(30):
        _check_cb(means[np.random.default_rng(seed).permutation(200)], 20, 1250, seed)


def test_cb_cases_reach_a_mixed_step_and_a_capped_last_chunk():
    # A decision step that both accepts and rejects, and a last pull cut to
    # the budget left (fewer pulls than the arm already had): CB_CASES reach
    # both, so no case is added for them.
    mixed, capped = [], []
    for idx, (means, K, budget, seed) in enumerate(CB_CASES):
        steps = []
        events = _check_cb(means, K, budget, seed, steps)
        if any(acc and rej for acc, rej in steps):
            mixed.append(idx)
        arms, m, _ = events[-1]
        before = sum(pulls for ids, pulls, _ in events[:-1] if arms[0] in ids)
        if len(arms) == 1 and m < before:
            capped.append(idx)
    assert mixed == [0, 1, 2]
    assert capped == [3, 4, 5, 6, 8]


# The package steps by pull-count groups: arms pulled c times share a radius,
# and a group's candidates are its nearest means on each side of the
# boundary.  Means rounded to 0.1 make ties at the boundary common.
def _tied_means(n, seed):
    return np.round(np.random.default_rng(seed).random(n), 1)


def test_cb_equal_margins_go_to_the_lower_id():
    # Distinct pull counts give distinct radii, and the means are multiples
    # of 1/c, so arms of two groups never tie in margin.  The ties that do
    # occur are across the boundary: the head's last and the tail's first
    # mean are equally far from it.  The lower id must win whichever side it
    # is on, while several groups take part in the step; and at equal
    # distance the arm with fewer pulls wins on its larger radius, even with
    # the higher id.
    picks = []
    _check_cb(_tied_means(20, 0), 7, 1000, 0, picks=picks)
    lower_side = Counter()
    by_radius = 0
    for u, counts, means, boundary, margins, x in picks:
        tied = margins == margins.min()
        assert x == u[tied].min()
        if len(np.unique(counts)) > 1 and len(np.unique(means[tied] > boundary)) == 2:
            lower_side["above" if means[u == x][0] > boundary else "at or below"] += 1
        dist = np.abs(means - boundary)
        i = np.flatnonzero(u == x)[0]
        by_radius += bool(np.any((dist == dist[i]) & (counts > counts[i]) & (u < x)))
    assert lower_side["above"] >= 5 and lower_side["at or below"] >= 5
    assert by_radius >= 20


def test_cb_boundary_on_a_mean_gives_margin_minus_the_radius():
    # The k-th and (k+1)-th means are equal, so the boundary is their mean:
    # those arms are at distance 0 and their margin is -radius.
    picks = []
    _check_cb(_tied_means(20, 1), 7, 1000, 1, picks=picks)
    on_boundary = [means[u == x][0] == boundary for u, counts, means, boundary, margins, x in picks]
    assert sum(on_boundary) >= 10


@pytest.mark.parametrize("K, seed", [(1, 2), (29, 1)])
def test_cb_extreme_k_on_tied_means(K, seed):
    # K = 1 and K = n - 1 on tied means: the head or the tail is one arm, and
    # both runs decide some arms before the budget runs out.
    steps = []
    _check_cb(_tied_means(30, seed), K, 3000, seed, steps)
    assert steps


@pytest.mark.parametrize("shuffle", range(3))
def test_cb_matches_loop_at_the_first_grid_point(shuffle):
    # README's grid: two-group means, n = 1000, K = 100, first budget 6 250.
    means = gen_two_group(1000, 100)
    _check_cb(means[np.random.default_rng(shuffle).permutation(1000)], 100, 6250, shuffle)


# --- adaptive_topk_fixed_budget --------------------------------------------

def _top_up_split(result, events, n: int, K: int, budget: int):
    """(q, extra) of the fixed-budget top-up, from the run's result and its
    traced pull events, or None when no top-up ran."""
    k_rem = K - len(result.accepted_early)
    undecided = n - len(result.accepted_early) - len(result.rejected)
    if k_rem < 1 or undecided <= k_rem:
        return None
    spent = sum(len(arms) * m for arms, m, _ in events[: result.rounds_completed])
    return divmod(budget - spent, undecided)


def test_fixed_budget_matches_tally_reference():
    rng = np.random.default_rng(17)
    below_n = even = extra = tuned_runs = 0
    for seed in range(400):
        n = int(rng.integers(2, 60))
        means = np.round(rng.random(n), int(rng.integers(0, 3)))  # ties at 0-2 decimals
        K = int(rng.integers(1, n))
        kind = rng.random()
        if kind < 0.2:
            budget = int(rng.integers(1, n))                          # below n
        elif kind < 0.3:
            budget = n * int(rng.integers(1, 4))                      # whole sweeps
        else:
            budget = int(rng.integers(n, 400 * n))                    # leaves a remainder
        delta = float(rng.choice([0.01, 0.1, 0.5]))
        tuned = bool(rng.random() < 0.5)
        if kind >= 0.6:
            # Cut the remainder off: the same rounds run, and the top-up
            # spreads the rest evenly (extra == 0).
            probe = PullTrace(_env(means, K, seed))
            res = adaptive_topk_fixed_budget(probe, K, budget, delta=delta, tuned=tuned)
            split = _top_up_split(res, probe.events, n, K, budget)
            budget -= split[1] if split else 0
        fast_env, slow_env = _env(means, K, seed), _env(means, K, seed)
        traced = PullTrace(fast_env)
        fast = adaptive_topk_fixed_budget(traced, K, budget, delta=delta, tuned=tuned)
        slow = ref_adaptive_topk_fixed_budget(slow_env, K, budget, delta=delta, tuned=tuned)
        assert fast == slow, (seed, n, K, budget, tuned)
        _same_env_state(fast_env, slow_env)
        split = _top_up_split(fast, traced.events, n, K, budget)
        below_n += budget < n
        even += budget >= n and split is not None and split[1] == 0 and fast.rounds_completed >= 1
        extra += budget >= n and split is not None and split[1] > 0
        tuned_runs += tuned
    assert below_n >= 50 and even >= 50 and extra >= 50 and 100 < tuned_runs < 300, \
        (below_n, even, extra, tuned_runs)


@pytest.mark.parametrize("budget", [3 * 10**8 + 1, 3 * 10**10 + 2, 3 * 10**16 + 1])
def test_fixed_budget_top_up_matches_tally_reference_at_huge_pull_counts(budget):
    # Survivors pulled P ~ budget / 3 times: P(P + 1) passes 2^53 (and 2^63).
    means = np.array([0.5, 0.5, 0.5000001])
    fast_env, slow_env = _env(means, 1, 0), _env(means, 1, 0)
    traced = PullTrace(fast_env)
    fast = adaptive_topk_fixed_budget(traced, 1, budget)
    slow = ref_adaptive_topk_fixed_budget(slow_env, 1, budget)
    assert fast == slow and fast.total_pulls == budget
    assert _top_up_split(fast, traced.events, 3, 1, budget)[1] > 0
    _same_env_state(fast_env, slow_env)


def test_fixed_budget_matches_tally_reference_past_one_chunk():
    # The first round pulls all 2^16 + 3 arms; the second does not fit, so
    # the survivors share the rest, drawn in chunks.
    n = (1 << 16) + 3
    means = np.round(np.random.default_rng(31).random(n), 2)
    budget = oracle_round_pulls(n, 1, 0.01, False) * n + 1_001
    fast_env, slow_env = _env(means, 100, 4), _env(means, 100, 4)
    traced = PullTrace(fast_env)
    fast = adaptive_topk_fixed_budget(traced, 100, budget)
    assert fast == ref_adaptive_topk_fixed_budget(slow_env, 100, budget)
    assert fast.rounds_completed == 1 and fast.total_pulls == budget
    assert _top_up_split(fast, traced.events, n, 100, budget)[1] > 0
    _same_env_state(fast_env, slow_env)


# --- the even split: uniform_topk and the fixed-budget top-up ---------------

def test_uniform_matches_float_reference():
    rng = np.random.default_rng(29)
    even = extra = 0
    for seed in range(300):
        n = int(rng.integers(2, 60))
        means = np.round(rng.random(n), int(rng.integers(0, 3)))  # ties at 0-2 decimals
        K = int(rng.integers(1, n))
        if rng.random() < 0.3:
            budget = n * int(rng.integers(1, 50))                    # whole sweeps
        else:
            budget = int(rng.integers(n, 50 * n))                    # leaves a remainder
        fast_env, slow_env = _env(means, K, seed), _env(means, K, seed)
        fast = uniform_topk(fast_env, K, budget)
        assert fast == ref_uniform_topk(slow_env, K, budget), (seed, n, K, budget)
        assert fast.total_pulls == budget
        _same_env_state(fast_env, slow_env)
        even += budget % n == 0
        extra += budget % n > 0
    assert even >= 50 and extra >= 150, (even, extra)


@pytest.mark.parametrize("n, budget", [
    ((1 << 16) + 3, 3 * ((1 << 16) + 3)),          # past one chunk, no remainder
    ((1 << 16) + 3, 3 * ((1 << 16) + 3) + 4_321),  # past one chunk, a remainder
    (3, 3 * 10**8),                                # P(P + 1) past 2^53, no remainder
    (3, 3 * 10**8 + 1),                            # ... and a remainder
    (3, 3 * 10**16 + 2),                           # P(P + 1) past 2^63
])
def test_uniform_matches_float_reference_at_scale(n, budget):
    # Past 2^53 two means 10^-7 apart still rank apart.
    means = np.array([0.5, 0.5, 0.5000001]) if n == 3 else \
        np.round(np.random.default_rng(n).random(n), 2)
    fast_env, slow_env = _env(means, 1, 8), _env(means, 1, 8)
    fast = uniform_topk(fast_env, 1, budget)
    assert fast == ref_uniform_topk(slow_env, 1, budget)
    assert fast.total_pulls == budget
    _same_env_state(fast_env, slow_env)


@pytest.mark.parametrize("n, P, rest", [
    (40, 0, 17),                      # P = 0, budget below n: unpulled arms count once
    (40, 0, 40 * 7 + 3),              # P = 0, a remainder
    (40, 25, 40 * 3),                 # no remainder
    (40, 25, 40 * 3 + 39),            # a remainder
    (40, 25, 0),                      # nothing left to spread
    ((1 << 16) + 3, 9, 2 * (1 << 16) + 11),  # past one chunk
    (40, 10**8, 40 * 3 + 5),          # P(P + 1) past 2^53
    (40, 2**40, 40 * 10**6 + 5),      # past 2^63
])
def test_top_up_matches_float_reference(n, P, rest):
    # The fixed-budget top-up on survivors in rank order, each with P pulls
    # and binomial sums, against float means and a stable sort.
    rng = np.random.default_rng(P + rest)
    means = np.round(rng.random(n), 2)
    arms = rng.permutation(n)[: max(2, n - 5)]
    sums = rng.binomial(P, means[arms]).astype(np.int64)
    fast_env, slow_env = _env(means, 1, 9), _env(means, 1, 9)
    fast = _spread(fast_env, arms, rest, P, sums.copy())
    assert np.array_equal(fast, ref_top_up(slow_env, arms, rest, P, sums))
    _same_env_state(fast_env, slow_env)


# --- pull accounting of the registry -----------------------------------------

# The registry entries whose pulls follow a closed-form schedule, each called
# as (env, K, epsilon, delta, budget) -> a result or the selected ids.
ACCOUNTED = {
    "adaptive": lambda env, K, eps, delta, budget: adaptive_topk(env, K, eps, delta),
    "adaptive-fb": lambda env, K, eps, delta, budget:
        adaptive_topk_fixed_budget(env, K, budget, delta=delta),
    "adaptive-fb-tuned": lambda env, K, eps, delta, budget:
        adaptive_topk_fixed_budget(env, K, budget, delta=delta, tuned=True),
    "uniform": lambda env, K, eps, delta, budget: uniform_topk(env, K, budget),
    "optmai": lambda env, K, eps, delta, budget: opt_mai(env, range(env.n), K, eps, delta),
}


def _oracle_requests(name, n, K, eps, delta, budget, events, result):
    """(ids requested, pulls per id) of each request the oracles predict.
    The rounds' sizes are read off the trace; everything else comes from the
    transcribed schedules and the even-split rule."""
    if name == "uniform":
        q, extra = divmod(budget, n)
        return [(n, q)] + ([(extra, 1)] if extra else [])
    if name == "optmai":
        return [] if eps >= 1 else [(n, oracle_opt_mai_pulls(n, eps, delta))]
    tuned = name == "adaptive-fb-tuned"
    R = result.rounds_completed
    rounds = [(len(arms), oracle_round_pulls(n, r, delta, tuned))
              for r, (arms, _, _) in enumerate(events[:R], 1)]
    if name == "adaptive":
        return rounds
    split = _top_up_split(result, events, n, K, budget)
    if split is None:
        return rounds
    undecided = n - len(result.accepted_early) - len(result.rejected)
    # The next round did not fit the rest.
    assert oracle_round_pulls(n, R + 1, delta, tuned) * undecided > budget - sum(
        size * m for size, m in rounds)
    q, extra = split
    return rounds + ([(undecided, q)] if q else []) + ([(extra, 1)] if extra else [])


def test_registry_pulls_match_the_schedule_oracles():
    assert set(ACCOUNTED) < set(ALGORITHMS)
    rng = np.random.default_rng(37)
    spreads = Counter()
    decided = Counter()
    for seed in range(120):
        n = int(rng.integers(2, 40))
        means = np.round(rng.random(n), int(rng.integers(1, 3)))
        K = int(rng.integers(1, n))
        eps = float(rng.choice([0.05, 0.2, 1.5]))
        delta = float(rng.choice([0.01, 0.1]))
        budget = int(rng.integers(1, 3_000 * n))
        for name, call in ACCOUNTED.items():
            if name == "uniform" and budget < n:
                continue
            env = _env(means, K, seed)
            traced = PullTrace(env)
            out = call(traced, K, eps, delta, budget)
            events = traced.events
            assert [(len(a), m) for a, m, _ in events] == \
                _oracle_requests(name, n, K, eps, delta, budget, events, out), (name, seed)
            per_arm = np.zeros(n, dtype=np.int64)
            for arms, m, _ in events:
                np.add.at(per_arm, arms, m)
            total = sum(len(a) * m for a, m, _ in events)
            assert env.total_pulls() == total and np.array_equal(env.pull_counts, per_arm)
            if isinstance(out, SelectionResult):
                assert out.total_pulls == total and np.array_equal(out.per_arm_pulls, per_arm)
            if name in ("adaptive-fb", "adaptive-fb-tuned", "uniform"):
                spread = name == "uniform" or _top_up_split(out, events, n, K, budget) is not None
                # A run that ends in a spread spends exactly its budget.
                assert total == budget if spread else total <= budget, (name, seed)
                spreads[name] += spread
                decided[name] += not spread
    # Both kinds of budgeted run occur: the tuned schedule decides most runs.
    assert min(spreads.values()) >= 15, spreads
    assert min(decided["adaptive-fb"], decided["adaptive-fb-tuned"]) >= 15, decided


# --- the experiment harness ------------------------------------------------

def ref_trial_outcome(task):
    means, K, epsilon, delta, algo_name, algo_fn, budget, trial, base_seed = task
    shuffle_ss, env_ss = np.random.SeedSequence((base_seed, budget, trial)).spawn(2)
    env, _, regret = setup_trial(means, K, epsilon, delta, shuffle_ss, env_ss)
    selected = algo_fn(env, K, epsilon, delta, budget)
    try:
        score = regret(selected)
    except ValueError as exc:
        raise ValueError(f"{algo_name} returned a bad selection: {exc}") from None
    return score, env.total_pulls()


def ref_run_experiment(config, algorithms=None) -> ExperimentReport:
    # One process: the report is the same for every worker count.
    registry = {name: select for name, (select, _) in ALGORITHMS.items()}
    registry.update(algorithms or {})
    means = resolve_means(config)
    cells = [(algo_name, budget, trial)
             for algo_name in config.algorithms
             for budget in config.budgets
             for trial in range(config.trials)]
    tasks = [(means, config.k, config.epsilon, config.delta, algo_name, registry[algo_name],
              budget, trial, config.base_seed) for algo_name, budget, trial in cells]
    outcomes = dict(zip(cells, map(ref_trial_outcome, tasks)))
    rows = []
    for algo_name in config.algorithms:
        for budget in config.budgets:
            regrets = np.array([outcomes[(algo_name, budget, t)][0] for t in range(config.trials)])
            pulls = np.array([outcomes[(algo_name, budget, t)][1] for t in range(config.trials)])
            failures = int(np.sum(regrets > config.epsilon))
            rows.append({
                "algorithm": algo_name,
                "budget": int(budget),
                "trials": config.trials,
                "failures": failures,
                "failure_probability": failures / config.trials,
                "mean_regret": float(np.mean(regrets)),
                "regret_std": float(np.std(regrets)),
                "mean_total_pulls": float(np.mean(pulls)),
            })
    cfg = asdict(config)
    del cfg["workers"]
    return ExperimentReport(rows=rows, config=cfg)


def _pull_once(env, K, epsilon, delta, budget):
    """An injected algorithm: one pull of every arm, the K best as a set of
    Python ints, the form the benchmark's wrappers return."""
    sums = env.pull_many(np.arange(env.n), 1)
    return frozenset(np.argsort(-sums, kind="stable")[:K].tolist())


def _harness_configs(tmp_path):
    tied = tmp_path / "tied.txt"  # the top-6 boundary cuts a run of ten equal means
    tied.write_text("\n".join(["0.8"] * 4 + ["0.6"] * 10 + ["0.3"] * 16) + "\n")
    common = dict(k=6, n=30, epsilon=0.1, delta=0.1, budgets=(60, 300), trials=3)
    return [ExperimentConfig(instance="two-group", base_seed=1, **common),
            ExperimentConfig(instance="uniform", base_seed=2, **common),
            ExperimentConfig(instance="synthetic", p=0.5, base_seed=3, **common),
            ExperimentConfig(instance=str(tied), base_seed=4, **common)]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_experiment_matches_the_per_cell_harness(tmp_path, monkeypatch, workers):
    # Seeds derived once per cell, shuffled instances held for later runs and
    # the top-K sum once per experiment must write the reports of a fresh
    # set-up and score per trial, byte for byte.  Each config runs with every
    # cell held and with the byte cap cut to three of its six cells, so the
    # other three are rebuilt for each run.
    injected = {"pull-once": _pull_once} if workers == 1 else {}  # a lambda-free pool
    builds = []
    shuffled_instance = bench_module._shuffled_instance
    monkeypatch.setattr(bench_module, "_shuffled_instance",
                        lambda *args: builds.append(args[4]) or shuffled_instance(*args))
    for config in _harness_configs(tmp_path):
        config = replace(config, algorithms=tuple(ALGORITHMS) + tuple(injected), workers=workers)
        slow = ref_run_experiment(config, algorithms=injected)
        cells, runs = len(config.budgets) * config.trials, len(config.algorithms)
        for held in (cells, 3):
            monkeypatch.setattr(bench_module, "_CELL_BYTES", 8 * config.n * held)
            builds.clear()
            fast = run_experiment(config, algorithms=injected or None)
            assert fast.to_csv() == slow.to_csv(), (config.instance, held)
            assert fast.to_json() == slow.to_json(), (config.instance, held)
            if workers == 1:  # the pool's workers build in their own processes
                assert len(builds) == cells + (runs - 1) * (cells - held), (config.instance, held)


@pytest.mark.parametrize("selection", [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 4], [-1, 0, 1, 2, 3, 4],
                                       [0, 1, 2, 3, 4, 30], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]],
                         ids=["too-short", "duplicate", "negative", "past-the-end", "float-ids"])
def test_bad_selection_is_refused_as_the_per_cell_harness_refuses(tmp_path, selection):
    config = replace(_harness_configs(tmp_path)[0], algorithms=("bad-pick",), trials=1)
    bad = {"bad-pick": lambda env, K, epsilon, delta, budget: selection}
    with pytest.raises(ValueError, match="^bad-pick returned a bad selection: ") as fast:
        run_experiment(config, algorithms=bad)
    with pytest.raises(ValueError) as slow:
        ref_run_experiment(config, algorithms=bad)
    assert str(fast.value) == str(slow.value)


# --- the improved subroutines ----------------------------------------------

def _log_uniform(rng, lo: float, hi: float) -> float:
    # Precisions spread evenly in log scale, so the per-arm pull counts fall
    # on both sides of 2^16, and _order_by_sums ranks keys of every width.
    return lo * (hi / lo) ** rng.random()


def _halving_case(rng):
    n = int(rng.integers(2, 60))
    means = np.round(rng.random(n), int(rng.integers(0, 3)))  # ties at 0-2 decimals
    S = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    tau, phi, delta = rng.uniform(0.05, 0.9), _log_uniform(rng, 0.02, 0.95), rng.uniform(0.05, 0.9)
    return means, S, tau, phi, delta


def _same_env_state(a, b):
    assert np.array_equal(a.pull_counts, b.pull_counts)
    assert a.pull_many(np.arange(a.n), 7).tolist() == b.pull_many(np.arange(b.n), 7).tolist()


def test_halving_matches_loop():
    rng = np.random.default_rng(11)
    sorts = {False: 0, True: 0}  # sorting rounds by m >= 2^16
    for seed in range(300):
        means, S, tau, phi, delta = _halving_case(rng)
        arms = np.sort(S)
        k_target = int(rng.integers(1, len(arms) + 1))
        for size, m in oracle_halving_rounds(len(arms), k_target, tau, phi, delta):
            sorts[m >= 1 << 16] += size > k_target
        fast_env, slow_env = _env(means, 1, seed), _env(means, 1, seed)
        kept, kept_means, dropped = _halving(fast_env, arms, k_target, tau, phi, delta)
        R, R_means, drops, ref_pulls = ref_halving(slow_env, arms, k_target, tau, phi, delta)
        assert kept.tolist() == R.tolist()
        assert kept_means.tolist() == R_means.tolist()
        # Round by round, the same arms are dropped in the same order.
        assert [d.tolist() for d in dropped] == [d.tolist() for d in drops]
        # The kept and dropped ids cover the input exactly once.
        assert sorted(np.concatenate([kept, *dropped]).tolist()) == arms.tolist()
        # The schedule: an arm dropped in round i was pulled in rounds 0 to
        # i, a survivor in every round, and every sorting round drops arms.
        schedule = oracle_halving_rounds(len(arms), k_target, tau, phi, delta)
        pulled_by = np.cumsum([m for _, m in schedule])
        expected = np.zeros(fast_env.n, dtype=np.int64)
        expected[arms] = pulled_by[-1]
        for i, d in enumerate(dropped):
            expected[d] = pulled_by[i]
        assert fast_env.pull_counts.tolist() == expected.tolist()
        assert len(dropped) == sum(size > k_target for size, _ in schedule)
        assert fast_env.total_pulls() == ref_pulls
        _same_env_state(fast_env, slow_env)
    assert sorts[False] >= 100 and sorts[True] >= 100


def test_eps_split_matches_loop():
    rng = np.random.default_rng(12)
    topped_up = 0
    for seed in range(300):
        means, S, tau, phi, delta = _halving_case(rng)
        K = int(rng.integers(1, len(S) + 1))
        fast_env, slow_env = _env(means, 1, seed), _env(means, 1, seed)
        fast = eps_split(fast_env, S, K, tau, phi, delta)  # S unsorted
        slow = ref_eps_split(slow_env, set(S.tolist()), K, tau, phi, delta)
        assert fast.tolist() == sorted(slow)
        _same_env_state(fast_env, slow_env)
        topped_up += _round_half_up((1.0 - tau) * K) < K < len(S)
    assert topped_up > 50


def test_est_kth_arm_matches_float_sort():
    rng = np.random.default_rng(13)
    for seed in range(300):
        means, S, tau, phi, delta = _halving_case(rng)
        K = int(rng.integers(1, len(S) + 1))
        fast_env, slow_env = _env(means, 1, seed), _env(means, 1, seed)
        fast = est_kth_arm(fast_env, S, K, tau, phi, delta)
        slow = ref_est_kth_arm(slow_env, S, K, tau, phi, delta)
        assert fast == slow
        _same_env_state(fast_env, slow_env)
        assert fast_env.spawn_rng().random() == slow_env.spawn_rng().random()


@pytest.mark.parametrize("reverse", [False, True], ids=["elim", "reverse_elim"])
def test_elim_matches_float_sort(reverse):
    rng = np.random.default_rng(14 + reverse)
    select = reverse_elim if reverse else elim
    big_m = 0
    for seed in range(300):
        means, S, _, _, delta = _halving_case(rng)
        gamma = rng.uniform(0.01, 0.9)
        phi = _log_uniform(rng, 0.0002, 0.5)
        fast_env, slow_env = _env(means, 1, seed), _env(means, 1, seed)
        fast = select(fast_env, S, 1, gamma, phi, delta)
        slow = ref_elim_core(slow_env, S, gamma, phi, delta, reverse)
        assert fast.tolist() == slow.tolist() and fast.dtype == np.intp
        _same_env_state(fast_env, slow_env)
        big_m += oracle_elim_pulls(phi, gamma, delta) >= 1 << 16
    assert 100 < big_m < 200, big_m


def test_opt_mai_matches_float_sort():
    rng = np.random.default_rng(16)
    big_m = 0
    for seed in range(300):
        means, S, _, _, delta = _halving_case(rng)
        K = int(rng.integers(0, len(S) + 1))
        epsilon = _log_uniform(rng, 0.0002, 0.5)
        fast_env, slow_env = _env(means, 1, seed), _env(means, 1, seed)
        fast = opt_mai(fast_env, S, K, epsilon, delta)
        slow = ref_opt_mai(slow_env, S, K, epsilon, delta)
        assert fast.tolist() == slow.tolist() and fast.dtype == np.intp
        _same_env_state(fast_env, slow_env)
        big_m += 0 < K < len(S) and oracle_opt_mai_pulls(len(S), epsilon, delta) >= 1 << 16
    assert 100 < big_m < 200, big_m


# --- improved_topk's probe loop against the eager loop ----------------------

def _stubbed_subroutines(monkeypatch, log):
    """Replaces ``est_kth_arm`` by a stub that pulls nothing and returns a
    theta in (0, 1) fixed by (S, k, phi), and logs every subroutine call as
    (name, S, k, ...) with the stub's theta last.  The other four still pull."""
    def stub(env, S, K, tau, phi, delta, rng=None):
        S = np.asarray(S, dtype=np.int64)
        key = hashlib.sha256(S.tobytes() + f"{K} {phi.hex()}".encode()).digest()
        # A k-th largest mean falls with k; the hash adds noise of up to 0.2.
        theta = 0.8 * (1.0 - (K - 0.5) / len(S)) + 0.2 * int.from_bytes(key[:8], "little") / 2.0**64
        log.append(("est_kth_arm", S.tolist(), K, phi, theta))
        return int(S[0]), theta

    def spy(name, fn):
        def call(env, S, K, *args):
            log.append((name, np.asarray(S).tolist(), K) + args)
            return fn(env, S, K, *args)
        return call

    monkeypatch.setattr(improved_module, "est_kth_arm", stub)
    for name in ("eps_split", "elim", "reverse_elim", "opt_mai"):
        monkeypatch.setattr(improved_module, name, spy(name, getattr(improved_module, name)))


def _read_estimates(eager_log):
    """The eager loop's log without the estimates its rule does not read:
    every probe at phi = 1/2, the mid-tail estimate after a wide gap, and
    the mid-head estimate unless the tail gap shows and k_rem > |S| / 2.
    A pass's k_rem is the k of the next call that is not a probe."""
    kept, i = [], 0
    while i < len(eager_log):
        if eager_log[i][0] != "est_kth_arm":
            kept.append(eager_log[i])
            i += 1
            continue
        hi, lo, tail, head = eager_log[i:i + 4]
        assert {hi[0], lo[0], tail[0], head[0]} == {"est_kth_arm"}
        k_rem = next(call[2] for call in eager_log[i + 4:] if call[0] != "est_kth_arm")
        phi = hi[3]
        if phi != 0.5:
            kept += [hi, lo]
            if not lo[4] - hi[4] > 3.0 * phi:
                kept.append(tail)
                if hi[4] - tail[4] > 3.0 * phi and k_rem > len(hi[1]) / 2.0:
                    kept.append(head)
        i += 4
    return kept


def _probe_pass_sizes(log):
    """The number of estimates each probe pass drew; a pass probes one
    (S, phi)."""
    passes = [(tuple(call[1]), call[3]) for call in log if call[0] == "est_kth_arm"]
    return Counter(Counter(passes).values())


def test_improved_topk_matches_eager_probe_loop(monkeypatch):
    log = []
    _stubbed_subroutines(monkeypatch, log)
    rng = np.random.default_rng(17)
    exits, pass_sizes, complement, eager_calls, lazy_calls = Counter(), Counter(), 0, 0, 0
    for seed in range(300):
        n = int(rng.integers(2, 60))
        means = np.round(rng.random(n), int(rng.integers(1, 3)))
        # Half the cases put K within a few arms of n/2, where a round or
        # two of elim leaves k_rem > |S| / 2 and the mid-head probe runs.
        K = int(rng.integers(1, n)) if seed % 2 else min(max(n // 2 + int(rng.integers(-3, 4)), 1), n - 1)
        epsilon, delta = _log_uniform(rng, 0.005, 0.9), rng.uniform(0.01, 0.5)
        eager_env, lazy_env = _env(means, 1, seed), _env(means, 1, seed)
        eager = ref_improved_topk(eager_env, K, epsilon, delta)
        eager_log = log[:]
        log.clear()
        lazy = improved_topk(lazy_env, K, epsilon, delta)
        lazy_log = log[:]
        log.clear()
        assert lazy == eager, (n, K, epsilon, delta)
        _same_env_state(lazy_env, eager_env)
        assert lazy_log == _read_estimates(eager_log)
        assert all(call[3] <= 0.25 for call in lazy_log if call[0] == "est_kth_arm")
        complement += 2 * K > n
        exits.update({name for name, *_ in lazy_log} - {"est_kth_arm"})
        pass_sizes += _probe_pass_sizes(lazy_log)
        eager_calls += sum(call[0] == "est_kth_arm" for call in eager_log)
        lazy_calls += sum(call[0] == "est_kth_arm" for call in lazy_log)
    # Every exit and both elimination passes are reached, on both sides of
    # n/2, and passes draw two, three and four estimates.
    assert complement > 50 and min(exits[name] for name in
                                   ("eps_split", "elim", "reverse_elim", "opt_mai")) > 20, exits
    assert sorted(pass_sizes) == [2, 3, 4] and min(pass_sizes.values()) > 20, pass_sizes
    assert lazy_calls < 0.8 * eager_calls


@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4), st.integers(1, 10**6),
       st.integers(1, 10**6), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_eager_rule_never_fires_at_phi_one_half(thetas, k_rem, size, epsilon):
    theta_K_plus, theta_K_minus, theta_plus, theta_minus = thetas
    phi = 0.5
    wide_gap = theta_K_minus - theta_K_plus > 3.0 * phi
    tail_gap = theta_K_plus - theta_plus > 3.0 * phi
    head_gap = theta_minus - theta_K_minus > 3.0 * phi
    assert not (wide_gap or tail_gap and (k_rem <= size / 2.0 or head_gap))
    # Nor can the first pass's opt_mai exit, where k_rem = K.
    assert not 10.0 * k_rem * phi < k_rem * epsilon


# --- hardness and t_of ------------------------------------------------------

def _hardness_case(rng):
    n = int(rng.integers(2, 80))
    kind = rng.integers(3)
    if kind == 0:
        means = rng.random(n)
    elif kind == 1:
        means = rng.integers(0, int(rng.integers(1, 5)) + 1, n) / 4.0  # heavy ties
    else:
        means = np.linspace(0.9, 0.1, n) ** float(rng.uniform(0.5, 3))
    means = np.sort(means)[::-1]
    K = int(rng.integers(1, n))
    # Large tolerances push K + t + 1 past n, so the tail index clamps.
    epsilon = float(10.0 ** rng.uniform(-4, 1))
    return means, K, epsilon


def test_hardness_and_t_of_match_loop():
    rng = np.random.default_rng(13)
    clamped = ties = 0
    for _ in range(3_000):
        means, K, epsilon = _hardness_case(rng)
        fast, slow = hardness(means, K, epsilon), ref_hardness(means, K, epsilon)
        assert np.array_equal(fast.gaps, slow.gaps)
        assert (fast.t, fast.psi_t, fast.psi_t_eps, fast.index_clamped) == \
            (slow.t, slow.psi_t, slow.psi_t_eps, slow.index_clamped)
        assert fast.h_t_eps == slow.h_t_eps and fast.h_0_eps == slow.h_0_eps
        assert t_of(means, K, epsilon) == ref_t_of(means, K, epsilon) == slow.t
        assert psi_quantities(means, K, epsilon) == (slow.psi_t, slow.psi_t_eps)
        clamped += slow.index_clamped
        ties += bool(np.any(slow.gaps == 0))
    assert clamped > 100 and ties > 100


def test_hardness_matches_loop_at_scale():
    means = np.sort(np.random.default_rng(14).random(100_000))[::-1]
    fast, slow = hardness(means, 10_000, 0.001), ref_hardness(means, 10_000, 0.001)
    assert fast.t == slow.t
    assert (fast.h_t_eps, fast.h_0_eps) == (slow.h_t_eps, slow.h_0_eps)


def test_t_of_zero_tolerance_matches_loop():
    means = np.sort(np.random.default_rng(15).integers(0, 3, 50) / 2.0)[::-1]
    for K in range(1, 50):
        assert t_of(means, K, 0.0) == ref_t_of(means, K, 0.0)


# --- _coin_threshold --------------------------------------------------------

def _coin_cases():
    for m in range(1, 400):
        for eta in (0.001, 0.01, 0.1, 0.2, 0.45):
            yield m, eta
    for m in (10**4, 10**5):
        yield m, 0.1
    rng = np.random.default_rng(18)
    for _ in range(300):
        yield int(rng.integers(1, 5_000)), float(rng.uniform(1e-4, 0.4999))


_U = 2.0**-53  # unit roundoff of float64


def _logpmf_bound(m: int, p: float) -> float:
    """Bound on |_binomial_logpmf(m, p) - ref_binomial_logpmf(m, p)|, to first
    order in the unit roundoff u, with log and gammaln within 2 ulp (4u
    relative).

    Numpy form: log C(m, k), k <= h = m // 2, is a running sum of k terms
    log((m - j + 1) / j) >= 0.  Each term carries u from the division and 4u
    times itself from the log; summing k non-negative terms left to right
    adds at most (k - 1) u times the total.  So the error is at most
    u (h + (h + 3) S), S = log C(m, h) <= m log 2 the largest total.
    gammaln form: three values of at most G = lgamma(m + 1), 4u G each, and
    two subtractions, u G each: 14 u G.
    Each form then adds the same k log p and (m - k) log1p(-p) in two
    roundings of at most u (S + m L), L the larger of the two logs: four in
    all.
    """
    h = m // 2
    S = math.lgamma(m + 1) - math.lgamma(h + 1) - math.lgamma(m - h + 1)
    G = math.lgamma(m + 1)
    L = max(-math.log(p), -math.log1p(-p))
    return _U * (h + (h + 3) * S + 14 * G + 4 * (S + m * L))


def test_binomial_logpmf_matches_three_gammaln_calls():
    for m in (1, 2, 1000, 10**5):
        logc = _log_choose(m)
        assert np.array_equal(logc, logc[::-1]), m  # C(m, k) = C(m, m - k) exactly
        for p in (0.4, 0.5 - 1e-4):
            err = np.abs(_binomial_logpmf(m, p) - ref_binomial_logpmf(m, p)).max()
            assert err <= _logpmf_bound(m, p), (m, p, err)


def test_coin_log_error_matches_scipy_reference():
    # Moving every tail term by at most B moves their log-sum-exp by at most
    # B.  Each log-sum-exp of n terms then rounds by at most
    # u (3n + 4 + |result|): n exps within 4u + u |shift| relative (the
    # shift's weight e^shift |shift| is at most 1/e), their sum within
    # (n - 1) u, the log within 4u log n <= 4u n / e, and the final add.
    # The two forms each round so.
    for m, eta in _coin_cases():
        t, _ = _coin_threshold(m, eta)
        ref_t, ref_err = ref_optimal_coin_log_error(m, eta)
        assert t == ref_t, (m, eta)
        err = optimal_coin_log_error(m, eta)
        if ref_err == -math.inf:
            assert err == -math.inf, (m, eta)
            continue
        n = m - math.floor(0.5 * m + t)
        bound = _logpmf_bound(m, 0.5 - eta) + 2 * _U * (3 * n + 4 + abs(ref_err))
        assert abs(err - ref_err) <= bound, (m, eta, err, ref_err)


def test_coin_threshold_matches_scan():
    # A window mass within rounding of the cap could tip t either way; no case
    # here lies there.  test_threshold_is_maximal checks t with math.fsum.
    for m, eta in _coin_cases():
        t, logpmf = _coin_threshold(m, eta)
        ref_t, ref_logpmf = ref_coin_threshold(m, eta)
        assert t == ref_t, (m, eta)
        assert np.array_equal(logpmf, ref_logpmf)
