"""Differential tests: each vectorised, closed-form or integer-keyed hot path
against the per-element loop or the float form it replaced.

The reference functions below are the earlier implementations, kept
verbatim apart from names and docstrings; they live here and nowhere in the
package.  Every comparison is exact: the fast paths do the same float
operations, so they must agree bit for bit, not within a tolerance.
"""

import math

import numpy as np
import pytest

from topk_bandit.adaptive import (
    SelectionResult, SelectionRun, _commit_sweep, _order_by_sums, _SortedPool,
)
from topk_bandit.baselines import _CB_C, _check_budget, cb_accept_reject_topk
from topk_bandit.env import ArmEnvironment, EmpiricalState, Instance
from topk_bandit.hardness import (
    HardnessReport, _require_k, _require_sorted, gaps, hardness, psi_quantities, t_of,
)
from topk_bandit.improved import (
    _clamp, _halving, _halving_rounds, _round_half_up, eps_split,
)
from topk_bandit.instances import gen_two_group


# --- references: the loop implementations -----------------------------------

def ref_order_by_sums(sums: np.ndarray, m: int) -> np.ndarray:
    return np.argsort(-(sums / m), kind="stable")


def ref_add_many(state, arms: np.ndarray, m: int, reward_sums: np.ndarray) -> None:
    np.add.at(state.counts, arms, m)
    np.add.at(state.sums, arms, reward_sums)


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


def ref_cb_accept_reject_topk(env, K: int, budget: int) -> SelectionResult:
    run = SelectionRun(env, K)
    _check_budget(env, budget)
    if run.trivial():
        return run.result(range(K), 1)

    n = env.n
    state = EmpiricalState.zeros(n)
    arms = np.arange(n)
    state.add_many(arms, 1, env.pull_many(arms, 1))
    remaining = budget - n

    accepted: set = set()
    rejected: set = set()
    undecided = list(range(n))

    while remaining > 0:
        k_rem = K - len(accepted)
        if k_rem == 0 or len(undecided) <= k_rem:
            break
        u = np.asarray(undecided)
        means = state.sums[u] / state.counts[u]
        T = max(env.total_pulls(), 2)
        radius = np.sqrt(np.log(_CB_C * n * T * T) / (2.0 * state.counts[u]))

        order = np.argsort(-means, kind="stable")
        boundary = 0.5 * (means[order[k_rem - 1]] + means[order[k_rem]])

        # Decide whatever has already separated from the boundary set.
        head = order[:k_rem]
        tail = order[k_rem:]
        lcb = means - radius
        ucb = means + radius
        new_accept = [int(u[i]) for i in head if lcb[i] > ucb[tail].max()]
        new_reject = [int(u[i]) for i in tail if ucb[i] < lcb[head].min()]
        if new_accept or new_reject:
            accepted.update(new_accept)
            rejected.update(new_reject)
            done = set(new_accept) | set(new_reject)
            undecided = [a for a in undecided if a not in done]
            continue

        margins = np.abs(means - boundary) - radius
        x = int(u[int(np.argmin(margins))])
        chunk = int(min(state.counts[x], remaining))
        state.add(x, chunk, env.pull_batch(x, chunk))
        remaining -= chunk

    k_rem = K - len(accepted)
    if k_rem > 0:
        u = np.asarray(undecided)
        means = state.sums[u] / state.counts[u]
        order = np.argsort(-means, kind="stable")
        final = set(accepted) | set(int(u[i]) for i in order[:k_rem])
    else:
        final = set(accepted)
    return run.result(sorted(final), 1, sorted(accepted), sorted(rejected))


def ref_halving(env, arms: np.ndarray, k_target: int, tau: float, phi: float, delta: float):
    R = np.asarray(arms, dtype=np.intp)
    last_seen = {}
    pulls = 0
    for size, m in _halving_rounds(len(R), k_target, tau, phi, delta):
        means = env.pull_many(R, m) / m
        pulls += m * size
        for a, v in zip(R, means):
            last_seen[int(a)] = float(v)
        if size > k_target:
            keep = np.argsort(-means, kind="stable")[: max(k_target, math.ceil(size / 2))]
            R, means = R[keep], means[keep]
    return R, means, last_seen, pulls


def ref_eps_split(env, S, K: int, tau: float, phi: float, delta: float) -> set:
    arms = np.asarray(sorted(int(a) for a in S), dtype=np.intp)
    if not 1 <= K <= len(arms):
        raise ValueError(f"need 1 <= K <= |S|; got K={K}, |S|={len(arms)}")
    if K == len(arms):
        return set(int(a) for a in arms)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    k_target = _clamp(_round_half_up((1.0 - tau) * K), 1, K)
    R, _, last_seen, _ = ref_halving(env, arms, k_target, tau, phi, delta)
    chosen = [int(a) for a in R]
    if len(chosen) < K:
        kept = set(chosen)
        rest = [a for a in arms if int(a) not in kept]
        # "any arms" would do for the contract; the freshest means are free.
        rest.sort(key=lambda a: (-last_seen.get(int(a), -1.0), int(a)))
        chosen.extend(int(a) for a in rest[: K - len(chosen)])
    return set(chosen)


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
    _require_k(means, K)
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
    _require_k(means, K)
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


def _flat(chunks) -> list:
    return [int(i) for chunk in chunks for i in chunk]


# --- _order_by_sums and EmpiricalState.add_many ----------------------------

ORDER_MS = [1, 2, 77, 65535, 65536, 10**6]  # the last two take the float sort


def _sums_cases(rng, m: int):
    for size in (1, 2, 37, 2_000):
        yield rng.integers(0, m + 1, size)                            # uniform
        yield rng.choice(rng.integers(0, m + 1, 3), size)             # heavy ties
        yield np.full(size, int(rng.integers(0, m + 1)))              # all equal
        yield rng.choice([0, m], size)                                # 0 and m only
        yield m - rng.binomial(m, rng.random(size))                   # complement sums
        yield rng.integers(0, m + 1, size).astype(np.int32)
        yield rng.integers(0, m + 1, size).astype(np.uint64)


def _out_of_range_cases(rng, m: int):
    for size in (1, 2, 37, 2_000):
        for bad in (-1, -1 - int(rng.integers(70_000)), m + 1, m + 1 + int(rng.integers(70_000))):
            sums = rng.integers(0, m + 1, size)
            sums[rng.integers(size)] = bad
            yield sums
        # Duck-typed float sums, in range: halves must not truncate into ties.
        yield rng.integers(0, m, size) + rng.choice([0.0, 0.5], size)
        yield rng.integers(0, m + 1, size).astype(np.float64)


@pytest.mark.parametrize("m", ORDER_MS)
def test_order_by_sums_matches_float_sort(m):
    rng = np.random.default_rng(m)
    cases = list(_sums_cases(rng, m)) + list(_out_of_range_cases(rng, m))
    for sums in cases:
        fast = _order_by_sums(sums, m)
        assert np.array_equal(fast, ref_order_by_sums(sums, m)), (m, sums.dtype, sums[:10])
    assert len(_order_by_sums(np.zeros(0, dtype=np.int64), m)) == 0


def test_add_many_matches_mixed_dtype_reference():
    rng = np.random.default_rng(16)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        fast, slow = EmpiricalState.zeros(n), EmpiricalState.zeros(n)
        for _ in range(int(rng.integers(1, 5))):
            arms = rng.integers(0, n, int(rng.integers(1, 3 * n)))    # duplicate arms
            m = int(rng.choice([1, 7, 10**6, 2**53 + 1]))
            reward_sums = rng.integers(0, m, len(arms), endpoint=True)
            fast.add_many(arms, m, reward_sums)
            ref_add_many(slow, arms, m, reward_sums)
        assert fast.counts.dtype == slow.counts.dtype and np.array_equal(fast.counts, slow.counts)
        assert fast.sums.dtype == slow.sums.dtype and np.array_equal(fast.sums, slow.sums)


# --- _commit_sweep ----------------------------------------------------------

def _random_pool(rng):
    # Integer reward sums of m pulls each; the large m take the float sort
    # in _SortedPool, the rest the integer key.
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
        fast, slow = _SortedPool(ids, sums, m), _SortedPool(ids, sums, m)
        order = ref_order_by_sums(sums, m)  # the pool of float means it replaced
        assert np.array_equal(fast.ids, ids[order]) and np.array_equal(fast.vals, (sums / m)[order])
        size = len(ids)
        if size > 1 and rng.random() < 0.3:
            # A window that earlier commits already narrowed.
            lo = int(rng.integers(0, size))
            hi = int(rng.integers(lo, size))
            fast.lo = slow.lo = lo
            fast.hi = slow.hi = hi
        k_rem = int(rng.integers(0, fast.size() + 1))
        p = fast.lo + k_rem
        choice = rng.random()
        if choice < 0.2:
            threshold = 0.0
        elif choice < 0.4 and 1 <= k_rem and p <= fast.hi:
            threshold = float(fast.vals[p - 1] - fast.vals[p])  # exactly b - a
        else:
            threshold = float(rng.random() * 0.6)
        acc_fast, rej_fast, acc_slow, rej_slow = [], [], [], []
        k_fast = _commit_sweep(fast, k_rem, threshold, acc_fast, rej_fast)
        k_slow = ref_commit_sweep(slow, k_rem, threshold, acc_slow, rej_slow)
        assert (k_fast, fast.lo, fast.hi) == (k_slow, slow.lo, slow.hi)
        assert _flat(acc_fast) == acc_slow
        assert _flat(rej_fast) == rej_slow


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
]


@pytest.mark.parametrize("means, K, budget, seed", CB_CASES)
def test_cb_accept_reject_matches_loop(means, K, budget, seed):
    fast_env, slow_env = _env(means, K, seed), _env(means, K, seed)
    fast = cb_accept_reject_topk(fast_env, K, budget)
    slow = ref_cb_accept_reject_topk(slow_env, K, budget)
    assert fast.selected.tolist() == slow.selected.tolist()
    assert fast.accepted_early.tolist() == slow.accepted_early.tolist()
    assert fast.rejected.tolist() == slow.rejected.tolist()
    assert np.array_equal(fast.per_arm_pulls, slow.per_arm_pulls)
    assert (fast.total_pulls, fast.rounds_completed) == (slow.total_pulls, slow.rounds_completed)
    assert all(ids.dtype == np.intp for ids in (fast.selected, fast.accepted_early, fast.rejected))


# --- _halving and eps_split -------------------------------------------------

def _halving_case(rng):
    n = int(rng.integers(2, 60))
    means = np.round(rng.random(n), int(rng.integers(0, 3)))  # ties at 0-2 decimals
    S = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    tau, phi, delta = rng.uniform(0.05, 0.9), rng.uniform(0.3, 0.95), rng.uniform(0.05, 0.9)
    return means, S, tau, phi, delta


def _same_env_state(a, b):
    assert np.array_equal(a.pull_counts, b.pull_counts)
    assert a.pull_many(np.arange(a.n), 7).tolist() == b.pull_many(np.arange(b.n), 7).tolist()


def test_halving_matches_loop():
    rng = np.random.default_rng(11)
    for seed in range(300):
        means, S, tau, phi, delta = _halving_case(rng)
        arms = np.sort(S)
        k_target = int(rng.integers(1, len(arms) + 1))
        fast_env, slow_env = _env(means, 1, seed), _env(means, 1, seed)
        kept, kept_means, last_seen = _halving(fast_env, arms, k_target, tau, phi, delta)
        R, R_means, seen, ref_pulls = ref_halving(slow_env, arms, k_target, tau, phi, delta)
        assert arms[kept].tolist() == R.tolist()
        assert kept_means.tolist() == R_means.tolist()
        assert dict(zip(arms.tolist(), last_seen.tolist())) == seen
        assert fast_env.total_pulls() == ref_pulls
        _same_env_state(fast_env, slow_env)


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
