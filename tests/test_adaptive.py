import math

import numpy as np
import pytest

from conftest import shuffled_trial, success_rate
from topk_bandit.adaptive import SelectionResult, adaptive_topk, adaptive_topk_fixed_budget
from topk_bandit.baselines import cb_accept_reject_topk, uniform_topk
from topk_bandit.bench import ALGORITHMS
from topk_bandit.env import ArmEnvironment, Instance, PullTrace
from topk_bandit.improved import improved_topk, opt_mai
from topk_bandit.instances import gen_two_group


def make_env(means, seed=0, K=1, eps=0.1, delta=0.1):
    return ArmEnvironment(Instance(np.asarray(means, float), K, eps, delta), seed=seed)


class TestDegenerateCases:
    def test_k_equals_n_no_pulls(self):
        env = make_env([0.2, 0.9, 0.4], K=3)
        res = adaptive_topk(env, 3, 0.05, 0.1)
        assert res.selected.tolist() == [0, 1, 2]
        assert res.total_pulls == 0

    def test_k_zero_no_pulls(self):
        env = make_env([0.2, 0.9])
        res = adaptive_topk(env, 0, 0.05, 0.1)
        assert res.selected.tolist() == [] and res.total_pulls == 0

    @pytest.mark.parametrize("select", [
        lambda env, K: adaptive_topk_fixed_budget(env, K, 100),
        lambda env, K: uniform_topk(env, K, 100),
        lambda env, K: cb_accept_reject_topk(env, K, 100),
    ], ids=["adaptive-fb", "uniform", "cb-ar"])
    @pytest.mark.parametrize("K", [0, 3])
    def test_budgeted_selectors_take_k_zero_or_n_without_pulls(self, select, K):
        env = make_env([0.2, 0.9, 0.4])
        res = select(env, K)
        assert res.selected.tolist() == list(range(K))
        assert res.total_pulls == 0 and env.total_pulls() == 0

    def test_vacuous_tolerance_no_pulls(self):
        env = make_env([0.2, 0.9, 0.4], K=2)
        res = adaptive_topk(env, 2, 1.0, 0.1)
        assert len(res.selected) == 2 and res.total_pulls == 0

    def test_invalid_parameters(self):
        env = make_env([0.2, 0.9])
        with pytest.raises(ValueError):
            adaptive_topk(env, 3, 0.1, 0.1)
        with pytest.raises(ValueError):
            adaptive_topk(env, 1, 0.0, 0.1)
        with pytest.raises(ValueError):
            adaptive_topk(env, 1, 0.1, 1.5)


def test_result_invariants():
    env, _, _ = shuffled_trial(gen_two_group(12, 4), 4, 0.05, 0.1, (3, 0))
    res = adaptive_topk(env, 4, 0.05, 0.1)
    assert len(res.selected) == 4
    assert np.isin(res.accepted_early, res.selected).all()
    assert not np.isin(res.rejected, res.selected).any()
    assert res.total_pulls == int(res.per_arm_pulls.sum())
    assert np.array_equal(res.per_arm_pulls, env.pull_counts)


def test_pac_contract_two_group():
    rate = success_rate(gen_two_group(20, 5), 5, 0.05, 0.1, 60,
                        lambda env, _: adaptive_topk(env, 5, 0.05, 0.1).selected, seed0=101)
    assert rate >= 0.9


def test_single_good_arm_found():
    means = np.zeros(10)
    means[0] = 1.0
    hits = 0
    for trial in range(50):
        env, shuffled, _ = shuffled_trial(means, 1, 0.1, 0.1, (7, trial))
        res = adaptive_topk(env, 1, 0.1, 0.1)
        hits += shuffled[next(iter(res.selected))] == 1.0
    assert hits >= 45


def test_round_pull_counts_exact():
    n, K, delta = 16, 4, 0.1
    env, _, _ = shuffled_trial(gen_two_group(n, K), K, 0.05, delta, (11, 0))
    trace = PullTrace(env)
    res = adaptive_topk(trace, K, 0.05, delta)
    assert res.rounds_completed == len(trace.events) >= 1, "every pull request is one round"
    seen = {}
    for r, (arms, m, _) in enumerate(trace.events, 1):
        expected = math.ceil(4**r * math.log(2 * n * r**2 / delta))
        assert m == expected
        for arm in arms:
            seen[int(arm)] = seen.get(int(arm), 0) + m
    for arm in range(n):
        assert env.pull_counts[arm] == seen.get(arm, 0)


def test_commitments_correct_when_estimates_concentrate():
    # Whenever every round's empirical means stay within the round scale of
    # the truth, accepted arms must be true top-K and rejected arms true rest.
    n, K = 15, 5
    means = gen_two_group(n, K)
    checked = 0
    for trial in range(40):
        env, shuffled, _ = shuffled_trial(means, K, 0.05, 0.1, (13, trial))
        trace = PullTrace(env)
        res = adaptive_topk(trace, K, 0.05, 0.1)
        concentrated = all(
            np.all(np.abs(sums / m - shuffled[arms]) < 2.0 ** -r)
            for r, (arms, m, sums) in enumerate(trace.events, 1)
        )
        if not concentrated:
            continue
        checked += 1
        order = np.argsort(-shuffled, kind="stable")
        top = order[:K]
        assert np.isin(res.accepted_early, top).all()
        assert not np.isin(res.rejected, top).any()
    assert checked > 0


class TestFixedBudget:
    def test_budget_below_n_degrades_to_single_pulls(self):
        env = make_env([0.9, 0.8, 0.1, 0.1, 0.1], K=2)
        res = adaptive_topk_fixed_budget(env, 2, 3)
        assert res.total_pulls == 3 and res.rounds_completed == 0
        assert env.pull_counts.tolist() == [1, 1, 1, 0, 0]  # the first `budget` arms
        assert len(res.selected) == 2

    def test_budget_exactly_n_pulls_each_arm_once(self):
        n, K = 12, 3
        env, shuffled, _ = shuffled_trial(gen_two_group(n, K), K, 0.05, 0.1, (17, 0))
        res = adaptive_topk_fixed_budget(env, K, n)
        assert np.array_equal(env.pull_counts, np.ones(n, dtype=np.int64))
        assert len(res.selected) == K

    def test_never_exceeds_budget(self):
        for budget in (5, 20, 50, 300, 2000, 60000):
            env, _, _ = shuffled_trial(gen_two_group(20, 5), 5, 0.05, 0.1, (19, budget))
            res = adaptive_topk_fixed_budget(env, 5, budget)
            assert res.total_pulls <= budget
            assert len(res.selected) == 5

    def test_huge_budget_matches_unbounded_run(self):
        # With separation this wide, both variants settle on the exact top set.
        means = np.array([0.95] * 3 + [0.05] * 9)
        for trial in range(20):
            env, shuffled, regret = shuffled_trial(means, 3, 0.05, 0.1, (23, trial))
            res = adaptive_topk_fixed_budget(env, 3, 10**9)
            assert regret(res.selected) == 0.0

    def test_deterministic(self):
        means = gen_two_group(10, 3)
        sel = set()
        for _ in range(2):
            env = make_env(means, seed=5, K=3)
            res = adaptive_topk_fixed_budget(env, 3, 500)
            sel.add(frozenset(res.selected))
        assert len(sel) == 1

    def test_results_compare_by_value(self):
        def run(budget):
            return adaptive_topk_fixed_budget(make_env(gen_two_group(10, 3), seed=5, K=3), 3, budget)

        a, b, c = run(500), run(500), run(501)
        assert a == b and not a != b
        assert c.total_pulls == a.total_pulls + 1 and c != a

    def test_budget_sweep_monotone_within_noise(self):
        means = gen_two_group(50, 10)
        budgets = [50, 200, 800, 3200, 12800]
        fails = []
        for budget in budgets:
            bad = 0
            for trial in range(40):
                env, _, regret = shuffled_trial(means, 10, 0.05, 0.1, (29, budget, trial))
                bad += regret(adaptive_topk_fixed_budget(env, 10, budget).selected) > 0.05
            fails.append(bad / 40)
        for before, after in zip(fails, fails[1:]):
            sigma = math.sqrt((before * (1 - before) + after * (1 - after)) / 40 + 1e-12)
            assert after <= before + 3 * sigma + 0.05


def test_tuned_variant_runs_and_respects_budget():
    env, _, regret = shuffled_trial(gen_two_group(30, 6), 6, 0.05, 0.1, (31, 0))
    res = adaptive_topk_fixed_budget(env, 6, 5000, tuned=True)
    assert res.total_pulls <= 5000
    assert len(res.selected) == 6


# Each registry entry as a call returning its SelectionResult.  ``optmai``
# returns ids only and keeps no pull tally, so only its selection is checked.
_RESULT_CALLS = {
    "adaptive": lambda env: adaptive_topk(env, 6, 0.1, 0.1),
    "adaptive-fb": lambda env: adaptive_topk_fixed_budget(env, 6, 3_000, delta=0.1),
    "adaptive-fb-tuned": lambda env: adaptive_topk_fixed_budget(env, 6, 3_000, delta=0.1,
                                                                tuned=True),
    "improved": lambda env: improved_topk(env, 6, 0.1, 0.1),
    "uniform": lambda env: uniform_topk(env, 6, 3_000),
    "cb-ar": lambda env: cb_accept_reject_topk(env, 6, 3_000),
    "optmai": lambda env: opt_mai(env, range(env.n), 6, 0.1, 0.1),
}


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_results_count_only_the_runs_own_pulls(name):
    # A zero total does not mean zero counters: counters set by hand leave
    # the total at 0.  On a fresh environment, a hand-preset one and one
    # pulled earlier, a result counts exactly the run's own pulls, and keeps
    # that count when the environment is pulled again.
    means = gen_two_group(60, 6)
    call = _RESULT_CALLS[name]
    fresh, preset, pulled = (make_env(means, seed=4, K=6) for _ in range(3))
    preset.pull_counts[:] = np.arange(60) * 1_000
    pulled.pull_many(np.arange(60), 3)
    pulled.pull_many([0, 0, 59], 2)
    results = []
    for env in (fresh, preset, pulled):
        counts, total = env.pull_counts.copy(), env.total_pulls()
        res = call(env)
        results.append(res)
        if not isinstance(res, SelectionResult):
            continue
        own = env.pull_counts - counts
        assert res.per_arm_pulls.tolist() == own.tolist()
        assert res.total_pulls == env.total_pulls() - total == int(own.sum()) > 0
        env.pull_many(np.arange(60), 1)
        assert res.per_arm_pulls.tolist() == own.tolist()
    # Presetting the counters leaves the reward stream and the run as they are.
    if name == "optmai":
        assert results[0].tolist() == results[1].tolist()
    else:
        assert results[0] == results[1]


def test_result_is_not_equal_to_another_type():
    env = ArmEnvironment(Instance(np.array([0.9, 0.1]), 1, 0.1, 0.1), seed=0)
    res = adaptive_topk(env, 1, 0.1, 0.1)
    assert res == res and res != res.selected.tolist() and res != "result"
