import numpy as np
import pytest

from conftest import shuffled_trial
from topk_bandit.baselines import cb_accept_reject_topk, uniform_topk
from topk_bandit.env import ArmEnvironment, Instance
from topk_bandit.instances import gen_two_group


def make_env(means, seed=0, K=1):
    return ArmEnvironment(Instance(np.asarray(means, float), K, 0.1, 0.1), seed=seed)


class TestUniform:
    def test_budget_n_pulls_each_arm_once(self):
        env = make_env([0.9, 0.1, 0.5], K=1)
        res = uniform_topk(env, 1, 3)
        assert np.array_equal(env.pull_counts, [1, 1, 1])
        assert len(res.selected) == 1

    def test_budget_below_n_rejected(self):
        env = make_env([0.9, 0.1, 0.5], K=1)
        with pytest.raises(ValueError):
            uniform_topk(env, 1, 2)

    def test_equal_means_any_selection_is_fine(self):
        env, _, regret = shuffled_trial(np.full(10, 0.4), 3, 0.01, 0.1, (83, 0))
        res = uniform_topk(env, 3, 100)
        assert regret(res.selected) == 0.0

    def test_large_budget_separates_two_group(self):
        fails = 0
        for trial in range(40):
            env, _, regret = shuffled_trial(gen_two_group(100, 10), 10, 0.01, 0.1, (89, trial))
            fails += regret(uniform_topk(env, 10, 100 * 320).selected) > 0.01
        assert fails <= 4

    def test_budget_compliance_exact(self):
        # The whole budget: q = budget // 4 pulls each, and one more for the
        # first budget % 4 ids.
        for budget in (7, 23, 100, 101):
            env = make_env([0.2, 0.5, 0.8, 0.4], K=2)
            res = uniform_topk(env, 2, budget)
            q, extra = divmod(budget, 4)
            assert res.total_pulls == budget
            assert res.per_arm_pulls.tolist() == [q + 1] * extra + [q] * (4 - extra)


class TestConfidenceBoundAcceptReject:
    def test_budget_n_reduces_to_one_pull_ranking(self):
        env = make_env([1.0, 0.0, 0.0, 1.0], K=2)
        res = cb_accept_reject_topk(env, 2, 4)
        assert res.total_pulls == 4
        assert res.selected.tolist() == [0, 3]  # deterministic arms separate in one pull

    def test_extreme_separation_small_budget(self):
        means = np.zeros(20)
        means[:5] = 1.0
        hits = 0
        for trial in range(60):
            env, _, regret = shuffled_trial(means, 5, 0.01, 0.1, (97, trial))
            hits += regret(cb_accept_reject_topk(env, 5, 100).selected) == 0.0
        assert hits >= 57  # >= 95%

    def test_budget_compliance_and_size(self):
        for budget in (30, 500, 4000):
            env, _, _ = shuffled_trial(gen_two_group(30, 8), 8, 0.05, 0.1, (101, budget))
            res = cb_accept_reject_topk(env, 8, budget)
            assert res.total_pulls <= budget
            assert len(res.selected) == 8

    def test_same_seed_same_output(self):
        outs = set()
        for _ in range(2):
            env = make_env(gen_two_group(15, 4), seed=33, K=4)
            outs.add(frozenset(cb_accept_reject_topk(env, 4, 900).selected))
        assert len(outs) == 1

    def test_accept_reject_sets_disjoint(self):
        env, _, _ = shuffled_trial(gen_two_group(25, 5), 5, 0.05, 0.1, (103, 0))
        res = cb_accept_reject_topk(env, 5, 50_000)
        assert np.isin(res.accepted_early, res.selected).all()
        assert not np.isin(res.rejected, res.selected).any()

    def test_earlier_pulls_of_the_environment_change_nothing(self):
        # The confidence radius counts this run's pulls only; presetting the
        # counters leaves the reward stream as it is.
        for seed in range(10):
            fresh, used = (make_env(gen_two_group(200, 20), seed=seed, K=20) for _ in range(2))
            used.pull_counts[:] = 5_000
            a = cb_accept_reject_topk(fresh, 20, 200_000)
            b = cb_accept_reject_topk(used, 20, 200_000)
            assert a.selected.tolist() == b.selected.tolist(), seed
            assert np.array_equal(a.per_arm_pulls, b.per_arm_pulls), seed
