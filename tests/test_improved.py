import math

import numpy as np
import pytest

from conftest import shuffled_trial, success_rate
from topk_bandit import improved
from topk_bandit.env import ArmEnvironment, Instance
from topk_bandit.improved import (
    elim,
    elim_cost,
    eps_split,
    est_kth_arm,
    est_kth_arm_cost,
    improved_topk,
    opt_mai,
    opt_mai_cost,
    reverse_elim,
    _halving_rounds,
)
from topk_bandit.instances import gen_two_group, gen_uniform


def make_env(means, seed=0, K=1):
    return ArmEnvironment(Instance(np.asarray(means, float), K, 0.1, 0.1), seed=seed)


@pytest.fixture
def subroutine_calls(monkeypatch):
    """Per-subroutine attribution: wraps the subroutines on the module
    globals that ``improved_topk`` calls them through, and records each call
    as (name, positional arguments after env, pulls it made)."""
    calls = []

    def recorder(name, fn):
        def wrapper(env, *args, **kwargs):
            before = env.total_pulls()
            out = fn(env, *args, **kwargs)
            calls.append((name, args, env.total_pulls() - before))
            return out
        return wrapper

    for name in ("est_kth_arm", "eps_split", "elim", "reverse_elim", "opt_mai"):
        monkeypatch.setattr(improved, name, recorder(name, getattr(improved, name)))
    return calls


class TestEstKthArm:
    def test_set_size_equals_k_still_returns_valid_arm(self):
        env = make_env([0.5, 0.5, 0.5], K=3)
        arm, est = est_kth_arm(env, range(3), 3, 0.2, 0.2, 0.2)
        assert arm in {0, 1, 2}
        assert 0.0 <= est <= 1.0
        assert env.total_pulls() > 0  # a calibration pass defines the means

    def test_identical_means_trivially_in_interval(self):
        env = make_env([0.5] * 8, K=4)
        arm, _ = est_kth_arm(env, range(8), 4, 0.3, 0.1, 0.2)
        assert 0 <= arm < 8

    def test_interval_contract(self):
        means = gen_uniform(30)
        K, tau, phi, delta = 10, 0.3, 0.1, 0.2
        lo = means[K - 1] - phi                       # theta_(K) - phi
        hi = means[int((1 - tau) * K) - 1] + phi      # theta_((1-tau)K) + phi
        ok = 0
        for trial in range(60):
            env, shuffled, _ = shuffled_trial(means, K, 0.1, delta, (41, trial))
            arm, _ = est_kth_arm(env, range(30), K, tau, phi, delta)
            ok += lo <= shuffled[arm] <= hi
        assert ok >= 48  # 1 - delta with binomial slack

    def test_pull_accounting_exact(self, subroutine_calls):
        env = make_env(gen_uniform(24), K=5)
        improved.est_kth_arm(env, range(24), 5, 0.3, 0.15, 0.2)
        expected = est_kth_arm_cost(24, 5, 0.3, 0.15, 0.2)
        assert env.total_pulls() == expected
        assert subroutine_calls[0][2] == expected

    def test_halving_terminates_fast_and_decays(self):
        size, k = 64, 5
        rounds = list(_halving_rounds(size, k, 0.3, 0.1, 0.2))
        assert len(rounds) <= math.ceil(math.log2(size / k)) + 1
        sizes = [s for s, _ in rounds]
        assert sizes[0] == size
        for a, b in zip(sizes, sizes[1:]):
            assert b == max(k, math.ceil(a / 2))
        costs = [s * m for s, m in rounds]
        assert sum(costs) <= 12 * costs[0]

    def test_rejects_bad_parameters(self):
        env = make_env([0.5, 0.6], K=1)
        with pytest.raises(ValueError):
            est_kth_arm(env, range(2), 3, 0.3, 0.1, 0.2)
        with pytest.raises(ValueError):
            est_kth_arm(env, range(2), 1, 1.3, 0.1, 0.2)


class TestEpsSplit:
    def test_k_equals_set_size_returns_everything_free(self):
        env = make_env([0.9, 0.1, 0.5], K=3)
        assert eps_split(env, range(3), 3, 0.2, 0.1, 0.2).tolist() == [0, 1, 2]
        assert env.total_pulls() == 0

    def test_regret_contract_under_wide_gap(self):
        means = gen_two_group(20, 10)  # boundary gap 0.4 >= phi
        tau, phi, delta = 0.1, 0.2, 0.2
        ok = 0
        for trial in range(60):
            env, _, regret = shuffled_trial(means, 10, 2 * tau, delta, (43, trial))
            sel = eps_split(env, range(20), 10, tau, phi, delta)
            assert len(sel) == 10
            ok += regret(sel) <= 2 * tau
        assert ok >= 48


class TestElim:
    def test_returns_a_tenth(self):
        env = make_env(gen_uniform(20), K=5)
        assert len(elim(env, range(20), 5, 0.1, 0.3, 0.1)) == 2
        env = make_env(gen_uniform(7), K=2)
        assert len(elim(env, range(7), 2, 0.1, 0.3, 0.1)) == 1

    def test_pull_count_formula(self, subroutine_calls):
        env = make_env(gen_uniform(20), K=5)
        improved.elim(env, range(20), 5, 0.1, 0.3, 0.1)
        assert env.total_pulls() == elim_cost(20, 0.1, 0.3, 0.1)
        per_arm = math.ceil(2.0 / 0.3**2 * math.log(4.0 / (0.1 * 0.1)))
        assert np.all(env.pull_counts == per_arm)
        assert subroutine_calls[0][2] == env.total_pulls()

    def test_contract_extreme_separation(self):
        means = np.zeros(30)
        means[:10] = 1.0
        bad = 0
        for trial in range(60):
            env, shuffled, _ = shuffled_trial(means, 10, 0.1, 0.1, (47, trial))
            T = elim(env, range(30), 10, 0.1, 0.5, 0.1)
            bad += sum(1 for a in T if shuffled[a] == 1.0) > 1  # gamma*K = 1
        assert bad <= 6

    def test_reverse_contract_extreme_separation(self):
        means = np.zeros(30)
        means[:6] = 1.0  # K=12 -> theta_(K/2)=1, theta_(K)=0
        bad = 0
        for trial in range(60):
            env, shuffled, _ = shuffled_trial(means, 12, 0.1, 0.1, (53, trial))
            T = reverse_elim(env, range(30), 12, 0.1, 0.5, 0.1)
            order = np.argsort(-shuffled, kind="stable")
            rank = np.empty(30, dtype=np.intp)
            rank[order] = np.arange(30)
            bad += sum(1 for a in T if rank[a] >= 12) > 1.2  # gamma*K
        assert bad <= 6


# Each subroutine that returns arms, called on S at K = 4.
ARM_SUBROUTINES = {
    "eps_split": lambda env, S: eps_split(env, S, 4, 0.3, 0.2, 0.1),
    "elim": lambda env, S: elim(env, S, 4, 0.1, 0.3, 0.1),
    "reverse_elim": lambda env, S: reverse_elim(env, S, 4, 0.1, 0.3, 0.1),
    "opt_mai": lambda env, S: opt_mai(env, S, 4, 0.2, 0.1),
}


@pytest.mark.parametrize("name", sorted(ARM_SUBROUTINES))
def test_subroutines_take_and_return_sorted_id_arrays(name):
    means = np.random.default_rng(2).random(20)
    S = np.array([17, 3, 11, 5, 0, 8, 13, 2, 19, 7, 6, 14])
    out = ARM_SUBROUTINES[name](make_env(means, seed=3), S)
    assert out.ndim == 1 and out.dtype == np.intp
    assert np.all(np.diff(out) > 0) and np.isin(out, S).all()
    # S is read in ascending id order, whatever order it comes in.
    same = ARM_SUBROUTINES[name](make_env(means, seed=3), np.sort(S))
    assert out.tolist() == same.tolist()


@pytest.mark.parametrize("name", sorted(ARM_SUBROUTINES) + ["est_kth_arm"])
def test_subroutines_reject_a_set(name):
    call = ARM_SUBROUTINES.get(name, lambda env, S: est_kth_arm(env, S, 4, 0.3, 0.2, 0.1))
    env = make_env(np.random.default_rng(2).random(20))
    with pytest.raises(ValueError, match="1-D array of integers"):
        call(env, set(range(12)))
    assert env.total_pulls() == 0


class TestOptMai:
    def test_whole_set_is_free(self):
        env = make_env([0.4, 0.6], K=2)
        assert opt_mai(env, [0, 1], 2, 0.1, 0.1).tolist() == [0, 1]
        assert env.total_pulls() == 0

    def test_vacuous_tolerance_is_free(self):
        env = make_env([0.4, 0.6, 0.2], K=1)
        assert len(opt_mai(env, range(3), 1, 1.5, 0.1)) == 1
        assert env.total_pulls() == 0

    def test_success_contract(self):
        rate = success_rate(gen_two_group(50, 10), 10, 0.05, 0.1, 60,
                            lambda env, _: opt_mai(env, range(50), 10, 0.05, 0.1), seed0=59)
        assert rate >= 0.9

    def test_cost_formula(self):
        env = make_env(gen_uniform(12), K=3)
        opt_mai(env, range(12), 3, 0.2, 0.1)
        assert env.total_pulls() == opt_mai_cost(12, 0.2, 0.1)


class TestImprovedTopK:
    def test_two_arm_instance(self):
        means = np.array([1.0, 0.0])
        hits = 0
        for trial in range(50):
            env, shuffled, _ = shuffled_trial(means, 1, 0.1, 0.1, (61, trial))
            res = improved_topk(env, 1, 0.1, 0.1)
            hits += shuffled[next(iter(res.selected))] == 1.0
        assert hits >= 45

    def test_pac_contract_two_group(self):
        rate = success_rate(gen_two_group(40, 10), 10, 0.05, 0.1, 50,
                            lambda env, _: improved_topk(env, 10, 0.05, 0.1).selected, seed0=67)
        assert rate >= 0.9

    def test_complement_route_for_large_k(self):
        rate = success_rate(gen_two_group(20, 15), 15, 0.05, 0.1, 50,
                            lambda env, _: improved_topk(env, 15, 0.05, 0.1).selected, seed0=71)
        assert rate >= 0.9

    def test_budget_log_populated_and_consistent(self, subroutine_calls):
        env, _, _ = shuffled_trial(gen_two_group(40, 10), 10, 0.05, 0.1, (73, 0))
        res = improved_topk(env, 10, 0.05, 0.1)
        assert subroutine_calls
        assert sum(pulls for _, _, pulls in subroutine_calls) == res.total_pulls == env.total_pulls()
        assert "est_kth_arm" in {name for name, _, _ in subroutine_calls}

    def test_est_kth_costs_in_log_match_formula(self, subroutine_calls):
        env, _, _ = shuffled_trial(gen_two_group(40, 10), 10, 0.05, 0.1, (73, 1))
        improved_topk(env, 10, 0.05, 0.1)
        est_calls = [(args, pulls) for name, args, pulls in subroutine_calls if name == "est_kth_arm"]
        assert est_calls
        for (S, k, tau, phi, delta), pulls in est_calls:
            assert pulls == est_kth_arm_cost(len(S), k, tau, phi, delta)

    @pytest.mark.parametrize("means, K, eps, delta, seed_key", [
        (gen_two_group(1000, 100), 100, 0.01, 0.01, (0, 0)),  # a perfbench grid cell
        (gen_uniform(60), 30, 0.2, 0.1, (5, 30)),             # sheds through reverse_elim
    ], ids=["grid-cell", "reverse-elim"])
    def test_probes_draw_only_the_estimates_the_rule_reads(self, subroutine_calls, means, K,
                                                             eps, delta, seed_key):
        env, _, _ = shuffled_trial(means, K, eps, delta, seed_key)
        improved_topk(env, K, eps, delta)
        # A probe pass is a run of est_kth_arm calls on one (S, phi); its
        # k_rem is the K of the next call, which no pass changes.
        passes = []
        for name, args, pulls in subroutine_calls:
            if name != "est_kth_arm":
                for p in passes:
                    p.setdefault("k_rem", args[1])
                continue
            S, k, tau, phi, d_sub = args
            assert pulls == est_kth_arm_cost(len(S), k, tau, phi, d_sub)
            if not passes or (passes[-1]["S"], passes[-1]["phi"]) != (S.tolist(), phi):
                passes.append({"S": S.tolist(), "phi": phi, "ks": []})
            passes[-1]["ks"].append(k)
        assert passes and passes[0]["phi"] == 0.25
        for p in passes:
            assert p["phi"] < 0.5 and 2 <= len(p["ks"]) <= 4
            if len(p["ks"]) == 4:  # the mid-head estimate
                assert p["k_rem"] > len(p["S"]) / 2.0
                assert p["ks"][3] == max(1, math.floor(p["k_rem"] / 2.0 + 0.5))

    def test_undecided_arms_are_read_in_ascending_id_order(self, subroutine_calls):
        # S's order fixes which arm each reward draw goes to.  This run sheds
        # arms through elim and reverse_elim before opt_mai finishes it.
        env, _, _ = shuffled_trial(gen_uniform(60), 30, 0.2, 0.1, (5, 30))
        res = improved_topk(env, 30, 0.2, 0.1)
        assert {"elim", "reverse_elim"} <= {name for name, _, _ in subroutine_calls}
        for name, (S, *_), _ in subroutine_calls:
            assert np.all(np.diff(S) > 0), name
        last_S = subroutine_calls[-1][1][0]
        decided = np.concatenate([res.accepted_early, res.rejected])
        assert np.array_equal(last_S, np.setdiff1d(np.arange(60), decided))

    def test_collapsed_split_ratio_finishes_with_opt_mai(self, subroutine_calls):
        # One open slot puts the split ratio (K_R - K_L) / k_rem above 1, so
        # once the boundary gap shows, opt_mai must finish the run at the
        # budget's share of the tolerance, K * eps / (10 k_rem), without
        # shedding a tenth first (six arms would allow it).
        env = make_env([0.1, 0.9, 0.1, 0.1, 0.1, 0.1], seed=3)
        res = improved_topk(env, 1, 0.5, 0.1)
        names = [name for name, _, _ in subroutine_calls]
        assert names[-1] == "opt_mai" and not {"elim", "eps_split"} & set(names)
        assert subroutine_calls[-1][1][2] == pytest.approx(0.05)
        assert res.selected.tolist() == [1]

    def test_degenerate_cases(self):
        env = make_env([0.1, 0.9, 0.5], K=3)
        assert improved_topk(env, 3, 0.1, 0.1).selected.tolist() == [0, 1, 2]
        assert improved_topk(env, 0, 0.1, 0.1).selected.tolist() == []
        assert env.total_pulls() == 0

    def test_result_partition(self):
        env, _, _ = shuffled_trial(gen_two_group(30, 6), 6, 0.05, 0.1, (79, 0))
        res = improved_topk(env, 6, 0.05, 0.1)
        assert len(res.selected) == 6
        assert np.isin(res.accepted_early, res.selected).all()
        assert not np.isin(res.rejected, res.selected).any()
