"""Every public entry refuses a bad count, probability or mean vector with a
ValueError that names the argument, before any pull is made."""

import math

import numpy as np
import pytest

from topk_bandit import (
    ArmEnvironment,
    CoinTossingInstance,
    ExperimentConfig,
    Hidden,
    Instance,
    adaptive_topk,
    adaptive_topk_fixed_budget,
    aggregate_regret,
    cb_accept_reject_topk,
    check_c_spread,
    elim,
    eps_split,
    est_kth_arm,
    gaps,
    gen_synthetic_p,
    gen_two_group,
    gen_uniform,
    hardness,
    improved_topk,
    is_eps_top_k,
    make_hard_instance,
    opt_mai,
    optimal_coin_log_error,
    psi_quantities,
    reduction_run,
    reverse_elim,
    t_of,
    uniform_topk,
)

MEANS = np.linspace(0.9, 0.1, 10)
# Mean vectors with one non-finite entry, the others sorted non-increasing.
NAN_MEANS = [0.9, math.nan, 0.1]
INF_MEANS = [math.inf, 0.5, 0.1]
NEG_INF_MEANS = [0.9, 0.5, -math.inf]


def _config(**kwargs):
    return ExperimentConfig(**{"instance": "two-group", "k": 5, "budgets": (100,), **kwargs})


# (argument named in the error, call on a fresh 10-arm environment)
CASES = {
    "adaptive-float-K": ("K", lambda env: adaptive_topk(env, 2.0, 0.1, 0.1)),
    "adaptive-bool-K": ("K", lambda env: adaptive_topk(env, True, 0.1, 0.1)),
    "improved-float-K": ("K", lambda env: improved_topk(env, 2.0, 0.1, 0.1)),
    "uniform-float-budget": ("budget", lambda env: uniform_topk(env, 5, 100.0)),
    "cb-ar-float-budget": ("budget", lambda env: cb_accept_reject_topk(env, 5, 100.0)),
    "fixed-budget-inf-budget": ("budget", lambda env: adaptive_topk_fixed_budget(env, 5, math.inf)),
    "opt-mai-negative-epsilon": ("epsilon", lambda env: opt_mai(env, range(10), 5, -0.1, 0.1)),
    "eps-split-delta-above-1": ("delta", lambda env: eps_split(env, range(10), 5, 0.1, 0.1, 2.0)),
    "eps-split-zero-phi": ("phi", lambda env: eps_split(env, range(10), 5, 0.1, 0, 0.1)),
    "elim-float-K": ("K", lambda env: elim(env, range(10), 2.5, 0.1, 0.1, 0.1)),
    "pull-many-empty-float-m": ("m", lambda env: env.pull_many([], 2.5)),
    # A pull count past 2^63 - 1 would not fit an int64 counter.
    "pull-many-m-2^63": ("m", lambda env: env.pull_many([0], 2**63)),
    "pull-many-repeated-arm-past-2^63": ("m", lambda env: env.pull_many([0, 0], 2**62)),
    "uniform-m-2^63": ("m", lambda env: uniform_topk(env, 5, 10 * 2**63)),
    "hardness-float-K": ("K", lambda env: hardness(MEANS, 2.0, 0.1)),
    "config-float-budget": ("budget", lambda env: _config(budgets=(10.7,))),
    "config-float-trials": ("trials", lambda env: _config(trials=2.5)),
    "config-float-workers": ("workers", lambda env: _config(workers=1.5)),
    "config-float-k": ("k", lambda env: _config(k=2.5)),
    "config-zero-epsilon": ("epsilon", lambda env: _config(epsilon=0.0)),
    "config-delta-1": ("delta", lambda env: _config(delta=1.0)),
    "gen-uniform-float-n": ("n", lambda env: gen_uniform(10.5)),
    "gen-two-group-float-n": ("n", lambda env: gen_two_group(10.0, 3)),
    "gen-synthetic-float-n": ("n", lambda env: gen_synthetic_p(10.0, 3, 1.0)),
    "coin-bool-m": ("m", lambda env: optimal_coin_log_error(True, 0.1)),
    "hard-instance-float-n": ("n", lambda env: make_hard_instance(4.0, 0.1, 0)),
    # 0.5 + 1e-17 is 0.5: the high and low arms would share one mean.
    "hard-instance-eta-below-the-rounding-of-0.5": ("eta", lambda env: make_hard_instance(4, 1e-17, 0)),
    "coin-eta-below-the-rounding-of-0.5": ("eta", lambda env: CoinTossingInstance(1e-17, Hidden.PLUS, 0)),
    "reduction-eta-below-the-rounding-of-0.5": (
        "eta", lambda env: reduction_run(adaptive_topk, 40, 20, 1e-17, 0.2, C=0, seed=0)),
    "reduction-float-C": ("C", lambda env: reduction_run(adaptive_topk, 40, 20, 0.1, 0.2, C=2.5, seed=0)),
    "env-float-seed": ("seed", lambda env: ArmEnvironment(Instance(MEANS, 5, 0.1, 0.1), 2.9)),
    "env-bool-seed": ("seed", lambda env: ArmEnvironment(Instance(MEANS, 5, 0.1, 0.1), True)),
    "config-float-base-seed": ("base_seed", lambda env: _config(base_seed=1.7)),
    "reduction-float-seed": ("seed", lambda env: reduction_run(adaptive_topk, 40, 20, 0.1, 0.2, C=0, seed=2.5)),
    "aggregate-regret-bool-K": ("K", lambda env: aggregate_regret(MEANS, True, [0])),
    "aggregate-regret-float-K": ("K", lambda env: aggregate_regret(MEANS, 2.0, [0, 1])),
    "reduction-K-not-half": ("K", lambda env: reduction_run(adaptive_topk, 40, 10, 0.1, 0.4, C=0, seed=0)),
    "reduction-small-epsilon-K": ("epsilon",
                                  lambda env: reduction_run(adaptive_topk, 40, 20, 0.1, 0.1, C=0, seed=0)),
    "t-of-nan-epsilon": ("epsilon", lambda env: t_of(MEANS, 5, math.nan)),
    "psi-nan-epsilon": ("epsilon", lambda env: psi_quantities(MEANS, 5, math.nan)),
    "c-spread-nan-c": ("c", lambda env: check_c_spread(MEANS, math.nan)),
    "config-no-algorithms": ("algorithms", lambda env: _config(algorithms=())),
    "config-repeated-algorithm": ("algorithms", lambda env: _config(algorithms=("uniform", "uniform"))),
    "config-nan-p": ("p", lambda env: _config(p=math.nan)),
    "config-zero-p": ("p", lambda env: _config(p=0.0)),
    "gaps-nan-means": ("means", lambda env: gaps(NAN_MEANS, 1)),
    "t-of-inf-means": ("means", lambda env: t_of(INF_MEANS, 1, 0.1)),
    "psi-nan-means": ("means", lambda env: psi_quantities(NAN_MEANS, 1, 0.1)),
    "hardness-nan-means": ("means", lambda env: hardness(NAN_MEANS, 1, 0.1)),
    "hardness-inf-means": ("means", lambda env: hardness(INF_MEANS, 1, 0.1)),
    "hardness-neg-inf-means": ("means", lambda env: hardness(NEG_INF_MEANS, 1, 0.1)),
    "c-spread-nan-means": ("means", lambda env: check_c_spread(NAN_MEANS, 2.0)),
    "aggregate-regret-nan-means": ("means", lambda env: aggregate_regret(NAN_MEANS, 1, [2])),
    "aggregate-regret-neg-inf-means": ("means", lambda env: aggregate_regret(NEG_INF_MEANS, 1, [2])),
    "is-eps-top-k-nan-means": ("means", lambda env: is_eps_top_k(NAN_MEANS, 1, 0.1, [2])),
}

# Candidate sets S of the 10-arm environment that are not distinct ids in
# [0, 10), and each improved subroutine on its pulling path and on its no-pull
# shortcuts: K = |S| for eps_split and opt_mai, epsilon >= 1 for opt_mai.
BAD_S = {"repeated": [0, 0, 1, 2], "negative": [3, -1, 4, 5], "past-the-end": [0, 1, 2, 10]}
S_CALLS = {
    "est-kth-arm": lambda env, S: est_kth_arm(env, S, 2, 0.1, 0.1, 0.1),
    "eps-split": lambda env, S: eps_split(env, S, 2, 0.1, 0.1, 0.1),
    "eps-split-whole-S": lambda env, S: eps_split(env, S, len(S), 0.1, 0.1, 0.1),
    "elim": lambda env, S: elim(env, S, 2, 0.1, 0.1, 0.1),
    "reverse-elim": lambda env, S: reverse_elim(env, S, 2, 0.1, 0.1, 0.1),
    "opt-mai": lambda env, S: opt_mai(env, S, 2, 0.1, 0.1),
    "opt-mai-whole-S": lambda env, S: opt_mai(env, S, len(S), 0.1, 0.1),
    "opt-mai-epsilon-1": lambda env, S: opt_mai(env, S, 2, 1.0, 0.1),
}
CASES.update({f"{call}-{form}-S": ("S", lambda env, f=f, S=S: f(env, S))
              for call, f in S_CALLS.items() for form, S in BAD_S.items()})


@pytest.mark.parametrize("name, call", CASES.values(), ids=CASES.keys())
def test_bad_argument_is_refused_before_any_pull(name, call):
    env = ArmEnvironment(Instance(MEANS, 5, 0.1, 0.1), seed=0)
    with pytest.raises(ValueError, match=f"^{name} must "):
        call(env)
    assert env.total_pulls() == 0
