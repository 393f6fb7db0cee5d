"""A pull trace observes a run without changing it.

Every registered algorithm, the complement path of ``improved_topk`` and the
lower-bound reduction's watchdog run once on a plain environment and once
through a :class:`PullTrace` of an identically seeded one: results, pull
counters and the next reward draw must match, and the traced pulls must add
up, arm by arm, to the pulls the environment counted.
"""

import numpy as np
import pytest

from topk_bandit.adaptive import SelectionResult, adaptive_topk, adaptive_topk_fixed_budget
from topk_bandit.baselines import cb_accept_reject_topk, uniform_topk
from topk_bandit.bench import ALGORITHMS
from topk_bandit.env import ArmEnvironment, Instance, PullTrace
from topk_bandit.improved import improved_topk, opt_mai
from topk_bandit.lowerbound import reduction_run

N = 30
MEANS = np.random.default_rng(4).random(N)

# Each registered algorithm as a call returning its full result.
CALLS = {
    "adaptive": lambda env, K: adaptive_topk(env, K, 0.05, 0.1),
    "adaptive-fb": lambda env, K: adaptive_topk_fixed_budget(env, K, 3_001, delta=0.1),
    "adaptive-fb-tuned": lambda env, K: adaptive_topk_fixed_budget(env, K, 3_001, delta=0.1, tuned=True),
    "improved": lambda env, K: improved_topk(env, K, 0.2, 0.1),
    "uniform": lambda env, K: uniform_topk(env, K, 1_001),
    "cb-ar": lambda env, K: cb_accept_reject_topk(env, K, 900),
    "optmai": lambda env, K: opt_mai(env, range(env.n), K, 0.2, 0.1),
}


def _fields(res):
    if not isinstance(res, SelectionResult):
        return sorted(res)
    return [sorted(res.selected), res.total_pulls, res.per_arm_pulls.tolist(),
            res.rounds_completed, sorted(res.accepted_early), sorted(res.rejected)]


def _id_fields(res):
    if not isinstance(res, SelectionResult):  # opt_mai returns the selection alone
        return res, res[:0], res[:0]
    return res.selected, res.accepted_early, res.rejected


def _traced_pulls(trace, n):
    per_arm = np.zeros(n, dtype=np.int64)
    for arms, m, sums in trace.events:
        assert np.all((0 <= sums) & (sums <= m))
        np.add.at(per_arm, arms, m)
    return per_arm


def test_every_registered_algorithm_is_covered():
    assert set(CALLS) == set(ALGORITHMS)


# K = 22 > N / 2 takes improved_topk through the complement environment.
@pytest.mark.parametrize("K", [6, 22])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_traced_run_equals_untraced_run(name, K):
    plain = ArmEnvironment(Instance(MEANS, K, 0.1, 0.1), seed=K)
    inner = ArmEnvironment(Instance(MEANS, K, 0.1, 0.1), seed=K)
    trace = PullTrace(inner)
    untraced, traced = CALLS[name](plain, K), CALLS[name](trace, K)
    assert _fields(traced) == _fields(untraced)
    assert trace.events
    assert np.array_equal(_traced_pulls(trace, N), plain.pull_counts)
    assert np.array_equal(inner.pull_counts, plain.pull_counts)
    assert trace.pull_many(np.arange(N), 7).tolist() == plain.pull_many(np.arange(N), 7).tolist()


@pytest.mark.parametrize("K", [6, 22])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_result_ids_are_sorted_read_only_arrays(name, K):
    env = ArmEnvironment(Instance(MEANS, K, 0.1, 0.1), seed=K)
    selected, accepted, rejected = _id_fields(CALLS[name](env, K))
    for ids in (selected, accepted, rejected):
        assert ids.ndim == 1 and ids.dtype == np.intp
        assert np.all(np.diff(ids) > 0)  # sorted, no id twice
        assert not ids.flags.writeable
    assert len(selected) == K
    assert np.isin(accepted, selected).all()
    assert not np.isin(rejected, selected).any()


@pytest.mark.parametrize("select, C, seed, gives_up", [
    (lambda env, K, eps, delta: adaptive_topk(env, K, eps, delta), 160_000_000, 0, False),
    (lambda env, K, eps, delta: adaptive_topk(env, K, eps, delta), 1_000, 1, True),
    # cb-ar pulls one arm at a time: the watchdog must stop scalar pulls too.
    (lambda env, K, eps, delta: cb_accept_reject_topk(env, K, 4_000), 100, 2, True),
], ids=["answers", "gives-up", "gives-up-scalar"])
def test_traced_reduction_equals_untraced(select, C, seed, gives_up):
    def run(wrap):
        seen = []

        def algorithm(watched, K, eps, delta):
            env = wrap(watched)
            try:
                res = select(env, K, eps, delta)
                seen.append(_fields(res))
                return res
            finally:
                seen.append(watched.pull_counts.tolist())
                if isinstance(env, PullTrace):
                    seen.append(_traced_pulls(env, watched.n).tolist())

        answer = reduction_run(algorithm, 40, 20, 0.1, 0.2, C=C, seed=seed)
        return answer, seen

    untraced_answer, untraced = run(lambda env: env)
    traced_answer, traced = run(PullTrace)
    assert traced_answer == untraced_answer
    # A run the watchdog stops returns no result, only its pull counters.
    assert len(untraced) == (1 if gives_up else 2)
    assert (untraced_answer == "unknown") == gives_up
    assert traced[:-1] == untraced
    assert traced[-1] == untraced[-1]  # the traced pulls, arm by arm, are the counters
