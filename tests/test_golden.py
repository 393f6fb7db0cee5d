"""Golden outputs: sha256 pins of seeded runs.

Every case makes seeded calls and hashes what a behaviour-preserving change
must keep: the selected set, the per-arm pulls, the rounds completed and the
early accept and reject sets (plus the rounds read from a pull trace,
reduction answers, CSV and CLI text where a case has them).  A changed
digest means a selection, a pull count or a reward stream changed.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import shuffled_trial
from topk_bandit import improved
from topk_bandit.adaptive import adaptive_topk, adaptive_topk_fixed_budget
from topk_bandit.baselines import cb_accept_reject_topk, uniform_topk
from topk_bandit.bench import ALGORITHMS, ExperimentConfig, run_experiment, setup_trial
from topk_bandit.cli import main
from topk_bandit.env import ArmEnvironment, Instance, PullTrace
from topk_bandit.improved import eps_split, est_kth_arm, improved_topk, opt_mai
from topk_bandit.instances import gen_two_group, gen_uniform
from topk_bandit.lowerbound import reduction_run

N, K, EPS, DELTA = 40, 8, 0.05, 0.1
MEANS = np.random.default_rng(20_26).random(N)


def _env(seed, means=MEANS, k=K):
    return ArmEnvironment(Instance(means, k, EPS, DELTA), seed=seed)


def _parts(res):
    return [sorted(int(a) for a in res.selected), [int(p) for p in res.per_arm_pulls],
            res.rounds_completed, sorted(res.accepted_early.tolist()), sorted(res.rejected.tolist())]


def _traced_rounds(select, seed):
    """Parts of a seeded run plus its rounds: round r is trace event r - 1,
    at scale 2^-r, and a run's rounds are its first rounds_completed events."""
    trace = PullTrace(_env(seed))
    res = select(trace)
    rounds = [[r, float(2.0 ** -r).hex(), m, arms.tolist(), [float(v).hex() for v in sums / m]]
              for r, (arms, m, sums) in enumerate(trace.events[:res.rounds_completed], 1)]
    return [_parts(res), rounds]


def _reductions():
    results = []

    def selector(env, k, eps, delta):
        res = adaptive_topk(env, k, eps, delta)
        results.append(_parts(res))
        return res

    # A generous cap answers; a tight one makes the watchdog give up.
    answers = [reduction_run(selector, 40, 20, 0.1, 0.2, C=160_000_000, seed=seed) for seed in (0, 2)]
    answers.append(reduction_run(selector, 40, 20, 0.1, 0.2, C=1_000, seed=1))
    return [answers, results]


def _improved_eps_split():
    env, _, _ = setup_trial(gen_uniform(30), 6, EPS, DELTA, 0, 0)
    return _parts(improved_topk(env, 6, EPS, DELTA))


def _improved_collapsed_split():
    # One open slot: the split ratio collapses, so opt_mai finishes the run.
    return _parts(improved_topk(_env(3, np.array([0.1, 0.9, 0.1, 0.1, 0.1, 0.1]), 1), 1, 0.5, DELTA))


def _eps_split_top_up():
    # Arms 1 and 4 tie at 0.93.  The top-up takes arm 4, dropped in the last
    # round, over arm 1, dropped a round earlier with a higher last mean.
    env = ArmEnvironment(Instance(np.array([0.96, 0.93, 0.0, 0.64, 0.93, 0.54, 0.54, 0.59]),
                                  1, 0.1, 0.1), seed=338)
    return [eps_split(env, range(8), 2, 0.38, 0.39, 0.1).tolist(), env.pull_counts.tolist()]


def _criterion_12_csv():
    cfg = ExperimentConfig(instance="two-group", k=10, n=50, epsilon=0.05, delta=0.1,
                           algorithms=("adaptive-fb", "uniform"), budgets=(200, 1000),
                           trials=20, base_seed=20_12)
    return run_experiment(cfg).to_csv()


def _registry_csv():
    cfg = ExperimentConfig(instance="two-group", k=3, n=12, epsilon=0.1, delta=0.1,
                           algorithms=tuple(sorted(ALGORITHMS)), budgets=(60, 150),
                           trials=3, base_seed=7)
    return run_experiment(cfg).to_csv()


def _cli_run(capsys):
    outputs = []
    for argv in (["run", "--instance", "uniform", "--n", "30", "--k", "6",
                  "--algo", "adaptive", "--epsilon", "0.05", "--delta", "0.1", "--seed", "4"],
                 ["run", "--instance", "two-group", "--n", "30", "--k", "6",
                  "--algo", "cb-ar", "--budget", "400", "--seed", "5"]):
        assert main(argv) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    return outputs


def _shuffled_trial():
    env, shuffled, regret = shuffled_trial(MEANS, K, EPS, DELTA, (5, 3))
    res = adaptive_topk(env, K, EPS, DELTA)
    return [[float(v).hex() for v in shuffled], _parts(res), float(regret(res.selected)).hex()]


CASES = {
    # One seeded call per registered algorithm.
    "adaptive": lambda: _parts(adaptive_topk(_env(1), K, EPS, DELTA)),
    "adaptive-fb": lambda: _parts(adaptive_topk_fixed_budget(_env(2), K, 3_000, delta=DELTA)),
    "adaptive-fb-tuned": lambda: _parts(
        adaptive_topk_fixed_budget(_env(3), K, 3_000, delta=DELTA, tuned=True)),
    "improved": lambda: _parts(improved_topk(_env(4), K, 0.2, DELTA)),
    "uniform": lambda: _parts(uniform_topk(_env(5), K, 1_234)),
    "cb-ar": lambda: _parts(cb_accept_reject_topk(_env(6), K, 1_500)),
    "optmai": lambda: (lambda env: [sorted(opt_mai(env, range(N), K, 0.2, DELTA).tolist()),
                                    env.pull_counts.tolist()])(_env(7)),
    # Paths that only some inputs reach.
    "improved-complement": lambda: _parts(improved_topk(_env(9, k=30), 30, 0.2, DELTA)),
    "improved-eps-split": _improved_eps_split,
    "improved-collapsed-split": _improved_collapsed_split,
    "fixed-budget-below-n": lambda: _parts(adaptive_topk_fixed_budget(_env(10), K, N - 7, delta=DELTA)),
    "fixed-budget-remainder": lambda: _parts(adaptive_topk_fixed_budget(_env(11), K, 5_003, delta=DELTA)),
    "record-rounds": lambda: _traced_rounds(lambda env: adaptive_topk(env, K, EPS, DELTA), 12),
    "record-rounds-fixed-budget": lambda: _traced_rounds(
        lambda env: adaptive_topk_fixed_budget(env, K, 20_000, delta=DELTA), 13),
    "eps-split": lambda: (lambda env: [sorted(eps_split(env, range(N), 10, 0.3, 0.1, DELTA).tolist()),
                                       env.pull_counts.tolist()])(_env(15)),
    "eps-split-top-up": _eps_split_top_up,
    # A set that already fits gets one calibration pass, which must keep the
    # input order: the random pick indexes into it.
    "est-kth-arm": lambda: (lambda env: [est_kth_arm(env, range(N), 12, 0.2, 0.1, DELTA),
                                         [est_kth_arm(env, range(30), 30, 0.5, 0.1, DELTA)
                                          for _ in range(4)],
                                         env.pull_counts.tolist()])(_env(16)),
    "two-group-adaptive": lambda: _parts(adaptive_topk(_env(14, gen_two_group(N, K)), K, EPS, DELTA)),
    "reduction-run": _reductions,
    "criterion-12-csv": _criterion_12_csv,
    "registry-csv": _registry_csv,
    "shuffled-trial": _shuffled_trial,
}

EXPECTED = {
    "adaptive": "bd76b632490564ad4cd9b353cc23f57de37dbca52e06325038583cdacb017dfd",
    "adaptive-fb": "74d1c5ec4ec68b82becaf862920780787d77019c4cfa5d7367b959ec6cdc5732",
    "adaptive-fb-tuned": "4e9aefdbda6ab13bd35b3b631c6ab1d69b8ebb77499566b02d3d14d4e94e34bf",
    "cb-ar": "25281a892bdded93bcf2dd8e6f4d5c723dea8e015a630b5c23a2d0f7351fc959",
    "cli-run": "606219e58f3bff5ab4fdcde88af093da82358eb2630285914040c28b30fb0088",
    "criterion-12-csv": "36e035d2f359eea4e3caab5a01cdd84cfd8f7c59fe2a7268dd5fba119fb7f7ce",
    "eps-split": "2ee398f066991bf9159aaa2727e6fd9a487fd5b51c979f1cb76a84f54894f423",
    "eps-split-top-up": "7da6e55f56cca18a76d3def190266101839e8a5a4fdbb68ef6651b264151752e",
    "est-kth-arm": "2633d4fccd727e14f5d36dfa607b257858b9f951830323ec5cd03edad18ec854",
    "fixed-budget-below-n": "864109ce6087db4b7ef8ed504ce3f3e319c6211fe03a1206b972ff4604021515",
    "fixed-budget-remainder": "7640e66ca8a2260e68e5a7c0b5aaf78c76e6531b288b4897fc6ebdc3850d71f5",
    "improved": "b75d29425bd992575f902496c29fee4cb9fe66e0b127171301aa3e22e5b7d76b",
    "improved-complement": "4009c923e1278e6d189e1fe3705cd9681038f1523ff2a930ee20f215465fb71f",
    "improved-collapsed-split": "07ed4f2cb3444ca399de9b889dcb903a02566bec3a398e7b29983d5ec6e06839",
    "improved-eps-split": "4a54b4ac5d4966bc1cd2643d2c6e6b0e5cc93336a5428b6440f37fe8c8e96833",
    "optmai": "03f0c9aef10a49d8c2bf6b48f8d419dc2c83f28fac92a74c2819f4177af33755",
    "record-rounds": "4ad0de19fdd5fbe1df49fdd54de7bf6ffc493edd12a8c073f47fd44cca4497a0",
    "record-rounds-fixed-budget": "fdb5624500f5ac4d2f7fa949278d64947632faeecf4019c6e4b6b7da5f994e9c",
    "reduction-run": "f68763da33752b412e930a5f3049471d72eee11580b091699f003b5413422cf7",
    "registry-csv": "7d20907b7e238495504ea27795950e2bcb1f26c74e93891724d7185b35117b9f",
    "shuffled-trial": "b761aa67522012fcd3f27c1779fd9ff67d27c9a78e76de08d8289f56dee2562a",
    "two-group-adaptive": "bb77840244d84a0877212bfedcee07e64aafea3e425f64fa2a1caa858701655a",
    "uniform": "52e5c926bba08c00516715baaa25292d17454edfd200c8c2cf16341c4cf3c549",
}


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def test_every_registered_algorithm_has_a_case():
    assert set(ALGORITHMS) <= set(CASES)


def test_remainder_case_spends_the_whole_budget():
    res = adaptive_topk_fixed_budget(_env(11), K, 5_003, delta=DELTA)
    assert res.total_pulls == 5_003 and res.rounds_completed >= 1


@pytest.mark.parametrize("case, last", [(_improved_eps_split, "eps_split"),
                                        (_improved_collapsed_split, "opt_mai"),
                                        (CASES["improved"], "opt_mai")],
                         ids=["eps-split", "collapsed-split", "improved"])
def test_improved_case_ends_in_its_exit(case, last, monkeypatch):
    calls = []

    def spy(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    for name in ("eps_split", "elim", "opt_mai"):
        monkeypatch.setattr(improved, name, spy(name, getattr(improved, name)))
    case()
    assert calls[-1] == last and calls.count(last) == 1


def test_reduction_case_covers_every_answer():
    assert sorted(_reductions()[0]) == ["minus", "plus", "unknown"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    assert _sha(CASES[name]()) == EXPECTED[name]


def test_golden_cli_run(capsys):
    assert _sha(_cli_run(capsys)) == EXPECTED["cli-run"]
