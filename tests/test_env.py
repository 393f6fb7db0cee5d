import numpy as np
import pytest
from scipy import stats

from topk_bandit.env import (
    ArmEnvironment, ComplementEnvironment, EmpiricalState, Instance, PullTrace,
)
from topk_bandit.lowerbound import _CapWatchdog


def make_env(means, seed=0, K=1):
    return ArmEnvironment(Instance(np.asarray(means, dtype=float), K, 0.1, 0.1), seed=seed)


class TestInstance:
    def test_rejects_out_of_range_means(self):
        with pytest.raises(ValueError):
            Instance(np.array([0.5, 1.2]), 1, 0.1, 0.1)
        with pytest.raises(ValueError):
            Instance(np.array([-0.1]), 1, 0.1, 0.1)

    def test_rejects_bad_k_eps_delta(self):
        with pytest.raises(ValueError):
            Instance(np.array([0.5]), 0, 0.1, 0.1)
        with pytest.raises(ValueError):
            Instance(np.array([0.5]), 2, 0.1, 0.1)
        with pytest.raises(ValueError):
            Instance(np.array([0.5]), 1, 0.0, 0.1)
        with pytest.raises(ValueError):
            Instance(np.array([0.5]), 1, 0.1, 1.0)

    @pytest.mark.parametrize("means, K, message", [
        ([0.5, np.nan], 1, "number in"),
        ([np.inf, 0.5], 1, "number in"),
        ([0.5, -np.inf], 1, "number in"),
        ([0.5, 0.2, 0.1], 1.7, "integer"),
        ([0.5, 0.2, 0.1], 2.0, "integer"),
        ([0.5, 0.2, 0.1], "2", "integer"),
    ])
    def test_rejects_non_finite_means_and_non_integral_k(self, means, K, message):
        with pytest.raises(ValueError, match=message):
            Instance(np.array(means), K, 0.1, 0.1)

    def test_accepts_python_and_numpy_integer_k(self):
        for K in (2, np.int64(2), np.int32(2), np.uint8(2)):
            inst = Instance(np.array([0.5, 0.2, 0.1]), K, 0.1, 0.1)
            assert inst.K == 2 and type(inst.K) is int

    def test_means_frozen(self):
        inst = Instance(np.array([0.5, 0.2]), 1, 0.1, 0.1)
        with pytest.raises(ValueError):
            inst.means[0] = 0.9


class TestPullBatch:
    def test_zero_mean_arm_yields_zero(self):
        env = make_env([0.0, 0.5])
        assert env.pull_batch(0, 100) == 0

    def test_unit_mean_arm_is_deterministic(self):
        env = make_env([1.0, 0.5])
        assert env.pull_batch(0, 57) == 57

    def test_fair_arm_concentrates(self):
        # Hoeffding at deviation 0.003 with 1e6 pulls: tail below 1e-8.
        env = make_env([0.5], seed=123)
        s = env.pull_batch(0, 10**6)
        assert 0.497 <= s / 10**6 <= 0.503

    def test_counters_and_errors(self):
        env = make_env([0.3, 0.6])
        env.pull_batch(0, 3)
        env.pull_batch(1, 4)
        assert list(env.pull_counts) == [3, 4]
        assert env.total_pulls() == 7
        with pytest.raises(IndexError):
            env.pull_batch(2, 1)
        with pytest.raises(ValueError):
            env.pull_batch(0, 0)

    def test_fresh_environment_has_zero_pulls(self):
        assert make_env([0.1, 0.2]).total_pulls() == 0


def test_determinism_same_seed_same_requests():
    means = [0.2, 0.5, 0.9]
    for seed in (0, 1, 99):
        a = make_env(means, seed=seed)
        b = make_env(means, seed=seed)
        seq_a = [a.pull_batch(i % 3, 5 + i) for i in range(20)]
        seq_b = [b.pull_batch(i % 3, 5 + i) for i in range(20)]
        assert seq_a == seq_b
        assert np.array_equal(a.pull_counts, b.pull_counts)


def test_different_seeds_differ():
    draws = {make_env([0.5], seed=s).pull_batch(0, 1000) for s in range(8)}
    assert len(draws) > 1


def test_pull_many_matches_counters():
    env = make_env([0.1, 0.4, 0.8])
    sums = env.pull_many(np.array([0, 2]), 50)
    assert sums.shape == (2,)
    assert list(env.pull_counts) == [50, 0, 50]
    assert env.total_pulls() == 100
    # An arm listed twice is pulled twice; an empty request (a float array
    # once converted) pulls nothing.
    assert env.pull_many([1, 1, 2], 3).shape == (3,)
    assert list(env.pull_counts) == [50, 6, 53]
    assert env.pull_many([], 3).shape == (0,)
    assert env.total_pulls() == 109


@pytest.mark.parametrize("view", [lambda env: env, ComplementEnvironment, PullTrace,
                                  lambda env: _CapWatchdog(env, 0, 10**9)],
                         ids=["env", "complement", "trace", "watchdog"])
@pytest.mark.parametrize("request_", [
    ("many", [True, False], 1),              # a mask is not a list of ids
    ("many", np.array([0.0, 1.7]), 2),
    ("many", np.array([0, 1], dtype=object), 2),
    ("many", np.array([[0, 1], [1, 2]]), 2),
    ("many", np.int64(2), 3),
    ("many", [0, 1], 2.9),
    ("many", [0, 1], 2.0),
    ("many", [0, 1], "2"),
    ("batch", 1, 3.5),
    ("batch", 1.7, 3),
], ids=["bool-mask", "float-ids", "object-ids", "2-d-ids", "scalar-id",
        "float-m", "integral-float-m", "str-m", "batch-float-m", "batch-float-arm"])
def test_rejects_non_integer_pull_requests(view, request_):
    kind, arms, m = request_
    env, fresh = make_env([0.2, 0.5, 0.8], seed=5), make_env([0.2, 0.5, 0.8], seed=5)
    pull = view(env).pull_many if kind == "many" else view(env).pull_batch
    with pytest.raises(ValueError, match="integer"):
        pull(arms, m)
    # Rejected before anything was drawn or counted.
    assert env.total_pulls() == 0
    assert env.pull_many([0, 1, 2], 9).tolist() == fresh.pull_many([0, 1, 2], 9).tolist()


@pytest.mark.parametrize("call", [
    lambda env: Instance(np.array([0.2, 0.5, 0.8]), True, 0.1, 0.1),
    lambda env: env.pull_many([0, 1], True),
    lambda env: env.pull_batch(0, True),
    lambda env: env.pull_batch(True, 2),
], ids=["K", "pull-many-m", "pull-batch-m", "arm"])
def test_rejects_bool_where_an_integer_is_required(call):
    # bool is a numbers.Integral, but True is not a count or an arm id.
    env, fresh = make_env([0.2, 0.5, 0.8], seed=5), make_env([0.2, 0.5, 0.8], seed=5)
    with pytest.raises(ValueError, match="integer"):
        call(env)
    assert env.total_pulls() == 0
    assert env.pull_many([0, 1, 2], 9).tolist() == fresh.pull_many([0, 1, 2], 9).tolist()


def test_scalar_pull_batch_draws_as_a_one_arm_pull_many():
    # Views answer pull_batch through pull_many, so a scalar draw and a
    # size-1 array draw must take the same value from the reward stream.
    # Small and large m reach both of numpy's Binomial samplers.
    rng = np.random.default_rng(3)
    means = np.concatenate([[0.0, 1.0], rng.random(6)])
    for seed in range(200):
        a, b = make_env(means, seed=seed), make_env(means, seed=seed)
        for arm, m in zip(rng.integers(0, means.size, 25), np.exp(rng.uniform(0, 14, 25)).astype(int) + 1):
            assert a.pull_batch(arm, m) == int(b.pull_many([arm], m)[0])
        assert np.array_equal(a.pull_counts, b.pull_counts)


def test_batch_distribution_chi_square():
    # Empirical law of pull_batch(., m) across seeds matches Binomial(m, theta).
    m, theta, n_seeds = 5, 0.3, 100_000
    counts = np.zeros(m + 1, dtype=int)
    for seed in range(n_seeds):
        counts[ArmEnvironment(Instance(np.array([theta]), 1, 0.1, 0.1), seed).pull_batch(0, m)] += 1
    expected = stats.binom.pmf(np.arange(m + 1), m, theta) * n_seeds
    _, p = stats.chisquare(counts, expected)
    assert p > 0.001


def test_complement_environment_flips_rewards():
    inner = make_env([0.8, 0.1], seed=7)
    shadow = make_env([0.8, 0.1], seed=7)
    comp = ComplementEnvironment(inner)
    for arm in (0, 1):
        got = comp.pull_batch(arm, 40)
        assert got == 40 - shadow.pull_batch(arm, 40)
    assert np.array_equal(comp.pull_counts, shadow.pull_counts)
    np.testing.assert_allclose(comp.instance.means, [0.2, 0.9])


def test_complement_distribution():
    # Complemented draws follow Binomial(m, 1 - theta).
    m, theta, n_seeds = 4, 0.7, 50_000
    counts = np.zeros(m + 1, dtype=int)
    for seed in range(n_seeds):
        env = ComplementEnvironment(make_env([theta], seed=seed))
        counts[env.pull_batch(0, m)] += 1
    expected = stats.binom.pmf(np.arange(m + 1), m, 1 - theta) * n_seeds
    _, p = stats.chisquare(counts, expected)
    assert p > 0.001


def test_spawn_rng_is_deterministic_and_fresh():
    a, b = make_env([0.5], seed=42), make_env([0.5], seed=42)
    assert a.spawn_rng().integers(1 << 30) == b.spawn_rng().integers(1 << 30)
    # successive spawns from one environment give distinct streams
    first, second = a.spawn_rng(), a.spawn_rng()
    assert first.integers(1 << 62) != second.integers(1 << 62)


class TestEmpiricalState:
    def test_means_and_bernoulli_bound(self):
        st = EmpiricalState.zeros(4)
        st.add(0, 10, 7)
        st.add_many(np.array([1, 2]), 4, np.array([4, 0]))
        means = st.means()
        assert means[0] == pytest.approx(0.7)
        assert means[1] == 1.0
        assert means[2] == 0.0
        assert np.isnan(means[3])  # no observations
        assert np.all(st.sums <= st.counts)
