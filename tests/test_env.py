import copy
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

import topk_bandit.env as env_module
from topk_bandit.baselines import uniform_topk
from topk_bandit.env import (
    ArmEnvironment, ComplementEnvironment, Instance, PullTrace,
)
from topk_bandit.improved import opt_mai, opt_mai_cost
from topk_bandit.lowerbound import _CapWatchdog


def make_env(means, seed=0, K=1):
    return ArmEnvironment(Instance(np.asarray(means, dtype=float), K, 0.1, 0.1), seed=seed)


# The environment and each view of it must check pull requests alike.
VIEWS = pytest.mark.parametrize("view", [lambda env: env, ComplementEnvironment, PullTrace,
                                         lambda env: _CapWatchdog(env, 0, 10**9)],
                                ids=["env", "complement", "trace", "watchdog"])


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
    """A batch of m pulls of one arm: a one-arm ``pull_many`` request."""

    def test_zero_mean_arm_yields_zero(self):
        env = make_env([0.0, 0.5])
        assert env.pull_many([0], 100).tolist() == [0]

    def test_unit_mean_arm_is_deterministic(self):
        env = make_env([1.0, 0.5])
        assert env.pull_many([0], 57).tolist() == [57]

    def test_fair_arm_concentrates(self):
        # Hoeffding at deviation 0.003 with 1e6 pulls: tail below 1e-8.
        env = make_env([0.5], seed=123)
        s = env.pull_many([0], 10**6)[0]
        assert 0.497 <= s / 10**6 <= 0.503

    def test_counters_and_errors(self):
        env = make_env([0.3, 0.6])
        env.pull_many([0], 3)
        env.pull_many([1], 4)
        assert list(env.pull_counts) == [3, 4]
        assert env.total_pulls() == 7
        with pytest.raises(IndexError):
            env.pull_many([2], 1)
        with pytest.raises(ValueError):
            env.pull_many([0], 0)

    def test_fresh_environment_has_zero_pulls(self):
        assert make_env([0.1, 0.2]).total_pulls() == 0


@pytest.mark.parametrize("means", [[], [[0.5, 0.5], [0.5, 0.5]]], ids=["empty", "2-d"])
def test_instance_refuses_an_empty_or_2d_mean_vector(means):
    with pytest.raises(ValueError, match="means must be a non-empty 1-D vector"):
        Instance(np.asarray(means, dtype=float), 1, 0.1, 0.1)


@pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_call(monkeypatch, count, usable):
    # Platforms without sched_getaffinity count every CPU, and at least one.
    monkeypatch.delattr(env_module.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(env_module.os, "cpu_count", lambda: count)
    assert env_module._usable_cpus() == usable


def test_determinism_same_seed_same_requests():
    means = [0.2, 0.5, 0.9]
    for seed in (0, 1, 99):
        a = make_env(means, seed=seed)
        b = make_env(means, seed=seed)
        seq_a = [a.pull_many([i % 3], 5 + i).tolist() for i in range(20)]
        seq_b = [b.pull_many([i % 3], 5 + i).tolist() for i in range(20)]
        assert seq_a == seq_b
        assert np.array_equal(a.pull_counts, b.pull_counts)


def test_different_seeds_differ():
    draws = {make_env([0.5], seed=s).pull_many([0], 1000)[0] for s in range(8)}
    assert len(draws) > 1


def test_environments_on_one_seed_object_draw_its_first_two_children():
    # An environment reads its streams off the seed's key and spawns nothing
    # on it, so every environment built from one SeedSequence object draws
    # alike: rewards from the seed's child 0 (chunk j >= 1 of a wide request
    # from child j of that), spawn_rng's k-th generator from child k of its
    # child 1.  A seed that has spawned children still yields children 0 and 1.
    chunk = 2**16
    means = np.concatenate([[0.2, 0.5, 0.8], np.random.default_rng(6).random(2 * chunk)])
    narrow, wide, m = np.arange(3), np.arange(means.size), 1000
    reward_ss, algo_ss = np.random.SeedSequence(5).spawn(2)
    streams = [np.random.default_rng(reward_ss)]
    streams += [np.random.default_rng(child) for child in reward_ss.spawn(3)[1:]]
    expected = [streams[0].binomial(m, means[narrow]).tolist(),
                [s for j, g in enumerate(streams) for s in
                 g.binomial(m, means[wide[j * chunk:(j + 1) * chunk]]).tolist()],
                [np.random.default_rng(child).random(4).tolist() for child in algo_ss.spawn(2)]]

    seed = np.random.SeedSequence(5)
    envs = [make_env(means, seed=seed) for _ in range(2)]
    assert seed.n_children_spawned == 0
    seed.spawn(3)
    envs.append(make_env(means, seed=seed))
    for env in envs:
        assert [env.pull_many(narrow, m).tolist(), env.pull_many(wide, m).tolist(),
                [env.spawn_rng().random(4).tolist() for _ in range(2)]] == expected
    assert seed.n_children_spawned == 3


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


@VIEWS
@pytest.mark.parametrize("request_", [
    ([True, False], 1),              # a mask is not a list of ids
    (np.array([0.0, 1.7]), 2),
    (np.array([0, 1], dtype=object), 2),
    (np.array([[0, 1], [1, 2]]), 2),
    (np.int64(2), 3),
    ([0, 1], 2.9),
    ([0, 1], 2.0),
    ([0, 1], "2"),
    ([0, 1], None),
    ([0, 1], "x"),
    ([1], 3.5),                      # a one-arm batch takes the same checks
    ([1.7], 3),
], ids=["bool-mask", "float-ids", "object-ids", "2-d-ids", "scalar-id",
        "float-m", "integral-float-m", "str-m", "none-m", "non-numeric-str-m",
        "batch-float-m", "batch-float-arm"])
def test_rejects_non_integer_pull_requests(view, request_):
    arms, m = request_
    env, fresh = make_env([0.2, 0.5, 0.8], seed=5), make_env([0.2, 0.5, 0.8], seed=5)
    with pytest.raises(ValueError, match="integer"):
        view(env).pull_many(arms, m)
    # Rejected before anything was drawn or counted.
    assert env.total_pulls() == 0
    assert env.pull_many([0, 1, 2], 9).tolist() == fresh.pull_many([0, 1, 2], 9).tolist()


@pytest.mark.parametrize("call", [
    lambda env: Instance(np.array([0.2, 0.5, 0.8]), True, 0.1, 0.1),
    lambda env: env.pull_many([0, 1], True),
    lambda env: env.pull_many([0], True),
    lambda env: env.pull_many([True], 2),
], ids=["K", "pull-many-m", "one-arm-m", "arm"])
def test_rejects_bool_where_an_integer_is_required(call):
    # bool is a numbers.Integral, but True is not a count or an arm id.
    env, fresh = make_env([0.2, 0.5, 0.8], seed=5), make_env([0.2, 0.5, 0.8], seed=5)
    with pytest.raises(ValueError, match="integer"):
        call(env)
    assert env.total_pulls() == 0
    assert env.pull_many([0, 1, 2], 9).tolist() == fresh.pull_many([0, 1, 2], 9).tolist()


def test_one_arm_requests_draw_as_the_vector_request():
    # A one-arm request takes numpy's scalar draw, the vector request its array
    # draw; the vector request is the reference.  Requesting the ids of one
    # vector request one at a time, in order, must take the same values from
    # the reward stream and count the same pulls.  Means 0 and 1 and m up to
    # 10^6 reach every branch of numpy's Binomial sampler.
    rng = np.random.default_rng(3)
    for case in range(300):
        means = np.concatenate([[0.0, 1.0], rng.random(6)])
        a, b = make_env(means, seed=case), make_env(means, seed=case)
        for _ in range(4):
            arms = rng.integers(0, means.size, int(rng.integers(2, 12)))
            m = int(rng.choice([1, 3, 30, 1000, 10**6]))
            singles = [a.pull_many(arms[i:i + 1], m) for i in range(arms.size)]
            assert all(s.shape == (1,) and s.dtype == np.int64 for s in singles)
            assert np.concatenate(singles).tolist() == b.pull_many(arms, m).tolist()
        assert np.array_equal(a.pull_counts, b.pull_counts)


@VIEWS
@pytest.mark.parametrize("arms, m, error", [
    ([3], 2, IndexError),
    ([-1], 2, IndexError),
    ([1], 0, ValueError),
    ([1], True, ValueError),
    ([0], 2**63, ValueError),        # past an int64 counter, on the watched arm
], ids=["out-of-range-id", "negative-id", "zero-m", "bool-m", "m-2^63"])
def test_refused_one_arm_request_counts_nothing(view, arms, m, error):
    env, fresh = make_env([0.2, 0.5, 0.8], seed=5), make_env([0.2, 0.5, 0.8], seed=5)
    with pytest.raises(error):
        view(env).pull_many(arms, m)
    assert env.total_pulls() == 0
    assert env.pull_many([0, 1, 2], 9).tolist() == fresh.pull_many([0, 1, 2], 9).tolist()


@VIEWS
@pytest.mark.parametrize("arms", [[0, -1], [0, 3], [-2**62, 1]],
                         ids=["negative-id", "out-of-range-id", "large-negative-id"])
def test_refused_array_request_counts_nothing(view, arms):
    # The array path checks its ids in one unsigned pass: a negative id wraps
    # above n, so it is refused like an id past the end.
    env, fresh = make_env([0.2, 0.5, 0.8], seed=5), make_env([0.2, 0.5, 0.8], seed=5)
    with pytest.raises(IndexError):
        view(env).pull_many(arms, 2)
    assert env.total_pulls() == 0
    assert env.pull_many([0, 1, 2], 9).tolist() == fresh.pull_many([0, 1, 2], 9).tolist()


def ref_request(arms, m, n):
    """The pull-request check with no fast path: every request takes the
    conversions, then one range check."""
    arms, m = env_module._arm_ids(arms), env_module._integer("m", m, 1, 2**63 - 1)
    if arms.size == 1 and not 0 <= arms.item(0) < n or arms.size > 1 and arms.view(np.uintp).max() >= n:
        raise IndexError("arm index out of range")
    return arms, m


# env._request skips the conversions for the form every selector sends, a
# 1-D intp array and an int m in [1, 2^63 - 1].  Each request below must be
# accepted or refused, with the same error, exactly as ref_request accepts or
# refuses it, by the environment and by every view.
GATE_IDS = {
    "intp": np.array([2, 0, 2], dtype=np.intp),
    "int32": np.array([2, 0], dtype=np.int32),
    "uint64": np.array([1, 2], dtype=np.uint64),
    "list": [2, 1],
    "bool-mask": np.array([True, False, True]),
    "2-d": np.array([[0, 1], [1, 2]], dtype=np.intp),
    "empty": np.array([], dtype=np.intp),
    "one-id": np.array([1], dtype=np.intp),
    "id-minus-one": np.array([0, -1], dtype=np.intp),
    "one-id-minus-one": np.array([-1], dtype=np.intp),
    "id-n": np.array([0, 3], dtype=np.intp),
    "one-id-n": np.array([3], dtype=np.intp),
}
GATE_MS = {"int": 3, "np-int64": np.int64(3), "bool": True, "float": 3.0, "zero": 0, "2^63": 2**63}


def _outcome(call):
    """("ok", value) or the exception's type and message."""
    try:
        return "ok", call()
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


@VIEWS
@pytest.mark.parametrize("m_name", list(GATE_MS))
@pytest.mark.parametrize("ids_name", list(GATE_IDS))
def test_pull_gate_accepts_and_refuses_as_request_does(view, ids_name, m_name):
    arms, m = GATE_IDS[ids_name], GATE_MS[m_name]
    means = [0.2, 0.5, 0.8]
    env, twin = make_env(means, seed=5), make_env(means, seed=5)
    expected = _outcome(lambda: ref_request(arms, m, 3))
    admitted = _outcome(lambda: env_module._request(arms, m, 3))
    if expected[0] == "ok":
        (got_arms, got_m), (ref_arms, ref_m) = admitted[1], expected[1]
        assert got_arms.tolist() == ref_arms.tolist() and got_m == ref_m and type(got_m) is int
        # The selector form is returned as given.
        assert got_arms.dtype == np.intp and (got_arms is arms or ids_name not in ("intp", "one-id"))
    else:
        assert admitted == expected
    got = _outcome(lambda: view(env).pull_many(arms, m))
    if expected[0] == "ok":
        # Drawn and counted as the checked request it is.
        assert got[0] == "ok"
        assert got[1].tolist() == view(twin).pull_many(*expected[1]).tolist()
    else:
        assert got == expected
        assert env.total_pulls() == 0 and not env.pull_counts.any()
    # Counters, total and stream position as the twin's.
    assert env.pull_counts.tolist() == twin.pull_counts.tolist()
    assert env.total_pulls() == twin.total_pulls()
    assert env.pull_many([0, 1, 2], 9).tolist() == twin.pull_many([0, 1, 2], 9).tolist()


def test_pull_gate_table_has_accepted_and_refused_requests():
    outcomes = [_outcome(lambda: ref_request(arms, m, 3))[0]
                for arms in GATE_IDS.values() for m in GATE_MS.values()]
    assert outcomes.count("ok") == 12
    assert outcomes.count(IndexError) == 8 and outcomes.count(ValueError) == 52


@VIEWS
@pytest.mark.parametrize("arms", [[], np.empty(0, dtype=np.intp)], ids=["list", "intp"])
def test_empty_request_draws_and_counts_nothing(view, arms):
    # A fresh environment is the reference: an empty request that drew from
    # the reward stream would leave this one's next draw unlike it.
    env, fresh = make_env([0.2, 0.5, 0.8], seed=5), make_env([0.2, 0.5, 0.8], seed=5)
    sums = view(env).pull_many(arms, 3)
    assert type(sums) is np.ndarray and sums.dtype == np.int64 and sums.shape == (0,)
    assert env.total_pulls() == 0 and not env.pull_counts.any()
    assert env.pull_many([0, 1, 2], 9).tolist() == fresh.pull_many([0, 1, 2], 9).tolist()


def test_pull_totals_are_exact_past_2_63():
    # Each counter fits an int64, but the totals of a run are Python ints.
    means = np.linspace(0.9, 0.1, 1000)
    env = make_env(means, K=100)
    res = uniform_topk(env, 100, 10**19)
    assert res.total_pulls == env.total_pulls() == 10**19
    env = make_env(means, K=100)
    opt_mai(env, range(1000), 100, 1e-8, 0.01)
    assert env.total_pulls() == opt_mai_cost(1000, 1e-8, 0.01) > 2**63


@pytest.mark.parametrize("view", [lambda env: env, ComplementEnvironment, PullTrace],
                         ids=["env", "complement", "trace"])
def test_request_past_an_int64_counter_is_refused(view):
    # A counter may reach 2^63 - 1 and no further; a refused request draws
    # and counts nothing.
    env, fresh = make_env([0.2, 0.5, 0.8], seed=5), make_env([0.2, 0.5, 0.8], seed=5)
    for e in (env, fresh):
        e.pull_many([0, 1], 2**62)
        e.pull_many([2], 2**63 - 1)
    for arms, m in [([0, 1], 2**62), ([0, 0], 2**61), ([2], 1), ([0, 2], 1)]:
        with pytest.raises(ValueError, match=f"^m must keep every pull count <= 2\\^63 - 1, got {m}$"):
            view(env).pull_many(arms, m)
    assert env.pull_counts.tolist() == [2**62, 2**62, 2**63 - 1]
    assert env.total_pulls() == 2**64 - 1
    # The stream is where it was: the next request, which fills both
    # counters exactly, draws what the twin draws.
    assert env.pull_many([0, 1], 2**62 - 1).tolist() == fresh.pull_many([0, 1], 2**62 - 1).tolist()
    assert env.pull_counts.tolist() == [2**63 - 1] * 3
    assert env.total_pulls() == 3 * (2**63 - 1)


def test_batch_distribution_chi_square():
    # Empirical law of a one-arm batch of m pulls across seeds matches Binomial(m, theta).
    m, theta, n_seeds = 5, 0.3, 100_000
    counts = np.zeros(m + 1, dtype=int)
    for seed in range(n_seeds):
        counts[ArmEnvironment(Instance(np.array([theta]), 1, 0.1, 0.1), seed).pull_many([0], m)[0]] += 1
    expected = stats.binom.pmf(np.arange(m + 1), m, theta) * n_seeds
    _, p = stats.chisquare(counts, expected)
    assert p > 0.001


def test_later_chunk_distribution_chi_square():
    # A request of more than 2^16 ids draws its second chunk from a stream of
    # its own: its law is Binomial(m, theta) too, and it is not the first
    # chunk over again.
    m, theta, chunk = 5, 0.3, 2**16
    sums = make_env([theta], seed=0).pull_many(np.zeros(2 * chunk, dtype=np.intp), m)
    first, second = sums[:chunk], sums[chunk:]
    counts = np.bincount(second, minlength=m + 1)
    expected = stats.binom.pmf(np.arange(m + 1), m, theta) * chunk
    _, p = stats.chisquare(counts, expected)
    assert p > 0.001
    assert not np.array_equal(first, second)


def test_wide_request_sums_do_not_depend_on_the_thread_count(monkeypatch):
    # The chunks of a wide request fix its streams; one, two and four usable
    # CPUs give the same sums, counters and stream positions.  The caller
    # draws beside a pool of one helper per further usable CPU, and on one
    # CPU there is none.
    pools = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(env_module, "ThreadPoolExecutor", Recorder)
    means = np.concatenate([[0.0, 1.0], np.random.default_rng(8).random(998)])
    arms = np.random.default_rng(9).integers(0, means.size, 4 * 2**16 + 3)
    seen = []
    for threads in (1, 2, 4):
        monkeypatch.setattr(env_module, "_usable_cpus", lambda threads=threads: threads)
        env = make_env(means, seed=11)
        sums = [env.pull_many(arms, m).tolist() for m in (3, 10**6)]
        sums.append(env.pull_many(arms[:2**16], 7).tolist())
        streams = [g.bit_generator.state for g in env._chunk_rngs]
        seen.append((sums, streams, env.pull_counts.tolist(), env.total_pulls()))
    assert pools == [1, 1, 3, 3]
    assert seen[0] == seen[1] == seen[2]
    assert len(seen[0][1]) == 5


def ref_wide_pull(env, arms, m):
    """A wide request as the environment served it while it counted pulls
    after the draws: every chunk drawn from its own generator, then one
    serial ``np.add.at`` over all ids (the thread count does not change the
    chunks' streams, so they are drawn here in order)."""
    chunks = -(-arms.size // env_module._CHUNK)
    while len(env._chunk_rngs) < chunks:
        env._chunk_rngs.append(np.random.default_rng(
            env_module._reseeded(env._seed, 0, len(env._chunk_rngs))))
    sums = np.empty(arms.size, dtype=np.int64)
    for j in range(chunks):
        part = slice(j * env_module._CHUNK, (j + 1) * env_module._CHUNK)
        sums[part] = env._chunk_rngs[j].binomial(m, env.instance.means[arms[part]])
    np.add.at(env.pull_counts, arms, m)
    env._total += m * arms.size
    return sums


def _wide_state(env):
    return env.pull_counts.tolist(), env.total_pulls(), [g.bit_generator.state for g in env._chunk_rngs]


@pytest.mark.parametrize("cpus", [1, 2])
def test_wide_request_counts_as_a_serial_add_after_the_draws(monkeypatch, cpus):
    # Each thread counts a chunk's pulls as it draws it.  Id 0 recurs in
    # chunks 0 and 3, so two chunks add to one counter.
    monkeypatch.setattr(env_module, "_usable_cpus", lambda: cpus)
    chunk = 2**16
    means = np.random.default_rng(12).random(50)
    arms = np.random.default_rng(13).integers(1, means.size, 4 * chunk + 9)
    repeats = [0, 5, 3 * chunk + 2, 3 * chunk + 7]
    arms[repeats] = 0
    env, ref = make_env(means, seed=21), make_env(means, seed=21)
    for m in (3, 10**6, 3):
        assert env.pull_many(arms, m).tolist() == ref_wide_pull(ref, arms, m).tolist()
        assert _wide_state(env) == _wide_state(ref)
    assert env.pull_counts[0] == len(repeats) * (2 * 3 + 10**6)


def test_wide_request_counts_every_chunk_under_thread_contention(monkeypatch):
    # Four threads on one request, more than a 2-core host has, and a 1 us
    # switch interval: every chunk adds to the same five counters, so an
    # update lost between threads would leave one short.
    monkeypatch.setattr(env_module, "_usable_cpus", lambda: 4)
    means = np.random.default_rng(15).random(5)
    arms = np.arange(8 * 2**16) % means.size
    env, done = make_env(means, seed=3), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: done.append(env.pull_many(arms, 3)))
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(done) == 1
    assert env.pull_counts.tolist() == (3 * np.bincount(arms)).tolist()
    assert env.total_pulls() == 3 * arms.size


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("bad", ["id-n", "id-minus-one", "m-past-a-counter"])
def test_refused_wide_request_changes_nothing(monkeypatch, cpus, bad):
    # A refused wide request counts no chunk and moves no chunk's stream.
    monkeypatch.setattr(env_module, "_usable_cpus", lambda: cpus)
    means = np.random.default_rng(14).random(50)
    arms = np.arange(3 * 2**16 + 1) % means.size
    env, fresh = make_env(means, seed=5), make_env(means, seed=5)
    for e in (env, fresh):
        e.pull_many(arms, 5)
    request, m, error = arms.copy(), 3, IndexError
    if bad == "id-n":
        request[-1] = means.size
    elif bad == "id-minus-one":
        request[2**16 + 1] = -1
    else:  # each id is listed about 3 900 times
        m, error = 2**63 // 1000, ValueError
    with pytest.raises(error):
        env.pull_many(request, m)
    assert _wide_state(env) == _wide_state(fresh)
    assert env.pull_many(arms, 7).tolist() == fresh.pull_many(arms, 7).tolist()


def test_complement_environment_flips_rewards():
    inner = make_env([0.8, 0.1], seed=7)
    shadow = make_env([0.8, 0.1], seed=7)
    comp = ComplementEnvironment(inner)
    for arm in (0, 1):
        got = comp.pull_many([arm], 40)
        assert got.tolist() == (40 - shadow.pull_many([arm], 40)).tolist()
    assert np.array_equal(comp.pull_counts, shadow.pull_counts)
    np.testing.assert_allclose(comp.instance.means, [0.2, 0.9])


def test_complement_distribution():
    # Complemented draws follow Binomial(m, 1 - theta).
    m, theta, n_seeds = 4, 0.7, 50_000
    counts = np.zeros(m + 1, dtype=int)
    for seed in range(n_seeds):
        env = ComplementEnvironment(make_env([theta], seed=seed))
        counts[env.pull_many([0], m)[0]] += 1
    expected = stats.binom.pmf(np.arange(m + 1), m, 1 - theta) * n_seeds
    _, p = stats.chisquare(counts, expected)
    assert p > 0.001


@pytest.mark.parametrize("view", [ComplementEnvironment, PullTrace,
                                  lambda env: _CapWatchdog(env, 0, 10**9)],
                         ids=["complement", "trace", "watchdog"])
def test_view_forwards_what_it_does_not_define(view):
    env = make_env([0.2, 0.5, 0.8], seed=5)
    v = view(env)
    assert v.n == 3
    assert v.pull_counts is env.pull_counts
    v.pull_many([0, 2], 4)
    assert v.total_pulls() == env.total_pulls() == 8
    # A copy is built before its wrapped environment is set; it must still
    # pull through the same environment.
    c = copy.copy(v)
    c.pull_many([1], 3)
    assert c.pull_counts is env.pull_counts
    assert env.pull_counts.tolist() == [4, 3, 4]


def test_spawn_rng_is_deterministic_and_fresh():
    a, b = make_env([0.5], seed=42), make_env([0.5], seed=42)
    assert a.spawn_rng().integers(1 << 30) == b.spawn_rng().integers(1 << 30)
    # successive spawns from one environment give distinct streams
    first, second = a.spawn_rng(), a.spawn_rng()
    assert first.integers(1 << 62) != second.integers(1 << 62)

