"""A model of the reward channel, checked against the environment.

A hypothesis state machine makes pull requests through ``ArmEnvironment`` and
its three views (``ComplementEnvironment``, ``PullTrace`` and the lower-bound
reduction's ``_CapWatchdog``): well-formed ones, and ones with repeated,
empty, one-arm, negative or past-the-end ids, boolean masks, float or bool m,
and m near 2^63, and wide requests of 2^16 - 1, 2^16 and more ids with the
same arm on both sides of a chunk boundary.  ``Model`` states the contract in
plain Python: it keeps each counter and the total as Python ints, decides from
the request alone whether it is refused and with what, and draws from its own
generators on the same seed.  After every step the sums, the counters, the
total and the position of every reward stream must agree with the model, so a
refused request must have changed nothing.
"""

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from topk_bandit.env import ArmEnvironment, ComplementEnvironment, Instance, PullTrace
from topk_bandit.lowerbound import _CapWatchdog, _GiveUp

MAX = 2**63 - 1  # the most pulls one counter holds
CHUNK = 2**16  # a request draws ids j * CHUNK up to (j + 1) * CHUNK from stream j

# How a request passes its ids.  The first four are integer arrays or a list;
# a non-empty mask, float or object array is refused, and so are a 2-D array
# and a scalar whatever they hold.
GOOD_ID_FORMS = ("list", "int64", "int32", "uint64")
BAD_ID_FORMS = ("mask", "float", "object", "2-d", "scalar")
# How a request passes m: only an integer type (not bool) in [1, 2^63 - 1] is
# a count.
M_KINDS = ("int", "int64", "uint64", "float", "bool", "str")


def id_array(ids, form):
    """The ids, Python ints, passed in the given form."""
    if form == "int32" and all(-2**31 <= a < 2**31 for a in ids):
        return np.array(ids, dtype=np.int32)
    if form in ("list", "int32"):  # ids that do not fit an int32 go as a list
        return list(ids)
    if form == "int64":
        return np.array(ids, dtype=np.int64)
    if form == "uint64":
        return np.array(ids, dtype=np.int64).astype(np.uint64)
    if form == "mask":
        return np.array([i % 2 == 0 for i in ids], dtype=bool)
    if form == "float":
        return np.array(ids, dtype=float)
    if form == "object":
        return np.array(ids, dtype=object)
    if form == "2-d":
        return np.array(ids, dtype=np.int64).reshape(1, -1)
    return np.int64(ids[0] if ids else 0)  # "scalar"


def m_value(m, kind):
    """m passed as the given kind; a numpy type too narrow for it leaves it a
    Python int, which is a count as well."""
    if kind == "int64" and -2**63 <= m <= MAX:
        return np.int64(m)
    if kind == "uint64" and 0 <= m < 2**64:
        return np.uint64(m)
    if kind == "float":
        return float(m)
    if kind == "bool":
        return m % 2 == 1
    if kind == "str":
        return str(m)
    return m


class Model:
    """The reward channel's contract, with Python ints for every count."""

    def __init__(self, means, seed):
        self.means = [float(p) for p in means]
        self.counts = [0] * len(self.means)
        self.total = 0
        self.seed = seed
        reward_ss, _ = np.random.SeedSequence(seed).spawn(2)
        self.rngs = [np.random.default_rng(reward_ss)]

    def stream(self, j):
        """Chunk j's generator: the reward stream for j = 0, and for j >= 1
        one seeded from child j of the reward seed sequence."""
        while len(self.rngs) <= j:
            k = len(self.rngs)
            child = np.random.SeedSequence(self.seed).spawn(2)[0].spawn(k + 1)[k]
            self.rngs.append(np.random.default_rng(child))
        return self.rngs[j]

    def refusal(self, ids, form, m, kind, watch=None):
        """The exception type a request is refused with, or None.  ``ids`` are
        the ids as Python ints before any conversion; ``watch`` is a
        watchdog's (arm, cap)."""
        if form in ("2-d", "scalar") or (form in BAD_ID_FORMS and ids):
            return ValueError
        if kind not in ("int", "int64", "uint64") or not 1 <= m <= MAX:
            return ValueError
        if any(not 0 <= a < len(self.means) for a in ids):
            return IndexError
        times = Counter(ids)
        if watch is not None:
            arm, cap = watch
            if times[arm] and self.counts[arm] + times[arm] * m > cap:
                return _GiveUp
        if any(self.counts[a] + t * m > MAX for a, t in times.items()):
            return ValueError
        return None

    def pull(self, ids, m):
        """Draw and count an accepted request; returns its reward sums."""
        sums = []
        for start in range(0, len(ids), CHUNK):
            part = ids[start:start + CHUNK]
            draws = self.stream(start // CHUNK).binomial(m, [self.means[a] for a in part])
            sums += [int(s) for s in draws]
        for a, t in Counter(ids).items():
            self.counts[a] += t * m
        self.total += m * len(ids)
        return sums


ids_strategy = st.lists(st.one_of(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
                                  st.sampled_from([-1, -2, -2**62, 7, 9, 2**40])),
                        max_size=8)
m_strategy = st.one_of(st.integers(1, 40), st.integers(1, 10**6),
                       st.sampled_from([0, -1, -2**63, 2**31, 2**61, 2**62, MAX - 1, MAX, MAX + 1, 2**64]))
VIEWS = ("env", "complement", "trace", "watchdog")


class ChannelMachine(RuleBasedStateMachine):
    @initialize(n=st.integers(1, 7), seed=st.integers(0, 2**32),
                inner=st.lists(st.floats(0, 1), min_size=7, max_size=7),
                watched=st.integers(0, 6), cap=st.sampled_from([0, 30, 10**6, 2**62, MAX]))
    def start(self, n, seed, inner, watched, cap):
        # Means 0 and 1 reach numpy's degenerate Binomial branches.
        means = np.array(([0.0, 1.0] + inner)[:n])
        self.env = ArmEnvironment(Instance(means, 1, 0.1, 0.1), seed)
        self.model = Model(means, seed)
        self.trace = PullTrace(self.env)
        self.watch = (watched % n, cap)
        self.views = {"env": self.env, "complement": ComplementEnvironment(self.env),
                      "trace": self.trace, "watchdog": _CapWatchdog(self.env, *self.watch)}

    def request(self, view, ids, form, m, kind):
        arms, m_arg = id_array(ids, form), m_value(m, kind)
        events = len(self.trace.events)
        refused = self.model.refusal(ids, form, m, kind, self.watch if view == "watchdog" else None)
        try:
            sums = self.views[view].pull_many(arms, m_arg)
        except (ValueError, IndexError, _GiveUp) as exc:
            assert refused is not None and type(exc) is refused, (exc, refused)
            assert len(self.trace.events) == events
            return
        assert refused is None, refused
        want = self.model.pull(ids, m)
        assert sums.dtype == np.int64 and sums.shape == (len(ids),)
        if view == "complement":
            want = [m - s for s in want]
        assert sums.tolist() == want
        if view == "trace":
            arms_seen, m_seen, sums_seen = self.trace.events[-1]
            assert arms_seen.tolist() == ids and m_seen == m and type(m_seen) is int
            assert sums_seen.tolist() == want
        else:
            assert len(self.trace.events) == events

    @rule(view=st.sampled_from(VIEWS), ids=ids_strategy, form=st.sampled_from(GOOD_ID_FORMS),
          m=m_strategy, kind=st.sampled_from(("int", "int", "int64", "uint64")))
    def pull(self, view, ids, form, m, kind):
        self.request(view, ids, form, m, kind)

    @rule(view=st.sampled_from(VIEWS), ids=ids_strategy, form=st.sampled_from(BAD_ID_FORMS),
          m=m_strategy, kind=st.sampled_from(M_KINDS))
    def malformed(self, view, ids, form, m, kind):
        self.request(view, ids, form, m, kind)

    @rule(view=st.sampled_from(VIEWS), ids=ids_strategy, m=m_strategy,
          kind=st.sampled_from(("float", "bool", "str")))
    def non_integer_m(self, view, ids, m, kind):
        self.request(view, ids, "int64", m, kind)

    @precondition(lambda self: any(self.model.counts))
    @rule(view=st.sampled_from(VIEWS), pick=st.integers(0, 6), times=st.integers(1, 2),
          extra=st.sampled_from([-1, 0, 1]))
    def fill_a_counter(self, view, pick, times, extra):
        # Ask for the exact room left on a pulled arm's counter, or one more.
        pulled = [a for a, c in enumerate(self.model.counts) if c]
        arm = pulled[pick % len(pulled)]
        m = (MAX - self.model.counts[arm]) // times + extra
        self.request(view, [arm] * times, "int64", m, "int")

    @rule(times=st.integers(1, 3), other=st.booleans(), extra=st.sampled_from([-1, 0, 1]))
    def reach_the_cap(self, times, other, extra):
        # Ask the watchdog for the watched arm's pulls up to its cap, or one more.
        arm, cap = self.watch
        m = (cap - self.model.counts[arm]) // times + extra
        ids = [arm] * times + [(arm + 1) % len(self.model.means)] * other
        self.request("watchdog", ids, "int64", m, "int")

    @rule(view=st.sampled_from(VIEWS), size=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]),
          seed=st.integers(0, 2**32), m=st.sampled_from([1, 7, 1000, 2**40]),
          spoil=st.sampled_from([None, None, "id", "room"]))
    def wide(self, view, size, seed, m, spoil):
        # Ids drawn from a few arms repeat within and across chunks; the first
        # chunk boundary has the same arm on both sides.  A spoilt request has
        # an id past the end in its last chunk, or an m no counter has room for.
        n = len(self.model.means)
        ids = np.random.default_rng(seed).integers(0, n, size)
        ids[CHUNK - 1:CHUNK + 1] = ids[0]
        ids = ids.tolist()
        if spoil == "id":
            ids[-1] = n
        elif spoil == "room":
            m = MAX // (size // n) + 1
        self.request(view, ids, "int64", m, "int")

    @rule()
    def spawn(self):
        # Algorithmic randomness comes from another stream.
        self.env.spawn_rng().random(3)

    @invariant()
    def agrees(self):
        assert self.env.pull_counts.tolist() == self.model.counts
        assert type(self.env.total_pulls()) is int and self.env.total_pulls() == self.model.total
        streams = [g.bit_generator.state for g in self.env._chunk_rngs]
        assert streams == [g.bit_generator.state for g in self.model.rngs]


ChannelMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=25, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestChannel = ChannelMachine.TestCase
