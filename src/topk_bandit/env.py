"""Seeded stochastic arm environments with exact pull accounting.

Every algorithm in this package observes rewards exclusively through an
:class:`ArmEnvironment`.  Rewards are Bernoulli; a batch of ``m`` pulls of one
arm is drawn as a single Binomial(m, theta) sample, which is distributionally
identical to ``m`` independent Bernoulli draws and keeps multi-million-pull
simulations fast.  Two environments built from the same (instance, seed), one
``SeedSequence`` object included, and issued the same sequence of pull
requests return bit-identical reward sums.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Instance",
    "ArmEnvironment",
    "EnvironmentView",
    "ComplementEnvironment",
    "PullTrace",
]

# The most pulls an int64 counter holds, 2^63 - 1.
_MAX_PULLS = int(np.iinfo(np.int64).max)
# A request of more ids than this draws in chunks of this many, each chunk
# from its own stream.
_CHUNK = 1 << 16
_INTP = np.dtype(np.intp)


@dataclass(frozen=True)
class Instance:
    """Ground-truth selection task: arm means plus (K, epsilon, delta).

    The mean vector is stored in input order (not necessarily sorted) and is
    the hidden truth against which regret is judged.

    Args:
        means: Per-arm success probabilities, each in [0, 1].
        K: Number of arms to select, an integer with 1 <= K <= len(means).
        epsilon: Regret tolerance, > 0.
        delta: Failure probability budget, in (0, 1).
    """

    means: np.ndarray
    K: int
    epsilon: float
    delta: float

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64).copy()
        if means.ndim != 1 or means.size == 0:
            raise ValueError("means must be a non-empty 1-D vector")
        if not np.all((means >= 0.0) & (means <= 1.0)):  # NaN fails both
            raise ValueError("every mean must be a number in [0, 1]")
        K = _integer("K", self.K, 1, means.size)
        _positive("epsilon", self.epsilon)
        _open("delta", self.delta)
        means.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "K", K)

    @property
    def n(self) -> int:
        return self.means.size


def _arm_ids(arms) -> np.ndarray:
    """``arms`` as an intp array; ValueError unless it is a 1-D array of
    integers (not a mask, a scalar or a set, say) or an empty list."""
    arms = np.asarray(arms)
    if arms.ndim != 1 or (arms.size and arms.dtype.kind not in "iu"):
        raise ValueError(f"arm ids must be a 1-D array of integers, "
                         f"got shape {arms.shape} and dtype {arms.dtype}")
    return arms.astype(np.intp, copy=False)


def _integer(name: str, v, lo: int, hi: int = None) -> int:
    """``v`` as an int; ValueError unless it is an integer in [lo, hi] (no
    upper bound when hi is None).  A float or a bool is refused: a float
    would be truncated silently, and True is not a count."""
    # The type test first: the ABC check is far slower.  A bool is Integral,
    # but never a count or id.
    is_int = type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))
    if not (is_int and lo <= v and (hi is None or v <= hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}, got {v!r}")
    return int(v)


def _request(arms, m, n: int):
    """A pull request as (intp ids, int m); ValueError unless m is an integer
    in [1, 2^63 - 1], IndexError unless each id (repeats allowed) is in [0, n)."""
    arms, m = _arm_ids(arms), _integer("m", m, 1, _MAX_PULLS)
    # One id (cb-ar's step) takes a scalar test, more one unsigned max: a negative id wraps above n.
    if arms.size == 1 and not 0 <= arms.item(0) < n or arms.size > 1 and arms.view(np.uintp).max() >= n:
        raise IndexError("arm index out of range")
    return arms, m


def _admit(arms, m, n: int):
    """``_request(arms, m, n)``, with one test for the form every selector
    sends: a non-empty 1-D intp array of ids in [0, n), checked as
    ``_request`` checks them (one id by a scalar test, more by one unsigned
    max), and an int m in [1, 2^63 - 1].  Any other request, an out-of-range
    id in that form included, takes ``_request``'s checks and refusals."""
    # Built-in dtypes are singletons; an equal descriptor that is another
    # object (an unpickled array's, say) only takes the longer way.
    if (type(arms) is np.ndarray and arms.dtype is _INTP and arms.ndim == 1
            and type(m) is int and 0 < m <= _MAX_PULLS
            and (0 <= arms.item(0) < n if arms.size == 1
                 else arms.size and np.maximum.reduce(arms.view(np.uintp)) < n)):
        return arms, m
    return _request(arms, m, n)


def _reseeded(ss: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """A new SeedSequence with the entropy and pool size of ``ss`` and the
    spawn key ``ss.spawn_key + key``: with key (j,) the child j that ``spawn``
    gives ``ss`` as its (j + 1)-th, with key (j, k) child k of that child.
    It reads only the key, so ``ss`` and the children it has spawned stay as
    they are; ``spawn`` counts children on ``ss`` and gives the next ones."""
    return np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + key, pool_size=ss.pool_size)


def _distinct_ids(name: str, ids, n: int, sort: bool = False) -> np.ndarray:
    """``ids`` as an intp array, sorted if ``sort`` and else in the order given;
    ValueError naming them unless they are distinct integer ids in [0, n)."""
    s = ids = _arm_ids(ids)
    if s.size > 1 and np.count_nonzero(s[1:] <= s[:-1]):  # ids that ascend need no sort
        s = np.sort(s)
        if np.count_nonzero(s[1:] == s[:-1]):
            raise ValueError(f"{name} must hold distinct ids in [0, {n}): {name} id repeated")
    if s.size and not (0 <= s.item(0) and s.item(-1) < n):
        raise ValueError(f"{name} must hold distinct ids in [0, {n}): {name} id out of range")
    return s if sort else ids


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _open(name: str, v, hi: float = 1.0) -> None:
    """ValueError unless 0 < v < hi (NaN fails)."""
    if not 0.0 < v < hi:
        raise ValueError(f"{name} must lie in (0, {hi:g}), got {v!r}")


def _positive(name: str, v) -> None:
    """ValueError unless v > 0 (NaN fails)."""
    if not v > 0.0:
        raise ValueError(f"{name} must be positive, got {v!r}")


class ArmEnvironment:
    """Stateful seeded sampler; the only reward channel algorithms may use.

    Maintains exact per-arm pull counters, int64 each, and their total as a
    Python int; a request that would take a counter past 2^63 - 1 is
    refused.  Algorithmic randomness (e.g. a uniform choice among candidate
    arms) should come from :meth:`spawn_rng` so it never perturbs the reward
    stream.  ``seed`` is a ``SeedSequence`` or an integer >= 0.

    The streams are read off the seed's key, not spawned on it: rewards come
    from the seed's child 0 and :meth:`spawn_rng` generators from children
    of its child 1, the children a fresh seed's ``spawn(2)`` gives.  So the
    seed is left as it was, and every environment built from one seed object
    draws alike.  A seed that has already spawned children still yields its
    children 0 and 1, not the next two.

    A request of more than 2^16 ids draws at fixed positions in chunks of
    2^16, each from its own stream.  The caller draws a share of the chunks
    beside up to one helper thread per further usable CPU (none on one CPU);
    the sums are the same whatever the thread count.  An environment
    takes one request at a time: one environment per concurrent run.
    """

    def __init__(self, instance: Instance, seed):
        self.instance = instance
        self.n = instance.n
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(_integer("seed", seed, 0))
        self._seed = seed
        self._rng = np.random.default_rng(_reseeded(seed, 0))
        self._chunk_rngs = [self._rng]  # chunk j's generator, made when first needed
        self._spawned = 0  # spawn_rng calls so far
        self.pull_counts = np.zeros(instance.n, dtype=np.int64)
        self._total = 0

    def pull_many(self, arms: np.ndarray, m: int) -> np.ndarray:
        """Pull each arm in ``arms`` exactly ``m`` times (one vectorized request).

        Returns the per-arm reward sums aligned with ``arms``.  An arm listed
        twice is pulled twice as often.

        Raises:
            IndexError: an arm index out of range.
            ValueError: ``arms`` not a 1-D integer array (a boolean mask or
                a scalar, say), m not an integer, m < 1, or a pull count
                that would pass 2^63 - 1.
        """
        arms, m = _admit(arms, m, self.n)
        # No counter exceeds the total, so the counters are read only once
        # the total could pass 2^63 - 1.
        if self._total + m * arms.size > _MAX_PULLS:
            ids, times = np.unique(arms, return_counts=True)
            if np.any((_MAX_PULLS - self.pull_counts[ids]) // times < m):
                raise ValueError(f"m must keep every pull count <= 2^63 - 1, got {m}")
        if arms.size == 1:
            # numpy's scalar draw takes the same value from the stream as its
            # array draw, at about 1.4 us against 10 us a call (2-core Xeon);
            # cb-ar pulls one arm per step.
            arm = arms.item(0)
            self.pull_counts[arm] += m
            self._total += m
            return np.array([self._rng.binomial(m, self.instance.means[arm])], dtype=np.int64)
        if arms.size == 0:
            return np.zeros(0, dtype=np.int64)
        if arms.size > _CHUNK:
            sums = self._draw_chunks(arms, m)
        else:
            sums = self._rng.binomial(m, self.instance.means[arms]).astype(np.int64, copy=False)
        np.add.at(self.pull_counts, arms, m)
        self._total += m * arms.size
        return sums

    def _draw_chunks(self, arms: np.ndarray, m: int) -> np.ndarray:
        """Reward sums of a wide request: chunk j, ids j * 2^16 up to
        (j + 1) * 2^16, draws from generator j.  Generator 0 is the reward
        stream; generator j >= 1 is seeded from the reward seed and j alone.
        numpy's Binomial draw releases the GIL, so the caller draws chunks
        beside up to one helper thread per further usable CPU, each taking
        the next chunk index from one shared iterator."""
        chunks = -(-arms.size // _CHUNK)
        while len(self._chunk_rngs) < chunks:
            self._chunk_rngs.append(np.random.default_rng(
                _reseeded(self._seed, 0, len(self._chunk_rngs))))
        means = self.instance.means
        sums = np.empty(arms.size, dtype=np.int64)

        jobs = iter(range(chunks))  # next() on it is atomic under the GIL

        def draw():
            for j in jobs:
                part = slice(j * _CHUNK, (j + 1) * _CHUNK)
                sums[part] = self._chunk_rngs[j].binomial(m, means[arms[part]])

        helpers = min(_usable_cpus(), chunks) - 1
        if helpers:
            # A pool per request: a pool kept across requests would be
            # inherited dead by the workers run_experiment forks.
            with ThreadPoolExecutor(helpers) as pool:
                done = [pool.submit(draw) for _ in range(helpers)]
                draw()
                for f in done:
                    f.result()
        else:
            draw()
        return sums

    def total_pulls(self) -> int:
        """Exact total number of reward draws requested so far."""
        return self._total

    def spawn_rng(self) -> np.random.Generator:
        """Fresh deterministic generator for algorithm-internal choices: the
        k-th call's is seeded from child k of the seed's child 1."""
        self._spawned += 1
        return np.random.default_rng(_reseeded(self._seed, 1, self._spawned - 1))


class EnvironmentView:
    """An environment seen through a wrapper.  Any member the view does not
    define is the wrapped environment's, so a subclass states only what it
    changes: its pulls, say, or its instance."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        # Called only for members the view lacks.  ``_inner`` is read without
        # this hook: while it is unset (a copy under construction), the
        # lookup fails with AttributeError instead of recursing.
        return getattr(object.__getattribute__(self, "_inner"), name)


class ComplementEnvironment(EnvironmentView):
    """View of an environment with rewards flipped (x -> 1 - x).

    Pulling arm i here is distributed as Bernoulli(1 - theta_i); counters are
    shared with the wrapped environment, so pull accounting stays exact.  Used
    to reduce top-K selection with K > n/2 to bottom-(n-K) selection.
    """

    def __init__(self, inner):
        super().__init__(inner)
        inst = inner.instance
        self.instance = Instance(1.0 - inst.means, inst.K, inst.epsilon, inst.delta)

    def pull_many(self, arms: np.ndarray, m: int) -> np.ndarray:
        sums = self._inner.pull_many(arms, m)  # checks m before it is used
        return int(m) - sums


class PullTrace(EnvironmentView):
    """View that records every pull request, and changes nothing else.

    Each request is appended to :attr:`events` as ``(arms, m, sums)``: the
    arms pulled, the pulls per arm and their reward sums, as arrays.  Every
    algorithm reads rewards only through its environment, so a trace shows
    where the pulls of any run went; the adaptive selectors' round r is event
    r - 1.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.events = []

    def pull_many(self, arms: np.ndarray, m: int) -> np.ndarray:
        sums = self._inner.pull_many(arms, m)
        self.events.append((np.array(arms, dtype=np.intp), int(m), sums.copy()))
        return sums
