"""Seeded stochastic arm environments with exact pull accounting.

Every algorithm in this package observes rewards exclusively through an
:class:`ArmEnvironment`.  Rewards are Bernoulli; a batch of ``m`` pulls of one
arm is drawn as a single Binomial(m, theta) sample, which is distributionally
identical to ``m`` independent Bernoulli draws and keeps multi-million-pull
simulations fast.  Two environments built from the same (instance, seed) and
issued the same sequence of pull requests return bit-identical reward sums.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Instance",
    "ArmEnvironment",
    "EnvironmentView",
    "ComplementEnvironment",
    "PullTrace",
]


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
        if not _is_integer(self.K):
            raise ValueError(f"K must be an integer, got {self.K!r}")
        if not 1 <= self.K <= means.size:
            raise ValueError(f"K={self.K} out of range [1, {means.size}]")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        means.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "K", int(self.K))

    @property
    def n(self) -> int:
        return self.means.size


def _is_integer(v) -> bool:
    # The type test first: the ABC check is far slower, and cb-ar's scalar
    # pulls pay it on every call.  A bool is Integral, but never a count or id.
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def _arm_ids(arms) -> np.ndarray:
    """``arms`` as an intp array; ValueError unless it is a 1-D array of
    integers (not a mask, a scalar or a set, say) or an empty list."""
    arms = np.asarray(arms)
    if arms.ndim != 1 or (arms.size and arms.dtype.kind not in "iu"):
        raise ValueError(f"arm ids must be a 1-D array of integers, "
                         f"got shape {arms.shape} and dtype {arms.dtype}")
    return arms.astype(np.intp, copy=False)


def _batch_size(m) -> int:
    # A float m would be truncated silently.
    if not _is_integer(m):
        raise ValueError(f"batch size m must be an integer, got {m!r}")
    if m < 1:
        raise ValueError("batch size m must be >= 1")
    return int(m)


class ArmEnvironment:
    """Stateful seeded sampler; the only reward channel algorithms may use.

    Maintains exact per-arm pull counters.  Algorithmic randomness (e.g. a
    uniform choice among candidate arms) should come from :meth:`spawn_rng`
    so it never perturbs the reward stream.

    Not thread-safe: one environment per concurrent run.
    """

    def __init__(self, instance: Instance, seed):
        self.instance = instance
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
        reward_ss, algo_ss = root.spawn(2)
        self._rng = np.random.default_rng(reward_ss)
        self._algo_ss = algo_ss
        self.pull_counts = np.zeros(instance.n, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.instance.n

    def pull_batch(self, arm: int, m: int) -> int:
        """Pull one arm ``m`` times; returns the integer sum of rewards.

        Raises:
            IndexError: arm index out of range.
            ValueError: arm or m not an integer, or m < 1.
        """
        if not _is_integer(arm):
            raise ValueError(f"arm id must be an integer, got {arm!r}")
        arm = int(arm)
        if not 0 <= arm < self.n:
            raise IndexError(f"arm {arm} out of range [0, {self.n})")
        m = _batch_size(m)
        reward = int(self._rng.binomial(m, self.instance.means[arm]))
        self.pull_counts[arm] += m
        return reward

    def pull_many(self, arms: np.ndarray, m: int) -> np.ndarray:
        """Pull each arm in ``arms`` exactly ``m`` times (one vectorized request).

        Returns the per-arm reward sums aligned with ``arms``.  An arm listed
        twice is pulled twice as often.

        Raises:
            IndexError: an arm index out of range.
            ValueError: ``arms`` not a 1-D integer array (a boolean mask or
                a scalar, say), m not an integer, or m < 1.
        """
        arms = _arm_ids(arms)
        if arms.size == 0:
            return np.zeros(0, dtype=np.int64)
        if arms.min() < 0 or arms.max() >= self.n:
            raise IndexError("arm index out of range")
        m = _batch_size(m)
        sums = self._rng.binomial(m, self.instance.means[arms]).astype(np.int64, copy=False)
        np.add.at(self.pull_counts, arms, m)
        return sums

    def total_pulls(self) -> int:
        """Exact total number of reward draws requested so far."""
        return int(self.pull_counts.sum())

    def spawn_rng(self) -> np.random.Generator:
        """Fresh deterministic generator for algorithm-internal choices."""
        return np.random.default_rng(self._algo_ss.spawn(1)[0])


class EnvironmentView:
    """An environment seen through a wrapper: forwards every member to the
    wrapped environment.  A scalar :meth:`pull_batch` goes through the view's
    own :meth:`pull_many`, so a subclass that changes the pulls overrides
    :meth:`pull_many` alone."""

    def __init__(self, inner):
        self._inner = inner
        self.instance = inner.instance

    @property
    def n(self) -> int:
        return self._inner.n

    @property
    def pull_counts(self) -> np.ndarray:
        return self._inner.pull_counts

    def pull_batch(self, arm: int, m: int) -> int:
        # One Binomial draw either way: a size-1 array draw takes the same
        # value from the stream as the scalar draw.
        return int(self.pull_many([arm], m)[0])

    def pull_many(self, arms: np.ndarray, m: int) -> np.ndarray:
        return self._inner.pull_many(arms, m)

    def total_pulls(self) -> int:
        return self._inner.total_pulls()

    def spawn_rng(self) -> np.random.Generator:
        return self._inner.spawn_rng()


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
        return int(m) - self._inner.pull_many(arms, m)


class PullTrace(EnvironmentView):
    """View that records every pull request, and changes nothing else.

    Each request is appended to :attr:`events` as ``(arms, m, sums)``: the
    arms pulled, the pulls per arm and their reward sums, as arrays (a scalar
    :meth:`pull_batch` gives one-element arrays).  Every algorithm reads
    rewards only through its environment, so a trace shows where the pulls
    of any run went; the adaptive selectors' round r is event r - 1.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.events = []

    def pull_many(self, arms: np.ndarray, m: int) -> np.ndarray:
        sums = self._inner.pull_many(arms, m)
        self.events.append((np.array(arms, dtype=np.intp), int(m), sums.copy()))
        return sums
