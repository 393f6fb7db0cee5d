"""Coin-distinguishing machinery: hard instances, the reduction, optimal errors.

A biased coin shows heads with probability 0.5 + eta or 0.5 - eta; the task
is to name the bias, with the escape hatch of answering "unknown" at most 90%
of the time.  ``optimal_coin_error`` evaluates the error of the best possible
symmetric threshold strategy in log space, so its exponential decay in the
toss count stays measurable far below float underflow.  What is exact is the
model: the optimal strategy and the binomial law of the toss count, with no
normal or Chernoff approximation.  The arithmetic is floating point: the log
binomial coefficients are running sums of about m/2 terms, so the log-pmf
and the log error carry a rounding error that grows like m^2 times the unit
roundoff in the worst case.  At m = 10^5 and eta = 0.1 the log-pmf is
within 1.4e-9 of 40-digit values and the log error (about -8277) within
3e-10.

``make_hard_instance`` embeds one such coin in a bandit with n/2 high arms
and n/2 low arms separated by 2 * eta; ``reduction_run`` drives any top-K
selection algorithm on that bandit and converts its output into a coin answer
(with give-up and verification safeguards), which is how the selection
problem inherits the coin problem's difficulty.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .env import ArmEnvironment, EnvironmentView, Instance, _arm_ids, _integer, _open
from .hardness import _selection

__all__ = [
    "Hidden",
    "CoinTossingInstance",
    "HardBanditInstance",
    "make_hard_instance",
    "optimal_coin_error",
    "optimal_coin_log_error",
    "reduction_run",
    "GIVE_UP_RATE_CAP",
    "DEFAULT_C_K",
]

# The strategy may answer "unknown" with probability at most this much.
GIVE_UP_RATE_CAP = 0.9
# Smallest product epsilon * K the reduction accepts (the slack terms in its
# verification threshold need it).
DEFAULT_C_K = 4.0


class Hidden(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class CoinTossingInstance:
    """A coin of bias 0.5 + eta or 0.5 - eta.

    Nothing here tosses it: the hard bandit embeds it as one arm.  ``seed``
    records the seed of the hard instance that drew it.
    """

    eta: float
    hidden_value: Hidden
    seed: int

    def __post_init__(self):
        _open("eta", self.eta, 0.5)

    @property
    def bias(self) -> float:
        sign = 1.0 if self.hidden_value is Hidden.PLUS else -1.0
        return 0.5 + sign * self.eta


@dataclass(frozen=True)
class HardBanditInstance:
    """A planted two-level bandit with one arm replaced by the hidden coin.

    Of the n arms, the K = n/2 in ``planted`` have mean 0.5 + eta and the
    rest 0.5 - eta, except that arm ``special_index`` takes the coin's value;
    the realized number of high arms is therefore K - 1, K, or K + 1.
    """

    n: int
    K: int
    eta: float
    planted: frozenset
    special_index: int
    coin: CoinTossingInstance

    def means(self) -> np.ndarray:
        out = np.where(np.isin(np.arange(self.n), list(self.planted)),
                       0.5 + self.eta, 0.5 - self.eta)
        out[self.special_index] = self.coin.bias
        return out

    def high_arm_count(self) -> int:
        return int(np.sum(self.means() > 0.5))


def make_hard_instance(n: int, eta: float, seed: int, hidden: Hidden = None) -> HardBanditInstance:
    """Draw the planted set, the special index, and (optionally) the coin value.

    Args:
        n: even number of arms, >= 2.
        eta: bias magnitude in (0, 0.5).
        seed: drives the planted set, the index choice, and the coin draw.
        hidden: fix the coin's value instead of drawing it (useful in tests).
    """
    if _integer("n", n, 2) % 2:
        raise ValueError(f"n must be even, got {n}")
    _open("eta", eta, 0.5)
    seed = _integer("seed", seed, 0)
    K = n // 2
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x51ED)))
    planted = frozenset(int(a) for a in rng.choice(n, size=K, replace=False))
    special = int(rng.integers(n))
    if hidden is None:
        hidden = Hidden.PLUS if rng.integers(2) == 1 else Hidden.MINUS
    coin = CoinTossingInstance(eta=eta, hidden_value=hidden, seed=seed)
    return HardBanditInstance(n=n, K=K, eta=eta, planted=planted,
                              special_index=special, coin=coin)


def _log_choose(m: int) -> np.ndarray:
    """log C(m, k) for k = 0, ..., m.

    For k <= m/2 it is the running sum of log((m - j + 1) / j), j = 1..k,
    each term >= 0; the upper half mirrors it, so C(m, k) = C(m, m - k) holds
    bit for bit.
    """
    j = np.arange(1, m // 2 + 1, dtype=np.float64)
    head = np.concatenate(([0.0], np.cumsum(np.log((m - j + 1) / j))))
    return np.concatenate((head, head[m - m // 2 - 1 :: -1]))


def _binomial_logpmf(m: int, p: float) -> np.ndarray:
    k = np.arange(m + 1, dtype=np.float64)
    return _log_choose(m) + k * math.log(p) + (m - k) * math.log1p(-p)


def _coin_threshold(m: int, eta: float):
    """Widest symmetric give-up window [m/2 - t, m/2 + t] covering <= 0.9.

    Returns (t, logpmf) where t = -1 means even the t = 0 window exceeds the
    cap and the strategy never answers "unknown".  Toss count k enters the
    window at t = ceil(|k - m/2|) = (|2k - m| + 1) // 2, so the window masses
    are the running sums of the pmf binned by that entry point.
    """
    logpmf = _binomial_logpmf(m, 0.5 - eta)
    k = np.arange(m + 1)
    mass = np.cumsum(np.bincount((np.abs(2 * k - m) + 1) // 2, weights=np.exp(logpmf)))
    return int(np.searchsorted(mass, GIVE_UP_RATE_CAP, side="right")) - 1, logpmf


def optimal_coin_log_error(m: int, eta: float) -> float:
    """Natural log of the optimal strategy's error probability for m tosses.

    The optimal strategy answers "unknown" inside the widest symmetric window
    whose mass stays within the give-up cap and names the bias by side
    otherwise; its error is the far-tail mass beyond the window, computed
    here as a log-sum-exp of the binomial log-pmf over that tail (returns
    -inf when the tail is empty).
    """
    _integer("m", m, 1)
    _open("eta", eta, 0.5)
    t, logpmf = _coin_threshold(m, eta)
    hi = math.floor(0.5 * m + t)
    if hi + 1 > m:
        return float("-inf")
    tail = logpmf[hi + 1 :]
    top = float(tail.max())
    return top + math.log(np.exp(tail - top).sum())


def optimal_coin_error(m: int, eta: float) -> float:
    """Error probability of the optimal strategy (may underflow to 0.0 for
    very large m; use :func:`optimal_coin_log_error` for the decay law).
    """
    return float(math.exp(min(optimal_coin_log_error(m, eta), 0.0)))


class _GiveUp(Exception):
    """Raised when the watched arm's toss budget is exceeded."""


class _CapWatchdog(EnvironmentView):
    """Environment view that aborts the run when one arm is pulled too often."""

    def __init__(self, inner, watched_arm: int, cap: int):
        super().__init__(inner)
        self._arm = int(watched_arm)
        self._cap = int(cap)

    def pull_many(self, arms, m: int):
        # A malformed request is refused as the environment refuses it, not
        # turned into a give-up by the cap test.
        arms, m = _arm_ids(arms), _integer("m", m, 1)
        if arms.size and arms.view(np.uintp).max() >= self._inner.n:
            raise IndexError("arm index out of range")
        # An arm listed twice is pulled twice as often.
        hits = np.count_nonzero(arms == self._arm)
        if hits and self._inner.pull_counts[self._arm] + hits * m > self._cap:
            raise _GiveUp
        return self._inner.pull_many(arms, m)


def reduction_run(algorithm, n: int, K: int, eta: float, epsilon: float, C: int,
                  seed: int) -> str:
    """Answer the coin question by running a top-K selection on a hard bandit.

    The selection algorithm (a callable ``algorithm(env, K, epsilon, delta)``
    returning a result whose ``selected`` holds K distinct arm ids; any other
    selection is refused with a ValueError) is run at the scaled-down
    tolerance eta * epsilon / 4 and failure probability 0.1.  The run gives
    up when the special arm is tossed more than 20 * C / n times; afterwards
    the selection is verified against the known values of the constructed
    arms, and only a verified selection is converted into an answer by
    membership of the special arm.

    Returns:
        "plus", "minus", or "unknown".
    """
    if K * 2 != n:
        raise ValueError(f"K must equal n / 2 for the hard construction, got K={K!r}, n={n!r}")
    if epsilon * K < DEFAULT_C_K:
        raise ValueError(f"epsilon must satisfy epsilon * K >= {DEFAULT_C_K}, got {epsilon * K!r}")
    _integer("C", C, 0)
    seed = _integer("seed", seed, 0)
    hard = make_hard_instance(n, eta, seed)
    eps_prime = eta * epsilon / 4.0
    env = ArmEnvironment(Instance(hard.means(), K, eps_prime, 0.1),
                         seed=np.random.SeedSequence((seed, 0xC01)))
    cap = math.floor(20.0 * C / n)
    watched = _CapWatchdog(env, hard.special_index, cap)
    try:
        result = algorithm(watched, K, eps_prime, 0.1)
    except _GiveUp:
        return "unknown"
    try:
        selected = _selection(result.selected, K, n)
    except ValueError as exc:
        raise ValueError(f"the algorithm returned a bad selection: {exc}") from None

    known = selected[selected != hard.special_index]
    if not len(known):
        return "unknown"
    high = int(np.count_nonzero(np.isin(known, np.fromiter(hard.planted, dtype=np.intp))))
    rho = (high * (0.5 + eta) + (len(known) - high) * (0.5 - eta)) / len(known)
    if rho < (0.5 + eta) - (eps_prime + 2.0 * eta / K):
        return "unknown"
    return "plus" if hard.special_index in selected else "minus"
