import numpy as np
import pytest

from topk_bandit.bench import setup_trial


def shuffled_trial(means, K, epsilon, delta, seed_key):
    """One seeded trial setup with a hidden arm-identity shuffle.

    Returns (env, shuffled_means, regret_fn) where regret_fn maps a selected
    arm set (environment indices) to its aggregate regret against the truth.
    """
    shuffle_ss, env_ss = np.random.SeedSequence(seed_key).spawn(2)
    return setup_trial(means, K, epsilon, delta, shuffle_ss, env_ss)


def success_rate(means, K, epsilon, delta, trials, run, seed0=0):
    """Fraction of seeded shuffled trials whose selection meets the tolerance."""
    hits = 0
    for trial in range(trials):
        env, shuffled, regret = shuffled_trial(means, K, epsilon, delta, (seed0, trial))
        selected = run(env, shuffled)
        hits += regret(selected) <= epsilon
    return hits / trials


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
