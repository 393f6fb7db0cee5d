"""Memory budgets of the large-n paths.

Each selection call on a fresh environment of n = 2^20 arms keeps at most
4.5 arrays of 8n bytes above what was allocated when it started,
``hardness`` at most 3, and the ranking of 2^20 sums that share a small
pull count about 0.53, derived from its words: the calls drop their
n-length temporaries as soon as they are done with them.  numpy reports its
array buffers to tracemalloc, so the traced peak counts them.  The wide
requests draw in the caller alone (one usable CPU) and beside one helper
thread (two).  A one-process
experiment holds shuffled cells for its later runs only up to a fixed byte
cap, whatever its budgets, trials and n.
"""

import tracemalloc

import numpy as np
import pytest

import topk_bandit.bench as bench_module
import topk_bandit.env as env_module
from topk_bandit import (
    ArmEnvironment, ExperimentConfig, Instance, adaptive_topk, adaptive_topk_fixed_budget,
    hardness, run_experiment, uniform_topk,
)
from topk_bandit.adaptive import _order_by_sums

N = 1 << 20
K = N // 10
ARRAY = 8 * N  # bytes of one int64 or float64 array of n entries

CALLS = {
    "adaptive": lambda env: adaptive_topk(env, K, 0.01, 0.01),
    "adaptive-fb": lambda env: adaptive_topk_fixed_budget(env, K, 50 * N, delta=0.01),
    "adaptive-fb-tuned": lambda env: adaptive_topk_fixed_budget(env, K, 50 * N, delta=0.01,
                                                                tuned=True),
    "uniform": lambda env: uniform_topk(env, K, 50 * N),
}


@pytest.fixture(scope="module")
def means():
    return np.random.default_rng(5).random(N)


def _peak(call):
    """Bytes ``call()`` allocated at its peak above its start, and its value."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        value = call()
        return tracemalloc.get_traced_memory()[1] - start, value
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", list(CALLS))
def test_selection_peak_memory(monkeypatch, means, name, cpus):
    monkeypatch.setattr(env_module, "_usable_cpus", lambda: cpus)
    env = ArmEnvironment(Instance(means, K, 0.01, 0.01), seed=3)
    peak, result = _peak(lambda: CALLS[name](env))
    assert result.total_pulls >= N  # every arm was pulled: the wide path ran
    assert peak <= 4.5 * ARRAY, f"{name}: {peak / ARRAY:.2f} arrays of 8n bytes"


def test_wide_ranking_peak_memory():
    # Sums of m = 49 pulls span at most 6 bits, and 2^20 positions take 20:
    # the ranking sorts uint32 words, one per arm (4n bytes), and or-s in
    # positions from one 2^16-entry uint32 chunk at a time (2^18 bytes).
    # 4 KiB more covers the array objects; about 0.53 arrays of 8n bytes.
    sums = np.random.default_rng(6).binomial(49, np.random.default_rng(7).random(N))
    peak, order = _peak(lambda: _order_by_sums(sums, 49))
    assert order.dtype == np.uint32 and order.size == N
    assert peak <= 4 * N + 4 * env_module._CHUNK + 4096, f"{peak / ARRAY:.3f} arrays of 8n bytes"


def test_hardness_peak_memory(means):
    sorted_means = np.sort(means)[::-1].copy()
    peak, report = _peak(lambda: hardness(sorted_means, K, 0.01))
    assert report.gaps.size == N
    assert peak <= 3 * ARRAY, f"{peak / ARRAY:.2f} arrays of 8n bytes"


def test_experiment_holds_cells_up_to_its_cap():
    # 30 cells of n = 2^18 means take 60 MiB, and 8 fit in the 16 MiB cap.
    # Beyond the held cells a run allocates, in arrays of 8n bytes: the
    # experiment's means (1, kept throughout), its rebuilt cell's
    # permutation, shuffled means and the Instance's copy of them (3), the
    # Instance's range-check masks (n bytes each, 3/8), and its
    # environment's counters (1).  The bound sums them as if all were live
    # at once.  The two selectors pull nothing, so no selection adds to it.
    n = 1 << 18
    picks = {"first": lambda env, K, *_: range(K),
             "last": lambda env, K, *_: range(env.n - K, env.n)}
    config = ExperimentConfig(instance="uniform", n=n, k=10, algorithms=tuple(picks),
                              budgets=(1, 2), trials=15)
    cap = bench_module._CELL_BYTES
    assert len(config.budgets) * config.trials * 8 * n > 3 * cap
    peak, report = _peak(lambda: run_experiment(config, algorithms=picks))
    assert [r["trials"] for r in report.rows] == [15] * 4
    assert peak <= cap + (5 + 3 / 8) * 8 * n, \
        f"{(peak - cap) / (8 * n):.2f} arrays of 8n bytes past the cap"
