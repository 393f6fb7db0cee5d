"""Experiment runner: seeded trials over budget grids, CSV/JSON reports.

Protocol per (algorithm, budget) cell: ``trials`` independent trials, each
with its own arm-identity shuffle and reward stream derived from
(base_seed, budget, trial).  Seeds are keyed by budget *value*, so adding,
dropping, or reordering grid points never changes another point's results,
and every algorithm sees the same streams at the same cell (paired
comparisons).  Fixed-confidence algorithms ignore the budget column and run
to their own stopping rule; the budget is still reported alongside.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .adaptive import adaptive_topk, adaptive_topk_fixed_budget
from .baselines import cb_accept_reject_topk, uniform_topk
from .env import ArmEnvironment, Instance, _integer, _open, _positive
from .hardness import aggregate_regret, hardness
from .improved import improved_topk, opt_mai
from .instances import gen_synthetic_p, gen_two_group, gen_uniform, load_means

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "resolve_means",
    "default_budget_grid",
    "setup_trial",
    "ALGORITHMS",
    "CSV_COLUMNS",
]

CSV_COLUMNS = [
    "algorithm",
    "budget",
    "trials",
    "failures",
    "failure_probability",
    "mean_regret",
    "regret_std",
    "mean_total_pulls",
]

GENERATORS = ("two-group", "uniform", "synthetic")


def _run_adaptive(env, K, epsilon, delta, budget):
    return adaptive_topk(env, K, epsilon, delta).selected


def _run_adaptive_fb(env, K, epsilon, delta, budget):
    return adaptive_topk_fixed_budget(env, K, budget, delta=delta).selected


def _run_adaptive_fb_tuned(env, K, epsilon, delta, budget):
    return adaptive_topk_fixed_budget(env, K, budget, delta=delta, tuned=True).selected


def _run_improved(env, K, epsilon, delta, budget):
    return improved_topk(env, K, epsilon, delta).selected


def _run_uniform(env, K, epsilon, delta, budget):
    return uniform_topk(env, K, budget).selected


def _run_cb_ar(env, K, epsilon, delta, budget):
    return cb_accept_reject_topk(env, K, budget).selected


def _run_optmai(env, K, epsilon, delta, budget):
    return opt_mai(env, range(env.n), K, epsilon, delta)


# Names accepted by --algo and ExperimentConfig.algorithms, each mapped to
# (call(env, K, epsilon, delta, budget) -> selected arms, takes a budget).
# Fixed-confidence algorithms run to their own stopping rule.  The tuned
# schedule is the variant used in published comparisons; the plain
# "adaptive-fb" keeps the doubling schedule and conservative commit rule.
ALGORITHMS = {
    "adaptive": (_run_adaptive, False),
    "adaptive-fb": (_run_adaptive_fb, True),
    "adaptive-fb-tuned": (_run_adaptive_fb_tuned, True),
    "improved": (_run_improved, False),
    "uniform": (_run_uniform, True),
    "cb-ar": (_run_cb_ar, True),
    "optmai": (_run_optmai, False),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; fully determines its report.

    ``instance`` is a generator name from ``GENERATORS`` or a path to a mean
    file.  ``algorithms`` must be non-empty distinct names; ``budgets``
    non-empty, strictly increasing integers.
    """

    instance: str
    k: int
    epsilon: float = 0.01
    delta: float = 0.01
    n: int = 1000
    p: float = 1.0
    algorithms: tuple = ("adaptive-fb",)
    budgets: tuple = ()
    trials: int = 200
    base_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for name in ("k", "n", "trials", "workers"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        object.__setattr__(self, "base_seed", _integer("base_seed", self.base_seed, 0))
        _positive("epsilon", self.epsilon)
        _open("delta", self.delta)
        _positive("p", self.p)
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.algorithms or len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError(f"algorithms must be distinct names, at least one, got {self.algorithms!r}")
        object.__setattr__(self, "budgets", tuple(_integer("budget", b, 0) for b in self.budgets))
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ValueError("budget grid must be strictly increasing")
        if not self.budgets:
            raise ValueError("budget grid must not be empty")


@dataclass
class ExperimentReport:
    """Per-(algorithm, budget) aggregates over seeded trials."""

    rows: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({"config": self.config, "rows": self.rows}, indent=2, sort_keys=True)

    def row(self, algorithm: str, budget: int) -> dict:
        for row in self.rows:
            if row["algorithm"] == algorithm and row["budget"] == budget:
                return row
        raise KeyError((algorithm, budget))


def resolve_means(config: ExperimentConfig) -> np.ndarray:
    """Materialize the configured mean vector (generator or file)."""
    name = config.instance
    if name == "two-group":
        return gen_two_group(config.n, config.k)
    if name == "uniform":
        return gen_uniform(config.n)
    if name == "synthetic":
        return gen_synthetic_p(config.n, config.k, config.p)
    return load_means(name)


def default_budget_grid(means: np.ndarray, K: int, epsilon: float) -> list:
    """Six budgets spread over multiples of the instance difficulty.

    Grid points sit at {1, 2, 5, 10, 25, 50} times the capped inverse-square
    gap sum, floored at one pull per arm.  The multiples are an implementer
    choice (no canonical grid exists); reports record the realized values.
    """
    sorted_means = np.sort(means)[::-1]
    h = hardness(sorted_means, K, epsilon).h_t_eps
    n = means.size
    grid = sorted({max(n, int(round(c * h))) for c in (1, 2, 5, 10, 25, 50)})
    return list(grid)


def setup_trial(means, K, epsilon, delta, shuffle_seed, env_seed):
    """One trial's setup: a hidden shuffle of arm identities, a seeded
    environment over the shuffled means, and a regret scorer.

    Returns (env, shuffled_means, regret) where ``regret(selected)`` is the
    aggregate regret of a selection given as environment arm indices.
    """
    means = np.asarray(means, dtype=np.float64)
    shuffled = means[np.random.default_rng(shuffle_seed).permutation(means.size)]
    env = ArmEnvironment(Instance(shuffled, K, epsilon, delta), seed=env_seed)

    def regret(selected) -> float:
        return aggregate_regret(shuffled, K, selected)

    return env, shuffled, regret


def _trial_outcome(task):
    """Run one seeded trial; returns (regret, total_pulls)."""
    means, K, epsilon, delta, algo_name, algo_fn, budget, trial, base_seed = task
    shuffle_ss, env_ss = np.random.SeedSequence((base_seed, budget, trial)).spawn(2)
    env, _, regret = setup_trial(means, K, epsilon, delta, shuffle_ss, env_ss)
    selected = algo_fn(env, K, epsilon, delta, budget)
    try:
        score = regret(selected)
    except ValueError as exc:
        raise ValueError(f"{algo_name} returned a bad selection: {exc}") from None
    return score, env.total_pulls()


def run_experiment(config: ExperimentConfig, algorithms: dict = None) -> ExperimentReport:
    """Run the full grid and aggregate per cell.

    Args:
        config: the experiment description.
        algorithms: optional name -> callable override/extension of the
            registry (callables take (env, K, epsilon, delta, budget) and
            return the selected arm set).  Overrides require workers == 1.

    The report is byte-identical across re-runs with the same config,
    regardless of worker count: each trial draws its streams from
    (base_seed, budget, trial) alone, and its result is stored under its
    (algorithm, budget, trial) cell and aggregated in the config's order.
    """
    registry = {name: select for name, (select, _) in ALGORITHMS.items()}
    if algorithms:
        if config.workers != 1:
            raise ValueError("injected algorithms require workers=1")
        registry.update(algorithms)
    for name in config.algorithms:
        if name not in registry:
            raise ValueError(f"unknown algorithm: {name!r}")
    means = resolve_means(config)
    _integer("k", config.k, 1, means.size)

    cells = [(algo_name, budget, trial)
             for algo_name in config.algorithms
             for budget in config.budgets
             for trial in range(config.trials)]
    tasks = [(means, config.k, config.epsilon, config.delta, algo_name, registry[algo_name],
              budget, trial, config.base_seed) for algo_name, budget, trial in cells]
    if config.workers == 1:
        outcomes = dict(zip(cells, map(_trial_outcome, tasks)))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = dict(zip(cells, pool.map(_trial_outcome, tasks, chunksize=8)))

    rows = []
    for algo_name in config.algorithms:
        for budget in config.budgets:
            regrets = np.array([outcomes[(algo_name, budget, t)][0] for t in range(config.trials)])
            pulls = np.array([outcomes[(algo_name, budget, t)][1] for t in range(config.trials)])
            failures = int(np.sum(regrets > config.epsilon))
            rows.append({
                "algorithm": algo_name,
                "budget": int(budget),
                "trials": config.trials,
                "failures": failures,
                "failure_probability": failures / config.trials,
                "mean_regret": float(np.mean(regrets)),
                "regret_std": float(np.std(regrets)),
                "mean_total_pulls": float(np.mean(pulls)),
            })
    cfg = asdict(config)
    del cfg["workers"]  # the report is the same for every worker count
    return ExperimentReport(rows=rows, config=cfg)
