"""Adaptive top-K arm selection for stochastic bandits.

Selection algorithms in fixed-confidence and fixed-budget form, instance
difficulty diagnostics, baselines, an exact coin-distinguishing error
calculator, and a seeded, reproducible benchmark harness.
"""

from .adaptive import SelectionResult, adaptive_topk, adaptive_topk_fixed_budget
from .baselines import cb_accept_reject_topk, uniform_topk
from .bench import ExperimentConfig, ExperimentReport, default_budget_grid, run_experiment
from .env import ArmEnvironment, ComplementEnvironment, Instance, PullTrace
from .hardness import HardnessReport, aggregate_regret, gaps, hardness, is_eps_top_k, psi_quantities, t_of
from .improved import (
    elim,
    eps_split,
    est_kth_arm,
    improved_topk,
    opt_mai,
    reverse_elim,
)
from .instances import check_c_spread, gen_synthetic_p, gen_two_group, gen_uniform, load_means
from .lowerbound import (
    CoinTossingInstance,
    HardBanditInstance,
    Hidden,
    make_hard_instance,
    optimal_coin_error,
    optimal_coin_log_error,
    reduction_run,
)

__version__ = "0.1.0"

__all__ = [
    "ArmEnvironment",
    "ComplementEnvironment",
    "CoinTossingInstance",
    "ExperimentConfig",
    "ExperimentReport",
    "HardBanditInstance",
    "HardnessReport",
    "Hidden",
    "Instance",
    "PullTrace",
    "SelectionResult",
    "adaptive_topk",
    "adaptive_topk_fixed_budget",
    "aggregate_regret",
    "cb_accept_reject_topk",
    "check_c_spread",
    "default_budget_grid",
    "elim",
    "eps_split",
    "est_kth_arm",
    "gaps",
    "gen_synthetic_p",
    "gen_two_group",
    "gen_uniform",
    "hardness",
    "improved_topk",
    "is_eps_top_k",
    "load_means",
    "make_hard_instance",
    "opt_mai",
    "optimal_coin_error",
    "optimal_coin_log_error",
    "psi_quantities",
    "reduction_run",
    "reverse_elim",
    "run_experiment",
    "t_of",
    "uniform_topk",
]
