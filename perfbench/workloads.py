"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup`` (input generation,
hardness and the budget grid) and then repeats ``run_pass`` over them: a
single process making one library call at a time (closed loop, one worker,
no threads).  A workload has ``variants`` distinct passes, which differ only
in seeds (of their environments and, in ``step-loops``, of the arm shuffles);
passes cycle through them, and every repeat of a variant must reproduce its
output.  Every call is timed from
here and its output checked; a call that raises or breaks its contract is
counted as failed instead of ending the run.

* ``grid``: ``run_experiment`` over the auto budget grid on two-group means,
  n = 1000, K = 100.  Small calls: per-call overhead, ``improved``'s
  subroutines and the harness dominate.
* ``large-n``: single calls on 10^6 seeded uniform-random means, K = 10^5.
  A few huge vectorised pulls; ordering and commits dominate.
* ``step-loops``: decision logic written as per-step Python loops
  (``cb-ar``, ``improved``), the coin error scan and the lower-bound
  reduction.  Thousands of scalar pulls.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import topk_bandit.improved as improved_module
from topk_bandit import (
    ArmEnvironment,
    ExperimentConfig,
    Instance,
    SelectionResult,
    adaptive_topk,
    adaptive_topk_fixed_budget,
    aggregate_regret,
    cb_accept_reject_topk,
    default_budget_grid,
    gen_two_group,
    hardness,
    improved_topk,
    optimal_coin_log_error,
    reduction_run,
    run_experiment,
    uniform_topk,
)

from spans import TimedEnv

EPSILON = 0.01
DELTA = 0.01
REDUCTION_ANSWERS = ("plus", "minus", "unknown")


class Ledger:
    """Per-call timings (untraced passes only) and failures of one run."""

    def __init__(self):
        self.times = defaultdict(list)
        self.attempted = 0
        self.failures = []

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")


class Context:
    """One pass's view of the run: the ledger, the tracer in a traced pass
    (None otherwise) and the seconds spent inside library calls."""

    def __init__(self, ledger: Ledger, tracer=None):
        self.ledger = ledger
        self.tracer = tracer
        self.call_s = 0.0
        self.completed = 0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()


@dataclass
class PassResult:
    seconds: float   # time inside the workload's library calls
    completed: int   # calls that returned and passed their checks
    digest: str      # sha256 of everything the program output in the pass
    quality: dict    # selections, misses, regret_sum, pulls_per_h.<algo>


@dataclass
class Selection:
    arms: frozenset
    pulls: int


_FAILED = object()


def _timed(ctx: Context, key: str, span_name: str, fn):
    """Call ``fn()`` once, timed, inside a span in a traced pass.

    Returns ``(value, span id)``; the value is ``_FAILED`` when the call
    raised, which is counted in the ledger.
    """
    tracer = ctx.tracer
    sid = tracer.begin(span_name) if tracer is not None else None
    ctx.ledger.attempted += 1
    t0 = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # a failed call is counted, not fatal
        ctx.ledger.fail(key, f"raised {exc!r}")
        value = _FAILED
    finally:
        seconds = time.perf_counter() - t0
        if sid is not None:
            tracer.end(sid)
    ctx.call_s += seconds
    if tracer is None and value is not _FAILED:
        ctx.ledger.times[key].append(seconds)
    return value, sid


def contract_problems(arms, n: int, K: int, reported, spent: int, budget) -> list:
    """Violations of the selection contract: exactly K distinct arms in
    [0, n), reported pulls equal to the environment's count, and no more
    pulls than a fixed budget allows."""
    problems = []
    try:
        ids = np.fromiter(arms, dtype=np.int64, count=len(arms))
    except (TypeError, ValueError) as exc:
        return [f"selection is not a collection of arm indices ({exc})"]
    distinct = np.unique(ids).size
    if ids.size != K or distinct != K:
        problems.append(f"{distinct} distinct arms of {ids.size} returned, expected {K}")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        problems.append("arm index out of range")
    if reported is not None and reported != spent:
        problems.append(f"reported {reported} pulls, the environment counted {spent}")
    if budget is not None and spent > budget:
        problems.append(f"spent {spent} pulls over a budget of {budget}")
    return problems


def run_selection(ctx: Context, algo: str, fn, env, K: int, budget=None):
    """Run one selection call ``fn(env)`` and check its output.

    Returns a :class:`Selection`, or None when the call failed.
    """
    before = env.total_pulls()
    view = TimedEnv(env, ctx.tracer) if ctx.tracer is not None else env
    result, sid = _timed(ctx, algo, "algo." + algo, lambda: fn(view))
    if result is _FAILED:
        return None
    spent = env.total_pulls() - before
    if isinstance(result, SelectionResult):
        arms, reported = result.selected, result.total_pulls
    else:
        arms, reported = result, None
    problems = contract_problems(arms, env.n, K, reported, spent, budget)
    if problems:
        ctx.ledger.fail(algo, "; ".join(problems))
        return None
    ctx.completed += 1
    if sid is not None:
        ctx.tracer.note(sid, rounds=getattr(result, "rounds_completed", 0))
        if budget is not None:
            ctx.tracer.note(sid, budget_use=spent / budget)
    return Selection(frozenset(int(a) for a in arms), spent)


def run_call(ctx: Context, span_name: str, fn, check):
    """Run one non-selection call; ``check(value)`` returns a problem or None.

    Returns the value, or None when the call failed.
    """
    value, sid = _timed(ctx, span_name, span_name, fn)
    if value is _FAILED:
        return None
    problem = check(value)
    if problem:
        ctx.ledger.fail(span_name, problem)
        return None
    ctx.completed += 1
    if sid is not None:
        ctx.tracer.note(sid, result=value)
    return value


class Scorer:
    """Ground truth of one instance: regret of a selection and its hardness."""

    def __init__(self, ctx: Context, means: np.ndarray, K: int):
        order = np.argsort(-means, kind="stable")
        self.rank_of = np.empty(means.size, dtype=np.intp)
        self.rank_of[order] = np.arange(means.size)
        self.sorted_means = means[order]
        self.K = K
        with ctx.span("hardness.hardness"):
            self.h = hardness(self.sorted_means, K, EPSILON).h_t_eps

    def regret(self, arms) -> float:
        ranks = self.rank_of[np.fromiter(arms, dtype=np.intp, count=len(arms))]
        return aggregate_regret(self.sorted_means, self.K, ranks)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def _arms_text(arms) -> str:
    return ",".join(map(str, sorted(arms)))


def _seed(*key) -> np.random.SeedSequence:
    return np.random.SeedSequence(tuple(int(k) for k in key))


def _random_means(ctx: Context, seed: int, tag: int, n: int) -> np.ndarray:
    with ctx.span("instances.gen"):
        return np.random.default_rng(_seed(seed, tag)).random(n)


# name -> (call(env, K, epsilon, delta, budget), takes a budget).  The same
# calls the library's own registry makes; ``optmai`` goes through the module
# attribute so a traced pass sees the timed ``opt_mai``.
GRID_ALGORITHMS = {
    "adaptive": (lambda env, K, eps, delta, budget: adaptive_topk(env, K, eps, delta), False),
    "adaptive-fb": (lambda env, K, eps, delta, budget:
                    adaptive_topk_fixed_budget(env, K, budget, delta=delta), True),
    "adaptive-fb-tuned": (lambda env, K, eps, delta, budget:
                          adaptive_topk_fixed_budget(env, K, budget, delta=delta, tuned=True), True),
    "uniform": (lambda env, K, eps, delta, budget: uniform_topk(env, K, budget), True),
    "improved": (lambda env, K, eps, delta, budget: improved_topk(env, K, eps, delta), False),
    "optmai": (lambda env, K, eps, delta, budget:
               improved_module.opt_mai(env, range(env.n), K, eps, delta), False),
}


class Grid:
    """``run_experiment`` on two-group means over the auto six-point grid."""

    WARM_UP = False  # the first pass is a few percent slower; the median absorbs it
    variants = 1     # ``run_experiment`` seeds its trials from the workload seed

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n, self.K, self.trials = (60, 6, 2) if tiny else (1000, 100, 20)

    def setup(self, ctx: Context) -> None:
        with ctx.span("instances.gen"):
            means = gen_two_group(self.n, self.K)
        self.h = Scorer(ctx, means, self.K).h
        budgets = default_budget_grid(means, self.K, EPSILON)
        self.config = ExperimentConfig(
            instance="two-group", n=self.n, k=self.K, epsilon=EPSILON, delta=DELTA,
            algorithms=tuple(GRID_ALGORITHMS), budgets=tuple(budgets),
            trials=self.trials, base_seed=self.seed)

    @staticmethod
    def algorithms(ctx: Context, chosen: list) -> dict:
        """``run_experiment`` overrides that time and check every call and
        append each selection to ``chosen``."""
        def wrap(name, call, takes_budget):
            def algorithm(env, K, epsilon, delta, budget):
                fn = lambda e: call(e, K, epsilon, delta, budget)
                sel = run_selection(ctx, name, fn, env, K, budget if takes_budget else None)
                # A failed call is counted; a placeholder keeps the grid going.
                arms = sel.arms if sel is not None else frozenset(range(K))
                chosen.append(f"{name}:{_arms_text(arms)}")
                return arms
            return algorithm

        return {name: wrap(name, call, takes_budget)
                for name, (call, takes_budget) in GRID_ALGORITHMS.items()}

    def run_pass(self, ctx: Context, variant: int = 0) -> PassResult:
        chosen = []
        algorithms = self.algorithms(ctx, chosen)
        t0 = time.perf_counter()
        with ctx.span("bench.run_experiment"):
            report = run_experiment(self.config, algorithms=algorithms)
        seconds = time.perf_counter() - t0
        rows = report.rows

        def pulls_per_h(algo):
            return float(np.mean([r["mean_total_pulls"] for r in rows if r["algorithm"] == algo])) / self.h

        quality = {
            "selections": sum(r["trials"] for r in rows),
            "misses": sum(r["failures"] for r in rows),
            "regret_sum": math.fsum(r["mean_regret"] * r["trials"] for r in rows),
            "pulls_per_h.adaptive": pulls_per_h("adaptive"),
            "pulls_per_h.improved": pulls_per_h("improved"),
        }
        return PassResult(seconds, ctx.completed, _digest([report.to_csv()] + chosen), quality)


class _SelectionCalls:
    """A workload made of direct selection calls, each on a fresh seeded
    environment, scored against its instance outside the timed call."""

    variants = 1

    def _selections(self, ctx: Context, calls, variant: int):
        """Run ``calls``; returns the digest parts and the quality tally."""
        parts, quality = [], {"selections": 0, "misses": 0, "regret_sum": 0.0}
        pulls = defaultdict(list)
        for i, (algo, fn, instance, scorer, budget) in enumerate(calls):
            env = ArmEnvironment(instance, seed=_seed(self.seed, 2, variant, i))
            sel = run_selection(ctx, algo, fn, env, instance.K, budget)
            if sel is None:
                parts.append(f"{algo}:failed")
                continue
            regret = scorer.regret(sel.arms)
            parts.append(f"{algo}:{sel.pulls}:{_arms_text(sel.arms)}")
            quality["selections"] += 1
            quality["misses"] += regret > EPSILON
            quality["regret_sum"] += regret
            pulls[algo].append(sel.pulls / scorer.h)
        for algo in ("adaptive", "improved"):
            if pulls[algo]:
                quality[f"pulls_per_h.{algo}"] = float(np.mean(pulls[algo]))
        return parts, quality


class LargeN(_SelectionCalls):
    """Single calls on 10^6 uniform-random means, K = 10^5, budget 50 n."""

    # The first pass is about a quarter slower: its big arrays come from
    # fresh memory.  Only three or four passes fit in a run.
    WARM_UP = True

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n, self.K = (2000, 200) if tiny else (10**6, 10**5)

    @staticmethod
    def _calls(instance, scorer, K, budget):
        return [
            ("adaptive", lambda env: adaptive_topk(env, K, EPSILON, DELTA), instance, scorer, None),
            ("adaptive-fb-tuned", lambda env: adaptive_topk_fixed_budget(
                env, K, budget, delta=DELTA, tuned=True), instance, scorer, budget),
            ("adaptive-fb", lambda env: adaptive_topk_fixed_budget(env, K, budget, delta=DELTA),
             instance, scorer, budget),
            ("uniform", lambda env: uniform_topk(env, K, budget), instance, scorer, budget),
        ]

    def setup(self, ctx: Context) -> None:
        means = _random_means(ctx, self.seed, 1, self.n)
        scorer = Scorer(ctx, means, self.K)
        instance = Instance(means, self.K, EPSILON, DELTA)
        self.calls = self._calls(instance, scorer, self.K, 50 * self.n)

    def run_pass(self, ctx: Context, variant: int = 0) -> PassResult:
        parts, quality = self._selections(ctx, self.calls, variant)
        return PassResult(ctx.call_s, ctx.completed, _digest(parts), quality)


class StepLoops(_SelectionCalls):
    """Per-step loops: ``cb-ar`` at the first grid budget, ``improved`` and
    ``adaptive`` on one uniform-random instance, the coin error scan and a
    batch of seeded lower-bound reductions driving ``adaptive_topk``.

    The sizes keep a pass near 2 s, so a run holds a dozen passes or more
    and their median.  Each of the ten variants runs every selection on its
    own seeded environments, and each ``cb-ar`` call on its own seeded
    shuffle of the arms, as ``run_experiment`` shuffles each trial: how
    ``cb-ar`` breaks ties depends on the arm order.  So the regret of a cycle
    averages 60 ``cb-ar`` selections and 60 arm orders, and the work of a
    pass varies little from one seed to the next.
    """

    WARM_UP = False  # no first-pass slowdown measured; the median absorbs it
    CB_AR_CALLS = 6  # per pass; one call's regret ranges from 0.08 to 0.2

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        if tiny:
            self.cb_n, self.cb_k, self.imp_n, self.imp_k = 100, 10, 500, 50
            self.coin_m, self.red_n, self.reductions = 1000, 100, 4
            self.variants = 2
        else:
            self.cb_n, self.cb_k, self.imp_n, self.imp_k = 200, 20, 2000, 200
            self.coin_m, self.red_n, self.reductions = 10**5, 1000, 20
            self.variants = 10

    def setup(self, ctx: Context) -> None:
        with ctx.span("instances.gen"):
            two = gen_two_group(self.cb_n, self.cb_k)
        cb_k = self.cb_k
        budget = max(self.cb_n, round(Scorer(ctx, two, cb_k).h))  # the first point of the auto grid
        cb_ar = lambda env: cb_accept_reject_topk(env, cb_k, budget)
        K = self.imp_k
        means = _random_means(ctx, self.seed, 3, self.imp_n)
        instance, scorer = Instance(means, K, EPSILON, DELTA), Scorer(ctx, means, K)
        tail = [("improved", lambda env: improved_topk(env, K, EPSILON, DELTA), instance, scorer, None),
                ("adaptive", lambda env: adaptive_topk(env, K, EPSILON, DELTA), instance, scorer, None)]
        self.calls = []  # per variant
        for variant in range(self.variants):
            calls = []
            for j in range(self.CB_AR_CALLS):
                shuffled = two[np.random.default_rng(_seed(self.seed, 1, variant, j)).permutation(self.cb_n)]
                calls.append(("cb-ar", cb_ar, Instance(shuffled, cb_k, EPSILON, DELTA),
                              Scorer(ctx, shuffled, cb_k), budget))
            self.calls.append(calls + tail)
        self.reduction_seeds = [int(_seed(self.seed, 4, j).generate_state(1)[0])
                                for j in range(self.reductions)]

    def _adaptive(self, ctx: Context):
        """The selector handed to the reduction (timed in a traced pass)."""
        tracer = ctx.tracer
        if tracer is None:
            return lambda env, K, eps, delta: adaptive_topk(env, K, eps, delta)

        def traced(env, K, eps, delta):
            with tracer.span("algo.adaptive") as sid:
                result = adaptive_topk(TimedEnv(env, tracer), K, eps, delta)
                tracer.note(sid, rounds=result.rounds_completed)
                return result
        return traced

    def run_pass(self, ctx: Context, variant: int = 0) -> PassResult:
        parts, quality = self._selections(ctx, self.calls[variant], variant)
        log_err = run_call(
            ctx, "lowerbound.optimal_coin_log_error", lambda: optimal_coin_log_error(self.coin_m, 0.1),
            lambda v: None if math.isfinite(v) and v < 0 else f"log error {v!r} is not finite and negative")
        parts.append(f"coin:{log_err!r}")
        selector = self._adaptive(ctx)
        n = self.red_n
        for seed in self.reduction_seeds:
            answer = run_call(
                ctx, "lowerbound.reduction_run",
                lambda: reduction_run(selector, n, n // 2, 0.1, 0.2, C=10**6, seed=seed),
                lambda v: None if v in REDUCTION_ANSWERS else f"answer {v!r} is not a reduction answer")
            parts.append(f"reduction:{seed}:{answer}")
        return PassResult(ctx.call_s, ctx.completed, _digest(parts), quality)


WORKLOADS = {"grid": Grid, "large-n": LargeN, "step-loops": StepLoops}
