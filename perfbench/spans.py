"""Spans recorded from the benchmark's own files, and the per-layer metrics
derived from them.

The library is not instrumented.  A traced pass wraps each environment in
:class:`TimedEnv`, opens a span around every call the benchmark makes into a
module's public function, and, for the pass only, swaps the public functions
that the library reaches through module globals (:data:`PATCHED`) for timed
wrappers.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# Public functions the library calls through its own module globals.  They
# are replaced on the module attribute during traced passes only.
PATCHED = {
    "topk_bandit.improved": ("est_kth_arm", "eps_split", "elim", "reverse_elim", "opt_mai"),
    "topk_bandit.bench": ("aggregate_regret",),
}

# Layer (module) of each algorithm name used in spans named ``algo.<name>``.
ALGO_LAYER = {
    "adaptive": "adaptive",
    "adaptive-fb": "adaptive",
    "adaptive-fb-tuned": "adaptive",
    "improved": "improved",
    "optmai": "improved",
    "uniform": "baselines",
    "cb-ar": "baselines",
}

NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Tracer:
    """In-memory span log.  A span is ``[name, start, end, parent, run, attrs]``:
    ``parent`` is the index of the enclosing span (or None) and ``run`` the
    identifier of the pass or set-up that produced it."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run, None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")

    def note(self, sid: int, **attrs) -> None:
        span = self.spans[sid]
        span[ATTRS] = {**(span[ATTRS] or {}), **attrs}

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    def rows(self):
        """Spans as JSON-ready dicts."""
        for i, (name, start, end, parent, run, attrs) in enumerate(self.spans):
            row = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": run}
            if attrs:
                row["attrs"] = attrs
            yield row


class TimedEnv:
    """Environment proxy, shaped like the library's own watchdog proxy, that
    records an ``env.pull`` span (with its pull count) around every pull."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.instance = inner.instance

    @property
    def n(self) -> int:
        return self._inner.n

    @property
    def pull_counts(self):
        return self._inner.pull_counts

    def _timed(self, pull, arms, m, pulls: int):
        sid = self._tracer.begin("env.pull")
        try:
            out = pull(arms, m)
        finally:
            self._tracer.end(sid)
        self._tracer.note(sid, pulls=pulls)
        return out

    def pull_batch(self, arm, m):
        return self._timed(self._inner.pull_batch, arm, m, int(m))

    def pull_many(self, arms, m):
        return self._timed(self._inner.pull_many, arms, m, len(arms) * int(m))

    def total_pulls(self) -> int:
        return self._inner.total_pulls()

    def spawn_rng(self):
        return self._inner.spawn_rng()


def _timed_function(fn, tracer: Tracer):
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def patched(tracer: Tracer):
    """Time the functions in :data:`PATCHED` until the block exits."""
    saved = []
    try:
        for module_name, names in PATCHED.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                saved.append((module, name, fn))
                setattr(module, name, _timed_function(fn, tracer))
        yield
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def _layer(name: str):
    head, _, rest = name.partition(".")
    return ALGO_LAYER[rest] if head == "algo" else head


def layer_metrics(tracer: Tracer, passes: int, setups: int, overhead_frac: float) -> dict:
    """Per-layer metrics of a traced run: ``{name: (value, unit)}``.

    Times and counts are per traced pass (set-up layers: per set-up).  A
    span's own time is its duration minus that of its child spans; a layer's
    self time is the own time of all its spans, i.e. its time less the time
    in other layers nested inside it.  Metrics of a layer the workload never
    calls read 0.
    """
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    own = list(dur)  # a span's own time: its duration minus its children's
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            own[s[PARENT]] -= dur[i]

    def named(*names):
        return [i for i, s in enumerate(spans) if s[NAME] in names]

    def total(ids):
        return sum(dur[i] for i in ids)

    def self_time(layer):
        return sum(own[i] for i, s in enumerate(spans) if _layer(s[NAME]) == layer)

    def attr(ids, key):
        return [spans[i][ATTRS][key] for i in ids if spans[i][ATTRS] and key in spans[i][ATTRS]]

    def worst_use(ids):
        uses = attr(ids, "budget_use")
        return min(uses) if uses else 0.0

    def share(part, whole):
        return part / whole if whole > 0 else 0.0

    algos = [i for i, s in enumerate(spans) if s[NAME].startswith("algo.")]
    adaptive = [i for i in algos if _layer(spans[i][NAME]) == "adaptive"]
    improved = [i for i in algos if _layer(spans[i][NAME]) == "improved"]
    uniform, cb_ar, env = named("algo.uniform"), named("algo.cb-ar"), named("env.pull")
    run_exp = named("bench.run_experiment")
    run_exp_ids = set(run_exp)
    harness = total(run_exp) - total(i for i in algos if spans[i][PARENT] in run_exp_ids)
    reductions = named("lowerbound.reduction_run")
    answered = [answer != "unknown" for answer in attr(reductions, "result")]
    regret_calls = named("hardness.aggregate_regret")
    est_kth = named("improved.est_kth_arm")
    per_pass = 1.0 / max(passes, 1)
    per_setup = 1.0 / max(setups, 1)

    return {
        "env.pull_calls": (len(env) * per_pass, "count"),
        "env.pulls": (sum(attr(env, "pulls")) * per_pass, "count"),
        "env.pull_s": (total(env) * per_pass, "s"),
        "env.pull_share": (share(total(env), total(algos)), "frac"),
        "adaptive.s": (total(adaptive) * per_pass, "s"),
        "adaptive.self_s": (self_time("adaptive") * per_pass, "s"),
        "adaptive.rounds": (sum(attr(adaptive, "rounds")) * per_pass, "count"),
        "adaptive.budget_use": (worst_use(adaptive), "frac"),
        "improved.s": (total(improved) * per_pass, "s"),
        "improved.self_s": (self_time("improved") * per_pass, "s"),
        "improved.est_kth_arm.calls": (len(est_kth) * per_pass, "count"),
        "improved.est_kth_arm.s": (total(est_kth) * per_pass, "s"),
        "improved.eps_split.s": (total(named("improved.eps_split")) * per_pass, "s"),
        "improved.elim.s": (total(named("improved.elim", "improved.reverse_elim")) * per_pass, "s"),
        "improved.opt_mai.s": (total(named("improved.opt_mai")) * per_pass, "s"),
        "baselines.uniform.s": (total(uniform) * per_pass, "s"),
        "baselines.uniform.budget_use": (worst_use(uniform), "frac"),
        "baselines.cb_ar.s": (total(cb_ar) * per_pass, "s"),
        "baselines.cb_ar.self_s": (sum(own[i] for i in cb_ar) * per_pass, "s"),
        "baselines.cb_ar.budget_use": (worst_use(cb_ar), "frac"),
        "hardness.hardness.s": (total(named("hardness.hardness")) * per_setup, "s"),
        "hardness.aggregate_regret.calls": (len(regret_calls) * per_pass, "count"),
        "hardness.aggregate_regret.s": (total(regret_calls) * per_pass, "s"),
        "bench.run_experiment.s": (total(run_exp) * per_pass, "s"),
        "bench.harness_s": (harness * per_pass, "s"),
        "bench.harness_share": (share(harness, total(run_exp)), "frac"),
        "lowerbound.optimal_coin_log_error.s": (
            total(named("lowerbound.optimal_coin_log_error")) * per_pass, "s"),
        "lowerbound.reduction_run.s": (total(reductions) * per_pass, "s"),
        "lowerbound.reduction_run.answered_frac": (share(sum(answered), len(answered)), "frac"),
        "instances.gen_s": (total(named("instances.gen")) * per_setup, "s"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
