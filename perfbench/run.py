#!/usr/bin/env python3
"""Benchmark of the topk_bandit package, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another

The package is imported from the checkout's ``src`` directory; nothing is
installed.  A run sets up its inputs from ``--seed`` three times (set-up time
is the import time plus the median set-up), makes an untimed warm-up pass
where the workload asks for one, then repeats passes of the workload, cycling
through its variants, until ``--seconds`` have gone by and every variant has
run.  A fixed reference computation (``reference.py``) is timed between
passes, and pass times are also reported as multiples of it.  With
``--trace 0`` the passes are untraced and the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and the JSON carries the per-layer metrics.  The lines before it give every
metric with its unit and sample count, the report digest and the provenance.
Results, and the spans of a traced run, are also written under
``perfbench/out/``.  See ``perfbench/METRICS.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("grid", "large-n", "step-loops")
SETUP_REPEATS = 3

# Printed on the last line with --trace 0, in this order (see BENCHMARK.json).
END_TO_END = ("setup_s", "wall_ref", "mean_regret", "peak_rss_mb")
# Also printed, where the workload has them, but not on the last line: raw
# seconds, which follow the host's speed (see reference.py); metrics absent
# from some workload, 0 or the same on every seed of one; and metrics with too
# few samples per run to be steady on this class of shared machine.
REPORTED = ("wall_s", "trials_per_s", "reference_s", "run_s.adaptive", "run_s.adaptive-fb",
            "run_s.adaptive-fb-tuned", "run_s.uniform", "run_s.improved", "run_s.cb-ar",
            "error_frac", "miss_frac", "pulls_per_h.adaptive", "pulls_per_h.improved",
            "warmup_pass_s")
RUN_S_ALGORITHMS = ("adaptive", "adaptive-fb", "adaptive-fb-tuned", "uniform", "improved", "cb-ar")
PER_LAYER = (
    "env.pull_calls", "env.pulls", "env.pull_s", "env.pull_share",
    "adaptive.s", "adaptive.self_s", "adaptive.rounds", "adaptive.budget_use",
    "improved.s", "improved.self_s", "improved.est_kth_arm.calls", "improved.est_kth_arm.s",
    "improved.eps_split.s", "improved.elim.s", "improved.opt_mai.s",
    "baselines.uniform.s", "baselines.uniform.budget_use",
    "baselines.cb_ar.s", "baselines.cb_ar.self_s", "baselines.cb_ar.budget_use",
    "hardness.hardness.s", "hardness.aggregate_regret.calls", "hardness.aggregate_regret.s",
    "bench.run_experiment.s", "bench.harness_s", "bench.harness_share",
    "lowerbound.optimal_coin_log_error.s", "lowerbound.reduction_run.s",
    "lowerbound.reduction_run.answered_frac",
    "instances.gen_s", "trace.overhead_frac",
)


def _import_package():
    """Import the checkout's package; returns (workloads module, seconds)."""
    if not os.path.isdir(os.path.join(SRC, "topk_bandit")):
        raise SystemExit(f"error: no package source at {SRC}; run from a checkout of the repository")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import topk_bandit
    import workloads
    seconds = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(topk_bandit.__file__))) != SRC:
        raise SystemExit(f"error: topk_bandit was imported from {topk_bandit.__file__}, not {SRC}")
    return workloads, seconds


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_describe() -> str:
    """``git describe`` of the checkout, or "unknown" when it is not a git
    work tree (git is not asked to search the directories above it)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        described = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                                   capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return described.stdout.strip() or "unknown"


def provenance(seed: int, trace: int) -> dict:
    import numpy
    import scipy
    import topk_bandit
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "topk_bandit": topk_bandit.__version__,
        "git_describe": _git_describe(),
        "seed": seed,
        "trace": bool(trace),
    }


def _summary(samples) -> dict:
    """Median, sample count and, from 100 samples on, the 90th percentile."""
    out = {"value": statistics.median(samples), "samples": len(samples)}
    if len(samples) >= 100:
        out["p90"] = statistics.quantiles(samples, n=10)[-1]
    return out


def cycle_quality(cycle) -> dict:
    """Quality tally of one pass of each variant: counts and regret summed,
    ``pulls_per_h.*`` averaged."""
    quality = {key: sum(p.quality[key] for p in cycle) for key in ("selections", "misses")}
    quality["regret_sum"] = math.fsum(p.quality["regret_sum"] for p in cycle)
    for key in cycle[0].quality:
        if key.startswith("pulls_per_h."):
            quality[key] = statistics.fmean(p.quality[key] for p in cycle)
    return quality


def report_digest(passes, variants: int) -> str:
    """The pass digest of a one-variant workload, else the sha256 of the
    digests of its variants in order."""
    if variants == 1:
        return passes[0].digest
    return hashlib.sha256("\n".join(p.digest for p in passes[:variants]).encode()).hexdigest()


def end_to_end(ledger, plain, refs, variants: int, setup_s: float) -> dict:
    """Every end-to-end metric the workload has: ``{name: summary}``.
    ``refs[i]`` is the reference time around pass ``plain[i]``."""
    quality = cycle_quality(plain[:variants])
    pass_s = [p.seconds for p in plain]
    m = {
        "setup_s": {"value": setup_s, "unit": "s", "samples": SETUP_REPEATS},
        "wall_ref": {**_summary([s / r for s, r in zip(pass_s, refs)]), "unit": "ref"},
        "wall_s": {**_summary(pass_s), "unit": "s"},
        "reference_s": {**_summary(refs), "unit": "s"},
        "trials_per_s": {**_summary([p.completed / p.seconds for p in plain]), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB", "samples": 1},
        "error_frac": {"value": len(ledger.failures) / max(ledger.attempted, 1), "unit": "frac",
                       "samples": ledger.attempted},
    }
    for algo in RUN_S_ALGORITHMS:
        if ledger.times[algo]:
            m[f"run_s.{algo}"] = {**_summary(ledger.times[algo]), "unit": "s"}
    if quality["selections"]:
        m["miss_frac"] = {"value": quality["misses"] / quality["selections"], "unit": "frac",
                          "samples": quality["selections"]}
        m["mean_regret"] = {"value": quality["regret_sum"] / quality["selections"], "unit": "prob",
                            "samples": quality["selections"]}
    for algo in ("adaptive", "improved"):
        if f"pulls_per_h.{algo}" in quality:
            m[f"pulls_per_h.{algo}"] = {"value": quality[f"pulls_per_h.{algo}"], "unit": "ratio",
                                        "samples": 1}
    return m


def _line(name: str, metric: dict) -> str:
    text = f"metric {name} {metric['value']!r} {metric['unit']} n={metric['samples']}"
    if "p90" in metric:
        text += f" p90={metric['p90']!r}"
    return text


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False,
                 emit=print) -> dict:
    """Run one workload; emits the report lines and returns the result object."""
    workloads, import_s = _import_package()
    import reference
    import spans

    workload = workloads.WORKLOADS[name](seed, tiny)
    ledger = workloads.Ledger()
    tracer = spans.Tracer() if trace else None
    setup_times = []
    for i in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.run = f"setup-{i}"
        t0 = time.perf_counter()
        workload.setup(workloads.Context(ledger, tracer))
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    # A warm-up pass is checked like the others but kept out of the timings.
    variants = workload.variants
    warm_up = workload.run_pass(workloads.Context(ledger), 0) if workload.WARM_UP else None
    ledger.times.clear()
    # Each pass is bracketed by runs of the reference computation.
    host = reference.Reference()
    passes = []  # (variant, traced, PassResult, reference seconds around the pass)
    start = time.perf_counter()
    ref_before = host.seconds()
    cycle = 0
    while True:
        variant = cycle % variants
        for traced in ((False, True) if trace else (False,)):
            ctx = workloads.Context(ledger, tracer if traced else None)
            if traced:
                tracer.run = f"pass-{len(passes)}"
            with spans.patched(tracer) if traced else nullcontext():
                result = workload.run_pass(ctx, variant)
            ref_after = host.seconds()
            passes.append((variant, traced, result, (ref_before + ref_after) / 2))
            ref_before = ref_after
        cycle += 1
        if cycle >= variants and time.perf_counter() - start >= seconds:
            break

    plain = [p for _, traced, p, _ in passes if not traced]
    traced_passes = [p for _, traced, p, _ in passes if traced]
    digests = {(v, p.digest) for v, _, p, _ in passes} | ({(0, warm_up.digest)} if warm_up else set())
    correct = not ledger.failures and len(digests) == variants
    e2e = end_to_end(ledger, plain, [r for _, traced, _, r in passes if not traced], variants, setup_s)
    if warm_up:
        e2e["warmup_pass_s"] = {"value": warm_up.seconds, "unit": "s", "samples": 1}
    prov = provenance(seed, trace)

    emit(f"# perfbench workload={name} seed={seed} trace={trace} passes={len(passes)}")
    emit("provenance " + json.dumps(prov, sort_keys=True))
    emit(f"report_sha256 {report_digest(plain, variants)}")
    for failure in ledger.failures[:20]:
        emit(f"failure {failure}")
    if len(digests) != variants:
        emit(f"failure {variants} pass variants gave {len(digests)} different report digests")
    for metric in END_TO_END + REPORTED:
        emit(_line(metric, e2e[metric]) if metric in e2e else f"metric {metric} n/a (not in this workload)")

    layers = {}
    if trace:
        traced_ref = statistics.median(p.seconds / r for _, traced, p, r in passes if traced)
        overhead = traced_ref / e2e["wall_ref"]["value"] - 1.0
        layers = spans.layer_metrics(tracer, len(traced_passes), SETUP_REPEATS, overhead)
        emit(f"report_sha256_traced {report_digest(traced_passes, variants)}")
        for metric in PER_LAYER:
            value, unit = layers[metric]
            emit(f"layer {metric} {value!r} {unit}")
        final = {metric: {"value": layers[metric][0], "unit": layers[metric][1]} for metric in PER_LAYER}
    else:
        final = {metric: {"value": e2e[metric]["value"], "unit": e2e[metric]["unit"]}
                 for metric in END_TO_END}

    result = {"correct": correct, "attempted": ledger.attempted, "failed": len(ledger.failures),
              "metrics": final}
    if not tiny:
        _write_out(name, seed, trace, prov, e2e, layers, ledger, digests, tracer)
    return result


def _write_out(name, seed, trace, prov, e2e, layers, ledger, digests, tracer) -> None:
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "end_to_end": e2e,
                   "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
                   "report_sha256": sorted(digests), "failures": ledger.failures}, fh, indent=1)
    if tracer is not None:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for row in tracer.rows():
                fh.write(json.dumps(row) + "\n")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result["metrics"]
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
