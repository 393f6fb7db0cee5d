"""Smoke test of the benchmark itself, at tiny sizes.

Checks that every metric named in BENCHMARK.json is printed with its unit,
that traced and untraced passes give identical report digests, and that the
benchmark's algorithm wrappers leave the experiment report byte-identical.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload, trace):
    lines = []
    result = run.run_workload(workload, seed=3, seconds=0, trace=trace, tiny=True, emit=lines.append)
    json.dumps(result, allow_nan=False)
    return result, lines


def _field(lines, key):
    return [line.split()[1] for line in lines if line.split()[0] == key]


def test_metric_lists_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_printed_and_digests_agree(workload):
    plain, plain_lines = _run(workload, 0)
    traced, traced_lines = _run(workload, 1)
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert list(plain["metrics"]) == list(run.END_TO_END)
    assert list(traced["metrics"]) == list(run.PER_LAYER)
    for result in (plain, traced):
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))
    for name in run.END_TO_END:
        assert plain["metrics"][name]["value"] > 0
        line = next(l for l in plain_lines if l.startswith(f"metric {name} "))
        assert line.split()[3] == units[name] and " n=" in line
    for name in run.END_TO_END + run.REPORTED:
        assert any(l.startswith(f"metric {name} ") for l in plain_lines)
    for name in run.PER_LAYER:
        line = next(l for l in traced_lines if l.startswith(f"layer {name} "))
        assert line.split()[3] == units[name]

    digests = _field(plain_lines, "report_sha256") + _field(traced_lines, "report_sha256") \
        + _field(traced_lines, "report_sha256_traced")
    assert len(digests) == 3 and len(set(digests)) == 1


def test_grid_wrappers_keep_the_report_byte_identical():
    import spans
    import workloads
    from topk_bandit import run_experiment

    grid = workloads.Grid(seed=3, tiny=True)
    grid.setup(workloads.Context(workloads.Ledger()))
    expected = run_experiment(grid.config).to_csv()
    tracer = spans.Tracer()
    ctx = workloads.Context(workloads.Ledger(), tracer)
    with spans.patched(tracer):
        traced = run_experiment(grid.config, algorithms=grid.algorithms(ctx, [])).to_csv()
    plain = run_experiment(grid.config, algorithms=grid.algorithms(workloads.Context(workloads.Ledger()), []))
    assert traced == expected
    assert plain.to_csv() == expected
    assert any(s[spans.NAME] == "improved.est_kth_arm" for s in tracer.spans)


def test_contract_violations_are_counted_not_raised():
    import workloads
    from topk_bandit import ArmEnvironment, Instance, uniform_topk

    ledger = workloads.Ledger()
    ctx = workloads.Context(ledger)
    env = ArmEnvironment(Instance([0.9, 0.5, 0.1], 1, 0.1, 0.1), seed=0)

    def select(fn, budget=None):
        return workloads.run_selection(ctx, "uniform", fn, env, 1, budget)

    assert select(lambda e: {0, 1}) is None                          # two arms for K = 1
    assert select(lambda e: uniform_topk(e, 1, 30), budget=20) is None  # over budget
    assert select(lambda e: 1 / 0) is None                           # raises
    assert select(lambda e: uniform_topk(e, 1, 30), budget=30) is not None
    assert ledger.attempted == 4 and len(ledger.failures) == 3
