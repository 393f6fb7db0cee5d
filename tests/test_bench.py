import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import topk_bandit
from topk_bandit.bench import (
    ALGORITHMS,
    CSV_COLUMNS,
    ExperimentConfig,
    default_budget_grid,
    resolve_means,
    run_experiment,
)
from topk_bandit.instances import gen_two_group


def small_config(**overrides):
    base = dict(instance="two-group", k=5, n=20, epsilon=0.05, delta=0.1,
                algorithms=("adaptive-fb",), budgets=(100, 400), trials=8, base_seed=9)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_budgets_must_increase(self):
        with pytest.raises(ValueError):
            small_config(budgets=(400, 100))
        with pytest.raises(ValueError):
            small_config(budgets=(100, 100))

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            small_config(trials=0)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_experiment(small_config(algorithms=("nope",)))

    def test_empty_budget_grid_rejected(self):
        with pytest.raises(ValueError, match="budget grid must not be empty"):
            small_config(budgets=())

    def test_injected_algorithms_need_one_worker(self):
        with pytest.raises(ValueError, match="injected algorithms require workers=1"):
            run_experiment(small_config(algorithms=("first",), workers=2),
                           algorithms={"first": lambda env, K, *rest: range(K)})


def test_report_row_of_a_missing_cell_is_a_key_error():
    report = run_experiment(small_config(trials=1))
    assert report.row("adaptive-fb", 400)["budget"] == 400
    for cell in (("adaptive-fb", 200), ("uniform", 100)):
        with pytest.raises(KeyError) as info:
            report.row(*cell)
        assert info.value.args == (cell,)


def test_resolve_means_generators_and_files(tmp_path):
    np.testing.assert_array_equal(resolve_means(small_config()), gen_two_group(20, 5))
    f = tmp_path / "m.txt"
    f.write_text("0.9\n0.1\n")
    cfg = small_config(instance=str(f), k=1, n=2)
    np.testing.assert_array_equal(resolve_means(cfg), [0.9, 0.1])


def test_exact_oracle_algorithm_never_fails():
    def oracle(env, K, epsilon, delta, budget):
        return set(np.argsort(-env.instance.means, kind="stable")[:K])

    cfg = small_config(algorithms=("oracle",), trials=1, budgets=(100,))
    report = run_experiment(cfg, algorithms={"oracle": oracle})
    row = report.row("oracle", 100)
    assert row["failure_probability"] == 0.0
    assert row["mean_regret"] == 0.0


def test_report_determinism_and_worker_independence():
    csv1 = run_experiment(small_config()).to_csv()
    csv2 = run_experiment(small_config()).to_csv()
    csv3 = run_experiment(small_config(workers=2)).to_csv()
    assert csv1 == csv2 == csv3


def test_worker_processes_forked_after_a_wide_request():
    # A request of more than 2^16 ids may draw on threads.  Worker processes
    # forked after one, each making such requests themselves, must finish
    # and report what one process reports.  A subprocess with a timeout turns
    # a hang into a failure.
    src = os.path.dirname(os.path.dirname(topk_bandit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    n = 2**16 + 5
    code = ("import numpy as np\n"
            "from topk_bandit import ArmEnvironment, Instance\n"
            "from topk_bandit.bench import ExperimentConfig, run_experiment\n"
            f"env = ArmEnvironment(Instance(np.full({n}, 0.5), 1, 0.1, 0.1), 0)\n"
            f"env.pull_many(np.arange({n}), 3)\n"
            f"cfg = dict(instance='uniform', k=10, n={n}, algorithms=('uniform',), budgets=({2 * n},),\n"
            "           trials=3, base_seed=4)\n"
            "two, one = (run_experiment(ExperimentConfig(**cfg, workers=w)).to_csv() for w in (2, 1))\n"
            "assert two == one, (two, one)\n"
            "print(one, end='')\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert out.returncode == 0, out.stderr
    header, row = out.stdout.splitlines()
    assert header.startswith("algorithm,") and row.startswith(f"uniform,{2 * n},3,")


def test_budget_cells_independent_of_grid_composition():
    full = run_experiment(small_config(budgets=(100, 400)))
    only_top = run_experiment(small_config(budgets=(400,)))
    assert full.row("adaptive-fb", 400) == only_top.row("adaptive-fb", 400)


def test_algorithms_share_streams_per_cell():
    # optmai ignores the budget; identical rows across grid points show the
    # per-cell seeds do not depend on position or on the other algorithms.
    a = run_experiment(small_config(algorithms=("optmai",), budgets=(100,)))
    b = run_experiment(small_config(algorithms=("adaptive-fb", "optmai"), budgets=(100,)))
    assert a.row("optmai", 100) == b.row("optmai", 100)


def test_csv_columns_and_shape():
    report = run_experiment(small_config(algorithms=("adaptive-fb", "uniform")))
    text = report.to_csv()
    header, *lines = text.strip().split("\n")
    assert header == ",".join(CSV_COLUMNS)
    assert len(lines) == 4  # 2 algorithms x 2 budgets
    assert len(report.rows) == 4
    for row in report.rows:
        assert row["failures"] == round(row["failure_probability"] * row["trials"])
        assert 0 <= row["failure_probability"] <= 1


def test_json_mirror_contains_config_and_rows():
    import json

    report = run_experiment(small_config())
    doc = json.loads(report.to_json())
    assert doc["config"]["instance"] == "two-group"
    assert len(doc["rows"]) == 2


def test_failure_probability_counts_strict_exceedances():
    def borderline(env, K, epsilon, delta, budget):
        # deliberately drop one boundary arm: regret == 0.08 > 0.05 on two-group
        order = np.argsort(-env.instance.means, kind="stable")
        return set(order[: K - 1]) | {int(order[K])}

    cfg = small_config(algorithms=("b",), trials=3, budgets=(100,))
    report = run_experiment(cfg, algorithms={"b": borderline})
    assert report.row("b", 100)["failure_probability"] == 1.0


# Selections of the 20-arm, K = 5 instance that no arm set matches.
BAD_SELECTIONS = {
    "too-short": [0, 1, 2, 3],
    "duplicate": [0, 1, 2, 3, 3],
    "negative": [-1, 0, 1, 2, 3],  # not the last arm
    "past-the-end": [0, 1, 2, 3, 20],
    "float-ids": [0.0, 1.0, 2.0, 3.0, 4.0],
}


@pytest.mark.parametrize("selection", BAD_SELECTIONS.values(), ids=BAD_SELECTIONS.keys())
def test_bad_selection_is_refused_naming_the_algorithm(selection):
    cfg = small_config(algorithms=("bad-pick",), trials=1, budgets=(100,))
    with pytest.raises(ValueError, match="^bad-pick returned a bad selection: "):
        run_experiment(cfg, algorithms={"bad-pick": lambda env, K, epsilon, delta, budget: selection})


def test_default_budget_grid_properties():
    means = gen_two_group(1000, 100)
    grid = default_budget_grid(means, 100, 0.01)
    assert grid == sorted(grid)
    assert len(grid) == 6
    assert grid[0] >= 1000
    assert grid[-1] == 50 * 6250


def test_all_registered_algorithms_run():
    for name in ALGORITHMS:
        if name == "improved":
            cfg = small_config(algorithms=(name,), trials=2, budgets=(200,), n=10, k=3)
        else:
            cfg = small_config(algorithms=(name,), trials=2, budgets=(200,))
        report = run_experiment(cfg)
        assert len(report.rows) == 1


def test_every_registered_algorithm_is_worker_independent():
    # Each registry entry crosses the process pool, so it must stay a
    # module-level function: a lambda cannot be pickled.
    for name in ALGORITHMS:
        cfg = small_config(algorithms=(name,), n=10, k=3, budgets=(60, 200), trials=3)
        assert run_experiment(replace(cfg, workers=2)).to_csv() == run_experiment(cfg).to_csv(), name
