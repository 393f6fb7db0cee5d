import csv
import io
import json
import os
import subprocess
import sys

import pytest

import topk_bandit
from topk_bandit.bench import ALGORITHMS, default_budget_grid
from topk_bandit.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from topk_bandit.instances import gen_two_group, load_means


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hardness_two_group(capsys):
    code, out, _ = run_cli(capsys, "hardness", "--instance", "two-group",
                           "--n", "1000", "--k", "100", "--epsilon", "0.01")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["h_t_eps"] == pytest.approx(6250, abs=1e-6)
    assert doc["h_t_eps"] == doc["h_0_eps"]


def test_hardness_uniform_small(capsys):
    code, out, _ = run_cli(capsys, "hardness", "--instance", "uniform",
                           "--n", "4", "--k", "2", "--epsilon", "0.25")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["t"] == 1
    assert doc["h_t_eps"] == pytest.approx(16.0)


def test_hardness_k_equals_n_is_data_error(capsys):
    code, _, err = run_cli(capsys, "hardness", "--instance", "two-group",
                           "--n", "10", "--k", "10")
    assert code == EXIT_DATA
    assert "error" in err


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "no-such-command")[0] == EXIT_USAGE
    assert run_cli(capsys, "hardness", "--instance", "two-group")[0] == EXIT_USAGE  # --k missing


def test_gen_roundtrips_through_loader(capsys, tmp_path):
    out_file = tmp_path / "means.txt"
    code, _, _ = run_cli(capsys, "gen", "--instance", "synthetic", "--n", "12",
                         "--k", "4", "--p", "2.0", "--out", str(out_file))
    assert code == EXIT_OK
    means = load_means(out_file)
    assert means.size == 12
    expected_top = (1 - 4 / 12) + (4 / 12) * (1 - 1 / 4) ** 2.0
    assert means[0] == pytest.approx(expected_top)
    assert means[-1] == pytest.approx(0.0)


def test_run_single_trial_json(capsys):
    code, out, _ = run_cli(capsys, "run", "--instance", "two-group", "--n", "20",
                           "--k", "5", "--algo", "adaptive", "--epsilon", "0.05",
                           "--delta", "0.1", "--seed", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["selected"]) == 5
    assert doc["total_pulls"] > 0
    assert doc["success"] is True


@pytest.mark.parametrize("algo", sorted(n for n, (_, takes_budget) in ALGORITHMS.items() if takes_budget))
def test_run_requires_budget_for_fixed_budget_algos(capsys, algo):
    code, _, err = run_cli(capsys, "run", "--instance", "two-group", "--n", "20",
                           "--k", "5", "--algo", algo)
    assert code == EXIT_DATA
    assert f"--budget is required for {algo}" in err


def test_gen_rejects_a_mean_file(capsys, tmp_path):
    means_file = tmp_path / "means.txt"
    means_file.write_text("0.9\n0.1\n")
    code, _, err = run_cli(capsys, "gen", "--instance", str(means_file), "--k", "1",
                           "--out", str(tmp_path / "out.txt"))
    assert code == EXIT_DATA
    assert "generator name" in err
    assert not (tmp_path / "out.txt").exists()


def test_experiment_writes_deterministic_csv(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["experiment", "--instance", "two-group", "--n", "20", "--k", "5",
            "--epsilon", "0.05", "--delta", "0.1", "--budgets", "100,400",
            "--trials", "5", "--seed", "11", "--algo", "adaptive-fb"]
    assert run_cli(capsys, *argv, "--out", str(out1))[0] == EXIT_OK
    assert run_cli(capsys, *argv, "--out", str(out2))[0] == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("algorithm,budget,trials,failures")


def test_experiment_auto_budgets_and_json_mirror(capsys, tmp_path):
    # "auto" runs the difficulty-scaled grid; --json-out mirrors the CSV.
    mirror = tmp_path / "exp.json"
    code, out, _ = run_cli(capsys, "experiment", "--instance", "two-group", "--n", "20", "--k", "5",
                           "--epsilon", "0.05", "--budgets", "auto", "--trials", "2", "--seed", "3",
                           "--algo", "uniform", "--json-out", str(mirror))
    assert code == EXIT_OK
    grid = default_budget_grid(gen_two_group(20, 5), 5, 0.05)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["budget"]) for r in rows] == grid and len(grid) > 1
    report = json.loads(mirror.read_text())
    assert report["config"]["budgets"] == grid
    assert [{k: str(v) for k, v in row.items()} for row in report["rows"]] == rows


def test_experiment_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "instance = two-group\nn = 20\nk = 5\nepsilon = 0.05\ndelta = 0.1\n"
        "budgets = 100,400\ntrials = 5\nseed = 11\nalgos = adaptive-fb\n"
    )
    out1, out2 = tmp_path / "c.csv", tmp_path / "d.csv"
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                         "--instance", "two-group", "--k", "5", "--out", str(out1))
    assert code == EXIT_OK
    # flags override the file: fewer trials changes the report
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                         "--instance", "two-group", "--k", "5",
                         "--trials", "3", "--out", str(out2))
    assert code == EXIT_OK
    assert b",5," in out1.read_bytes()
    assert b",3," in out2.read_bytes()


@pytest.mark.parametrize("flags, code, algos, trials", [
    (["--trials", "2"], EXIT_OK, ["uniform", "cb-ar"], "2"),
    ([], EXIT_OK, ["uniform", "cb-ar"], "7"),
    (["--algo", "adaptive-fb"], EXIT_OK, ["adaptive-fb"], "7"),
    # An abbreviation would slip past the precedence check and lose to the file.
    (["--tri", "2"], EXIT_USAGE, None, None),
], ids=["flag-wins", "file-fills-omitted-flag", "algo-replaces-algos", "abbreviation"])
def test_config_file_precedence(capsys, tmp_path, flags, code, algos, trials):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("trials = 7\nalgos = uniform,cb-ar\n")
    got, out, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--instance", "two-group",
                          "--n", "12", "--k", "3", "--budgets", "60", *flags)
    assert got == code
    if code == EXIT_OK:
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["algorithm"] for r in rows] == algos
        assert {r["trials"] for r in rows} == {trials}


def test_config_file_alone_supplies_instance_and_k(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("instance = two-group\nn = 12\nk = 3\nbudgets = 60\ntrials = 2\n"
                   "algos = uniform\n")
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["algorithm"], r["budget"], r["trials"]) for r in rows] == [("uniform", "60", "2")]


def test_config_file_skips_blank_and_comment_lines(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# a small experiment\n\ninstance = two-group  # generator\n   \nn = 12\nk = 3\n"
                   "  # indented comment\nbudgets = 60\ntrials = 2\nalgos = uniform\n")
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["algorithm"], r["budget"], r["trials"]) for r in rows] == [("uniform", "60", "2")]


@pytest.mark.parametrize("key, other", [("instance", "k = 3"), ("k", "instance = two-group")])
def test_value_missing_from_flags_and_file_is_usage_error(capsys, tmp_path, key, other):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"n = 12\n{other}\nbudgets = 60\ntrials = 2\n")
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert f"--{key}" in err and f"'{key}'" in err
    assert out == ""


@pytest.mark.parametrize("line, key", [("n = 1e3", "n"), ("epsilon = small", "epsilon")])
def test_bad_config_value_names_file_line_and_key(capsys, tmp_path, line, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"instance = two-group\n{line}\nk = 3\n")
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == EXIT_DATA
    assert err.startswith(f"error: {cfg}:2: bad value for key '{key}': ")
    assert out == ""


@pytest.mark.parametrize("line, message", [("trials 3", "expected 'key = value'"),
                                           ("trails = 3", "unknown key 'trails'")],
                         ids=["no-equals-sign", "unknown-key"])
def test_malformed_config_line_names_file_and_line(capsys, tmp_path, line, message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"instance = two-group\n{line}\nk = 3\n")
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == EXIT_DATA
    assert err == f"error: {cfg}:2: {message}\n"
    assert out == ""


def test_seed_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TOPK_BANDIT_SEED", "777")
    code, out, _ = run_cli(capsys, "run", "--instance", "two-group", "--n", "10",
                           "--k", "2", "--algo", "adaptive")
    assert code == EXIT_OK
    assert json.loads(out)["seed"] == 777


def test_lowerbound_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "lowerbound", "--eta", "0.1", "--m", "100,200")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,error,log_error"
    m, err, log_err = lines[1].split(",")
    assert int(m) == 100 and 0 < float(err) < 1 and float(log_err) < 0


@pytest.mark.parametrize("m", ["", " , "])
def test_lowerbound_empty_m_is_a_data_error(capsys, m):
    code, out, err = run_cli(capsys, "lowerbound", "--m", m)
    assert code == EXIT_DATA
    assert err == "error: --m must list at least one toss count\n"
    assert out == ""


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["topk-bandit", "hardness", "--instance", "uniform",
                                      "--n", "4", "--k", "2", "--epsilon", "0.25"])
    assert main() == EXIT_OK
    assert json.loads(capsys.readouterr().out)["t"] == 1


def test_module_runs_as_a_script():
    # ``python -m topk_bandit.cli`` exits with main's code.
    src = os.path.dirname(os.path.dirname(topk_bandit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    args = ["hardness", "--instance", "uniform", "--n", "4", "--k", "2", "--epsilon", "0.25"]
    done = subprocess.run([sys.executable, "-m", "topk_bandit.cli", *args], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["t"] == 1
    bad = subprocess.run([sys.executable, "-m", "topk_bandit.cli", "lowerbound", "--m", ""], env=env,
                         capture_output=True, text=True, check=False)
    assert bad.returncode == EXIT_DATA


@pytest.mark.parametrize("argv, message", [
    (["run", "--instance", "two-group", "--n", "20", "--k", "5", "--algo", "adaptive", "--seed", "-1"],
     "seed must be an integer >= 0, got -1"),
    (["experiment", "--instance", "two-group", "--n", "20", "--k", "5", "--trials", "1",
      "--budgets", "1000,2500.5"], "budget must be an integer, got '2500.5'"),
    (["lowerbound", "--m", "10,2.5"], "m must be an integer, got '2.5'"),
], ids=["run-negative-seed", "experiment-float-budget", "lowerbound-float-m"])
def test_bad_integer_names_its_argument(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_DATA
    assert f"error: {message}" in err
    assert out == ""


def test_negative_seed_from_environment_names_the_seed(capsys, monkeypatch):
    monkeypatch.setenv("TOPK_BANDIT_SEED", "-1")
    code, out, err = run_cli(capsys, "run", "--instance", "two-group", "--n", "10",
                             "--k", "2", "--algo", "adaptive")
    assert code == EXIT_DATA
    assert "error: seed must be an integer >= 0, got -1" in err
    assert out == ""


def test_non_integer_seed_from_environment_is_a_data_error(capsys, monkeypatch):
    monkeypatch.setenv("TOPK_BANDIT_SEED", "seven")
    code, out, err = run_cli(capsys, "run", "--instance", "two-group", "--n", "10",
                             "--k", "2", "--algo", "adaptive")
    assert code == EXIT_DATA
    assert "error: TOPK_BANDIT_SEED is not an integer: 'seven'" in err
    assert out == ""
