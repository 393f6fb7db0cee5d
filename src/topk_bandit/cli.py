"""Command-line interface.

Subcommands:
    hardness    print the difficulty report of an instance as JSON
    gen         write a generated mean vector to a file
    run         run one algorithm once and print the outcome as JSON
    experiment  run a seeded budget-grid experiment, write CSV (and JSON)
    lowerbound  print exact coin-distinguishing errors as (m, error) CSV

Exit codes: 0 success, 1 usage error, 2 data error.  The base seed falls
back to the TOPK_BANDIT_SEED environment variable when --seed is omitted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import (
    ALGORITHMS,
    GENERATORS,
    ExperimentConfig,
    default_budget_grid,
    resolve_means,
    run_experiment,
    setup_trial,
)
from .env import _integer
from .hardness import hardness
from .lowerbound import optimal_coin_error, optimal_coin_log_error

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_CONFIG_KEYS = {
    "instance": str, "n": int, "k": int, "p": float, "epsilon": float,
    "delta": float, "budgets": str, "trials": int, "seed": int,
    "algos": str, "out": str, "workers": int,
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # Exact flags only: the config-file precedence check compares names.
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed() -> int:
    raw = os.environ.get("TOPK_BANDIT_SEED")
    if raw is not None:
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"TOPK_BANDIT_SEED is not an integer: {raw!r}") from exc
    return 0


def _integer_list(name: str, text) -> list:
    """Comma-separated integers; ValueError naming ``name`` at a token that
    is not one (empty tokens are skipped)."""
    values = []
    for tok in str(text).split(","):
        if tok.strip():
            try:
                values.append(int(tok))
            except ValueError:
                raise ValueError(f"{name} must be an integer, got {tok.strip()!r}") from None
    return values


def _add_instance_flags(p, required=True):
    # ``experiment`` may take --instance and --k from its config file instead.
    p.add_argument("--instance", required=required,
                   help="two-group | uniform | synthetic | path to a mean file")
    p.add_argument("--n", type=int, default=1000, help="number of arms for generators")
    p.add_argument("--k", type=int, required=required, help="number of arms to select")
    p.add_argument("--p", type=float, default=1.0, help="shape exponent for synthetic")


def _parse_config_file(path: str) -> dict:
    """Flat key = value file; '#' starts a comment; keys match CLI flags."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for key {key!r}: {exc}") from None
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="topk-bandit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hardness", help="instance difficulty report as JSON")
    _add_instance_flags(p)
    p.add_argument("--epsilon", type=float, default=0.01)

    p = sub.add_parser("gen", help="write a generated mean vector to a file")
    _add_instance_flags(p)
    p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("run", help="single algorithm run as JSON")
    _add_instance_flags(p)
    p.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    needs_budget = ", ".join(name for name, (_, takes_budget) in ALGORITHMS.items() if takes_budget)
    p.add_argument("--budget", type=int, default=None,
                   help=f"pull budget (required by {needs_budget})")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("experiment", help="budget-grid experiment to CSV")
    p.add_argument("--config", default=None, help="flat key=value config file")
    _add_instance_flags(p, required=False)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--budgets", default="auto",
                   help="comma-separated budgets, or 'auto' for a difficulty-scaled grid")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--algo", action="append", choices=sorted(ALGORITHMS),
                   help="repeatable; default adaptive-fb")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--json-out", default=None, help="optional JSON mirror path")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("lowerbound", help="optimal coin-distinguishing error CSV")
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--m", default="100,200,400,800,1600",
                   help="comma-separated toss counts")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _means(args) -> np.ndarray:
    """The mean vector named by the instance flags (generator or file)."""
    return resolve_means(ExperimentConfig(instance=args.instance, k=args.k, n=args.n, p=args.p,
                                          budgets=(1,)))


def _selection_means(args) -> np.ndarray:
    means = _means(args)
    _integer("k", args.k, 1, means.size - 1)
    return means


def _cmd_hardness(args) -> int:
    sorted_means = np.sort(_means(args))[::-1]
    report = hardness(sorted_means, args.k, args.epsilon)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.instance not in GENERATORS:
        raise ValueError(f"gen requires a generator name, got {args.instance!r}")
    means = _means(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# {args.instance} n={args.n} k={args.k} p={args.p}\n")
        for v in means:
            fh.write(f"{float(v)!r}\n")
    return EXIT_OK


def _cmd_run(args) -> int:
    seed = _integer("seed", args.seed if args.seed is not None else _default_seed(), 0)
    means = _selection_means(args)
    select, takes_budget = ALGORITHMS[args.algo]
    if takes_budget and args.budget is None:
        raise ValueError(f"--budget is required for {args.algo}")
    budget = args.budget if args.budget is not None else 0
    env, _, regret_of = setup_trial(means, args.k, args.epsilon, args.delta,
                                    np.random.SeedSequence((seed, 0x5F)),
                                    np.random.SeedSequence((seed, 0xE)))
    selected = select(env, args.k, args.epsilon, args.delta, budget)
    regret = regret_of(selected)
    print(json.dumps({
        "algorithm": args.algo,
        "selected": selected.tolist(),
        "total_pulls": env.total_pulls(),
        "regret": regret,
        "success": regret <= args.epsilon,
        "seed": seed,
    }, indent=2))
    return EXIT_OK


def _write_out(path, text: str) -> None:
    """Write ``text`` to ``path``, or to standard output when it is None."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_experiment(args, argv) -> int:
    if args.config:
        # Command-line flags win over config-file values.
        present = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
        for key, val in _parse_config_file(args.config).items():
            if key == "algos":
                if not args.algo:
                    args.algo = [a.strip() for a in val.split(",")]
            elif f"--{key}" not in present:
                setattr(args, key, val)
    for key in ("instance", "k"):
        if getattr(args, key) is None:
            print(f"error: --{key} is required (or the config-file key {key!r})", file=sys.stderr)
            return EXIT_USAGE
    seed = args.seed if args.seed is not None else _default_seed()
    algos = tuple(args.algo) if args.algo else ("adaptive-fb",)
    means = _selection_means(args)
    if args.budgets == "auto":
        budgets = default_budget_grid(means, args.k, args.epsilon)
    else:
        budgets = _integer_list("budget", args.budgets)
    config = ExperimentConfig(
        instance=args.instance, k=args.k, n=args.n, p=args.p,
        epsilon=args.epsilon, delta=args.delta, algorithms=algos,
        budgets=tuple(budgets), trials=args.trials, base_seed=seed,
        workers=args.workers,
    )
    report = run_experiment(config)
    _write_out(args.out, report.to_csv())
    if args.json_out:
        _write_out(args.json_out, report.to_json())
    return EXIT_OK


def _cmd_lowerbound(args) -> int:
    ms = _integer_list("m", args.m)
    if not ms:
        raise ValueError("--m must list at least one toss count")
    lines = ["m,error,log_error"]
    for m in ms:
        lines.append(f"{m},{optimal_coin_error(m, args.eta)!r},{optimal_coin_log_error(m, args.eta)!r}")
    _write_out(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "hardness": _cmd_hardness,
    "gen": _cmd_gen,
    "run": _cmd_run,
    "lowerbound": _cmd_lowerbound,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        if args.command == "experiment":
            return _cmd_experiment(args, list(argv))
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
