import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import gammaln

import topk_bandit
from topk_bandit.adaptive import SelectionResult, adaptive_topk
from topk_bandit.env import ArmEnvironment, Instance
from topk_bandit.hardness import hardness
from topk_bandit.lowerbound import (
    GIVE_UP_RATE_CAP,
    CoinTossingInstance,
    Hidden,
    _CapWatchdog,
    _GiveUp,
    _coin_threshold,
    make_hard_instance,
    optimal_coin_error,
    optimal_coin_log_error,
    reduction_run,
)


class TestOptimalCoinError:
    def test_single_toss_exact_value(self):
        # t=0; the strategy errs exactly when the low coin shows a head.
        for eta in (0.05, 0.1, 0.3):
            assert optimal_coin_error(1, eta) == pytest.approx(0.5 - eta)

    def test_threshold_is_maximal(self):
        for m in (10, 100, 555, 2000):
            t, logpmf = _coin_threshold(m, 0.1)
            pmf = np.exp(logpmf)

            def window(tt):
                lo, hi = math.ceil(0.5 * m - tt), math.floor(0.5 * m + tt)
                return float(math.fsum(pmf[lo : hi + 1])) if lo <= hi else 0.0

            assert window(t) <= GIVE_UP_RATE_CAP
            assert window(t + 1) > GIVE_UP_RATE_CAP

    def test_monotone_decay(self):
        assert optimal_coin_error(400, 0.1) < optimal_coin_error(100, 0.1)
        errs = [optimal_coin_error(m, 0.1) for m in (100, 200, 400, 800, 1600)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_symmetry_between_hidden_values(self):
        # Error seen from the high coin equals the low-coin tail by k <-> m-k.
        for m in (17, 64, 301):
            t, logpmf_low = _coin_threshold(m, 0.1)
            hi = math.floor(0.5 * m + t)
            lo = math.ceil(0.5 * m - t)
            k = np.arange(m + 1, dtype=np.float64)
            logpmf_high = (gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
                           + k * math.log(0.5 + 0.1) + (m - k) * math.log(0.5 - 0.1))
            err_low = math.fsum(np.exp(logpmf_low[hi + 1 :]))
            err_high = math.fsum(np.exp(logpmf_high[:lo]))
            assert err_low == pytest.approx(err_high, rel=1e-12)

    def test_log_space_survives_large_m(self):
        log_err = optimal_coin_log_error(10**6, 0.1)
        assert log_err < -10_000  # far below float underflow in linear space
        assert optimal_coin_error(10**6, 0.1) == 0.0  # documented underflow

    def test_log_error_roughly_linear_in_m(self):
        ms = np.array([100, 200, 400, 800, 1600], dtype=float)
        ys = np.array([optimal_coin_log_error(int(m), 0.1) for m in ms])
        A = np.vstack([ms, np.ones_like(ms)]).T
        coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
        resid = ys - A @ coef
        r2 = 1 - float(resid @ resid) / float(((ys - ys.mean()) ** 2).sum())
        assert coef[0] < 0
        assert r2 >= 0.99

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            optimal_coin_error(0, 0.1)
        with pytest.raises(ValueError):
            optimal_coin_error(10, 0.5)


class TestHardInstance:
    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            make_hard_instance(5, 0.1, 0)

    def test_two_arm_case_means(self):
        seen = set()
        for seed in range(40):
            hard = make_hard_instance(2, 0.1, seed, hidden=Hidden.PLUS)
            ms = tuple(sorted(hard.means()))
            if hard.special_index in hard.planted:
                assert ms == (0.4, 0.6)
            else:
                assert ms == (0.6, 0.6)
            seen.add(hard.special_index in hard.planted)
        assert seen == {True, False}

    def test_high_arm_count_case_analysis(self):
        for seed in range(60):
            hard = make_hard_instance(10, 0.1, seed)
            in_planted = hard.special_index in hard.planted
            plus = hard.coin.hidden_value is Hidden.PLUS
            expected = {(True, True): 5, (True, False): 4, (False, True): 6, (False, False): 5}
            assert hard.high_arm_count() == expected[(in_planted, plus)]

    def test_eta_that_leaves_0_5_as_it_is_is_refused(self):
        # 2^-54 is half an ulp above 0.5: 0.5 + 2^-54 rounds (to even) to 0.5.
        # The next float up moves it, and the instance keeps its high arms.
        tie = 2.0**-54
        with pytest.raises(ValueError, match=r"^eta must .*got 5\.55"):
            make_hard_instance(4, tie, 0)
        for seed in range(8):
            hard = make_hard_instance(4, math.nextafter(tie, 1.0), seed)
            assert hard.high_arm_count() in (1, 2, 3)
            assert hard.means().max() > 0.5

    def test_coin_refuses_an_eta_that_leaves_0_5_as_it_is(self):
        # Both biases would read 0.5: the hidden value could not be told apart.
        tie = 2.0**-54
        for eta in (1e-17, tie):
            for hidden in Hidden:
                with pytest.raises(ValueError, match=r"^eta must exceed"):
                    CoinTossingInstance(eta, hidden, 0)
        eta = math.nextafter(tie, 1.0)
        plus, minus = (CoinTossingInstance(eta, h, 0).bias for h in (Hidden.PLUS, Hidden.MINUS))
        assert minus < 0.5 < plus

    def test_difficulty_scales_like_n_over_eta_sq(self):
        # At tolerance eta the capped sum stays within small constants of
        # n / eta^2 across all three realized configurations.
        n, eta = 40, 0.1
        for seed in range(30):
            hard = make_hard_instance(n, eta, seed)
            sm = np.sort(hard.means())[::-1]
            ratio = hardness(sm, n // 2, eta).h_t_eps / (n / eta**2)
            assert 1 / 10 <= ratio <= 2


def _fixed_answer_algorithm(selection, container=set):
    def algo(env, K, eps, delta):
        # reduction_run reads a set or a sequence of ints as the selection.
        none = np.empty(0, dtype=np.intp)
        return SelectionResult(selected=container(selection), total_pulls=0,
                               per_arm_pulls=np.zeros(env.n, dtype=np.int64),
                               rounds_completed=0, accepted_early=none, rejected=none)
    return algo


class TestReductionRun:
    def test_oracle_selection_follows_membership_rule(self):
        for seed in range(30):
            hard = make_hard_instance(8, 0.1, seed)
            answer = reduction_run(_fixed_answer_algorithm(hard.planted),
                                   8, 4, 0.1, 1.0, C=10**6, seed=seed)
            expected = "plus" if hard.special_index in hard.planted else "minus"
            assert answer == expected

    def test_zero_cap_gives_up_immediately(self):
        def greedy(env, K, eps, delta):
            env.pull_many(np.arange(env.n), 1)  # touches the watched arm
            return _fixed_answer_algorithm(range(K))(env, K, eps, delta)

        assert reduction_run(greedy, 8, 4, 0.1, 1.0, C=0, seed=0) == "unknown"

    def test_contaminated_selection_fails_verification(self):
        for seed in range(20):
            hard = make_hard_instance(12, 0.1, seed)
            worst = sorted(set(range(12)) - hard.planted)[:6]
            assert reduction_run(_fixed_answer_algorithm(worst),
                                 12, 6, 0.1, 1.0, C=10**6, seed=seed) == "unknown"

    def test_a_selection_of_the_coin_alone_answers_unknown(self):
        # At n = 2 the one selected arm may be the coin: no arm of known value
        # is left to verify the selection with.
        for seed in range(4):
            hard = make_hard_instance(2, 0.1, seed)
            assert reduction_run(_fixed_answer_algorithm([hard.special_index]),
                                 2, 1, 0.1, 4.0, C=10**6, seed=seed) == "unknown"

    def test_adaptive_reduction_smoke(self):
        outcomes = {"plus": 0, "minus": 0, "unknown": 0}
        correct = definite = 0
        for seed in range(60):
            hard = make_hard_instance(40, 0.1, seed)
            ans = reduction_run(lambda e, K, eps, d: adaptive_topk(e, K, eps, d),
                                40, 20, 0.1, 0.2, C=160_000_000, seed=seed)
            outcomes[ans] += 1
            if ans != "unknown":
                definite += 1
                correct += ans == hard.coin.hidden_value.value
        assert outcomes["unknown"] / 60 <= GIVE_UP_RATE_CAP
        assert definite > 0 and correct / definite >= 0.85

    # Selections of the 40-arm, K = 20 hard instance that are not K distinct
    # ids in range; each used to be answered as if it were.
    @pytest.mark.parametrize("pick", [
        lambda planted: planted[:1],
        lambda planted: planted[:1] * 20,
        lambda planted: planted[:19] + [40],
    ], ids=["short", "repeated-id", "out-of-range"])
    def test_bad_selection_is_refused(self, pick):
        planted = sorted(make_hard_instance(40, 0.1, 0).planted)
        with pytest.raises(ValueError, match="^the algorithm returned a bad selection: "):
            reduction_run(_fixed_answer_algorithm(pick(planted), list),
                          40, 20, 0.1, 0.2, C=10**6, seed=0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            reduction_run(_fixed_answer_algorithm([0]), 9, 4, 0.1, 1.0, 10, 0)
        with pytest.raises(ValueError):
            reduction_run(_fixed_answer_algorithm([0]), 8, 4, 0.1, 0.5, 10, 0)  # eps*K < 4


def _ref_hard_instance(n, eta, seed):
    """The planted set, special index, coin and means by per-arm formulas:
    one int() per planted id, and a np.isin mask over the planted list."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x51ED)))
    planted = frozenset(int(a) for a in rng.choice(n, size=n // 2, replace=False))
    special = int(rng.integers(n))
    hidden = Hidden.PLUS if rng.integers(2) == 1 else Hidden.MINUS
    means = np.where(np.isin(np.arange(n), list(planted)), 0.5 + eta, 0.5 - eta)
    means[special] = 0.5 + (eta if hidden is Hidden.PLUS else -eta)
    return planted, special, hidden, means


def _ref_reduction_answer(selected, n, eta, epsilon, seed):
    """reduction_run's answer on a selection that is not given up, with the
    high arms counted by the np.isin formula."""
    planted, special, _, _ = _ref_hard_instance(n, eta, seed)
    selected = np.sort(np.asarray(selected, dtype=np.intp))
    known = selected[selected != special]
    if not len(known):
        return "unknown"
    high = int(np.count_nonzero(np.isin(known, np.fromiter(planted, dtype=np.intp))))
    rho = (high * (0.5 + eta) + (len(known) - high) * (0.5 - eta)) / len(known)
    if rho < (0.5 + eta) - (eta * epsilon / 4.0 + 2.0 * eta / (n // 2)):
        return "unknown"
    return "plus" if special in selected else "minus"


@pytest.mark.parametrize("n", [2, 12, 40, 1000])
def test_hard_instance_and_reduction_match_the_per_arm_formulas(n):
    eta, epsilon = 0.1, 8.0 / n
    rng = np.random.default_rng(n)
    answers = set()
    for seed in range(50):
        planted, special, hidden, means = _ref_hard_instance(n, eta, seed)
        hard = make_hard_instance(n, eta, seed)
        assert hard.planted == planted and all(type(a) is int for a in hard.planted)
        assert type(hard.special_index) is int and hard.special_index == special
        assert hard.coin.hidden_value is hidden
        got = hard.means()
        assert got.dtype == means.dtype == np.float64 and got.tobytes() == means.tobytes()
        # Selections from the planted set with up to three low arms swapped
        # in, so the verification passes on some and fails (rho) on others.
        high, low = sorted(planted), sorted(set(range(n)) - planted)
        for _ in range(3):
            swap = int(rng.integers(0, min(3, len(low)) + 1))
            pick = (rng.permutation(high)[:n // 2 - swap].tolist()
                    + rng.permutation(low)[:swap].tolist())
            answer = reduction_run(_fixed_answer_algorithm(pick, list),
                                   n, n // 2, eta, epsilon, C=10**6, seed=seed)
            assert answer == _ref_reduction_answer(pick, n, eta, epsilon, seed)
            answers.add(answer)
    # At n = 2 a selection holding the coin has no known arm and answers
    # "unknown" before rho; past it "unknown" comes from rho alone.
    assert answers == ({"minus", "unknown"} if n == 2 else {"plus", "minus", "unknown"})


def test_watchdog_gives_up_on_one_arm_pulls_past_the_cap():
    env = ArmEnvironment(Instance(np.full(4, 0.5), 2, 0.1, 0.1), seed=0)
    watched = _CapWatchdog(env, 1, 10)
    watched.pull_many([1], 6)
    watched.pull_many([0], 100)  # other arms have no cap
    watched.pull_many([1], 4)  # exactly at the cap
    with pytest.raises(_GiveUp):
        watched.pull_many([1], 1)
    assert env.pull_counts.tolist() == [100, 10, 0, 0]  # the refused pull was not made


def test_watchdog_charges_an_arm_listed_twice_for_every_listing():
    env = ArmEnvironment(Instance(np.full(4, 0.5), 2, 0.1, 0.1), seed=0)
    watched = _CapWatchdog(env, 1, 10)
    with pytest.raises(_GiveUp):
        watched.pull_many([1, 1], 6)  # 12 pulls of arm 1
    assert env.pull_counts.tolist() == [0, 0, 0, 0]
    watched.pull_many([1, 0, 1], 5)  # exactly at the cap
    assert env.pull_counts.tolist() == [5, 10, 0, 0]
    # Listings times m past 2^63 is past any cap, not a wrapped product.
    with pytest.raises(_GiveUp):
        watched.pull_many([1, 1], 2**62)
    assert env.pull_counts.tolist() == [5, 10, 0, 0]


@pytest.mark.parametrize("arms", [[True, False], np.array([0.0, 1.0]), [0, -4], [0, 4], [[0]]],
                         ids=["mask", "float-ids", "negative-id", "past-the-end-id", "2-d"])
def test_watchdog_refuses_a_malformed_request_as_the_environment_does(arms):
    # Each request names the watched arm, and the cap is 0, so a cap test
    # made before the request is checked would give up instead of refusing.
    env = ArmEnvironment(Instance(np.full(4, 0.5), 2, 0.1, 0.1), seed=0)
    with pytest.raises((ValueError, IndexError)) as bare:
        env.pull_many(arms, 1)
    with pytest.raises(bare.type, match=f"^{re.escape(str(bare.value))}$"):
        _CapWatchdog(env, 0, 0).pull_many(arms, 1)
    assert env.total_pulls() == 0


@pytest.mark.parametrize("module", ["topk_bandit", "topk_bandit.cli"])
def test_import_leaves_scipy_to_the_first_coin_call(module):
    # numpy is the package's one runtime dependency; scipy is a test-only
    # reference.  Neither import loads scipy, and neither do the code paths
    # that once used it: the coin functions, the CLI's lowerbound command and
    # a reduction run.
    src = os.path.dirname(os.path.dirname(topk_bandit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (f"import io, sys, contextlib, {module}\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy_modules())\n"
            "import topk_bandit, topk_bandit.cli\n"
            "from topk_bandit import adaptive_topk, optimal_coin_error, optimal_coin_log_error, "
            "reduction_run\n"
            "optimal_coin_log_error(1000, 0.1)\n"
            "optimal_coin_error(1000, 0.1)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert topk_bandit.cli.main(['lowerbound']) == 0\n"
            "reduction_run(adaptive_topk, 8, 4, 0.1, 1.0, C=10**6, seed=0)\n"
            "print(scipy_modules())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n[]\n"
