import numpy as np
import pytest

from topk_bandit.instances import (
    check_c_spread,
    gen_synthetic_p,
    gen_two_group,
    gen_uniform,
    load_means,
)


def test_two_group_values():
    np.testing.assert_array_equal(gen_two_group(4, 2), [0.7, 0.7, 0.3, 0.3])
    np.testing.assert_array_equal(gen_two_group(1, 1), [0.7])
    with pytest.raises(ValueError):
        gen_two_group(4, 0)
    with pytest.raises(ValueError):
        gen_two_group(4, 5)


def test_uniform_values():
    np.testing.assert_allclose(gen_uniform(4), [0.75, 0.5, 0.25, 0.0])
    np.testing.assert_array_equal(gen_uniform(1), [0.0])
    m = gen_uniform(1000)
    steps = -np.diff(m)
    assert np.all(steps > 0)
    np.testing.assert_allclose(steps, 0.001, rtol=1e-9)


def test_synthetic_p_equals_uniform_at_p_one():
    for n, K in [(4, 2), (100, 30), (1000, 100)]:
        np.testing.assert_allclose(gen_synthetic_p(n, K, 1.0), gen_uniform(n), atol=1e-12)


def test_synthetic_p_small_case():
    np.testing.assert_allclose(gen_synthetic_p(4, 2, 1.0), [0.75, 0.5, 0.25, 0.0])


def test_synthetic_p_endpoints_and_monotonicity(rng):
    for _ in range(25):
        n = int(rng.integers(3, 200))
        K = int(rng.integers(1, n))
        p = float(rng.uniform(0.2, 6.0))
        m = gen_synthetic_p(n, K, p)
        assert m[0] == pytest.approx((1 - K / n) + (K / n) * (1 - 1 / K) ** p)
        assert m[-1] == pytest.approx(0.0, abs=1e-12)
        assert m[K - 1] == pytest.approx(1.0 - K / n)
        assert np.all(np.diff(m) <= 1e-12)
        assert np.all((m >= -1e-12) & (m <= 1 + 1e-12))


def test_synthetic_p_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_synthetic_p(4, 4, 1.0)
    with pytest.raises(ValueError):
        gen_synthetic_p(4, 2, 0.0)


class TestLoadMeans:
    def test_parses_values_and_comments(self, tmp_path):
        f = tmp_path / "means.txt"
        f.write_text("# header\n0.9\n\n0.5\n")
        np.testing.assert_array_equal(load_means(f), [0.9, 0.5])

    def test_out_of_range_value(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.2\n")
        with pytest.raises(ValueError, match="outside"):
            load_means(f)

    def test_parse_failure(self, tmp_path):
        f = tmp_path / "junk.txt"
        f.write_text("0.5\nnot-a-number\n")
        with pytest.raises(ValueError, match="decimal"):
            load_means(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("# only comments\n")
        with pytest.raises(ValueError, match="no mean values"):
            load_means(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_means(tmp_path / "nope.txt")


def pairwise_c_spread(means, c, tol):
    """Reference: the O(n^2) pairwise definition of c-spread."""
    n = means.size
    iu = np.triu_indices(n, k=1)
    gap = np.abs(means[:, None] - means[None, :])[iu]
    idx = np.arange(n, dtype=np.float64)
    dist = np.abs(idx[:, None] - idx[None, :])[iu]
    return bool(np.all(gap >= dist / (c * n) - tol) and np.all(gap <= c * dist / n + tol))


class TestCSpread:
    def test_uniform_is_1_spread(self):
        for n in (2, 10, 1000):
            assert check_c_spread(gen_uniform(n), 1.0)

    def test_two_group_is_not_1_spread(self):
        assert not check_c_spread(gen_two_group(4, 2), 1.0)

    def test_single_arm_vacuous(self):
        assert check_c_spread(np.array([0.37]), 1.0)
        assert check_c_spread(np.array([0.37]), 5.0)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            check_c_spread(np.array([0.2, 0.8]), 1.0)

    def test_general_c_accepts_jittered_progression(self):
        n = 50
        jitter = np.sin(np.arange(n)) / (8 * n)
        means = np.sort(gen_uniform(n) + jitter)[::-1]
        assert check_c_spread(means, 2.0)

    def test_general_c_rejects_duplicates(self):
        means = np.array([0.8, 0.6, 0.6, 0.2])
        assert not check_c_spread(means, 2.0)

    def test_large_n_has_no_size_limit(self):
        big = np.sort(np.linspace(0, 1, 100_000))[::-1]
        assert check_c_spread(big, 2.0)
        assert not check_c_spread(np.concatenate([big[:50_000], big[49_999:]]), 2.0)  # a tie

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_general_c_matches_pairwise_definition(self, tol):
        rng = np.random.default_rng(31)
        verdicts = []
        for _ in range(1500):
            n = int(rng.integers(2, 40))
            c = float(rng.choice([1.0, rng.uniform(1.01, 2.0)]))
            jitter = rng.normal(0.0, rng.choice([1e-12, 0.05, 0.2, 0.5]), n)
            means = np.sort(1.0 - (np.arange(n) + jitter) / n)[::-1]
            expected = pairwise_c_spread(means, c, tol)
            assert check_c_spread(means, c, tol) == expected
            verdicts.append(expected)
        assert 0.2 < np.mean(verdicts) < 0.8

    def test_tolerance_does_not_accumulate_over_pairs(self):
        # Every adjacent gap is within tol of the lower bound, but two steps
        # together fall short by more than tol.
        n, c, tol = 10, 2.0, 1e-3
        means = 1.0 - np.arange(n) * (1.0 / (c * n) - 0.6 * tol)
        assert not pairwise_c_spread(means, c, tol)
        assert not check_c_spread(means, c, tol)

    def test_c_1_drift_between_exact_endpoints_is_rejected(self):
        # Adjacent gaps within tol of 1/n and exact endpoints, but the first
        # half drifts 9 * 0.9 tol away from the progression.
        n, tol = 20, 1e-6
        gaps = np.full(n - 1, 1.0 / n)
        gaps[:9] += 0.9 * tol
        gaps[10:] -= 0.9 * tol
        means = 1.0 - np.concatenate([[0.0], np.cumsum(gaps)])
        assert not pairwise_c_spread(means, 1.0, tol)
        assert not check_c_spread(means, 1.0, tol)
