import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topk_bandit.hardness import (
    aggregate_regret,
    gaps,
    hardness,
    is_eps_top_k,
    psi_quantities,
    t_of,
)
from topk_bandit.instances import gen_two_group, gen_uniform

M4 = np.array([0.75, 0.5, 0.25, 0.0])


def test_gaps_small_case():
    np.testing.assert_allclose(gaps(M4, 2), [0.5, 0.25, 0.25, 0.5])


def test_gaps_k_one_matches_distance_to_best():
    m = np.array([0.9, 0.7, 0.4, 0.1])
    g = gaps(m, 1)
    np.testing.assert_allclose(g[1:], m[0] - m[1:])
    assert g[0] == pytest.approx(m[0] - m[1])


def test_gaps_two_group_uniform_gap():
    g = gaps(np.sort(gen_two_group(1000, 100))[::-1], 100)
    np.testing.assert_allclose(g, 0.4)


def test_gaps_requires_k_below_n():
    with pytest.raises(ValueError):
        gaps(M4, 4)
    with pytest.raises(ValueError):
        gaps(np.array([0.2, 0.8]), 1)  # unsorted


class TestExchangeAllowance:
    def test_k_one_is_zero(self):
        assert t_of(np.array([0.9, 0.5, 0.1]), 1, 0.3) == 0

    def test_small_case(self):
        assert t_of(M4, 2, 0.25) == 1

    def test_zero_epsilon_with_positive_gaps(self):
        assert t_of(M4, 2, 0.0) == 0

    def test_matches_brute_force_scan(self, rng):
        for _ in range(300):
            n = int(rng.integers(3, 50))
            K = int(rng.integers(1, n))
            eps = float(rng.uniform(0.0, 0.5))
            means = np.sort(rng.uniform(0, 1, n))[::-1]
            g = gaps(means, K)
            best = 0
            for t in range(K):
                head = g[K - t - 1] * t
                tail = g[min(K + t + 1, n) - 1] * t
                if head <= K * eps and tail <= K * eps:
                    best = t
            assert t_of(means, K, eps) == best


def test_psi_small_case():
    assert psi_quantities(M4, 2, 0.25) == (0.5, 0.5)


def test_psi_at_t_zero_is_boundary_gap(rng):
    means = np.sort(rng.uniform(0, 1, 20))[::-1]
    K = 7
    psi, psi_eps = psi_quantities(means, K, 0.0)
    assert psi == pytest.approx(means[K - 1] - means[K])
    assert psi_eps == max(0.0, psi)


def test_psi_eps_floor():
    means = np.array([0.5, 0.5, 0.5])
    psi, psi_eps = psi_quantities(means, 1, 0.2)
    assert psi == 0.0 and psi_eps == 0.2


class TestHardness:
    def test_two_group_value(self):
        rep = hardness(np.sort(gen_two_group(1000, 100))[::-1], 100, 0.01)
        assert rep.h_t_eps == pytest.approx(6250, abs=1e-8)
        assert rep.h_t_eps == rep.h_0_eps

    def test_small_case(self):
        rep = hardness(M4, 2, 0.25)
        assert rep.h_t_eps == pytest.approx(16.0)
        assert rep.h_0_eps == pytest.approx(40.0)

    def test_capped_by_n_over_eps_sq(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            K = int(rng.integers(1, n))
            eps = float(rng.uniform(0.01, 0.5))
            means = np.sort(rng.uniform(0, 1, n))[::-1]
            rep = hardness(means, K, eps)
            assert rep.h_t_eps <= n / eps**2 + 1e-9
            assert rep.h_t_eps <= rep.h_0_eps + 1e-12
            assert rep.psi_t_eps >= eps

    def test_zero_gaps_hit_the_cap(self):
        means = np.array([0.5, 0.5, 0.5])
        rep = hardness(means, 1, 0.1)
        assert rep.h_0_eps == pytest.approx(3 / 0.1**2)

    def test_tail_index_clamp_recorded(self):
        # n=3, K=2: any t >= 1 pushes K+t+1 past n.
        rep = hardness(np.array([0.5, 0.5, 0.5]), 2, 0.1)
        assert rep.t == 1 and rep.index_clamped

    def test_monotone_in_epsilon(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 40))
            K = int(rng.integers(1, n))
            means = np.sort(rng.uniform(0, 1, n))[::-1]
            values = [hardness(means, K, e).h_t_eps for e in np.linspace(0.005, 0.6, 12)]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            hardness(M4, 2, 0.0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sorted_noise_stability(data):
    # Sorting noisy copies of a sorted vector moves no entry further than the
    # noise bound from its rank's true value.
    n = data.draw(st.integers(2, 30))
    mu = np.sort(data.draw(st.lists(
        st.floats(0, 1, allow_nan=False), min_size=n, max_size=n)))[::-1]
    bound = data.draw(st.floats(1e-6, 0.5, allow_nan=False))
    noise = np.array(data.draw(st.lists(
        st.floats(-1, 1, allow_nan=False), min_size=n, max_size=n))) * bound
    y = np.sort(mu + noise)[::-1]
    assert np.all(np.abs(y - mu) <= bound + 1e-12)


class TestAggregateRegret:
    def test_identity_selection(self):
        assert aggregate_regret(M4, 2, [0, 1]) == 0.0

    def test_small_case(self):
        assert aggregate_regret(M4, 2, [0, 2]) == pytest.approx(0.125)

    def test_bottom_half_of_two_group(self):
        n, K = 20, 10
        means = np.sort(gen_two_group(n, K))[::-1]
        assert aggregate_regret(means, K, range(K, n)) == pytest.approx(0.4)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            aggregate_regret(M4, 2, [0])
        with pytest.raises(ValueError):
            aggregate_regret(M4, 2, [0, 0])
        with pytest.raises(ValueError):
            aggregate_regret(M4, 2, [0, 9])

    @pytest.mark.parametrize("selected", [[0, -1], [-1, 0], np.array([3, -2**62]), [0, 4]],
                             ids=["negative-last", "negative-first", "large-negative", "past-the-end"])
    def test_rank_out_of_range_rejected(self, selected):
        # One unsigned sort checks the range: a negative id wraps above n.
        with pytest.raises(ValueError, match="selected id out of range"):
            aggregate_regret(M4, 2, selected)

    @pytest.mark.parametrize("selected", [np.array([0.7, 1.9]), [0.0, 1.0], np.array([True, False])],
                             ids=["float-array", "float-list", "mask"])
    def test_non_integer_ranks_rejected(self, selected):
        # A cast would truncate these to the ranks {0, 1}: regret 0.
        with pytest.raises(ValueError, match="1-D array of integers"):
            aggregate_regret(M4, 2, selected)

    @pytest.mark.parametrize("selected", [[0, 2], (2, 0), range(0, 4, 2), np.array([0, 2], dtype=np.uint8),
                                          np.array([2, 0], dtype=np.int32)])
    def test_integer_ranks_in_any_form_accepted(self, selected):
        assert aggregate_regret(M4, 2, selected) == pytest.approx(0.125)

    @pytest.mark.parametrize("K, selected", [(0, []), (-1, []), (5, [0, 1, 2, 3, 0]), (5, range(5))])
    def test_k_out_of_range_rejected(self, K, selected):
        with pytest.raises(ValueError, match=r"^K must be an integer in \[1, 4\]"):
            aggregate_regret(M4, K, selected)

    def test_means_in_any_order(self):
        shuffled = np.array([0.25, 0.75, 0.0, 0.5])  # M4 with arms 0..3 at ranks 2, 0, 3, 1
        assert aggregate_regret(shuffled, 2, [1, 3]) == 0.0
        assert aggregate_regret(shuffled, 2, [1, 0]) == pytest.approx(0.125)

    def test_ids_on_shuffled_means_score_as_ranks_on_sorted_means(self, rng):
        # Reference: the rank map the harness used before scoring on ids.
        # Means on a coarse grid tie often, which the stable sort must not
        # make matter.
        for _ in range(300):
            n = int(rng.integers(1, 40))
            means = np.round(rng.uniform(0, 1, n) * rng.integers(1, 6)) / 5
            shuffled = rng.permutation(means)
            order = np.argsort(-shuffled, kind="stable")
            rank_of = np.empty(n, dtype=np.intp)
            rank_of[order] = np.arange(n)
            for K in {1, n, int(rng.integers(1, n + 1))}:
                ids = rng.choice(n, size=K, replace=False)
                assert aggregate_regret(shuffled, K, ids) == aggregate_regret(shuffled[order], K, rank_of[ids])

    def test_never_negative(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            K = int(rng.integers(1, n + 1))
            means = np.sort(rng.uniform(0, 1, n))[::-1]
            sel = rng.choice(n, size=K, replace=False)
            assert aggregate_regret(means, K, sel) >= 0.0


def test_is_eps_top_k_boundary_inclusive():
    assert is_eps_top_k(M4, 2, 0.0, [0, 1])
    assert not is_eps_top_k(M4, 2, 0.1, [0, 2])
    assert is_eps_top_k(M4, 2, 0.125, [0, 2])


def test_scaling_ratio_grows_as_epsilon_shrinks():
    u = gen_uniform(1000)
    ratio = lambda e: (lambda r: r.h_0_eps / r.h_t_eps)(hardness(u, 500, e))
    assert ratio(0.0025) >= 2 * ratio(0.04)


@pytest.mark.parametrize("means", [[], [[0.9, 0.1], [0.5, 0.5]]], ids=["empty", "2-d"])
def test_hardness_refuses_an_empty_or_2d_mean_vector(means):
    with pytest.raises(ValueError, match="means must be a non-empty 1-D vector"):
        hardness(np.asarray(means, dtype=float), 1, 0.1)
