import itertools

import numpy as np
import numpy.testing as npt
import pytest

from textforage import modelcompare
from textforage.measures import js_distance
from textforage.modelcompare import (
    align_topics,
    merge_vocabulary,
    model_distance,
    topic_drift,
)


def random_phi(rng, v, k, concentration=0.3):
    """Column-normalized word-topic matrix."""
    return rng.dirichlet(np.full(v, concentration), size=k).T


def brute_force_alignment(dist):
    k_a, k_b = dist.shape
    best_cost, best = np.inf, None
    for injection in itertools.permutations(range(k_b), k_a):
        cost = sum(dist[a, b] for a, b in enumerate(injection))
        if cost < best_cost - 1e-15:
            best_cost, best = cost, injection
    return best_cost, best


class TestMergeVocabulary:
    def test_identical_vocabularies_unchanged_under_intersect(self):
        rng = np.random.default_rng(0)
        phi = random_phi(rng, 8, 3)
        terms = [f"w{i}" for i in range(8)]
        out_a, out_b, merged = merge_vocabulary(phi, terms, phi.copy(), terms, "intersect")
        npt.assert_array_equal(out_a, phi)
        npt.assert_array_equal(out_b, phi)
        assert merged == tuple(sorted(terms))

    def test_disjoint_vocabularies_error_under_intersect(self):
        rng = np.random.default_rng(1)
        phi_a = random_phi(rng, 4, 2)
        phi_b = random_phi(rng, 4, 2)
        with pytest.raises(ValueError, match="empty shared vocabulary"):
            merge_vocabulary(phi_a, ["a", "b", "c", "d"], phi_b, ["e", "f", "g", "h"])

    def test_intersect_does_not_renormalize(self):
        rng = np.random.default_rng(2)
        phi_a = random_phi(rng, 6, 2)
        phi_b = random_phi(rng, 6, 2)
        terms_a = ["a", "b", "c", "d", "e", "f"]
        terms_b = ["c", "d", "e", "f", "g", "h"]
        out_a, _, merged = merge_vocabulary(phi_a, terms_a, phi_b, terms_b, "intersect")
        assert merged == ("c", "d", "e", "f")
        assert np.all(out_a.sum(axis=0) < 1.0)

    def test_intersect_renorm_columns_sum_to_one(self):
        rng = np.random.default_rng(3)
        phi_a = random_phi(rng, 6, 2)
        phi_b = random_phi(rng, 6, 3)
        out_a, out_b, _ = merge_vocabulary(
            phi_a, list("abcdef"), phi_b, list("cdefgh"), "intersect_renorm"
        )
        npt.assert_allclose(out_a.sum(axis=0), 1.0, atol=1e-9)
        npt.assert_allclose(out_b.sum(axis=0), 1.0, atol=1e-9)

    def test_expand_epsilon_strictly_positive_and_normalized(self):
        rng = np.random.default_rng(4)
        phi_a = random_phi(rng, 5, 2)
        phi_b = random_phi(rng, 4, 3)
        out_a, out_b, merged = merge_vocabulary(
            phi_a, list("abcde"), phi_b, list("defgh"[:4]), "expand_epsilon"
        )
        assert len(merged) == len(set("abcde") | set("defg"))
        for out in (out_a, out_b):
            assert np.all(out > 0)
            npt.assert_allclose(out.sum(axis=0), 1.0, atol=1e-9)

    def test_epsilon_upper_bound_enforced(self):
        rng = np.random.default_rng(5)
        phi = random_phi(rng, 3, 2)
        with pytest.raises(ValueError):
            merge_vocabulary(phi, list("abc"), phi, list("abc"),
                             "expand_epsilon", epsilon=0.9)


class TestAlignTopics:
    @pytest.mark.parametrize("strategy", ["naive", "basic", "adversarial"])
    def test_self_alignment_is_identity_with_zero_distance(self, strategy):
        rng = np.random.default_rng(6)
        phi = random_phi(rng, 10, 4)
        result = align_topics(phi, phi.copy(), strategy=strategy)
        assert result.mapping == {t: t for t in range(4)}
        assert result.total_distance == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("strategy", ["basic", "adversarial"])
    def test_permuted_copy_recovered(self, strategy):
        rng = np.random.default_rng(7)
        phi = random_phi(rng, 12, 5)
        perm = [3, 0, 4, 1, 2]
        phi_b = phi[:, perm]  # B topic j is A topic perm[j]
        result = align_topics(phi, phi_b, strategy=strategy)
        expected = {perm[j]: j for j in range(5)}
        assert result.mapping == expected
        assert result.total_distance == pytest.approx(0.0, abs=1e-9)
        mean, total = model_distance(result)
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert total == pytest.approx(0.0, abs=1e-9)

    def test_naive_can_be_non_injective(self):
        # two A-topics share B-topic 0 as nearest neighbor
        attractor = np.array([0.5, 0.3, 0.1, 0.1])
        phi_a = np.column_stack([
            attractor * 0.9 + 0.025, attractor * 0.95 + 0.0125,
            np.array([0.05, 0.05, 0.45, 0.45]),
        ])
        phi_a /= phi_a.sum(axis=0)
        phi_b = np.column_stack([
            attractor,
            np.array([0.05, 0.05, 0.5, 0.4]),
            np.array([0.06, 0.04, 0.4, 0.5]),
        ])
        phi_b /= phi_b.sum(axis=0)
        result = align_topics(phi_a, phi_b, strategy="naive")
        targets = [b for _, b, _ in result.pairs]
        assert targets[0] == targets[1] == 0
        assert not result.is_injective

    def test_basic_is_injective(self):
        rng = np.random.default_rng(8)
        phi_a = random_phi(rng, 9, 4)
        phi_b = random_phi(rng, 9, 6)
        result = align_topics(phi_a, phi_b, strategy="basic")
        assert result.is_injective
        assert len(result.pairs) == 4

    @pytest.mark.parametrize("strategy", ["basic", "adversarial"])
    def test_injective_strategies_reject_ka_above_kb(self, strategy):
        rng = np.random.default_rng(9)
        phi_a = random_phi(rng, 6, 4)
        phi_b = random_phi(rng, 6, 3)
        with pytest.raises(ValueError, match="kA <= kB"):
            align_topics(phi_a, phi_b, strategy=strategy)

    @pytest.mark.parametrize("k_a,k_b", [(3, 3), (4, 6), (6, 6), (5, 8)])
    def test_adversarial_matches_brute_force(self, k_a, k_b):
        rng = np.random.default_rng(10 + k_a + k_b)
        phi_a = random_phi(rng, 10, k_a)
        phi_b = random_phi(rng, 10, k_b)
        result = align_topics(phi_a, phi_b, strategy="adversarial")
        dist = modelcompare._js_distance_columns(phi_a, phi_b)
        oracle_cost, _ = brute_force_alignment(dist)
        assert result.total_distance == pytest.approx(oracle_cost, abs=1e-10)

    def test_adversarial_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        phi_a = random_phi(rng, 8, 4)
        phi_b = random_phi(rng, 8, 7)
        a = align_topics(phi_a, phi_b, strategy="adversarial")
        b = align_topics(phi_a, phi_b, strategy="adversarial")
        assert a.pairs == b.pairs

    def test_basic_not_worse_than_naive_on_permuted_copy(self):
        rng = np.random.default_rng(12)
        phi = random_phi(rng, 10, 4)
        phi_b = phi[:, [2, 3, 0, 1]]
        basic = align_topics(phi, phi_b, strategy="basic")
        naive = align_topics(phi, phi_b, strategy="naive")
        assert basic.total_distance <= naive.total_distance + 1e-12

    def test_distances_non_negative_and_mean_bounded(self):
        rng = np.random.default_rng(13)
        phi_a = random_phi(rng, 7, 3)
        phi_b = random_phi(rng, 7, 5)
        result = align_topics(phi_a, phi_b, strategy="basic")
        distances = [d for _, _, d in result.pairs]
        assert all(d >= 0 for d in distances)
        assert result.mean_distance <= max(distances) + 1e-12


class TestDistanceMatrix:
    def test_columns_distance_matches_pairwise_js(self):
        rng = np.random.default_rng(14)
        phi_a = random_phi(rng, 6, 3)
        phi_b = random_phi(rng, 6, 2)
        dist = modelcompare._js_distance_columns(phi_a, phi_b)
        for a in range(3):
            for b in range(2):
                assert dist[a, b] == pytest.approx(
                    js_distance(phi_a[:, a], phi_b[:, b]), abs=1e-9
                )


    def test_merged_columns_are_js_distance_bit_for_bit(self):
        # merge_vocabulary hands align_topics C-ordered (V, k) matrices,
        # whose topic columns are strided
        rng = np.random.default_rng(17)
        terms = [f"w{i}" for i in range(300)]
        merged_a, merged_b, _ = merge_vocabulary(
            random_phi(rng, 300, 4), terms, random_phi(rng, 300, 6), terms,
            strategy="expand_epsilon")
        assert merged_a.flags.c_contiguous and merged_b.flags.c_contiguous
        dist = modelcompare._js_distance_columns(merged_a, merged_b)
        for a, b in itertools.product(range(4), range(6)):
            assert dist[a, b] == js_distance(merged_a[:, a], merged_b[:, b])


class TestTopicDrift:
    def test_no_drift_is_zero(self):
        rng = np.random.default_rng(15)
        phi = random_phi(rng, 8, 3)
        drift = topic_drift(phi, phi.copy())
        assert drift.total_distance == pytest.approx(0.0, abs=1e-12)

    def test_identity_pairing(self):
        rng = np.random.default_rng(16)
        before = random_phi(rng, 8, 3)
        after = random_phi(rng, 8, 3)
        drift = topic_drift(before, after)
        assert drift.mapping == {0: 0, 1: 1, 2: 2}
        for t, _, d in drift.pairs:
            assert d == pytest.approx(
                js_distance(before[:, t], after[:, t]), abs=1e-9
            )
