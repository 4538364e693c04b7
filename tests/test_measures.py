import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textforage.errors import NumericalDegeneracyError
from textforage.measures import (
    Enclosure,
    as_distribution,
    encloses,
    entropy,
    js_distance,
    js_distance_matrix,
    js_distance_pairs,
    js_divergence,
    kl_divergence,
    kl_divergence_rows,
    surprise_series,
    surprise_values,
)

from conftest import (
    random_distributions,
    reading_rows,
    reference_js_distance_matrix,
    tied_ensembles,
)


class TestEntropy:
    def test_fair_coin_is_one_bit(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_certain_outcome_is_zero_bits(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_uniform_over_four_is_two_bits(self):
        assert entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_bounded_by_log2_length(self):
        rng = np.random.default_rng(0)
        for p in random_distributions(rng, 200, 7):
            assert 0.0 <= entropy(p) <= np.log2(7) + 1e-12

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.6])
        with pytest.raises(ValueError):
            entropy([1.5, -0.5])


class TestKLDivergence:
    def test_twenty_questions_example(self):
        # biased three-word guessing game: expecting (1/2,1/4,1/4) but
        # receiving (1/4,1/2,1/4) costs a quarter of an excess question
        q = [0.25, 0.5, 0.25]
        p = [0.5, 0.25, 0.25]
        assert kl_divergence(q, p) == pytest.approx(0.25, abs=1e-12)

    def test_identical_is_zero(self):
        p = [0.2, 0.3, 0.5]
        assert kl_divergence(p, p) == 0.0

    def test_direct_sum_evaluation(self):
        expected = 0.9 * np.log2(0.9 / 0.5) + 0.1 * np.log2(0.1 / 0.5)
        assert kl_divergence([0.9, 0.1], [0.5, 0.5]) == pytest.approx(expected, rel=1e-12)

    def test_asymmetric(self):
        q, p = [0.9, 0.1], [0.5, 0.5]
        assert kl_divergence(q, p) != kl_divergence(p, q)

    def test_support_violation_raises(self):
        with pytest.raises(NumericalDegeneracyError, match="infinite divergence"):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_subnormal_p_raises(self):
        # 1 / 5e-324 overflows: an infinite divergence, raised with no warning
        with pytest.raises(NumericalDegeneracyError, match="infinite divergence"):
            kl_divergence([1, 0], [5e-324, 1])

    def test_zero_in_q_is_fine(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        q_rows = random_distributions(rng, 500, 10)
        p_rows = random_distributions(rng, 500, 10)
        for q, p in zip(q_rows, p_rows):
            assert kl_divergence(q, p) >= 0.0

    def test_rows_match_scalar(self):
        rng = np.random.default_rng(2)
        q_rows = random_distributions(rng, 50, 6)
        p_rows = random_distributions(rng, 50, 6)
        batch = kl_divergence_rows(q_rows, p_rows)
        single = [kl_divergence(q, p) for q, p in zip(q_rows, p_rows)]
        npt.assert_allclose(batch, single, rtol=1e-12)


class TestJensenShannon:
    def test_identical_is_zero(self):
        p = [0.3, 0.7]
        assert js_divergence(p, p) == 0.0
        assert js_distance(p, p) == 0.0

    def test_disjoint_support_is_maximal(self):
        assert js_divergence([1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-12)
        assert js_distance([1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_direct_formula_through_midpoint(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.9, 0.1])
        m = np.array([0.7, 0.3])
        expected = 0.5 * kl_divergence(p, m) + 0.5 * kl_divergence(q, m)
        assert js_divergence(p, q) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            js_divergence([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_subnormal_against_zero_stays_finite(self):
        # halving 5e-324 into the midpoint (p + q) / 2 rounds it to 0, which
        # made p / m infinite; the divergence is about 1e-323, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert js_divergence([5e-324, 1], [0, 1]) == pytest.approx(0.0, abs=1e-300)
            dist = js_distance_matrix([[5e-324, 1], [0, 1]])
        npt.assert_allclose(dist, np.zeros((2, 2)), rtol=0, atol=1e-150)

    def test_metric_axioms_on_random_triples(self):
        # symmetry, identity, triangle inequality; high-dimensional to
        # match realistic topic counts
        rng = np.random.default_rng(3)
        triples = random_distributions(rng, 3 * 2000, 80).reshape(2000, 3, 80)
        for p, q, r in triples:
            pq = js_distance(p, q)
            qp = js_distance(q, p)
            assert abs(pq - qp) <= 1e-12
            assert pq >= 0.0
            assert pq <= js_distance(p, r) + js_distance(r, q) + 1e-12
        assert js_distance(triples[0][0], triples[0][0]) == 0.0

    def test_divergence_bounded_by_one_bit(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            p = rng.dirichlet(np.full(5, 0.1))
            q = rng.dirichlet(np.full(5, 0.1))
            assert js_divergence(p, q) <= 1.0 + 1e-12

    def test_distance_matrix_matches_pairwise(self):
        rng = np.random.default_rng(5)
        rows = random_distributions(rng, 12, 6)
        matrix = js_distance_matrix(rows)
        for i in range(12):
            for j in range(12):
                assert matrix[i, j] == pytest.approx(
                    js_distance(rows[i], rows[j]), abs=1e-9
                )

    @settings(max_examples=200, deadline=None)
    @given(rows=tied_ensembles(min_n=1, max_width=80))
    # 7,140 pairs of width 80 take 70 steps of at most 2**13 floats
    @example(rows=np.random.default_rng(0).dirichlet(np.full(80, 0.3), size=120))
    def test_distance_matrix_is_the_row_loop_bit_for_bit(self, rows):
        matrix = js_distance_matrix(rows)
        assert matrix.tobytes() == reference_js_distance_matrix(rows).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(rows=tied_ensembles(min_n=1, max_n=30, max_width=300),
           pair_seed=st.integers(0, 2**32 - 1), n_pairs=st.integers(0, 250))
    # 250 pairs of width 80: two blocks of 102 pairs and a part block
    @example(rows=np.random.default_rng(1).dirichlet(np.full(80, 0.3), size=10),
             pair_seed=0, n_pairs=250)
    # rows longer than a block's 2**13 floats: one pair per block
    @example(rows=np.random.default_rng(2).dirichlet(np.full(9000, 0.3), size=3),
             pair_seed=0, n_pairs=5)
    def test_pairs_are_js_distance_bit_for_bit(self, rows, pair_seed, n_pairs):
        # `b` in another memory layout, as topic columns of a (V, k) matrix
        a, b = rows, np.asfortranarray(rows[::-1])
        first, second = np.random.default_rng(pair_seed).integers(0, len(rows), (2, n_pairs))
        dist = js_distance_pairs(a, b, first, second)
        assert dist.tolist() == [js_distance(a[i], b[j]) for i, j in zip(first, second)]

    def test_distance_matrix_memory_stays_near_its_output(self):
        # one (pairs, k) temporary for all 499,500 pairs at k = 200 would
        # be about 0.8 GB; the matrix itself is 8 MB
        rows = np.random.default_rng(6).dirichlet(np.full(200, 0.5), size=1000)
        tracemalloc.start()
        try:
            matrix = js_distance_matrix(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * matrix.nbytes


class TestEnclosure:
    def test_equal_is_tie(self):
        p = [0.25, 0.25, 0.25, 0.25]
        assert encloses(p, p) is Enclosure.TIE

    def test_uniform_encloses_peaked(self):
        p = [0.25] * 4
        q = [0.97, 0.01, 0.01, 0.01]
        assert kl_divergence(q, p) < kl_divergence(p, q)
        assert encloses(p, q) is Enclosure.P_ENCLOSES_Q

    def test_swapping_flips_the_relation(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p = rng.dirichlet(np.full(6, 0.3))
            q = rng.dirichlet(np.full(6, 0.3))
            forward = encloses(p, q)
            backward = encloses(q, p)
            if forward is Enclosure.TIE:
                assert backward is Enclosure.TIE
            else:
                assert {forward, backward} == {
                    Enclosure.P_ENCLOSES_Q,
                    Enclosure.Q_ENCLOSES_P,
                }


class TestSurpriseSeries:
    def test_identical_consecutive_gives_zero(self):
        rows = [[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]]
        series = surprise_series(rows, mode="t2t")
        assert series.values[0] == 0.0
        assert series.values[1] > 0.0

    def test_first_t2p_step_equals_t2t(self):
        rng = np.random.default_rng(7)
        rows = random_distributions(rng, 5, 4)
        t2t = surprise_series(rows, mode="t2t")
        t2p = surprise_series(rows, mode="t2p")
        assert t2p.values[0] == pytest.approx(t2t.values[0], rel=1e-12)

    def test_series_composes_from_kl_calls(self):
        rows = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]])
        t2t = surprise_series(rows, mode="t2t")
        npt.assert_allclose(
            t2t.values,
            [kl_divergence(rows[1], rows[0]), kl_divergence(rows[2], rows[1])],
            rtol=1e-12,
        )
        t2p = surprise_series(rows, mode="t2p")
        past = (rows[0] + rows[1]) / 2
        npt.assert_allclose(
            t2p.values,
            [kl_divergence(rows[1], rows[0]), kl_divergence(rows[2], past)],
            rtol=1e-12,
        )

    def test_t2n_window_one_is_t2t(self):
        rng = np.random.default_rng(8)
        rows = random_distributions(rng, 6, 3)
        t2t = surprise_series(rows, mode="t2t")
        t2n = surprise_series(rows, mode="t2n", window=1)
        npt.assert_allclose(t2n.values, t2t.values, rtol=1e-12)

    def test_t2n_wide_window_is_t2p(self):
        rng = np.random.default_rng(9)
        rows = random_distributions(rng, 6, 3)
        t2p = surprise_series(rows, mode="t2p")
        t2n = surprise_series(rows, mode="t2n", window=100)
        npt.assert_allclose(t2n.values, t2p.values, rtol=1e-9)

    def test_needs_two_items(self):
        with pytest.raises(ValueError):
            surprise_series([[0.5, 0.5]], mode="t2t")

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 0.5]], "need at least 2 distributions"),
        ([], "need at least 2 distributions"),
        ([[0.5, 0.5], [1.0]], "distributions differ in length"),
        ([np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5])], "distributions differ in length"),
        ([[0.5, 0.5], [1.5, -0.5]], "distribution has negative entries"),
        ([[0.5, 0.5], [0.25, 0.75], [0.5, 0.6]], "distribution sums to 1.1, not 1"),
        (np.full((3, 2), 0.5 + 1e-8), "distribution sums to 1.00000002, not 1"),
    ], ids=["one-row", "no-rows", "ragged", "ragged-arrays", "negative", "sum", "array-sum"])
    def test_checks_the_stack_once_with_the_row_messages(self, rows, message):
        with pytest.raises(ValueError) as info:
            surprise_series(rows, mode="t2p")
        assert str(info.value) == message

    def test_rows_within_the_tolerance_pass(self):
        rows = np.full((3, 2), 0.5 + 2e-10)
        npt.assert_array_equal(surprise_series(rows, mode="t2t").values, [0.0, 0.0])

    def test_long_series_past_mean_stays_normalized(self):
        rng = np.random.default_rng(10)
        rows = random_distributions(rng, 3000, 8)
        series = surprise_series(rows, mode="t2p")
        assert np.all(series.values >= 0)
        assert np.all(np.isfinite(series.values))


def reference_series(theta, mode, window=None):
    """Per-row surprise from scalar KL calls against explicit past means."""
    window = {"t2t": 1, "t2p": len(theta)}.get(mode, window)
    return [
        kl_divergence(theta[i], np.mean(theta[max(0, i - window) : i], axis=0))
        for i in range(1, len(theta))
    ]


@settings(max_examples=300, deadline=None)
@given(theta=reading_rows(), data=st.data())
def test_surprise_values_match_per_row_reference(theta, data):
    mode = data.draw(st.sampled_from(["t2t", "t2p", "t2n"]))
    window = data.draw(st.integers(1, len(theta))) if mode == "t2n" else None
    try:
        expected = reference_series(theta, mode, window)
    except NumericalDegeneracyError:
        with pytest.raises(NumericalDegeneracyError):
            surprise_values(theta, mode, window)
        return
    npt.assert_allclose(surprise_values(theta, mode, window), expected, rtol=0, atol=1e-12)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: as_distribution([NAN, 1.0]),
    lambda: as_distribution([0.5, 0.5, NAN]),
    lambda: surprise_series([[0.5, 0.5], [NAN, 0.5]], "t2p"),
    lambda: surprise_series([[0.5, 0.5], [0.5, 0.5], [NAN, NAN]], "t2t"),
    lambda: kl_divergence([NAN, 1.0], [0.5, 0.5]),
    lambda: kl_divergence([0.5, 0.5], [1.0, NAN]),
    lambda: js_divergence([NAN, 1.0], [0.5, 0.5]),
    lambda: js_divergence([0.5, 0.5], [NAN, 0.5]),
], ids=["as_distribution", "as_distribution-last", "surprise_series",
        "surprise_series-row", "kl_divergence-q", "kl_divergence-p", "js_divergence-p",
        "js_divergence-q"])
def test_nan_entries_are_rejected(call):
    with pytest.raises(ValueError, match="^distribution has NaN entries$"):
        call()


def test_as_distribution_roundtrip():
    p = as_distribution([0.1, 0.9])
    assert p.dtype == np.float64
    with pytest.raises(ValueError):
        as_distribution([[0.5, 0.5]])
