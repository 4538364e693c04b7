import base64
import itertools
import json
import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from textforage import lda
from textforage.corpus import Vocabulary
from textforage.errors import NumericalDegeneracyError

from conftest import build_corpus, packed, unpacked


def collapsed_log_joint(tokens, doc_of, z, n_docs, v, k, alpha, beta):
    """Independent evaluation of the collapsed joint p(w, z), in nats."""
    n_td = np.zeros((k, n_docs))
    n_wt = np.zeros((v, k))
    for i in range(len(tokens)):
        n_td[z[i], doc_of[i]] += 1
        n_wt[tokens[i], z[i]] += 1
    n_d = n_td.sum(axis=0)
    n_t = n_wt.sum(axis=0)
    ll = n_docs * (math.lgamma(k * alpha) - k * math.lgamma(alpha))
    for d in range(n_docs):
        ll += sum(math.lgamma(n_td[t, d] + alpha) for t in range(k))
        ll -= math.lgamma(n_d[d] + k * alpha)
    ll += k * (math.lgamma(v * beta) - v * math.lgamma(beta))
    for t in range(k):
        ll += sum(math.lgamma(n_wt[w, t] + beta) for w in range(v))
        ll -= math.lgamma(n_t[t] + v * beta)
    return ll


def posterior_over_counts(doc_tokens, k, alpha, beta, v):
    """Exact posterior over (n_td, n_wt) sufficient statistics by
    enumerating every assignment vector."""
    tokens = [t for doc in doc_tokens for t in doc]
    doc_of = [d for d, doc in enumerate(doc_tokens) for _ in doc]
    n = len(tokens)
    log_weights = {}
    for z in itertools.product(range(k), repeat=n):
        ll = collapsed_log_joint(tokens, doc_of, z, len(doc_tokens), v, k, alpha, beta)
        n_td = np.zeros((k, len(doc_tokens)), dtype=int)
        n_wt = np.zeros((v, k), dtype=int)
        for i in range(n):
            n_td[z[i], doc_of[i]] += 1
            n_wt[tokens[i], z[i]] += 1
        key = (n_td.tobytes(), n_wt.tobytes())
        log_weights.setdefault(key, []).append(ll)
    keys = sorted(log_weights)
    logs = [np.logaddexp.reduce(log_weights[key]) for key in keys]
    probs = np.exp(logs - max(logs))
    probs /= probs.sum()
    return dict(zip(keys, probs))


class TestTraining:
    def test_zero_iterations_is_the_seeded_init(self, tiny_corpus):
        config = lda.TrainingConfig(k=2, seed=123, iterations=0)
        model = lda.train(tiny_corpus, config)
        rng = np.random.Generator(np.random.PCG64(123))
        expected = rng.integers(0, 2, 6, dtype=np.int32)
        npt.assert_array_equal(model.z, expected)
        assert model.sweeps_done == 0

    def test_same_seed_same_model(self, tiny_corpus):
        config = lda.TrainingConfig(k=2, seed=7, iterations=30)
        m1 = lda.train(tiny_corpus, config)
        m2 = lda.train(tiny_corpus, config)
        npt.assert_array_equal(m1.z, m2.z)
        npt.assert_array_equal(m1.n_wt, m2.n_wt)
        assert m1.log_likelihood_trace == m2.log_likelihood_trace

    def test_different_seed_differs(self, tiny_corpus):
        m1 = lda.train(tiny_corpus, lda.TrainingConfig(k=2, seed=1, iterations=25))
        m2 = lda.train(tiny_corpus, lda.TrainingConfig(k=2, seed=2, iterations=25))
        assert not np.array_equal(m1.z, m2.z)

    def test_invariants_hold_after_every_sweep(self, tiny_corpus):
        model = lda.train(tiny_corpus, lda.TrainingConfig(k=3, seed=3, iterations=0))
        for _ in range(10):
            lda.gibbs_sweep(model)
            model.check_invariants()

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            lda.TrainingConfig(k=1, seed=0)

    def test_empty_corpus_rejected(self):
        corpus = build_corpus([], [])
        with pytest.raises(ValueError, match="empty corpus"):
            lda.train(corpus, lda.TrainingConfig(k=2, seed=0, iterations=1))

    def test_single_token_sampling_is_uniform(self):
        # with every exclusive count at zero the proposal collapses to
        # symmetry across topics
        corpus = build_corpus([[0]], ["a"])
        model = lda.train(corpus, lda.TrainingConfig(k=2, seed=11, iterations=0))
        draws = []
        for _ in range(4000):
            lda.gibbs_sweep(model)
            draws.append(int(model.z[0]))
        assert abs(np.mean(draws) - 0.5) < 0.03

    def test_log_joint_matches_independent_evaluation(self, tiny_corpus):
        config = lda.TrainingConfig(k=2, seed=5, alpha=0.3, beta=0.2, iterations=5)
        model = lda.train(tiny_corpus, config)
        expected = collapsed_log_joint(
            model.tokens, model.doc_index, model.z, model.n_docs,
            model.n_terms, 2, 0.3, 0.2,
        )
        assert model.log_joint() == pytest.approx(expected, rel=1e-12)

    def test_likelihood_trace_grows_with_sweeps(self, tiny_corpus):
        model = lda.train(tiny_corpus, lda.TrainingConfig(k=2, seed=5, iterations=8))
        assert len(model.log_likelihood_trace) == 8

    def test_exchangeability_within_documents(self):
        # permuting token order inside a document leaves the posterior
        # over count statistics unchanged (bag-of-words property)
        base = posterior_over_counts([[0, 0, 1], [2, 2, 1]], 2, 0.4, 0.3, 3)
        permuted = posterior_over_counts([[0, 1, 0], [1, 2, 2]], 2, 0.4, 0.3, 3)
        assert set(base) == set(permuted)
        for key in base:
            assert base[key] == pytest.approx(permuted[key], rel=1e-10)


class TestConstructor:
    @staticmethod
    def _rebuilt(model, lengths):
        return lda.TopicModel(model.config, model.vocabulary, model.doc_ids, lengths,
                              model.tokens, model.z, np.random.default_rng(0))

    def test_flat_arrays_rebuild_the_counts(self, small_model):
        model = self._rebuilt(small_model, small_model.n_d.tolist())
        npt.assert_array_equal(model.doc_index, small_model.doc_index)
        for name in ("n_wt", "n_td", "n_t", "n_d"):
            npt.assert_array_equal(getattr(model, name), getattr(small_model, name))

    @pytest.mark.parametrize("lengths", [[36] * 5, [30] * 5 + [29]],
                             ids=["count-off-the-doc-ids", "sum-off-the-tokens"])
    def test_lengths_must_fit_the_ids_and_tokens(self, small_model, lengths):
        """Six documents of 30 tokens: five lengths, or six that sum to
        179, name `lengths`."""
        with pytest.raises(ValueError, match="^lengths: "):
            self._rebuilt(small_model, lengths)


class TestEstimates:
    def _model_with_counts(self):
        # one 10-token document over 2 terms; assignments pinned so that
        # n_td = (7, 3)
        corpus = build_corpus([[0] * 7 + [1] * 3], ["a", "b"])
        model = lda.train(corpus, lda.TrainingConfig(k=2, seed=0, alpha=0.1, iterations=0))
        model.z = np.array([0] * 7 + [1] * 3, dtype=np.int32)
        model._rebuild_counts()
        return model

    def test_unsmoothed_theta_is_count_ratio(self):
        model = self._model_with_counts()
        theta, _ = lda.estimate_distributions(model, smoothing=False)
        npt.assert_allclose(theta[0], [0.7, 0.3], rtol=1e-12)

    def test_smoothed_theta_folds_in_alpha(self):
        model = self._model_with_counts()
        theta, _ = lda.estimate_distributions(model, smoothing=True)
        npt.assert_allclose(theta[0], [7.1 / 10.2, 3.1 / 10.2], rtol=1e-12)

    def test_empty_topic_uniform_when_smoothed(self, tiny_corpus):
        model = lda.train(tiny_corpus, lda.TrainingConfig(k=3, seed=1, iterations=0))
        model.z = np.zeros_like(model.z)  # topics 1, 2 unused
        model._rebuild_counts()
        _, phi = lda.estimate_distributions(model, smoothing=True)
        npt.assert_allclose(phi[:, 1], np.full(3, 1 / 3), rtol=1e-12)

    def test_empty_topic_rejected_when_unsmoothed(self, tiny_corpus):
        model = lda.train(tiny_corpus, lda.TrainingConfig(k=3, seed=1, iterations=0))
        model.z = np.zeros_like(model.z)
        model._rebuild_counts()
        with pytest.raises(NumericalDegeneracyError, match="degenerate topic"):
            lda.estimate_distributions(model, smoothing=False)

    def test_smoothed_estimates_are_distributions(self, small_model):
        theta, phi = lda.estimate_distributions(small_model, smoothing=True)
        npt.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-9)
        npt.assert_allclose(phi.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(theta > 0) and np.all(phi > 0)


class TestPerplexity:
    def test_uniform_model_gives_vocabulary_size(self):
        v, k = 5, 2
        theta = np.full((1, k), 1 / k)
        phi = np.full((v, k), 1 / v)
        docs = [np.array([0, 1, 2, 3])]
        assert lda.perplexity_from_distributions(theta, phi, docs) == pytest.approx(v)

    def test_certain_model_gives_one(self):
        theta = np.array([[1.0, 0.0]])
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        docs = [np.array([0, 0, 0])]
        assert lda.perplexity_from_distributions(theta, phi, docs) == pytest.approx(1.0)

    def test_hand_built_formula(self):
        theta = np.array([[0.6, 0.4]])
        phi = np.array([[0.5, 0.1], [0.3, 0.2], [0.2, 0.7]])
        doc = np.array([0, 1, 2, 0])
        probs = [theta[0] @ phi[w] for w in doc]
        expected = 2 ** (-np.mean(np.log2(probs)))
        got = lda.perplexity_from_distributions(theta, phi, [doc])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_probability_token_rejected(self):
        theta = np.array([[1.0, 0.0]])
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericalDegeneracyError):
            lda.perplexity_from_distributions(theta, phi, [np.array([1])])

    def test_model_perplexity_runs(self, small_model):
        value = lda.perplexity(small_model)
        assert 1.0 <= value <= small_model.n_terms * 2


class TestTopicSummary:
    def _pinned_model(self, tokens, z):
        corpus = build_corpus([tokens], ["a", "b", "c", "d"])
        model = lda.train(corpus, lda.TrainingConfig(k=2, seed=0, iterations=0))
        model.z = np.asarray(z, dtype=np.int32)
        model._rebuild_counts()
        return model

    def test_mass_coverage(self):
        # phi column 0 pinned to (0.4, 0.3, 0.2, 0.1); topic 1 holds the
        # two trailing tokens so both topics are populated
        model = self._pinned_model(
            [0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 0, 0], [0] * 10 + [1] * 2
        )
        summary = lda.topic_summary(model, 0, top_n=1, mass=0.5, smoothing=False)
        assert summary.mass_coverage == 2  # 0.4 + 0.3 >= 0.5
        assert summary.top_terms[0][0] == "a"
        assert summary.top_terms[0][1] == pytest.approx(0.4)

    def test_uniform_topic_entropy_is_log2_d(self):
        # four identical documents: the topic is spread evenly, so the
        # cross-document entropy is maximal
        corpus = build_corpus([[0, 1, 2, 3]] * 4, ["a", "b", "c", "d"])
        model = lda.train(corpus, lda.TrainingConfig(k=2, seed=0, iterations=0))
        model.z = np.zeros_like(model.z)
        model._rebuild_counts()
        summary = lda.topic_summary(model, 0, smoothing=True)
        assert summary.cross_document_entropy == pytest.approx(np.log2(4), rel=1e-12)

    def test_out_of_range_topic(self, small_model):
        with pytest.raises(ValueError):
            lda.topic_summary(small_model, 99)

    def test_tie_break_by_term_id(self):
        model = self._pinned_model([0, 1, 2, 3, 0], [0, 0, 0, 0, 1])
        summary = lda.topic_summary(model, 0, top_n=4, smoothing=False)
        assert [t for t, _ in summary.top_terms] == ["a", "b", "c", "d"]


class TestPersistence:
    def test_roundtrip(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        small_model.save(path)
        loaded = lda.TopicModel.load(path, small_model.vocabulary)
        npt.assert_array_equal(loaded.z, small_model.z)
        npt.assert_array_equal(loaded.n_wt, small_model.n_wt)
        assert loaded.config == small_model.config

    def test_vocabulary_hash_verified(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        small_model.save(path)
        other = Vocabulary(["zzz"] + list(small_model.vocabulary.id_to_term[1:]),
                           small_model.vocabulary.corpus_frequency)
        with pytest.raises(ValueError, match="hash mismatch"):
            lda.TopicModel.load(path, other)

    # each edit of a saved file and the error message loading must give;
    # the model has 6 documents of 30 tokens, V = 12 (4 bits) and k = 3 (2 bits)
    TAMPERED = {
        "z-in-range": "do not match assignments_sha256",
        "token-in-range": "do not match assignments_sha256",
        "z-truncated": re.escape("field 'z' is not base64 of topics in [0, k): "
                                 "44 bytes, not 45 for 180 values of 2 bits"),
        "topic-out-of-range": re.escape("field 'z' is not base64 of topics in [0, k): "
                                        "document 0 (doc0) holds 3, not below 3"),
        "token-out-of-vocabulary": re.escape("field 'tokens' is not base64 of term ids in "
                                             "[0, V): document 1 (doc1) holds 12, not below 12"),
        "doc-ids-short": re.escape("field 'lengths' has 6 entries, 'doc_ids' has 5"),
        "lengths-not-counts": re.escape("field 'lengths' entry 1 (doc1) is not a "
                                        "non-negative integer"),
        "lengths-sum-long": re.escape("field 'tokens' is not base64 of term ids in [0, V): "
                                      "90 bytes, not 91 for 181 values of 4 bits"),
        "lengths-sum-short": re.escape("field 'tokens' is not base64 of term ids in [0, V): "
                                       "a padding bit is not zero"),
        "format-1": "unsupported model format_version 1",
        "format-2": "unsupported model format_version 2",
        "format-3": "unsupported model format_version 3",
        "z-outside-the-alphabet": re.escape("field 'z' is not base64 of topics in [0, k): "
                                            "bad base64"),
        "z-a-list": re.escape("field 'z' is not base64 of topics in [0, k): not a string"),
        "doc-id-not-a-string": re.escape("field 'doc_ids' entry 2 (7) is not a string"),
        "trace-not-numbers": re.escape("field 'log_likelihood_trace' entry 0 (True) is not "
                                       "a number"),
        "trace-nan": re.escape("field 'log_likelihood_trace' entry 0 (nan) is not a number: "
                               "not finite"),
    }

    @pytest.mark.parametrize("tamper", TAMPERED)
    def test_tampered_file_rejected(self, small_model, tmp_path, tamper):
        path = tmp_path / "model.json"
        small_model.save(path)
        payload = json.loads(path.read_text())
        k, v, n = small_model.config.k, small_model.n_terms, small_model.tokens.size
        z, tokens = unpacked(payload["z"], k, n), unpacked(payload["tokens"], v, n)
        if tamper == "z-in-range":
            z[0] = (z[0] + 1) % k
        elif tamper == "token-in-range":
            tokens[0] = (tokens[0] + 1) % v
        elif tamper == "z-truncated":
            del z[-4:]  # one byte of 2-bit topics
        elif tamper == "topic-out-of-range":
            z[29] = k  # the last token of document 0
        elif tamper == "token-out-of-vocabulary":
            tokens[30] = v  # the first token of document 1
        elif tamper == "doc-ids-short":
            payload["doc_ids"].pop()
        elif tamper == "lengths-not-counts":
            payload["lengths"][1] = 1.5
        elif tamper == "lengths-sum-long":
            payload["lengths"][0] += 1
        elif tamper == "lengths-sum-short":
            payload["lengths"][0] -= 1
            tokens[-1] = 1  # the id that falls in the padding
        elif tamper == "doc-id-not-a-string":
            payload["doc_ids"][2] = 7
        elif tamper == "trace-not-numbers":
            payload["log_likelihood_trace"][0] = True
        elif tamper == "trace-nan":  # JSON's NaN reads as a float
            payload["log_likelihood_trace"][0] = math.nan
        elif tamper == "format-1":
            payload["format_version"] = 1
        payload["z"], payload["tokens"] = packed(z, k), packed(tokens, v)
        doc_tokens = small_model.doc_tokens()
        if tamper == "format-2":  # term ids and topics as JSON numbers
            del payload["lengths"]
            payload.update(format_version=2, z=z, tokens=[doc.tolist() for doc in doc_tokens])
        elif tamper == "format-3":  # a string per document, a byte per term id or topic
            del payload["lengths"]
            payload.update(format_version=3, z=base64.b64encode(bytes(z)).decode(),
                           tokens=[base64.b64encode(bytes(doc.tolist())).decode()
                                   for doc in doc_tokens])
        elif tamper == "z-a-list":
            payload["z"] = z
        elif tamper == "z-outside-the-alphabet":
            payload["z"] = "*" + payload["z"][1:]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=self.TAMPERED[tamper]):
            lda.TopicModel.load(path, small_model.vocabulary)

    def test_file_holds_no_derived_counts(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        small_model.save(path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 4
        assert not {"doc_index", "n_wt", "n_td"} & set(payload)
        assert payload["lengths"] == small_model.n_d.tolist() == [30] * 6
        n = small_model.tokens.size
        assert unpacked(payload["tokens"], 12, n) == small_model.tokens.tolist()
        assert unpacked(payload["z"], 3, n) == small_model.z.tolist()
        assert len(payload["tokens"]) == 4 * -(-n * 4 // 24)  # 4 bits an id at V = 12


@st.composite
def trained_models(draw):
    """A model trained on a random small corpus for a few sweeps."""
    v = draw(st.integers(1, 6))
    docs = draw(st.lists(st.lists(st.integers(0, v - 1), min_size=1, max_size=8),
                         min_size=1, max_size=5))
    config = lda.TrainingConfig(k=draw(st.integers(2, 4)), seed=draw(st.integers(0, 2**32)),
                                iterations=draw(st.integers(0, 3)))
    return lda.train(build_corpus(docs, [f"w{i}" for i in range(v)]), config)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=trained_models())
def test_save_load_roundtrip_rebuilds_the_model(model, tmp_path):
    path = tmp_path / "model.json"
    model.save(path)
    first = lda.TopicModel.load(path, model.vocabulary)
    for name in ("z", "tokens", "doc_index", "n_wt", "n_td", "n_t", "n_d"):
        npt.assert_array_equal(getattr(first, name), getattr(model, name), err_msg=name)
    assert first.doc_ids == model.doc_ids
    assert first.sweeps_done == model.sweeps_done
    assert first.log_likelihood_trace == model.log_likelihood_trace
    second = lda.TopicModel.load(path, model.vocabulary)
    lda.gibbs_sweep(first)
    lda.gibbs_sweep(second)
    npt.assert_array_equal(first.z, second.z)
    npt.assert_array_equal(first.n_wt, second.n_wt)
    assert first.log_likelihood_trace == second.log_likelihood_trace


# zeros and small repeated counts, as in n_wt, and a few up to 10^6, as in n_t
count_arrays = hnp.arrays(
    np.int64,
    hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
    elements=st.one_of(st.integers(0, 3), st.integers(0, 10**6)),
)


@settings(max_examples=300, deadline=None)
@given(counts=count_arrays, shift=st.floats(1e-3, 10))
def test_lgamma_sum_matches_per_cell_evaluation(counts, shift):
    from scipy.special import gammaln

    got = lda._lgamma_sum(counts, shift)
    cells = [math.lgamma(c + shift) for c in counts.ravel().tolist()]
    # both libraries get each term within about 1e-15 of max(|term|, 1):
    # near lgamma's roots at 1 and 2 the error is absolute, not relative
    tol = 1e-13 * math.fsum(max(abs(t), 1.0) for t in cells)
    assert abs(got - math.fsum(cells)) <= tol
    assert abs(got - math.fsum(gammaln(counts + shift).ravel().tolist())) <= tol
