import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textforage import _gibbs, lda, querysample
from textforage.errors import NumericalDegeneracyError
from textforage.measures import js_distance, js_distance_matrix
from textforage.seeds import derive_seed

from conftest import (
    build_corpus,
    reference_fit_document,
    reference_pam,
    reference_sample_ensemble,
    reference_silhouette_mean,
    tied_ensembles,
)


@pytest.fixture(scope="module")
def reading_model():
    """A model over two planted topics whose word blocks overlap on w4
    and w5, leaving genuine ambiguity for query fits to disagree on."""
    rng = np.random.default_rng(99)
    docs = []
    for i in range(10):
        block = 0 if i < 5 else 4
        docs.append((rng.integers(0, 6, size=40) + block).tolist())
    corpus = build_corpus(docs, [f"w{i}" for i in range(10)])
    config = lda.TrainingConfig(k=2, seed=17, alpha=0.1, beta=0.01, iterations=120)
    return lda.train(corpus, config)


class TestFitDocument:
    def test_locked_mode_never_touches_the_base_model(self, reading_model):
        before_wt = reading_model.n_wt.copy()
        before_t = reading_model.n_t.copy()
        fit = querysample.fit_document(
            reading_model, ["w0", "w1", "w2"], iterations=20, phi_mode="locked", seed=1
        )
        npt.assert_array_equal(reading_model.n_wt, before_wt)
        npt.assert_array_equal(reading_model.n_t, before_t)
        assert fit.theta.sum() == pytest.approx(1.0, abs=1e-9)
        assert fit.perplexity > 0

    def test_drifting_does_not_mutate_base_either(self, reading_model):
        before = reading_model.n_wt.copy()
        fit = querysample.fit_document(
            reading_model, ["w0"] * 10, iterations=15, phi_mode="drifting", seed=2
        )
        npt.assert_array_equal(reading_model.n_wt, before)
        # the private copy, however, carries the query tokens
        assert fit.word_topic_counts.sum() == before.sum() + 10

    def test_oov_only_document_rejected(self, reading_model):
        with pytest.raises(NumericalDegeneracyError, match="untrainable"):
            querysample.fit_document(reading_model, ["nope", "missing"], seed=3)

    def test_deterministic_given_seed(self, reading_model):
        doc = ["w1", "w2", "w6", "w6"]
        a = querysample.fit_document(reading_model, doc, iterations=25, seed=9)
        b = querysample.fit_document(reading_model, doc, iterations=25, seed=9)
        npt.assert_array_equal(a.theta, b.theta)
        assert a.perplexity == b.perplexity

    def test_extended_mode_builds_a_consistent_joint_model(self, reading_model):
        doc = ["w0", "w1", "w7"]
        fit = querysample.fit_document(
            reading_model, doc, iterations=10, phi_mode="extended", seed=4
        )
        joint = fit.extended_model
        assert joint is not None
        joint.check_invariants()
        assert joint.n_docs == reading_model.n_docs + 1
        # original documents' topic columns are retained untouched
        npt.assert_array_equal(
            joint.n_td[:, : reading_model.n_docs], reading_model.n_td
        )
        npt.assert_array_equal(joint.z[: reading_model.z.size], reading_model.z)

    @pytest.mark.parametrize("phi_mode", querysample.PHI_MODES)
    def test_perplexity_is_the_full_phi_perplexity(self, reading_model, phi_mode):
        doc = ["w0", "w4", "w4", "w9", "w2", "w4", "w7"]
        fit = querysample.fit_document(
            reading_model, doc, iterations=12, phi_mode=phi_mode, seed=6
        )
        counts = reading_model.n_wt if phi_mode == "locked" else fit.word_topic_counts
        beta, n_terms = reading_model.config.beta, reading_model.n_terms
        phi = (counts + beta) / (counts.sum(axis=0)[None, :] + n_terms * beta)
        tokens = reading_model.vocabulary.encode(doc)
        assert fit.perplexity == lda.perplexity_from_distributions(fit.theta, phi, [tokens])

    def test_refit_training_document_lands_near_training_row(self, reading_model):
        doc_tokens = reading_model.tokens[reading_model.doc_index == 0]
        theta, _ = lda.estimate_distributions(reading_model)
        ensemble = querysample.sample_ensemble(
            reading_model,
            doc_tokens,
            n_samples=1000,
            iterations=30,
            phi_mode="locked",
            master_seed=55,
        )
        assert js_distance(ensemble.mean_theta(), theta[0]) < 0.1


class TestSampleEnsemble:
    def test_single_sample_reduces_to_fit_document(self, reading_model):
        doc = ["w0", "w3", "w8"]
        ensemble = querysample.sample_ensemble(
            reading_model, doc, n_samples=1, iterations=10, master_seed=7
        )
        direct = querysample.fit_document(
            reading_model, doc, iterations=10,
            seed=derive_seed(7, 0, "ensemble"),
        )
        npt.assert_array_equal(ensemble.thetas[0], direct.theta)
        assert ensemble.perplexities[0] == direct.perplexity

    def test_same_master_seed_reproduces(self, reading_model):
        doc = ["w0", "w3", "w8", "w8"]
        kwargs = dict(n_samples=5, iterations=10, master_seed=21)
        a = querysample.sample_ensemble(reading_model, doc, **kwargs)
        b = querysample.sample_ensemble(reading_model, doc, **kwargs)
        npt.assert_array_equal(a.thetas, b.thetas)
        npt.assert_array_equal(a.perplexities, b.perplexities)

    def test_mixed_document_spreads_between_samples(self, reading_model):
        # a document written entirely in the shared words is torn
        # between the planted topics: restarts reach different
        # interpretations
        doc = ["w4", "w5"] * 5
        ensemble = querysample.sample_ensemble(
            reading_model, doc, n_samples=30, iterations=30, master_seed=13
        )
        distances = [
            js_distance(ensemble.thetas[i], ensemble.thetas[j])
            for i in range(10)
            for j in range(i + 1, 10)
        ]
        assert max(distances) > 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_blocked_fits_match_the_per_sample_reference(data):
    """Blocked fits over the query's own rows give the bits of the
    per-sample loop over the full counts: in every phi mode, at any
    block size and backend, on documents of few terms."""
    v, k = data.draw(st.integers(2, 25), "v"), data.draw(st.integers(2, 6), "k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    corpus = build_corpus([rng.integers(0, v, 20).tolist() for _ in range(4)],
                          [f"w{i}" for i in range(v)])
    # a large beta makes V*beta, which the query's own rows cannot show, matter
    beta = data.draw(st.sampled_from([0.01, 0.3, 2.0]), "beta")
    model = lda.train(corpus, lda.TrainingConfig(k=k, seed=1, beta=beta, iterations=5))
    terms = rng.choice(v, size=min(v, data.draw(st.sampled_from([1, 2, 3, v]), "terms")),
                       replace=False)
    doc = rng.choice(terms, size=data.draw(st.integers(1, 40), "n")).astype(np.int32)
    phi_mode = data.draw(st.sampled_from(querysample.PHI_MODES), "phi_mode")
    iterations = data.draw(st.integers(0, 30), "iterations")
    n_samples = data.draw(st.integers(1, 12), "n_samples")
    per_block = data.draw(st.sampled_from([None, 1, 2, 3]), "samples per block")
    fallback = data.draw(st.booleans(), "fallback")
    with pytest.MonkeyPatch.context() as patch:
        if per_block is not None:
            one = iterations * doc.size + np.unique(doc).size * k
            patch.setattr(querysample, "BLOCK_NUMBERS", per_block * one)
        if fallback:
            patch.setattr(_gibbs, "load", lambda: (None, "pure Python (forced)"))
        ensemble = querysample.sample_ensemble(
            model, doc, n_samples, iterations=iterations, phi_mode=phi_mode,
            master_seed=7)
        first_seed = derive_seed(7, 0, "ensemble")
        fit = querysample.fit_document(model, doc, iterations, phi_mode, first_seed)
        thetas, perplexities = reference_sample_ensemble(
            model, doc, n_samples, iterations, phi_mode, master_seed=7)
        _, _, counts, z = reference_fit_document(model, doc, iterations, phi_mode, first_seed)
    assert ensemble.thetas.tobytes() == thetas.tobytes()
    assert ensemble.perplexities.tobytes() == perplexities.tobytes()
    assert fit.theta.tobytes() == thetas[0].tobytes()
    assert fit.perplexity == perplexities[0]
    if phi_mode == "locked":
        assert fit.word_topic_counts is None
    else:
        npt.assert_array_equal(fit.word_topic_counts, counts)
    if phi_mode == "extended":
        npt.assert_array_equal(fit.extended_model.z[model.z.size :], z)
        npt.assert_array_equal(fit.extended_model.z[: model.z.size], model.z)


@pytest.mark.parametrize("phi_mode", ["drifting", "extended"])
def test_ensemble_memory_does_not_grow_with_the_sample_count(phi_mode):
    """At V = 5,000 and k = 20 a copy of the word-topic counts is 800 kB;
    200 samples may cost no more than 20 plus 1 MB."""
    import tracemalloc

    v = 5000
    rng = np.random.default_rng(3)
    corpus = build_corpus([rng.permutation(v).tolist() for _ in range(2)],
                          [f"w{i}" for i in range(v)])
    model = lda.train(corpus, lda.TrainingConfig(k=20, seed=2, iterations=1))
    doc = rng.integers(0, v, 8).astype(np.int32)

    def peak(n_samples):
        tracemalloc.start()
        try:
            querysample.sample_ensemble(model, doc, n_samples, iterations=10,
                                        phi_mode=phi_mode, master_seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(3)  # loads the kernel outside the measurement
    assert peak(200) - peak(20) < 2**20


def synthetic_ensemble(thetas, perplexities=None):
    thetas = np.asarray(thetas, dtype=np.float64)
    if perplexities is None:
        perplexities = np.ones(len(thetas))
    return querysample.SampleEnsemble(
        doc_id="synthetic",
        thetas=thetas,
        perplexities=np.asarray(perplexities, dtype=np.float64),
        phi_mode="locked",
        master_seed=0,
    )


class TestClusterEnsemble:
    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(0)
        blob_a = rng.dirichlet([40, 1, 1], size=20)
        blob_b = rng.dirichlet([1, 1, 40], size=20)
        ensemble = synthetic_ensemble(np.vstack([blob_a, blob_b]))
        report = querysample.cluster_ensemble(ensemble, k_range=range(2, 6))
        assert report.n_clusters == 2
        first = report.assignments[:20]
        second = report.assignments[20:]
        assert len(set(first)) == 1 and len(set(second)) == 1
        assert first[0] != second[0]
        assert {c.dominant_topic for c in report.clusters} == {0, 2}

    def test_identical_samples_collapse_to_one_cluster(self):
        ensemble = synthetic_ensemble(np.tile([0.2, 0.3, 0.5], (8, 1)))
        report = querysample.cluster_ensemble(ensemble)
        assert report.n_clusters == 1
        assert "identical" in report.note

    def test_medoid_dominant_topic_is_argmax(self):
        rng = np.random.default_rng(1)
        thetas = np.vstack(
            [rng.dirichlet([30, 1, 1], size=10), rng.dirichlet([1, 30, 1], size=10)]
        )
        ensemble = synthetic_ensemble(thetas)
        report = querysample.cluster_ensemble(ensemble, k_range=range(2, 4))
        for cluster in report.clusters:
            medoid_theta = ensemble.thetas[cluster.medoid_index]
            assert cluster.dominant_topic == int(medoid_theta.argmax())

    def test_needs_three_samples(self):
        ensemble = synthetic_ensemble([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(ValueError):
            querysample.cluster_ensemble(ensemble)

    def test_selection_is_deterministic(self):
        rng = np.random.default_rng(2)
        thetas = rng.dirichlet([1, 1, 1, 1], size=30)
        ensemble = synthetic_ensemble(thetas)
        a = querysample.cluster_ensemble(ensemble, k_range=range(2, 7))
        b = querysample.cluster_ensemble(ensemble, k_range=range(2, 7))
        assert a.n_clusters == b.n_clusters
        npt.assert_array_equal(a.assignments, b.assignments)
        assert a.silhouette_by_k == b.silhouette_by_k

    def test_duplicate_samples_never_yield_empty_clusters(self):
        # repeated identical samples can make k-medoids pick duplicate
        # medoids; occupied clusters must still partition the ensemble
        rng = np.random.default_rng(4)
        thetas = np.vstack(
            [
                np.tile([0.9, 0.05, 0.05], (15, 1)),
                np.tile([0.05, 0.9, 0.05], (10, 1)),
                rng.dirichlet([1, 1, 1], size=5),
            ]
        )
        ensemble = synthetic_ensemble(thetas)
        report = querysample.cluster_ensemble(ensemble, k_range=range(2, 8))
        assert all(c.size > 0 for c in report.clusters)
        assert sum(c.size for c in report.clusters) == 30
        assert np.isfinite([c.perplexity_mean for c in report.clusters]).all()
        assert set(report.assignments) == set(range(report.n_clusters))

    def test_permuting_sample_order_permutes_assignments(self):
        rng = np.random.default_rng(3)
        thetas = np.vstack(
            [rng.dirichlet([25, 1, 1], size=12), rng.dirichlet([1, 1, 25], size=12)]
        )
        ensemble = synthetic_ensemble(thetas)
        report = querysample.cluster_ensemble(ensemble, k_range=range(2, 4))
        perm = rng.permutation(24)
        shuffled = synthetic_ensemble(thetas[perm])
        report_shuffled = querysample.cluster_ensemble(shuffled, k_range=range(2, 4))
        assert report_shuffled.n_clusters == report.n_clusters
        # same partition, up to cluster relabeling
        original_groups = {
            frozenset(np.flatnonzero(report.assignments == c))
            for c in range(report.n_clusters)
        }
        mapped_groups = {
            frozenset(perm[i] for i in np.flatnonzero(report_shuffled.assignments == c))
            for c in range(report_shuffled.n_clusters)
        }
        assert original_groups == mapped_groups


def float_bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=150, deadline=None)
@given(thetas=tied_ensembles(), k=st.integers(2, 10), data=st.data())
def test_pam_and_silhouette_match_the_loop_reference(thetas, k, data):
    # the whole-array swap scan and silhouette against the one-trial-at-
    # a-time and one-sample-at-a-time loops: same medoids, same bits
    n = len(thetas)
    k = min(k, n - 1)
    dist = js_distance_matrix(thetas)
    medoids = querysample._pam(dist, k)
    assert medoids.tolist() == reference_pam(dist, k).tolist()
    labels = np.argmin(dist[:, medoids], axis=1)
    assert float_bits(querysample._silhouette_mean(dist, labels)) == float_bits(
        reference_silhouette_mean(dist, labels)
    )
    # arbitrary labels too: singletons, absent labels, a single cluster
    seed = data.draw(st.integers(0, 2**32 - 1))
    labels = np.random.default_rng(seed).integers(0, k, size=n)
    assert float_bits(querysample._silhouette_mean(dist, labels)) == float_bits(
        reference_silhouette_mean(dist, labels)
    )


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from([1.0, 2.5, 7.0]),
                                 st.floats(0, 1e300, exclude_min=True)),
                       min_size=1, max_size=12))
def test_median_is_numpys_bit_for_bit(values):
    values = np.array(values)
    assert np.float64(querysample._median(values)).tobytes() == np.median(values).tobytes()
