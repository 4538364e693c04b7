"""Acceptance suite: one test per release criterion.

Each test prints an `ACCEPTANCE: <criterion>: PASS/FAIL` line (visible
with `pytest -s tests/test_acceptance.py`), checks its stated tolerance,
and relies on an oracle independent of the code path it verifies
(closed forms, exhaustive enumeration, or brute-force search).

Known red: `bee noise selectivity` demands a false-positive rate the
exact maximum-likelihood boundary search cannot deliver; see the test's
docstring for the analysis.  It is kept failing rather than loosened.
"""

import functools
import itertools
import math

import numpy as np
import pytest
import yaml

from textforage import cli, epochs, lda, modelcompare, nullmodels
from textforage.corpus import DocumentSpec, EncodedDocument, Corpus, Vocabulary
from textforage.measures import js_distance, kl_divergence, surprise_values
from textforage.nullmodels import ReadingOrder, constrained_permutation
from textforage.synthetic import FixtureSpec, make_fixture

import datetime


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE: {name}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE: {name}: PASS", flush=True)

        return inner

    return wrap


# ---------------------------------------------------------------------------
# KL worked example


@criterion("kl worked example")
def test_kl_worked_example():
    """The three-word guessing game: 0.25 bits of excess questions."""
    value = kl_divergence([0.25, 0.5, 0.25], [0.5, 0.25, 0.25])
    assert abs(value - 0.25) <= 1e-12


# ---------------------------------------------------------------------------
# Gibbs sampler vs exhaustive posterior


def _oracle_log_joint(tokens, doc_of, z, n_docs, v, k, alpha, beta):
    """Collapsed joint p(w, z) evaluated from first principles."""
    n_td = np.zeros((k, n_docs))
    n_wt = np.zeros((v, k))
    for i in range(len(tokens)):
        n_td[z[i], doc_of[i]] += 1
        n_wt[tokens[i], z[i]] += 1
    ll = n_docs * (math.lgamma(k * alpha) - k * math.lgamma(alpha))
    for d in range(n_docs):
        ll += sum(math.lgamma(n_td[t, d] + alpha) for t in range(k))
        ll -= math.lgamma(n_td[:, d].sum() + k * alpha)
    ll += k * (math.lgamma(v * beta) - v * math.lgamma(beta))
    for t in range(k):
        ll += sum(math.lgamma(n_wt[w, t] + beta) for w in range(v))
        ll -= math.lgamma(n_wt[:, t].sum() + v * beta)
    return ll


@criterion("gibbs sampler matches enumerated posterior")
def test_gibbs_oracle():
    """Two 3-token documents, two topics: the sampler's empirical
    distribution over all 64 assignment vectors must match exhaustive
    enumeration within total variation 0.05."""
    k, alpha, beta = 2, 0.5, 0.5
    tokens = [0, 0, 1, 2, 2, 1]
    doc_of = [0, 0, 0, 1, 1, 1]

    log_weights = [
        _oracle_log_joint(tokens, doc_of, z, 2, 3, k, alpha, beta)
        for z in itertools.product(range(k), repeat=6)
    ]
    weights = np.exp(np.asarray(log_weights) - max(log_weights))
    exact = weights / weights.sum()
    states = {z: exact[i] for i, z in enumerate(itertools.product(range(k), repeat=6))}

    vocab = Vocabulary(["a", "b", "c"], [2, 2, 2])
    corpus = Corpus(
        vocabulary=vocab,
        documents=(
            EncodedDocument(DocumentSpec(id="d1", order_index=0),
                            np.array([0, 0, 1], dtype=np.int32), 0),
            EncodedDocument(DocumentSpec(id="d2", order_index=1),
                            np.array([2, 2, 1], dtype=np.int32), 0),
        ),
    )
    model = lda.train(
        corpus, lda.TrainingConfig(k=k, seed=2027, alpha=alpha, beta=beta, iterations=0)
    )
    for _ in range(2000):  # burn-in
        lda.gibbs_sweep(model)
    n_samples = 40_000
    counts: dict[tuple, int] = {}
    for _ in range(n_samples):
        lda.gibbs_sweep(model)
        key = tuple(int(t) for t in model.z)
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(z, 0) / n_samples - p) for z, p in states.items()
    )
    assert n_samples >= 10_000
    assert tv < 0.05, f"total variation {tv:.4f}"


# ---------------------------------------------------------------------------
# JS distance metric axioms


@criterion("js distance metric axioms")
def test_js_metric_axioms():
    """10^4 random triples at k=80: symmetry, identity, triangle
    inequality, with no violation beyond 1e-12."""
    rng = np.random.default_rng(318)
    n_triples = 10_000
    rows = rng.dirichlet(np.full(80, 0.5), size=3 * n_triples).reshape(n_triples, 3, 80)
    worst = 0.0
    for p, q, r in rows:
        pq = js_distance(p, q)
        worst = max(worst, abs(pq - js_distance(q, p)))
        worst = max(worst, pq - (js_distance(p, r) + js_distance(r, q)))
        assert pq >= 0.0
    assert worst <= 1e-12, f"worst violation {worst:.2e}"
    assert js_distance(rows[0][0], rows[0][0]) == 0.0


# ---------------------------------------------------------------------------
# Constrained permutation null


@criterion("constrained null: feasibility, enumeration, planted p-value")
def test_constrained_null():
    base = datetime.date(1840, 1, 1)

    # (a) 1000 permutations of a 50-item staggered order all feasible
    rng = np.random.default_rng(91)
    n = 50
    slot_days = np.sort(rng.integers(100, 2000, size=n))
    pub_days = slot_days - rng.integers(1, 300, size=n)
    order = ReadingOrder(
        item_ids=tuple(f"v{i}" for i in range(n)),
        slot_dates=tuple(base + datetime.timedelta(days=int(d)) for d in slot_days),
        pub_dates=tuple(base + datetime.timedelta(days=int(d)) for d in pub_days),
    )
    for draw in range(1000):
        perm = constrained_permutation(order, seed_or_rng=draw)
        assert sorted(perm.tolist()) == list(range(n))
        for slot, item in enumerate(perm):
            assert order.pub_dates[item] <= order.slot_dates[slot]

    # (b) 3-item staggered fixture: sampled set == brute-force feasible set
    pub3, slot3 = [0, 0, 15], [10, 20, 30]
    order3 = ReadingOrder(
        item_ids=("a", "b", "c"),
        slot_dates=tuple(base + datetime.timedelta(days=d) for d in slot3),
        pub_dates=tuple(base + datetime.timedelta(days=d) for d in pub3),
    )
    feasible = {
        perm for perm in itertools.permutations(range(3))
        if all(pub3[perm[s]] <= slot3[s] for s in range(3))
    }
    sampled = {
        tuple(constrained_permutation(order3, seed_or_rng=i)) for i in range(3000)
    }
    assert sampled == feasible

    # (c) a planted low-surprise ordering is detected at p < 0.01
    # against its own publication-constrained ensemble: the reader walks
    # a smooth topic gradient while the null shuffles within the dates
    k = 6
    mix = np.linspace(0.05, 0.95, n)
    dists = np.column_stack([
        0.9 * (1 - mix), 0.9 * mix,
        *(np.full(n, 0.1 / (k - 2)) for _ in range(k - 2)),
    ])
    dists /= dists.sum(axis=1, keepdims=True)
    comparison = nullmodels.null_ensemble(order, dists, n=1000, seed=17)
    assert comparison.p_value["t2t"] < 0.01, comparison.p_value


# ---------------------------------------------------------------------------
# Epoch estimation


@criterion("bee planted changepoint recovery")
def test_bee_planted_changepoint():
    """200 points, means 1.0/3.0, sd 0.5: the break lands within +-2 of
    position 100 and AIC prefers the two-epoch model."""
    rng = np.random.default_rng(2024)
    values = np.concatenate([rng.normal(1.0, 0.5, 100), rng.normal(3.0, 0.5, 100)])
    model = epochs.fit_epochs(values, 2, min_len=10)
    assert abs(model.interior_boundaries[0] - 100) <= 2
    scores = epochs.select_model(values, max_epochs=2, min_len=10)
    assert scores[1].aic < scores[0].aic


@criterion("bee noise selectivity (known red; see docstring)")
def test_bee_noise_selectivity():
    """On stationary Gaussian noise, AIC should retain the single-epoch
    model in at least 95 of 100 replicates.

    This target sits at the chi-square floor: even with a single fixed
    candidate boundary, the two-epoch model adds three parameters but
    only two effective degrees of freedom at a fixed split, so the
    likelihood-ratio exceeds the AIC penalty of 6 with probability
    P(chi2_2 > 6) ~= 0.0498 - already ~5 expected failures in 100.
    Maximizing the likelihood over all feasible boundary placements (the
    defined estimator) inflates the statistic far beyond that floor;
    simulation puts the single-epoch retention rate near 40-50% at
    min_len=10 and it stays below 95% for every non-degenerate search
    window.  The criterion is therefore not attainable with the exact
    ML boundary search, and this test records the honest rate instead
    of loosening the threshold.
    """
    rng = np.random.default_rng(7171)
    kept = 0
    for _ in range(100):
        values = rng.normal(1.0, 0.5, 200)
        scores = epochs.select_model(values, max_epochs=2, min_len=10)
        if epochs.best_model(scores).model.n_epochs == 1:
            kept += 1
    assert kept >= 95, f"single-epoch model kept in {kept}/100 replicates"


@criterion("bee dynamic program equals brute force")
def test_bee_dp_equals_brute_force():
    rng = np.random.default_rng(55)
    values = np.concatenate([rng.normal(0, 1, 25), rng.normal(2, 0.7, 25)])
    for n_epochs in (2, 3):
        model = epochs.fit_epochs(values, n_epochs, min_len=5)
        best_ll, best_bounds = -np.inf, None
        positions = range(5, 46)
        for interior in itertools.combinations(positions, n_epochs - 1):
            bounds = (0, *interior, 50)
            if any(b2 - b1 < 5 for b1, b2 in zip(bounds, bounds[1:])):
                continue
            fit = epochs.segment_loglik(values, bounds)
            if fit.log_likelihood > best_ll + 1e-12:
                best_ll, best_bounds = fit.log_likelihood, bounds
        assert model.log_likelihood == pytest.approx(best_ll, rel=1e-10)
        assert model.boundaries == best_bounds


@criterion("epoch parameter counts")
def test_parameter_counts():
    assert epochs.param_count(2) == 5
    assert epochs.param_count(3) == 8


# ---------------------------------------------------------------------------
# Greedy baseline


@criterion("greedy path beats the null ensemble")
def test_greedy_below_null():
    """Over 100 synthetic distributions the greedy nearest-neighbor
    path's mean step surprise cannot exceed the null's."""
    rng = np.random.default_rng(404)
    n = 100
    dists = rng.dirichlet(np.full(8, 0.3), size=n)
    base = datetime.date(1850, 1, 1)
    order = ReadingOrder(
        item_ids=tuple(f"v{i}" for i in range(n)),
        slot_dates=tuple(base + datetime.timedelta(days=i) for i in range(n)),
        pub_dates=tuple(base for _ in range(n)),
    )
    comparison = nullmodels.null_ensemble(order, dists, n=200, seed=5, modes=("t2t",))
    path = nullmodels.greedy_shortest_path(dists, start=0, objective="t2t")
    greedy_mean = surprise_values(dists[path], "t2t").mean()
    null_mean = comparison.mean_by_mode["t2t"].mean()
    assert greedy_mean <= null_mean, (greedy_mean, null_mean)


# ---------------------------------------------------------------------------
# Topic alignment


@criterion("alignment recovers permutations and matches brute force")
def test_alignment_oracle():
    rng = np.random.default_rng(23)

    # planted permutation, zero distance
    phi = rng.dirichlet(np.full(15, 0.3), size=6).T
    perm = [4, 2, 0, 5, 1, 3]
    aligned = modelcompare.align_topics(phi, phi[:, perm], strategy="basic")
    assert aligned.mapping == {perm[j]: j for j in range(6)}
    assert aligned.total_distance <= 1e-9

    # adversarial equals exhaustive optimal injection for kA <= 6
    for k_a, k_b in [(3, 3), (4, 6), (5, 7), (6, 6)]:
        phi_a = rng.dirichlet(np.full(12, 0.4), size=k_a).T
        phi_b = rng.dirichlet(np.full(12, 0.4), size=k_b).T
        result = modelcompare.align_topics(phi_a, phi_b, strategy="adversarial")
        dist = modelcompare._js_distance_columns(phi_a, phi_b)
        best = min(
            sum(dist[a, b] for a, b in enumerate(injection))
            for injection in itertools.permutations(range(k_b), k_a)
        )
        assert result.total_distance == pytest.approx(best, abs=1e-10)


# ---------------------------------------------------------------------------
# End-to-end determinism


@criterion("pipeline reruns byte-identical")
def test_pipeline_determinism(tmp_path):
    root = tmp_path / "fx"
    make_fixture(root, seed=5, spec=FixtureSpec(n_docs=24, n_topics=3, terms_per_topic=30))
    config = {
        "manifest": "manifest.jsonl",
        "output_dir": "out",
        "seed": 29,
        "filter": {"min_count": 2},
        "training": {"ks": [3, 5], "iterations": 60},
        "null_model": {"permutations": 100},
        "epochs": {"max_epochs": 2, "min_len": 4},
        "fit": {"documents": ["query_0.txt"], "samples": 12,
                "iterations": 20, "cluster_range": [2, 5]},
    }
    (root / "config.yaml").write_text(yaml.safe_dump(config))
    assert cli.main(["pipeline", "--config", str(root / "config.yaml"),
                     "--out", str(root / "a")]) == 0
    assert cli.main(["pipeline", "--config", str(root / "config.yaml"),
                     "--out", str(root / "b")]) == 0
    names = sorted(p.name for p in (root / "a").iterdir())
    assert names == sorted(p.name for p in (root / "b").iterdir())
    for name in names:
        a = (root / "a" / name).read_bytes()
        b = (root / "b" / name).read_bytes()
        assert a == b, f"artifact {name} differs between reruns"
