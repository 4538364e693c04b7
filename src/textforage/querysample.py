"""Fit out-of-sample documents into a trained model's topic space.

Query sampling runs the standard Gibbs update over a new document's
tokens while the training documents' assignments stay fixed.  What
happens to the word-topic counts is governed by `phi_mode`:

* ``locked`` -- the word-topic counts stay frozen at the trained
  snapshot; fastest, and the base model is provably untouched.
* ``extended`` -- the new document's assignments extend the counts and
  the result carries a joint model over the original documents plus the
  new one, original topic-document rows retained.
* ``drifting`` (default) -- the new document's assignments update a
  private copy of the word-topic counts, so repeated sampling lets the
  topics drift toward the new text; the drifted counts are returned for
  drift measurement.

Because the sampler starts from a random assignment, repeated fits give
different topic distributions; `sample_ensemble` collects them and
`cluster_ensemble` groups the resulting interpretations.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lda
from .errors import NumericalDegeneracyError
from .measures import js_distance_matrix
from .seeds import derive_seed, rng_from

__all__ = [
    "FittedDocument",
    "fit_document",
    "SampleEnsemble",
    "sample_ensemble",
    "ClusterInfo",
    "ClusterReport",
    "cluster_ensemble",
    "ensemble_to_csv",
]

PHI_MODES = ("locked", "extended", "drifting")


@dataclass(frozen=True)
class FittedDocument:
    """One query-sampling fit: a topic distribution and its fitness."""

    theta: np.ndarray
    perplexity: float
    phi_mode: str
    seed: int
    #: final word-topic counts including the query document
    #: (extended/drifting modes only)
    word_topic_counts: np.ndarray | None = None
    #: joint model over the base corpus plus the query document
    #: (extended mode only)
    extended_model: lda.TopicModel | None = None


def _restrict_to_vocabulary(model: lda.TopicModel, doc) -> np.ndarray:
    if len(doc) and isinstance(doc[0], str):
        ids = model.vocabulary.encode(doc)
    else:
        ids = np.asarray(doc, dtype=np.int32)
        if ids.size and (ids.min() < 0 or ids.max() >= model.n_terms):
            raise ValueError("token id outside the model vocabulary")
    if ids.size == 0:
        raise NumericalDegeneracyError("untrainable document: no in-vocabulary tokens")
    return ids.astype(np.int32)


def fit_document(
    model: lda.TopicModel,
    doc: Sequence,
    iterations: int = 100,
    phi_mode: str = "drifting",
    seed: int = 0,
) -> FittedDocument:
    """Sample a topic distribution for `doc` under `model`.

    `doc` is a token sequence (strings, or term ids already in the
    model vocabulary); tokens outside the vocabulary are dropped first.
    The returned theta row is the smoothed estimate from the final
    assignments, and the perplexity is evaluated against the same
    phi snapshot the sampler finished with.  Deterministic given
    (model, doc, iterations, phi_mode, seed); the base model is never
    mutated in any mode.
    """
    if phi_mode not in PHI_MODES:
        raise ValueError(f"phi_mode must be one of {PHI_MODES}, got {phi_mode!r}")
    tokens = _restrict_to_vocabulary(model, doc)
    k = model.config.k
    alpha, beta = model.config.alpha, model.config.beta
    rng = rng_from(seed)
    z = rng.integers(0, k, tokens.size, dtype=np.int32)
    td_col = np.bincount(z, minlength=k).astype(np.int64)
    uniforms = rng.random((iterations, tokens.size))

    if phi_mode == "locked":
        lda.sweep_locked(tokens, z, model.n_wt, model.n_t, td_col, alpha, beta, uniforms)
        wt, t_totals = model.n_wt, model.n_t
        extra_counts = None
    else:
        wt = model.n_wt.copy()
        t_totals = model.n_t.copy()
        np.add.at(wt, (tokens, z), 1)
        np.add.at(t_totals, z, 1)
        td = td_col.reshape(k, 1)
        docs0 = np.zeros(tokens.size, dtype=np.int32)
        lda.sweep(tokens, docs0, z, wt, td, t_totals, alpha, beta, uniforms)
        td_col = td[:, 0]
        extra_counts = wt

    theta = (td_col + alpha) / (tokens.size + k * alpha)
    # smoothed phi for the query's own tokens only, row i for token i
    phi_rows = (wt[tokens] + beta) / (t_totals + model.n_terms * beta)
    perp = lda.perplexity_from_distributions(theta, phi_rows, [np.arange(tokens.size)])

    extended = None
    if phi_mode == "extended":
        extended = _extend_model(model, tokens, z, seed)
    return FittedDocument(
        theta=theta,
        perplexity=perp,
        phi_mode=phi_mode,
        seed=seed,
        word_topic_counts=extra_counts,
        extended_model=extended,
    )


def _extend_model(
    base: lda.TopicModel, tokens: np.ndarray, z: np.ndarray, seed: int
) -> lda.TopicModel:
    """A joint model over the base documents plus the fitted one."""
    return lda.TopicModel(
        config=base.config,
        vocabulary=base.vocabulary,
        doc_ids=list(base.doc_ids) + [f"query-{seed}"],
        doc_tokens=base.doc_tokens() + [tokens],
        z=np.concatenate([base.z, z]),
        rng=rng_from(derive_seed(seed, 0, "extended")),
    )


@dataclass(frozen=True)
class SampleEnsemble:
    """Repeated fits of one document: the raw material for clustering."""

    doc_id: str
    thetas: np.ndarray  # (n_samples, k)
    perplexities: np.ndarray  # (n_samples,)
    phi_mode: str
    master_seed: int
    seeds: tuple[int, ...]

    def __post_init__(self):
        if self.thetas.shape[0] != self.perplexities.shape[0]:
            raise ValueError("thetas and perplexities are not aligned")
        if not np.allclose(self.thetas.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("ensemble contains an unnormalized distribution")

    @property
    def n_samples(self) -> int:
        return int(self.thetas.shape[0])

    def mean_theta(self) -> np.ndarray:
        m = self.thetas.mean(axis=0)
        return m / m.sum()

    def dominant_topics(self) -> np.ndarray:
        return self.thetas.argmax(axis=1)


def sample_ensemble(
    model: lda.TopicModel,
    doc: Sequence,
    n_samples: int,
    iterations: int = 100,
    phi_mode: str = "drifting",
    master_seed: int = 0,
    doc_id: str = "query",
    workers: int | None = None,
) -> SampleEnsemble:
    """Run `n_samples` independent fits of `doc`.

    Per-sample seeds are derived deterministically from `master_seed`
    (see :mod:`textforage.seeds`), so the ensemble is reproducible and
    sample i is the same whether run serially or with `workers` > 1.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    seeds = tuple(derive_seed(master_seed, i, "ensemble") for i in range(n_samples))

    def one(seed: int) -> FittedDocument:
        return fit_document(model, doc, iterations=iterations, phi_mode=phi_mode, seed=seed)

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            fits = list(pool.map(one, seeds))
    else:
        fits = [one(s) for s in seeds]
    return SampleEnsemble(
        doc_id=doc_id,
        thetas=np.vstack([f.theta for f in fits]),
        perplexities=np.array([f.perplexity for f in fits]),
        phi_mode=phi_mode,
        master_seed=master_seed,
        seeds=seeds,
    )


def ensemble_to_csv(ensemble: SampleEnsemble, path, metadata: Sequence[str] = ()) -> None:
    """Per-sample (dominant topic, perplexity) CSV."""
    dominant = ensemble.dominant_topics()
    with open(path, "w", newline="") as fh:
        for line in metadata:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["sample", "dominant_topic", "perplexity"])
        for i in range(ensemble.n_samples):
            writer.writerow([i, int(dominant[i]), repr(float(ensemble.perplexities[i]))])


# ---------------------------------------------------------------------------
# Clustering the interpretations


@dataclass(frozen=True)
class ClusterInfo:
    label: int
    dominant_topic: int
    size: int
    medoid_index: int
    perplexity_mean: float
    perplexity_median: float


@dataclass(frozen=True)
class ClusterReport:
    """k-medoids clustering of an ensemble under JS distance."""

    n_clusters: int
    assignments: np.ndarray
    clusters: tuple[ClusterInfo, ...]
    silhouette_by_k: dict[int, float]
    note: str | None = None

    def to_payload(self) -> dict:
        return {
            "n_clusters": self.n_clusters,
            "assignments": [int(a) for a in self.assignments],
            "clusters": [
                {
                    "label": c.label,
                    "dominant_topic": c.dominant_topic,
                    "size": c.size,
                    "medoid_index": c.medoid_index,
                    "perplexity_mean": c.perplexity_mean,
                    "perplexity_median": c.perplexity_median,
                }
                for c in self.clusters
            ],
            "silhouette_by_k": {str(k): v for k, v in self.silhouette_by_k.items()},
            "note": self.note,
        }


def _pam(dist: np.ndarray, k: int) -> np.ndarray:
    """Deterministic k-medoids (PAM build + swap) on a distance matrix.

    The swap phase is first-improvement in scan order (medoid slots,
    then candidates, both ascending; the first cheaper swap is taken and
    the scan restarts), and the result depends on that order.  Ties
    resolve to the lowest index, so it depends only on the distances.
    """
    medoids = [int(np.argmin(dist.sum(axis=1)))]
    while len(medoids) < k:
        current = dist[:, medoids].min(axis=1)
        gains = np.maximum(current[None, :] - dist, 0.0).sum(axis=1)
        gains[medoids] = -np.inf
        medoids.append(int(np.argmax(gains)))
    medoids = sorted(medoids)

    # C order: each row of a trial block sums with the bits of a 1-d sum
    dist_t = np.ascontiguousarray(dist.T)
    best_cost = float(dist[:, medoids].min(axis=1).sum())
    improved = True
    while improved:
        improved = False
        others = np.setdiff1d(np.arange(len(dist)), medoids)
        for mi in range(k):
            rest = medoids[:mi] + medoids[mi + 1 :]
            base = dist[:, rest].min(axis=1)
            costs = np.minimum(base, dist_t[others]).sum(axis=1)
            better = np.flatnonzero(costs < best_cost - 1e-15)
            if better.size:
                medoids = sorted(rest + [int(others[better[0]])])
                best_cost = float(costs[better[0]])
                improved = True
                break
    return np.asarray(medoids, dtype=int)


def _silhouette_mean(dist: np.ndarray, labels: np.ndarray) -> float:
    uniq, own = np.unique(labels, return_inverse=True)
    if len(uniq) < 2:
        return float("nan")
    # C order: sums[i, u] has the bits of the 1-d dist[i, members].sum()
    sums = np.column_stack(
        [np.ascontiguousarray(dist[:, labels == u]).sum(axis=1) for u in uniq]
    )
    counts = np.bincount(own)
    i = np.arange(len(labels))
    own_count = counts[own] - 1
    a = sums[i, own] / np.maximum(own_count, 1)
    means = sums / counts
    means[i, own] = np.inf
    b = means.min(axis=1)
    top = np.maximum(a, b)
    keep = (own_count > 0) & (top > 0)  # else a singleton, or a == b == 0
    return float(np.where(keep, (b - a) / np.where(keep, top, 1.0), 0.0).mean())


def cluster_ensemble(
    ensemble: SampleEnsemble, k_range: Sequence[int] = range(2, 11)
) -> ClusterReport:
    """Group the ensemble's topic distributions into interpretations.

    k-medoids under JS distance is fitted for every candidate count in
    `k_range`; the count with maximal mean silhouette wins (ties to the
    smaller count).  Each cluster is labeled by its medoid's dominant
    topic.  If all samples are identical the report is a single cluster
    with a note, as no silhouette is defined.
    """
    n = ensemble.n_samples
    if n < 3:
        raise ValueError("clustering needs at least 3 samples")
    dist = js_distance_matrix(ensemble.thetas)

    if dist.max() <= 1e-12:
        assignments = np.zeros(n, dtype=int)
        clusters = (_cluster_info(ensemble, 0, assignments, 0),)
        return ClusterReport(
            n_clusters=1,
            assignments=assignments,
            clusters=clusters,
            silhouette_by_k={},
            note="all samples identical; silhouette undefined",
        )

    candidates = [k for k in k_range if 2 <= k < n]
    if not candidates:
        raise ValueError("k_range contains no feasible cluster count")
    silhouettes: dict[int, float] = {}
    best_k, best_sil, best_labels, best_medoids = None, -np.inf, None, None
    for k in candidates:
        medoids = _pam(dist, k)
        labels = np.argmin(dist[:, medoids], axis=1)
        sil = _silhouette_mean(dist, labels)
        silhouettes[k] = sil
        if sil > best_sil + 1e-15:
            best_k, best_sil, best_labels, best_medoids = k, sil, labels, medoids

    # duplicate samples can leave a medoid with no members (every point
    # ties to an earlier identical medoid); report only occupied
    # clusters, renumbered densely
    occupied, assignments = np.unique(best_labels, return_inverse=True)
    clusters = tuple(
        _cluster_info(ensemble, new, assignments, int(best_medoids[old]))
        for new, old in enumerate(occupied)
    )
    note = None
    if len(occupied) < best_k:
        note = (
            f"{best_k - len(occupied)} duplicate medoid(s) left empty "
            "clusters; counts renumbered"
        )
    return ClusterReport(
        n_clusters=len(occupied),
        assignments=assignments,
        clusters=clusters,
        silhouette_by_k=silhouettes,
        note=note,
    )


def _cluster_info(
    ensemble: SampleEnsemble, label: int, assignments: np.ndarray, medoid: int
) -> ClusterInfo:
    members = np.flatnonzero(assignments == label)
    perp = ensemble.perplexities[members]
    return ClusterInfo(
        label=label,
        dominant_topic=int(ensemble.thetas[medoid].argmax()),
        size=int(members.size),
        medoid_index=medoid,
        perplexity_mean=float(perp.mean()),
        perplexity_median=float(np.median(perp)),
    )
