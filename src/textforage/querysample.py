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
`cluster_ensemble` groups the resulting interpretations.  It fits in
blocks of samples on the calling thread: each sample's RNG set-up and
counts, then one `lda._run_sweeps` call for the block's sweeps.
"""

from __future__ import annotations

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
]

PHI_MODES = ("locked", "extended", "drifting")

#: numbers per block of samples: each takes its uniforms and word-topic rows
BLOCK_NUMBERS = 2**19


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
    tokens = _restrict_to_vocabulary(model, doc)
    ((thetas, perplexities, z),) = _fit_blocks(model, tokens, (seed,), iterations, phi_mode)
    counts = None if phi_mode == "locked" else model.n_wt.copy()
    if counts is not None:  # the sampled counts are the base plus the query's z
        np.add.at(counts, (tokens, z[0]), 1)
    extended = _extend_model(model, tokens, z[0], seed) if phi_mode == "extended" else None
    return FittedDocument(
        theta=thetas[0],
        perplexity=float(perplexities[0]),
        phi_mode=phi_mode,
        seed=seed,
        word_topic_counts=counts,
        extended_model=extended,
    )


def _fit_blocks(model, tokens, seeds, iterations, phi_mode):
    """Fit `tokens` once per seed; yield (thetas, perplexities, final z)
    per block of samples, on just the query's word-topic rows.  Locked
    samples share the base rows and totals, broadcast with stride 0;
    the others each sweep their own copy, plus their initial z."""
    if phi_mode not in PHI_MODES:
        raise ValueError(f"phi_mode must be one of {PHI_MODES}, got {phi_mode!r}")
    k, v, alpha, beta = model.config.k, model.n_terms, model.config.alpha, model.config.beta
    local_ids, local_tokens = np.unique(tokens, return_inverse=True)
    local_tokens, base_rows, n = local_tokens.astype(np.int32), model.n_wt[local_ids], tokens.size
    locked, u, docs = phi_mode == "locked", local_ids.size, np.zeros(n, dtype=np.int32)
    block = max(1, BLOCK_NUMBERS // (iterations * n + base_rows.size))
    uniforms = np.empty((min(block, len(seeds)), iterations, n))  # reused by every block
    for start in range(0, len(seeds), block):
        chunk = seeds[start : start + block]
        m, z = len(chunk), np.empty((len(chunk), n), dtype=np.int32)
        for j, seed in enumerate(chunk):
            rng = rng_from(seed)
            z[j] = rng.integers(0, k, n, dtype=np.int32)
            rng.random(out=uniforms[j])
        sample = np.arange(m)[:, None]
        td = np.bincount((sample * k + z).ravel(), minlength=m * k).astype(np.int64).reshape(m, k)
        if locked:
            wt, n_t = np.broadcast_to(base_rows, (m, u, k)), np.broadcast_to(model.n_t, (m, k))
        else:
            hist = np.bincount(((sample * u + local_tokens) * k + z).ravel(), minlength=m * u * k)
            wt, n_t = base_rows + hist.reshape(m, u, k), model.n_t + td
        lda._run_sweeps(local_tokens, docs, z, wt, td[:, :, None], n_t, v, alpha, beta,
                        uniforms[:m], frozen=locked)
        thetas = (td + alpha) / (n + k * alpha)
        yield thetas, np.array([
            lda.perplexity_from_distributions(theta, (rows + beta) / (t + v * beta),
                                              [local_tokens])
            for theta, rows, t in zip(thetas, wt, n_t)]), z


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
) -> SampleEnsemble:
    """Run `n_samples` independent fits of `doc`.

    Sample i is fitted from ``derive_seed(master_seed, i, "ensemble")``
    (see :mod:`textforage.seeds`), so the ensemble is reproducible and
    sample i is the same whatever the block size.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    tokens = _restrict_to_vocabulary(model, doc)
    seeds = tuple(derive_seed(master_seed, i, "ensemble") for i in range(n_samples))
    blocks = [b[:2] for b in _fit_blocks(model, tokens, seeds, iterations, phi_mode)]
    return SampleEnsemble(
        doc_id=doc_id,
        thetas=np.vstack([b[0] for b in blocks]),
        perplexities=np.concatenate([b[1] for b in blocks]),
        phi_mode=phi_mode,
        master_seed=master_seed,
    )


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

    assignments: np.ndarray
    clusters: tuple[ClusterInfo, ...]
    silhouette_by_k: dict[int, float]
    note: str | None = None

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

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
        free = np.ones(len(dist), dtype=bool)
        free[medoids] = False
        others = np.flatnonzero(free)
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
        assignments=assignments,
        clusters=clusters,
        silhouette_by_k=silhouettes,
        note=note,
    )


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-d array without NaN or -0.0, bit for bit.

    numpy's own call imports `numpy.ma` on first use (about 20 ms of a
    fresh process).
    """
    ordered = np.sort(values)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


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
        perplexity_median=_median(perp),
    )
