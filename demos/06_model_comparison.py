"""Comparing topic models across corpora.

Two models never share topic indices, and usually not even a
vocabulary. Comparison is a three-step recipe: merge vocabularies,
align topics, then report the mean/total JS distance over the aligned
pairs. Also shown: the cross-fitting recipe that asks whether fitting
corpus B under A's model drifts it to the same place as fitting A
under B's model.
"""

import numpy as np

from textforage import (
    TrainingConfig,
    align_topics,
    estimate_distributions,
    fit_document,
    merge_vocabulary,
    model_distance,
    train,
)
from textforage.corpus import DocumentSpec, Corpus, Vocabulary


def block_corpus(rng, terms, n_docs, themes):
    tokens = np.concatenate([rng.integers(*themes[i % len(themes)], size=60)
                             for i in range(n_docs)])
    return Corpus(
        vocabulary=Vocabulary(terms, np.bincount(tokens, minlength=len(terms))),
        specs=tuple(DocumentSpec(id=f"d{i}", order_index=i) for i in range(n_docs)),
        lengths=(60,) * n_docs,
        dropped=(0,) * n_docs,
        tokens=tokens,
    )


rng = np.random.default_rng(77)

# corpus A: 14 shared terms; corpus B: overlaps on w4..w9, adds its own
terms_a = [f"w{i}" for i in range(14)]
terms_b = [f"w{i}" for i in range(4, 18)]
corpus_a = block_corpus(rng, terms_a, 10, [(0, 7), (7, 14)])
corpus_b = block_corpus(rng, terms_b, 10, [(0, 7), (7, 14)])

model_a = train(corpus_a, TrainingConfig(k=3, seed=1, iterations=120))
model_b = train(corpus_b, TrainingConfig(k=4, seed=2, iterations=120))
_, phi_a = estimate_distributions(model_a)
_, phi_b = estimate_distributions(model_b)
print(f"model A: k=3 over {len(terms_a)} terms; model B: k=4 over {len(terms_b)}")

# --- vocabulary merging ------------------------------------------------------
# expand_epsilon keeps every term from either model, filling the gaps
# with a small epsilon so no divergence blows up on a zero
merged_a, merged_b, merged_terms = merge_vocabulary(
    phi_a, terms_a, phi_b, terms_b, strategy="expand_epsilon"
)
print(f"merged vocabulary: {len(merged_terms)} terms "
      f"({len(set(terms_a) & set(terms_b))} shared)")

# --- alignment ---------------------------------------------------------------
for strategy in ("naive", "basic", "adversarial"):
    result = align_topics(merged_a, merged_b, strategy=strategy)
    mean, total = model_distance(result)
    pairs = " ".join(f"{a}->{b}" for a, b, _ in result.pairs)
    print(f"{strategy:<12} {pairs:<24} mean {mean:.3f}  total {total:.3f}"
          f"{'' if result.is_injective else '  (non-injective)'}")

# sanity: aligning a model against a topic-permuted copy of itself
perm = [2, 0, 1]
self_aligned = align_topics(phi_a, phi_a[:, perm], strategy="basic")
print(f"\npermuted self-alignment recovers {self_aligned.mapping} "
      f"with total distance {self_aligned.total_distance:.1e}")

# --- cross-fitting recipe ------------------------------------------------------
# Fit all of B's text under model A with drifting counts, and A's text
# under model B, then compare where the two drifted models end up.
# Whether these coincide is an open empirical question, so this recipe
# only reports the distance; it asserts nothing.
tokens_b_in_a = corpus_b.vocabulary.decode(corpus_b.tokens)
fit_b_under_a = fit_document(model_a, tokens_b_in_a, iterations=60,
                             phi_mode="drifting", seed=4)

tokens_a_in_b = corpus_a.vocabulary.decode(corpus_a.tokens)
fit_a_under_b = fit_document(model_b, tokens_a_in_b, iterations=60,
                             phi_mode="drifting", seed=5)

beta = model_a.config.beta
wt_a = fit_b_under_a.word_topic_counts
drifted_a = (wt_a + beta) / (wt_a.sum(axis=0, keepdims=True) + wt_a.shape[0] * beta)
wt_b = fit_a_under_b.word_topic_counts
drifted_b = (wt_b + beta) / (wt_b.sum(axis=0, keepdims=True) + wt_b.shape[0] * beta)

ma, mb, _ = merge_vocabulary(drifted_a, terms_a, drifted_b, terms_b,
                             strategy="expand_epsilon")
cross = align_topics(ma, mb, strategy="basic")
print(f"\ncross-fit drifted models: mean distance "
      f"{model_distance(cross)[0]:.3f} (symmetry is an open question, "
      "so judge for your own corpora)")
