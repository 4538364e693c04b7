"""Fitting an out-of-sample text into a trained topic space.

A new document gets a topic distribution by running the sampler over
its tokens while the training corpus stays fixed. Random restarts land
on different "interpretations"; clustering the ensemble surfaces them.
"""

import numpy as np

from textforage import TrainingConfig, cluster_ensemble, fit_document, sample_ensemble, train
from textforage.corpus import DocumentSpec, Corpus, Vocabulary

rng = np.random.default_rng(44)

# a corpus with two overlapping themes: words w4/w5 belong to both
terms = [f"w{i}" for i in range(10)]
tokens = np.concatenate([rng.integers(lo, lo + 6, size=50) for lo in [0] * 6 + [4] * 6])
corpus = Corpus(
    vocabulary=Vocabulary(terms, np.bincount(tokens, minlength=10)),
    specs=tuple(DocumentSpec(id=f"doc{i}", order_index=i) for i in range(12)),
    lengths=(50,) * 12,
    dropped=(0,) * 12,
    tokens=tokens,
)

model = train(corpus, TrainingConfig(k=2, seed=9, iterations=150))
print("trained a 2-topic model on 12 documents")

# --- a single fit -----------------------------------------------------------
new_doc = ["w4", "w5", "w4", "w5", "w4", "w5", "w4", "w5"]
fit = fit_document(model, new_doc, iterations=50, phi_mode="locked", seed=1)
print(f"\none locked fit of an ambiguous text: theta = "
      f"{np.round(fit.theta, 3)}, perplexity {fit.perplexity:.2f}")

# --- an ensemble of interpretations -----------------------------------------
# The text uses only the shared words, so restarts split between the
# two themes. phi_mode options:
#   locked   - word-topic counts frozen (base model provably untouched)
#   drifting - the new text may pull the topics toward itself
#   extended - returns a joint model over old + new documents
ensemble = sample_ensemble(
    model, new_doc, n_samples=200, iterations=50, phi_mode="locked", master_seed=5
)
dominant = ensemble.dominant_topics()
print(f"\n200 restarts: {np.sum(dominant == 0)} read it as topic 0, "
      f"{np.sum(dominant == 1)} as topic 1")

report = cluster_ensemble(ensemble, k_range=range(2, 6))
print(f"clustering under JS distance chooses {report.n_clusters} interpretations:")
for info in report.clusters:
    print(f"  cluster {info.label}: {info.size} samples, dominant topic "
          f"{info.dominant_topic}, median perplexity {info.perplexity_median:.2f}")

# --- topic drift -------------------------------------------------------------
from textforage import estimate_distributions, topic_drift

_, phi_before = estimate_distributions(model)
drifted = fit_document(model, new_doc * 10, iterations=50, phi_mode="drifting", seed=2)
wt = drifted.word_topic_counts
phi_after = (wt + model.config.beta) / (
    wt.sum(axis=0, keepdims=True) + len(terms) * model.config.beta
)
drift = topic_drift(phi_before, phi_after)
print(f"\nrepeatedly fitting that text with drifting counts moves the "
      f"topics by mean JS distance {drift.mean_distance:.4f}")
print("(the base model object itself is never mutated)")
