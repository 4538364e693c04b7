"""textforage: information foraging analysis over reading histories.

Train LDA topic models on a dated corpus, fit out-of-sample writings
into the learned topic space, and quantify exploration/exploitation
with KL-surprise series, publication-constrained permutation nulls, and
Gaussian epoch segmentation.

The public names below are loaded on first access (PEP 562), so
`import textforage` imports neither numpy nor any submodule; a process
pays only for the submodules whose names it uses.
"""

import importlib

__version__ = "0.1.0"

# each public name, once, under the submodule that defines it
_SUBMODULE = {name: module for module, names in {
    "corpus": "Corpus DocumentSpec FilterConfig PartialDate TokenizerConfig Vocabulary "
              "build_vocabulary encode_corpus load_manifest tokenize",
    "lda": "TopicModel TrainingConfig estimate_distributions gibbs_sweep perplexity "
           "topic_summary train",
    "measures": "Enclosure SurpriseSeries encloses entropy js_distance js_divergence "
                "kl_divergence surprise_series",
    "querysample": "ClusterReport SampleEnsemble cluster_ensemble fit_document sample_ensemble",
    "nullmodels": "NullComparison ReadingOrder constrained_permutation greedy_shortest_path "
                  "null_ensemble rank_distribution",
    "epochs": "EpochModel ModelScore fit_epochs param_count segment_loglik select_model",
    "modelcompare": "AlignmentResult align_topics merge_vocabulary model_distance topic_drift",
    "errors": "ConfigError MissingArtifactError NumericalDegeneracyError",
    "seeds": "derive_seed",
}.items() for name in names.split()}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups bypass __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
