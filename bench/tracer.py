"""Traced `textforage` run: spans around the calls into each layer.

    python3 bench/tracer.py SPANS.json pipeline --config CONFIG

runs the CLI in this process after wrapping the public functions it
reaches through module and class attributes, and writes the spans to
SPANS.json when the CLI returns.  Nothing inside the package changes;
the spans live in memory until the end and go to a file outside the
pipeline's output directory.  `summarize` turns spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "corpus", "lda", "querysample", "nullmodels", "measures", "epochs",
          "modelcompare")
STAGES = ("prepare", "train", "measure", "null", "epochs", "fit", "compare")


class Tracer:
    """Collects spans [id, parent, layer, name, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, layer: str, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [next(self._ids), stack[-1] if stack else -1, layer, name, 0.0, 0.0,
                    count(*args, **kwargs) if count else None]
            self.spans.append(span)
            stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
        return traced

    def patch(self, owner, attr: str, layer: str, name: str, count=None) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(layer, name, raw.__func__, count)))
        else:
            setattr(owner, attr, self.wrap(layer, name, raw, count))


def _rows(q_rows, *args, **kwargs) -> dict:
    return {"rows": int(np.atleast_2d(np.asarray(q_rows)).shape[0])}


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the CLI calls."""
    from textforage import cli, corpus, epochs, lda, modelcompare, nullmodels, querysample

    for stage, fn in list(cli._STAGES.items()):
        cli._STAGES[stage] = tracer.wrap("cli", stage, fn)
    for attr in ("load_manifest", "tokenize", "build_vocabulary", "encode_corpus"):
        tracer.patch(cli, attr, "corpus", "prepare")
    tracer.patch(corpus.Corpus, "load", "corpus", "load")
    tracer.patch(lda, "train", "lda", "train", lambda corpus, config, *a, **k: {
        "k": config.k, "updates": corpus.total_tokens() * config.iterations})
    tracer.patch(lda.TopicModel, "log_joint", "lda", "log_joint")
    tracer.patch(lda.TopicModel, "save", "lda", "model_save")
    tracer.patch(lda.TopicModel, "load", "lda", "model_load")
    tracer.patch(querysample, "sample_ensemble", "querysample", "sample_ensemble",
                 lambda model, doc, n_samples, *a, **k: {"fits": n_samples})
    tracer.patch(querysample, "cluster_ensemble", "querysample", "cluster")
    tracer.patch(querysample, "js_distance_matrix", "measures", "js_distance_matrix")
    tracer.patch(nullmodels, "null_ensemble", "nullmodels", "null_ensemble",
                 lambda order, dists, n, *a, **k: {"permutations": n})
    tracer.patch(nullmodels, "rank_distribution", "nullmodels", "rank_distribution")
    tracer.patch(nullmodels, "greedy_shortest_path", "nullmodels", "greedy_path")
    tracer.patch(nullmodels, "kl_divergence_rows", "measures", "kl_rows", _rows)
    tracer.patch(cli, "surprise_series", "measures", "surprise_series")
    tracer.patch(epochs, "select_model", "epochs", "select_model")
    tracer.patch(modelcompare, "merge_vocabulary", "modelcompare", "merge")
    tracer.patch(modelcompare, "align_topics", "modelcompare", "align")


def summarize(spans: list[list], ks: list[int]) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    Times are inclusive span durations summed per (layer, name);
    `<layer>.self_s` subtracts the time covered by child spans.
    Counts and rates come from the arguments recorded at the spans.
    A stage or layer the workload does not run reports 0.
    """
    total: dict[tuple[str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    counts: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for sid, parent, layer, name, start, end, extra in spans:
        key = (layer, name)
        total[key] = total.get(key, 0.0) + (end - start)
        calls[key] = calls.get(key, 0) + 1
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for field, value in (extra or {}).items():
            if field != "k":
                counts[field] = counts.get(field, 0) + value
    self_s = dict.fromkeys(LAYERS, 0.0)
    for sid, parent, layer, name, start, end, extra in spans:
        self_s[layer] += (end - start) - child_time.get(sid, 0.0)

    def t(layer, name):
        return total.get((layer, name), 0.0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {f"cli.{stage}_s": t("cli", stage) for stage in STAGES}
    m.update({
        "corpus.prepare_s": t("corpus", "prepare"),
        "corpus.load_s": t("corpus", "load"),
        "corpus.load_calls": calls.get(("corpus", "load"), 0),
        "lda.train_s": t("lda", "train"),
        "lda.token_updates": counts.get("updates", 0),
        "lda.log_joint_s": t("lda", "log_joint"),
        "lda.model_save_s": t("lda", "model_save"),
        "lda.model_load_s": t("lda", "model_load"),
        "lda.model_load_calls": calls.get(("lda", "model_load"), 0),
        "querysample.sample_ensemble_s": t("querysample", "sample_ensemble"),
        "querysample.fits": counts.get("fits", 0),
        "querysample.fits_per_s": rate(counts.get("fits", 0), t("querysample", "sample_ensemble")),
        "querysample.cluster_s": t("querysample", "cluster"),
        "nullmodels.null_ensemble_s": t("nullmodels", "null_ensemble"),
        "nullmodels.permutations": counts.get("permutations", 0),
        "nullmodels.permutations_per_s": rate(counts.get("permutations", 0),
                                              t("nullmodels", "null_ensemble")),
        "nullmodels.rank_distribution_s": t("nullmodels", "rank_distribution"),
        "nullmodels.greedy_path_s": t("nullmodels", "greedy_path"),
        "measures.surprise_series_s": t("measures", "surprise_series"),
        "measures.kl_rows": counts.get("rows", 0),
        "measures.js_distance_matrix_s": t("measures", "js_distance_matrix"),
        "epochs.select_model_s": t("epochs", "select_model"),
        "modelcompare.merge_s": t("modelcompare", "merge"),
        "modelcompare.align_s": t("modelcompare", "align"),
    })
    # Gibbs throughput per k: token updates over sweep time, where sweep
    # time is the train span minus the log-joint spans inside it
    for k in ks:
        updates, seconds = 0, 0.0
        for sid, parent, layer, name, start, end, extra in spans:
            if (layer, name) == ("lda", "train") and extra["k"] == k:
                updates += extra["updates"]
                seconds += (end - start) - child_time.get(sid, 0.0)
        m[f"lda.tokens_per_s.k{k}"] = rate(updates, seconds)
    m.update({f"{layer}.self_s": value for layer, value in self_s.items()})
    return m


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from textforage import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
