"""Batch pipeline driver.

Subcommands chain file artifacts through an output directory:

    prepare -> corpus.json
    train   -> model_k{K}.json            (one per configured k)
    measure -> series_k{K}_{mode}.csv
    null    -> null_k{K}_*.csv/.json
    epochs  -> epochs_k{K}_{mode}.json
    fit     -> fit_{name}_k{K}_*.csv/.json
    compare -> compare_k{A}_vs_k{B}.csv/.json
    pipeline runs all of the above in order
    fixture writes a synthetic corpus + config for smoke testing

Stages read back only the corpus and the models: `measure`, `null` and
`epochs` derive the surprise series from `train`'s models under the
current `measure` settings, so `null` and `epochs` need no series file.
`pipeline` still writes every artifact, but hands the corpus, models and
series to the later stages in memory; a stage run on its own loads and
checks the corpus and each model it reads.

Library modules return data; this module writes every CSV and JSON
artifact (`Corpus.save` and `TopicModel.save` keep the corpus and model
formats).  Every artifact embeds the tool version, the SHA-256 of the
resolved configuration, and the master seed, so identical (config,
seed) runs are byte-identical.  Exit codes: 0 success, 1 configuration
error, 2 missing, stale or corrupt upstream artifact, 3 numerical
degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

# Set before numpy loads OpenBLAS.  The pipeline's only BLAS call is the
# query-sized matrix-vector product in `lda.perplexity_from_distributions`,
# too small to gain from BLAS threads, and the pipeline's parallelism
# comes from its own `threads` setting.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import yaml

from . import __version__, epochs, lda, modelcompare, nullmodels, querysample
from .corpus import (
    Corpus,
    FilterConfig,
    TokenizerConfig,
    build_vocabulary,
    encode_corpus,
    load_manifest,
    tokenize,
)
from .errors import ConfigError, MissingArtifactError, NumericalDegeneracyError
from .measures import surprise_series
from .nullmodels import ReadingOrder
from .seeds import derive_seed

# ---------------------------------------------------------------------------
# Configuration

_REQUIRED = object()  # the default of a field that the config must give


def _at_least(minimum: int) -> tuple:
    return f"must be >= {minimum}", lambda v: v >= minimum


def _one_of(allowed: tuple) -> tuple:
    return f"must be one of {allowed}", lambda v: v in allowed


_STRINGS = "must list strings", lambda v: all(isinstance(w, str) for w in v)
_SHARE = "must be in [0, 1]", lambda v: 0 <= v <= 1
_POSITIVE = "must be finite and > 0", lambda v: 0 < v < float("inf")

# Every config field, by its dotted name: (default or _REQUIRED, the
# types it takes, rule or None), a rule being (the words of its error,
# the test a value passes).  A field whose default is None may be null.
_FIELDS = {
    "manifest": (_REQUIRED, str, None),
    "output_dir": (_REQUIRED, str, None),
    # derive_seed reads a seed modulo 2**64: this range holds each residue once
    "seed": (_REQUIRED, int, ("must be in [-2**63, 2**63)", lambda v: -2**63 <= v < 2**63)),
    "threads": (1, int, _at_least(1)),
    "filter.min_count": (None, int, None),
    "filter.max_count": (None, int, None),
    "filter.top_mass": (None, (int, float), _SHARE),
    "filter.bottom_mass": (None, (int, float), _SHARE),
    "filter.stopwords": ([], list, _STRINGS),
    "tokenizer.merge_hyphens": (True, bool, None),
    "tokenizer.ascii_fold": (True, bool, None),
    # paper-reported settings: symmetric priors 0.1/0.01, 500 sweeps,
    # coarse and fine topic counts, 1000 null permutations
    "training.ks": ([80, 200], list, ("must list integers >= 2", lambda v: v and all(
        isinstance(k, int) and k >= 2 for k in v))),
    "training.alpha": (0.1, (int, float), _POSITIVE),
    "training.beta": (0.01, (int, float), _POSITIVE),
    "training.iterations": (500, int, _at_least(0)),
    "measure.modes": (["t2t", "t2p"], list, ("must list one or more of ('t2t', 't2p')",
                                            lambda v: v and all(m in ("t2t", "t2p") for m in v))),
    "measure.smoothing": (True, bool, None),
    "null_model.permutations": (1000, int, _at_least(1)),
    "epochs.max_epochs": (3, int, _at_least(1)),
    "epochs.min_len": (10, int, _at_least(2)),
    "epochs.variance_mode": ("mle", str, _one_of(epochs.VARIANCE_MODES)),
    "fit.documents": ([], list, _STRINGS),
    "fit.iterations": (100, int, _at_least(0)),
    "fit.samples": (100, int, _at_least(3)),
    "fit.phi_mode": ("drifting", str, _one_of(querysample.PHI_MODES)),
    "fit.cluster_range": ([2, 10], list, ("must be [lo, hi] with 2 <= lo <= hi", lambda v: (
        len(v) == 2 and all(isinstance(x, int) for x in v) and 2 <= v[0] <= v[1]))),
    "compare.merge": ("expand_epsilon", str, _one_of(modelcompare.MERGE_STRATEGIES)),
    "compare.strategy": ("basic", str, _one_of(modelcompare.ALIGN_STRATEGIES)),
}
_SECTIONS = {field.partition(".")[0] for field in _FIELDS if "." in field}


def load_config(path: str | Path, overrides: dict | None = None) -> dict:
    """Read, default-fill, and validate the pipeline configuration.

    `config_sha256` hashes paths as written; they then resolve against
    the file's own directory (a relative --out flag: the current one).
    `overrides` (--seed/--out/--threads flags) are applied before
    validation and become part of the config hash.
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    given = {}  # each field the file sets, by its dotted name
    for key, value in raw.items():
        if key in _FIELDS and "." not in key:
            given[key] = value
        elif key not in _SECTIONS:
            raise ConfigError(f"{path}: unknown field '{key}'")
        elif value is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: field '{key}' must be a mapping")
            given.update((f"{key}.{name}", v) for name, v in value.items())
    unknown = set(given) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"{path}: unknown field '{min(unknown)}'")
    given.update((key, v) for key, v in (overrides or {}).items() if v is not None)

    cfg: dict = {}
    for field, (default, kind, rule) in _FIELDS.items():
        value = given.get(field, default)
        if value is _REQUIRED:
            raise ConfigError(f"{path}: missing required field '{field}'")
        if value is not None or default is not None:  # a null default allows null
            # YAML's true/false load as bool, which is an int: only a bool field takes one
            if isinstance(value, bool) and kind is not bool or not isinstance(value, kind):
                names = [k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,))]
                raise ConfigError(f"{path}: field '{field}' has wrong type "
                                  f"(expected {' or '.join(names)})")
            if rule and not rule[1](value):
                raise ConfigError(f"{path}: field '{field}' {rule[0]}")
        section, _, name = field.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[name] = value

    if len(set(cfg["training"]["ks"])) != len(cfg["training"]["ks"]):
        raise ConfigError(f"{path}: field 'training.ks' has duplicates")
    stems = [Path(p).stem for p in cfg["fit"]["documents"]]
    for stem in stems:  # a fit's artifacts and seed are named by its file's stem
        if stems.count(stem) > 1:
            raise ConfigError(f"{path}: field 'fit.documents' names two files with the "
                              f"stem {stem!r}, whose fits would overwrite each other")
    if cfg["fit"]["cluster_range"][0] >= cfg["fit"]["samples"]:
        raise ConfigError(f"{path}: field 'fit.cluster_range' holds no cluster count "
                          f"below fit.samples ({cfg['fit']['samples']})")

    cfg["config_sha256"] = config_hash(cfg)
    base = path.parent
    cfg["manifest"] = str((base / cfg["manifest"]).resolve()
                          if not Path(cfg["manifest"]).is_absolute() else Path(cfg["manifest"]))
    out_base = Path() if (overrides or {}).get("output_dir") is not None else base
    cfg["output_dir"] = str(out_base / cfg["output_dir"])
    cfg["fit"]["documents"] = [str(base / p) for p in cfg["fit"]["documents"]]
    return cfg


def config_hash(cfg: dict) -> str:
    """Hash of the semantic configuration.

    Excludes output_dir and threads: neither affects any computed
    value, so runs into different directories (or with different
    worker counts) still produce byte-identical artifacts.
    """
    semantic = {k: v for k, v in cfg.items() if k not in ("output_dir", "threads")}
    canon = json.dumps(semantic, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class _Run:
    """Shared state for one invocation: resolved config, metadata, and
    the products it has written, read or derived.

    A stage reads the corpus and a model through `corpus` and `model`:
    what an earlier stage of the same invocation wrote (`keep`) is
    handed over as it is; anything else is loaded from its artifact and
    checked, then kept.  `theta` and `series` are derived from the
    checked model under the current `measure` settings, then kept.
    """

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.out = Path(cfg["output_dir"])
        self.out.mkdir(parents=True, exist_ok=True)
        self.hash = cfg["config_sha256"]
        self.seed = cfg["seed"]
        self._kept: dict[str, object] = {}

    def keep(self, name: str, product) -> None:
        """Hand `product`, just written as artifact `name`, to later stages."""
        self._kept[name] = product

    def _product(self, name: str, load):
        if name not in self._kept:
            self._kept[name] = load()
        return self._kept[name]

    def corpus(self) -> Corpus:
        return self._product("corpus.json", lambda: _load_corpus(self))

    def model(self, k: int) -> lda.TopicModel:
        return self._product(f"model_k{k}.json", lambda: _load_model(self, k))

    def theta(self, k: int) -> np.ndarray:
        """Document-topic matrix of model `k` under `measure.smoothing`."""
        return self._product(f"theta_k{k}", lambda: lda._theta(
            self.model(k), self.cfg["measure"]["smoothing"]))

    def series(self, k: int, mode: str) -> np.ndarray:
        return self._product(f"series_k{k}_{mode}.csv",
                             lambda: surprise_series(self.theta(k), mode=mode).values)

    def metadata_dict(self) -> dict:
        return {
            "textforage": __version__,
            "format": 1,
            "config_sha256": self.hash,
            "seed": self.seed,
        }

    def write_json(self, name: str, payload: dict) -> None:
        body = {"metadata": self.metadata_dict(), **payload}
        (self.out / name).write_text(
            json.dumps(body, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def write_csv(self, name: str, header: list[str], rows) -> None:
        """Artifact `name`: `#` metadata lines, `header`, then `rows`."""
        with open(self.out / name, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# textforage={__version__} format=1\n"
                     f"# config_sha256={self.hash}\n# seed={self.seed}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def artifact(self, name: str, producer: str) -> Path:
        path = self.out / name
        if not path.is_file():
            raise MissingArtifactError(
                f"missing artifact {name}: run `{producer}` first"
            )
        return path


# ---------------------------------------------------------------------------
# Stages


def stage_prepare(run: _Run) -> None:
    cfg = run.cfg
    manifest = Path(cfg["manifest"])
    try:
        specs = load_manifest(manifest)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"manifest: {exc}") from exc
    tok_cfg = TokenizerConfig(**cfg["tokenizer"])
    token_docs = []
    for spec in specs:
        try:
            text = spec.load_text(manifest.parent)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"manifest: {manifest}: document {spec.id!r}: {exc}") from exc
        token_docs.append(tokenize(text, tok_cfg))
    try:
        vocabulary = build_vocabulary(token_docs, FilterConfig(**cfg["filter"]))
    except ValueError as exc:
        raise ConfigError(f"filter: {exc}") from exc
    corpus = dataclasses.replace(encode_corpus(specs, token_docs, vocabulary),
                                 settings=_corpus_settings(cfg))
    for warning in corpus.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for doc_id in corpus.skipped_empty:
        print(f"warning: {doc_id}: empty after encoding; excluded", file=sys.stderr)
    corpus.save(run.out / "corpus.json", metadata=run.metadata_dict())
    run.keep("corpus.json", corpus)
    run.write_json(
        "prepare_summary.json",
        {
            "documents": corpus.n_documents,
            "vocabulary_size": len(vocabulary),
            "total_tokens": corpus.total_tokens(),
            "skipped_empty": list(corpus.skipped_empty),
            "date_warnings": list(corpus.warnings),
        },
    )
    print(f"prepared corpus: {corpus.n_documents} documents, "
          f"V={len(vocabulary)}, {corpus.total_tokens()} tokens")


def _corpus_settings(cfg: dict) -> dict:
    """The `tokenizer` and `filter` settings `prepare` records in the
    corpus, stopwords as a sorted set: their order changes nothing."""
    stopwords = sorted(set(cfg["filter"]["stopwords"]))
    return {"tokenizer": dict(cfg["tokenizer"]),
            "filter": {**cfg["filter"], "stopwords": stopwords}}


def _load_corpus(run: _Run) -> Corpus:
    path = run.artifact("corpus.json", "prepare")
    try:
        corpus = Corpus.load(path)
    except (KeyError, TypeError, ValueError) as exc:
        raise MissingArtifactError(
            f"{path.name} is stale or corrupt ({exc}): rerun `prepare`"
        ) from exc
    if corpus.settings is None:
        raise MissingArtifactError(
            f"{path.name} records no tokenizer and filter settings: rerun `prepare`"
        )
    for section, fields in _corpus_settings(run.cfg).items():
        recorded = corpus.settings.get(section)
        for name, value in fields.items():
            old = recorded.get(name) if isinstance(recorded, dict) else None
            if old != value:
                raise MissingArtifactError(
                    f"{path.name} was prepared with {section}.{name}={old!r}, the config "
                    f"now gives {value!r}: rerun `prepare`"
                )
    return corpus


def _training_config(run: _Run, k: int) -> lda.TrainingConfig:
    """The sampler settings `train` uses for topic count `k` under the
    current config."""
    training = run.cfg["training"]
    return lda.TrainingConfig(
        k=k,
        seed=derive_seed(run.seed, training["ks"].index(k), "train"),
        alpha=training["alpha"],
        beta=training["beta"],
        iterations=training["iterations"],
    )


def _load_model(run: _Run, k: int) -> lda.TopicModel:
    corpus = run.corpus()
    path = run.artifact(f"model_k{k}.json", "train")
    try:
        model = lda.TopicModel.load(path, corpus.vocabulary)
    except (KeyError, TypeError, ValueError) as exc:
        raise MissingArtifactError(
            f"{path.name} is stale or corrupt ({exc}): rerun `train`"
        ) from exc
    docs = corpus.in_reading_order()
    if model.doc_ids != tuple(d.spec.id for d in docs) or not (
        np.array_equal(model.n_d, [d.token_ids.size for d in docs])
        and np.array_equal(model.tokens,
                           np.concatenate([np.zeros(0, np.int32), *(d.token_ids for d in docs)]))
    ):
        raise MissingArtifactError(
            f"{path.name} was trained on a different corpus: rerun `train`"
        )
    trained = model.config.to_payload()
    for field, value in _training_config(run, k).to_payload().items():
        if trained[field] != value:
            raise MissingArtifactError(
                f"{path.name} was trained with {field}={trained[field]!r}, the config "
                f"now gives {value!r}: rerun `train`"
            )
    return model


def _convergence(trace: list[float]) -> str:
    """First and last log joint, and the relative change over the last
    tenth of the sweeps; after one sweep, its log joint alone."""
    n = len(trace)
    if n == 1:
        return f"log joint {trace[0]:.2f} (sweep 1)"
    window = max(n // 10, 1)
    base = trace[n - 1 - window]
    change = (trace[-1] - base) / abs(base)
    return (f"log joint {trace[0]:.2f} (sweep 1) -> {trace[-1]:.2f} (sweep {n}), "
            f"relative change {change:+.2e} over the last {window} sweeps")


def stage_train(run: _Run) -> None:
    """Train one model per k, up to `threads` of them at once; each has
    its own seed and stream, so the bytes do not depend on `threads`."""
    ks = run.cfg["training"]["ks"]
    corpus = run.corpus()
    print(f"train: Gibbs backend {lda.gibbs_backend()}", file=sys.stderr)

    def train(k: int) -> lda.TopicModel:
        return lda.train(corpus, _training_config(run, k))

    at_once = min(run.cfg["threads"], len(ks))
    if at_once == 1:  # one thread leaves concurrent.futures unimported
        models = [train(k) for k in ks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(at_once) as pool:  # map re-raises in ks order
            models = list(pool.map(train, ks))
    for k, model in zip(ks, models):
        model.check_invariants()
        model.save(run.out / f"model_k{k}.json", metadata=run.metadata_dict())
        run.keep(f"model_k{k}.json", model)
        print(f"trained k={k}: {_convergence(model.log_likelihood_trace)}"
              if model.log_likelihood_trace else f"trained k={k} (0 sweeps)")


def stage_measure(run: _Run) -> None:
    cfg = run.cfg
    item_ids = [d.spec.id for d in run.corpus().in_reading_order()]
    for k in cfg["training"]["ks"]:
        for mode in cfg["measure"]["modes"]:
            run.write_csv(f"series_k{k}_{mode}.csv", ["position", "item_id", "bits"],
                          ((pos, item_ids[pos], repr(float(v)))
                           for pos, v in enumerate(run.series(k, mode), 1)))
        print(f"measured k={k}: {len(item_ids) - 1} steps per mode")


def _reading_order(run: _Run, corpus: Corpus) -> ReadingOrder:
    """The corpus's reading order, checked for a feasible null."""
    manifest = run.cfg["manifest"]
    try:
        order = ReadingOrder.from_corpus(corpus)
    except ValueError as exc:
        raise ConfigError(f"{manifest}: {exc}") from exc
    try:
        order.schedule  # raises on an order no permutation can satisfy
    except ValueError as exc:
        raise ConfigError(
            f"{manifest}: {exc}: fewer documents have a pub_date on or "
            "before that read_date than are read by it"
        ) from exc
    return order


def stage_null(run: _Run) -> None:
    cfg = run.cfg
    order = _reading_order(run, run.corpus())
    modes = cfg["measure"]["modes"]
    n = cfg["null_model"]["permutations"]
    for k in cfg["training"]["ks"]:
        theta = run.theta(k)
        d = nullmodels.kl_matrix(theta)
        comparison = nullmodels.null_ensemble(
            order, theta, n=n, seed=derive_seed(run.seed, k, "null"),
            modes=tuple(modes), d=d,
        )
        columns = sorted(modes)
        means = [comparison.mean_by_mode[m] for m in columns]
        run.write_csv(f"null_k{k}_means.csv",
                      ["permutation"] + [f"{m}_mean_bits" for m in columns],
                      ([i] + [repr(float(c[i])) for c in means] for i in range(n)))
        # the null's mean per step; the cumulative curve of a mode is
        # np.cumsum(series_k{k}_{mode}.csv bits - this column)
        steps = [comparison.null_series_by_mode[m] for m in columns]
        run.write_csv(f"null_k{k}_series.csv",
                      ["position", "item_id"] + [f"{m}_null_mean_bits" for m in columns],
                      ([pos, order.item_ids[pos]] + [repr(float(c[pos - 1])) for c in steps]
                       for pos in range(1, len(order))))
        summary = comparison.summary_payload()
        for objective in modes:
            path = nullmodels.greedy_shortest_path(theta, start=0, objective=objective, d=d)
            values = nullmodels.order_series(theta, d, path, objective)
            summary[objective]["greedy_mean_bits"] = float(values.mean())
        run.write_json(f"null_k{k}_summary.json", {"modes": summary})
        ranks = nullmodels.rank_distribution(
            theta, np.arange(len(order)), comparison.permutations, d=d
        )
        run.write_json(f"null_k{k}_ranks.json", ranks.to_payload())
        shown = {m: round(v, 5) for m, v in comparison.p_value.items()}
        print(f"null k={k}: p-values {shown} over {n} permutations")


def stage_epochs(run: _Run) -> None:
    cfg = run.cfg
    docs = run.corpus().in_reading_order()
    labels = [str(d.spec.read_date) if d.spec.read_date else str(i)
              for i, d in enumerate(docs)][1:]
    for k in cfg["training"]["ks"]:
        for mode in cfg["measure"]["modes"]:
            values = run.series(k, mode)
            try:
                scores = epochs.select_model(
                    values,
                    max_epochs=cfg["epochs"]["max_epochs"],
                    min_len=cfg["epochs"]["min_len"],
                    variance_mode=cfg["epochs"]["variance_mode"],
                )
            except ValueError as exc:
                raise ConfigError(
                    f"epochs.min_len/max_epochs: {exc} (series has {values.size} steps)"
                ) from exc
            report = epochs.epoch_report(scores, position_labels=labels)
            run.write_json(f"epochs_k{k}_{mode}.json", report)
            best = epochs.best_model(scores)
            print(f"epochs k={k} {mode}: best n={best.model.n_epochs} "
                  f"breaks={list(best.model.interior_boundaries)}")


def stage_fit(run: _Run) -> None:
    cfg = run.cfg
    if not cfg["fit"]["documents"]:
        print("fit: no documents configured; skipping")
        return
    k = cfg["training"]["ks"][0]
    model = run.model(k)
    print(f"fit: Gibbs backend {lda.gibbs_backend()}", file=sys.stderr)
    tok_cfg = TokenizerConfig(**cfg["tokenizer"])
    lo, hi = cfg["fit"]["cluster_range"]
    for doc_path in cfg["fit"]["documents"]:
        path = Path(doc_path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"fit.documents: {path}: {exc}") from exc
        tokens = model.vocabulary.encode(tokenize(text, tok_cfg))
        name = path.stem
        ensemble = querysample.sample_ensemble(
            model,
            tokens,
            n_samples=cfg["fit"]["samples"],
            iterations=cfg["fit"]["iterations"],
            phi_mode=cfg["fit"]["phi_mode"],
            master_seed=derive_seed(run.seed, k, f"fit:{name}"),
            doc_id=name,
        )
        n, sweeps = ensemble.n_samples, cfg["fit"]["iterations"]
        print(f"fit {name}: {n} samples x {sweeps} iterations x {tokens.size} tokens = "
              f"{n * sweeps * tokens.size} token updates", file=sys.stderr)
        run.write_csv(f"fit_{name}_k{k}_samples.csv", ["sample", "dominant_topic", "perplexity"],
                      ((i, int(t), repr(float(p))) for i, (t, p) in
                       enumerate(zip(ensemble.dominant_topics(), ensemble.perplexities))))
        report = querysample.cluster_ensemble(ensemble, k_range=range(lo, hi + 1))
        run.write_json(f"fit_{name}_k{k}_clusters.json", report.to_payload())
        run.write_json(
            f"fit_{name}_k{k}.json",
            {
                "doc_id": name,
                "phi_mode": ensemble.phi_mode,
                "n_samples": ensemble.n_samples,
                "mean_theta": [float(x) for x in ensemble.mean_theta()],
                "mean_perplexity": float(ensemble.perplexities.mean()),
            },
        )
        print(f"fit {name}: {ensemble.n_samples} samples, "
              f"{report.n_clusters} interpretation clusters")


def stage_compare(run: _Run) -> None:
    cfg = run.cfg
    ks = cfg["training"]["ks"]
    if len(ks) < 2:
        raise ConfigError("training.ks: compare needs at least two trained models")
    terms = list(run.corpus().vocabulary.id_to_term)
    for k_a, k_b in zip(ks, ks[1:]):
        if k_a > k_b:
            k_a, k_b = k_b, k_a
        _, phi_a = lda.estimate_distributions(run.model(k_a), smoothing=True)
        _, phi_b = lda.estimate_distributions(run.model(k_b), smoothing=True)
        merged_a, merged_b, _ = modelcompare.merge_vocabulary(
            phi_a, terms, phi_b, terms, strategy=cfg["compare"]["merge"]
        )
        alignment = modelcompare.align_topics(
            merged_a, merged_b, strategy=cfg["compare"]["strategy"]
        )
        mean, total = modelcompare.model_distance(alignment)
        run.write_csv(f"compare_k{k_a}_vs_k{k_b}.csv", ["topic_a", "topic_b", "js_distance"],
                      ((a, b, repr(float(d))) for a, b, d in alignment.pairs))
        run.write_json(
            f"compare_k{k_a}_vs_k{k_b}.json",
            {
                "k_a": k_a, "k_b": k_b,
                "merge": cfg["compare"]["merge"],
                "strategy": alignment.strategy,
                "mean_distance": mean,
                "total_distance": total,
                "injective": alignment.is_injective,
            },
        )
        print(f"compared k={k_a} vs k={k_b}: mean JS distance {mean:.4f}")


_STAGES = {
    "prepare": stage_prepare,
    "train": stage_train,
    "measure": stage_measure,
    "null": stage_null,
    "epochs": stage_epochs,
    "fit": stage_fit,
    "compare": stage_compare,
}


def stage_pipeline(run: _Run) -> None:
    order = ["prepare", "train", "measure", "null", "epochs"]
    if run.cfg["fit"]["documents"]:
        order.append("fit")
    if len(run.cfg["training"]["ks"]) >= 2:
        order.append("compare")
    for name in order:
        _STAGES[name](run)


def stage_fixture(args) -> None:
    from .synthetic import make_fixture  # only this stage needs it

    out = Path(args.out or "fixture")
    summary = make_fixture(out, seed=args.seed if args.seed is not None else 7)
    config = {
        "manifest": "manifest.jsonl",
        "output_dir": "out",
        "seed": 11,
        "filter": {"min_count": 2},
        "training": {"ks": [4, 6], "iterations": 150},
        "null_model": {"permutations": 200},
        "epochs": {"max_epochs": 2, "min_len": 5},
        "fit": {"documents": [Path(p).name for p in summary["query_paths"]],
                "samples": 40, "iterations": 50, "cluster_range": [2, 6]},
    }
    (out / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    print(f"fixture written to {out} (planted break at position "
          f"{summary['planted_break']}); config: {out / 'config.yaml'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="textforage",
        description="Information foraging analysis of reading histories.",
    )
    parser.add_argument("subcommand", choices=[*_STAGES, "pipeline", "fixture"])
    parser.add_argument("--config", help="pipeline configuration file (YAML)")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--threads", type=int, default=None, help="cap worker threads")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        if args.subcommand == "fixture":
            stage_fixture(args)
            return 0
        if not args.config:
            raise ConfigError("--config is required for this subcommand")
        cfg = load_config(
            args.config,
            overrides={"seed": args.seed, "threads": args.threads, "output_dir": args.out},
        )
        run = _Run(cfg)
        if args.subcommand == "pipeline":
            stage_pipeline(run)
        else:
            _STAGES[args.subcommand](run)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MissingArtifactError as exc:
        print(f"upstream artifact: {exc}", file=sys.stderr)
        return 2
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
