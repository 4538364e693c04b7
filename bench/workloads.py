"""Seeded input generators for the benchmark workloads.

Each generator writes a complete pipeline input (manifest, texts, query
documents, config.yaml) into a directory and returns a `Workload`
describing what it planted, so the output checks know what to expect.
Only the files are handed to the program; the seed never is.

Terms are four-letter base-26 words.  A term's index in the word list
fixes the topic it was planted in (`index // block`), which is how the
checks map learned topics back to planted ones.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from textforage.synthetic import FixtureSpec, make_fixture

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def word(index: int) -> str:
    chars = []
    for _ in range(4):
        index, rem = divmod(index, 26)
        chars.append(_ALPHABET[rem])
    return "".join(reversed(chars))


def word_index(term: str) -> int:
    value = 0
    for ch in term:
        value = value * 26 + _ALPHABET.index(ch)
    return value


@dataclass
class Workload:
    """Generated inputs plus the structure planted in them."""

    name: str
    config_path: Path
    config: dict
    block: int  # terms per planted topic
    query_topics: dict[str, tuple[int, ...]] = field(default_factory=dict)
    planted_break: int | None = None  # first item of the second regime

    def planted_topic(self, term: str) -> int:
        return word_index(term) // self.block

    def stages(self) -> list[str]:
        order = ["prepare", "train", "measure", "null", "epochs"]
        if self.config.get("fit", {}).get("documents"):
            order.append("fit")
        if len(self.config["training"]["ks"]) >= 2:
            order.append("compare")
        return order


def _write_config(dest: Path, config: dict) -> Path:
    path = dest / "config.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return path


def _topic_matrix(n_topics: int, block: int, leak: float) -> np.ndarray:
    vocab = n_topics * block
    phi = np.full((n_topics, vocab), leak / vocab)
    for t in range(n_topics):
        phi[t, t * block:(t + 1) * block] += (1.0 - leak) / block
    return phi / phi.sum(axis=1, keepdims=True)


def _write_history(dest: Path, rng, thetas, phi, doc_len, gap_days, tight_share):
    """Texts and manifest for one reading history, in reading order.

    A `tight_share` of the items is published only days before it is
    read, so the publication constraint binds in the permutation null.
    """
    texts = dest / "texts"
    texts.mkdir(parents=True, exist_ok=True)
    start = datetime.date(1850, 1, 1)
    lines = []
    for i, theta in enumerate(thetas):
        doc_id = f"h{i:04d}"
        length = int(rng.integers(doc_len[0], doc_len[1] + 1))
        ids = rng.choice(phi.shape[1], size=length, p=theta @ phi)
        (texts / f"{doc_id}.txt").write_text(
            " ".join(word(int(t)) for t in ids) + "\n", encoding="utf-8")
        read = start + datetime.timedelta(days=gap_days * i)
        lag = int(rng.integers(0, 8)) if rng.random() < tight_share else int(rng.integers(30, 2000))
        lines.append(json.dumps({
            "id": doc_id,
            "text_path": f"texts/{doc_id}.txt",
            "read_date": read.isoformat(),
            "pub_date": (read - datetime.timedelta(days=lag)).isoformat(),
            "order_index": i,
        }))
    (dest / "manifest.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def fixture_pipeline(dest: Path, seed: int) -> Workload:
    """`textforage fixture` output at the fixture's own shape, with
    sweeps, permutations and query samples scaled to a short run."""
    spec = FixtureSpec()
    summary = make_fixture(dest, seed=seed, spec=spec)
    config = {
        "manifest": "manifest.jsonl",
        "output_dir": "out",
        "seed": seed,
        "filter": {"min_count": 2},
        "training": {"ks": [4, 6], "iterations": 8},
        "null_model": {"permutations": 100},
        "epochs": {"max_epochs": 2, "min_len": 5},
        "fit": {"documents": [Path(p).name for p in summary["query_paths"]],
                "samples": 8, "iterations": 20, "cluster_range": [2, 6]},
    }
    # no fit check here: at 8-15 sweeps the rare planted topic 3 is often
    # not yet a topic of its own, so the query's mix cannot favour it
    return Workload(
        name="fixture-pipeline",
        config_path=_write_config(dest, config),
        config=config,
        block=spec.terms_per_topic,
        planted_break=summary["planted_break"],
    )


def long_history(dest: Path, seed: int) -> Workload:
    """A long reading history of short documents in three regimes:
    settled on two topics, exploring one topic per item, settled on
    two others.  One k, few sweeps, many permutations."""
    rng = np.random.default_rng([seed, 1])
    n_docs, n_topics, block = 300, 6, 30
    phi = _topic_matrix(n_topics, block, leak=0.15)
    thetas = []
    for i in range(n_docs):
        alpha = np.full(n_topics, 0.1)
        if i < 100:
            alpha[[0, 1]] = (5.0, 2.0)
        elif i < 200:
            alpha[int(rng.integers(n_topics))] = 4.0
        else:
            alpha[[3, 4]] = (2.0, 5.0)
        thetas.append(rng.dirichlet(alpha))
    _write_history(dest, rng, thetas, phi, doc_len=(15, 30), gap_days=3, tight_share=0.15)
    config = {
        "manifest": "manifest.jsonl",
        "output_dir": "out",
        "seed": seed,
        "filter": {"min_count": 2},
        "training": {"ks": [6], "iterations": 3},
        "null_model": {"permutations": 100},
        "epochs": {"max_epochs": 3, "min_len": 10},
    }
    return Workload("long-history", _write_config(dest, config), config, block)


def query_fit(dest: Path, seed: int) -> Workload:
    """A small corpus and short query documents, each drawn from the
    words of one planted topic, fitted at the query-sampling defaults (100 samples
    x 100 iterations) with two worker threads."""
    rng = np.random.default_rng([seed, 2])
    n_docs, n_topics, block = 40, 4, 30
    phi = _topic_matrix(n_topics, block, leak=0.1)
    thetas = [rng.dirichlet(np.full(n_topics, 0.1)) for _ in range(n_docs)]
    _write_history(dest, rng, thetas, phi, doc_len=(40, 70), gap_days=20, tight_share=0.2)
    query_topics = {}
    documents = []
    for q in range(2):
        topics = (q,)
        ids = q * block + rng.integers(0, block, size=6)
        name = f"query_{q}"
        (dest / f"{name}.txt").write_text(" ".join(word(int(t)) for t in ids) + "\n",
                                          encoding="utf-8")
        query_topics[name] = topics
        documents.append(f"{name}.txt")
    config = {
        "manifest": "manifest.jsonl",
        "output_dir": "out",
        "seed": seed,
        "threads": 2,
        "filter": {"min_count": 2},
        "training": {"ks": [4], "iterations": 15},
        "null_model": {"permutations": 20},
        "epochs": {"max_epochs": 2, "min_len": 5},
        "fit": {"documents": documents, "samples": 100, "iterations": 100},
    }
    return Workload("query-fit", _write_config(dest, config), config, block, query_topics)


GENERATORS = {
    "fixture-pipeline": fixture_pipeline,
    "long-history": long_history,
    "query-fit": query_fit,
}
