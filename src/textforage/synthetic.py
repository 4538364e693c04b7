"""Synthetic fixture corpora with planted structure.

Generates a small dated document collection from a known topic model so
the whole pipeline can run (and be tested) without any historical data.
The reading order has a planted regime change: the first half of the
documents stays inside a narrow topic neighborhood (low step surprise)
while the second half jumps between topics (high step surprise), so
epoch detection has something real to find.  A few tokenizer hazards
(hyphenated line breaks, numerals, punctuation) are planted in the raw
texts as well.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeds import derive_seed, rng_from

__all__ = ["FixtureSpec", "make_fixture"]

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _word(index: int, width: int = 4) -> str:
    chars = []
    for _ in range(width):
        index, rem = divmod(index, 26)
        chars.append(_ALPHABET[rem])
    return "".join(reversed(chars))


@dataclass(frozen=True)
class FixtureSpec:
    """Parameters for the planted corpus; defaults run in seconds."""

    n_docs: int = 48
    n_topics: int = 4
    terms_per_topic: int = 40
    doc_len: tuple[int, int] = (60, 110)
    n_query_docs: int = 1
    start_year: int = 1830

    def __post_init__(self):
        if self.n_docs < 4 or self.n_topics < 2:
            raise ValueError("fixture needs at least 4 documents and 2 topics")


def make_fixture(out_dir: str | Path, seed: int, spec: FixtureSpec | None = None) -> dict:
    """Write a fixture corpus under `out_dir`.

    Produces texts/<id>.txt, manifest.jsonl, and query_<i>.txt files,
    all derived deterministically from `seed`.  Returns a small summary
    (paths, planted break position, true topic count).
    """
    spec = spec or FixtureSpec()
    out = Path(out_dir)
    texts_dir = out / "texts"
    texts_dir.mkdir(parents=True, exist_ok=True)
    rng = rng_from(derive_seed(seed, 0, "fixture"))

    vocab_size = spec.n_topics * spec.terms_per_topic
    words = [_word(i) for i in range(vocab_size)]
    # block-diagonal topics with mild leakage so nothing is degenerate
    phi = np.full((spec.n_topics, vocab_size), 0.2 / vocab_size)
    for t in range(spec.n_topics):
        block = slice(t * spec.terms_per_topic, (t + 1) * spec.terms_per_topic)
        phi[t, block] += 0.8 / spec.terms_per_topic
    phi /= phi.sum(axis=1, keepdims=True)

    half = spec.n_docs // 2
    thetas = np.empty((spec.n_docs, spec.n_topics))
    for i in range(spec.n_docs):
        if i < half:
            # settled phase: every reading stays near topics 0 and 1
            alpha = np.full(spec.n_topics, 0.08)
            alpha[0] = 6.0
            alpha[1] = 2.0
        else:
            # exploratory phase: each reading grabs its own topic
            alpha = np.full(spec.n_topics, 0.08)
            alpha[int(rng.integers(spec.n_topics))] = 4.0
        thetas[i] = rng.dirichlet(alpha)

    start = datetime.date(spec.start_year, 1, 15)
    manifest_lines = []
    for i in range(spec.n_docs):
        doc_id = f"doc{i:03d}"
        length = int(rng.integers(spec.doc_len[0], spec.doc_len[1] + 1))
        token_ids = rng.choice(vocab_size, size=length, p=thetas[i] @ phi)
        tokens = [words[t] for t in token_ids]
        text = _render_text(tokens, rng)
        (texts_dir / f"{doc_id}.txt").write_text(text, encoding="utf-8")

        read_date = start + datetime.timedelta(days=int(30.4 * i))
        pub_date = read_date - datetime.timedelta(days=int(rng.integers(10, 1400)))
        manifest_lines.append(
            json.dumps(
                {
                    "id": doc_id,
                    "text_path": f"texts/{doc_id}.txt",
                    "read_date": read_date.isoformat(),
                    "pub_date": pub_date.isoformat(),
                    "order_index": i,
                }
            )
        )
    manifest_path = out / "manifest.jsonl"
    manifest_path.write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")

    query_paths = []
    for q in range(spec.n_query_docs):
        mix = np.zeros(spec.n_topics)
        mix[q % spec.n_topics] = 0.55
        mix[(q + spec.n_topics - 1) % spec.n_topics] = 0.45
        length = int(rng.integers(spec.doc_len[0], spec.doc_len[1] + 1))
        token_ids = rng.choice(vocab_size, size=length, p=mix @ phi)
        path = out / f"query_{q}.txt"
        path.write_text(" ".join(words[t] for t in token_ids) + "\n", encoding="utf-8")
        query_paths.append(str(path))

    return {
        "manifest": str(manifest_path),
        "texts_dir": str(texts_dir),
        "query_paths": query_paths,
        "planted_break": half,
        "n_topics": spec.n_topics,
        "vocab_size": vocab_size,
    }


def _render_text(tokens: list[str], rng: np.random.Generator) -> str:
    """Lay tokens out in lines, planting tokenizer hazards.

    Some words are hyphenated across line breaks, and occasional
    numeral/punctuation junk ("8vo", "1842", "vols.") is interleaved;
    the tokenizer must survive both without changing the token stream.
    """
    parts = []
    line_len = 0
    for tok in tokens:
        roll = rng.random()
        if roll < 0.03 and len(tok) > 3:
            cut = len(tok) // 2
            parts.append(tok[:cut] + "-\n" + tok[cut:])
            line_len = len(tok) - cut
        else:
            parts.append(tok)
            line_len += len(tok) + 1
        if roll > 0.97:
            parts.append(str(rng.choice(["8vo", "1842", "vols.", "p.311"])))
        if line_len > 60:
            parts.append("\n")
            line_len = 0
    return " ".join(parts).replace(" \n ", "\n") + "\n"
