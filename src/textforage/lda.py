"""LDA topic models trained with a collapsed Gibbs sampler.

The sampler integrates out the document-topic and word-topic
distributions and draws only the per-token topic assignments z.  Each
update removes a token's assignment from the count matrices and samples
a replacement with probability proportional to

    (N_wt + beta) / (N_t + V*beta) * (N_td + alpha)

where the counts exclude the token being updated.  The Dirichlet priors
enter as smoothing factors; the factor depending only on the document
is constant across topics and drops out of the normalization.

The sweep runs in a small C kernel (`_gibbs.c`), built with gcc on
first use and cached outside the output directory; without a compiler
the pure-Python kernel below runs instead, with one warning, and gives
the same bits much more slowly.  `gibbs_backend` says which one runs.
Query sampling runs the same kernel on one document; its locked mode
only freezes the word-topic counts.

Each model trains on one thread and is bit-reproducible from (corpus,
config); the sweep releases the GIL, so models of different k may train
concurrently.
A model file (format 4) stores only what cannot be derived: the
documents' lengths, their tokens, the assignments z and the likelihood
trace, as JSON without separator whitespace, the tokens and z each one
`corpus.pack_ids` string in the fewest bits V and k allow.  A model,
loaded or new, is built from these flat arrays, its counts from z.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _gibbs
from .corpus import (Corpus, Vocabulary, _count, _read_column, _read_packed, _string,
                     ids_sha256, pack_ids)
from .errors import NumericalDegeneracyError
from .seeds import derive_seed, rng_from

__all__ = [
    "TrainingConfig",
    "TopicModel",
    "train",
    "gibbs_sweep",
    "gibbs_backend",
    "estimate_distributions",
    "perplexity",
    "perplexity_from_distributions",
    "TopicSummary",
    "topic_summary",
]

MODEL_FORMAT_VERSION = 4


@dataclass(frozen=True)
class TrainingConfig:
    """Sampler hyperparameters; symmetric Dirichlet priors throughout."""

    k: int
    seed: int
    alpha: float = 0.1
    beta: float = 0.01
    iterations: int = 500

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):  # NaN fails too
            raise ValueError("alpha and beta must be positive and finite")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")

    def to_payload(self) -> dict:
        return asdict(self)  # k, seed, alpha, beta, iterations, in that order


# ---------------------------------------------------------------------------
# Sweep kernel (compiled C in `_gibbs.c`, this pure-Python one as the
# oracle and the fallback)
#
# `uniforms` holds one row of draws per sweep, so a single call can run
# several sweeps.  `v`, the model's V, enters only V*beta.  With `frozen`
# the word-topic counts n_wt and n_t are read but never written: only
# n_td moves.


def _sweep_kernel(tokens, docs, z, n_wt, n_td, n_t, v, alpha, beta, uniforms, probs,
                  frozen=False):
    k = n_wt.shape[1]
    v_beta = v * beta
    for row in uniforms:
        for i in range(tokens.shape[0]):
            w = tokens[i]
            d = docs[i]
            t_old = z[i]
            if not frozen:
                n_wt[w, t_old] -= 1
                n_t[t_old] -= 1
            n_td[t_old, d] -= 1
            total = 0.0
            for t in range(k):
                p = (n_wt[w, t] + beta) / (n_t[t] + v_beta) * (n_td[t, d] + alpha)
                probs[t] = p
                total += p
            r = row[i] * total
            acc = 0.0
            t_new = k - 1
            for t in range(k):
                acc += probs[t]
                if r < acc:
                    t_new = t
                    break
            z[i] = t_new
            if not frozen:
                n_wt[w, t_new] += 1
                n_t[t_new] += 1
            n_td[t_new, d] += 1


def _checked(name: str, array, dtype, shape: tuple, writeable: bool = False) -> tuple:
    """Reject an array the C kernel cannot take as is; -1 in `shape`
    matches any length.  Returns the array's shape."""
    if not isinstance(array, np.ndarray) or array.dtype != dtype:
        raise ValueError(f"{name}: expected a {np.dtype(dtype)} array, "
                         f"got {getattr(array, 'dtype', type(array).__name__)}")
    if not array.flags.c_contiguous:
        raise ValueError(f"{name}: array is not C-contiguous")
    if writeable and not array.flags.writeable:
        raise ValueError(f"{name}: array is read-only")
    if len(array.shape) != len(shape) or any(
        want not in (-1, got) for want, got in zip(shape, array.shape)
    ):
        raise ValueError(f"{name}: shape {array.shape}, expected "
                         f"{tuple('*' if n == -1 else n for n in shape)}")
    return array.shape


def _in_range(name: str, array: np.ndarray, stop: int) -> None:
    if array.size and not (0 <= array.min() and array.max() < stop):
        raise ValueError(f"{name}: value outside [0, {stop})")


def sweep(tokens, docs, z, n_wt, n_td, n_t, alpha: float, beta: float, uniforms) -> None:
    """Run one full Gibbs sweep per row of `uniforms`, in place.

    Tokens, document indices and z are int32 of one length n; n_wt is
    (V, k), n_td (k, D) and n_t (k,), all int64; `uniforms` is float64
    (n_sweeps, n).  Any other dtype, layout or shape, or an index out of
    range, raises ValueError naming the array.
    """
    (n,) = _checked("tokens", tokens, np.int32, (-1,))
    v, k = _checked("n_wt", n_wt, np.int64, (-1, -1), writeable=True)
    _checked("docs", docs, np.int32, (n,))
    _checked("z", z, np.int32, (n,), writeable=True)
    _, n_docs = _checked("n_td", n_td, np.int64, (k, -1), writeable=True)
    _checked("n_t", n_t, np.int64, (k,), writeable=True)
    _checked("uniforms", uniforms, np.float64, (-1, n))
    _in_range("tokens", tokens, v)
    _in_range("docs", docs, n_docs)
    _in_range("z", z, k)
    _run_sweeps(tokens, docs, z[None], n_wt[None], n_td[None], n_t[None], v, alpha, beta,
                uniforms[None], frozen=False)


def _run_sweeps(tokens, docs, z, n_wt, n_td, n_t, v, alpha, beta, uniforms, frozen) -> None:
    """For each s, the sweeps of `uniforms[s]` on z[s], n_wt[s], n_td[s]
    and n_t[s], in the compiled kernel or, without it, in `_sweep_kernel`.
    Arrays are as `sweep` checks them, with a leading sample axis; a
    frozen sample's n_wt and n_t may be one array broadcast to all."""
    m, n_sweeps, n = uniforms.shape
    k, n_docs = n_td.shape[1:]
    probs = np.empty(k, dtype=np.float64)
    lib, _ = _gibbs.load()
    if lib is None:
        for s in range(m):
            _sweep_kernel(tokens, docs, z[s], n_wt[s], n_td[s], n_t[s], v, alpha, beta,
                          uniforms[s], probs, frozen)
        return
    # every address read once; sample s is at its array's s-th step along axis 0
    tokens_p, docs_p, probs_p = tokens.ctypes.data, docs.ctypes.data, probs.ctypes.data
    per_sample = (z, n_wt, n_td, n_t, uniforms)
    bases, strides = [a.ctypes.data for a in per_sample], [a.strides[0] for a in per_sample]
    for s in range(m):
        z_s, wt_s, td_s, t_s, u_s = (base + s * stride for base, stride in zip(bases, strides))
        lib.sweep(n_sweeps, n, tokens_p, docs_p, z_s, wt_s, td_s, t_s, v, k, n_docs, alpha,
                  beta, u_s, probs_p, frozen)


def gibbs_backend() -> str:
    """Which kernel `sweep` runs: "C (<library>)" or "pure Python (<reason>)".

    Builds the compiled kernel on first use.
    """
    return _gibbs.load()[1]


def _lgamma_sum(counts: np.ndarray, shift: float) -> float:
    """Sum of lgamma(c + shift) over an integer count array.

    Counts repeat heavily (most cells of n_wt are 0 or 1), so this takes
    one `math.lgamma` per distinct count, weighted by how often it
    occurs.  `np.unique` sorts rather than bins, so a count as large as
    the corpus costs no memory.
    """
    values, freq = np.unique(counts, return_counts=True)
    return math.fsum(
        f * math.lgamma(c + shift) for c, f in zip(values.tolist(), freq.tolist())
    )


# ---------------------------------------------------------------------------
# Model


class TopicModel:
    """Topic assignments and count matrices for a trained corpus.

    `tokens` holds the documents' term ids in reading order, one
    document after another, `lengths` each document's token count and
    `z` one topic per token; `doc_index` and every count matrix derive
    from them.  Count matrices: n_wt (V, k) word-topic, n_td (k, D)
    topic-document, n_t (k,) per-topic totals, n_d (D,) document
    lengths.  The three sum identities (rows of n_td vs n_d, columns of
    n_wt vs n_t, rows of n_td vs n_t) hold after every sweep;
    `check_invariants` asserts them.
    """

    def __init__(
        self,
        config: TrainingConfig,
        vocabulary: Vocabulary,
        doc_ids: Sequence[str],
        lengths: Sequence[int],
        tokens: np.ndarray,
        z: np.ndarray,
        rng: np.random.Generator,
    ):
        tokens, z = np.asarray(tokens), np.asarray(z)
        if len(lengths) != len(doc_ids) or sum(lengths) != tokens.size:
            raise ValueError(f"lengths: {len(lengths)} documents of {sum(lengths)} tokens "
                             f"for {len(doc_ids)} doc_ids and {tokens.size} tokens")
        if z.size != tokens.size:
            raise ValueError(f"z: {z.size} assignments for {tokens.size} tokens")
        if tokens.size and not (0 <= tokens.min() and tokens.max() < len(vocabulary)):
            raise ValueError(f"tokens: term id outside the vocabulary [0, {len(vocabulary)})")
        if z.size and not (0 <= z.min() and z.max() < config.k):
            raise ValueError(f"z: topic outside [0, {config.k})")
        self.config = config
        self.vocabulary = vocabulary
        self.doc_ids = tuple(doc_ids)
        self.tokens = tokens.astype(np.int32)
        self.doc_index = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
        self.z = z.astype(np.int32, copy=False)
        self._rng = rng
        self.n_docs = len(self.doc_ids)
        self.n_terms = len(vocabulary)
        self.log_likelihood_trace: list[float] = []  # one log joint per sweep
        self._rebuild_counts()

    # -- construction helpers

    @classmethod
    def initialize(cls, corpus: Corpus, config: TrainingConfig) -> "TopicModel":
        if corpus.n_documents == 0:
            raise ValueError("empty corpus")
        docs = corpus.in_reading_order()
        lengths = [d.token_ids.size for d in docs]
        if min(lengths) == 0:
            raise ValueError("corpus contains an empty document")
        rng = rng_from(config.seed)
        z = rng.integers(0, config.k, sum(lengths), dtype=np.int32)
        return cls(config, corpus.vocabulary, [d.spec.id for d in docs], lengths,
                   np.concatenate([d.token_ids for d in docs]), z, rng)

    @property
    def sweeps_done(self) -> int:
        return len(self.log_likelihood_trace)

    def doc_tokens(self) -> list[np.ndarray]:
        """Each document's term ids, in reading order."""
        return np.split(self.tokens, np.cumsum(self.n_d)[:-1])

    def _rebuild_counts(self) -> None:
        k, v, d = self.config.k, self.n_terms, self.n_docs
        z = self.z.astype(np.intp)
        self.n_wt = np.bincount(self.tokens.astype(np.intp) * k + z,
                                minlength=v * k).astype(np.int64, copy=False).reshape(v, k)
        self.n_td = np.bincount(z * d + self.doc_index,
                                minlength=k * d).astype(np.int64, copy=False).reshape(k, d)
        self.n_t = self.n_wt.sum(axis=0)
        self.n_d = self.n_td.sum(axis=0)

    def check_invariants(self) -> None:
        if not np.array_equal(self.n_td.sum(axis=0), self.n_d):
            raise AssertionError("n_td columns do not sum to document lengths")
        if not np.array_equal(self.n_wt.sum(axis=0), self.n_t):
            raise AssertionError("n_wt columns do not sum to topic totals")
        if not np.array_equal(self.n_td.sum(axis=1), self.n_t):
            raise AssertionError("n_td rows do not sum to topic totals")
        if self.z.size and not (0 <= self.z.min() and self.z.max() < self.config.k):
            raise AssertionError("topic assignment out of range")

    # -- likelihood

    def log_joint(self) -> float:
        """Collapsed log p(w, z) in nats, used for the likelihood trace;
        NumericalDegeneracyError when the priors carry it out of float range."""
        k, a, b = self.config.k, self.config.alpha, self.config.beta
        v = self.n_terms
        try:
            total = math.fsum((
                self.n_docs * (math.lgamma(k * a) - k * math.lgamma(a)),
                _lgamma_sum(self.n_td, a),
                -_lgamma_sum(self.n_d, k * a),
                k * (math.lgamma(v * b) - v * math.lgamma(b)),
                _lgamma_sum(self.n_wt, b),
                -_lgamma_sum(self.n_t, v * b),
            ))
        except (OverflowError, ValueError):  # lgamma past the float range; inf - inf
            total = math.nan
        if not math.isfinite(total):
            raise NumericalDegeneracyError(f"log joint is out of float range at k={k}, "
                                           f"alpha={a!r}, beta={b!r}")
        return total

    # -- persistence

    def assignments_sha256(self) -> str:
        """`corpus.ids_sha256` over the document lengths, the tokens and z."""
        return ids_sha256(self.n_d, self.tokens, self.z)

    def save(self, path: str | Path, metadata: dict | None = None) -> None:
        """Write the underivable state as compact JSON: the document
        lengths, the tokens and z, each packed by `pack_ids` into one
        string, and the trace."""
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "topic_model",
            "metadata": metadata or {},
            "config": self.config.to_payload(),
            "vocabulary_sha256": self.vocabulary.sha256(),
            "assignments_sha256": self.assignments_sha256(),
            "doc_ids": list(self.doc_ids),
            "lengths": self.n_d.tolist(),
            "tokens": pack_ids(self.tokens, self.n_terms),
            "z": pack_ids(self.z, self.config.k),
            "sweeps_done": self.sweeps_done,
            "log_likelihood_trace": [float(x) for x in self.log_likelihood_trace],
        }
        Path(path).write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path, vocabulary: Vocabulary) -> "TopicModel":
        """Read a model file and rebuild its counts from z.

        Raises ValueError, naming the field, for a file of another kind
        or format version, another vocabulary, a malformed field (naming
        the document too for a `lengths` entry, a term id at or above V
        or a topic at or above k), `tokens` or `z` that do not unpack to
        as many values as `lengths` sums to, tokens and z that do not
        hash to `assignments_sha256`, a trace entry that is not a finite
        number, or a `sweeps_done` that is not the trace's length.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or payload.get("kind") != "topic_model":
            raise ValueError(f"{path} is not a topic model file")
        if payload.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"unsupported model format_version {payload.get('format_version')!r}"
            )
        if payload["vocabulary_sha256"] != vocabulary.sha256():
            raise ValueError("vocabulary hash mismatch: wrong vocabulary for model")
        config = payload["config"]  # a seed is a count too: PCG64 takes no negative one
        readers = {"k": _count, "seed": _count, "alpha": _number, "beta": _number,
                   "iterations": _count}
        config = TrainingConfig(**{name: _field(f"config.{name}", config[name], read)
                                   for name, read in readers.items()})
        sweeps_done = _field("sweeps_done", payload["sweeps_done"], _count)
        doc_ids = _read_column("doc_ids", payload["doc_ids"], _string, "a string",
                               payload["doc_ids"])
        lengths = payload["lengths"]
        if isinstance(lengths, list) and len(lengths) != len(doc_ids):  # ids label the entries
            raise ValueError(f"field 'lengths' has {len(lengths)} entries, "
                             f"'doc_ids' has {len(doc_ids)}")
        lengths = _read_column("lengths", lengths, _count, "a non-negative integer", doc_ids)
        tokens = _read_packed("tokens", payload["tokens"], len(vocabulary),
                              "base64 of term ids in [0, V)", lengths, doc_ids)
        z = _read_packed("z", payload["z"], config.k, "base64 of topics in [0, k)",
                         lengths, doc_ids)
        trace = _read_column("log_likelihood_trace", payload["log_likelihood_trace"],
                             _finite_number, "a number", payload["log_likelihood_trace"])
        model = cls(config, vocabulary, doc_ids, lengths, tokens, z,
                    rng_from(derive_seed(config.seed, sweeps_done, "resume")))
        if payload["assignments_sha256"] != model.assignments_sha256():
            raise ValueError(f"{path}: tokens or z do not match assignments_sha256")
        model.log_likelihood_trace = trace
        if sweeps_done != model.sweeps_done:
            raise ValueError(f"{path}: sweeps_done {sweeps_done} is not the "
                             f"log_likelihood_trace length {model.sweeps_done}")
        return model


def _number(entry) -> float:
    if type(entry) not in (int, float):  # `type`: a bool is not a number
        raise TypeError
    return float(entry)


def _finite_number(entry) -> float:
    if not math.isfinite(value := _number(entry)):  # JSON reads NaN and Infinity
        raise ValueError("not finite")
    return value


def _field(name: str, value, reader):
    """`value` through `reader`; a ValueError naming the field if it rejects it."""
    try:
        return reader(value)
    except (TypeError, ValueError):
        raise ValueError(f"field '{name}' is {value!r}: wrong type or sign") from None


# ---------------------------------------------------------------------------
# Operations


def gibbs_sweep(model: TopicModel) -> TopicModel:
    """Run one full sweep over every token position, in document order.

    Mutates the model in place (and returns it); count invariants are
    preserved exactly.  The sweep consumes one block of the model's
    random stream, so a fixed stream gives a reproducible sweep.
    """
    sweep(
        model.tokens,
        model.doc_index,
        model.z,
        model.n_wt,
        model.n_td,
        model.n_t,
        model.config.alpha,
        model.config.beta,
        model._rng.random((1, model.tokens.size)),
    )
    model.log_likelihood_trace.append(model.log_joint())
    return model


def train(corpus: Corpus, config: TrainingConfig) -> TopicModel:
    """Train a topic model on `corpus`.

    Assignments are initialized uniformly at random from the seed and
    `config.iterations` full sweeps are applied.  Identical (corpus,
    config) produce bit-identical models.
    """
    model = TopicModel.initialize(corpus, config)
    for _ in range(config.iterations):
        gibbs_sweep(model)
    return model


def estimate_distributions(
    model: TopicModel, smoothing: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Point estimates (theta, phi) from the count matrices.

    theta is (D, k): row d is document d's topic distribution.  phi is
    (V, k): column t is topic t's word distribution.  With smoothing
    (the default) the Dirichlet priors are folded in and every
    distribution is strictly positive; without it the raw count ratios
    are returned and an empty topic is an error.
    """
    theta = _theta(model, smoothing)
    b, v = model.config.beta, model.n_terms
    if smoothing:
        return theta, (model.n_wt + b) / (model.n_t[None, :] + v * b)
    return theta, model.n_wt / model.n_t[None, :].astype(np.float64)


def _theta(model: TopicModel, smoothing: bool) -> np.ndarray:
    """theta of `estimate_distributions`, without building phi."""
    a, k = model.config.alpha, model.config.k
    if smoothing:
        return (model.n_td.T + a) / (model.n_d[:, None] + k * a)
    if np.any(model.n_t == 0):
        empty = int(np.flatnonzero(model.n_t == 0)[0])
        raise NumericalDegeneracyError(f"degenerate topic: topic {empty} has no assignments")
    return model.n_td.T / model.n_d[:, None]


def perplexity_from_distributions(
    theta_rows: np.ndarray, phi: np.ndarray, docs: Sequence[np.ndarray]
) -> float:
    """Perplexity of token sequences under explicit (theta, phi).

    2 ** (-mean per-token log2 p(w|d)) with p(w|d) = sum_t theta_dt
    phi_wt; `theta_rows` must align with `docs`.
    """
    theta_rows = np.atleast_2d(theta_rows)
    if len(docs) != theta_rows.shape[0]:
        raise ValueError("theta_rows and docs are not aligned")
    total = 0.0
    count = 0
    for row, tokens in zip(theta_rows, docs):
        if len(tokens) == 0:
            continue
        p = phi[np.asarray(tokens, dtype=np.intp)] @ row
        if np.any(p <= 0):
            raise NumericalDegeneracyError(
                "zero-probability token; use smoothed estimates"
            )
        total += float(np.log2(p).sum())
        count += len(tokens)
    if count == 0:
        raise ValueError("no tokens to evaluate")
    return float(2.0 ** (-total / count))


def perplexity(
    model: TopicModel,
    doc_indices: Sequence[int] | None = None,
    smoothing: bool = True,
) -> float:
    """Perplexity of (a slice of) the training corpus under the model."""
    theta, phi = estimate_distributions(model, smoothing=smoothing)
    if doc_indices is None:
        doc_indices = range(model.n_docs)
    doc_tokens = model.doc_tokens()
    docs = [doc_tokens[d] for d in doc_indices]
    return perplexity_from_distributions(theta[list(doc_indices)], phi, docs)


@dataclass(frozen=True)
class TopicSummary:
    """Report-time view of one topic."""

    topic: int
    top_terms: tuple[tuple[str, float], ...]
    mass_coverage: int
    cross_document_entropy: float
    mean_probability: float


def topic_summary(
    model: TopicModel,
    topic: int,
    top_n: int = 10,
    mass: float = 0.5,
    smoothing: bool = True,
) -> TopicSummary:
    """Top terms, mass coverage, and document spread of one topic.

    `mass_coverage` is the minimal number of highest-probability terms
    whose phi sums to at least `mass`.  `cross_document_entropy` is the
    entropy (bits) of the topic's theta column renormalized across
    documents: high entropy means the topic appears evenly across the
    corpus.  Term ties are broken by ascending term id.
    """
    if not 0 <= topic < model.config.k:
        raise ValueError(f"topic {topic} out of range [0, {model.config.k})")
    theta, phi = estimate_distributions(model, smoothing=smoothing)
    column = phi[:, topic]
    order = np.lexsort((np.arange(column.size), -column))
    top = tuple(
        (model.vocabulary.id_to_term[i], float(column[i])) for i in order[:top_n]
    )
    cumulative = np.cumsum(column[order])
    coverage = int(np.searchsorted(cumulative, mass) + 1)
    coverage = min(coverage, column.size)

    col_theta = theta[:, topic]
    weights = col_theta / col_theta.sum()
    nz = weights[weights > 0]
    cross_entropy = float(-(nz * np.log2(nz)).sum())
    return TopicSummary(
        topic=topic,
        top_terms=top,
        mass_coverage=coverage,
        cross_document_entropy=max(cross_entropy, 0.0),
        mean_probability=float(col_theta.mean()),
    )
