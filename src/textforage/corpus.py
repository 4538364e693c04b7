"""Corpus ingestion: tokenization, vocabulary filtering, and encoding.

Raw texts become lower-cased, ASCII-folded, punctuation- and
numeral-free token streams; a frequency-filtered vocabulary maps the
retained types to dense integer ids; documents are stored as id
sequences alongside their reading/publication metadata.  A corpus file
(format 5) holds the documents as six equal-length columns (id,
read_date, pub_date, order_index, length, dropped), the documents'
term ids, concatenated, as one packed string `token_ids`, a
`tokens_sha256` over the lengths and the term ids, and the `settings`
it was prepared with, written as JSON without separator whitespace.
`pack_ids` stores each value in the fewest bits its bound allows; the
model files use it for their tokens and topics too.

Stemming is deliberately not offered: collapsing inflected forms hurts
topic quality, so the tokenizer exposes no option for it.
"""

from __future__ import annotations

import base64
import calendar
import datetime
import hashlib
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PartialDate",
    "TokenizerConfig",
    "tokenize",
    "FilterConfig",
    "Vocabulary",
    "build_vocabulary",
    "DocumentSpec",
    "EncodedDocument",
    "Corpus",
    "encode_corpus",
    "date_violations",
    "load_manifest",
]

CORPUS_FORMAT_VERSION = 5
# the columns of a corpus file's `documents`, one entry per document each,
# and what each entry must be; `documents.token_ids` is one packed string
_DOCUMENT_COLUMNS = {
    "id": "a string",
    "read_date": "a date string or null",
    "pub_date": "a date string or null",
    "order_index": "a non-negative integer",
    "length": "a non-negative integer",
    "dropped": "a non-negative integer",
}


# ---------------------------------------------------------------------------
# Dates


@dataclass(frozen=True, order=False)
class PartialDate:
    """An ISO-8601 date with year, year-month, or full-day precision.

    Publication dates are compared via :meth:`earliest` and reading
    dates via :meth:`latest`, so precision loss never manufactures a
    constraint violation.
    """

    year: int
    month: int | None = None
    day: int | None = None

    _PATTERN = re.compile(r"^(\d{4})(?:-(\d{2}))?(?:-(\d{2}))?$")

    @classmethod
    def parse(cls, text: str | PartialDate | datetime.date) -> "PartialDate":
        if isinstance(text, PartialDate):
            return text
        if isinstance(text, datetime.date):
            return cls(text.year, text.month, text.day)
        m = cls._PATTERN.match(str(text).strip())
        if not m:
            raise ValueError(f"not an ISO-8601 date: {text!r}")
        year = int(m.group(1))
        month = int(m.group(2)) if m.group(2) else None
        day = int(m.group(3)) if m.group(3) else None
        if month is not None and not 1 <= month <= 12:
            raise ValueError(f"month out of range in {text!r}")
        if day is not None:
            if month is None:
                raise ValueError(f"day without month in {text!r}")
            if not 1 <= day <= calendar.monthrange(year, month)[1]:
                raise ValueError(f"day out of range in {text!r}")
        return cls(year, month, day)

    def earliest(self) -> datetime.date:
        """The first calendar day consistent with this date."""
        return datetime.date(self.year, self.month or 1, self.day or 1)

    def latest(self) -> datetime.date:
        """The last calendar day consistent with this date."""
        month = self.month or 12
        day = self.day or calendar.monthrange(self.year, month)[1]
        return datetime.date(self.year, month, day)

    def __str__(self) -> str:
        if self.day is not None:
            return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"
        if self.month is not None:
            return f"{self.year:04d}-{self.month:02d}"
        return f"{self.year:04d}"


def as_earliest(d) -> datetime.date:
    return PartialDate.parse(d).earliest()


def as_latest(d) -> datetime.date:
    return PartialDate.parse(d).latest()


# ---------------------------------------------------------------------------
# Tokenization

# a word broken across a line by a hyphen: "mod-\nification" -> "modification"
_HYPHEN_BREAK = re.compile(r"(\w)-[ \t]*\r?\n\s*(?=\w)")

# ligatures NFKD cannot decompose; applied before the ASCII fold so
# 19th-century spellings like "encyclopaedia" survive
_LIGATURES = str.maketrans(
    {
        "Æ": "AE", "æ": "ae",   # Æ æ
        "Œ": "OE", "œ": "oe",   # Œ œ
        "ß": "ss", "ẞ": "SS",   # ß ẞ
        "Ø": "O", "ø": "o",     # Ø ø
        "Đ": "D", "đ": "d",     # Đ đ
        "Þ": "Th", "þ": "th",   # Þ þ
        "Ð": "D", "ð": "d",     # Ð ð
        "Ł": "L", "ł": "l",     # Ł ł
    }
)


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenizer switches; all default on to match the standard pipeline."""

    merge_hyphens: bool = True
    ascii_fold: bool = True


def tokenize(raw_text: str, config: TokenizerConfig | None = None) -> list[str]:
    """Split `raw_text` into normalized tokens.

    Cross-line hyphens are merged into single words, the text is folded
    to ASCII and lower-cased, and any token containing punctuation or
    numerals is dropped.  Deterministic, order-preserving, and
    idempotent on its own (re-joined) output; empty input gives an
    empty list.
    """
    config = config or TokenizerConfig()
    text = raw_text
    if config.merge_hyphens:
        text = _HYPHEN_BREAK.sub(r"\1", text)
    if config.ascii_fold:
        text = text.translate(_LIGATURES)
        text = unicodedata.normalize("NFKD", text).encode("ascii", "ignore").decode("ascii")
    text = text.lower()
    return [tok for tok in text.split() if tok.isascii() and tok.isalpha()]


# ---------------------------------------------------------------------------
# Vocabulary


@dataclass(frozen=True)
class FilterConfig:
    """Vocabulary filters; any combination may be active.

    `min_count`/`max_count` bound absolute corpus frequencies
    (inclusive).  `top_mass`/`bottom_mass` remove the highest- and
    lowest-frequency types until the removed types' share of the total
    token count reaches the requested mass.  Mass removal proceeds by
    whole frequency classes: all types with the same count are removed
    together, so the result is independent of document and type order.
    All shares are measured against the unfiltered corpus.  `stopwords`
    are removed unconditionally.
    """

    min_count: int | None = None
    max_count: int | None = None
    top_mass: float | None = None
    bottom_mass: float | None = None
    stopwords: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))
        for name in ("top_mass", "bottom_mass"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")


class Vocabulary:
    """A dense bijection between retained terms and ids 0..V-1.

    Ids are assigned by descending corpus frequency, ties broken
    alphabetically; `corpus_frequency[i]` is the raw token count of
    term i in the unfiltered corpus.
    """

    def __init__(self, terms: Sequence[str], frequencies: Sequence[int]):
        if len(terms) != len(frequencies):
            raise ValueError("terms and frequencies differ in length")
        if len(set(terms)) != len(terms):
            raise ValueError("duplicate terms")
        self.id_to_term: tuple[str, ...] = tuple(terms)
        self.term_to_id: dict[str, int] = {t: i for i, t in enumerate(terms)}
        self.corpus_frequency = np.asarray(frequencies, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.id_to_term)

    def __contains__(self, term: str) -> bool:
        return term in self.term_to_id

    def encode(self, tokens: Iterable[str]) -> np.ndarray:
        """Ids of the in-vocabulary tokens, order preserved."""
        mapping = self.term_to_id
        return np.array(
            [mapping[t] for t in tokens if t in mapping], dtype=np.int32
        )

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_term[i] for i in ids]

    def sha256(self) -> str:
        h = hashlib.sha256()
        for term in self.id_to_term:
            h.update(term.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def to_payload(self) -> dict:
        return {
            "terms": list(self.id_to_term),
            "frequencies": [int(c) for c in self.corpus_frequency],
        }


def _mass_classes(counts: Counter, total: int, mass: float, highest_first: bool) -> set[str]:
    """Terms removed by a cumulative-mass filter, by whole frequency class."""
    removed: set[str] = set()
    if not mass or total == 0:
        return removed
    by_count: dict[int, list[str]] = {}
    for term, count in counts.items():
        by_count.setdefault(count, []).append(term)
    acc = 0
    for count in sorted(by_count, reverse=highest_first):
        if acc / total >= mass:
            break
        removed.update(by_count[count])
        acc += count * len(by_count[count])
    return removed


def build_vocabulary(
    token_docs: Sequence[Sequence[str]], filt: FilterConfig | None = None
) -> Vocabulary:
    """Build a filtered vocabulary over tokenized documents.

    The result is independent of document order: every filter is a
    function of the aggregate type counts alone.  Raises ValueError if
    filtering removes every type.
    """
    filt = filt or FilterConfig()
    counts: Counter = Counter()
    for doc in token_docs:
        counts.update(doc)
    total = sum(counts.values())

    removed: set[str] = set(t for t in counts if t in filt.stopwords)
    if filt.min_count is not None:
        removed.update(t for t, c in counts.items() if c < filt.min_count)
    if filt.max_count is not None:
        removed.update(t for t, c in counts.items() if c > filt.max_count)
    if filt.top_mass is not None:
        removed.update(_mass_classes(counts, total, filt.top_mass, highest_first=True))
    if filt.bottom_mass is not None:
        removed.update(_mass_classes(counts, total, filt.bottom_mass, highest_first=False))

    kept = [t for t in counts if t not in removed]
    if not kept:
        raise ValueError("vocabulary exhausted: filtering removed every type")
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept, [counts[t] for t in kept])


# ---------------------------------------------------------------------------
# Documents and corpus


@dataclass(frozen=True)
class DocumentSpec:
    """Identity and metadata for one document in a reading history."""

    id: str
    text: str | None = None
    text_path: str | None = None
    read_date: PartialDate | None = None
    pub_date: PartialDate | None = None
    order_index: int = 0

    def __post_init__(self):
        if self.order_index < 0:
            raise ValueError(f"document {self.id!r}: negative order_index")
        for name in ("read_date", "pub_date"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, PartialDate):
                object.__setattr__(self, name, PartialDate.parse(value))

    def load_text(self, base_dir: str | Path | None = None) -> str:
        if self.text is not None:
            return self.text
        if self.text_path is None:
            raise ValueError(f"document {self.id!r} has neither text nor text_path")
        path = Path(self.text_path)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return path.read_text(encoding="utf-8")


def date_violations(specs: Iterable[DocumentSpec]) -> list[str]:
    """Documents whose publication date falls after their reading date.

    Comparison is conservative: the earliest day consistent with the
    publication date against the latest day consistent with the reading
    date.  Violations are reported, never repaired.
    """
    bad = []
    for spec in specs:
        if spec.pub_date is not None and spec.read_date is not None:
            if spec.pub_date.earliest() > spec.read_date.latest():
                bad.append(
                    f"{spec.id}: pub_date {spec.pub_date} after read_date {spec.read_date}"
                )
    return bad


@dataclass(frozen=True)
class EncodedDocument:
    spec: DocumentSpec
    token_ids: np.ndarray
    dropped: int  # out-of-vocabulary tokens discarded during encoding

    @property
    def retained(self) -> int:
        return int(self.token_ids.size)


@dataclass(frozen=True)
class Corpus:
    """An encoded document collection sharing one vocabulary.

    Immutable after construction and safe to share across threads.
    Documents reduced to zero in-vocabulary tokens are excluded from
    `documents` and listed in `skipped_empty`.  `settings` records, as
    a JSON mapping, what the corpus was prepared with; None when not
    recorded.
    """

    vocabulary: Vocabulary
    documents: tuple[EncodedDocument, ...]
    skipped_empty: tuple[str, ...] = ()
    warnings: tuple[str, ...] = field(default_factory=tuple)
    settings: dict | None = None

    def __post_init__(self):
        v = len(self.vocabulary)
        for doc in self.documents:
            if doc.token_ids.size and int(doc.token_ids.max()) >= v:
                raise ValueError(f"document {doc.spec.id!r} has token id >= V")

    @property
    def n_documents(self) -> int:
        return len(self.documents)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(d.spec.id for d in self.documents)

    def total_tokens(self) -> int:
        return int(sum(d.token_ids.size for d in self.documents))

    def in_reading_order(self) -> tuple[EncodedDocument, ...]:
        """Documents sorted by order_index, manifest order breaking ties."""
        return tuple(sorted(
            self.documents,
            key=lambda d: d.spec.order_index,
        ))

    def save(self, path: str | Path, metadata: dict | None = None) -> None:
        """Write the corpus as compact JSON, `documents` as one object of
        equal-length columns in document order and the documents' term
        ids, concatenated, as one `pack_ids` string."""
        specs = [d.spec for d in self.documents]
        lengths = [d.retained for d in self.documents]
        tokens = np.concatenate([np.zeros(0, np.int32), *(d.token_ids for d in self.documents)])
        payload = {
            "format_version": CORPUS_FORMAT_VERSION,
            "kind": "corpus",
            "metadata": metadata or {},
            "vocabulary": self.vocabulary.to_payload(),
            "tokens_sha256": ids_sha256(np.array(lengths), tokens),
            "documents": {
                "id": [s.id for s in specs],
                "read_date": [str(s.read_date) if s.read_date else None for s in specs],
                "pub_date": [str(s.pub_date) if s.pub_date else None for s in specs],
                "order_index": [s.order_index for s in specs],
                "length": lengths,
                "dropped": [d.dropped for d in self.documents],
                "token_ids": pack_ids(tokens, len(self.vocabulary)),
            },
            "skipped_empty": list(self.skipped_empty),
            "warnings": list(self.warnings),
            "settings": self.settings,
        }
        Path(path).write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Corpus":
        """Read a corpus file.

        Raises ValueError for a file of another kind or format version,
        and, naming the field, for a `settings` value that is not a
        mapping or null, a `vocabulary`, `skipped_empty` or `warnings`
        entry of the wrong type (naming the entry too), a `documents`
        value that is not a mapping of equal-length columns or has an
        entry of the wrong type (naming the document too), or a
        `documents.token_ids` that does not unpack to as many term ids
        in [0, V) as `documents.length` sums to (naming the document
        that holds an id at or above V), or lengths and term ids that do
        not hash to `tokens_sha256`.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or payload.get("kind") != "corpus":
            raise ValueError(f"{path} is not a corpus file")
        if payload.get("format_version") != CORPUS_FORMAT_VERSION:
            raise ValueError(
                f"unsupported corpus format_version {payload.get('format_version')!r}"
            )
        settings = payload.get("settings")
        if settings is not None and not isinstance(settings, dict):
            raise ValueError("field 'settings' must be a mapping")
        vocabulary = payload["vocabulary"]
        terms, frequencies = vocabulary["terms"], vocabulary["frequencies"]
        vocab = Vocabulary(
            _read_column("vocabulary.terms", terms, _string, "a string", terms),
            _read_column("vocabulary.frequencies", frequencies, _count,
                         "a non-negative integer", frequencies),
        )
        columns = payload["documents"]
        if not isinstance(columns, dict):
            raise ValueError("field 'documents' must be a mapping of columns")
        for name in _DOCUMENT_COLUMNS:
            if not isinstance(columns.get(name), list):
                raise ValueError(f"field 'documents.{name}' is missing or not a list")
            if len(columns[name]) != len(columns["id"]):
                raise ValueError(
                    f"field 'documents.{name}' has {len(columns[name])} entries, "
                    f"'documents.id' has {len(columns['id'])}"
                )
        ids = columns["id"]
        readers = {"id": _string, "read_date": _date, "pub_date": _date,
                   "order_index": _count, "length": _count, "dropped": _count}
        values = {name: _read_column(f"documents.{name}", columns[name], readers[name], kind, ids)
                  for name, kind in _DOCUMENT_COLUMNS.items()}
        tokens = _read_packed("documents.token_ids", columns.get("token_ids"), len(vocab),
                              "base64 of term ids in [0, V)", values["length"], ids)
        if payload["tokens_sha256"] != ids_sha256(np.array(values["length"]), tokens):
            raise ValueError(f"{path}: documents.length or documents.token_ids do not match "
                             "tokens_sha256")
        docs = tuple(
            EncodedDocument(
                spec=DocumentSpec(
                    id=doc_id, read_date=read_date, pub_date=pub_date,
                    order_index=order_index,
                ),
                token_ids=token_ids,
                dropped=dropped,
            )
            for doc_id, read_date, pub_date, order_index, token_ids, dropped in zip(
                values["id"], values["read_date"], values["pub_date"], values["order_index"],
                np.split(tokens, np.cumsum(values["length"])[:-1]), values["dropped"],
            )
        )
        return cls(
            vocabulary=vocab,
            documents=docs,
            skipped_empty=tuple(_read_column("skipped_empty", payload["skipped_empty"],
                                             _string, "a string", payload["skipped_empty"])),
            warnings=tuple(_read_column("warnings", payload["warnings"], _string, "a string",
                                        payload["warnings"])),
            settings=settings,
        )


def _string(entry) -> str:
    if type(entry) is not str:
        raise TypeError
    return entry


def _date(entry) -> PartialDate | None:
    return None if entry is None else PartialDate.parse(_string(entry))


def _count(entry) -> int:
    if type(entry) is not int or entry < 0:  # `type`: a bool is not a count
        raise TypeError
    return entry


def _read_column(field: str, entries: list, reader, kind: str, labels: list) -> list:
    """A column of a corpus or model file, each entry through `reader`;
    a ValueError names `field` and the index and label of the first
    entry that `reader` rejects with TypeError or ValueError, and adds
    the reason the error gives, if any."""
    if not isinstance(entries, list):
        raise ValueError(f"field '{field}' is not a list")
    values = []
    for i, entry in enumerate(entries):
        try:
            values.append(reader(entry))
        except (TypeError, ValueError) as exc:
            reason = f": {exc}" if str(exc) else ""
            raise ValueError(f"field '{field}' entry {i} ({labels[i]}) is not {kind}"
                             f"{reason}") from None
    return values


def ids_sha256(*arrays: np.ndarray) -> str:
    """SHA-256 over integer arrays, each entering as its size and then
    its values, every number a little-endian int64, so the byte stream
    fixes every array."""
    h = hashlib.sha256()
    for values in arrays:
        h.update(values.size.to_bytes(8, "little"))
        h.update(values.astype("<i8").tobytes())
    return h.hexdigest()


def _bits(bound: int) -> int:
    """Bits per value of a packed array whose values lie in [0, bound)."""
    return max(1, (bound - 1).bit_length())


def pack_ids(values: np.ndarray, bound: int) -> str:
    """`values`, each in [0, bound), as padded base64 of one bit string:
    `_bits(bound)` bits per value, least significant first, values in
    order, and zero bits up to the next whole byte."""
    width, n = _bits(bound), values.size
    # eight values fill `width` bytes: one row of `lanes` is one such run,
    # and one row of `words` its bytes, read as little-endian 64-bit words
    lanes = np.zeros(-(-n // 8) * 8, np.uint64)
    lanes[:n] = values
    lanes = lanes.reshape(-1, 8)
    words = np.zeros((len(lanes), -(-width // 8)), "<u8")
    for j in range(8):
        word, shift = divmod(j * width, 64)
        words[:, word] |= lanes[:, j] << np.uint64(shift)
        if shift + width > 64:
            words[:, word + 1] |= lanes[:, j] >> np.uint64(64 - shift)
    raw = words.view(np.uint8)[:, :width].reshape(-1)[:-(-n * width // 8)]
    return base64.b64encode(raw.tobytes()).decode("ascii")


class _AboveBound(ValueError):
    """A packed value at or above its bound, the `index`-th of its array."""

    def __init__(self, index: int, value: int, bound: int):
        super().__init__(f"holds {value}, not below {bound}")
        self.index = index


def unpack_ids(text: str, bound: int, count: int) -> np.ndarray:
    """The `count` int32 values that `pack_ids(values, bound)` wrote.

    Raises ValueError, saying why, for a non-string, text that is not
    padded base64, a byte count other than the one `count` values take,
    a padding bit that is not zero, or a value not below `bound`.
    """
    if type(text) is not str:
        raise ValueError("not a string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise ValueError("bad base64") from None
    width = _bits(bound)
    size = -(-count * width // 8)
    if len(raw) != size:
        raise ValueError(f"{len(raw)} bytes, not {size} for {count} values of {width} bits")
    runs = np.zeros(-(-count // 8) * width, np.uint8)  # as in `pack_ids`
    runs[:size] = np.frombuffer(raw, np.uint8)
    words = np.zeros((len(runs) // width, 8 * -(-width // 8)), np.uint8)
    words[:, :width] = runs.reshape(-1, width)
    words = words.view("<u8")
    lanes = np.empty((len(words), 8), np.uint64)
    for j in range(8):
        word, shift = divmod(j * width, 64)
        lanes[:, j] = words[:, word] >> np.uint64(shift)
        if shift + width > 64:
            lanes[:, j] |= words[:, word + 1] << np.uint64(64 - shift)
    values = lanes.reshape(-1) & np.uint64((1 << width) - 1)
    if values[count:].any():  # the lanes past `count` hold every padding bit
        raise ValueError("a padding bit is not zero")
    values = values[:count]
    above = np.flatnonzero(values >= bound)
    if above.size:
        raise _AboveBound(int(above[0]), int(values[above[0]]), bound)
    return values.astype(np.int32)


def _read_packed(field: str, text, bound: int, kind: str, lengths: list[int],
                 labels: list) -> np.ndarray:
    """The values of a packed field of a corpus or model file, documents
    of `lengths` concatenated; a ValueError names `field`, says why, and
    names the document, by index and label, that holds a value at or
    above `bound`."""
    try:
        return unpack_ids(text, bound, sum(lengths))
    except _AboveBound as exc:
        doc = int(np.searchsorted(np.cumsum(lengths), exc.index, side="right"))
        raise ValueError(f"field '{field}' is not {kind}: document {doc} ({labels[doc]}) "
                         f"{exc}") from None
    except ValueError as exc:
        raise ValueError(f"field '{field}' is not {kind}: {exc}") from None


def encode_corpus(
    specs: Sequence[DocumentSpec],
    token_docs: Sequence[Sequence[str]],
    vocabulary: Vocabulary,
    on_empty: str = "skip",
) -> Corpus:
    """Encode tokenized documents against `vocabulary`.

    Tokens outside the vocabulary are dropped and counted per document.
    Documents left empty are skipped (and recorded) by default, or
    rejected when on_empty="error".  Duplicate document ids are
    rejected; date-constraint violations are collected as warnings.
    """
    if len(specs) != len(token_docs):
        raise ValueError("specs and token_docs are not aligned")
    if on_empty not in ("skip", "error"):
        raise ValueError(f"on_empty must be 'skip' or 'error', got {on_empty!r}")
    seen = set()
    for spec in specs:
        if spec.id in seen:
            raise ValueError(f"duplicate document id {spec.id!r}")
        seen.add(spec.id)

    documents = []
    skipped = []
    for spec, tokens in zip(specs, token_docs):
        ids = vocabulary.encode(tokens)
        dropped = len(tokens) - ids.size
        if ids.size == 0:
            if on_empty == "error":
                raise ValueError(f"document {spec.id!r} has no in-vocabulary tokens")
            skipped.append(spec.id)
            continue
        documents.append(EncodedDocument(spec=spec, token_ids=ids, dropped=dropped))

    warnings = tuple(date_violations(specs))
    return Corpus(
        vocabulary=vocabulary,
        documents=tuple(documents),
        skipped_empty=tuple(skipped),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Manifest


def load_manifest(path: str | Path) -> list[DocumentSpec]:
    """Read a JSON-lines manifest of documents.

    Each line is an object with fields id (a string), text_path (or
    inline text), read_date, pub_date, and order_index (an integer);
    order_index defaults to the line number, so manifest order is the
    reading order unless stated.
    """
    specs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno + 1}: invalid JSON: {exc}") from exc
            if not isinstance(entry, dict) or "id" not in entry:
                raise ValueError(f"{path}:{lineno + 1}: missing 'id'")
            if not isinstance(entry["id"], str):
                raise ValueError(f"{path}:{lineno + 1}: 'id' must be a string")
            for name in ("text", "text_path"):
                if entry.get(name) is not None and not isinstance(entry[name], str):
                    raise ValueError(f"{path}:{lineno + 1}: '{name}' must be a string")
            order_index = entry.get("order_index", lineno)
            if type(order_index) is not int:  # bool is an int subclass
                raise ValueError(f"{path}:{lineno + 1}: 'order_index' must be an integer")
            try:
                specs.append(
                    DocumentSpec(
                        id=entry["id"],
                        text=entry.get("text"),
                        text_path=entry.get("text_path"),
                        read_date=entry.get("read_date"),
                        pub_date=entry.get("pub_date"),
                        order_index=order_index,
                    )
                )
            except (TypeError, ValueError) as exc:  # a date or a negative order_index
                raise ValueError(f"{path}:{lineno + 1}: {exc}") from exc
    ids = [s.id for s in specs]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"{path}: duplicate manifest ids: {', '.join(dupes)}")
    return specs
