import base64
import dataclasses
import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from textforage.corpus import (
    Corpus,
    DocumentSpec,
    FilterConfig,
    PartialDate,
    Vocabulary,
    build_vocabulary,
    date_violations,
    encode_corpus,
    load_manifest,
    pack_ids,
    tokenize,
    unpack_ids,
)

from conftest import packed


class TestTokenize:
    def test_merges_cross_line_hyphens(self):
        assert tokenize("mod-\nification of species") == ["modification", "of", "species"]

    def test_lowercases(self):
        assert tokenize("Origin") == ["origin"]

    def test_drops_punctuation_and_numerals(self):
        assert tokenize("8vo vols. 1842") == []

    def test_empty_input(self):
        assert tokenize("") == []

    def test_ascii_folding(self):
        assert tokenize("Münchhausen naïve") == ["munchhausen", "naive"]

    def test_ligatures_survive_folding(self):
        assert tokenize("Æsop's") == []  # apostrophe disqualifies the token
        assert tokenize("encyclopædia cœur") == ["encyclopaedia", "coeur"]

    def test_hyphen_inside_line_not_merged(self):
        # only line-breaking hyphens are merged; an inline hyphen makes
        # the token punctuation-bearing, so it is dropped
        assert tokenize("well-known fact") == ["fact"]

    def test_idempotent_on_own_output(self):
        text = "The Mod-\nified ORIGIN of 12 Species; well étude"
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    def test_deterministic(self):
        text = "Some Repeated-\ninput with 8vo noise."
        assert tokenize(text) == tokenize(text)


class TestBuildVocabulary:
    def test_min_count_excludes_rare(self):
        docs = [["a"] * 100 + ["b"] * 29 + ["c"] * 50]
        vocab = build_vocabulary(docs, FilterConfig(min_count=30))
        assert set(vocab.id_to_term) == {"a", "c"}

    def test_stoplist(self):
        docs = [["the", "origin", "the"]]
        vocab = build_vocabulary(docs, FilterConfig(stopwords={"the"}))
        assert "the" not in vocab
        assert "origin" in vocab

    def test_top_mass_removes_whole_classes(self):
        docs = [["a"] * 60 + ["b"] * 25 + ["c"] * 10 + ["d"] * 5]
        vocab = build_vocabulary(docs, FilterConfig(top_mass=0.5))
        # 'a' alone carries 60% >= 50%, so only 'a' goes
        assert set(vocab.id_to_term) == {"b", "c", "d"}

    def test_top_mass_keeps_removing_until_reached(self):
        docs = [["a"] * 40 + ["b"] * 30 + ["c"] * 20 + ["d"] * 10]
        vocab = build_vocabulary(docs, FilterConfig(top_mass=0.5))
        # a (40%) is not enough; b joins (70% >= 50%)
        assert set(vocab.id_to_term) == {"c", "d"}

    def test_bottom_mass(self):
        docs = [["a"] * 60 + ["b"] * 25 + ["c"] * 10 + ["d"] * 5]
        vocab = build_vocabulary(docs, FilterConfig(bottom_mass=0.1))
        # d (5%) then c (15% >= 10%) are removed from the rare end
        assert set(vocab.id_to_term) == {"a", "b"}

    def test_frequency_ties_removed_together(self):
        docs = [["a"] * 10 + ["b"] * 10 + ["c"] * 10 + ["d"] * 5]
        vocab = build_vocabulary(docs, FilterConfig(top_mass=0.2))
        # a, b, c tie at count 10; the whole class is removed together
        assert set(vocab.id_to_term) == {"d"}

    def test_order_independence(self):
        docs = [["x", "y"], ["y", "z", "z"], ["x"] * 5]
        filt = FilterConfig(min_count=2, top_mass=0.4)
        forward = build_vocabulary(docs, filt)
        backward = build_vocabulary(list(reversed(docs)), filt)
        assert forward.id_to_term == backward.id_to_term

    def test_exhausted_vocabulary_raises(self):
        with pytest.raises(ValueError, match="vocabulary exhausted"):
            build_vocabulary([["a", "b"]], FilterConfig(min_count=10))

    def test_bijection_and_dense_ids(self):
        vocab = build_vocabulary([["b", "a", "c", "b"]])
        assert sorted(vocab.term_to_id.values()) == [0, 1, 2]
        for term, idx in vocab.term_to_id.items():
            assert vocab.id_to_term[idx] == term

    def test_frequency_sum_matches_encoded_tokens(self):
        docs = [["a", "b", "a"], ["c", "b", "zz"]]
        vocab = build_vocabulary(docs, FilterConfig(min_count=2))
        corpus = encode_corpus(
            [DocumentSpec(id=f"d{i}", order_index=i) for i in range(2)], docs, vocab
        )
        assert int(vocab.corpus_frequency.sum()) == corpus.total_tokens()


class TestEncodeCorpus:
    def test_oov_dropped_and_counted(self):
        vocab = Vocabulary(["a", "b"], [1, 1])
        corpus = encode_corpus(
            [DocumentSpec(id="d0")], [["a", "x", "b"]], vocab
        )
        doc = corpus.documents[0]
        assert doc.token_ids.tolist() == [0, 1]
        assert doc.dropped == 1

    def test_empty_document_flagged_and_skipped(self):
        vocab = Vocabulary(["a"], [1])
        corpus = encode_corpus(
            [DocumentSpec(id="d0"), DocumentSpec(id="d1")],
            [["x", "y"], ["a"]],
            vocab,
        )
        assert corpus.skipped_empty == ("d0",)
        assert corpus.doc_ids == ("d1",)

    def test_empty_document_error_mode(self):
        vocab = Vocabulary(["a"], [1])
        with pytest.raises(ValueError, match="no in-vocabulary"):
            encode_corpus([DocumentSpec(id="d0")], [["x"]], vocab, on_empty="error")

    def test_decode_restores_in_vocabulary_subsequence(self):
        vocab = Vocabulary(["a", "b"], [1, 1])
        tokens = ["a", "x", "b", "a"]
        ids = vocab.encode(tokens)
        assert vocab.decode(ids) == ["a", "b", "a"]

    def test_duplicate_ids_rejected(self):
        vocab = Vocabulary(["a"], [1])
        with pytest.raises(ValueError, match="duplicate"):
            encode_corpus(
                [DocumentSpec(id="d"), DocumentSpec(id="d")], [["a"], ["a"]], vocab
            )

    def test_save_load_roundtrip(self, tmp_path):
        vocab = Vocabulary(["a", "b"], [3, 1])
        corpus = encode_corpus(
            [
                DocumentSpec(id="d0", read_date="1845-03", pub_date="1840", order_index=1),
                DocumentSpec(id="d1", read_date="1846", pub_date="1841-02-01", order_index=0),
            ],
            [["a", "a", "b"], ["a"]],
            vocab,
        )
        path = tmp_path / "corpus.json"
        corpus.save(path)
        loaded = Corpus.load(path)
        assert loaded.doc_ids == corpus.doc_ids
        assert loaded.vocabulary.id_to_term == vocab.id_to_term
        assert loaded.vocabulary.sha256() == vocab.sha256()
        assert [d.token_ids.tolist() for d in loaded.documents] == [
            d.token_ids.tolist() for d in corpus.documents
        ]
        assert loaded.in_reading_order()[0].spec.id == "d1"

    def test_format_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "corpus", "format_version": 99}))
        with pytest.raises(ValueError, match="format_version"):
            Corpus.load(path)

    @staticmethod
    def _saved(tmp_path):
        """A two-document corpus saved at `tmp_path`: (corpus, path)."""
        vocab = Vocabulary(["a", "b"], [3, 1])
        corpus = encode_corpus(
            [DocumentSpec(id='d, 0: "x"', read_date="1845-03", order_index=1),
             DocumentSpec(id="d1", pub_date="1841-02-01", order_index=0)],
            [["a", "a", "b", "zz"], ["a"]],
            vocab,
        )
        path = tmp_path / "corpus.json"
        corpus.save(path)
        return corpus, path

    def test_documents_are_columns(self, tmp_path):
        corpus, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 5
        digest = hashlib.sha256()  # each array's size, then its values, as <i8
        for values in ([3, 1], [0, 0, 1, 0]):
            digest.update(struct.pack(f"<{len(values) + 1}q", len(values), *values))
        assert payload["tokens_sha256"] == digest.hexdigest()
        assert payload["documents"] == {
            "id": ['d, 0: "x"', "d1"],
            "read_date": ["1845-03", None],
            "pub_date": [None, "1841-02-01"],
            "order_index": [1, 0],
            "length": [3, 1],
            "dropped": [1, 0],
            "token_ids": "BA==",  # ids 0 0 1 0 at one bit each (V = 2): byte 00000100
        }
        loaded = Corpus.load(path)
        assert [(d.spec, d.token_ids.tolist(), d.dropped) for d in loaded.documents] == [
            (d.spec, d.token_ids.tolist(), d.dropped) for d in corpus.documents
        ]

    def test_repeated_id_rejected(self, tmp_path):
        """`tokens_sha256` covers the lengths and term ids only; the ids
        label the documents, so `load` checks them."""
        _, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["documents"]["id"][1] = payload["documents"]["id"][0]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(
                """field 'documents.id' entry 1 (d, 0: "x") repeats entry 0""")):
            Corpus.load(path)

    def test_format_1_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        columns = payload["documents"]
        payload["format_version"] = 1
        payload["documents"] = [dict(zip(columns, row)) for row in zip(*columns.values())]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported corpus format_version 1"):
            Corpus.load(path)

    def test_format_2_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        columns = payload["documents"]
        payload["format_version"] = 2
        columns["token_ids"] = [[0, 0, 1], [0]]
        del columns["length"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported corpus format_version 2"):
            Corpus.load(path)

    def test_format_4_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 4  # no tokens_sha256
        del payload["tokens_sha256"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported corpus format_version 4"):
            Corpus.load(path)

    def test_lengths_within_the_padding_do_not_match_the_digest(self, tmp_path):
        """Lengths [3, 1] edited to [3, 5] still fit the one byte of
        `token_ids`, whose zero padding would read as four more ids 0;
        `tokens_sha256` rejects them, and a length moved between
        documents too."""
        _, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        for lengths in ([3, 5], [2, 2]):
            payload["documents"]["length"] = lengths
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=re.escape(
                    "documents.length or documents.token_ids do not match tokens_sha256")):
                Corpus.load(path)

    def test_format_3_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        columns = payload["documents"]
        payload["format_version"] = 3  # one string per document, one byte per id
        columns["token_ids"] = [base64.b64encode(bytes(ids)).decode() for ids in ([0, 0, 1], [0])]
        del columns["length"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported corpus format_version 3"):
            Corpus.load(path)

    @pytest.mark.parametrize("tamper, named", [
        (lambda docs: docs.pop("dropped"), "'documents.dropped' is missing"),
        (lambda docs: docs["read_date"].pop(), "'documents.read_date' has 1 entries"),
        (lambda docs: docs["length"].append(0), "'documents.length' has 3 entries"),
        (lambda docs: docs["id"].pop(), "'documents.read_date' has 2 entries, "
                                        "'documents.id' has 1"),
        (lambda docs: docs.update(order_index=None), "'documents.order_index' is missing"),
    ], ids=["missing-column", "short-column", "long-column", "short-id", "not-a-list"])
    def test_malformed_columns_rejected(self, tmp_path, tamper, named):
        _, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        tamper(payload["documents"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=named):
            Corpus.load(path)

    @pytest.mark.parametrize("name, entry", [
        ("id", 7),
        ("read_date", 1845),
        ("pub_date", "1841-13"),
        ("order_index", "0"),
        ("order_index", True),
        ("order_index", -1),
        ("order_index", 1.0),
        ("length", -1),
        ("length", 1.0),
        ("length", True),
        ("length", "1"),
        ("length", None),
        ("dropped", None),
        ("dropped", -1),
    ])
    def test_wrong_entry_names_the_field_and_the_document(self, tmp_path, name, entry):
        _, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["documents"][name][1] = entry
        path.write_text(json.dumps(payload))
        doc = entry if name == "id" else "d1"
        with pytest.raises(ValueError, match=re.escape(f"field 'documents.{name}' entry 1 ({doc})")):
            Corpus.load(path)

    @pytest.mark.parametrize("entry, reason", [
        (packed([0, 0, 1, 0, 0, 0, 0, 0, 0], 2), "2 bytes, not 1 for 4 values of 1 bits"),
        ("AA-=", "bad base64"),  # "-" is in the URL-safe alphabet only
        ("AA\u00e9=", "bad base64"),
        ([0, 1], "not a string"),  # format 2's entry for one document
        (None, "not a string"),
        ("", "0 bytes, not 1 for 4 values of 1 bits"),
        (packed([0, 0, 1, 0, 1], 2), "a padding bit is not zero"),
    ])
    def test_bad_token_ids_say_why(self, tmp_path, entry, reason):
        _, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["documents"]["token_ids"] = entry
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(
                f"field 'documents.token_ids' is not base64 of term ids in [0, V): {reason}")):
            Corpus.load(path)

    @pytest.mark.parametrize("lengths, reason", [
        ([3, 9], "1 bytes, not 2 for 12 values of 1 bits"),
        ([1, 1], "a padding bit is not zero"),  # the third id, 1, falls in the padding
    ], ids=["sum-past-the-bytes", "sum-short-of-the-ids"])
    def test_lengths_that_miss_the_token_ids_are_rejected(self, tmp_path, lengths, reason):
        """`documents.length` sets how many ids `documents.token_ids`
        holds; the byte count and the zero padding check the sum."""
        _, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["documents"]["length"] = lengths
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(
                f"field 'documents.token_ids' is not base64 of term ids in [0, V): {reason}")):
            Corpus.load(path)

    def test_term_id_at_or_above_v_names_the_document(self, tmp_path):
        """At V = 300 an id takes nine bits, which can hold 300 too; the
        error names the document holding it."""
        terms = [f"t{i}" for i in range(300)]
        corpus = encode_corpus([DocumentSpec(id="d0"), DocumentSpec(id="d1")],
                               [["t299", "t0"], ["t5", "t6"]], Vocabulary(terms, [1] * 300))
        path = tmp_path / "corpus.json"
        corpus.save(path)
        payload = json.loads(path.read_text())
        assert payload["documents"]["token_ids"] == packed([299, 0, 5, 6], 300)
        assert Corpus.load(path).documents[1].token_ids.tolist() == [5, 6]
        payload["documents"]["token_ids"] = packed([299, 0, 5, 300], 300)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(
                "field 'documents.token_ids' is not base64 of term ids in [0, V): "
                "document 1 (d1) holds 300, not below 300")):
            Corpus.load(path)

    def test_documents_must_be_a_mapping(self, tmp_path):
        _, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["documents"] = list(payload["documents"].values())
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="'documents' must be a mapping"):
            Corpus.load(path)

    def test_settings_roundtrip(self, tmp_path):
        corpus, path = self._saved(tmp_path)
        assert Corpus.load(path).settings is None
        settings = {"tokenizer": {"ascii_fold": False}, "filter": {"stopwords": ["a"]}}
        dataclasses.replace(corpus, settings=settings).save(path)
        assert Corpus.load(path).settings == settings

    def test_settings_must_be_a_mapping(self, tmp_path):
        _, path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["settings"] = ["a"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="field 'settings' must be a mapping"):
            Corpus.load(path)

    def test_save_is_byte_stable_through_roundtrip(self, tmp_path):
        vocab = Vocabulary(["a", "b"], [3, 1])
        corpus = encode_corpus(
            [DocumentSpec(id="d0", read_date="1845", pub_date="1840")],
            [["a", "a", "b"]],
            vocab,
        )
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        corpus.save(first)
        Corpus.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()


class TestDates:
    def test_parse_precisions(self):
        assert str(PartialDate.parse("1842")) == "1842"
        assert str(PartialDate.parse("1842-05")) == "1842-05"
        assert str(PartialDate.parse("1842-05-04")) == "1842-05-04"

    def test_earliest_latest(self):
        d = PartialDate.parse("1844-02")
        assert d.earliest().isoformat() == "1844-02-01"
        assert d.latest().isoformat() == "1844-02-29"  # leap year

    def test_invalid(self):
        with pytest.raises(ValueError):
            PartialDate.parse("1842-13")
        with pytest.raises(ValueError):
            PartialDate.parse("05-1842")

    def test_violations_are_conservative(self):
        # pub in the same year as reading: earliest pub interpretation
        # precedes latest read interpretation, so no violation
        ok = DocumentSpec(id="x", read_date="1845", pub_date="1845-12")
        bad = DocumentSpec(id="y", read_date="1845-01-01", pub_date="1845-02")
        assert date_violations([ok]) == []
        violations = date_violations([ok, bad])
        assert len(violations) == 1 and violations[0].startswith("y:")


class TestManifest:
    def test_load(self, tmp_path):
        lines = [
            {"id": "b", "text": "one two", "read_date": "1850", "pub_date": "1849"},
            {"id": "a", "text": "three", "order_index": 5},
        ]
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines))
        specs = load_manifest(path)
        assert [s.id for s in specs] == ["b", "a"]
        assert specs[0].order_index == 0  # defaults to line number
        assert specs[1].order_index == 5
        assert str(specs[0].pub_date) == "1849"

    def test_duplicate_ids(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"id": "a"}\n{"id": "a"}\n')
        with pytest.raises(ValueError, match="duplicate"):
            load_manifest(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"id": "a"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_manifest(path)


# each power of two up to 2**16 and its neighbours: the width grows by a
# bit from 2**j to 2**j + 1
_WIDTH_BOUNDS = sorted({70_000} | {2**j + d for j in range(17) for d in (-1, 0, 1)} - {0})


@given(bound=st.one_of(st.sampled_from(_WIDTH_BOUNDS), st.integers(1, 70_000)),
       data=st.data())
def test_pack_ids_round_trip_at_the_width_bounds(bound, data):
    """Each id takes the bits of `bound - 1`, at least one: eight at a
    bound of 256 and nine at 257.  The string is the reference packing,
    unpacks to the ids, and an id at the bound is rejected wherever the
    width can hold it."""
    values = data.draw(st.lists(st.integers(0, bound - 1), max_size=200))
    width = max(1, (bound - 1).bit_length())
    text = pack_ids(np.array(values, dtype=np.int32), bound)
    assert text == packed(values, bound)
    assert len(base64.b64decode(text)) == -(-len(values) * width // 8)
    got = unpack_ids(text, bound, len(values))
    assert got.dtype == np.int32 and got.tolist() == values
    if values and bound < 1 << width:  # `bound` itself fits in the width
        i = data.draw(st.integers(0, len(values) - 1))
        above = values[:i] + [bound] + values[i + 1:]
        with pytest.raises(ValueError, match=f"^holds {bound}, not below {bound}$"):
            unpack_ids(packed(above, bound), bound, len(values))
