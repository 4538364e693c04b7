import base64
import contextlib
import csv
import filecmp
import hashlib
import importlib
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

import textforage
from textforage import _gibbs, cli, lda, modelcompare, nullmodels
from textforage.corpus import (CORPUS_FORMAT_VERSION, Corpus, DocumentSpec, Vocabulary,
                               encode_corpus)
from textforage.errors import ConfigError
from textforage.measures import surprise_series, surprise_values
from textforage.seeds import derive_seed, rng_from
from textforage.synthetic import FixtureSpec, make_fixture

from conftest import packed, reference_constrained_permutation, reference_rank_payload, unpacked


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """A small synthetic corpus plus a fast pipeline config."""
    root = tmp_path_factory.mktemp("fixture")
    make_fixture(root, seed=5, spec=FixtureSpec(n_docs=20, n_topics=3, terms_per_topic=25))
    config = {
        "manifest": "manifest.jsonl",
        "output_dir": "out",
        "seed": 3,
        "filter": {"min_count": 2},
        "training": {"ks": [3, 4], "iterations": 40},
        "null_model": {"permutations": 30},
        "epochs": {"max_epochs": 2, "min_len": 4},
        "fit": {"documents": ["query_0.txt"], "samples": 8,
                "iterations": 15, "cluster_range": [2, 4]},
    }
    (root / "config.yaml").write_text(yaml.safe_dump(config))
    return root


def run_cli(*args):
    return cli.main(list(args))


class TestFixtureCommand:
    def test_writes_manifest_and_config(self, tmp_path):
        out = tmp_path / "fx"
        assert run_cli("fixture", "--out", str(out), "--seed", "9") == 0
        assert (out / "manifest.jsonl").is_file()
        assert (out / "config.yaml").is_file()
        assert (out / "query_0.txt").is_file()


class TestPipeline:
    def test_full_pipeline_emits_all_artifacts(self, fixture_dir):
        assert run_cli("pipeline", "--config", str(fixture_dir / "config.yaml")) == 0
        out = fixture_dir / "out"
        expected = [
            "corpus.json", "model_k3.json", "model_k4.json",
            "series_k3_t2t.csv", "series_k3_t2p.csv",
            "null_k3_summary.json", "null_k3_means.csv", "null_k3_ranks.json",
            "null_k3_series.csv", "null_k4_series.csv",
            "epochs_k3_t2t.json", "epochs_k3_t2p.json",
            "fit_query_0_k3_samples.csv", "fit_query_0_k3_clusters.json",
            "compare_k3_vs_k4.csv", "compare_k3_vs_k4.json",
        ]
        for name in expected:
            assert (out / name).is_file(), name
        assert list(out.glob("null_k*_cumrel_*")) == []

    def test_reruns_are_byte_identical(self, fixture_dir):
        config = str(fixture_dir / "config.yaml")
        assert run_cli("pipeline", "--config", config, "--out", str(fixture_dir / "a")) == 0
        assert run_cli("pipeline", "--config", config, "--out", str(fixture_dir / "b")) == 0
        a, b = fixture_dir / "a", fixture_dir / "b"
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_moving_the_inputs_keeps_every_artifact(self, tmp_path):
        # the config hash sees `manifest` and `fit.documents` as the
        # config spells them, not resolved against where the inputs sit
        first, second = tmp_path / "first", tmp_path / "elsewhere" / "second"
        small_pipeline(first, fit={"documents": ["query_0.txt"], "samples": 4,
                                   "iterations": 5, "cluster_range": [2, 3]})
        shutil.copytree(first, second)
        for root in (first, second):
            assert run_cli("pipeline", "--config", str(root / "config.yaml")) == 0
        a, b = first / "out", second / "out"
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_artifacts_carry_metadata(self, fixture_dir):
        out = fixture_dir / "out"
        if not (out / "series_k3_t2t.csv").is_file():
            run_cli("pipeline", "--config", str(fixture_dir / "config.yaml"))
        lines = (out / "series_k3_t2t.csv").read_text().splitlines()
        assert lines[0].startswith("# textforage=")
        assert lines[1].startswith("# config_sha256=")
        assert lines[2] == "# seed=3"
        payload = json.loads((out / "null_k3_summary.json").read_text())
        assert payload["metadata"]["seed"] == 3
        assert "config_sha256" in payload["metadata"]

    def test_seed_override_changes_outputs(self, fixture_dir, tmp_path):
        config = str(fixture_dir / "config.yaml")
        out = tmp_path / "seeded"
        assert run_cli("pipeline", "--config", config, "--out", str(out), "--seed", "99") == 0
        base = json.loads((fixture_dir / "out" / "null_k3_summary.json").read_text())
        other = json.loads((out / "null_k3_summary.json").read_text())
        assert base["metadata"]["config_sha256"] != other["metadata"]["config_sha256"]


# every CSV artifact of the `fixture_dir` pipeline, with its family
FIXTURE_CSVS = [
    *(("series", f"series_k{k}_{m}.csv") for k in (3, 4) for m in ("t2t", "t2p")),
    *(("means", f"null_k{k}_means.csv") for k in (3, 4)),
    *(("null_series", f"null_k{k}_series.csv") for k in (3, 4)),
    ("samples", "fit_query_0_k3_samples.csv"),
    ("compare", "compare_k3_vs_k4.csv"),
]


@pytest.fixture(scope="module")
def csv_run(fixture_dir):
    """The `fixture_dir` pipeline's output, its config and reading order."""
    config = fixture_dir / "config.yaml"
    out = fixture_dir / "csv"
    assert run_cli("pipeline", "--config", str(config), "--out", str(out)) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(n for _, n in FIXTURE_CSVS)
    corpus = Corpus.load(out / "corpus.json")
    return out, cli.load_config(config), list(corpus.doc_ids)


# the per-mode cumulative curves, no longer written but rebuilt from the
# series file and `null_k{k}_series.csv` under their former file names
DERIVED_CUMREL = [("cumrel", f"null_k{k}_cumrel_{m}.csv") for k in (3, 4) for m in ("t2t", "t2p")]


def check_derived_cumrel(out, item_ids, name):
    """The curve rebuilt from the two CSVs has one value per step, both
    files list the same items, and it ends at the summary's final bits."""
    assert not (out / name).exists()
    k, mode = re.fullmatch(r"null_k(\d+)_cumrel_(t2[tp])\.csv", name).groups()
    series = read_csv_rows(out / f"series_k{k}_{mode}.csv")
    null = read_csv_rows(out / f"null_k{k}_series.csv")
    steps = [str(i) for i in range(1, len(item_ids))]
    for rows in (series, null):
        assert [r["position"] for r in rows] == steps
        assert [r["item_id"] for r in rows] == item_ids[1:]
    curve = np.cumsum(np.array([float(r["bits"]) for r in series])
                      - np.array([float(r[f"{mode}_null_mean_bits"]) for r in null]))
    assert len(curve) == len(steps)
    summary = json.loads((out / f"null_k{k}_summary.json").read_text())["modes"][mode]
    assert float(curve[-1]) == summary["cumulative_relative_final_bits"]


@pytest.mark.parametrize("family, name", FIXTURE_CSVS + DERIVED_CUMREL,
                         ids=[n for _, n in FIXTURE_CSVS + DERIVED_CUMREL])
def test_csv_artifact_layout(csv_run, family, name):
    """Three metadata lines, the family's header, then one row per
    item, permutation, sample or topic, with `repr` floats. A former
    cumrel file is checked as the curve the two remaining files rebuild."""
    out, cfg, item_ids = csv_run
    if family == "cumrel":
        return check_derived_cumrel(out, item_ids, name)
    lines = (out / name).read_text(encoding="utf-8").splitlines()
    assert lines[:3] == [f"# textforage={textforage.__version__} format=1",
                         f"# config_sha256={cfg['config_sha256']}", f"# seed={cfg['seed']}"]
    header, *rows = csv.reader(lines[3:])
    steps = [str(i) for i in range(1, len(item_ids))]
    expected = {
        "series": (["position", "item_id", "bits"], [steps, item_ids[1:]]),
        "means": (["permutation", "t2p_mean_bits", "t2t_mean_bits"],
                  [[str(i) for i in range(cfg["null_model"]["permutations"])]]),
        "null_series": (["position", "item_id", "t2p_null_mean_bits", "t2t_null_mean_bits"],
                        [steps, item_ids[1:]]),
        "samples": (["sample", "dominant_topic", "perplexity"],
                    [[str(i) for i in range(cfg["fit"]["samples"])]]),
        "compare": (["topic_a", "topic_b", "js_distance"], [["0", "1", "2"]]),
    }
    columns, leading = expected[family]
    assert header == columns
    assert len(rows) == len(leading[0])
    assert [list(c) for c in zip(*rows)][: len(leading)] == leading
    floats = [i for i, c in enumerate(columns) if c.endswith(("bits", "perplexity", "distance"))]
    assert all(repr(float(row[i])) == row[i] for row in rows for i in floats)


def small_pipeline(root, **sections):
    """A 20-document fixture with one k and a short config under `root`."""
    make_fixture(root, seed=5, spec=FixtureSpec(n_docs=20, n_topics=3, terms_per_topic=25))
    config = {
        "manifest": "manifest.jsonl",
        "output_dir": "out",
        "seed": 3,
        "filter": {"min_count": 2},
        "training": {"ks": [2], "iterations": 20},
        "null_model": {"permutations": 20},
        "epochs": {"max_epochs": 2, "min_len": 4},
        **sections,
    }
    (root / "config.yaml").write_text(yaml.safe_dump(config))
    return str(root / "config.yaml")


# SHA-256 of the files `prepare` and `train` write for `small_pipeline`.
# They hashed the same with numpy's own CPU dispatch and with its AVX-512
# and AVX2 loops switched off by NPY_DISABLE_CPU_FEATURES. The model file
# holds the log joint trace, summed from the C library's `lgamma`; that
# its bits are the same on other hosts and libraries is unverified.
PREPARE_TRAIN_SHA256 = {
    "corpus.json": "cfea23a057398605e493572bf24f15b63effabe00ed711c0683f8f284dce4536",
    "prepare_summary.json": "3e0c2980e461b9d903970b7d62b29d83b4455539e3257f6a67bd3fb204d913e7",
    "model_k2.json": "5b2c29358ff9f59cb0d20aa80079eb41d585d2cf86c6f9a67d4457661da5342a",
}


def test_prepare_and_train_bytes_are_pinned(tmp_path):
    config = small_pipeline(tmp_path)
    assert run_cli("prepare", "--config", config) == 0
    assert run_cli("train", "--config", config) == 0
    assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in PREPARE_TRAIN_SHA256} == PREPARE_TRAIN_SHA256


def csv_column(path, name):
    """One column of an artifact CSV, as the strings written."""
    with open(path, newline="") as fh:
        return [row[name] for row in csv.DictReader(l for l in fh if not l.startswith("#"))]


def read_csv_rows(path):
    """The rows of a CSV artifact as dicts, past its `#` metadata lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(l for l in fh if not l.startswith("#")))


def small_pipeline_null(out, n):
    """theta, reading order and null comparison of the `small_pipeline`
    null stage at k=2, rebuilt from `out` with the stage's seed and d."""
    corpus = Corpus.load(out / "corpus.json")
    model = lda.TopicModel.load(out / "model_k2.json", corpus.vocabulary)
    theta, _ = lda.estimate_distributions(model, smoothing=True)
    order = nullmodels.ReadingOrder.from_corpus(corpus)
    null = nullmodels.null_ensemble(order, theta, n=n, seed=derive_seed(3, 2, "null"),
                                    d=nullmodels.kl_matrix(theta))
    return theta, order, null


class TestSeriesConsistency:
    def test_comma_in_id_reaches_epochs(self, tmp_path):
        config = small_pipeline(tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(manifest.read_text().replace('"doc005"', '"doc,005"'))
        assert run_cli("pipeline", "--config", config) == 0
        out = tmp_path / "out"
        corpus = Corpus.load(out / "corpus.json")
        item_ids = list(corpus.doc_ids)
        assert "doc,005" in item_ids
        model = lda.TopicModel.load(out / "model_k2.json", corpus.vocabulary)
        theta, _ = lda.estimate_distributions(model, smoothing=True)
        for mode in ("t2t", "t2p"):
            path = out / f"series_k2_{mode}.csv"
            assert csv_column(path, "item_id") == item_ids[1:]
            assert csv_column(path, "bits") == [
                repr(float(x)) for x in surprise_series(theta, mode).values]

    def test_null_honours_measure_smoothing(self, tmp_path):
        # at k=2 the raw (unsmoothed) theta of this corpus has full support
        config = small_pipeline(tmp_path, measure={"smoothing": False})
        assert run_cli("pipeline", "--config", config) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "null_k2_summary.json").read_text())
        for mode in ("t2t", "t2p"):
            series = np.array(csv_column(out / f"series_k2_{mode}.csv", "bits"), dtype=float)
            assert summary["modes"][mode]["actual_mean_bits"] == float(np.mean(series))

    def test_measured_series_is_the_null_actual_series(self, tmp_path):
        config = small_pipeline(tmp_path)
        assert run_cli("pipeline", "--config", config) == 0
        out = tmp_path / "out"
        _, _, null = small_pipeline_null(out, n=20)
        for mode in ("t2t", "t2p"):
            measured = csv_column(out / f"series_k2_{mode}.csv", "bits")
            assert measured == [repr(float(x)) for x in null.actual_series[mode]]

    def test_cumulative_curve_rebuilds_from_the_two_files(self, tmp_path):
        config = small_pipeline(tmp_path)
        assert run_cli("pipeline", "--config", config) == 0
        out = tmp_path / "out"
        _, _, null = small_pipeline_null(out, n=20)
        summary = json.loads((out / "null_k2_summary.json").read_text())["modes"]
        for mode in ("t2t", "t2p"):
            bits = np.array(csv_column(out / f"series_k2_{mode}.csv", "bits"), dtype=float)
            means = np.array(csv_column(out / "null_k2_series.csv", f"{mode}_null_mean_bits"),
                             dtype=float)
            curve = np.cumsum(bits - means)
            assert curve.tobytes() == null.cumulative_relative[mode].tobytes()
            assert float(curve[-1]) == summary[mode]["cumulative_relative_final_bits"]

    def test_null_series_has_one_column_per_mode(self, tmp_path):
        config = small_pipeline(tmp_path, measure={"modes": ["t2p"]})
        assert run_cli("pipeline", "--config", config) == 0
        lines = (tmp_path / "out" / "null_k2_series.csv").read_text().splitlines()
        assert lines[3] == "position,item_id,t2p_null_mean_bits"
        assert len(lines) == 4 + 19  # metadata, header, one row per step of 20 documents

    def test_ranks_file_is_the_per_step_reference(self, tmp_path):
        config = small_pipeline(tmp_path, null_model={"permutations": 40})
        assert run_cli("pipeline", "--config", config) == 0
        out = tmp_path / "out"
        theta, order, null = small_pipeline_null(out, n=40)
        written = (out / "null_k2_ranks.json").read_text()
        payload = reference_rank_payload(
            theta, np.arange(len(order)), null.permutations
        )
        body = {"metadata": json.loads(written)["metadata"], **payload}
        assert json.dumps(body, indent=2, sort_keys=True) + "\n" == written

    def test_means_file_is_the_per_slot_reference(self, tmp_path):
        config = small_pipeline(tmp_path, null_model={"permutations": 40})
        assert run_cli("pipeline", "--config", config) == 0
        out = tmp_path / "out"
        theta, order, _ = small_pipeline_null(out, n=40)
        seed = derive_seed(3, 2, "null")
        written = (out / "null_k2_means.csv").read_bytes().decode()
        body = io.StringIO()
        body.writelines(line for line in io.StringIO(written) if line.startswith("#"))
        writer = csv.writer(body)
        writer.writerow(["permutation", "t2p_mean_bits", "t2t_mean_bits"])
        for draw in range(40):
            rng = rng_from(derive_seed(seed, draw, "null"))
            perm = reference_constrained_permutation(order, rng)
            writer.writerow([draw] + [repr(float(surprise_values(theta[perm], mode).mean()))
                                      for mode in ("t2p", "t2t")])
        assert body.getvalue() == written


class TestInfeasibleOrder:
    @pytest.mark.parametrize("pub_date, named", [
        ("2099-01-01", "infeasible order"),
        (None, "documents without pub_date: doc000"),
    ], ids=["published-after-every-read", "no-pub-date"])
    def test_null_names_the_manifest_and_the_slot(self, tmp_path, capsys, pub_date, named):
        config = small_pipeline(tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        entries[0]["pub_date"] = pub_date
        manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
        for stage in ("prepare", "train", "measure"):
            assert run_cli(stage, "--config", config) == 0
        capsys.readouterr()
        assert run_cli("null", "--config", config) == 1
        err = capsys.readouterr().err
        assert "manifest.jsonl" in err and named in err and "Traceback" not in err
        if pub_date is not None:
            last = max(entries, key=lambda e: e["read_date"])
            assert f"({last['id']}, {last['read_date']})" in err
            assert "pub_date" in err and "read_date" in err
        assert not list((tmp_path / "out").glob("null_*"))


def assert_same_files(a, b, patterns=("*",)):
    """`a` and `b` hold the same files matching `patterns`, byte for byte."""
    names = sorted(p.name for pattern in patterns for p in b.glob(pattern))
    assert names and sorted(p.name for pattern in patterns for p in a.glob(pattern)) == names
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


REPORTS = ("null_*", "epochs_*")


class TestStageOrdering:
    def test_null_after_train_writes_the_pipeline_null_files(self, fixture_dir, csv_run,
                                                              tmp_path):
        config = str(fixture_dir / "config.yaml")
        out = tmp_path / "partial"
        for stage in ("prepare", "train", "null"):
            assert run_cli(stage, "--config", config, "--out", str(out)) == 0
        assert not list(out.glob("series_*"))
        assert_same_files(out, csv_run[0], patterns=("null_*",))

    def test_train_before_prepare_names_the_corpus(self, fixture_dir, tmp_path, capsys):
        config = str(fixture_dir / "config.yaml")
        code = run_cli("train", "--config", config, "--out", str(tmp_path / "empty"))
        assert code == 2
        err = capsys.readouterr().err
        assert "corpus.json" in err and "prepare" in err

    def test_compare_alone_with_one_k_names_the_field(self, tmp_path, capsys):
        config = small_pipeline(tmp_path)
        assert run_cli("compare", "--config", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: training.ks") and "Traceback" not in err
        assert not list(tmp_path.glob("out/*"))

    def test_fit_alone_without_documents_skips(self, tmp_path, capsys):
        config = small_pipeline(tmp_path)
        assert run_cli("fit", "--config", config) == 0
        assert capsys.readouterr().out == "fit: no documents configured; skipping\n"
        assert not list(tmp_path.glob("out/*"))


class TestStaleArtifacts:
    @pytest.mark.parametrize("tamper", ["z", "token", "truncated-z", "format-1",
                                        "config-not-a-mapping", "format-2", "format-3"])
    def test_tampered_model_names_the_file(self, tmp_path, capsys, tamper):
        config = small_pipeline(tmp_path)
        assert run_cli("prepare", "--config", config) == 0
        assert run_cli("train", "--config", config) == 0
        path = tmp_path / "out" / "model_k2.json"
        payload = json.loads(path.read_text())
        v = len(Corpus.load(tmp_path / "out" / "corpus.json").vocabulary)
        n = sum(payload["lengths"])
        z, tokens = unpacked(payload["z"], 2, n), unpacked(payload["tokens"], v, n)
        if tamper == "z":
            z[0] = 1 - z[0]
        elif tamper == "token":
            tokens[0] = 1 if tokens[0] == 0 else 0
        elif tamper == "truncated-z":
            del z[-8:]  # one byte of 1-bit topics
        elif tamper == "config-not-a-mapping":
            payload["config"] = [1]
        else:
            payload["format_version"] = int(tamper[-1])
        payload["z"], payload["tokens"] = packed(z, 2), packed(tokens, v)
        if tamper == "format-2":  # term ids and topics as JSON numbers
            payload.update(z=z, tokens=tokens)
        elif tamper == "format-3":  # one byte per term id or topic (V < 256)
            payload.update(z=base64.b64encode(bytes(z)).decode(),
                           tokens=base64.b64encode(bytes(tokens)).decode())
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("measure", "--config", config) == 2
        err = capsys.readouterr().err
        assert "model_k2.json" in err and "`train`" in err

    def test_sweep_count_off_the_trace_length_is_stale(self, tmp_path, capsys):
        config = small_pipeline(tmp_path)
        assert run_cli("prepare", "--config", config) == 0
        assert run_cli("train", "--config", config) == 0
        path = tmp_path / "out" / "model_k2.json"
        payload = json.loads(path.read_text())
        payload["sweeps_done"] -= 1
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("null", "--config", config) == 2
        err = capsys.readouterr().err
        assert "model_k2.json" in err and "sweeps_done 19" in err and "`train`" in err
        assert not list((tmp_path / "out").glob("null_*"))

    @pytest.mark.parametrize("tamper, named", [
        (lambda p: p.update(sweeps_done=True, log_likelihood_trace=p["log_likelihood_trace"][:1]),
         "field 'sweeps_done' is True: wrong type or sign"),
        (lambda p: p["config"].update(iterations=True), "field 'config.iterations' is True:"),
        (lambda p: p["config"].update(k=2.0), "field 'config.k' is 2.0:"),
        (lambda p: p["config"].update(alpha="0.1"), "field 'config.alpha' is '0.1':"),
        (lambda p: p["config"].update(seed=False), "field 'config.seed' is False:"),
        (lambda p: p["config"].update(seed=-1), "field 'config.seed' is -1:"),
        (lambda p: p["config"].update(beta=float("nan")), "must be positive and finite"),
        (lambda p: p["log_likelihood_trace"].__setitem__(0, float("nan")),
         "field 'log_likelihood_trace' entry 0 (nan) is not a number: not finite"),
        (lambda p: p["log_likelihood_trace"].__setitem__(-1, float("-inf")),
         "field 'log_likelihood_trace' entry 19 (-inf) is not a number: not finite"),
    ], ids=["sweeps-done-true", "iterations-true", "k-float", "alpha-string", "seed-false",
            "seed-negative", "beta-nan", "trace-nan", "trace-minus-inf"])
    def test_malformed_model_field_is_named(self, tmp_path, capsys, tamper, named):
        """A JSON bool is no count or seed and a string no number: `load`
        names the field, so no stage reads `true` as 1.  A seed is a count:
        PCG64 takes no negative seed, so no model was trained from one.
        JSON's NaN is a number, but no prior and no log joint."""
        config = small_pipeline(tmp_path)
        assert run_cli("prepare", "--config", config) == 0
        assert run_cli("train", "--config", config) == 0
        path = tmp_path / "out" / "model_k2.json"
        payload = json.loads(path.read_text())
        tamper(payload)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("measure", "--config", config) == 2
        err = capsys.readouterr().err
        assert "model_k2.json is stale or corrupt" in err and named in err and "`train`" in err

    def test_model_of_another_reading_order_is_stale(self, tmp_path, capsys):
        config = small_pipeline(tmp_path)
        assert run_cli("prepare", "--config", config) == 0
        assert run_cli("train", "--config", config) == 0
        manifest = tmp_path / "manifest.jsonl"
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        a, b = (next(e for e in entries if e["id"] == i) for i in ("doc010", "doc011"))
        for key in ("order_index", "read_date"):
            a[key], b[key] = b[key], a[key]
        manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
        assert run_cli("prepare", "--config", config) == 0
        capsys.readouterr()
        assert run_cli("measure", "--config", config) == 2
        err = capsys.readouterr().err
        assert "model_k2.json" in err and "different corpus" in err and "`train`" in err

    @pytest.mark.parametrize("changes, field", [
        ({"training": {"ks": [2], "iterations": 9, "alpha": 0.77}}, "alpha=0.1"),
        ({"training": {"ks": [2], "iterations": 9}}, "iterations=20"),
        ({"training": {"ks": [2], "iterations": 20, "beta": 0.5}}, "beta=0.01"),
        ({"seed": 4}, "seed="),
    ], ids=["alpha-and-iterations", "iterations", "beta", "seed"])
    def test_model_of_another_training_config_is_stale(self, tmp_path, capsys,
                                                       changes, field):
        config = small_pipeline(tmp_path)
        assert run_cli("prepare", "--config", config) == 0
        assert run_cli("train", "--config", config) == 0
        cfg = yaml.safe_load(Path(config).read_text())
        Path(config).write_text(yaml.safe_dump({**cfg, **changes}))
        capsys.readouterr()
        assert run_cli("measure", "--config", config) == 2
        err = capsys.readouterr().err
        assert "model_k2.json" in err and field in err and "rerun `train`" in err
        assert not (tmp_path / "out" / "series_k2_t2t.csv").exists()

    STOPWORDS = {"filter": {"min_count": 2, "stopwords": ["zeta", "alpha"]}}

    @pytest.mark.parametrize("changes, field", [
        ({"filter": {"min_count": 30, "stopwords": ["zeta", "alpha"]}}, "filter.min_count=2"),
        ({"filter": {"min_count": 2, "stopwords": ["alpha"]}},
         "filter.stopwords=['alpha', 'zeta']"),
        ({"tokenizer": {"ascii_fold": False}}, "tokenizer.ascii_fold=True"),
        ({"tokenizer": {"merge_hyphens": False}}, "tokenizer.merge_hyphens=True"),
    ], ids=["min_count", "stopwords", "ascii_fold", "merge_hyphens"])
    def test_corpus_of_another_prepare_config_is_stale(self, tmp_path, capsys, changes, field):
        config = small_pipeline(tmp_path, **self.STOPWORDS)
        assert run_cli("prepare", "--config", config) == 0
        cfg = yaml.safe_load(Path(config).read_text())
        Path(config).write_text(yaml.safe_dump({**cfg, **changes}))
        capsys.readouterr()
        assert run_cli("train", "--config", config) == 2
        err = capsys.readouterr().err
        assert "corpus.json" in err and field in err and "rerun `prepare`" in err
        assert not (tmp_path / "out" / "model_k2.json").exists()

    def test_reordered_stopwords_keep_the_corpus(self, tmp_path):
        config = small_pipeline(tmp_path, **self.STOPWORDS)
        assert run_cli("prepare", "--config", config) == 0
        cfg = yaml.safe_load(Path(config).read_text())
        cfg["filter"]["stopwords"] = ["alpha", "zeta", "alpha"]
        Path(config).write_text(yaml.safe_dump(cfg))
        assert run_cli("train", "--config", config) == 0

    def test_corpus_without_settings_is_stale(self, tmp_path, capsys):
        config = small_pipeline(tmp_path)
        assert run_cli("prepare", "--config", config) == 0
        path = tmp_path / "out" / "corpus.json"
        payload = json.loads(path.read_text())
        del payload["settings"]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("train", "--config", config) == 2
        err = capsys.readouterr().err
        assert "corpus.json records no tokenizer and filter settings: rerun `prepare`" in err

    def test_corrupt_corpus_names_the_file(self, tmp_path, capsys):
        config = small_pipeline(tmp_path)
        assert run_cli("prepare", "--config", config) == 0
        path = tmp_path / "out" / "corpus.json"
        path.write_text(path.read_text()[:100])
        capsys.readouterr()
        assert run_cli("train", "--config", config) == 2
        err = capsys.readouterr().err
        assert "corpus.json" in err and "`prepare`" in err

    @staticmethod
    def _term_ids(payload):
        columns = payload["documents"]
        v = len(payload["vocabulary"]["terms"])
        return unpacked(columns["token_ids"], v, sum(columns["length"])), v

    @staticmethod
    def _with_v_first_in_document_1(payload):
        """V, the first id out of range, as document 1's first term id."""
        ids, v = TestStaleArtifacts._term_ids(payload)
        ids[payload["documents"]["length"][0]] = v
        payload["documents"]["token_ids"] = packed(ids, v)

    @staticmethod
    def _as_format(payload, version):
        """Term ids as format 2 (a JSON list per document) or format 3 (a
        string per document, a byte per id, V < 256), with no length."""
        ids, _ = TestStaleArtifacts._term_ids(payload)
        columns = payload["documents"]
        docs = np.split(np.array(ids), np.cumsum(columns.pop("length"))[:-1])
        payload["format_version"] = version
        columns["token_ids"] = [doc.tolist() if version == 2 else
                                base64.b64encode(bytes(doc.tolist())).decode() for doc in docs]

    @staticmethod
    def _as_format_1(payload):
        columns = payload["documents"]
        payload["format_version"] = 1
        payload["documents"] = [dict(zip(columns, row)) for row in zip(*columns.values())]

    @pytest.mark.parametrize("tamper, named", [
        (_as_format_1, "unsupported corpus format_version 1"),
        (lambda payload: payload["documents"].pop("pub_date"),
         "field 'documents.pub_date' is missing"),
        (lambda payload: payload["documents"]["length"].pop(),
         "field 'documents.length' has 19 entries, 'documents.id' has 20"),
        (lambda payload: payload["documents"]["order_index"].__setitem__(0, "x"),
         "field 'documents.order_index' entry 0 (doc000) is not a non-negative integer"),
        (_with_v_first_in_document_1,
         "field 'documents.token_ids' is not base64 of term ids in [0, V): document 1 (doc001)"),
        (lambda payload: payload["vocabulary"]["terms"].__setitem__(0, 7),
         "field 'vocabulary.terms' entry 0 (7) is not a string"),
        (lambda payload: payload["vocabulary"]["frequencies"].__setitem__(1, -1),
         "field 'vocabulary.frequencies' entry 1 (-1) is not a non-negative integer"),
        (lambda payload: payload["vocabulary"].__setitem__(
            "terms", {term: i for i, term in enumerate(payload["vocabulary"]["terms"])}),
         "field 'vocabulary.terms' is not a list"),
        (lambda payload: payload.__setitem__("warnings", "abc"),
         "field 'warnings' is not a list"),
        (lambda payload: payload.__setitem__("skipped_empty", "abc"),
         "field 'skipped_empty' is not a list"),
        (lambda payload: TestStaleArtifacts._as_format(payload, 2),
         "unsupported corpus format_version 2"),
        (lambda payload: TestStaleArtifacts._as_format(payload, 3),
         "unsupported corpus format_version 3"),
        (lambda payload: payload.update(format_version=4) or payload.pop("tokens_sha256"),
         "unsupported corpus format_version 4"),
        (lambda payload: payload["documents"]["length"].__setitem__(0, -1),
         "field 'documents.length' entry 0 (doc000) is not a non-negative integer"),
    ], ids=["format-1", "missing-column", "short-column", "order-index-not-a-number",
            "token-id-out-of-range", "term-not-a-string", "negative-frequency",
            "terms-mapping", "warnings-not-a-list", "skipped-not-a-list", "format-2",
            "format-3", "format-4", "negative-length"])
    def test_malformed_corpus_names_the_file(self, tmp_path, capsys, tamper, named):
        config = small_pipeline(tmp_path)
        assert run_cli("prepare", "--config", config) == 0
        path = tmp_path / "out" / "corpus.json"
        payload = json.loads(path.read_text())
        tamper(payload)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("train", "--config", config) == 2
        err = capsys.readouterr().err
        assert "corpus.json" in err and named in err and "`prepare`" in err
        assert not (tmp_path / "out" / "model_k2.json").exists()

    def test_repeated_document_id_is_stale(self, tmp_path, capsys):
        """`tokens_sha256` does not cover the ids: a repeated one exits 2 at
        every stage that reads the corpus, not 1 at `null` blaming the
        manifest."""
        config = small_pipeline(tmp_path)
        assert run_cli("prepare", "--config", config) == 0
        assert run_cli("train", "--config", config) == 0
        path = tmp_path / "out" / "corpus.json"
        payload = json.loads(path.read_text())
        payload["documents"]["id"][1] = payload["documents"]["id"][0]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        for stage in ("train", "measure", "null"):
            assert run_cli(stage, "--config", config) == 2, stage
            err = capsys.readouterr().err
            assert "corpus.json is stale or corrupt" in err and "rerun `prepare`" in err
            assert "field 'documents.id' entry 1 (doc000) repeats entry 0" in err

    def test_documents_out_of_reading_order_are_stale(self, tmp_path, capsys):
        """The corpus holds its documents in reading order; a file that
        does not exits 2 at every stage that reads it."""
        config = small_pipeline(tmp_path)
        assert run_cli("prepare", "--config", config) == 0
        assert run_cli("train", "--config", config) == 0
        path = tmp_path / "out" / "corpus.json"
        payload = json.loads(path.read_text())
        payload["documents"]["order_index"][0] = 5
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        for stage in ("train", "measure", "null"):
            assert run_cli(stage, "--config", config) == 2, stage
            err = capsys.readouterr().err
            assert "corpus.json is stale or corrupt" in err and "rerun `prepare`" in err
            assert ("document 1 (doc001) has order_index 1, below the 5 before it: the "
                    "documents are not in reading order") in err

    def test_lengths_within_the_padding_name_the_digest(self, tmp_path, capsys):
        """A two-term corpus saved with lengths [3, 1] and edited to
        [3, 5]: the ids still fit `token_ids`' one byte, and the digest
        stops `train` from reading its zero padding as term ids."""
        config = small_pipeline(tmp_path)
        vocab = Vocabulary(["a", "b"], [3, 1])
        path = tmp_path / "out" / "corpus.json"
        path.parent.mkdir()
        encode_corpus([DocumentSpec(id="d0"), DocumentSpec(id="d1")],
                      [["a", "a", "b"], ["a"]], vocab).save(path)
        payload = json.loads(path.read_text())
        payload["documents"]["length"] = [3, 5]
        path.write_text(json.dumps(payload))
        assert run_cli("train", "--config", config) == 2
        err = capsys.readouterr().err
        assert "corpus.json is stale or corrupt" in err and "tokens_sha256" in err
        assert "rerun `prepare`" in err

    @pytest.mark.parametrize("name, producer, reader", [
        ("corpus.json", "prepare", "train"), ("model_k2.json", "train", "measure"),
    ])
    def test_file_that_is_not_an_object_names_the_file(self, tmp_path, capsys, name,
                                                       producer, reader):
        config = small_pipeline(tmp_path)
        assert run_cli("prepare", "--config", config) == 0
        assert run_cli("train", "--config", config) == 0
        (tmp_path / "out" / name).write_text("[1]")
        capsys.readouterr()
        assert run_cli(reader, "--config", config) == 2
        err = capsys.readouterr().err
        assert f"{name} is stale or corrupt" in err and f"`{producer}`" in err

    def test_bulk_files_have_no_separator_whitespace(self, tmp_path):
        config = small_pipeline(tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(manifest.read_text().replace('"doc005"', '"doc, 005: x"'))
        assert run_cli("prepare", "--config", config) == 0
        assert run_cli("train", "--config", config) == 0
        for name in ("corpus.json", "model_k2.json"):
            text = (tmp_path / "out" / name).read_text()
            assert '"doc, 005: x"' in text
            assert text == json.dumps(json.loads(text), separators=(",", ":"))


@pytest.fixture(scope="module")
def measured_small(tmp_path_factory):
    """`small_pipeline` run one stage at a time up to `measure`, and its
    `pipeline` output: (config, staged output, pipeline output)."""
    root = tmp_path_factory.mktemp("measured")
    config = small_pipeline(root)
    for stage in ("prepare", "train", "measure"):
        assert run_cli(stage, "--config", config, "--out", str(root / "staged")) == 0
    assert run_cli("pipeline", "--config", config, "--out", str(root / "pipeline")) == 0
    return config, root / "staged", root / "pipeline"


class TestSeriesFilesAreNotRead:
    """`null` and `epochs` derive the series from the models; what the
    series files hold does not reach them."""

    TAMPERS = ["deleted", "no-bits-column", "non-numeric", "nan", "inf", "missing-row",
               "extra-row"]

    @staticmethod
    def staged_copy_with_damaged_series(measured_small, out, tamper):
        """Copy the staged run to `out` and damage each of its series files."""
        shutil.copytree(measured_small[1], out)
        paths = sorted(out.glob("series_k*"))
        assert len(paths) == 2
        for path in paths:
            lines = path.read_text().splitlines(keepends=True)
            header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
            if tamper == "deleted":
                path.unlink()
                continue
            if tamper == "no-bits-column":
                lines[header] = lines[header].replace("bits", "bit")
            elif tamper == "missing-row":
                lines.pop()
            elif tamper == "extra-row":
                lines.append(lines[-1])
            else:
                value = {"non-numeric": "abc", "nan": "nan", "inf": "-inf"}[tamper]
                row = lines[header + 3]
                lines[header + 3] = row[: row.rindex(",") + 1] + value + "\n"
            path.write_text("".join(lines))

    @pytest.mark.parametrize("tamper", TAMPERS)
    def test_epochs_ignores_the_series_files(self, measured_small, tmp_path, tamper):
        config, _, pipeline = measured_small
        out = tmp_path / "out"
        self.staged_copy_with_damaged_series(measured_small, out, tamper)
        assert run_cli("epochs", "--config", config, "--out", str(out)) == 0
        assert_same_files(out, pipeline, ("epochs_*",))

    @pytest.mark.parametrize("tamper", TAMPERS)
    def test_null_ignores_the_series_files(self, measured_small, tmp_path, tamper):
        config, _, pipeline = measured_small
        out = tmp_path / "out"
        self.staged_copy_with_damaged_series(measured_small, out, tamper)
        assert run_cli("null", "--config", config, "--out", str(out)) == 0
        assert_same_files(out, pipeline, ("null_*",))

    def test_epochs_and_null_follow_the_current_smoothing(self, tmp_path):
        # at k=2 the raw (unsmoothed) theta of this corpus has full support
        config = small_pipeline(tmp_path)
        for stage in ("prepare", "train", "measure"):
            assert run_cli(stage, "--config", config) == 0
        cfg = yaml.safe_load(Path(config).read_text())
        Path(config).write_text(yaml.safe_dump({**cfg, "measure": {"smoothing": False}}))
        for stage in ("epochs", "null"):
            assert run_cli(stage, "--config", config) == 0
        fresh = tmp_path / "fresh"
        assert run_cli("pipeline", "--config", config, "--out", str(fresh)) == 0
        assert_same_files(tmp_path / "out", fresh, REPORTS)


STAGE_ORDER = ("prepare", "train", "measure", "null", "epochs", "fit", "compare")


def run_captured(*args):
    """`run_cli(*args)` with what it prints: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(*args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def staged_fixture(tmp_path_factory):
    """The `textforage fixture` corpus and config (two ks, `fit` and
    `compare`), run one stage per invocation at --threads 1 and 2:
    config path and, per thread count, the output directory and the
    concatenated stdout and stderr."""
    root = tmp_path_factory.mktemp("staged")
    assert run_cli("fixture", "--out", str(root / "fx")) == 0
    config = str(root / "fx" / "config.yaml")
    runs = {}
    for threads in ("1", "2"):
        out = root / f"stages_t{threads}"
        printed = [run_captured(stage, "--config", config, "--out", str(out),
                                "--threads", threads) for stage in STAGE_ORDER]
        assert [code for code, _, _ in printed] == [0] * len(STAGE_ORDER)
        runs[threads] = (out, "".join(o for _, o, _ in printed),
                         "".join(e for _, _, e in printed))
    return config, runs


class TestPipelineHandsProductsForward:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_pipeline_is_the_stages_one_at_a_time(self, staged_fixture, tmp_path, threads):
        config, runs = staged_fixture
        out, stdout, stderr = runs[threads]
        result = run_captured("pipeline", "--config", config, "--out", str(tmp_path / "p"),
                              "--threads", threads)
        assert result == (0, stdout, stderr)
        assert_same_files(out, tmp_path / "p")

    def test_thread_counts_write_the_same_files(self, staged_fixture):
        _, runs = staged_fixture
        assert_same_files(runs["1"][0], runs["2"][0])

    def test_pipeline_reads_nothing_back(self, staged_fixture, tmp_path, monkeypatch):
        # a standalone stage still loads and checks every artifact it
        # reads (TestStaleArtifacts); a pipeline reads none of them
        def read_back(*args, **kwargs):
            raise AssertionError("pipeline read an artifact back")

        monkeypatch.setattr(Corpus, "load", read_back)
        monkeypatch.setattr(lda.TopicModel, "load", read_back)
        config, runs = staged_fixture
        assert run_cli("pipeline", "--config", config, "--out", str(tmp_path / "p")) == 0
        assert_same_files(runs["1"][0], tmp_path / "p")


class TestTrainReport:
    def test_train_prints_the_convergence_of_the_log_joint(self, tmp_path, capsys):
        config = small_pipeline(tmp_path)
        assert run_cli("prepare", "--config", config) == 0
        before = sorted(p.name for p in (tmp_path / "out").iterdir())
        capsys.readouterr()
        assert run_cli("train", "--config", config) == 0
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == sorted(before + ["model_k2.json"])
        trace = json.loads((out / "model_k2.json").read_text())["log_likelihood_trace"]
        # 20 sweeps: the last tenth compares sweep 20 with sweep 18
        change = (trace[19] - trace[17]) / abs(trace[17])
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"trained k=2: log joint {trace[0]:.2f} (sweep 1) -> {trace[19]:.2f} "
            f"(sweep 20), relative change {change:+.2e} over the last 2 sweeps"
        )

    def test_one_sweep_prints_its_log_joint_alone(self, tmp_path, capsys):
        config = small_pipeline(tmp_path, training={"ks": [2], "iterations": 1})
        assert run_cli("prepare", "--config", config) == 0
        capsys.readouterr()
        assert run_cli("train", "--config", config) == 0
        out = tmp_path / "out"
        trace = json.loads((out / "model_k2.json").read_text())["log_likelihood_trace"]
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"trained k=2: log joint {trace[0]:.2f} (sweep 1)")

    def test_two_threads_train_the_ks_together(self, tmp_path, monkeypatch):
        # each k's training waits at a barrier until the other k's starts,
        # which a k-by-k loop never reaches
        config = small_pipeline(tmp_path, training={"ks": [2, 3], "iterations": 3})
        assert run_cli("prepare", "--config", config) == 0
        barrier = threading.Barrier(2, timeout=10)
        train = lda.train

        def train_at_the_barrier(*args):
            barrier.wait()
            return train(*args)

        monkeypatch.setattr(lda, "train", train_at_the_barrier)
        assert run_cli("train", "--config", config, "--threads", "2") == 0

    @pytest.mark.parametrize("prior", ["alpha", "beta"])
    def test_log_joint_past_the_float_range_is_a_degeneracy(self, tmp_path, capsys, prior):
        config = small_pipeline(tmp_path, training={"ks": [2], "iterations": 2, prior: 1e308})
        assert run_cli("prepare", "--config", config) == 0
        capsys.readouterr()
        assert run_cli("train", "--config", config) == 3
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("numerical degeneracy: log joint is out of float range")
        assert f"{prior}=1e+308" in last
        assert not (tmp_path / "out" / "model_k2.json").exists()


PIPELINE = ("import sys\nfrom textforage import cli\n"
            "assert cli.main(['pipeline', '--config', sys.argv[1]]) == 0")


def modules_after(package, script, *args):
    """The modules of `package` (it and its submodules) that a fresh
    interpreter has loaded after `script`."""
    listing = ("import json, sys\nprint(json.dumps(sorted(m for m in sys.modules "
               f"if m == {package!r} or m.startswith({package + '.'!r}))))")
    env = dict(os.environ, PYTHONPATH=str(Path(textforage.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", f"{script}\n{listing}", *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestScipyImport:
    """scipy.optimize adds about 0.39 s and 44 MB of peak RSS to `import
    textforage.cli` (see `modelcompare.align_topics`); only `adversarial`
    needs it."""

    def test_import_loads_no_scipy(self):
        assert modules_after("scipy", "import textforage.cli") == []

    def test_basic_pipeline_loads_no_scipy(self, tmp_path):
        config = small_pipeline(tmp_path, training={"ks": [2, 3], "iterations": 20},
                                compare={"strategy": "basic"})
        assert modules_after("scipy", PIPELINE, config) == []
        assert (tmp_path / "out" / "compare_k2_vs_k3.json").is_file()

    def test_adversarial_pipeline_gives_the_exact_optimum(self, tmp_path):
        config = small_pipeline(tmp_path, training={"ks": [2, 3], "iterations": 20},
                                compare={"strategy": "adversarial"})
        assert "scipy.optimize" in modules_after("scipy", PIPELINE, config)
        out = tmp_path / "out"
        corpus = Corpus.load(out / "corpus.json")
        phi = [lda.estimate_distributions(
            lda.TopicModel.load(out / f"model_k{k}.json", corpus.vocabulary))[1]
            for k in (2, 3)]
        terms = list(corpus.vocabulary.id_to_term)
        merged_a, merged_b, _ = modelcompare.merge_vocabulary(
            phi[0], terms, phi[1], terms, strategy="expand_epsilon")
        dist = modelcompare._js_distance_columns(merged_a, merged_b)
        optimum = min(sum(dist[a, b] for a, b in enumerate(injection))
                      for injection in itertools.permutations(range(3), 2))
        report = json.loads((out / "compare_k2_vs_k3.json").read_text())
        assert report["strategy"] == "adversarial"
        assert report["total_distance"] == pytest.approx(optimum, abs=1e-12)


class TestLazyNamespace:
    """`import textforage` loads a submodule, and numpy, on first use of
    one of its names."""

    def test_import_loads_no_numpy(self):
        assert modules_after("numpy", "import textforage") == []

    def test_import_loads_no_submodule(self):
        assert modules_after("textforage", "import textforage") == ["textforage"]

    def test_names_are_their_submodules_objects(self):
        assert textforage.__all__ == ["__version__", *textforage._SUBMODULE]
        for name, module in textforage._SUBMODULE.items():
            source = importlib.import_module(f"textforage.{module}")
            assert getattr(textforage, name) is getattr(source, name)

    def test_dir_lists_every_name(self):
        assert set(textforage.__all__) <= set(dir(textforage))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            textforage.no_such_name

    def test_star_import_binds_every_name(self):
        script = ("import textforage\nfrom textforage import *\n"
                  "assert [n for n in textforage.__all__ if n not in globals()] == []")
        loaded = modules_after("textforage", script)
        assert {f"textforage.{m}" for m in textforage._SUBMODULE.values()} <= set(loaded)


class TestCliStartUp:
    """The CLI imports what only one stage or a pool of threads needs
    where it is used."""

    def test_import_loads_no_synthetic(self):
        assert modules_after("textforage.synthetic", "import textforage.cli") == []

    def test_one_thread_pipeline_loads_no_concurrent(self, tmp_path):
        config = small_pipeline(
            tmp_path, fit={"documents": ["query_0.txt"], "samples": 4, "iterations": 5,
                           "cluster_range": [2, 3]},
        )
        assert modules_after("concurrent", PIPELINE, config) == []
        assert (tmp_path / "out" / "fit_query_0_k2_clusters.json").is_file()


class TestNumpyMaImport:
    """`numpy.ma` costs about 20 ms of a fresh process, and `np.percentile`,
    `np.median` and `np.setdiff1d` import it on first use."""

    def test_pipeline_with_fit_loads_no_numpy_ma(self, tmp_path):
        config = small_pipeline(
            tmp_path, training={"ks": [2, 3], "iterations": 20},
            fit={"documents": ["query_0.txt"], "samples": 8, "iterations": 5,
                 "cluster_range": [2, 4]},
        )
        assert modules_after("numpy.ma", PIPELINE, config) == []
        out = tmp_path / "out"
        assert (out / "null_k2_ranks.json").is_file()
        assert (out / "fit_query_0_k2_clusters.json").is_file()


class TestFitConfig:
    @pytest.mark.parametrize("fit, field", [
        ({"samples": 2}, "fit.samples"),
        ({"samples": 8, "cluster_range": [20, 30]}, "fit.cluster_range"),
    ], ids=["samples", "cluster_range"])
    def test_unclusterable_fit_is_a_config_error(self, tmp_path, capsys, fit, field):
        config = small_pipeline(
            tmp_path, fit={"documents": ["query_0.txt"], "iterations": 5, **fit}
        )
        assert run_cli("pipeline", "--config", config) == 1
        assert field in capsys.readouterr().err
        # rejected by load_config, before any sampling time is spent
        assert not list((tmp_path / "out").glob("fit_*"))

    def test_query_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        config = small_pipeline(tmp_path, fit={"documents": ["query_0.txt"], "samples": 4,
                                               "iterations": 5, "cluster_range": [2, 3]})
        (tmp_path / "query_0.txt").write_bytes(b"caf\xe9 au lait\n")
        assert run_cli("pipeline", "--config", config) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            f"config error: fit.documents: {tmp_path / 'query_0.txt'}: ")

    def test_query_with_no_in_vocabulary_token_names_the_file(self, tmp_path, capsys):
        config = small_pipeline(tmp_path, fit={"documents": ["query_0.txt", "oov.txt"],
                                               "samples": 4, "iterations": 5,
                                               "cluster_range": [2, 3]})
        (tmp_path / "oov.txt").write_text("zzzz qqqq xxxx\n")
        assert run_cli("pipeline", "--config", config) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"config error: fit.documents: {tmp_path / 'oov.txt'}: no in-vocabulary tokens")


class TestFitPayloads:
    # SHA-256 of each fit payload with its metadata removed, as the
    # per-trial and per-sample clustering loops wrote them: pins the
    # medoids, the assignments and silhouette_by_k for k = 2..10
    PINNED = {
        "fit_query_0_k3.json":
            "67cbe1bf60989c596c1d84491688cc746706414fdf77df1cfbc75fbce317291f",
        "fit_query_0_k3_clusters.json":
            "ff5eff162dec2ffa9bc249dd27df5b1044f6b66b53fd55b81f7d84e8381a22d8",
    }

    def test_fit_payloads_are_pinned(self, tmp_path):
        config = small_pipeline(
            tmp_path,
            training={"ks": [3], "iterations": 20},
            fit={"documents": ["query_0.txt"], "samples": 30, "iterations": 20,
                 "cluster_range": [2, 10]},
        )
        for stage in ("prepare", "train", "fit"):
            assert run_cli(stage, "--config", config) == 0
        digests = {}
        for path in sorted((tmp_path / "out").glob("fit_*.json")):
            body = json.loads(path.read_text())
            body.pop("metadata")
            payload = json.dumps(body, indent=2, sort_keys=True).encode("utf-8")
            digests[path.name] = hashlib.sha256(payload).hexdigest()
        assert digests == self.PINNED


class TestGibbsBackend:
    FIT = {"documents": ["query_0.txt"], "samples": 4, "iterations": 5, "cluster_range": [2, 3]}

    def test_train_and_fit_name_the_backend(self, tmp_path, capsys):
        config = small_pipeline(tmp_path, fit=self.FIT)
        assert run_cli("pipeline", "--config", config) == 0
        lines = [l for l in capsys.readouterr().err.splitlines() if "Gibbs backend" in l]
        assert [l.split(":")[0] for l in lines] == ["train", "fit"]
        if shutil.which("gcc"):
            for line in lines:
                library = Path(re.fullmatch(r"\w+: Gibbs backend C \((.+)\)", line).group(1))
                assert library.is_file() and tmp_path not in library.parents

    def test_fit_reports_its_work(self, tmp_path, capsys):
        config = small_pipeline(tmp_path, training={"ks": [2], "iterations": 3}, fit=self.FIT)
        for stage in ("prepare", "train"):
            assert run_cli(stage, "--config", config) == 0
        capsys.readouterr()
        assert run_cli("fit", "--config", config, "--threads", "3") == 0
        captured = capsys.readouterr()
        work = re.search(r"^fit query_0: 4 samples x 5 iterations x (\d+) tokens = (\d+) "
                         r"token updates$", captured.err, re.M)
        assert work and int(work[1]) > 0 and int(work[2]) == 4 * 5 * int(work[1])
        assert "token updates" not in captured.out

    def test_fallback_names_the_reason(self, tmp_path, capsys, monkeypatch):
        def no_compiler(src, target):
            raise OSError("no compiler here")

        monkeypatch.setattr(_gibbs, "_loaded", None)
        monkeypatch.setattr(_gibbs, "_build", no_compiler)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        config = small_pipeline(tmp_path, training={"ks": [2], "iterations": 3}, fit=self.FIT)
        assert run_cli("pipeline", "--config", config) == 0
        err = capsys.readouterr().err
        assert "train: Gibbs backend pure Python (no compiler here)" in err
        assert "fit: Gibbs backend pure Python (no compiler here)" in err
        assert err.count("warning") == 1


class TestConfigValidation:
    def test_missing_config_file(self):
        assert run_cli("pipeline", "--config", "/nonexistent.yaml") == 1

    def test_unknown_field_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({
            "manifest": "m.jsonl", "output_dir": "o", "seed": 1,
            "training": {"ks": [2], "iterationz": 5},
        }))
        assert run_cli("pipeline", "--config", str(path)) == 1
        assert "training.iterationz" in capsys.readouterr().err

    def test_bad_topic_count_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({
            "manifest": "m.jsonl", "output_dir": "o", "seed": 1,
            "training": {"ks": [1]},
        }))
        assert run_cli("pipeline", "--config", str(path)) == 1
        assert "training.ks" in capsys.readouterr().err

    def test_seed_is_mandatory(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"manifest": "m.jsonl", "output_dir": "o"}))
        assert run_cli("pipeline", "--config", str(path)) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-2**63 - 1, 2**63, 2**64])
    def test_seed_outside_64_bits_is_named(self, tmp_path, capsys, seed):
        """Seeds derive modulo 2**64, so 2**64 would rerun seed 0 under
        another name; the range's own ends load."""
        path = tmp_path / "bad.yaml"
        config = {"manifest": "m.jsonl", "output_dir": "o", "seed": 1}
        for given, flags in (({**config, "seed": seed}, ()), (config, ("--seed", str(seed)))):
            path.write_text(yaml.safe_dump(given))
            assert run_cli("pipeline", "--config", str(path), *flags) == 1
            assert "field 'seed' must be in [-2**63, 2**63)" in capsys.readouterr().err
        for edge in (-2**63, 2**63 - 1):
            assert cli.load_config(path, overrides={"seed": edge})["seed"] == edge

    def test_hogwild_shards_is_not_a_field(self, tmp_path, capsys):
        config = small_pipeline(tmp_path, training={"ks": [2], "hogwild_shards": 2})
        assert run_cli("train", "--config", config) == 1
        assert "training.hogwild_shards" in capsys.readouterr().err

    def test_config_required_for_stages(self):
        assert run_cli("pipeline") == 1

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_is_named(self, tmp_path, threads):
        path = tmp_path / "bad.yaml"
        config = {"manifest": "m.jsonl", "output_dir": "o", "seed": 1}
        path.write_text(yaml.safe_dump({**config, "threads": threads}))
        with pytest.raises(ConfigError, match="field 'threads' must be >= 1"):
            cli.load_config(path)
        path.write_text(yaml.safe_dump(config))
        with pytest.raises(ConfigError, match="field 'threads' must be >= 1"):
            cli.load_config(path, overrides={"threads": threads})

    @pytest.mark.parametrize("field", [
        "seed", "threads", "training.alpha", "training.iterations", "fit.iterations",
        "null_model.permutations",
    ])
    def test_boolean_for_a_number_is_named(self, tmp_path, capsys, field):
        config = {"manifest": "m.jsonl", "output_dir": "o", "seed": 1}
        section, _, name = field.rpartition(".")
        (config.setdefault(section, {}) if section else config)[name] = True
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("pipeline", "--config", str(path)) == 1
        assert f"field '{field}' has wrong type" in capsys.readouterr().err


    @pytest.mark.parametrize("section, value, field", [
        ("compare", {"strategy": "bogus"}, "compare.strategy"),
        ("compare", {"merge": "union"}, "compare.merge"),
        ("measure", {"smoothing": "no"}, "measure.smoothing"),
        ("tokenizer", {"ascii_fold": "off"}, "tokenizer.ascii_fold"),
        ("tokenizer", {"merge_hyphens": 1}, "tokenizer.merge_hyphens"),
        ("filter", {"top_mass": 2.0}, "filter.top_mass"),
        ("filter", {"bottom_mass": "half"}, "filter.bottom_mass"),
        ("filter", {"min_count": "two"}, "filter.min_count"),
        ("filter", {"max_count": True}, "filter.max_count"),
        ("filter", {"stopwords": "the"}, "filter.stopwords"),
        ("filter", {"stopwords": ["the", 3]}, "filter.stopwords"),
        ("training", {"alpha": 0}, "training.alpha"),
        ("training", {"beta": -1}, "training.beta"),
        ("training", {"alpha": float("inf")}, "training.alpha"),
        ("training", {"beta": float("inf")}, "training.beta"),
        ("measure", {"modes": []}, "measure.modes"),
        ("fit", {"documents": "query_0.txt"}, "fit.documents"),
        # their fits would write the same fit_q_k*.json and share a seed
        ("fit", {"documents": ["a/q.txt", "b/q.txt"]}, "fit.documents"),
    ], ids=["strategy", "merge", "smoothing", "ascii_fold", "merge_hyphens", "top_mass",
            "bottom_mass", "min_count", "max_count", "stopwords", "stopword", "alpha", "beta",
            "alpha-inf", "beta-inf", "modes", "documents", "repeated-stem"])
    def test_bad_field_is_named_before_any_artifact(self, tmp_path, capsys, section, value,
                                                     field):
        sections = {"training": {"ks": [2, 3], "iterations": 5}}
        sections[section] = {**sections.get(section, {}), **value}
        config = small_pipeline(tmp_path, **sections)
        assert run_cli("pipeline", "--config", config) == 1
        assert capsys.readouterr().err.startswith(f"config error: {config}: field '{field}'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("changes, field", [
        ({"epochs": {"variance_mode": "median"}}, "epochs.variance_mode"),
        ({"fit": {"phi_mode": "frozen"}}, "fit.phi_mode"),
        ({"epochs": {"max_epochs": 0}}, "epochs.max_epochs"),
        ({"epochs": {"min_len": 1}}, "epochs.min_len"),
        ({"fit": {"samples": 2}}, "fit.samples"),
        ({"training": {"ks": [2], "iterations": -1}}, "training.iterations"),
        ({"fit": {"iterations": -1}}, "fit.iterations"),
        ({"null_model": {"permutations": 0}}, "null_model.permutations"),
        ({"fit": {"cluster_range": [2]}}, "fit.cluster_range"),
        ({"fit": {"cluster_range": [3, 2]}}, "fit.cluster_range"),
        ({"fit": {"cluster_range": ["a", 3]}}, "fit.cluster_range"),
        ({"manifest": 5}, "manifest"),
        ({"training": [2]}, "training"),
    ], ids=["variance_mode", "phi_mode", "max_epochs", "min_len", "samples",
            "training-iterations", "fit-iterations", "permutations", "one-bound",
            "reversed-bounds", "string-bound", "manifest", "section-as-list"])
    def test_each_rule_names_its_field(self, tmp_path, capsys, changes, field):
        config = small_pipeline(tmp_path, **changes)
        assert run_cli("pipeline", "--config", config) == 1
        assert capsys.readouterr().err.startswith(f"config error: {config}: field '{field}' ")
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"# caf\xe9\nmanifest: m.jsonl\noutput_dir: o\nseed: 1\n")
        assert run_cli("pipeline", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err and "Traceback" not in err

    # the hash identifies the procedure, so a refactor of the loader must
    # keep it: the `fixture` config, and one that sets every field
    EVERY_FIELD = {
        "manifest": "in/manifest.jsonl", "output_dir": "o", "seed": 5, "threads": 2,
        "filter": {"min_count": 1, "max_count": 900, "top_mass": 0.01, "bottom_mass": 0,
                   "stopwords": ["the", "a"]},
        "tokenizer": {"merge_hyphens": False, "ascii_fold": False},
        "training": {"ks": [3, 5], "alpha": 0.5, "beta": 1, "iterations": 7},
        "measure": {"modes": ["t2p"], "smoothing": False},
        "null_model": {"permutations": 9},
        "epochs": {"max_epochs": 4, "min_len": 3, "variance_mode": "legacy"},
        "fit": {"documents": ["q/a.txt", "/abs/b.txt"], "iterations": 0, "samples": 3,
                "phi_mode": "locked", "cluster_range": [2, 2]},
        "compare": {"merge": "intersect", "strategy": "adversarial"},
    }

    def test_config_hashes_are_pinned(self, tmp_path):
        assert run_cli("fixture", "--out", str(tmp_path / "fx"), "--seed", "3") == 0
        fixture = cli.load_config(tmp_path / "fx" / "config.yaml")
        assert fixture["config_sha256"] == (
            "abdf1943c0bdbbc965cf126eb827a3bb9813a92e9a46d1d02dea75dc76751531")
        path = tmp_path / "every.yaml"
        path.write_text(yaml.safe_dump(self.EVERY_FIELD))
        assert cli.load_config(path)["config_sha256"] == (
            "63a0f1a987fc9af6776406cac285fcce24e0bdceb11efa51418ca50db12f2bb4")

    def test_readme_lists_every_field_with_its_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        reference = readme.split("### Configuration reference")[1].split("\n## ")[0]
        rows = dict(re.findall(r"^\| `([\w.]+)` \| ([^|]+?) \|", reference, re.M))
        assert set(rows) == set(cli._FIELDS)
        for field, (default, _, _) in cli._FIELDS.items():
            shown = "required" if default is cli._REQUIRED else f"`{json.dumps(default)}`"
            assert rows[field] == shown, field

    def test_readme_states_each_file_format(self):
        """Each format bump must reach the README's description of the file."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        stated = dict(re.findall(r"\(`([^`]+)`, `format_version` (\d+)\)", readme))
        assert stated == {"model_k{K}.json": str(lda.MODEL_FORMAT_VERSION),
                          "corpus.json": str(CORPUS_FORMAT_VERSION)}

    def test_boolean_fields_take_booleans(self, tmp_path):
        config = small_pipeline(tmp_path, measure={"smoothing": False},
                                tokenizer={"merge_hyphens": False, "ascii_fold": False})
        cfg = cli.load_config(config)
        assert cfg["measure"]["smoothing"] is False
        assert cfg["tokenizer"] == {"merge_hyphens": False, "ascii_fold": False}


def third_manifest_line(pattern, repl):
    """A tamper that substitutes `repl` for `pattern` on manifest line 3."""
    def tamper(root):
        path = root / "manifest.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[2], count = re.subn(pattern, repl, lines[2])
        assert count == 1
        path.write_text("".join(lines))
    return tamper


class TestBadInputs:
    CASES = {
        "invalid-json": (third_manifest_line(r'^\{"id":', '{"id"'), {},
                         "manifest.jsonl:3: invalid JSON"),
        "bad-date": (third_manifest_line(r'"read_date": "[^"]*"', '"read_date": "1830-13-15"'),
                     {}, "manifest.jsonl:3: month out of range in '1830-13-15'"),
        "bad-order-index": (third_manifest_line(r'"order_index": \d+', '"order_index": "x"'), {},
                            "manifest.jsonl:3: 'order_index' must be an integer"),
        **{f"order-index-{name}": (third_manifest_line(r'"order_index": \d+',
                                                       f'"order_index": {value}'), {},
                                   "manifest.jsonl:3: 'order_index' must be an integer")
           for name, value in (("float", "1.7"), ("bool", "true"), ("digit-string", '"4"'))},
        **{f"id-{name}": (third_manifest_line(r'"id": "[^"]*"', f'"id": {value}'), {},
                          "manifest.jsonl:3: 'id' must be a string")
           for name, value in (("null", "null"), ("list", '["a"]'), ("number", "7"))},
        "missing-text": (third_manifest_line(r'"texts/[^"]*"', '"texts/missing.txt"'), {},
                         "document 'doc002': [Errno 2]"),
        "text-not-a-string": (third_manifest_line(r'"text_path": "[^"]*"', '"text": 5'), {},
                              "manifest.jsonl:3: 'text' must be a string"),
        "exhausted-vocabulary": (lambda root: None, {"filter": {"min_count": 100000}},
                                 "filter: vocabulary exhausted"),
        "missing-manifest": (lambda root: (root / "manifest.jsonl").unlink(), {},
                             "manifest.jsonl"),
        **{f"{n}-document-manifest": (
            lambda root, n=n: (root / "manifest.jsonl").write_text(
                "".join((root / "manifest.jsonl").read_text().splitlines(keepends=True)[:n])),
            {}, f"manifest.jsonl: a reading history needs at least 2 documents, this one has {n}")
           for n in (0, 1)},
        "1-document-after-encoding": (
            lambda root: (root / "manifest.jsonl").write_text("".join(
                re.sub(r'"text_path": "[^"]*"', '"text": "zzzz qqqq"', line) if i else line
                for i, line in enumerate(
                    (root / "manifest.jsonl").read_text().splitlines(keepends=True)[:2]))),
            {}, "manifest.jsonl: a reading history needs at least 2 documents, 1 left after "
                "encoding; the vocabulary emptied 'doc001'"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_prepare_names_the_bad_input(self, tmp_path, capsys, case):
        tamper, sections, named = self.CASES[case]
        config = small_pipeline(tmp_path, **sections)
        tamper(tmp_path)
        assert run_cli("prepare", "--config", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert named in err
        assert not (tmp_path / "out" / "corpus.json").exists()


class TestOutputDirectory:
    def test_relative_out_flag_is_taken_from_the_working_directory(self, tmp_path,
                                                                  monkeypatch):
        (tmp_path / "project").mkdir()
        small_pipeline(tmp_path / "project")
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        config = os.path.join("..", "project", "config.yaml")
        assert run_cli("prepare", "--config", config, "--out", "runs/a") == 0
        assert (tmp_path / "work" / "runs" / "a" / "corpus.json").is_file()
        assert not (tmp_path / "project" / "runs").exists()
        # the config's own relative output_dir keeps the config's directory
        assert run_cli("prepare", "--config", config) == 0
        assert (tmp_path / "project" / "out" / "corpus.json").is_file()
        assert not (tmp_path / "work" / "out").exists()
