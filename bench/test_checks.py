"""Each output check passes on a real pipeline output and fails on a
deliberately corrupted copy of it.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from textforage import cli  # noqa: E402
from textforage.corpus import Corpus  # noqa: E402


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """A query-fit workload shrunk to seconds, with two ks so that
    compare runs."""
    dest = tmp_path_factory.mktemp("inputs")
    w = workloads.query_fit(dest, seed=3)
    w.config["training"] = {"ks": [4, 5], "iterations": 20}
    w.config["fit"].update(samples=12, iterations=40)
    w.config["epochs"] = {"max_epochs": 2, "min_len": 5}
    w.config_path.write_text(yaml.safe_dump(w.config), encoding="utf-8")
    out = dest / "out"
    assert cli.main(["pipeline", "--config", str(w.config_path), "--out", str(out)]) == 0
    return w, out


@pytest.fixture
def copy(produced, tmp_path):
    w, out = produced
    target = tmp_path / "out"
    shutil.copytree(out, target)
    return w, target


def _edit_json(path: Path, change) -> None:
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def _edit_csv(path: Path, row: int, column: str, value) -> None:
    lines = path.read_text().splitlines(keepends=True)
    head = [line for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    rows[row][column] = value(rows[row][column])
    with open(path, "w", newline="") as fh:
        fh.writelines(head)
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_clean_output_passes_every_check(produced):
    w, out = produced
    problems = checks.run_all(out, w, checks.digests(out))
    assert set(problems) == {"series", "epochs", "null", "masses", "fit", "identical"}
    assert all(not found for found in problems.values()), problems


def test_series_value_off(copy):
    w, out = copy
    _edit_csv(out / "series_k4_t2p.csv", 7, "bits", lambda v: repr(float(v) + 1e-6))
    assert checks.check_series(out, w)


def test_series_ids_shifted(copy):
    w, out = copy
    _edit_csv(out / "series_k5_t2t.csv", 0, "item_id", lambda v: "h9999")
    assert checks.check_series(out, w)


def test_epoch_breaks_not_optimal(copy):
    w, out = copy
    x = [float(r["bits"]) for r in checks._csv_rows(out / "series_k4_t2t.csv")]

    def move_break(payload):
        model = payload["models"][1]
        b = model["breaks"][0]
        model["breaks"] = [b + 1 if b + 1 <= len(x) - 5 else b - 1]
        model["log_likelihood_nats"] = checks._segments_loglik(
            np.array(x), (0, *model["breaks"], len(x)))

    _edit_json(out / "epochs_k4_t2t.json", move_break)
    assert any("not optimal" in p for p in checks.check_epochs(out, w))


def test_epoch_count_not_aic_minimum(copy):
    w, out = copy
    _edit_json(out / "epochs_k5_t2p.json",
               lambda p: p.update(best_n_epochs=3 - p["best_n_epochs"]))
    assert any("AIC" in p for p in checks.check_epochs(out, w))


def test_epochs_without_planted_rise(copy):
    w, out = copy
    w = dataclasses.replace(w, planted_break=20)

    def flatten(payload):
        best = next(m for m in payload["models"] if m["n_epochs"] == payload["best_n_epochs"])
        for epoch in best["epochs"]:
            epoch["mean_bits"] = 1.0

    _edit_json(out / "epochs_k4_t2t.json", flatten)
    assert any("planted" in p for p in checks.check_epochs(out, w))


def test_null_p_value_off(copy):
    w, out = copy
    _edit_json(out / "null_k4_summary.json",
               lambda p: p["modes"]["t2t"].update(p_value=p["modes"]["t2t"]["p_value"] + 0.05))
    assert checks.check_null(out, w)


def test_null_mean_not_from_series(copy):
    w, out = copy
    _edit_json(out / "null_k5_summary.json",
               lambda p: p["modes"]["t2p"].update(actual_mean_bits=0.5))
    assert checks.check_null(out, w)


def test_rank_mass_not_normalised(copy):
    w, out = copy
    _edit_json(out / "null_k5_ranks.json",
               lambda p: p["observed_mass"].__setitem__(0, p["observed_mass"][0] + 0.1))
    assert checks.check_masses(out, w)


def test_alignment_not_injective(copy):
    w, out = copy
    first = checks._csv_rows(out / "compare_k4_vs_k5.csv")[0]["topic_b"]
    _edit_csv(out / "compare_k4_vs_k5.csv", 1, "topic_b", lambda v: first)
    assert checks.check_masses(out, w)


def test_distance_above_one(copy):
    w, out = copy
    _edit_csv(out / "compare_k4_vs_k5.csv", 2, "js_distance", lambda v: "1.25")
    assert checks.check_masses(out, w)


def test_fit_mix_on_wrong_topic(copy):
    w, out = copy
    _, _, phi = checks._theta(out, 4)
    planted = np.array([w.planted_topic(t) for t in
                               Corpus.load(out / "corpus.json").vocabulary.id_to_term])

    def misplace(payload):
        carries = phi[np.isin(planted, w.query_topics["query_0"])].sum(axis=0)
        mix = [0.0] * 4
        mix[int(np.argmin(carries))] = 1.0
        payload["mean_theta"] = mix

    _edit_json(out / "fit_query_0_k4.json", misplace)
    assert checks.check_fit(out, w)


def test_changed_byte_is_not_identical(produced, copy):
    _, reference = produced
    _, out = copy
    path = out / "null_k4_means.csv"
    data = bytearray(path.read_bytes())
    data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
    path.write_bytes(bytes(data))
    assert checks.check_identical(out, checks.digests(reference))


def test_missing_artifact_is_not_identical(produced, copy):
    _, reference = produced
    _, out = copy
    (out / "prepare_summary.json").unlink()
    assert checks.check_identical(out, checks.digests(reference))
