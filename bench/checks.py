"""Output checks for one pipeline run.

Each check recomputes a result apart from the program, or tests a
property the method must have, and returns a list of problems (empty
when the output is right).  `run_all` applies the ones that fit a
workload.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from textforage.corpus import Corpus
from textforage.epochs import DEFAULT_VAR_FLOOR
from textforage.lda import TopicModel, estimate_distributions

TOL = 1e-9


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _theta(out: Path, k: int, smoothing: bool = True) -> tuple[TopicModel, np.ndarray, np.ndarray]:
    corpus = Corpus.load(out / "corpus.json")
    model = TopicModel.load(out / f"model_k{k}.json", corpus.vocabulary)
    theta, phi = estimate_distributions(model, smoothing=smoothing)
    return model, theta, phi


def _kl_bits(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.sum(q * np.log2(q / p), axis=1)


def reference_series(theta: np.ndarray) -> dict[str, np.ndarray]:
    """t2t and t2p surprise in bits, straight from the definitions."""
    past = np.cumsum(theta, axis=0)[:-1] / np.arange(1, theta.shape[0])[:, None]
    past /= past.sum(axis=1, keepdims=True)
    return {"t2t": _kl_bits(theta[1:], theta[:-1]), "t2p": _kl_bits(theta[1:], past)}


def check_series(out: Path, w) -> list[str]:
    problems = []
    smoothing = w.config.get("measure", {}).get("smoothing", True)
    for k in w.config["training"]["ks"]:
        model, theta, _ = _theta(out, k, smoothing)
        expected = reference_series(theta)
        for mode, values in expected.items():
            rows = _csv_rows(out / f"series_k{k}_{mode}.csv")
            got = np.array([float(r["bits"]) for r in rows])
            ids = [r["item_id"] for r in rows]
            if ids != list(model.doc_ids[1:]):
                problems.append(f"series_k{k}_{mode}: item ids differ from the reading order")
            elif not np.allclose(got, values, rtol=TOL, atol=TOL):
                worst = float(np.max(np.abs(got - values)))
                problems.append(f"series_k{k}_{mode}: off the recomputed series by {worst:.3g} bits")
    return problems


def _gauss_loglik(m, var):
    return -m / 2.0 * (1.0 + np.log(2.0 * np.pi * np.maximum(var, DEFAULT_VAR_FLOOR)))


def _segments_loglik(x: np.ndarray, bounds) -> float:
    return float(sum(_gauss_loglik(hi - lo, np.var(x[lo:hi]))
                     for lo, hi in zip(bounds, bounds[1:])))


def brute_force_epochs(x: np.ndarray, n_epochs: int, min_len: int) -> float:
    """Best Gaussian (MLE variance) log-likelihood over every placement
    of up to three epochs of at least `min_len` values each."""
    if n_epochs > 3:
        raise ValueError("brute-force epoch search covers at most 3 epochs")
    n = x.size
    c = x - x.mean()
    s, q = np.concatenate([[0.0], np.cumsum(c)]), np.concatenate([[0.0], np.cumsum(c * c)])
    lo, hi = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    m = (hi - lo).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = (q[hi] - q[lo]) / m - ((s[hi] - s[lo]) / m) ** 2
        seg = np.where(m >= min_len, _gauss_loglik(m, var), -np.inf)  # seg[lo, hi]
    if n_epochs == 1:
        return float(seg[0, n])
    if n_epochs == 2:
        return float(np.max(seg[0, :] + seg[:, n]))
    return float(np.max(seg[0, :, None] + seg + seg[None, :, n]))


def check_epochs(out: Path, w) -> list[str]:
    problems = []
    cfg = w.config["epochs"]
    min_len = max(cfg["min_len"], 2)
    ks = w.config["training"]["ks"]
    for k in ks:
        for mode in ("t2t", "t2p"):
            x = np.array([float(r["bits"]) for r in _csv_rows(out / f"series_k{k}_{mode}.csv")])
            report = _json(out / f"epochs_k{k}_{mode}.json")
            aic = {}
            for entry in report["models"]:
                n = entry["n_epochs"]
                bounds = (0, *entry["breaks"], x.size)
                ll = _segments_loglik(x, bounds)
                best = brute_force_epochs(x, n, min_len)
                if not math.isclose(ll, entry["log_likelihood_nats"], rel_tol=TOL, abs_tol=TOL):
                    problems.append(f"epochs_k{k}_{mode} n={n}: reported log-likelihood "
                                    f"{entry['log_likelihood_nats']} != {ll} for its breaks")
                if ll < best - TOL * max(1.0, abs(best)):
                    problems.append(f"epochs_k{k}_{mode} n={n}: breaks {entry['breaks']} "
                                    f"not optimal ({ll} < {best})")
                aic[n] = 2.0 * (3 * n - 1) - 2.0 * ll
            if report["best_n_epochs"] != min(aic, key=aic.get):
                problems.append(f"epochs_k{k}_{mode}: best_n_epochs {report['best_n_epochs']} "
                                f"is not the AIC minimum")
    if w.planted_break is not None:
        # the planted regime change: settled reading, then exploration
        report = _json(out / f"epochs_k{min(ks)}_t2t.json")
        chosen = next(m for m in report["models"] if m["n_epochs"] == report["best_n_epochs"])
        means = [e["mean_bits"] for e in chosen["epochs"]]
        if len(means) < 2 or means[-1] <= means[0]:
            problems.append(f"epochs_k{min(ks)}_t2t: no rise in surprise across the planted "
                            f"break (epoch means {means})")
    return problems


def check_null(out: Path, w) -> list[str]:
    problems = []
    n = w.config["null_model"]["permutations"]
    for k in w.config["training"]["ks"]:
        rows = _csv_rows(out / f"null_k{k}_means.csv")
        summary = _json(out / f"null_k{k}_summary.json")["modes"]
        if len(rows) != n:
            problems.append(f"null_k{k}_means: {len(rows)} permutations, expected {n}")
        for mode, entry in summary.items():
            null = np.array([float(r[f"{mode}_mean_bits"]) for r in rows])
            actual = entry["actual_mean_bits"]
            p = (1 + int(np.sum(null <= actual))) / (len(null) + 1)
            if p != entry["p_value"]:
                problems.append(f"null_k{k} {mode}: p-value {entry['p_value']} != {p}")
            series = [float(r["bits"]) for r in _csv_rows(out / f"series_k{k}_{mode}.csv")]
            if not math.isclose(actual, float(np.mean(series)), rel_tol=TOL, abs_tol=TOL):
                problems.append(f"null_k{k} {mode}: actual mean {actual} differs from the "
                                f"measured series mean {np.mean(series)}")
    return problems


def check_masses(out: Path, w) -> list[str]:
    problems = []
    ks = w.config["training"]["ks"]
    for k in ks:
        ranks = _json(out / f"null_k{k}_ranks.json")
        for field in ("observed_mass", "null_mean_mass"):
            mass = np.array(ranks[field])
            if np.any(mass < 0) or not math.isclose(mass.sum(), 1.0, abs_tol=TOL):
                problems.append(f"null_k{k}_ranks: {field} is not a distribution")
    for k_a, k_b in zip(ks, ks[1:]):
        k_a, k_b = sorted((k_a, k_b))
        rows = _csv_rows(out / f"compare_k{k_a}_vs_k{k_b}.csv")
        targets = [r["topic_b"] for r in rows]
        distances = np.array([float(r["js_distance"]) for r in rows])
        summary = _json(out / f"compare_k{k_a}_vs_k{k_b}.json")
        if len(set(targets)) != len(targets) or len(rows) != k_a or not summary["injective"]:
            problems.append(f"compare_k{k_a}_vs_k{k_b}: alignment is not injective")
        if np.any((distances < 0) | (distances > 1)) or not 0 <= summary["mean_distance"] <= 1:
            problems.append(f"compare_k{k_a}_vs_k{k_b}: distance outside [0, 1]")
    return problems


def check_fit(out: Path, w) -> list[str]:
    """Each query's fitted mix favours the learned topics that carry its
    planted topics' words: weighting each topic by its phi mass on
    those words, the mix scores above the corpus-wide topic shares."""
    problems = []
    k = w.config["training"]["ks"][0]
    model, _, phi = _theta(out, k)
    planted = np.array([w.planted_topic(t) for t in model.vocabulary.id_to_term])
    corpus_share = model.n_t / model.n_t.sum()
    for name, topics in w.query_topics.items():
        mix = np.array(_json(out / f"fit_{name}_k{k}.json")["mean_theta"])
        carries = phi[np.isin(planted, topics)].sum(axis=0)
        if not math.isclose(mix.sum(), 1.0, abs_tol=TOL) or mix @ carries <= corpus_share @ carries:
            problems.append(f"fit_{name}_k{k}: mix scores {mix @ carries:.3f} on planted topics "
                            f"{topics}, corpus shares {corpus_share @ carries:.3f}")
    return problems


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def check_identical(out: Path, reference: dict[str, str]) -> list[str]:
    got = digests(out)
    if got.keys() != reference.keys():
        return [f"artifact set differs: {sorted(got.keys() ^ reference.keys())}"]
    return [f"{name}: bytes differ from the reference run"
            for name in got if got[name] != reference[name]]


CHECKS = {
    "series": check_series,
    "epochs": check_epochs,
    "null": check_null,
    "masses": check_masses,
    "fit": check_fit,
}


def run_all(out: Path, w, reference: dict[str, str] | None) -> dict[str, list[str]]:
    """Problems per check; `identical` is checked when a reference is given."""
    results = {}
    for name in CHECKS:
        if name == "fit" and not w.query_topics:
            continue
        try:
            results[name] = CHECKS[name](out, w)
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            results[name] = [f"{type(exc).__name__}: {exc}"]
    if reference is not None:
        results["identical"] = check_identical(out, reference)
    return results
