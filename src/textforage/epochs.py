"""Gaussian segmentation of surprise series with AIC model selection.

A surprise series is partitioned into contiguous epochs, each modeled
as Gaussian with its own mean and variance (both maximum-likelihood
estimates).  An n-epoch model has 3n - 1 parameters: n - 1 interior
boundaries plus a mean and variance per epoch.  Boundaries are found by
exact dynamic programming over all feasible placements; the number of
epochs is selected by the Akaike Information Criterion.

Two estimator conventions are available.  ``mle`` (the default)
divides by the segment length m and weights each segment's
log-likelihood by m/2.  ``legacy`` divides by m - 1 and weights by
(m - 1)/2, matching an older published form of these equations; it is
kept for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import BLOCK_NUMBERS

__all__ = [
    "segment_loglik",
    "EpochModel",
    "fit_epochs",
    "ModelScore",
    "select_model",
    "param_count",
    "epoch_report",
]

DEFAULT_MIN_LEN = 10
DEFAULT_VAR_FLOOR = 1e-9
VARIANCE_MODES = ("mle", "legacy")

_LOG_2PI = math.log(2.0 * math.pi)


def param_count(n_epochs: int) -> int:
    """3n - 1: n - 1 boundaries plus per-epoch mean and variance."""
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    return 3 * n_epochs - 1


def _check_boundaries(boundaries: Sequence[int], length: int) -> tuple[int, ...]:
    bounds = tuple(int(b) for b in boundaries)
    if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != length:
        raise ValueError(
            f"boundaries must run from 0 to {length}, got {bounds!r}"
        )
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError(f"boundaries must be strictly increasing: {bounds!r}")
    if any(b2 - b1 < 2 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError("every segment needs length >= 2 for a variance")
    return bounds


@dataclass(frozen=True)
class EpochModel:
    """Per-epoch Gaussian fits for one set of boundaries; those of
    `fit_epochs` are the maximum-likelihood ones."""

    boundaries: tuple[int, ...]  # e_1 = 0 .. e_{n+1} = series length
    means: tuple[float, ...]  # bits
    variances: tuple[float, ...]  # bits^2
    log_likelihood: float  # nats
    degenerate: tuple[bool, ...]  # variance hit the floor
    variance_mode: str

    @property
    def n_epochs(self) -> int:
        return len(self.boundaries) - 1

    @property
    def param_count(self) -> int:
        return param_count(self.n_epochs)

    @property
    def interior_boundaries(self) -> tuple[int, ...]:
        return self.boundaries[1:-1]


def segment_loglik(
    values: Sequence[float],
    boundaries: Sequence[int],
    variance_mode: str = "mle",
    var_floor: float = DEFAULT_VAR_FLOOR,
) -> EpochModel:
    """Gaussian log-likelihood of `values` under fixed segment boundaries.

    Boundaries are half-open cut points 0 = e_1 < ... < e_{n+1} = len;
    each segment needs at least 2 points.  Per segment the fitted
    log-likelihood is -(m/2)(1 + ln(2 pi sigma^2)) with the MLE
    variance (denominator m); totals are sums over segments, in nats.
    A zero-variance segment has its variance floored at `var_floor` and
    is flagged as degenerate rather than rejected.
    """
    if variance_mode not in VARIANCE_MODES:
        raise ValueError(f"variance_mode must be one of {VARIANCE_MODES}")
    x = np.asarray(values, dtype=np.float64)
    bounds = _check_boundaries(boundaries, x.size)
    means, variances, flags = [], [], []
    total = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        seg = x[lo:hi]
        m = hi - lo
        denom = m if variance_mode == "mle" else m - 1
        weight = m / 2.0 if variance_mode == "mle" else (m - 1) / 2.0
        mu = float(seg.sum() / denom)
        var = float(((seg - mu) ** 2).sum() / denom)
        degenerate = var < var_floor
        var = max(var, var_floor)
        total += -weight * (1.0 + _LOG_2PI + math.log(var))
        means.append(mu)
        variances.append(var)
        flags.append(degenerate)
    return EpochModel(
        boundaries=bounds,
        means=tuple(means),
        variances=tuple(variances),
        log_likelihood=total,
        degenerate=tuple(flags),
        variance_mode=variance_mode,
    )


def _cost_matrix(
    x: np.ndarray, min_len: int, variance_mode: str, var_floor: float
) -> np.ndarray:
    """cost[j, i] = max log-likelihood of segment x[i:j] (j - i >= min_len),
    -inf elsewhere; one row per segment end.

    In `mle` mode the series is centered on its global mean before the
    prefix sums: segment variances are shift-invariant and the
    segmentation is location-equivariant, so this only improves
    conditioning.  `legacy`'s segment mean sum / (m - 1) is not
    shift-equivariant, so there the raw values are summed, as
    `segment_loglik` scores them.  Rows are filled in blocks of at most
    `BLOCK_NUMBERS` entries, each entry by the same elementwise
    expression as one segment at a time.
    """
    n = x.size
    y = x - x.mean() if variance_mode == "mle" else x
    s = np.concatenate([[0.0], np.cumsum(y)])
    q = np.concatenate([[0.0], np.cumsum(y**2)])
    cost = np.full((n + 1, n + 1), -np.inf)
    step = max(BLOCK_NUMBERS // (n + 1), 1)
    for lo in range(min_len, n + 1, step):
        hi = min(lo + step, n + 1)
        starts = hi - min_len  # every start some end in lo:hi can take
        m = (np.arange(lo, hi)[:, None] - np.arange(starts)).astype(np.float64)
        seg_sum = s[lo:hi, None] - s[:starts]
        seg_sq = q[lo:hi, None] - q[:starts]
        if variance_mode == "mle":
            denom, weight = m, m / 2.0
        else:
            denom, weight = m - 1.0, (m - 1.0) / 2.0
        # segments shorter than min_len, masked out below, may divide by 0
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = seg_sum / denom
            var = (seg_sq - 2.0 * mu * seg_sum + m * mu**2) / denom
            var = np.maximum(var, var_floor)
            loglik = -weight * (1.0 + _LOG_2PI + np.log(var))
        cost[lo:hi, :starts] = np.where(m >= min_len, loglik, -np.inf)
    return cost


def _boundary_dp(cost: np.ndarray, most: int, min_len: int) -> np.ndarray:
    """back[e, j]: where the last of e epochs starts in the best cover of
    x[:j] by e = 2..most epochs, from `_cost_matrix`'s rows.

    Ends are taken in blocks of at most `BLOCK_NUMBERS` candidates.
    Starts before the first feasible one are cut off, and those too
    close to the end hold -inf, so each row's first maximum is the
    earliest best boundary.
    """
    n = cost.shape[0] - 1
    # dp[e][j]: best log-likelihood covering x[:j] with e epochs
    dp = np.full((most + 1, n + 1), -np.inf)
    back = np.zeros((most + 1, n + 1), dtype=np.int64)
    dp[1] = cost[:, 0]
    for e in range(2, most + 1):
        lo = (e - 1) * min_len
        step = max(BLOCK_NUMBERS // (n + 1 - lo), 1)
        for j in range(e * min_len, n + 1, step):
            candidates = dp[e - 1, lo:] + cost[j : j + step, lo:]
            best = np.argmax(candidates, axis=1)
            dp[e, j : j + step] = candidates[np.arange(best.size), best]
            back[e, j : j + step] = lo + best
    return back


def fit_epochs(
    values: Sequence[float],
    n_epochs: int,
    min_len: int = DEFAULT_MIN_LEN,
    variance_mode: str = "mle",
    var_floor: float = DEFAULT_VAR_FLOOR,
) -> EpochModel:
    """Maximum-likelihood boundaries for exactly `n_epochs` epochs.

    Exact dynamic programming over all feasible boundary placements
    (every segment at least `min_len` >= 2 positions); among equally
    likely placements the earliest boundaries win.
    """
    return _fit_counts(values, [n_epochs], min_len, variance_mode, var_floor)[0]


def _fit_counts(
    values: Sequence[float],
    counts: Sequence[int],
    min_len: int,
    variance_mode: str,
    var_floor: float,
) -> list[EpochModel]:
    """`fit_epochs` for each epoch count in `counts`, from one cost
    matrix and one dynamic program up to the largest count."""
    if variance_mode not in VARIANCE_MODES:
        raise ValueError(f"variance_mode must be one of {VARIANCE_MODES}")
    x = np.asarray(values, dtype=np.float64)
    min_len = max(int(min_len), 2)
    for n_epochs in counts:
        if n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        if x.size < n_epochs * min_len:
            raise ValueError(
                f"series of length {x.size} cannot hold {n_epochs} epochs "
                f"of >= {min_len} positions"
            )
    n = x.size
    back = _boundary_dp(_cost_matrix(x, min_len, variance_mode, var_floor), max(counts), min_len)

    models = []
    for n_epochs in counts:
        bounds = [n]
        j = n
        for e in range(n_epochs, 1, -1):
            j = int(back[e, j])
            bounds.append(j)
        bounds.append(0)
        bounds.reverse()
        models.append(
            segment_loglik(x, bounds, variance_mode=variance_mode, var_floor=var_floor)
        )
    return models


@dataclass(frozen=True)
class ModelScore:
    """An epoch model with its information-criterion standing."""

    model: EpochModel
    aic: float
    relative_likelihood: float  # exp((AIC_min - AIC) / 2); 1 for the best
    delta_loglik: float  # against the single-epoch model

    @property
    def n_epochs(self) -> int:
        return self.model.n_epochs


def select_model(
    values: Sequence[float],
    max_epochs: int,
    min_len: int = DEFAULT_MIN_LEN,
    variance_mode: str = "mle",
    var_floor: float = DEFAULT_VAR_FLOOR,
) -> list[ModelScore]:
    """Fit 1..max_epochs epochs and score each by AIC.

    AIC = 2 * (3n - 1) - 2 * logL; the model with minimal AIC has
    relative likelihood 1 and the others exp((AIC_min - AIC) / 2).
    Returns scores ordered by epoch count.
    """
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    models = _fit_counts(values, range(1, max_epochs + 1), min_len, variance_mode, var_floor)
    aics = [2.0 * m.param_count - 2.0 * m.log_likelihood for m in models]
    best = min(aics)
    base_ll = models[0].log_likelihood
    return [
        ModelScore(
            model=m,
            aic=aic,
            relative_likelihood=math.exp((best - aic) / 2.0),
            delta_loglik=m.log_likelihood - base_ll,
        )
        for m, aic in zip(models, aics)
    ]


def best_model(scores: Sequence[ModelScore]) -> ModelScore:
    return min(scores, key=lambda s: s.aic)


def epoch_report(
    scores: Sequence[ModelScore],
    position_labels: Sequence[str] | None = None,
) -> dict:
    """JSON-ready AIC table with per-epoch parameters.

    `position_labels` (e.g. reading dates), when given, must label every
    series position; boundary positions are then also reported as
    labels.
    """
    table = []
    for score in scores:
        m = score.model
        entry = {
            "n_epochs": m.n_epochs,
            "breaks": list(m.interior_boundaries),
            "param_count": m.param_count,
            "log_likelihood_nats": m.log_likelihood,
            "aic": score.aic,
            "relative_likelihood": score.relative_likelihood,
            "delta_loglik_vs_null": score.delta_loglik,
            "epochs": [
                {
                    "start": int(lo),
                    "end": int(hi),
                    "mean_bits": mu,
                    "variance_bits2": var,
                    "degenerate": flag,
                }
                for lo, hi, mu, var, flag in zip(
                    m.boundaries, m.boundaries[1:], m.means, m.variances, m.degenerate
                )
            ],
        }
        if position_labels is not None:
            entry["break_labels"] = [str(position_labels[b]) for b in m.interior_boundaries]
            for seg in entry["epochs"]:
                seg["start_label"] = str(position_labels[seg["start"]])
        table.append(entry)
    chosen = best_model(scores)
    return {
        "variance_mode": chosen.model.variance_mode,
        "best_n_epochs": chosen.model.n_epochs,
        "models": table,
    }
