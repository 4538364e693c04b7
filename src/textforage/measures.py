"""Information-theoretic measures over topic distributions.

All logarithms are base 2 and all results are reported in bits.  The
divergence argument order follows the reading-surprise convention:
``kl_divergence(q, p)`` is the surprise of encountering ``q`` when the
reader's expectations were built on ``p``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError

__all__ = [
    "as_distribution",
    "entropy",
    "kl_divergence",
    "kl_divergence_rows",
    "js_divergence",
    "js_distance",
    "js_distance_pairs",
    "js_distance_matrix",
    "Enclosure",
    "encloses",
    "SurpriseSeries",
    "surprise_series",
    "surprise_values",
]

#: Tolerated deviation of a probability vector's sum from 1.
NORMALIZATION_TOL = 1e-9
#: numbers per block here, in `nullmodels` and in `epochs`: 64 KB of float
#: temporaries, under glibc's 128 KB mmap threshold, so blocks reuse heap memory
BLOCK_NUMBERS = 2**13


def as_distribution(values, tol: float = NORMALIZATION_TOL) -> np.ndarray:
    """Validate and return `values` as a float64 probability vector.

    Raises ValueError if any entry is negative or NaN or the sum deviates
    from 1 by more than `tol`.
    """
    p = np.asarray(values, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("distribution must be a non-empty 1-d vector")
    return _check_rows(p, tol)


def _check_rows(p: np.ndarray, tol: float = NORMALIZATION_TOL) -> np.ndarray:
    """`p`, one distribution or a stack along the last axis, once no
    entry is negative or NaN and each sums to 1 within `tol`.  Both
    comparisons are written so that NaN fails them."""
    if not (p >= 0).all():
        kind = "NaN" if np.isnan(p).any() else "negative"
        raise ValueError(f"distribution has {kind} entries")
    totals = p.sum(axis=-1)
    off = ~(np.abs(totals - 1.0) <= tol)
    if off.any():
        raise ValueError(f"distribution sums to {float(totals[off][0])!r}, not 1")
    return p


def entropy(p) -> float:
    """Shannon entropy of `p` in bits, with 0*log(0) taken as 0.

    Bounded by log2(len(p)); 0 for a point mass.
    """
    p = as_distribution(p)
    nz = p[p > 0]
    return max(float(-(nz * np.log2(nz)).sum()), 0.0)


def kl_divergence(q, p) -> float:
    """D_KL(q | p) = sum_i q_i log2(q_i / p_i), in bits.

    Argument order is (new, old): the divergence experienced when `q`
    arrives while `p` was expected.  Non-negative, and 0 iff q == p.
    """
    q = as_distribution(q)
    p = as_distribution(p)
    if q.shape != p.shape:
        raise ValueError("distributions differ in length")
    return float(kl_divergence_rows(q, p)[0])


def kl_divergence_rows(q_rows: np.ndarray, p_rows: np.ndarray) -> np.ndarray:
    """Row-wise KL divergence between two stacks of distributions.

    The last axis holds the distributions and is reduced; `q_rows` and
    `p_rows` broadcast against each other over any leading axes, so a
    single vector `p_rows` serves every row of `q_rows`.  Rows are
    assumed already validated.  Terms with q_i = 0 contribute nothing.
    A row whose sum is infinite (q_i > 0 against p_i = 0, or a p_i so
    small that q_i / p_i overflows) raises rather than clamping, because
    any upstream smoothing should have prevented it; finite sums are
    clamped at 0.
    """
    q = np.atleast_2d(np.asarray(q_rows, dtype=np.float64))
    p = np.atleast_2d(np.asarray(p_rows, dtype=np.float64))
    return np.maximum(_finite(_kl_sums(q, p)), 0.0)


def _kl_sums(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Sums over the last axis of q_i log2(q_i / p_i), terms with q_i = 0
    taken as 0: infinite where some q_i > 0 meets p_i = 0 or where the
    ratio overflows.  Unclamped, so rounding may leave a sum just below 0."""
    support = q > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.where(support, q * np.log2(np.where(support, q, 1.0) / p), 0.0)
    return terms.sum(axis=-1)


def _finite(divergences: np.ndarray) -> np.ndarray:
    """`divergences`, once none of them is infinite."""
    if np.isinf(divergences).any():
        raise NumericalDegeneracyError("infinite divergence: q has mass where p has none")
    return divergences


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence of `p` and `q` in bits.

    The symmetrized, smoothed KL through the midpoint M = (p + q) / 2;
    always in [0, 1] bits.
    """
    p = as_distribution(p)
    q = as_distribution(q)
    if p.shape != q.shape:
        raise ValueError("distributions differ in length")
    return float(_js_divergence_one_to_many(p, q[None])[0])


def js_distance(p, q) -> float:
    """Jensen-Shannon distance: sqrt of the JS divergence.

    A true metric on distributions (symmetric, zero iff equal, and
    satisfying the triangle inequality), bounded by 1.
    """
    return float(np.sqrt(js_divergence(p, q)))


def _js_divergence_one_to_many(p: np.ndarray, q_rows: np.ndarray) -> np.ndarray:
    """JS divergence of `p` (one row, or rows paired) against `q_rows`.

    Uses the two-KL form so identical rows give exactly 0 (the entropy
    identity cancels imperfectly in float and the square root inflates
    that noise).  Each half, 0.5 KL(p | (p + q) / 2), is taken as
    0.25 KL(2p | p + q): doubling is exact, halving a subnormal is not.
    """
    total = q_rows + p
    return np.maximum(0.25 * _kl_sums(2 * p, total) + 0.25 * _kl_sums(2 * q_rows, total), 0.0)


def js_distance_pairs(a, b, first, second) -> np.ndarray:
    """JS distance, in bits, of rows `a[first[s]]` and `b[second[s]]`
    for each pair s; rows are float distributions, taken as given.

    Each block of pairs gathers its rows into new arrays, so every
    distance has the bits of `js_distance` of its two rows whatever the
    memory layout of `a` and `b`.  A block's temporaries hold at most
    `BLOCK_NUMBERS` floats.
    """
    out = np.empty(len(first))
    step = max(1, BLOCK_NUMBERS // a.shape[1])
    for s in range(0, len(first), step):
        block = slice(s, s + step)
        out[block] = _js_divergence_one_to_many(a[first[block]], b[second[block]])
    return np.sqrt(out, out=out)


def js_distance_matrix(rows) -> np.ndarray:
    """Pairwise JS distance matrix for a stack of distributions."""
    theta = np.asarray(rows, dtype=np.float64)
    out = np.zeros((len(theta), len(theta)))
    first, second = np.triu_indices(len(theta), 1)
    out[first, second] = out[second, first] = js_distance_pairs(theta, theta, first, second)
    return out


class Enclosure(enum.Enum):
    """Outcome of the asymmetry comparison between two distributions."""

    P_ENCLOSES_Q = "p_encloses_q"
    Q_ENCLOSES_P = "q_encloses_p"
    TIE = "tie"


def encloses(p, q, tol: float = 1e-12) -> Enclosure:
    """Which of `p`, `q` encloses the other.

    `p` encloses `q` when KL(q | p) < KL(p | q): a script optimized for
    `p` fails less badly on `q` than the reverse, so `p` is the more
    comprehensive distribution.  Differences within `tol` are a tie.
    """
    forward = kl_divergence(q, p)
    backward = kl_divergence(p, q)
    if abs(forward - backward) <= tol:
        return Enclosure.TIE
    return Enclosure.P_ENCLOSES_Q if forward < backward else Enclosure.Q_ENCLOSES_P


@dataclass(frozen=True)
class SurpriseSeries:
    """An ordered sequence of per-step surprises, in bits.

    `values[j]` is the surprise of the item at position j+1 in the
    reading order; a series over n items therefore has n-1 values.
    """

    mode: str
    values: np.ndarray
    window: int | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if np.any(values < 0):
            raise ValueError("surprise values must be non-negative")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def positions(self) -> np.ndarray:
        """Positions of the arriving items (1-based)."""
        return np.arange(1, len(self.values) + 1)


def surprise_values(theta, mode: str = "t2t", window: int | None = None) -> np.ndarray:
    """Per-step KL surprise of the rows of `theta`, in bits.

    The one implementation behind every surprise series: `theta` is an
    (..., n, k) stack of already validated distributions in reading
    order, and entry j of the last axis is the surprise of row j+1;
    leading axes are separate orders.  Past means are plain cumulative
    means (one cumsum), renormalized to absorb accumulation error; the
    t2n window sum is a difference of that cumsum.  See
    :func:`surprise_series` for the modes.
    """
    if mode not in ("t2t", "t2p", "t2n"):
        raise ValueError(f"unknown surprise mode {mode!r}")
    if mode == "t2n":
        if window is None or window < 1:
            raise ValueError("t2n mode requires a window >= 1")
    elif window is not None:
        raise ValueError(f"window is only meaningful for t2n, not {mode!r}")
    theta = np.asarray(theta, dtype=np.float64)
    if mode == "t2t":
        return kl_divergence_rows(theta[..., 1:, :], theta[..., :-1, :])
    cums = np.cumsum(theta, axis=-2)
    sums = cums[..., :-1, :]
    counts = np.arange(1, theta.shape[-2], dtype=np.float64)
    if mode == "t2n":
        sums = sums.copy()
        sums[..., window:, :] -= cums[..., : -1 - window, :]
        counts = np.minimum(counts, window)
    past_means = sums / counts[:, None]
    past_means = past_means / past_means.sum(axis=-1, keepdims=True)
    return kl_divergence_rows(theta[..., 1:, :], past_means)


def surprise_series(dists, mode: str = "t2t", window: int | None = None) -> SurpriseSeries:
    """Per-step KL surprise along an ordered sequence of distributions.

    Modes:

    * ``t2t`` -- local surprise, KL(theta_i | theta_{i-1});
    * ``t2p`` -- global surprise, KL(theta_i | mean of theta_0..theta_{i-1});
    * ``t2n`` -- windowed surprise against the mean of the previous
      min(window, i) distributions.

    Past means are arithmetic means of the raw distributions,
    renormalized to absorb accumulation error.  At position 1 the past
    consists of a single item, so t2p and t2n agree with t2t there.
    `dists`, an (n, k) array or n rows, is checked as one stack.
    """
    try:
        theta = np.asarray(dists, dtype=np.float64)
    except ValueError:
        if len({np.size(d) for d in dists}) > 1:  # ragged rows
            raise ValueError("distributions differ in length") from None
        raise
    if theta.ndim < 2 or len(theta) < 2:
        raise ValueError("need at least 2 distributions")
    if theta.ndim > 2 or theta.shape[1] == 0:
        raise ValueError("distribution must be a non-empty 1-d vector")
    mode = mode.lower()
    values = surprise_values(_check_rows(theta), mode, window)
    return SurpriseSeries(mode=mode, values=values, window=window)
