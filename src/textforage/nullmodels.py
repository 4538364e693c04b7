"""Publication-constrained permutation nulls and path baselines.

The null model keeps the original reading dates fixed and re-samples
the reading list without replacement, each slot drawing uniformly among
the not-yet-used items already published by that slot's date.  Slots
are filled in chronological order, so the eligible pool only ever
grows; the sampler therefore terminates exactly when a feasible
assignment exists at all.  (Sequential filling is uniform over feasible
orders in the unconstrained case; with active constraints it defines
the operative null rather than the uniform-over-feasible-orders null.)
Every draw's pool size is known before any draw is made: at the r-th
slot in date order it is the number of items published by that slot's
date, minus r.  A `ReadingOrder` computes this slot schedule once and
checks feasibility there, before any draw; a permutation is then one
`Generator.integers` call over the pool sizes, which yields the same
stream as one call per slot, followed by swap-removal from the pool.
Since every pool size is fixed by the schedule, a block of permutations
is filled in lockstep, one array operation per slot.

Also here: empirical one-sided p-values with add-one smoothing,
cumulative surprise relative to the per-position null mean, the greedy
nearest-neighbor reading path, and log-binned rank distributions of
reading choices.

The null layer reads one divergence matrix per model, `kl_matrix`:
entry ``[c, r]`` is KL(theta_r || theta_c), filled in blocks of rows
by the KL sum behind `kl_divergence_rows`, so every reading of it has
the bits of the series it stands for.  `order_series` gives the series
of the actual order, of every permutation and of the greedy paths: t2t
is ``d[order[:-1], order[1:]]`` and t2p is measured, in blocks of
permutations, by `surprise_values`.  The greedy t2t path takes the first
minimum of ``d[current, remaining]``.
Reading-choice ranks compare per-row competition ranks of the matrix,
built once (int16 while n < 2**15), so each order costs one n x n
gather of small integers.  The matrix is O(n^2) in memory (2.9 MB of
float64 at 600 items).  A pair where theta_r has mass where theta_c has
none is stored as infinite, and only a series step, greedy step or rank
that reads such an entry raises `NumericalDegeneracyError`, as
`kl_divergence_rows` would.  Block temporaries hold about
`BLOCK_NUMBERS` floats, which keeps peak memory flat.
"""

from __future__ import annotations

import datetime
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, as_earliest, as_latest
from .measures import BLOCK_NUMBERS, _finite, _kl_sums, kl_divergence_rows, surprise_values
from .seeds import derive_seed, rng_from

__all__ = [
    "ReadingOrder",
    "constrained_permutation",
    "NullComparison",
    "null_ensemble",
    "order_series",
    "greedy_shortest_path",
    "kl_matrix",
    "RankDistribution",
    "rank_distribution",
]

#: pool items per block of permutations drawn in lockstep; a draw costs a
#: few array operations per slot and block, so these blocks are wider
DRAW_NUMBERS = 2**15


class SlotSchedule(NamedTuple):
    """What the constrained sampler needs of an order, draws aside.

    Entry r of `eligible` and `pool_sizes` belongs to slot `slots[r]`,
    the r-th slot by date (ties by slot index): the number of items
    published by its date, of which r are taken by earlier slots.
    `items_by_pub` lists item positions by publication date (ties by
    position), so a slot's eligible items are its first `eligible[r]`.
    """

    slots: tuple[int, ...]
    items_by_pub: tuple[int, ...]
    eligible: tuple[int, ...]
    pool_sizes: np.ndarray  # int64, every entry >= 1


@dataclass(frozen=True)
class ReadingOrder:
    """Items in reading order with their slot (reading) and publication dates.

    Feasible iff every slot's item was published on or before the slot
    date; items published exactly on the slot date are eligible.
    Publication dates compare by their earliest consistent day and slot
    dates by their latest, so partial dates never manufacture
    violations.
    """

    item_ids: tuple[str, ...]
    slot_dates: tuple[datetime.date, ...]
    pub_dates: tuple[datetime.date, ...]

    def __post_init__(self):
        n = len(self.item_ids)
        if len(self.slot_dates) != n or len(self.pub_dates) != n:
            raise ValueError("item_ids, slot_dates, pub_dates differ in length")
        if len(set(self.item_ids)) != n:
            raise ValueError("duplicate item ids")
        object.__setattr__(
            self, "slot_dates", tuple(as_latest(d) for d in self.slot_dates)
        )
        object.__setattr__(
            self, "pub_dates", tuple(as_earliest(d) for d in self.pub_dates)
        )

    def __len__(self) -> int:
        return len(self.item_ids)

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "ReadingOrder":
        docs = corpus.in_reading_order()
        missing = [d.spec.id for d in docs if d.spec.pub_date is None]
        if missing:
            raise ValueError(f"documents without pub_date: {', '.join(missing[:5])}")
        missing = [d.spec.id for d in docs if d.spec.read_date is None]
        if missing:
            raise ValueError(f"documents without read_date: {', '.join(missing[:5])}")
        return cls(
            item_ids=tuple(d.spec.id for d in docs),
            slot_dates=tuple(d.spec.read_date for d in docs),
            pub_dates=tuple(d.spec.pub_date for d in docs),
        )

    @cached_property
    def schedule(self) -> SlotSchedule:
        """The slot schedule, computed once per order.

        Raises `ValueError` naming the first slot (by date) left with
        no eligible item, which is exactly when no feasible permutation
        exists.
        """
        slots = tuple(sorted(range(len(self)), key=self.slot_dates.__getitem__))
        items_by_pub = tuple(sorted(range(len(self)), key=self.pub_dates.__getitem__))
        published = [self.pub_dates[i] for i in items_by_pub]
        eligible = tuple(bisect_right(published, self.slot_dates[s]) for s in slots)
        pool_sizes = np.asarray(eligible, dtype=np.int64) - np.arange(len(self))
        empty = np.flatnonzero(pool_sizes <= 0)
        if empty.size:
            slot = slots[empty[0]]
            raise ValueError(
                f"infeasible order: slot {slot} ({self.item_ids[slot]}, "
                f"{self.slot_dates[slot].isoformat()}) has no eligible remaining item"
            )
        return SlotSchedule(slots, items_by_pub, eligible, pool_sizes)


def constrained_permutation(order: ReadingOrder, seed_or_rng) -> np.ndarray:
    """One re-sampled reading order respecting the publication constraint.

    Returns item positions (indices into the original order): entry s is
    the item read at slot s.  Slots are filled chronologically, each
    receiving a uniform draw among the remaining items published by the
    slot date.  Reproducible from the seed.
    """
    schedule = order.schedule
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else rng_from(seed_or_rng)
    return _constrained_permutations(schedule, [rng])[0]


def _constrained_permutations(schedule: SlotSchedule, rngs) -> np.ndarray:
    """One `constrained_permutation` per generator, filled in lockstep.

    Every permutation's pool holds the same number of items at every
    slot, so one array operation per slot serves them all: column b of
    `pool` is permutation b's pool, and a pick swaps the pool's last
    item into its place.
    """
    picks = np.array([rng.integers(schedule.pool_sizes) for rng in rngs])
    columns = np.arange(len(rngs))
    items = np.asarray(schedule.items_by_pub, dtype=np.int64)
    perms = np.empty((len(rngs), len(items)), dtype=np.int64)
    pool = np.empty((len(items), len(rngs)), dtype=np.int64)
    added = 0
    for r, (slot, eligible) in enumerate(zip(schedule.slots, schedule.eligible)):
        pool[added - r : eligible - r] = items[added:eligible, None]
        added = eligible
        j = picks[:, r]
        perms[:, slot] = pool[j, columns]
        pool[j, columns] = pool[eligible - r - 1]
    return perms


@dataclass(frozen=True)
class NullComparison:
    """An actual reading order measured against its permutation null.

    Stores the permutations and the series; every statistic is derived
    on first access, per mode of `actual_series`.
    """

    permutations: np.ndarray  # (n_permutations, n_items), item index per slot
    actual_series: dict[str, np.ndarray]
    mean_by_mode: dict[str, np.ndarray]  # per-permutation mean surprise
    null_series_by_mode: dict[str, np.ndarray]  # per-position null mean

    @cached_property
    def n_permutations(self) -> int:
        return int(self.permutations.shape[0])

    @cached_property
    def actual_mean(self) -> dict[str, float]:
        return {m: float(s.mean()) for m, s in self.actual_series.items()}

    @cached_property
    def p_value(self) -> dict[str, float]:
        n = self.n_permutations
        return {m: float((1 + np.sum(self.mean_by_mode[m] <= s.mean())) / (n + 1))
                for m, s in self.actual_series.items()}

    @cached_property
    def cumulative_relative(self) -> dict[str, np.ndarray]:
        return {m: np.cumsum(s - self.null_series_by_mode[m])
                for m, s in self.actual_series.items()}

    @cached_property
    def null_ci(self) -> dict[str, tuple[float, float]]:  # 95% band of per-permutation means
        return {m: (float(_percentile(means, 2.5)), float(_percentile(means, 97.5)))
                for m, means in self.mean_by_mode.items()}

    def summary_payload(self) -> dict:
        out = {}
        for mode in self.actual_series:
            out[mode] = {
                "actual_mean_bits": self.actual_mean[mode],
                "null_mean_bits": float(self.mean_by_mode[mode].mean()),
                "null_ci95_bits": list(self.null_ci[mode]),
                "p_value": self.p_value[mode],
                "n_permutations": self.n_permutations,
                "cumulative_relative_final_bits": float(self.cumulative_relative[mode][-1]),
            }
        return out


def null_ensemble(
    order: ReadingOrder,
    dists: np.ndarray,
    n: int,
    seed: int,
    modes: Sequence[str] = ("t2t", "t2p"),
    d: np.ndarray | None = None,
) -> NullComparison:
    """Generate `n` constrained permutations and compare the actual order.

    `dists` are the topic distributions aligned with `order` (row i is
    the item read at slot i).  The one-sided p-value asks how often a
    null permutation's mean surprise is at or below the actual mean,
    with add-one smoothing: p = (1 + #{null <= actual}) / (n + 1), so a
    p-value of exactly 0 is never reported.  cumulative_relative is the
    running sum of (actual - null mean) per position.  t2t series are
    read off `d`, the :func:`kl_matrix` of `dists` (built here when not
    given); t2p series are measured in blocks of permutations.
    """
    if n < 1:
        raise ValueError("need at least one permutation")
    for mode in modes:
        if mode not in ("t2t", "t2p"):
            raise ValueError(f"unknown mode {mode!r}")
    theta = np.asarray(dists, dtype=np.float64)
    if theta.shape[0] != len(order):
        raise ValueError("dists and order are not aligned")
    if d is None and "t2t" in modes:
        d = kl_matrix(theta)
    actual_series = {m: order_series(theta, d, np.arange(len(order)), m) for m in modes}
    schedule = order.schedule
    per = max(1, DRAW_NUMBERS // len(order))
    permutations = np.vstack([
        _constrained_permutations(schedule, [
            rng_from(derive_seed(seed, draw, "null")) for draw in range(start, min(start + per, n))
        ])
        for start in range(0, n, per)
    ])
    per_perm_means = {m: np.empty(n) for m in modes}
    series_sums = {m: np.zeros(len(order) - 1) for m in modes}
    step = max(1, BLOCK_NUMBERS // theta.size)
    for start in range(0, n, step):
        block = permutations[start : start + step]
        for m in modes:
            values = order_series(theta, d, block, m)
            per_perm_means[m][start : start + step] = values.mean(axis=1)
            for row in values:
                series_sums[m] += row

    return NullComparison(
        permutations=permutations,
        actual_series=actual_series,
        mean_by_mode=per_perm_means,
        null_series_by_mode={m: series_sums[m] / n for m in modes},
    )


def order_series(theta: np.ndarray, d, orders: np.ndarray, mode: str) -> np.ndarray:
    """The t2t or t2p series of the rows of `theta` read in `orders`
    (one order, or a stack of them): t2t read off `d`, the
    :func:`kl_matrix` of `theta`, t2p measured by `surprise_values`."""
    if mode == "t2p":
        return surprise_values(theta[orders], "t2p")
    return _finite(d[orders[..., :-1], orders[..., 1:]])


def _percentile(values: np.ndarray, q: float) -> np.ndarray:
    """``np.percentile(values, q, axis=0)`` by numpy's default linear
    method, bit for bit for values without NaN or -0.0 (numpy partitions
    where this sorts, which may order -0.0 and 0.0 apart).

    numpy's own call reaches `np.unique`, which imports `numpy.ma` on
    first use (about 20 ms of a fresh process).
    """
    ordered = np.sort(values, axis=0)
    last = ordered.shape[0] - 1
    index = last * (q / 100)
    if index >= last:  # numpy takes the last value, with gamma measured from -1
        lo = hi = last
        gamma = index + 1
    else:
        lo = math.floor(index)
        hi = lo + 1
        gamma = index - lo
    diff = ordered[hi] - ordered[lo]
    if gamma >= 0.5:
        return ordered[hi] - diff * (1 - gamma)
    return ordered[lo] + diff * gamma


# ---------------------------------------------------------------------------
# Greedy baseline and rank statistics


def greedy_shortest_path(
    dists: np.ndarray, start: int = 0, objective: str = "t2t", d: np.ndarray | None = None
) -> np.ndarray:
    """Nearest-neighbor traversal of the topic distributions.

    Starting from `start`, each step visits the unvisited item with the
    smallest incremental surprise: KL from the current item (t2t, read
    off `d`, the :func:`kl_matrix` of `dists`, built here when not
    given) or from the running mean of everything visited so far (t2p).
    Ties break to the lowest item index.  An approximation of the
    surprise-minimizing order, not an exact one.
    """
    if objective not in ("t2t", "t2p"):
        raise ValueError(f"objective must be 't2t' or 't2p', got {objective!r}")
    theta = np.asarray(dists, dtype=np.float64)
    n = theta.shape[0]
    if not 0 <= start < n:
        raise ValueError(f"start {start} out of range")
    if objective == "t2t" and d is None:
        d = kl_matrix(theta)
    unvisited = np.ones(n, dtype=bool)
    unvisited[start] = False
    path = [start]
    past_sum = theta[start].copy()
    for _ in range(n - 1):
        remaining = np.flatnonzero(unvisited)
        if objective == "t2t":
            costs = _finite(d[path[-1], remaining])
        else:
            reference = past_sum / len(path)
            costs = kl_divergence_rows(theta[remaining], reference / reference.sum())
        current = int(remaining[np.argmin(costs)])  # first minimum = lowest id
        unvisited[current] = False
        path.append(current)
        past_sum += theta[current]
    return np.asarray(path, dtype=np.int64)


def kl_matrix(dists: np.ndarray) -> np.ndarray:
    """``d[c, r] = KL(theta_r || theta_c)``, with the bits of
    ``kl_divergence_rows(theta_r, theta_c)``; infinite exactly where that
    call raises (theta_r has mass outside theta_c's support, or a ratio
    overflows).

    Filled by the same KL sum in blocks of rows, each entry clamped at 0.
    """
    theta = np.asarray(dists, dtype=np.float64)
    n = theta.shape[0]
    d = np.empty((n, n))
    step = max(1, BLOCK_NUMBERS // theta.size)
    for start in range(0, n, step):
        d[start : start + step] = np.maximum(_kl_sums(theta, theta[start : start + step, None]),
                                             0.0)
    return d


class _RankTable(NamedTuple):
    """One divergence matrix prepared for reading-choice ranks."""

    d: np.ndarray
    ranks: np.ndarray  # [c, r]: competition rank of d[c, r] within row c
    inf_rows: np.ndarray  # bool per row of d: does it hold an infinity


def _rank_table(d: np.ndarray) -> _RankTable:
    """Per-row competition ranks of `d`, in int16 while they fit, from an
    argsort in blocks of rows: equal divergences share a rank, so
    comparing ranks is comparing divergences, and the order the sort
    leaves ties in does not matter."""
    n = d.shape[0]
    ranks = np.empty((n, n), dtype=np.int16 if n < 2**15 else np.int32)
    first = np.arange(1, n + 1)
    step = max(1, BLOCK_NUMBERS // n)
    for start in range(0, n, step):
        rows = d[start : start + step]
        by_value = np.argsort(rows, axis=1)
        ordered = np.take_along_axis(rows, by_value, axis=1)
        starts = np.ones(ordered.shape, dtype=bool)
        starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        tied = np.maximum.accumulate(np.where(starts, first, 0), axis=1)
        np.put_along_axis(ranks[start : start + step], by_value, tied, axis=1)
    return _RankTable(d, ranks, np.isinf(d).any(axis=1))


def _ranks_from_matrix(table: _RankTable, order: Sequence[int]) -> np.ndarray:
    """Competition ranks of an order's choices, read off a rank table:
    step i's rank is 1 + the number of items not yet read that are
    strictly nearer by t2t KL to the item read at step i than the one
    read next, so rank 1 means the nearest was chosen.

    Row i of `costs` ranks every item against the item read at step i;
    its candidates are the items whose `position` in the order exceeds
    i, those not yet read.  A candidate at infinite divergence raises.
    """
    order = np.asarray(order, dtype=np.int64)
    n = table.d.shape[0]
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("order must visit every item exactly once")
    small = table.ranks.dtype  # holds every step, position and count
    steps = np.arange(n - 1, dtype=small)
    position = np.empty(n, dtype=small)
    position[order] = np.arange(n, dtype=small)
    current = order[:-1]
    unread = position > steps[:, None]
    risky = np.flatnonzero(table.inf_rows[current])
    _finite(table.d[current[risky]][unread[risky]])
    costs = table.ranks[current]
    chosen = costs[steps, order[1:]]
    nearer = np.add.reduce((costs < chosen[:, None]) & unread, axis=1, dtype=small)
    return 1 + nearer.astype(np.int64)


def _bin_masses(ranks: np.ndarray, n_bins: int) -> np.ndarray:
    """Mass per power-of-two bin; rank r falls in bin r.bit_length() - 1."""
    bit_lengths = np.frexp(ranks)[1]
    return np.bincount(bit_lengths - 1, minlength=n_bins) / len(ranks)


@dataclass(frozen=True)
class RankDistribution:
    """Log-binned rank histogram, optionally against a null ensemble.

    Bins are powers of two: {1}, {2,3}, {4..7}, ...  `ratio` is the
    observed bin mass over the null's mean bin mass (inf where only the
    null's is 0, NaN where both are, None without a null); `null_ci` is
    the 2.5/97.5 percentile band of the per-permutation masses.
    """

    bin_labels: tuple[str, ...]
    observed_mass: np.ndarray
    null_mean_mass: np.ndarray | None = None
    null_ci: np.ndarray | None = None  # (n_bins, 2)

    @cached_property
    def ratio(self) -> np.ndarray | None:
        if self.null_mean_mass is None:
            return None
        observed, null_mean = self.observed_mass, self.null_mean_mass
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(null_mean > 0, observed / null_mean, np.inf)
            return np.where((null_mean == 0) & (observed == 0), np.nan, ratio)

    def to_payload(self) -> dict:
        payload = {
            "bins": list(self.bin_labels),
            "observed_mass": [float(x) for x in self.observed_mass],
        }
        if self.null_mean_mass is not None:
            payload["null_mean_mass"] = [float(x) for x in self.null_mean_mass]
            payload["null_ci95"] = [[float(a), float(b)] for a, b in self.null_ci]
            payload["ratio"] = [
                None if not np.isfinite(x) else float(x) for x in self.ratio
            ]
        return payload


def rank_distribution(
    dists: np.ndarray,
    order: Sequence[int],
    null_permutations: np.ndarray | None = None,
    d: np.ndarray | None = None,
) -> RankDistribution:
    """Distribution of reading-choice ranks, log-binned.

    With `null_permutations` (e.g. a :class:`NullComparison`'s), the
    observed bin masses are compared against the permutations' mean
    masses to give per-bin ratios with a 95% null band.  The divergence
    matrix of the module docstring is built once, in O(n^2) memory, and
    serves the observed order and every permutation; a rank that reads
    an infinite divergence raises `NumericalDegeneracyError`.
    """
    table = _rank_table(kl_matrix(dists) if d is None else d)
    ranks = _ranks_from_matrix(table, order)
    max_rank = len(order) - 1
    n_bins = max_rank.bit_length()
    labels = tuple(
        f"{2 ** b}" if 2 ** b == min(2 ** (b + 1) - 1, max_rank)
        else f"{2 ** b}-{min(2 ** (b + 1) - 1, max_rank)}"
        for b in range(n_bins)
    )
    observed = _bin_masses(ranks, n_bins)
    if null_permutations is None:
        return RankDistribution(bin_labels=labels, observed_mass=observed)

    null_masses = np.vstack(
        [_bin_masses(_ranks_from_matrix(table, perm), n_bins) for perm in null_permutations]
    )
    ci = np.stack([_percentile(null_masses, 2.5), _percentile(null_masses, 97.5)], axis=1)
    return RankDistribution(
        bin_labels=labels,
        observed_mass=observed,
        null_mean_mass=null_masses.mean(axis=0),
        null_ci=ci,
    )
