import dataclasses
import datetime
import itertools
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from textforage import nullmodels
from textforage.errors import NumericalDegeneracyError
from textforage.measures import (kl_divergence, kl_divergence_rows, surprise_series,
                                 surprise_values)
from textforage.nullmodels import (
    ReadingOrder,
    constrained_permutation,
    greedy_shortest_path,
    null_ensemble,
    rank_distribution,
)
from textforage.seeds import rng_from

from conftest import (
    random_distributions,
    reading_rows,
    reference_constrained_permutation,
    reference_greedy_path,
    reference_null_ensemble,
    reference_rank_payload,
    reference_step_ranks,
)


def step_ranks(dists, order):
    """Reading-choice ranks of `order` as `rank_distribution` takes them,
    from the rank table of the full divergence matrix."""
    return nullmodels._ranks_from_matrix(nullmodels._rank_table(nullmodels.kl_matrix(dists)),
                                         order)


def order_from_days(pub_days, slot_days, base=datetime.date(1840, 1, 1)):
    return ReadingOrder(
        item_ids=tuple(f"item{i}" for i in range(len(pub_days))),
        slot_dates=tuple(base + datetime.timedelta(days=d) for d in slot_days),
        pub_dates=tuple(base + datetime.timedelta(days=d) for d in pub_days),
    )


@settings(max_examples=100, deadline=None)
@given(theta=reading_rows())
def test_null_actual_series_is_the_measured_series(theta):
    # every item is published on its own slot date, so each permutation
    # is the identity and no draw can fail where the actual order does not
    n = len(theta)
    order = order_from_days(list(range(n)), list(range(n)))
    for mode in ("t2t", "t2p"):
        try:
            measured = surprise_series(theta, mode).values
        except NumericalDegeneracyError:
            with pytest.raises(NumericalDegeneracyError):
                null_ensemble(order, theta, n=2, seed=0, modes=(mode,))
            continue
        actual = null_ensemble(order, theta, n=2, seed=0, modes=(mode,)).actual_series[mode]
        assert actual.tobytes() == measured.tobytes()


class TestConstrainedPermutation:
    def test_unconstrained_case_is_uniform(self):
        # all items published before every slot: the null degenerates to
        # uniform permutations; chi-square over all 24 full orders
        order = order_from_days([0, 0, 0, 0], [10, 20, 30, 40])
        counts: dict[tuple, int] = {}
        n_draws = 12_000
        for draw in range(n_draws):
            perm = tuple(constrained_permutation(order, seed_or_rng=draw))
            counts[perm] = counts.get(perm, 0) + 1
        assert len(counts) == 24
        result = stats.chisquare(list(counts.values()))
        assert result.pvalue > 1e-3

    def test_infeasible_item_names_the_slot(self):
        # item 2 published after every slot date
        order = order_from_days([0, 0, 999], [10, 20, 30])
        with pytest.raises(ValueError, match="slot"):
            constrained_permutation(order, seed_or_rng=0)

    def test_staggered_dates_hit_exactly_the_feasible_set(self):
        pub_days = [0, 0, 15]
        slot_days = [10, 20, 30]
        order = order_from_days(pub_days, slot_days)

        feasible = {
            perm
            for perm in itertools.permutations(range(3))
            if all(pub_days[perm[s]] <= slot_days[s] for s in range(3))
        }
        assert len(feasible) == 4  # item 2 cannot take the first slot

        seen = set()
        for draw in range(2000):
            perm = tuple(constrained_permutation(order, seed_or_rng=draw))
            assert perm in feasible
            seen.add(perm)
        assert seen == feasible

    def test_items_published_on_the_slot_date_are_eligible(self):
        order = order_from_days([10], [10])
        assert constrained_permutation(order, seed_or_rng=0).tolist() == [0]

    def test_reproducible_from_seed(self):
        order = order_from_days([0, 1, 2, 3, 4], [5, 6, 7, 8, 9])
        a = constrained_permutation(order, seed_or_rng=42)
        b = constrained_permutation(order, seed_or_rng=42)
        npt.assert_array_equal(a, b)

    def test_multiset_preserved(self):
        order = order_from_days([0, 0, 1, 1, 2], [2, 3, 4, 5, 6])
        perm = constrained_permutation(order, seed_or_rng=1)
        assert sorted(perm.tolist()) == [0, 1, 2, 3, 4]


@st.composite
def dated_orders(draw, base=datetime.date(1840, 1, 1)):
    """Reading orders over few distinct days, so slot dates tie, with
    items often published on their own slot date (pools of size 1),
    some published after it (occasionally infeasible), and dates
    written at day, month or year precision."""
    n = draw(st.integers(1, 30))
    span = draw(st.sampled_from([3, 40, 1500]))
    slot_days = draw(st.lists(st.integers(0, span), min_size=n, max_size=n))
    lags = draw(st.lists(st.one_of(st.just(0), st.integers(-20, span)),
                         min_size=n, max_size=n))
    precision = st.lists(st.sampled_from([10, 10, 7, 4]), min_size=n, max_size=n)

    def written(days, cuts):
        return tuple((base + datetime.timedelta(days=d)).isoformat()[:c]
                     for d, c in zip(days, cuts))

    return ReadingOrder(
        item_ids=tuple(f"item{i}" for i in range(n)),
        slot_dates=written(slot_days, draw(precision)),
        pub_dates=written([d - lag for d, lag in zip(slot_days, lags)], draw(precision)),
    )


@settings(max_examples=400, deadline=None)
@given(order=dated_orders(), seed=st.integers(0, 2**64 - 1))
@example(order=order_from_days(range(6), range(6)), seed=3)  # every pool holds 1
@example(order=order_from_days([0, 0, 2, 5, 5], [5, 5, 5, 2, 9]), seed=4)  # ties
@example(order=order_from_days([0, 0, 999], [10, 20, 30]), seed=0)  # infeasible
def test_sampler_is_the_per_slot_reference(order, seed):
    got_rng, want_rng = rng_from(seed), rng_from(seed)
    try:
        want = reference_constrained_permutation(order, want_rng)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            constrained_permutation(order, got_rng)
        assert str(raised.value) == str(exc)
        return
    got = constrained_permutation(order, got_rng)
    npt.assert_array_equal(got, want)
    assert got.dtype == np.int64
    assert got_rng.random() == want_rng.random()


class TestNullEnsemble:
    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(12)
        n = 20
        dists = random_distributions(rng, n, 6)
        order = order_from_days([0] * n, list(range(1, n + 1)))
        return order, dists

    def test_every_permutation_is_feasible(self, setup):
        order, dists = setup
        comparison = null_ensemble(order, dists, n=50, seed=5)
        for perm in comparison.permutations:
            assert sorted(perm.tolist()) == list(range(len(order)))
            for slot, item in enumerate(perm):
                assert order.pub_dates[item] <= order.slot_dates[slot]

    def test_p_values_have_no_zeros(self, setup):
        order, dists = setup
        comparison = null_ensemble(order, dists, n=50, seed=5)
        for mode in ("t2t", "t2p"):
            assert 1 / 51 <= comparison.p_value[mode] <= 1.0

    def test_reproducible(self, setup):
        order, dists = setup
        a = null_ensemble(order, dists, n=25, seed=9)
        b = null_ensemble(order, dists, n=25, seed=9)
        npt.assert_array_equal(a.permutations, b.permutations)
        assert a.p_value == b.p_value
        npt.assert_array_equal(
            a.cumulative_relative["t2t"], b.cumulative_relative["t2t"]
        )

    def test_null_members_average_to_zero_relative_surprise(self, setup):
        # evaluating each ensemble member against the ensemble's own
        # per-position mean must average out to zero exactly
        order, dists = setup
        comparison = null_ensemble(order, dists, n=40, seed=3)
        null_mean = comparison.null_series_by_mode["t2t"]
        finals = []
        for perm in comparison.permutations:
            series = surprise_values(np.asarray(dists)[perm], "t2t")
            finals.append(np.sum(series - null_mean))
        assert np.mean(finals) == pytest.approx(0.0, abs=1e-9)

    def test_stores_only_what_it_cannot_derive(self, setup):
        order, dists = setup
        comparison = null_ensemble(order, dists, n=5, seed=1)
        assert [f.name for f in dataclasses.fields(comparison)] == [
            "permutations", "actual_series", "mean_by_mode", "null_series_by_mode"]
        assert comparison.n_permutations == 5

    def test_requires_at_least_one_permutation(self, setup):
        order, dists = setup
        with pytest.raises(ValueError):
            null_ensemble(order, dists, n=0, seed=0)


class TestGreedyShortestPath:
    def test_single_item(self):
        path = greedy_shortest_path(np.array([[0.5, 0.5]]), start=0)
        assert path.tolist() == [0]

    def test_nearest_chosen_second(self):
        dists = np.array(
            [
                [0.70, 0.20, 0.10],
                [0.65, 0.25, 0.10],  # close to item 0
                [0.05, 0.15, 0.80],  # far from item 0
            ]
        )
        kl_from_start = [kl_divergence(dists[j], dists[0]) for j in (1, 2)]
        assert kl_from_start[0] < kl_from_start[1]
        path = greedy_shortest_path(dists, start=0, objective="t2t")
        assert path.tolist() == [0, 1, 2]

    def test_each_step_is_the_row_minimum(self):
        rng = np.random.default_rng(7)
        dists = random_distributions(rng, 12, 5)
        path = greedy_shortest_path(dists, start=3, objective="t2t")
        visited = [3]
        for step in range(1, 12):
            remaining = [i for i in range(12) if i not in visited]
            costs = {i: kl_divergence(dists[i], dists[visited[-1]]) for i in remaining}
            best = min(costs, key=lambda i: (costs[i], i))
            assert path[step] == best
            visited.append(int(path[step]))

    def test_t2p_uses_running_past_mean(self):
        rng = np.random.default_rng(8)
        dists = random_distributions(rng, 6, 4)
        path = greedy_shortest_path(dists, start=0, objective="t2p")
        visited = [0]
        for step in range(1, 6):
            remaining = [i for i in range(6) if i not in visited]
            past = np.mean(dists[visited], axis=0)
            past = past / past.sum()
            costs = {i: kl_divergence(dists[i], past) for i in remaining}
            best = min(costs, key=lambda i: (costs[i], i))
            assert path[step] == best
            visited.append(int(path[step]))

    def test_start_validated(self):
        with pytest.raises(ValueError):
            greedy_shortest_path(np.array([[1.0]]), start=5)


class TestRanks:
    def test_greedy_order_has_all_ranks_one(self):
        rng = np.random.default_rng(9)
        dists = random_distributions(rng, 10, 4)
        path = greedy_shortest_path(dists, start=0)
        ranks = step_ranks(dists, path)
        assert ranks.tolist() == [1] * 9

    def test_reverse_greedy_has_maximal_ranks(self):
        rng = np.random.default_rng(10)
        dists = random_distributions(rng, 8, 4)
        # always pick the farthest unvisited item
        visited = [0]
        while len(visited) < 8:
            remaining = [i for i in range(8) if i not in visited]
            costs = {i: kl_divergence(dists[i], dists[visited[-1]]) for i in remaining}
            visited.append(max(costs, key=lambda i: (costs[i], -i)))
        ranks = step_ranks(dists, visited)
        assert ranks.tolist() == [8 - 1 - i for i in range(7)]  # = #remaining

    def test_toy_order_matches_row_sorting(self):
        rng = np.random.default_rng(11)
        dists = random_distributions(rng, 4, 3)
        order = [2, 0, 3, 1]
        ranks = step_ranks(dists, order)
        for i in range(3):
            current = order[i]
            candidates = order[i + 1 :]
            costs = sorted(kl_divergence(dists[c], dists[current]) for c in candidates)
            chosen_cost = kl_divergence(dists[order[i + 1]], dists[current])
            assert ranks[i] == 1 + costs.index(chosen_cost)

    def test_order_must_cover_items(self):
        rng = np.random.default_rng(12)
        dists = random_distributions(rng, 4, 3)
        with pytest.raises(ValueError):
            step_ranks(dists, [0, 1, 2])


class TestRankDistribution:
    def test_log_bins_are_powers_of_two(self):
        rng = np.random.default_rng(13)
        dists = random_distributions(rng, 17, 4)
        result = rank_distribution(dists, np.arange(17))
        assert result.bin_labels == ("1", "2-3", "4-7", "8-15", "16")
        assert result.observed_mass.sum() == pytest.approx(1.0)
        assert result.ratio is None

    def test_ratio_against_null(self):
        rng = np.random.default_rng(14)
        n = 12
        dists = random_distributions(rng, n, 4)
        greedy = greedy_shortest_path(dists, start=0)
        null_perms = np.vstack([rng.permutation(n) for _ in range(50)])
        result = rank_distribution(dists, greedy, null_perms)
        # greedy puts all mass in the rank-1 bin, so its ratio there
        # must exceed the null's
        assert result.observed_mass[0] == pytest.approx(1.0)
        assert result.ratio[0] > 1.0
        assert result.null_ci.shape == (len(result.bin_labels), 2)
        payload = result.to_payload()
        assert set(payload) >= {"bins", "observed_mass", "null_mean_mass", "ratio"}


@st.composite
def ranked_orders(draw):
    """Distributions from integer weights, some rows with exact zeros and
    some duplicated (so ties occur), with an order and permutations."""
    n = draw(st.integers(2, 40))
    k = draw(st.integers(2, 12))
    full = st.lists(st.integers(1, 9), min_size=k, max_size=k)
    sparse = st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any)
    weights = draw(st.lists(st.one_of(full, full, sparse), min_size=n, max_size=n))
    for target, source in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        weights[target] = weights[source]
    theta = np.array(weights, dtype=float)
    theta /= theta.sum(axis=1, keepdims=True)
    order = np.array(draw(st.permutations(range(n))))
    perms = np.array(draw(st.lists(st.permutations(range(n)), min_size=1, max_size=8)))
    return theta, order, perms


def _outcome(f, *args):
    try:
        return f(*args)
    except NumericalDegeneracyError:
        return NumericalDegeneracyError


@settings(max_examples=300, deadline=None)
@given(case=ranked_orders())
def test_ranks_match_per_step_reference(case):
    theta, order, perms = case
    got = _outcome(step_ranks, theta, order)
    want = _outcome(reference_step_ranks, theta, order)
    if want is NumericalDegeneracyError:
        assert got is NumericalDegeneracyError
    else:
        npt.assert_array_equal(got, want)
        assert got.dtype == np.int64
    got = _outcome(lambda: rank_distribution(theta, order, perms).to_payload())
    assert got == _outcome(reference_rank_payload, theta, order, perms)


def test_degenerate_pair_never_read_does_not_raise():
    # item 2 has no mass on the last term, so KL(theta_0 || theta_2) and
    # KL(theta_1 || theta_2) are infinite, but item 2 is read last in
    # every order, so no rank compares against it
    theta = np.array([[0.4, 0.3, 0.3], [0.3, 0.4, 0.3], [0.5, 0.5, 0.0]])
    result = rank_distribution(theta, [0, 1, 2], np.array([[1, 0, 2]]))
    assert result.to_payload() == reference_rank_payload(theta, [0, 1, 2], [[1, 0, 2]])
    with pytest.raises(NumericalDegeneracyError, match="infinite divergence"):
        step_ranks(theta, [2, 0, 1])
    # an already-read item off the current item's support is not a candidate
    theta = np.array([[0.4, 0.3, 0.3], [0.5, 0.5, 0.0], [0.3, 0.7, 0.0]])
    npt.assert_array_equal(step_ranks(theta, [0, 1, 2]), reference_step_ranks(theta, [0, 1, 2]))


@settings(max_examples=200, deadline=None)
@given(theta=hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 5)),
                        elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                                           st.floats(5e-324, 2.2250738585072014e-308,
                                                     allow_subnormal=True))),
       block=st.integers(1, 48))
@example(theta=np.array([[1.0, 0.0], [5e-324, 1.0], [0.5, 0.5]]), block=4)
def test_kl_matrix_is_the_per_pair_divergence(theta, block):
    """Rows holding zeros and positive subnormals, in blocks of any
    size: every entry has the bits of `kl_divergence_rows` on its pair,
    and is infinite exactly where that call raises."""
    want = np.empty((len(theta), len(theta)))
    for c, r in itertools.product(range(len(theta)), repeat=2):
        try:
            want[c, r] = kl_divergence_rows(theta[r], theta[c])[0]
        except NumericalDegeneracyError:
            want[c, r] = np.inf
    with mock.patch.object(nullmodels, "BLOCK_NUMBERS", block):
        got = nullmodels.kl_matrix(theta)
    npt.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_bin_masses_follow_bit_length():
    ranks = np.arange(1, 2**10 + 1)
    for r in ranks.tolist():
        masses = nullmodels._bin_masses(np.array([r]), 11)
        assert masses.tolist() == [float(b == r.bit_length() - 1) for b in range(11)]
    counts = np.zeros(11)
    for r in ranks.tolist():
        counts[r.bit_length() - 1] += 1
    npt.assert_array_equal(nullmodels._bin_masses(ranks, 11), counts / ranks.size)


@st.composite
def null_cases(draw):
    """Rows whose zeros make some t2t and t2p steps infinite, and an
    order over them on a few days, published up to 8 days before its
    slot (rarely 2 after it, which can make the order infeasible)."""
    theta = draw(reading_rows())
    n = len(theta)
    slot_days = sorted(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    lags = draw(st.lists(st.one_of(st.integers(0, 8), st.integers(-2, 8)),
                         min_size=n, max_size=n))
    return theta, order_from_days([d - lag for d, lag in zip(slot_days, lags)], slot_days)


def _null_outcome(f, *args, **kwargs):
    """Every number a null comparison reports, as bytes, or the error."""
    try:
        c = f(*args, **kwargs)
    except (NumericalDegeneracyError, ValueError) as exc:
        return type(exc), str(exc)
    return c.permutations.tobytes(), {
        m: [np.asarray(x).tobytes() for x in (
            c.actual_series[m], c.actual_mean[m], c.mean_by_mode[m],
            c.null_series_by_mode[m], c.p_value[m], c.null_ci[m],
            c.cumulative_relative[m])]
        for m in c.actual_mean
    }


@settings(max_examples=300, deadline=None)
@given(case=null_cases(), n=st.integers(1, 7), per_block=st.integers(1, 3),
       modes=st.sampled_from([("t2t", "t2p"), ("t2t",), ("t2p",)]),
       seed=st.integers(0, 2**64 - 1))
def test_blocked_null_matches_the_per_permutation_reference(case, n, per_block, modes, seed):
    theta, order = case
    want = _null_outcome(reference_null_ensemble, order, theta, n, seed, modes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nullmodels, "BLOCK_NUMBERS", per_block * theta.size)
        patch.setattr(nullmodels, "DRAW_NUMBERS", per_block * len(theta))
        assert _null_outcome(null_ensemble, order, theta, n, seed, modes) == want
        d = nullmodels.kl_matrix(theta)
        assert _null_outcome(null_ensemble, order, theta, n, seed, modes, d=d) == want


@settings(max_examples=200, deadline=None)
@given(theta=reading_rows(), data=st.data())
def test_greedy_path_matches_the_list_reference(theta, data):
    start = data.draw(st.integers(0, len(theta) - 1))
    for objective in ("t2t", "t2p"):
        want = _outcome(reference_greedy_path, theta, start, objective)
        for d in (None, nullmodels.kl_matrix(theta)):
            got = _outcome(greedy_shortest_path, theta, start, objective, d)
            if want is NumericalDegeneracyError:
                assert got is NumericalDegeneracyError
            else:
                npt.assert_array_equal(got, want)


@st.composite
def percentile_inputs(draw):
    """1-d or 2-d float arrays of few distinct values, so ties are
    common; infinities make numpy's interpolation give NaN.  Zeros are
    +0.0 (adding 0.0 turns -0.0 into it): numpy partitions where
    `_percentile` sorts, and the two may order -0.0 and 0.0 apart."""
    elements = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 1.0, np.inf, -np.inf]),
                         st.floats(allow_nan=False).map(lambda x: x + 0.0))
    rows = draw(st.integers(1, 30))
    cols = draw(st.sampled_from([None, 1, 3]))
    return draw(hnp.arrays(np.float64, rows if cols is None else (rows, cols),
                           elements=elements))


@settings(max_examples=300, deadline=None)
@given(values=percentile_inputs(), q=st.sampled_from([2.5, 97.5, 0.0, 50.0, 100.0]))
@example(values=np.array([-0.0]), q=2.5)  # at the last value numpy's gamma is index + 1
def test_percentile_is_numpys_bit_for_bit(values, q):
    with np.errstate(invalid="ignore"):
        got = nullmodels._percentile(values, q)
        want = np.percentile(values, q, axis=0)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
