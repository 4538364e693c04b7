import itertools
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textforage import epochs
from textforage.epochs import (
    best_model,
    epoch_report,
    fit_epochs,
    param_count,
    segment_loglik,
    select_model,
)

from conftest import reference_boundary_dp, reference_cost_matrix


def brute_force_fit(values, n_epochs, min_len, variance_mode="mle"):
    """Exhaustive boundary enumeration; the oracle the DP must match."""
    length = len(values)
    positions = range(min_len, length - min_len + 1)
    best_ll, best_bounds = -np.inf, None
    for interior in itertools.combinations(positions, n_epochs - 1):
        bounds = (0, *interior, length)
        if any(b2 - b1 < min_len for b1, b2 in zip(bounds, bounds[1:])):
            continue
        fit = segment_loglik(values, bounds, variance_mode=variance_mode)
        if fit.log_likelihood > best_ll + 1e-12:
            best_ll, best_bounds = fit.log_likelihood, bounds
    return best_ll, best_bounds


class TestSegmentLoglik:
    def test_closed_form_two_points(self):
        # segment {0, 2}: mean 1, MLE variance 1
        fit = segment_loglik([0.0, 2.0], [0, 2])
        assert fit.n_epochs == 1 and fit.variance_mode == "mle"
        assert fit.means == (1.0,)
        assert fit.variances == (1.0,)
        assert fit.log_likelihood == pytest.approx(-(1 + math.log(2 * math.pi)), rel=1e-12)

    def test_two_identical_segments_double_the_total(self):
        single = segment_loglik([0.0, 2.0], [0, 2]).log_likelihood
        double = segment_loglik([0.0, 2.0, 0.0, 2.0], [0, 2, 4]).log_likelihood
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_constant_segment_flagged_degenerate(self):
        fit = segment_loglik([3.0, 3.0, 3.0], [0, 3])
        assert fit.degenerate == (True,)
        assert fit.variances == (epochs.DEFAULT_VAR_FLOOR,)

    def test_legacy_mode_uses_off_by_one_denominators(self):
        values = [1.0, 2.0, 4.0]
        fit = segment_loglik(values, [0, 3], variance_mode="legacy")
        mu = sum(values) / 2  # divides by m - 1
        var = sum((v - mu) ** 2 for v in values) / 2
        expected = -(2 / 2) * (1 + math.log(2 * math.pi * var))
        assert fit.means == (pytest.approx(mu),)
        assert fit.variances == (pytest.approx(var),)
        assert fit.log_likelihood == pytest.approx(expected, rel=1e-12)

    def test_segments_need_two_points(self):
        with pytest.raises(ValueError):
            segment_loglik([1.0, 2.0, 3.0], [0, 1, 3])

    def test_boundaries_validated(self):
        with pytest.raises(ValueError):
            segment_loglik([1.0, 2.0], [0, 1, 1, 2])
        with pytest.raises(ValueError):
            segment_loglik([1.0, 2.0], [1, 2])


class TestParamCount:
    def test_values_from_the_aic_table(self):
        assert param_count(1) == 2
        assert param_count(2) == 5
        assert param_count(3) == 8

    def test_model_property(self):
        rng = np.random.default_rng(0)
        model = fit_epochs(rng.normal(size=30), 2, min_len=5)
        assert model.param_count == 5


class TestFitEpochs:
    def test_single_epoch_is_whole_series_stats(self):
        rng = np.random.default_rng(1)
        values = rng.normal(2.0, 1.5, size=40)
        model = fit_epochs(values, 1, min_len=5)
        assert model.boundaries == (0, 40)
        assert model.means[0] == pytest.approx(values.mean())
        assert model.variances[0] == pytest.approx(np.var(values))

    def test_planted_changepoint_recovered(self):
        rng = np.random.default_rng(2024)
        values = np.concatenate(
            [rng.normal(1.0, 0.5, 100), rng.normal(3.0, 0.5, 100)]
        )
        model = fit_epochs(values, 2, min_len=10)
        assert abs(model.interior_boundaries[0] - 100) <= 2
        assert model.means[0] == pytest.approx(1.0, abs=0.2)
        assert model.means[1] == pytest.approx(3.0, abs=0.2)

    @pytest.mark.parametrize("n_epochs", [2, 3])
    @pytest.mark.parametrize("variance_mode", ["mle", "legacy"])
    def test_dp_matches_brute_force(self, n_epochs, variance_mode):
        rng = np.random.default_rng(7 + n_epochs)
        values = np.concatenate(
            [rng.normal(0, 1, 20), rng.normal(2, 0.5, 15), rng.normal(-1, 1, 15)]
        )
        model = fit_epochs(values, n_epochs, min_len=5, variance_mode=variance_mode)
        oracle_ll, oracle_bounds = brute_force_fit(
            values, n_epochs, min_len=5, variance_mode=variance_mode
        )
        assert model.log_likelihood == pytest.approx(oracle_ll, rel=1e-10)
        assert model.boundaries == oracle_bounds

    @pytest.mark.parametrize("variance_mode", ["mle", "legacy"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), offset=st.floats(5, 25),
           n_epochs=st.integers(2, 3))
    def test_dp_matches_brute_force_at_shifted_means(self, variance_mode, seed, offset,
                                                      n_epochs):
        # legacy's segment mean sum / (m - 1) is not shift-equivariant, so
        # a series far from zero finds any centring the DP would do
        values = offset + np.random.default_rng(seed).normal(size=30)
        model = fit_epochs(values, n_epochs, min_len=4, variance_mode=variance_mode)
        oracle_ll, oracle_bounds = brute_force_fit(
            values, n_epochs, min_len=4, variance_mode=variance_mode
        )
        assert model.boundaries == oracle_bounds
        assert model.log_likelihood == pytest.approx(oracle_ll, rel=1e-10)

    def test_nesting_likelihood_non_decreasing(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=60)
        lls = [
            fit_epochs(values, n, min_len=2).log_likelihood for n in range(1, 5)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_location_equivariance(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.normal(0, 1, 30), rng.normal(4, 1, 30)])
        base = fit_epochs(values, 2, min_len=5)
        shifted = fit_epochs(values + 123.456, 2, min_len=5)
        assert base.boundaries == shifted.boundaries
        npt.assert_allclose(
            np.asarray(shifted.means) - np.asarray(base.means), 123.456, rtol=1e-9
        )
        npt.assert_allclose(shifted.variances, base.variances, rtol=1e-9)

    def test_tie_break_earliest_boundaries(self):
        # constant series: every placement is equally (de)generate, so
        # the earliest boundaries win
        values = np.ones(10)
        model = fit_epochs(values, 2, min_len=2)
        assert model.boundaries == (0, 2, 10)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="cannot hold"):
            fit_epochs(np.ones(10), 3, min_len=5)

    def test_legacy_mode_recovers_the_same_planted_break(self):
        # the off-by-one estimator convention shifts likelihood values
        # but not where a strong changepoint lands
        rng = np.random.default_rng(2024)
        values = np.concatenate([rng.normal(1.0, 0.5, 100), rng.normal(3.0, 0.5, 100)])
        mle = fit_epochs(values, 2, min_len=10, variance_mode="mle")
        legacy = fit_epochs(values, 2, min_len=10, variance_mode="legacy")
        assert abs(legacy.interior_boundaries[0] - mle.interior_boundaries[0]) <= 2
        assert legacy.log_likelihood != mle.log_likelihood


@st.composite
def epoch_series(draw):
    """(values, max_epochs, min_len, variance_mode, var_floor).

    Series run from exactly max_epochs * min_len points up; they are
    Gaussian noise (tiny, plain or far off zero), constant runs (zero
    variance segments and tied placements) or a few integer levels
    (many tied likelihoods).  The larger floors clamp most variances.
    """
    min_len = draw(st.integers(2, 6))
    max_epochs = draw(st.integers(1, 4))
    n = max_epochs * min_len + draw(st.one_of(st.just(0), st.integers(1, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "runs", "levels"]))
    if kind == "noise":
        values = rng.normal(draw(st.sampled_from([0.0, 1e3])),
                            draw(st.sampled_from([1e-6, 1.0, 50.0])), n)
    elif kind == "runs":
        values = np.repeat(rng.normal(size=n), rng.integers(1, 2 * min_len + 2, size=n))[:n]
    else:
        values = rng.integers(0, 3, size=n).astype(np.float64)
    return (values, max_epochs, min_len, draw(st.sampled_from(epochs.VARIANCE_MODES)),
            draw(st.sampled_from([epochs.DEFAULT_VAR_FLOOR, 1e-3, 0.5])))


@settings(max_examples=300, deadline=None)
@given(case=epoch_series())
@example(case=(np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0]), 3, 2, "mle", epochs.DEFAULT_VAR_FLOOR))
@example(case=(np.array([2.0, 2.0, 2.0, 5.0, 5.0, 5.0]), 2, 3, "legacy", 0.5))
def test_whole_array_dp_matches_the_loops_bit_for_bit(case):
    values, max_epochs, min_len, variance_mode, var_floor = case
    cost = epochs._cost_matrix(values, min_len, variance_mode, var_floor)
    ref_cost = reference_cost_matrix(values, min_len, variance_mode, var_floor)
    assert cost.tobytes() == np.ascontiguousarray(ref_cost.T).tobytes()
    back = epochs._boundary_dp(cost, max_epochs, min_len)
    assert back.tobytes() == reference_boundary_dp(ref_cost, max_epochs, min_len).tobytes()

    def report():
        scores = select_model(values, max_epochs, min_len, variance_mode, var_floor)
        return json.dumps(epoch_report(scores))

    fast = report()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(epochs, "_cost_matrix", reference_cost_matrix)
        patch.setattr(epochs, "_boundary_dp", reference_boundary_dp)
        assert report() == fast


class TestSelectModel:
    def test_planted_step_prefers_two_epochs(self):
        rng = np.random.default_rng(2024)
        values = np.concatenate(
            [rng.normal(1.0, 0.5, 100), rng.normal(3.0, 0.5, 100)]
        )
        scores = select_model(values, max_epochs=3, min_len=10)
        chosen = best_model(scores)
        assert chosen.model.n_epochs >= 2
        two = next(s for s in scores if s.n_epochs == 2)
        one = next(s for s in scores if s.n_epochs == 1)
        assert two.aic < one.aic

    def test_relative_likelihood_of_best_is_one(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=80)
        scores = select_model(values, max_epochs=3, min_len=10)
        chosen = best_model(scores)
        assert chosen.relative_likelihood == 1.0
        for score in scores:
            assert 0.0 < score.relative_likelihood <= 1.0

    def test_aic_formula(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=50)
        scores = select_model(values, max_epochs=2, min_len=10)
        for score in scores:
            expected = 2 * param_count(score.n_epochs) - 2 * score.model.log_likelihood
            assert score.aic == pytest.approx(expected, rel=1e-12)

    def test_delta_loglik_vs_null(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=50)
        scores = select_model(values, max_epochs=2, min_len=10)
        assert scores[0].delta_loglik == 0.0
        assert scores[1].delta_loglik == pytest.approx(
            scores[1].model.log_likelihood - scores[0].model.log_likelihood
        )


class TestEpochReport:
    def test_report_structure_and_labels(self):
        rng = np.random.default_rng(8)
        values = np.concatenate([rng.normal(0, 1, 30), rng.normal(5, 1, 30)])
        labels = [f"1840-{i:02d}" if i < 13 else f"pos{i}" for i in range(60)]
        scores = select_model(values, max_epochs=2, min_len=5)
        report = epoch_report(scores, position_labels=labels)
        assert report["best_n_epochs"] == 2
        assert len(report["models"]) == 2
        two = report["models"][1]
        assert two["param_count"] == 5
        assert len(two["break_labels"]) == 1
        assert two["break_labels"][0] == labels[two["breaks"][0]]
        for seg in two["epochs"]:
            assert set(seg) >= {"start", "end", "mean_bits", "variance_bits2"}
