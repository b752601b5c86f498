"""Unit tests for PCC representation, fitting, and decisions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arepas import default_token_grid
from repro.exceptions import FittingError
from repro.pcc import (
    PowerLawPCC,
    find_elbow,
    fit_from_skyline,
    fit_observations,
    fit_power_law,
    fit_power_laws,
    fit_quality,
    optimal_tokens,
    tokens_for_slowdown,
)
from repro.arepas.augmentation import AugmentedObservation
from repro.skyline import Skyline


class TestPowerLawPCC:
    def test_runtime_evaluation(self):
        pcc = PowerLawPCC(a=-1.0, b=1000.0)
        assert pcc.runtime(10) == pytest.approx(100.0)
        assert pcc.runtime(100) == pytest.approx(10.0)

    def test_amdahl_special_case(self):
        pcc = PowerLawPCC.amdahl(3600)
        assert pcc.a == -1.0
        assert pcc.runtime(60) == pytest.approx(60.0)

    def test_vectorized_runtime(self):
        pcc = PowerLawPCC(a=-0.5, b=100.0)
        values = pcc.runtime(np.array([1.0, 4.0, 16.0]))
        assert np.allclose(values, [100.0, 50.0, 25.0])

    def test_monotonicity_flag(self):
        assert PowerLawPCC(a=-0.5, b=10).is_non_increasing
        assert PowerLawPCC(a=0.0, b=10).is_non_increasing
        assert not PowerLawPCC(a=0.5, b=10).is_non_increasing

    def test_rejects_nonpositive_b(self):
        with pytest.raises(FittingError):
            PowerLawPCC(a=-1.0, b=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(FittingError):
            PowerLawPCC(a=np.nan, b=1.0)

    def test_rejects_nonpositive_tokens(self):
        with pytest.raises(FittingError):
            PowerLawPCC(a=-1, b=10).runtime(0)

    def test_log_parameter_roundtrip(self):
        pcc = PowerLawPCC(a=-0.7, b=250.0)
        a, log_b = pcc.log_parameters()
        restored = PowerLawPCC.from_log_parameters(a, log_b)
        assert restored.a == pytest.approx(pcc.a)
        assert restored.b == pytest.approx(pcc.b)

    def test_relative_improvement(self):
        pcc = PowerLawPCC(a=-0.5, b=100.0)
        assert pcc.relative_improvement(50) == pytest.approx(0.01)

    def test_slope_negative_for_decreasing(self):
        assert PowerLawPCC(a=-1, b=10).slope(5) < 0

    def test_speedup(self):
        pcc = PowerLawPCC(a=-1.0, b=100.0)
        assert pcc.speedup(10, 20) == pytest.approx(2.0)


def _reference_fit(tokens, runtimes, weights=None):
    """Weighted least squares of one 1-D fit, step by step: ``(a, log b)``.

    Raises what ``fit_power_law`` raises, in the same order.
    """
    if tokens.size < 2:
        raise FittingError("need at least two observations to fit a PCC")
    if np.any(tokens <= 0) or np.any(runtimes <= 0):
        raise FittingError("tokens and runtimes must be positive")
    if np.unique(tokens).size < 2:
        raise FittingError("need at least two distinct token counts")
    x = np.log(tokens)
    y = np.log(runtimes)
    w = np.ones_like(x) if weights is None else weights
    if w.shape != x.shape or np.any(w < 0) or w.sum() == 0:
        raise FittingError("weights must be non-negative and not all zero")
    x_mean = (w * x).sum() / w.sum()
    y_mean = (w * y).sum() / w.sum()
    var_x = (w * (x - x_mean) ** 2).sum()
    if var_x <= 0:
        raise FittingError("token counts are not distinguishable in log space")
    a = (w * (x - x_mean) * (y - y_mean)).sum() / var_x
    log_b = y_mean - a * x_mean
    PowerLawPCC.from_log_parameters(a, log_b)  # its own checks
    return a, log_b


_positive = st.floats(min_value=1e-3, max_value=1e6)


@st.composite
def _fit_batches(draw):
    """Mostly valid fits, with some rows made degenerate on purpose."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(2, 11))

    def matrix(values):
        row = st.lists(values, min_size=cols, max_size=cols)
        return np.array(draw(st.lists(row, min_size=rows, max_size=rows)))

    def some_row():
        return draw(st.integers(0, rows - 1))

    tokens = matrix(st.one_of(_positive, st.sampled_from([1.0, 2.0, 64.0])))
    runtimes = matrix(_positive)
    weights = None
    if draw(st.booleans()):
        weights = matrix(st.floats(min_value=0.0, max_value=10.0))
    for _ in range(draw(st.integers(0, 2))):
        flaw = draw(st.sampled_from(
            ["token", "runtime", "repeated", "weight", "zero weights"]
        ))
        row, col = some_row(), draw(st.integers(0, cols - 1))
        bad = draw(st.sampled_from([0.0, -3.0]))
        if flaw == "token":
            tokens[row, col] = bad
        elif flaw == "runtime":
            runtimes[row, col] = bad
        elif flaw == "repeated":
            tokens[row] = tokens[row, 0]
        elif weights is not None:
            if flaw == "weight":
                weights[row, col] = -1.0
            else:
                weights[row] = 0.0
    return tokens, runtimes, weights


class TestBatchedFitting:
    @settings(max_examples=300, deadline=None)
    @given(_fit_batches())
    def test_rows_equal_scalar_fit_bit_for_bit(self, batch):
        tokens, runtimes, weights = batch
        outcomes = []
        for i in range(tokens.shape[0]):
            row_weights = None if weights is None else weights[i]
            with np.errstate(all="ignore"):
                try:
                    expected = _reference_fit(tokens[i], runtimes[i], row_weights)
                except FittingError as exc:
                    expected = str(exc)
            outcomes.append(expected)
            # fit_power_law, the one-row case, on the row alone.
            if isinstance(expected, str):
                with pytest.raises(FittingError) as raised:
                    fit_power_law(tokens[i], runtimes[i], row_weights)
                assert str(raised.value) == expected
            else:
                pcc = fit_power_law(tokens[i], runtimes[i], row_weights)
                assert pcc == PowerLawPCC.from_log_parameters(*expected)

        failures = [o for o in outcomes if isinstance(o, str)]
        if failures:
            # Raises on the same rows: what the first failing row raises.
            with pytest.raises(FittingError) as raised:
                fit_power_laws(tokens, runtimes, weights)
            assert str(raised.value) == failures[0]
        else:
            a, log_b = fit_power_laws(tokens, runtimes, weights)
            assert np.array_equal(a, [o[0] for o in outcomes])
            assert np.array_equal(log_b, [o[1] for o in outcomes])

    def test_good_rows_fit_alone_after_a_bad_row_is_dropped(self):
        tokens = np.array([[10.0, 20.0, 40.0], [5.0, 5.0, 5.0],
                           [8.0, 16.0, 32.0]])
        runtimes = np.array([[90.0, 50.0, 30.0], [9.0, 8.0, 7.0],
                             [40.0, 30.0, 20.0]])
        with pytest.raises(FittingError, match="distinct"):
            fit_power_laws(tokens, runtimes)
        a, log_b = fit_power_laws(tokens[[0, 2]], runtimes[[0, 2]])
        for i, row in enumerate((0, 2)):
            pcc = fit_power_law(tokens[row], runtimes[row])
            assert (a[i], np.exp(log_b[i])) == (pcc.a, pcc.b)

    def test_empty_batch_and_shape_checks(self):
        a, log_b = fit_power_laws(np.empty((0, 3)), np.empty((0, 3)))
        assert a.shape == log_b.shape == (0,)
        with pytest.raises(FittingError):
            fit_power_laws(np.ones(3), np.ones(3))
        with pytest.raises(FittingError):
            fit_power_laws(np.ones((2, 1)), np.ones((2, 1)))
        with pytest.raises(FittingError, match="weights"):
            fit_power_laws(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]),
                           weights=np.ones((1, 3)))


class TestFitting:
    def test_exact_recovery(self):
        true = PowerLawPCC(a=-0.8, b=500.0)
        tokens = np.array([5.0, 10.0, 20.0, 40.0])
        fitted = fit_power_law(tokens, true.runtime(tokens))
        assert fitted.a == pytest.approx(-0.8)
        assert fitted.b == pytest.approx(500.0, rel=1e-9)

    def test_weighted_fit_prefers_heavy_points(self):
        tokens = np.array([10.0, 20.0, 40.0])
        runtimes = np.array([100.0, 100.0, 10.0])  # kink at the end
        flat_fit = fit_power_law(tokens, runtimes,
                                 weights=np.array([100.0, 100.0, 0.01]))
        assert abs(flat_fit.a) < 0.2  # dominated by the flat points

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(FittingError):
            fit_power_law(np.array([1.0, 2.0]), np.array([1.0]))

    def test_rejects_single_point(self):
        with pytest.raises(FittingError):
            fit_power_law(np.array([1.0]), np.array([1.0]))

    def test_rejects_nonpositive_values(self):
        with pytest.raises(FittingError):
            fit_power_law(np.array([1.0, 2.0]), np.array([0.0, 1.0]))

    def test_rejects_duplicate_tokens(self):
        with pytest.raises(FittingError):
            fit_power_law(np.array([2.0, 2.0]), np.array([1.0, 2.0]))

    def test_fit_observations_upweights_observed(self):
        observations = [
            AugmentedObservation(tokens=10, runtime=100, source="observed"),
            AugmentedObservation(tokens=20, runtime=80),
            AugmentedObservation(tokens=40, runtime=70),
        ]
        default = fit_observations(observations)
        heavy = fit_observations(observations, observed_weight=50.0)
        # Up-weighting drags the curve closer to the observed point.
        assert abs(heavy.runtime(10) - 100) <= abs(default.runtime(10) - 100)

    def test_fit_from_skyline_monotone(self, peaky_skyline):
        pcc = fit_from_skyline(peaky_skyline, reference_tokens=80)
        assert pcc.is_non_increasing
        assert pcc.b > 0

    def test_fit_quality_perfect(self):
        pcc = PowerLawPCC(a=-1.0, b=100.0)
        tokens = np.array([1.0, 2.0, 4.0])
        quality = fit_quality(pcc, tokens, pcc.runtime(tokens))
        assert quality["r_squared"] == pytest.approx(1.0)
        assert quality["median_ape"] == pytest.approx(0.0)


class TestOptimalTokens:
    def test_closed_form(self):
        pcc = PowerLawPCC(a=-0.5, b=100.0)
        # -a / threshold = 0.5 / 0.01 = 50
        assert optimal_tokens(pcc, improvement_threshold=0.01) == 50

    def test_respects_bounds(self):
        pcc = PowerLawPCC(a=-0.5, b=100.0)
        assert optimal_tokens(pcc, 0.01, max_tokens=30) == 30
        assert optimal_tokens(pcc, 10.0, min_tokens=5) == 5

    def test_flat_curve_gets_minimum(self):
        pcc = PowerLawPCC(a=0.0, b=100.0)
        assert optimal_tokens(pcc) == 1

    def test_rejects_increasing_curve(self):
        with pytest.raises(FittingError):
            optimal_tokens(PowerLawPCC(a=0.5, b=10))

    def test_rejects_bad_threshold(self):
        with pytest.raises(FittingError):
            optimal_tokens(PowerLawPCC(a=-1, b=10), improvement_threshold=0)


class TestTokensForSlowdown:
    def test_zero_budget_keeps_reference(self):
        pcc = PowerLawPCC(a=-1.0, b=100.0)
        assert tokens_for_slowdown(pcc, reference_tokens=100, max_slowdown=0.0) == 100

    def test_budget_allows_reduction(self):
        pcc = PowerLawPCC(a=-1.0, b=100.0)
        # runtime scales as 1/A: 10% slowdown allows ~9% fewer tokens.
        tokens = tokens_for_slowdown(pcc, 100, 0.10)
        assert tokens == 91
        assert pcc.runtime(tokens) <= 1.10 * pcc.runtime(100) * 1.001

    def test_flat_curve_allows_one_token(self):
        pcc = PowerLawPCC(a=0.0, b=100.0)
        assert tokens_for_slowdown(pcc, 100, 0.05) == 1

    def test_shallow_curve_allows_bigger_cut(self):
        shallow = PowerLawPCC(a=-0.2, b=100.0)
        steep = PowerLawPCC(a=-1.0, b=100.0)
        assert tokens_for_slowdown(shallow, 100, 0.10) < tokens_for_slowdown(
            steep, 100, 0.10
        )

    def test_rejects_negative_budget(self):
        with pytest.raises(FittingError):
            tokens_for_slowdown(PowerLawPCC(a=-1, b=10), 10, -0.1)


class TestElbow:
    def test_elbow_of_power_law(self):
        tokens = np.linspace(5, 200, 60)
        runtimes = 2000 * tokens**-0.9
        elbow_tokens, elbow_runtime = find_elbow(tokens, runtimes)
        # The knee of a decaying curve sits in the lower-left region.
        assert tokens[0] < elbow_tokens < np.median(tokens)
        assert elbow_runtime == pytest.approx(2000 * elbow_tokens**-0.9)

    def test_input_order_irrelevant(self):
        tokens = np.array([100.0, 10.0, 50.0, 25.0, 200.0])
        runtimes = 1000 * tokens**-1.0
        a = find_elbow(tokens, runtimes)
        b = find_elbow(tokens[::-1], runtimes[::-1])
        assert a == b

    def test_rejects_too_few_points(self):
        with pytest.raises(FittingError):
            find_elbow(np.array([1.0, 2.0]), np.array([2.0, 1.0]))

    def test_rejects_degenerate(self):
        with pytest.raises(FittingError):
            find_elbow(np.array([1.0, 1.0, 1.0]), np.array([3.0, 2.0, 1.0]))
