"""Fitting power-law PCCs to (tokens, run time) observations.

Because a power law is linear in log-log space (Figure 9), fitting reduces
to ordinary least squares on ``log(runtime) ~ log(tokens)``. Weighted
variants let the caller up-weight the actually observed point relative to
AREPAS-simulated ones.
"""

from __future__ import annotations

import numpy as np

from repro.arepas.augmentation import AugmentedObservation
from repro.exceptions import FittingError
from repro.obs import get_registry, trace
from repro.pcc.curve import PowerLawPCC

__all__ = [
    "fit_power_law",
    "fit_power_laws",
    "fit_observations",
    "fit_from_skyline",
    "fit_quality",
]


def fit_power_law(
    tokens: np.ndarray,
    runtimes: np.ndarray,
    weights: np.ndarray | None = None,
) -> PowerLawPCC:
    """Least-squares power-law fit in log-log space.

    The one-row case of :func:`fit_power_laws`.

    Parameters
    ----------
    tokens, runtimes:
        Positive observation vectors of equal length (>= 2 distinct token
        values are required to identify the slope).
    weights:
        Optional per-observation weights.

    Raises
    ------
    FittingError
        On degenerate inputs (non-positive values, fewer than two distinct
        token counts).
    """
    tokens = np.asarray(tokens, dtype=float)
    runtimes = np.asarray(runtimes, dtype=float)
    if tokens.shape != runtimes.shape or tokens.ndim != 1:
        raise FittingError("tokens and runtimes must be equal-length vectors")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)[None]
    a, log_b = fit_power_laws(tokens[None], runtimes[None], weights)
    return PowerLawPCC.from_log_parameters(a[0], log_b[0])


def fit_power_laws(
    tokens: np.ndarray,
    runtimes: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`fit_power_law`: ``(a, log b)`` of every row.

    Row ``i`` of the ``(M, N)`` inputs is one fit. Every step is
    elementwise or a sum along a row of a C-contiguous array, which
    numpy adds in the same order as the 1-D sum of that row alone, so
    each row's parameters equal its own :func:`fit_power_law` bit for
    bit. A batch with a degenerate row (including one whose parameters
    :class:`~repro.pcc.curve.PowerLawPCC` would reject) raises the
    :class:`FittingError` that the first such row raises alone.
    """
    tokens = np.ascontiguousarray(tokens, dtype=float)
    runtimes = np.ascontiguousarray(runtimes, dtype=float)
    if tokens.shape != runtimes.shape or tokens.ndim != 2:
        raise FittingError("tokens and runtimes must be equal-length vectors")
    if tokens.shape[1] < 2:
        raise FittingError("need at least two observations to fit a PCC")
    # Unit weights are exact: 1 * v == v, and the weight sum is N.
    w, w_sum = 1.0, float(tokens.shape[1])
    bad_weights = np.zeros(tokens.shape[0], dtype=bool)
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=float)
        if weights.shape != tokens.shape:
            bad_weights[:] = True
        else:
            w, w_sum = weights, weights.sum(axis=1)
            bad_weights = (weights < 0).any(axis=1) | (w_sum == 0)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.log(tokens)
        y = np.log(runtimes)
        x_mean = (w * x).sum(axis=1) / w_sum
        y_mean = (w * y).sum(axis=1) / w_sum
        dx = x - x_mean[:, None]
        var_x = (w * dx**2).sum(axis=1)
        cov_xy = (w * dx * (y - y_mean[:, None])).sum(axis=1)
        a = cov_xy / var_x
        log_b = y_mean - a * x_mean
        b = np.exp(log_b)

    # A row fails a check of fit_power_law exactly when it fails this
    # screen: a non-positive or NaN input makes var_x, a or b NaN or
    # infinite. So the first row it stops is the first that fails.
    passed = (
        (var_x > 0)
        & np.isfinite(a)
        & (b > 0)
        & (b < np.inf)
        & (tokens != tokens[:, :1]).any(axis=1)
        & ~bad_weights
    )
    if not passed.all():
        row = int(np.argmin(passed))
        _raise_for_row(
            tokens[row], runtimes[row], bad_weights[row], var_x[row], a[row],
            log_b[row],
        )
    if trace.enabled:
        get_registry().counter("pcc_power_law_fits").increment(len(a))
    return a, log_b


def _raise_for_row(tokens, runtimes, bad_weights, var_x, a, log_b) -> None:
    """Raise what :func:`fit_power_law` raises on one failing row."""
    if np.any(tokens <= 0) or np.any(runtimes <= 0):
        raise FittingError("tokens and runtimes must be positive")
    if np.unique(tokens).size < 2:
        raise FittingError("need at least two distinct token counts")
    if bad_weights:
        raise FittingError("weights must be non-negative and not all zero")
    if var_x <= 0:
        raise FittingError("token counts are not distinguishable in log space")
    # Raises what PowerLawPCC rejects (an overflowing b among them).
    with np.errstate(over="ignore"):
        PowerLawPCC.from_log_parameters(a, log_b)


def fit_observations(
    observations: list[AugmentedObservation],
    observed_weight: float = 1.0,
) -> PowerLawPCC:
    """Fit a PCC to augmented observations.

    ``observed_weight`` (>= 1) multiplies the weight of samples whose
    source is ``"observed"``, keeping the true telemetry point first-class
    relative to simulated ones (Section 4's pitfall discussion).
    """
    if observed_weight < 1:
        raise FittingError("observed_weight must be at least 1")
    tokens = np.array([o.tokens for o in observations])
    runtimes = np.array([o.runtime for o in observations])
    weights = np.array(
        [observed_weight if o.source == "observed" else 1.0 for o in observations]
    )
    return fit_power_law(tokens, runtimes, weights)


def fit_from_skyline(
    skyline,
    reference_tokens: float,
    grid: np.ndarray | None = None,
) -> PowerLawPCC:
    """End-to-end: AREPAS-sweep a skyline and fit the PCC (Section 3 + 4).

    This is the labelling step of the TASQ training pipeline: one observed
    run of the job is enough to synthesise the whole curve.
    """
    from repro.arepas.augmentation import default_token_grid, sweep_token_grid

    if grid is None:
        grid = default_token_grid(reference_tokens)
    with trace.span("pcc.fit_from_skyline") as span:
        observations = sweep_token_grid(
            skyline, grid, observed_tokens=reference_tokens
        )
        span.set("points", len(observations))
        return fit_observations(observations)


def fit_quality(
    pcc: PowerLawPCC, tokens: np.ndarray, runtimes: np.ndarray
) -> dict[str, float]:
    """Goodness-of-fit diagnostics in log-log space.

    Returns R^2 and the median/max absolute percentage error of the fitted
    run times against the provided observations.
    """
    tokens = np.asarray(tokens, dtype=float)
    runtimes = np.asarray(runtimes, dtype=float)
    predicted = np.asarray(pcc.runtime(tokens), dtype=float)
    ape = np.abs(predicted - runtimes) / runtimes * 100.0

    y = np.log(runtimes)
    residual = y - np.log(predicted)
    total = y - y.mean()
    ss_res = float((residual**2).sum())
    ss_tot = float((total**2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "r_squared": r_squared,
        "median_ape": float(np.median(ape)),
        "max_ape": float(ape.max()),
    }
