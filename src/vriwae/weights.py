"""Importance log-weight degeneracy diagnostics.

All statistics here are computed in the log domain with max-subtraction; the
interesting regimes put hundreds of nats between the largest and smallest
weight, so linear-domain arithmetic would overflow long before the diagnostics
become informative.  Log-weights travel as plain float arrays, with no
container type.  `_max_shift` is the package's one log-sum-exp shift:
`_logsumexp`, the normalized weights (`_softmax_last`) and the bound's
estimator (`bounds.vr_iwae_from_log_weights`) all exponentiate its shifted
rows.  The diagnostics T, max share and ESS each have one function, which
reduces along an axis of a log-weight array (the last by default), so one
batch and a stack of batches take the same code.  The normalized weights s
and the doubly-reparameterized coefficients h of the gradient estimators
(`_weight_rows`) live here too, below both `models` and `gradients`.

Conventions fixed once for the whole artifact:

* the dominance statistic at order alpha is
      T = sum_{j != argmax} exp((1 - alpha) * (lw_j - lw_max)),
  i.e. the (1-alpha)-power ratios of all non-maximal weights to the maximal
  one.  Ties are broken by original index (first occurrence wins); T is
  invariant to the choice among exact ties.
* QQ plotting positions are (i - 0.5) / n against the standard normal.

The sample mean and unbiased SD of a log-weight sample are the weights
runner's `log_mean` and `log_std` columns (`experiments.run_weights_experiment`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

__all__ = [
    "QQResult",
    "t_statistic",
    "max_weight_share",
    "ess",
    "qq_points",
]


class QQResult(NamedTuple):
    theoretical: np.ndarray
    sample: np.ndarray
    correlation: float


def _mean_se(samples: np.ndarray):
    """(mean, standard error) along the leading (replicate) axis of one
    sample array, the package's one mean/SE reducer.

    Two passes: the squared deviations are summed about the mean, so the
    variance stays accurate when the spread is small against the mean.
    """
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    dev = samples - mean
    var = (dev * dev).sum(axis=0) / max(n - 1, 1)
    return mean, np.sqrt(var / n)


def _check_alpha(alpha: float, closed: bool = False) -> float:
    """alpha as a float; ValueError outside [0, 1), or [0, 1] if `closed`."""
    if not (0.0 <= alpha <= 1.0 if closed else 0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1{']' if closed else ')'}, got {alpha}")
    return float(alpha)


def _max_shift(x: np.ndarray, axis: int):
    """(x - m, m): a new array of x shifted by its max m along `axis`, and m
    without that axis.

    A non-finite max is replaced by 0, so that a log-sum-exp of the shifted
    rows plus m gives +inf on rows holding +inf, -inf on rows of only -inf
    and NaN on rows holding NaN.
    """
    mx = np.max(x, axis=axis, keepdims=True)
    mx[~np.isfinite(mx)] = 0.0
    return np.subtract(x, mx), np.squeeze(mx, axis=axis)


def _logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(x))) along `axis` of a float array, max-shifted."""
    e, mx = _max_shift(x, axis)
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(e, axis=axis)) + mx


def t_statistic(values: np.ndarray, alpha: float, axis: int = -1) -> np.ndarray:
    """Sum of (w_j / w_max)^(1-alpha) over the non-maximal weights along `axis`.

    Lies in [0, N-1]; shift-invariant, so it does not matter whether the
    values are normalized or unnormalized log-weights.  Small values mean the
    largest weight dominates the batch.  The argmax term is left out of the
    sum, not subtracted from it, so a T far below 1 keeps its relative
    precision.
    """
    alpha = _check_alpha(alpha)
    v = np.moveaxis(values, axis, -1)
    i_max = np.argmax(v, axis=-1)[..., None]  # ties: first occurrence
    e = np.exp((1.0 - alpha) * (v - np.take_along_axis(v, i_max, axis=-1)))
    np.put_along_axis(e, i_max, 0.0, axis=-1)
    return np.sum(e, axis=-1)


def max_weight_share(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """w_max / sum_j w_j along `axis`, equal to 1 / (1 + T at alpha=0)."""
    return np.exp(np.max(values, axis=axis) - _logsumexp(values, axis))


def ess(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Effective sample size (sum w)^2 / sum w^2 along `axis`, in [1, N]."""
    return np.exp(2.0 * _logsumexp(values, axis) - _logsumexp(2.0 * values, axis))


def _h(s: np.ndarray, alpha: float) -> np.ndarray:
    """Doubly-reparameterized coefficients alpha*s + (1-alpha)*s^2."""
    return alpha * s + (1.0 - alpha) * s * s


def _softmax_last(x: np.ndarray) -> np.ndarray:
    e, _ = _max_shift(x, -1)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)


def _weight_rows(lw: np.ndarray, alpha: float) -> np.ndarray:
    """The stacked rows (s, h) of shape (..., 2, N) for log-weights (..., N):
    s the normalized (1-alpha)-power weights, h their drep coefficients."""
    s = _softmax_last((1.0 - alpha) * lw)
    # np.stack's own overhead is several times this copy's at one epoch's N
    return np.concatenate([s[..., None, :], _h(s, alpha)[..., None, :]], axis=-2)


def qq_points(log_weights: np.ndarray) -> QQResult:
    """Normal QQ pairs for a sample of log-weights.

    The sample is standardized, sorted, and paired with standard
    normal quantiles at plotting positions (i - 0.5) / n.  The Pearson
    correlation of the pairs is the scalar normality summary used throughout.
    """
    x = np.asarray(log_weights, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least 2 points for a QQ plot")
    mean = x.mean()
    std = x.std(ddof=1)
    if std == 0.0:
        raise ValueError("sample variance is zero")
    sample = np.sort((x - mean) / std)
    n = x.size
    theo = ndtri((np.arange(1, n + 1) - 0.5) / n)
    corr = float(np.corrcoef(theo, sample)[0, 1])
    return QQResult(theoretical=theo, sample=sample, correlation=corr)
