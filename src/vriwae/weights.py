"""Importance log-weight container and degeneracy diagnostics.

All statistics here are computed in the log domain with max-subtraction; the
interesting regimes put hundreds of nats between the largest and smallest
weight, so linear-domain arithmetic would overflow long before the diagnostics
become informative.  `_logsumexp` is the package's one log-sum-exp kernel;
the diagnostics T, max share and ESS each have one function, which reduces
along an axis of a log-weight array (the last by default), so one batch and a
stack of batches take the same code.  The normalized weights s and the
doubly-reparameterized coefficients h of the gradient estimators
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

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import ndtri

__all__ = [
    "LogWeights",
    "QQResult",
    "relative_log_weights",
    "t_statistic",
    "max_weight_share",
    "ess",
    "qq_points",
]


@dataclass
class LogWeights:
    """A batch of N importance log-weights (nats).

    `values` holds log of the unnormalized weights; `log_marginal`, when
    known, is the exact log normalizer so that values - log_marginal are the
    relative log-weights (whose weights have unit mean under the proposal).
    """

    values: np.ndarray
    log_marginal: Optional[float] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("log-weights must all be finite")

    @property
    def n(self) -> int:
        return self.values.size


class QQResult(NamedTuple):
    theoretical: np.ndarray
    sample: np.ndarray
    correlation: float


def relative_log_weights(lw: LogWeights) -> np.ndarray:
    """Log-weights shifted by the exact log normalizer, order preserved."""
    if lw.log_marginal is None:
        raise ValueError("log_marginal is required to form relative weights")
    return lw.values - lw.log_marginal


class _MeanSE:
    """Streaming mean and standard error along the leading (replicate) axis.

    Each batch is reduced to its own mean and sum of squared deviations and
    merged with the pairwise update of Chan, Golub and LeVeque (1983), so
    the variance stays accurate when the spread is small against the mean
    and batches of any size merge to the same result up to rounding.  This
    is the package's one mean/SE reducer.
    """

    def __init__(self, shape):
        self.n = 0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def add(self, batch: np.ndarray):
        k = batch.shape[0]
        if k == 0:
            return
        b_mean = batch.mean(axis=0)
        dev = batch - b_mean
        n = self.n + k
        delta = b_mean - self.mean
        self.m2 = self.m2 + (dev * dev).sum(axis=0) + delta * delta * (self.n * k / n)
        self.mean = self.mean + delta * (k / n)
        self.n = n

    def finalize(self):
        var = self.m2 / max(self.n - 1, 1)
        return self.mean, np.sqrt(var / self.n)


def _check_alpha(alpha: float, closed: bool = False) -> float:
    """alpha as a float; ValueError outside [0, 1), or [0, 1] if `closed`."""
    if not (0.0 <= alpha <= 1.0 if closed else 0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1{']' if closed else ')'}, got {alpha}")
    return float(alpha)


def _logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(x))) along `axis` of a float array, max-shifted.

    A non-finite max is replaced by 0, so rows holding +inf give +inf, rows
    of only -inf give -inf and rows holding NaN give NaN.
    """
    mx = np.max(x, axis=axis, keepdims=True)
    mx[~np.isfinite(mx)] = 0.0
    e = np.subtract(x, mx)
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(e, axis=axis)) + np.squeeze(mx, axis=axis)


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
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _weight_rows(lw: np.ndarray, alpha: float) -> np.ndarray:
    """The stacked rows (s, h) of shape (..., 2, N) for log-weights (..., N):
    s the normalized (1-alpha)-power weights, h their drep coefficients."""
    s = _softmax_last((1.0 - alpha) * lw)
    return np.stack([s, _h(s, alpha)], axis=-2)


def qq_points(log_weights: np.ndarray) -> QQResult:
    """Normal QQ pairs for a sample of log-weights.

    The sample is standardized, sorted (stable), and paired with standard
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
    sample = np.sort((x - mean) / std, kind="stable")
    n = x.size
    theo = ndtri((np.arange(1, n + 1) - 0.5) / n)
    corr = float(np.corrcoef(theo, sample)[0, 1])
    return QQResult(theoretical=theo, sample=sample, correlation=corr)
