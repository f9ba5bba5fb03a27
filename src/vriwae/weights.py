"""Importance log-weight degeneracy diagnostics.

All statistics here are computed in the log domain with max-subtraction; the
interesting regimes put hundreds of nats between the largest and smallest
weight, so linear-domain arithmetic would overflow long before the diagnostics
become informative.  Log-weights travel as plain float arrays, with no
container type.  `_tail_sums` is the package's one kernel of the sums of a
batch: it shifts each row by its max once and sums exp(beta * shifted) over
the non-maximal weights at each of several beta.  The bound's estimator and
its max/remainder split (`bounds`) and the diagnostics T, max share and ESS
all read it; the collapse runner evaluates every diagnostic at every alpha
of its grid from one call per chunk (`_diagnostics`).  The diagnostics
reduce along an axis of a log-weight array (the last by default), so one
batch and a stack of batches take the same code.  The normalized weights s
and the doubly-reparameterized coefficients h of the gradient estimators
(`_weight_rows`) live here too, below both `models` and `gradients`.

Conventions fixed once for the whole artifact:

* the dominance statistic at order alpha is
      T = sum_{j != argmax} exp((1 - alpha) * (lw_j - lw_max)),
  i.e. the (1-alpha)-power ratios of all non-maximal weights to the maximal
  one.  Ties are broken by original index (first occurrence wins); T is
  invariant to the choice among exact ties.  The max share is
  1 / (1 + T at alpha = 0) and the ESS (1 + T_1)^2 / (1 + T_2), with T_beta
  the sum at power beta.  All three read NaN on a batch whose largest
  log-weight is not finite.
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
    n = _check_replicates(samples.shape[0])
    mean = samples.mean(axis=0)
    dev = samples - mean
    var = (dev * dev).sum(axis=0) / (n - 1)
    return mean, np.sqrt(var / n)


def _check_replicates(replicates: int) -> int:
    """replicates; ValueError below 2, which have no standard error."""
    if replicates < 2:
        raise ValueError(f"a standard error needs at least 2 replicates, got {replicates}")
    return replicates


def _check_alpha(alpha: float, closed: bool = False) -> float:
    """alpha as a float; ValueError outside [0, 1), or [0, 1] if `closed`."""
    if not (0.0 <= alpha <= 1.0 if closed else 0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1{']' if closed else ')'}, got {alpha}")
    return float(alpha)


def _tail_sums(x: np.ndarray, betas, axis: int = -1):
    """(m, T): the max m of x along `axis`, and T with a leading axis over
    `betas`, T[k] = sum_{j != argmax} exp(betas[k] * (x_j - m)).

    The argmax (ties: first occurrence) is taken once, and its term is left
    out of the sum, not subtracted from it, so a T far below 1 keeps its
    relative precision.  Where m is not finite the rows are shifted by 0
    instead, so that m + log1p(T) / beta gives +inf on rows holding +inf,
    -inf on rows of only -inf and NaN on rows holding NaN, as a log-sum-exp
    would; T there serves only that sum.  `x` is never written.

    Along the last axis of a C-contiguous x, the maxima are read and zeroed
    through one flat index, the argmax plus each row's offset into the
    raveled buffer; other axes and layouts gather through `np.indices`.
    Both give the same bits.
    """
    x = np.asarray(x, dtype=np.float64)
    am = np.argmax(x, axis=axis, keepdims=True)
    flat = x.flags.c_contiguous and axis in (-1, x.ndim - 1)
    if flat:
        at_max = am.reshape(-1) + np.arange(0, x.size, x.shape[-1])
        m = x.reshape(-1)[at_max].reshape(am.shape)
    else:
        at_max = [*np.indices(x.shape, sparse=True)]
        at_max[axis] = am
        at_max = tuple(at_max)
        m = x[at_max]
    e = np.subtract(x, np.where(np.isfinite(m), m, 0.0))
    buf = np.empty_like(e)
    zeroed = buf.reshape(-1) if flat else buf
    m = np.squeeze(m, axis)
    t = np.empty((len(betas), *m.shape))
    for k, b in enumerate(betas):
        np.exp(np.multiply(e, b, out=buf) if b != 1.0 else e, out=buf)
        # zeroed after exp: exp is slower on a row holding -inf
        zeroed[at_max] = 0.0
        np.add.reduce(buf, axis=axis, out=t[k, ...])
    return m, t


def _diagnostics(values: np.ndarray, alphas, axis: int = -1) -> np.ndarray:
    """(T, max share, ESS) along `axis` on a last axis of 3, after an axis
    over `alphas` (the share and the ESS repeat along it), from one kernel
    call; NaN on rows whose max is not finite.

    T at alpha sums (w_j / w_max)^(1-alpha) over the non-maximal weights and
    lies in [0, N-1]; it is shift-invariant, so it does not matter whether
    the values are normalized or unnormalized log-weights, and small values
    mean the largest weight dominates the batch.  The max share is
    w_max / sum_j w_j = 1 / (1 + T at alpha = 0), and the ESS
    (sum w)^2 / sum w^2 lies in [1, N].
    """
    m, t = _tail_sums(values, [1.0 - _check_alpha(a) for a in alphas] + [1.0, 2.0], axis)
    t = np.where(np.isfinite(m), t, np.nan)
    t1 = 1.0 + t[-2]
    columns = np.broadcast_arrays(t[:-2], 1.0 / t1, t1 * t1 / (1.0 + t[-1]))
    return np.moveaxis(np.stack(columns, axis=-1), 0, -2)


def _h(s: np.ndarray, alpha: float) -> np.ndarray:
    """Doubly-reparameterized coefficients alpha*s + (1-alpha)*s^2."""
    return alpha * s + (1.0 - alpha) * s * s


def _softmax_last(x: np.ndarray) -> np.ndarray:
    mx = np.max(x, axis=-1, keepdims=True)
    e = np.subtract(x, np.where(np.isfinite(mx), mx, 0.0))
    # the arguments run in order: the sum reads the exponentiated e
    return np.divide(np.exp(e, out=e), e.sum(axis=-1, keepdims=True), out=e)


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
