"""VR-IWAE bound estimators, the variational gap, and its max/remainder split.

The single-sample estimator of the bound from one batch of N log-weights is

    (1/(1-alpha)) * [logsumexp((1-alpha) * lw) - log N],

which interpolates the IWAE estimate (alpha = 0) and the ELBO (alpha -> 1).
Within 1e-8 of alpha = 1 the (1-alpha) cancellation has lost all precision, so
evaluation switches to the exact limit mean(lw).

Gaps are always computed from relative log-weights so the log marginal cancels
analytically instead of being subtracted between two huge numbers.

The Monte Carlo estimates draw by the package's one rule (see `rng`): a cell
reads one fresh stream, and replicate r maps block r of its uniforms, N x
LAW_WORDS of them, through the model's `log_weight_law`.  Whole chunks of
replicates are drawn and reduced at once (`_relative_weight_batches`, shared
with the gap and collapse runners of `experiments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as vrng
from .weights import (LogWeights, _check_alpha, _logsumexp, _MeanSE, relative_log_weights,
                      t_statistic)

__all__ = [
    "ALPHA_ONE_THRESHOLD",
    "BoundEstimate",
    "vr_iwae_from_log_weights",
    "bound_mc",
    "gap_mc",
    "decomposition_sample",
]

ALPHA_ONE_THRESHOLD = 1e-8


@dataclass
class BoundEstimate:
    """Monte Carlo mean and standard error of a bound or gap."""

    mean: float
    std_error: float
    replicates: int
    alpha: float
    n_importance: int


def vr_iwae_from_log_weights(values: np.ndarray, alpha: float, axis: int = -1) -> np.ndarray:
    """Single-sample bound estimate along `axis` of a log-weight array."""
    alpha = _check_alpha(alpha, closed=True)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[axis] < 1:
        raise ValueError("need at least one weight")
    if 1.0 - alpha < ALPHA_ONE_THRESHOLD:
        return np.mean(values, axis=axis)
    n = values.shape[axis]
    return (_logsumexp((1.0 - alpha) * values, axis) - np.log(n)) / (1.0 - alpha)


def bound_mc(model, alpha: float, n_importance: int, replicates: int,
             stream: vrng.RngStream) -> BoundEstimate:
    """Monte Carlo bound estimate over i.i.d. replicate batches.

    Replicate r reads block r of a fresh stream at the key of `stream`, so
    the result is a function of that key alone; `stream` is not advanced.
    """
    samples = _mc_samples(model, alpha, n_importance, replicates, stream, relative=False)
    return _estimate(samples, alpha, n_importance)


def gap_mc(model, alpha: float, n_importance: int, replicates: int,
           stream: vrng.RngStream) -> BoundEstimate:
    """Monte Carlo estimate of bound minus exact log marginal.

    Uses relative weights directly; for models whose marginal is defined to be
    zero this coincides with bound_mc.
    """
    samples = _mc_samples(model, alpha, n_importance, replicates, stream, relative=True)
    return _estimate(samples, alpha, n_importance)


def _mc_samples(model, alpha, n_importance, replicates, stream, relative):
    """Bound samples, replicate r from the N log-weights of `model.log_weight_law`
    on block r of the uniforms of stream (stream.seed, stream.stream_id)."""
    if replicates < 1:
        raise ValueError("need at least one replicate")
    alpha = _check_alpha(alpha, closed=True)
    shift = 0.0 if relative else model.log_marginal()
    out = np.empty(replicates)
    for start, stop, lrw in _relative_weight_batches([model], n_importance, replicates,
                                                     stream.seed, stream.stream_id):
        out[start:stop] = vr_iwae_from_log_weights(lrw[0] + shift, alpha)
    return out


def _relative_weight_batches(models: Sequence, n: int, replicates: int, seed: int,
                             stream_id: int):
    """Yield (start, stop, lrw) with lrw of shape (V, C, N) per chunk.

    Replicate r reads block r of N x k uniforms (k = LAW_WORDS of the models)
    of a fresh stream (seed, stream_id), and every model maps the same
    uniforms through its `log_weight_law`; the transforms are batched per
    chunk, which does not affect the values.
    """
    k = models[0].LAW_WORDS
    stream = vrng.make_stream(seed, stream_id)
    for start, stop in vrng._replicate_chunks(replicates, n * k):
        u = vrng.uniform(stream, (stop - start, n, k))
        yield start, stop, np.stack([m.log_weight_law(u) for m in models])


def _estimate(samples: np.ndarray, alpha: float, n_importance: int) -> BoundEstimate:
    acc = _MeanSE(())
    acc.add(samples)
    mean, se = acc.finalize()
    return BoundEstimate(mean=float(mean), std_error=float(se), replicates=samples.size,
                         alpha=float(alpha), n_importance=int(n_importance))


def decomposition_sample(lw: LogWeights, alpha: float) -> tuple[float, float, float]:
    """Split one gap sample into (delta_max, r_term, t_stat).

    delta_max = log wbar_max + log N / (alpha - 1) is the contribution of the
    dominant weight; r_term = log(1 + T) / (1 - alpha) is the non-negative
    remainder carried by the others.  Their sum reproduces the gap sample
    exactly, and r_term <= T / (1 - alpha).
    """
    _check_alpha(alpha)
    if lw.log_marginal is None:
        raise ValueError("decomposition needs relative log-weights (log_marginal set)")
    rel = relative_log_weights(lw)
    t = float(t_statistic(rel, alpha))
    n = rel.size
    delta_max = float(np.max(rel)) + np.log(n) / (alpha - 1.0)
    r_term = float(np.log1p(t) / (1.0 - alpha))
    return delta_max, r_term, t
