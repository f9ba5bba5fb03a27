"""VR-IWAE bound estimators, the variational gap, and its max/remainder split.

The single-sample estimator of the bound from one batch of N log-weights is

    (1/(1-alpha)) * [logsumexp((1-alpha) * lw) - log N],

which interpolates the IWAE estimate (alpha = 0) and the ELBO (alpha -> 1).
It is evaluated as the paper's split of a gap sample: the dominant weight's
term max lw + log N / (alpha - 1), plus the remainder log(1 + T) / (1 - alpha)
carried by the others, with T the dominance statistic of `weights`.  Both
terms come from `weights._tail_sums`, the package's one kernel of the sums
of a batch (`_split`), so the estimate and `decomposition_sample` agree bit
for bit.  Within 1e-8 of alpha = 1 the (1-alpha) cancellation has lost all
precision, so evaluation switches to the exact limit mean(lw).  The gap
runner evaluates it at every alpha of its grid from one call per chunk of
batches.

Gaps are always computed from relative log-weights so the log marginal cancels
analytically instead of being subtracted between two huge numbers.  The one
Monte Carlo entry is `gap_mc`, the gap's mean and standard error; the bound
is that mean plus `model.log_marginal()`.  `decomposition_sample` takes one
batch of relative log-weights as a plain 1-D array.

The Monte Carlo estimates draw by the package's one rule (see `rng`): a cell
reads one fresh stream, and replicate r maps block r of its uniforms, N x
LAW_WORDS of them, through the model's law (`law_variates`, then
`law_log_weights`).  `_law_samples` runs the chunks of replicates through
`rng._chunk_map`, whose kernel takes a chunk's uniforms, maps them and
reduces them to one sample per replicate on whichever thread takes it.  It
reads each model's `law_scalars` once per call, computes `law_variates` (a
function of q and d alone) once per chunk, and maps them through
`law_log_weights` with the scalars of every model into one block, so the
sigma variants of one d share the linear Gaussian's normal and chi^2
draws.  It serves the gap, collapse and weights runners of
`experiments` too; a weights draw is one cell of N = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as vrng
from .weights import _check_alpha, _check_replicates, _mean_se, _tail_sums

__all__ = [
    "ALPHA_ONE_THRESHOLD",
    "BoundEstimate",
    "vr_iwae_from_log_weights",
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


def _split(values: np.ndarray, betas, axis: int):
    """(delta_max, r_term, T) along `axis`, each with a leading axis over
    `betas` = 1 - alpha: delta_max = max + log N / (alpha - 1) and
    r_term = log1p(T) / (1 - alpha), from one kernel call."""
    m, t = _tail_sums(values, betas, axis)
    b = np.reshape(betas, (-1,) + (1,) * m.ndim)
    return m - math.log(values.shape[axis]) / b, np.log1p(t) / b, t


def vr_iwae_from_log_weights(values: np.ndarray, alpha, axis: int = -1) -> np.ndarray:
    """Single-sample bound estimate along `axis` of a log-weight array, at one
    alpha, or at each of a 1-D sequence of alphas on a new last axis.

    max (1-alpha) lw = (1-alpha) max lw, so one kernel call serves every
    alpha below the ELBO limit: the sum delta_max + r_term of `_split`.
    `values` is never written.
    """
    if np.ndim(alpha) > 1:
        raise ValueError(f"alpha must be a number or a 1-D sequence, got shape {np.shape(alpha)}")
    betas = [1.0 - _check_alpha(a, closed=True) for a in np.atleast_1d(alpha)]
    values = np.asarray(values, dtype=np.float64)
    if values.shape[axis] < 1:
        raise ValueError("need at least one weight")
    tail = [b for b in betas if b >= ALPHA_ONE_THRESHOLD]
    sums = iter(np.add(*_split(values, tail, axis)[:2]) if tail else ())
    out = [next(sums) if b >= ALPHA_ONE_THRESHOLD else np.mean(values, axis=axis) for b in betas]
    return np.stack(out, axis=-1) if np.ndim(alpha) else out[0]


def gap_mc(model, alpha: float, n_importance: int, replicates: int,
           stream: vrng.RngStream) -> BoundEstimate:
    """Monte Carlo estimate of the bound minus the exact log marginal, over
    i.i.d. replicate batches of relative log-weights; the bound itself is
    its mean plus `model.log_marginal()`.

    Replicate r maps block r of the uniforms of a fresh stream at the key of
    `stream` through the model's law, so the result is a function of
    that key alone; `stream` is not advanced.
    """
    alpha, replicates = _check_alpha(alpha, closed=True), _check_replicates(replicates)
    samples, = _law_samples([model], stream.seed, [(stream.stream_id, n_importance)],
                            replicates, lambda lrw: vr_iwae_from_log_weights(lrw[0], alpha))
    mean, se = _mean_se(samples)
    return BoundEstimate(mean=float(mean), std_error=float(se), replicates=samples.size)


def _law_samples(models: Sequence, seed: int, cells: Sequence[tuple[int, int]],
                 replicates: int, reduce) -> list:
    """Per cell (stream_id, N), the concatenation over its replicates of
    reduce(lrw), with lrw of shape (V, C, N) per chunk of C replicates and
    reduce(lrw) of leading length C.

    The kernel of `rng._chunk_map` takes a chunk's uniforms, N x k per
    replicate (k = LAW_WORDS of the models) of the cell's stream (seed,
    stream_id).  The models share their class and d, hence q and their
    `law_variates`: those are computed once per chunk, and `law_log_weights`
    with each model's scalars writes its log-weights into its row of one
    (V, C, N) block, or over Z where V = 1.  The transforms and reductions
    are batched per chunk, which does not affect the values.
    """
    k = models[0].LAW_WORDS
    scalars = [m.law_scalars() for m in models]

    def kernel(i, u):
        u = u.reshape(len(u), cells[i][1], k)
        variates = models[0].law_variates(u, scalars[0])
        # one model writes its log-weights over Z, which nothing reads after
        lrw = variates[0][None] if len(models) == 1 else np.empty((len(models), *u.shape[:-1]))
        for m, s, out in zip(models, scalars, lrw):
            m.law_log_weights(variates, s, out=out)
        return reduce(lrw)

    return vrng._chunk_map(seed, replicates, [(stream_id, n * k) for stream_id, n in cells],
                           kernel, vrng.uniform)


def decomposition_sample(rel: np.ndarray, alpha: float) -> tuple[float, float, float]:
    """Split one gap sample, from a 1-D array of relative log-weights, into
    (delta_max, r_term, t_stat).

    delta_max = log wbar_max + log N / (alpha - 1) is the contribution of the
    dominant weight; r_term = log(1 + T) / (1 - alpha) is the non-negative
    remainder carried by the others.  Their sum reproduces the gap sample
    exactly, and r_term <= T / (1 - alpha).
    """
    alpha = _check_alpha(alpha)
    rel = np.asarray(rel, dtype=np.float64)
    if rel.ndim != 1 or rel.size < 1:
        raise ValueError("log-weights must be a non-empty 1-D array")
    if not np.all(np.isfinite(rel)):
        raise ValueError("log-weights must all be finite")
    return tuple(float(x[0]) for x in _split(rel, [1.0 - alpha], -1))
