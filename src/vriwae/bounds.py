"""VR-IWAE bound estimators, the variational gap, and its max/remainder split.

The single-sample estimator of the bound from one batch of N log-weights is

    (1/(1-alpha)) * [logsumexp((1-alpha) * lw) - log N],

which interpolates the IWAE estimate (alpha = 0) and the ELBO (alpha -> 1).
It is evaluated as the paper's split of a gap sample: the dominant weight's
term max lw + log N / (alpha - 1), plus the remainder log(1 + T) / (1 - alpha)
carried by the others, with T the dominance statistic of `weights`.  Both
terms come from `weights._tail_sums`, the package's one kernel of the sums
of a batch (`_split`), and the estimate is their sum, bit for bit.  Within
1e-8 of alpha = 1 the (1-alpha) cancellation has lost all precision, so
evaluation switches to the exact limit mean(lw).  The gap runner evaluates
it at every alpha of its grid from one call per chunk of batches.

Gaps are always computed from relative log-weights so the log marginal cancels
analytically instead of being subtracted between two huge numbers.  The one
Monte Carlo entry is `gap_mc`, the gap's mean and standard error; the bound
is that mean plus `model.log_marginal()`.

The Monte Carlo estimates draw by the package's one rule (see `rng`): a cell
reads one fresh stream, and replicate r maps block r of its uniforms, N x
LAW_WORDS of them at the largest N of the cell's grid, through the model's
law (`law_variates`, then `law_log_weights`).  `_law_samples` runs the
chunks of replicates through `rng._chunk_map`, whose kernel takes a chunk's
uniforms, maps them and reduces the first N log-weights of each batch, for
each N of the grid, to one sample per replicate on whichever thread takes
it.  It takes one law (a model) and a list of law scalars (`law_scalars`),
computes `law_variates` (a function of q and d alone) once per chunk, and
maps them through one `law_log_weights` call, broadcast against the
scalars' c and ||v||^2 as columns, into one block, so the sigma variants
and the N of one d share the linear Gaussian's normal and chi^2 draws.  It
serves the gap, collapse and weights runners of `experiments` too; a
weights draw is one cell of N = 1 per d.  `gap_mc` takes such a list as
well: a training run's logged rows are law states of one model, and their
gaps are variants of one cell on one key.
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
]

ALPHA_ONE_THRESHOLD = 1e-8


@dataclass
class BoundEstimate:
    """Monte Carlo mean and standard error of a bound or gap."""

    mean: float
    std_error: float
    replicates: int


def _split(values: np.ndarray, betas):
    """(delta_max, r_term, T) along the last axis, each with a leading axis
    over `betas` = 1 - alpha, except delta_max at a single beta, which
    broadcasts against the others, from one kernel call.

    delta_max = log wbar_max + log N / (alpha - 1) is the contribution of the
    dominant weight; r_term = log(1 + T) / (1 - alpha) is the non-negative
    remainder carried by the others, 0 <= r_term <= T / (1 - alpha).  Their
    sum is the single-sample bound estimate, the gap sample of a batch of
    relative log-weights.
    """
    m, t = _tail_sums(values, betas)
    # a single beta divides as a float, which rounds as an array of it does
    b = betas[0] if len(betas) == 1 else np.reshape(betas, (-1,) + (1,) * m.ndim)
    return m - math.log(values.shape[-1]) / b, np.log1p(t) / b, t


def vr_iwae_from_log_weights(values: np.ndarray, alpha, axis: int = -1) -> np.ndarray:
    """Single-sample bound estimate along `axis` of a log-weight array, at one
    alpha, or at each of a 1-D sequence of alphas on a new last axis.

    max (1-alpha) lw = (1-alpha) max lw, so one kernel call serves every
    alpha below the ELBO limit: the sum delta_max + r_term of `_split`.
    `values` is never written.
    """
    shape = np.shape(alpha)
    if len(shape) > 1:
        raise ValueError(f"alpha must be a number or a 1-D sequence, got shape {shape}")
    betas = [1.0 - _check_alpha(a, closed=True) for a in (alpha if shape else [alpha])]
    values = np.asarray(values, dtype=np.float64)
    if values.shape[axis] < 1:
        raise ValueError("need at least one weight")
    values = values if axis in (-1, values.ndim - 1) else np.moveaxis(values, axis, -1)
    tail = [b for b in betas if b >= ALPHA_ONE_THRESHOLD]
    sums = iter(np.add(*_split(values, tail)[:2]) if tail else ())
    out = [next(sums) if b >= ALPHA_ONE_THRESHOLD else np.mean(values, axis=-1) for b in betas]
    return np.stack(out, axis=-1) if shape else out[0]


def gap_mc(model, alpha: float, n_importance: int, replicates: int,
           stream: vrng.RngStream, states: Sequence[tuple] | None = None):
    """Monte Carlo estimate of the bound minus the exact log marginal, over
    i.i.d. replicate batches of relative log-weights; the bound itself is
    its mean plus `model.log_marginal()`.

    Replicate r maps block r of the uniforms of a fresh stream at the key of
    `stream` through the model's law, so the result is a function of
    that key alone; `stream` is not advanced.

    Given `states`, a list of law scalars of models of the model's class
    and d (their `law_scalars()`), it returns the list of their estimates,
    each equal bit for bit to `gap_mc` of a model at that state on the same
    key.  The states share the key's draws as variants of one cell, and run
    in groups from the one chunk loop (`rng._replicate_chunks`), each state
    counting R x N words, so a group's law block holds about
    `rng._CHUNK_TARGET` elements.
    """
    alpha, replicates = _check_alpha(alpha, closed=True), _check_replicates(replicates)
    scalars = [model.law_scalars()] if states is None else states
    out = []
    for start, stop in vrng._replicate_chunks(len(scalars), replicates * n_importance):
        samples, = _law_samples(model, scalars[start:stop], stream.seed, stream.stream_id,
                                (n_importance,), replicates,
                                lambda lrw: vr_iwae_from_log_weights(lrw, alpha))
        for row in np.ascontiguousarray(samples.T):
            out.append(BoundEstimate(*map(float, _mean_se(row)), replicates=row.size))
    return out[0] if states is None else out


def _law_samples(law, states: Sequence[tuple], seed: int, stream_id: int,
                 n_grid: Sequence[int], replicates: int, reduce) -> tuple:
    """The tuple, one item per N of `n_grid`, of the concatenation over the
    replicates of the cell (seed, stream_id) of reduce(lrw[..., :N]), with
    lrw the (C, V, N_max) block of a chunk of C replicates, N_max =
    n_grid[-1], and reduce(x) of leading length C: the tuple that
    `rng._chunk_map` returns for the one cell.

    Each N reads the first N log-weights of each replicate's batch, so the
    N of a grid share their draws, as the variants do.  A proper prefix
    reaches `reduce` as a C-contiguous copy, and the whole block as is, so
    the sample at each N is, bit for bit, that of a cell of N drawn alone.

    `law` is a model, whose class states the law (`LAW_WORDS`,
    `law_variates`, `law_log_weights`), and `states` holds V law scalars of
    it: the `law_scalars()` of models of its class and d, which share q and
    d, hence their `law_variates`.  Their c and ||v||^2 are read once per
    call as (V, 1) columns.  The kernel of `rng._chunk_map` takes a chunk's
    uniforms, N_max x LAW_WORDS per replicate, as (C, 1, N_max, LAW_WORDS),
    computes the (C, 1, N_max) variates once, and one `law_log_weights`
    call broadcasts them against the columns into the block; a single state
    writes over Z.  The transforms and reductions are batched per chunk,
    which does not affect the values.
    """
    k, n_max = law.LAW_WORDS, n_grid[-1]
    # c and ||v||^2 as (V, 1) columns; the states share q and d
    columns = (*np.array([s[:2] for s in states]).T[..., None], *states[0][2:])

    def kernel(u):
        variates = law.law_variates(u.reshape(len(u), 1, n_max, k), columns)
        # one state writes its log-weights over Z, which nothing reads after
        lrw = law.law_log_weights(variates, columns,
                                  out=variates[0] if len(states) == 1 else None)
        return tuple(reduce(np.ascontiguousarray(lrw[..., :n])) for n in n_grid)

    return vrng._chunk_map(seed, stream_id, replicates, n_max * k, kernel, vrng.uniform)
