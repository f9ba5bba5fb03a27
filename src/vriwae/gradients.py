"""Reparameterized and doubly-reparameterized gradient estimators.

One draw of N reparameterized samples z_j = f(eps_j, phi) yields, with
s = softmax((1-alpha) * log w) the normalized (1-alpha)-power weights:

    rep:   grad = sum_j s_j * d/dparam log w(f(eps_j, phi))
    drep:  grad_phi = sum_j h_j * (stopped score)_j,
           h_j = alpha * s_j + (1-alpha) * s_j^2

The theta estimator is identical in both cases; only the phi estimator
changes.  Both are unbiased for the gradient of the bound, which is what the
finite-difference oracle and the cross-estimator checks in the test suite
verify.

Every score is affine in z (see `models`): score_k(z) = const_k + coef_k *
z_(k mod d).  So a weighted sum of scores contracts to two weighted sums of
the samples,

    sum_j w_j score(z_j) = const * sum_j w_j + coef * tile(sum_j w_j z_j),

and the estimators need only sum_j w_j and sum_j w_j z_j for w = s (theta and
rep phi) and w = h (drep phi), never the (..., N, P) score tensors.
`_contract` is that one contraction.  The sums come from what the model
states (see `models`):

* From eps, without z (`models._eps_sums`): the log-weight is a quadratic in
  eps and z = loc + scale*eps, so one matvec and one sum of squares give the
  log-weights and sum_j w_j z_j = (sum_j w_j) loc + scale * sum_j w_j eps_j.
  `grad_samples_from_eps` contracts these into all three gradients at once,
  theta, rep phi and drep phi, so both estimators always read the same draws;
  `grad_mean_se` and `snr_sweep` reduce all three through `_grad_moments`.
  Given a grid of N, it takes the sums of each N's first N samples of one
  batch, each as a call on those samples alone would, stacks them on a grid
  axis, and contracts the whole grid at once.
* From one training epoch's normals, `train_sums`: only the weight rows the
  run's gradients contract (`_GRADIENTS` names each gradient's row), which
  `train`'s array kernel contracts the same way, into only the gradients its
  run steps.  It serves toy Adam and the linear Gaussian; toy SGD runs as a
  chain in ||theta - phi||^2 and contracts no gradient (see `train`).  The
  eps path yields both rows from the same draws.  The toy draws the one row
  its estimator contracts from the exact conditional law of its sums; the
  eps path stays its oracle in the tests, and this draw the chain's.

The finite-difference oracle (`fd_grad_from_eps`) evaluates `reparam` and the
log-weight of z instead, so it shares no kernel with the estimators.

The eps-path kernels are batched: they take eps of shape (R, N, d) and
return one gradient sample per replicate row.  `_grad_moments` is the one
map and reducer of all three Monte Carlo callers, `grad_mean_se`,
`fd_grad_oracle` and `snr_sweep`.  It runs one cell, a seed and a stream
id, in one `rng._chunk_map`, in chunks of at most `rng._CHUNK_TARGET`
words, so memory stays bounded and the chunks run on all cores; replicate r
reads block r of the normals of the cell's fresh stream, reshaped into its
eps, and the sample function never sees a stream.  Each chunk returns only
its tuple of gradient samples, which the map concatenates item by item in
replicate order, and `weights._mean_se`, the package's one mean/SE reducer,
reduces each item at once, so the results do not depend on the number of
threads or the chunk size.  `grad_mean_se` and `fd_grad_oracle` read the
key of the stream passed in; `snr_sweep` reads its child(2), and its
replicates each draw one batch at the largest N of its grid, of which every
N reads the first N samples, and it takes each SNR from the means and SEs
of every N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as vrng
from .asymptotics import slope_fit
from .bounds import vr_iwae_from_log_weights
from .models import _affine_score, _eps_sums
from .weights import _check_alpha, _check_replicates, _mean_se

__all__ = [
    "GradEstimate",
    "SnrBlock",
    "grad_samples_from_eps",
    "grad_mean_se",
    "fd_grad_from_eps",
    "fd_grad_oracle",
    "SNR_MIN_REPLICATES",
    "snr_floor",
    "snr_sweep",
]

# fewest replicates an SNR is estimated from
SNR_MIN_REPLICATES = 100


@dataclass
class GradEstimate:
    """Per-coordinate Monte Carlo mean and standard error of a gradient."""

    theta_mean: np.ndarray
    theta_se: np.ndarray
    phi_mean: np.ndarray
    phi_se: np.ndarray
    replicates: int


# per gradient, the score it contracts (its index in `score_affine()`) and the
# row of weights it contracts against: theta and rep phi take their total
# scores against s, drep phi the stopped score against h
_GRADIENTS = {"theta": (0, 0), "rep": (1, 0), "drep": (2, 1)}


def _contract(scores, w_sum, wz, kinds=("theta", "rep", "drep"), rows=(0, 1)):
    """The gradients `kinds` from a model's `score_affine()` and the weighted
    sums of the weight rows `rows` (s: 0, h: 1), in order: w_sum of shape
    (..., len(rows), 1) holds sum w, wz of shape (..., len(rows), d) holds
    sum w z.  Only the consts of those scores are evaluated."""
    grads = []
    for kind in kinds:
        score, row = _GRADIENTS[kind]
        const, coef = scores[score]
        i = rows.index(row)
        grads.append(_affine_score(const(), coef, wz[..., i, :], w_sum[..., i, :]))
    return tuple(grads)


def grad_samples_from_eps(model, eps: np.ndarray, alpha: float, n_grid=None):
    """(g_theta, g_phi_rep, g_phi_drep) for a batch of draws.

    eps has shape (..., N, d); the gradients are (..., theta_vec.size),
    (..., phi_vec.size) and (..., phi_vec.size), one sample per batch row.
    Given `n_grid`, a list of N up to eps's, each gradient gains a grid axis
    before its last, whose entry g is the gradient of the first n_grid[g]
    samples of each row, bit for bit as a call on eps[..., :n_grid[g], :]
    gives it; the scores are contracted once for the whole grid.  The sums
    come from `model.log_weight_quadratic()` (`models._eps_sums`) and the
    scores are contracted through `model.score_affine()`: neither z nor a
    score is materialized.
    """
    alpha = _check_alpha(alpha, closed=True)
    _, w_sum, wz = _eps_sums(model, eps, alpha, n_grid)
    return _contract(model.score_affine(), w_sum, wz)


def _grad_moments(seed: int, stream_id: int, shape: tuple, replicates: int, sample) -> list:
    """The list of (mean, SE) of each array of the tuple of gradient
    samples `sample(eps)`, over i.i.d. replicates.

    Replicate r's eps of shape `shape` are block r of the normals of the
    fresh stream (seed, stream_id); the kernel of `rng._chunk_map` reshapes
    a chunk's normals into them.  A replicate's words, the size of its eps,
    size the chunks; each array's samples are reduced at once by
    `weights._mean_se`, so the result does not depend on the chunks.
    """
    samples = vrng._chunk_map(seed, stream_id, _check_replicates(replicates), math.prod(shape),
                              lambda normals: sample(normals.reshape(len(normals), *shape)),
                              vrng.standard_normal)
    return [_mean_se(block) for block in samples]


def grad_mean_se(model, alpha: float, n_importance: int, replicates: int,
                 stream: vrng.RngStream) -> dict:
    """Empirical mean/SE of the rep and drep estimators over i.i.d.
    replicates, replicate r reading block r of a fresh stream at the key of
    `stream`: {"rep": GradEstimate, "drep": GradEstimate}, both from the same
    draws and sharing one theta block."""
    theta, rep, drep = _grad_moments(stream.seed, stream.stream_id, (n_importance, model.d),
                                     replicates, lambda eps: grad_samples_from_eps(model, eps, alpha))
    return {"rep": GradEstimate(*theta, *rep, replicates),
            "drep": GradEstimate(*theta, *drep, replicates)}


def fd_grad_from_eps(model, eps: np.ndarray, alpha: float, step: float):
    """Central finite-difference gradient samples on a shared eps batch.

    Shifting theta leaves z = f(eps, phi) untouched, so z is built once for
    every theta coordinate; shifting a phi coordinate moves the samples along
    the reparameterization path, which is exactly what the analytic
    estimators differentiate through.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    z = model.reparam(eps)

    def at_theta(v):
        return vr_iwae_from_log_weights(model.with_theta(v).log_unnormalized_weight(z), alpha)

    def at_phi(v):
        shifted = model.with_phi(v)
        return vr_iwae_from_log_weights(shifted.log_unnormalized_weight(shifted.reparam(eps)),
                                        alpha)

    return (_central_differences(at_theta, model.theta_vec, step),
            _central_differences(at_phi, model.phi_vec, step))


def _central_differences(f, x: np.ndarray, step: float) -> np.ndarray:
    """(f(x + step e_k) - f(x - step e_k)) / (2 step) for each coordinate k
    of x, stacked along a new last axis."""
    cols = []
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        cols.append((f(x + e) - f(x - e)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def fd_grad_oracle(model, alpha: float, n_importance: int, step: float,
                   replicates: int, stream: vrng.RngStream) -> GradEstimate:
    """Finite-difference oracle for the bound gradient, with common random
    numbers across the +/- evaluations of every coordinate."""
    theta, phi = _grad_moments(stream.seed, stream.stream_id, (n_importance, model.d), replicates,
                               lambda eps: fd_grad_from_eps(model, eps, alpha, step))
    return GradEstimate(*theta, *phi, replicates)


# --------------------------------------------------------------------------
# SNR harness
# --------------------------------------------------------------------------

@dataclass
class SnrBlock:
    """SNR of one (estimator, parameter block) pair across the N grid.

    Each SNR is |mean|/(SE sqrt(R)), that is |mean|/sd, over R replicates,
    from `weights._mean_se`.  It is biased up toward the floor
    sqrt(2/(pi R)), the expected value for a zero-mean coordinate (about
    0.025 at R=1000).  SNRs near or below the floor cannot be read, and a
    slope fitted to them measures the floor, not the estimator; `at_floor`
    marks the N whose mean SNR is below twice the floor.
    """

    # (len(n_grid), n_coords); +inf marks zero variance, an sd of at most
    # 4 sqrt(N) ulps of |mean| (see `snr_sweep`)
    per_coordinate_snr: np.ndarray
    mean_snr: np.ndarray            # mean over finite coordinates per N
    at_floor: np.ndarray            # bool per N: mean_snr < 2 * snr_floor(R)
    slope: float
    slope_se: float


def snr_floor(replicates: int) -> float:
    """sqrt(2/(pi R)): the expected |mean|/sd of a zero-mean coordinate over
    R replicates, below which an SNR cannot be read."""
    return math.sqrt(2.0 / (math.pi * replicates))


def snr_sweep(model, alpha: float, m_samples: int, n_grid: Sequence[int],
              replicates: int, coordinate_sample: int,
              stream: vrng.RngStream) -> dict:
    """Per-coordinate SNR of the gradient estimators across an N grid, as
    {(kind, block): SnrBlock} for kind rep or drep and block theta or phi.

    For each N, `replicates` independent gradient estimates (each averaging
    `m_samples` draws) are formed for the rep and drep estimators on common
    random numbers.  Replicate r reads block r of the normals of
    stream.child(2), one (m_samples, N_max, d) batch at N_max =
    n_grid[-1], and its estimate at each N reads the first N samples of
    each of its m_samples draws.  SNR = |mean|/(SE sqrt(R)) per
    coordinate, from the means and SEs of `_grad_moments`, averaged over a
    seed-deterministic subset of `coordinate_sample` coordinates per block,
    then fitted with an ordinary least-squares slope in log-log scale.

    The N of the grid share their draws, so their SNRs are paired, not
    independent: the slope's SE (`slope_se`) measures the scatter of the
    points about the fitted line, not an error that independent points
    would give it.

    |mean|/sd over R replicates is biased up toward sqrt(2/(pi R)), so SNRs
    below that floor cannot be read: choose `replicates` so that the SNRs of
    interest stay well above it (see `SnrBlock`).
    """
    alpha = _check_alpha(alpha, closed=True)
    n_grid = list(n_grid)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    if replicates < SNR_MIN_REPLICATES:
        raise ValueError(f"need at least {SNR_MIN_REPLICATES} replicates for SNR estimation")

    n_theta, n_phi = model.theta_vec.size, model.phi_vec.size
    k_theta, k_phi = min(coordinate_sample, n_theta), min(coordinate_sample, n_phi)
    theta_idx = vrng.permutation_indices(stream.child(0), n_theta, k_theta)
    phi_idx = vrng.permutation_indices(stream.child(1), n_phi, k_phi)

    def sample(eps):
        # both estimators at every N from one pass over the largest N; the
        # theta block is shared, and each row averages its m_samples copies
        g_theta, g_rep, g_drep = grad_samples_from_eps(model, eps, alpha, n_grid)
        return (np.take(g_theta.mean(axis=1), theta_idx, axis=-1),
                np.take(g_rep.mean(axis=1), phi_idx, axis=-1),
                np.take(g_drep.mean(axis=1), phi_idx, axis=-1))

    moments = _grad_moments(stream.seed, stream.stream_id + 2, (m_samples, n_grid[-1], model.d),
                            replicates, sample)
    log_n = np.log(np.asarray(n_grid, dtype=np.float64))
    blocks = {}
    for key, j in ((("rep", "theta"), 0), (("rep", "phi"), 1), (("drep", "theta"), 0),
                   (("drep", "phi"), 2)):
        mean, se = moments[j]
        sd = se * math.sqrt(replicates)
        # a coordinate whose sd is at most 4 sqrt(N) ulps of |mean| counts as
        # zero variance: a sum of N terms about a constant rounds that far,
        # so |mean|/sd would measure the rounding; a constant reads sd 0 (the
        # toy's drep phi gradient at N = 1, where h = s = 1), and a large SNR
        # that floats resolve spreads by more (about 6,000 ulps at theta 1e12)
        mat = np.full(mean.shape, np.inf)
        nz = sd > 4.0 * np.sqrt(np.reshape(n_grid, (-1, 1))) * np.spacing(np.abs(mean))
        mat[nz] = np.abs(mean[nz]) / sd[nz]
        finite = np.isfinite(mat)
        mean_snr = np.array([mat[i][finite[i]].mean() if finite[i].any() else np.inf
                             for i in range(len(n_grid))])
        usable = np.isfinite(mean_snr) & (mean_snr > 0)
        if usable.sum() >= 2:
            fit = slope_fit(log_n[usable], np.log(mean_snr[usable]))
            slope, slope_se = fit.slope, fit.slope_se
        else:
            slope, slope_se = np.nan, np.nan
        blocks[key] = SnrBlock(per_coordinate_snr=mat, mean_snr=mean_snr,
                               at_floor=mean_snr < 2.0 * snr_floor(replicates),
                               slope=slope, slope_se=slope_se)
    return blocks
