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
  `_grad_pass` contracts these; it runs under `grad_samples_from_eps`,
  `grad_mean_se` and `snr_sweep`.
* From one training epoch's normals, `train_sums`: the eps path by default,
  and for the toy an exact draw of the sums from their conditional law, which
  `train` contracts the same way.  The eps path stays its oracle in the
  tests.

The finite-difference oracle (`fd_grad_from_eps`) evaluates `reparam` and the
log-weight of z instead, so it shares no kernel with the estimators.

The eps-path kernels are batched: they take eps of shape (R, N, d) and
return one gradient sample per replicate row, chunked to at most
`rng._CHUNK_TARGET` elements of eps so memory stays bounded.  `grad_mean_se`
and `fd_grad_oracle` reduce their samples in one loop (`_grad_estimate`),
which draws the eps sequentially from one stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import rng as vrng
from .asymptotics import slope_fit
from .bounds import vr_iwae_from_log_weights
from .models import _affine_score, _eps_sums
# `_softmax_last` is the estimators' normalized weight s; it is re-exported
# here, next to `h_coefficients`, for callers that assemble an estimator
from .weights import _check_alpha, _h, _MeanSE, _softmax_last  # noqa: F401

__all__ = [
    "GradEstimate",
    "SnrBlock",
    "SnrReport",
    "h_coefficients",
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


def h_coefficients(s: np.ndarray, alpha: float) -> np.ndarray:
    """Doubly-reparameterized weights h_j = alpha*s_j + (1-alpha)*s_j^2.

    `s` must be a probability vector (the normalized (1-alpha)-power
    weights); h sums to at most 1, with equality iff alpha = 1 or s is
    degenerate.
    """
    alpha = _check_alpha(alpha, closed=True)
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0) or abs(float(s.sum()) - 1.0) > 1e-10:
        raise ValueError("s must be a probability vector")
    return _h(s, alpha)


def _contract(model, w_sum: np.ndarray, wz: np.ndarray):
    """(g_theta, g_phi_rep, g_phi_drep) from the weighted sums: w_sum of shape
    (..., 2, 1) holds sum s and sum h, wz of shape (..., 2, d) holds sum s z
    and sum h z."""
    s_sum, h_sum = w_sum[..., 0, :], w_sum[..., 1, :]
    sz, hz = wz[..., 0, :], wz[..., 1, :]
    theta, phi_total, phi_stopped = model.score_affine()
    return (_affine_score(*theta, sz, s_sum), _affine_score(*phi_total, sz, s_sum),
            _affine_score(*phi_stopped, hz, h_sum))


def _grad_pass(model, eps: np.ndarray, alpha: float):
    """(log_w, g_theta, g_phi_rep, g_phi_drep) for a batch of draws.

    eps has shape (..., N, d); log_w is (..., N) and the gradients are
    (..., theta_dim) and (..., phi_dim), one sample per batch row.  The sums
    come from `model.log_weight_quadratic()` (`models._eps_sums`) and the
    scores are contracted through `model.score_affine()`: neither z nor a
    score is materialized.
    """
    lw, w_sum, wz = _eps_sums(model, eps, alpha)
    return (lw, *_contract(model, w_sum, wz))


def grad_samples_from_eps(model, eps: np.ndarray, alpha: float, kind: str):
    """Gradient samples of one estimator kind for a batch of draws.

    eps has shape (..., N, d); the return is a pair of arrays shaped
    (..., theta_dim) and (..., phi_dim), one gradient sample per batch row.
    """
    alpha = _check_alpha(alpha, closed=True)
    if kind not in ("rep", "drep"):
        raise ValueError(f"unknown estimator kind {kind!r}")
    _, g_theta, g_rep, g_drep = _grad_pass(model, eps, alpha)
    return g_theta, (g_rep if kind == "rep" else g_drep)


def _grad_estimate(model, n_importance: int, replicates: int, stream: vrng.RngStream,
                   per_rep: int, sample) -> GradEstimate:
    """Mean/SE of the gradient samples `sample(eps)` over i.i.d. replicates.

    The eps of shape (R, N, d) come sequentially from `stream`, so the
    result does not depend on the chunks, which `per_rep` (the elements one
    replicate's largest intermediate holds) sizes.
    """
    acc_t = _MeanSE(model.theta_dim)
    acc_p = _MeanSE(model.phi_dim)
    for start, stop in vrng._replicate_chunks(replicates, per_rep):
        g_theta, g_phi = sample(vrng.standard_normal(stream, (stop - start, n_importance, model.d)))
        acc_t.add(g_theta)
        acc_p.add(g_phi)
    tm, tse = acc_t.finalize()
    pm, pse = acc_p.finalize()
    return GradEstimate(tm, tse, pm, pse, replicates)


def grad_mean_se(model, alpha: float, n_importance: int, replicates: int,
                 stream: vrng.RngStream, kind: str = "rep") -> GradEstimate:
    """Empirical mean/SE of the gradient estimator over i.i.d. replicates,
    drawn sequentially from `stream`."""
    return _grad_estimate(model, n_importance, replicates, stream, n_importance * model.d,
                          lambda eps: grad_samples_from_eps(model, eps, alpha, kind))


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
    per_rep = n_importance * model.d * (model.theta_dim + model.phi_dim)
    return _grad_estimate(model, n_importance, replicates, stream, per_rep,
                          lambda eps: fd_grad_from_eps(model, eps, alpha, step))


# --------------------------------------------------------------------------
# SNR harness
# --------------------------------------------------------------------------

@dataclass
class SnrBlock:
    """SNR of one (estimator, parameter block) pair across the N grid.

    Each SNR is |mean|/sd over R replicates, which is biased up toward the
    floor sqrt(2/(pi R)), the expected value for a zero-mean coordinate
    (about 0.025 at R=1000).  SNRs near or below the floor cannot be read,
    and a slope fitted to them measures the floor, not the estimator;
    `at_floor` marks the N whose mean SNR is below twice the floor.
    """

    per_coordinate_snr: np.ndarray  # (len(n_grid), n_coords); +inf marks zero variance
    mean_snr: np.ndarray            # mean over finite coordinates per N
    at_floor: np.ndarray            # bool per N: mean_snr < 2 * snr_floor(R)
    slope: float
    intercept: float
    slope_se: float


def snr_floor(replicates: int) -> float:
    """sqrt(2/(pi R)): the expected |mean|/sd of a zero-mean coordinate over
    R replicates, below which an SNR cannot be read."""
    return math.sqrt(2.0 / (math.pi * replicates))


@dataclass
class SnrReport:
    n_grid: list
    m_samples: int
    replicates: int
    theta_indices: np.ndarray
    phi_indices: np.ndarray
    blocks: dict = field(default_factory=dict)  # (kind, block) -> SnrBlock


def _snr_from_samples(samples: np.ndarray) -> np.ndarray:
    """|mean| / std per coordinate; zero-variance coordinates become +inf."""
    mean = samples.mean(axis=0)
    std = samples.std(axis=0, ddof=1)
    out = np.full(mean.shape, np.inf)
    nz = std > 0
    out[nz] = np.abs(mean[nz]) / std[nz]
    return out


def snr_sweep(model, alpha: float, m_samples: int, n_grid: Sequence[int],
              replicates: int, coordinate_sample: int,
              stream: vrng.RngStream) -> SnrReport:
    """Per-coordinate SNR of the gradient estimators across an N grid.

    For each N, `replicates` independent gradient estimates (each averaging
    `m_samples` draws) are formed for the rep and drep estimators on common
    random numbers; SNR = |mean|/std per coordinate, averaged over a
    seed-deterministic subset of `coordinate_sample` coordinates per block,
    then fitted with an ordinary least-squares slope in log-log scale.

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

    k_theta = min(coordinate_sample, model.theta_dim)
    k_phi = min(coordinate_sample, model.phi_dim)
    theta_idx = vrng.permutation_indices(stream.child(0), model.theta_dim, k_theta)
    phi_idx = vrng.permutation_indices(stream.child(1), model.phi_dim, k_phi)

    kinds = ("rep", "drep")
    snr = {(kind, blk): np.empty((len(n_grid), k)) for kind in kinds
           for blk, k in (("theta", k_theta), ("phi", k_phi))}

    for i, n in enumerate(n_grid):
        draw_stream = stream.child(2 + i)
        # replicates is moderate, so per-N sample matrices (replicates x k)
        # fit comfortably even though the draws themselves are chunked
        samples = {(kind, blk): np.empty((replicates, k)) for kind in kinds
                   for blk, k in (("theta", k_theta), ("phi", k_phi))}
        per_rep = m_samples * n * model.d
        for start, stop in vrng._replicate_chunks(replicates, per_rep):
            eps = vrng.standard_normal(draw_stream, (stop - start, m_samples, n, model.d))
            # both estimators from one pass; the theta block is shared, and
            # each row averages its m_samples copies
            _, g_theta, g_rep, g_drep = _grad_pass(model, eps, alpha)
            g_theta = g_theta.mean(axis=1)[:, theta_idx]
            for kind, g_phi in (("rep", g_rep), ("drep", g_drep)):
                samples[(kind, "theta")][start:stop] = g_theta
                samples[(kind, "phi")][start:stop] = g_phi.mean(axis=1)[:, phi_idx]
        for key, mat in samples.items():
            snr[key][i] = _snr_from_samples(mat)

    report = SnrReport(n_grid=n_grid, m_samples=m_samples, replicates=replicates,
                       theta_indices=theta_idx, phi_indices=phi_idx)
    log_n = np.log(np.asarray(n_grid, dtype=np.float64))
    for key, mat in snr.items():
        finite = np.isfinite(mat)
        mean_snr = np.array([mat[i][finite[i]].mean() if finite[i].any() else np.inf
                             for i in range(len(n_grid))])
        usable = np.isfinite(mean_snr) & (mean_snr > 0)
        if usable.sum() >= 2:
            fit = slope_fit(log_n[usable], np.log(mean_snr[usable]))
            slope, intercept, slope_se = fit.slope, fit.intercept, fit.slope_se
        else:
            slope, intercept, slope_se = np.nan, np.nan, np.nan
        report.blocks[key] = SnrBlock(per_coordinate_snr=mat, mean_snr=mean_snr,
                                      at_floor=mean_snr < 2.0 * snr_floor(replicates),
                                      slope=slope, intercept=intercept, slope_se=slope_se)
    return report
