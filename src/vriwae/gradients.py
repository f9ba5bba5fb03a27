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
rep phi) and w = h (drep phi): one batched matmul of the stacked (s, h) rows
against z over the N axis, never the (..., N, P) score tensors.  One pass
(`_grad_pass`) does the reparameterization, the log-weights and the softmax
once and returns both estimators.

Everything here is batched: the kernels take eps of shape (R, N, d) and return
one gradient sample per replicate row, chunked to at most `rng._CHUNK_TARGET`
elements of eps so memory stays bounded.  The single-sample operations are
thin wrappers over the batched kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import rng as vrng
from .asymptotics import slope_fit
from .bounds import vr_iwae_from_log_weights
from .models import _affine_score
from .weights import _check_alpha

__all__ = [
    "GradientSample",
    "GradEstimate",
    "SnrBlock",
    "SnrReport",
    "h_coefficients",
    "grad_samples_from_eps",
    "rep_grad_sample",
    "drep_grad_sample",
    "grad_mean_se",
    "fd_grad_from_eps",
    "fd_grad_oracle",
    "SNR_MIN_REPLICATES",
    "snr_floor",
    "snr_sweep",
    "grad_mse_sweep",
]

# fewest replicates an SNR is estimated from
SNR_MIN_REPLICATES = 100

DEFAULT_FD_STEP = 1e-3


@dataclass
class GradientSample:
    """One gradient draw of the bound w.r.t. theta and phi."""

    grad_theta: np.ndarray
    grad_phi: np.ndarray
    alpha: float
    n_importance: int
    estimator_kind: str  # "rep" | "drep"


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


def _h(s: np.ndarray, alpha: float) -> np.ndarray:
    return alpha * s + (1.0 - alpha) * s * s


def _softmax_last(x: np.ndarray) -> np.ndarray:
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _grad_pass(model, eps: np.ndarray, alpha: float):
    """(log_w, g_theta, g_phi_rep, g_phi_drep) for a batch of draws.

    eps has shape (..., N, d); log_w is (..., N) and the gradients are
    (..., theta_dim) and (..., phi_dim), one sample per batch row.  The
    scores are contracted through `model.score_affine()`, never
    materialized.
    """
    z = model.reparam(eps)
    lw = model.log_unnormalized_weight(z)
    s = _softmax_last((1.0 - alpha) * lw)
    w = np.stack([s, _h(s, alpha)], axis=-2)      # (..., 2, N): rows s and h
    w_sum = w.sum(axis=-1, keepdims=True)         # (..., 2, 1)
    wz = w @ z                                    # (..., 2, d)
    s_sum, h_sum = w_sum[..., 0, :], w_sum[..., 1, :]
    sz, hz = wz[..., 0, :], wz[..., 1, :]
    theta, phi_total, phi_stopped = model.score_affine()
    return (lw, _affine_score(*theta, sz, s_sum), _affine_score(*phi_total, sz, s_sum),
            _affine_score(*phi_stopped, hz, h_sum))


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


def rep_grad_sample(model, alpha: float, n_importance: int, stream: vrng.RngStream) -> GradientSample:
    """One reparameterized gradient draw of the bound."""
    return _one_sample(model, alpha, n_importance, stream, "rep")


def drep_grad_sample(model, alpha: float, n_importance: int, stream: vrng.RngStream) -> GradientSample:
    """One doubly-reparameterized gradient draw; theta block matches rep."""
    return _one_sample(model, alpha, n_importance, stream, "drep")


def _one_sample(model, alpha, n_importance, stream, kind):
    eps = vrng.standard_normal(stream, (n_importance, model.d))
    g_theta, g_phi = grad_samples_from_eps(model, eps[np.newaxis], alpha, kind)
    return GradientSample(grad_theta=g_theta[0], grad_phi=g_phi[0], alpha=float(alpha),
                          n_importance=int(n_importance), estimator_kind=kind)


class _MeanSE:
    """Streaming mean and standard error along the leading (replicate) axis.

    Each batch is reduced to its own mean and sum of squared deviations and
    merged with the pairwise update of Chan, Golub and LeVeque (1983), so
    the variance stays accurate when the spread is small against the mean
    and batches of any size merge to the same result up to rounding.
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


def grad_mean_se(model, alpha: float, n_importance: int, replicates: int,
                 stream: vrng.RngStream, kind: str = "rep") -> GradEstimate:
    """Empirical mean/SE of the gradient estimator over i.i.d. replicates.

    All draws come sequentially from `stream`, so the result does not depend
    on chunk sizes.
    """
    acc_t = _MeanSE(model.theta_dim)
    acc_p = _MeanSE(model.phi_dim)
    per_rep = n_importance * model.d
    for start, stop in vrng._replicate_chunks(replicates, per_rep):
        eps = vrng.standard_normal(stream, (stop - start, n_importance, model.d))
        g_theta, g_phi = grad_samples_from_eps(model, eps, alpha, kind)
        acc_t.add(g_theta)
        acc_p.add(g_phi)
    tm, tse = acc_t.finalize()
    pm, pse = acc_p.finalize()
    return GradEstimate(tm, tse, pm, pse, replicates)


def _bound_samples(model, eps: np.ndarray, alpha: float) -> np.ndarray:
    z = model.reparam(eps)
    return vr_iwae_from_log_weights(model.log_unnormalized_weight(z), alpha)


def fd_grad_from_eps(model, eps: np.ndarray, alpha: float, step: float):
    """Central finite-difference gradient samples on a shared eps batch.

    Shifting theta leaves z = f(eps, phi) untouched; shifting a phi
    coordinate moves the samples along the reparameterization path, which is
    exactly what the analytic estimators differentiate through.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    r = eps.shape[0]
    g_theta = np.empty((r, model.theta_dim))
    g_phi = np.empty((r, model.phi_dim))
    theta = model.theta_vec.copy()
    phi = model.phi_vec.copy()
    for k in range(model.theta_dim):
        e = np.zeros_like(theta)
        e[k] = step
        hi = _bound_samples(model.with_theta(theta + e), eps, alpha)
        lo = _bound_samples(model.with_theta(theta - e), eps, alpha)
        g_theta[:, k] = (hi - lo) / (2.0 * step)
    for k in range(model.phi_dim):
        e = np.zeros_like(phi)
        e[k] = step
        hi = _bound_samples(model.with_phi(phi + e), eps, alpha)
        lo = _bound_samples(model.with_phi(phi - e), eps, alpha)
        g_phi[:, k] = (hi - lo) / (2.0 * step)
    return g_theta, g_phi


def fd_grad_oracle(model, alpha: float, n_importance: int, step: float,
                   replicates: int, stream: vrng.RngStream) -> GradEstimate:
    """Finite-difference oracle for the bound gradient, with common random
    numbers across the +/- evaluations of every coordinate."""
    acc_t = _MeanSE(model.theta_dim)
    acc_p = _MeanSE(model.phi_dim)
    per_rep = n_importance * model.d * (model.theta_dim + model.phi_dim)
    for start, stop in vrng._replicate_chunks(replicates, per_rep):
        eps = vrng.standard_normal(stream, (stop - start, n_importance, model.d))
        g_theta, g_phi = fd_grad_from_eps(model, eps, alpha, step)
        acc_t.add(g_theta)
        acc_p.add(g_phi)
    tm, tse = acc_t.finalize()
    pm, pse = acc_p.finalize()
    return GradEstimate(tm, tse, pm, pse, replicates)


# --------------------------------------------------------------------------
# SNR harness
# --------------------------------------------------------------------------

SNR_INF = np.inf


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
    out = np.full(mean.shape, SNR_INF)
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
        mean_snr = np.array([mat[i][finite[i]].mean() if finite[i].any() else SNR_INF
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


def grad_mse_sweep(model, alpha: float, n_grid: Sequence[int], replicates: int,
                   stream: vrng.RngStream) -> list:
    """MSE of the theta-gradient estimator and of the bound across an N grid.

    The references are the exact marginal score and the exact log marginal;
    MSEs are averaged over replicates (and coordinates, for the gradient).
    """
    exact_grad = model.marginal_score()
    log_marginal = model.log_marginal()
    rows = []
    for n in n_grid:
        sq_grad = 0.0
        sq_bound = 0.0
        count = 0
        per_rep = n * model.d
        draw_stream = stream.child(n)
        for start, stop in vrng._replicate_chunks(replicates, per_rep):
            eps = vrng.standard_normal(draw_stream, (stop - start, n, model.d))
            lw, g_theta, _, _ = _grad_pass(model, eps, alpha)
            bound = vr_iwae_from_log_weights(lw, alpha)
            sq_grad += float(((g_theta - exact_grad) ** 2).sum())
            sq_bound += float(((bound - log_marginal) ** 2).sum())
            count += stop - start
        rows.append({
            "alpha": float(alpha),
            "n_importance": int(n),
            "replicates": int(count),
            "grad_mse_theta": sq_grad / (count * model.theta_dim),
            "bound_mse": sq_bound / count,
        })
    return rows
