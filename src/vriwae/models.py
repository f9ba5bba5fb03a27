"""Analytic Gaussian testbeds with exact weights, marginals and scores.

Two models, both with fully closed-form importance weights:

GaussianToy
    target N(theta, I_d) against proposal N(phi, I_d), with the weight defined
    directly as the density ratio, so the log normalizer is identically zero.
    Writing B = ||theta - phi||, a proposal draw gives
        log w = -B^2/2 - B*S,   S ~ N(0, 1),
    i.e. the log-weights are exactly Gaussian with std B.

LinearGaussian
    prior N(theta, I_d), likelihood N(x; z, I_d), proposal
    N(a*x + b, (2/3) I_d) with elementwise a.  Exact marginal N(x; theta, 2I),
    exact posterior N((theta+x)/2, (1/2) I).  The relative log-weight of z is
        (d/2) log(4/3) - ||z - (theta+x)/2||^2 + (3/4) ||z - a*x - b||^2.
    With lambda = ||(theta+x)/2 - a*x - b|| / sqrt(d), the log-weights behave
    like a sum of d i.i.d. terms with
        var sigma^2 = 1/18 + (8/3) lambda^2,
        mean gap per dimension a_const = lambda^2 + 1/6 + (1/2) log(3/4),
    so ELBO minus the log marginal equals -d * a_const exactly.  The law
    itself: with delta = (theta+x)/2 - a*x - b (so ||delta||^2 = d lambda^2),
        log w = (d/2) log(4/3) + 3 ||delta||^2 - X/6,
    where X = ||eps - sqrt(24) delta||^2 is noncentral chi^2 with d degrees of
    freedom and noncentrality 24 ||delta||^2.  Rotating delta onto the first
    axis, X = (Z + sqrt(24 ||delta||^2))^2 + chi^2_(d-1) with Z ~ N(0, 1).
    The experiments place it at the optimum for a dataset of T i.i.d.
    N(0, 2I) points, evaluated at one of them, x.  That optimum sees the
    dataset only through x and the sum of the other T - 1 points, so
    `optimal_params` takes those two d-vectors, and no dataset is ever built.

What a model states
-------------------
`train`, the experiment runners and the gradient kernels ask the model, never
its class.  Each model states:

* `TABLE_NAME` ("toy", "lingauss"), its name in the spec and the tables;
  `PROGRESS_LABEL` and `progress`, what training logs (B^2/d, lambda); and
  `TRAINS_THETA`, whether training steps theta besides phi.
* `LAW_WORDS` and `log_weight_law(u)`: one relative log-weight from
  LAW_WORDS uniforms by inverse CDFs, O(1) draws instead of d normals.  The
  gap, collapse and weights runners and `bounds` draw through it.
* The z-form `reparam`, `log_relative_weight`, `log_unnormalized_weight`
  and `log_marginal`.  The finite-difference oracle and `selftest` run on
  it, and the tests hold the law and the quadratic to it.
* `log_weight_quadratic()`: z = loc + scale*eps is affine, so
  log w = c0 + v . eps + q ||eps||^2, stated as (loc, scale, c0, v, q) with
  q = 0 for the toy.  `_eps_sums` reads the log-weights and the weighted
  sums of z off it, without building z.
* `score_affine()`: the three scores as coefficients (see Scores).
* `train_normals(N)` and `train_sums(normals, alpha)`: the normals one
  training epoch reads and the sums it takes from them, by default N x d
  eps through `_eps_sums`.  The toy draws its sums from their exact
  conditional law with N + 2d normals.  (A Bartlett-factor draw for the
  linear Gaussian would take N(N+1)/2 + 2d, which pays only below N ~ 2d,
  where no experiment runs.)
* `gap_theory(alpha, n_grid)`: the error term, gamma^2, ELBO gap, and
  extreme-value baseline and fit shape per N that a gap row predicts.
* `phi_dim`, `phi_vec` and `with_phi`.  `_Model` holds the theta plumbing,
  the z check and the default training draw, and each class binds the
  shared `score_grads` in its own body.

Scores
------
Both models expose analytic score gradients (no autodiff): the total phi
derivative follows the sample path z = f(eps, phi) through the weight, the
stopped variant differentiates only through the sample path while freezing the
explicit proposal-density term.

Every score of both models is affine in z, coordinate by coordinate, so each
model states its three scores (theta, phi-total, phi-stopped) once, in
`score_affine`, as (const, coef) vectors of the block's size P = m*d:

    score_k(z) = const_k + coef_k * z_(k mod d),   k = 0..P-1,

i.e. coef multiplies z tiled m times along the last axis (m = 2 for the
linear Gaussian phi blocks, packed [a, b]; m = 1 otherwise).  `score_grads`
materializes the scores from these coefficients, and the gradient kernels
contract them without materializing (see `gradients`), so the finite-
difference checks of `score_grads` vouch for the formula that runs.

All array methods broadcast: z / eps may be (..., d) batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaincinv, ndtri

from . import rng as vrng
from .asymptotics import iid_sum_curve, lognormal_curve
from .weights import _check_alpha, _weight_rows

__all__ = [
    "GaussianToy",
    "LinearGaussian",
    "toy_analytics",
    "lingauss_analytics",
    "optimal_params",
    "perturb_params",
    "adaptive_simpson",
    "lingauss_gap_quadrature",
    "lingauss_gamma2_quadrature",
    "lingauss_marginal_quadrature",
]

_LOG_4_3 = math.log(4.0 / 3.0)


def _affine_score(const: np.ndarray, coef: np.ndarray, z: np.ndarray, weight_sum=1.0):
    """const * weight_sum + coef * z, with z tiled to the block size along
    its last axis.

    At a sample z (weight_sum 1) this is the score itself.  At
    z = sum_j w_j z_j and weight_sum = sum_j w_j it is the weighted score sum
    sum_j w_j score(z_j), which is how the gradient kernels contract.
    """
    return const * weight_sum + coef * np.tile(z, const.shape[0] // z.shape[-1])


def _score_grads(self, eps: np.ndarray, z: np.ndarray):
    """(d_theta, d_phi_total, d_phi_stopped) from `score_affine`, each
    shaped like z but with the block's size on the last axis."""
    z = np.asarray(z, dtype=np.float64)
    return tuple(_affine_score(const, coef, z) for const, coef in self.score_affine())


def _ev_columns(curve, scale: float, n_grid):
    """The extreme-value baseline curve(N) and fit shape
    scale * log log N / sqrt(log N) per N of the grid, NaN below N = 3."""
    base = [curve(n) if n >= 3 else math.nan for n in n_grid]
    shape = [scale * math.log(math.log(n)) / math.sqrt(math.log(n)) if n >= 3 else math.nan
             for n in n_grid]
    return base, shape


def _eps_sums(model, eps: np.ndarray, alpha: float):
    """(log_w, w_sum, wz) for eps of shape (..., N, d), read off
    `model.log_weight_quadratic()` without building z: log_w is (..., N),
    w_sum (..., 2, 1) holds sum s and sum h, and wz (..., 2, d) holds sum s z
    and sum h z."""
    loc, scale, c0, v, q = model.log_weight_quadratic()
    # a batched matvec rounds each row alike in any chunk; one flat
    # (rows, d) @ v does not
    lw = c0 + eps @ v
    if q:
        lw += q * np.einsum("...i,...i->...", eps, eps)
    w = _weight_rows(lw, alpha)                   # (..., 2, N): rows s and h
    w_sum = w.sum(axis=-1, keepdims=True)
    return lw, w_sum, w_sum * loc + scale * (w @ eps)


class _Model:
    """What the two models share: the theta plumbing, the z check and the
    default training draw.  The facts each model states are listed in the
    module docstring."""

    @property
    def theta_dim(self) -> int:
        return self.d

    @property
    def theta_vec(self) -> np.ndarray:
        return self.theta

    def with_theta(self, v: np.ndarray):
        return replace(self, theta=np.asarray(v, dtype=np.float64))

    def _check_z(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.shape[-1] != self.d:
            raise ValueError(f"z has dimension {z.shape[-1]}, expected {self.d}")
        return z

    def train_normals(self, n: int) -> int:
        """Standard normals one training epoch with N samples reads."""
        return n * self.d

    def train_sums(self, normals: np.ndarray, alpha: float):
        """`_eps_sums` of one training epoch, from its train_normals(N)
        normals (last axis) read as N x d eps."""
        return _eps_sums(self, normals.reshape(*normals.shape[:-1], -1, self.d), alpha)


@dataclass
class GaussianToy(_Model):
    """Density-ratio toy model; log-weights are exactly N(-B^2/2, B^2)."""

    d: int
    theta: np.ndarray
    phi: np.ndarray

    TABLE_NAME = "toy"
    PROGRESS_LABEL = "bd2_over_d"
    TRAINS_THETA = False
    LAW_WORDS = 1

    def __post_init__(self):
        self.theta = np.broadcast_to(np.asarray(self.theta, dtype=np.float64), (self.d,)).copy()
        self.phi = np.broadcast_to(np.asarray(self.phi, dtype=np.float64), (self.d,)).copy()

    # --- parameter plumbing -------------------------------------------------
    @property
    def phi_dim(self) -> int:
        return self.d

    @property
    def phi_vec(self) -> np.ndarray:
        return self.phi

    def with_phi(self, v: np.ndarray) -> "GaussianToy":
        return replace(self, phi=np.asarray(v, dtype=np.float64))

    @property
    def bd(self) -> float:
        """||theta - phi||, the log-weight standard deviation."""
        return float(np.linalg.norm(self.theta - self.phi))

    @property
    def progress(self) -> float:
        """B^2/d, the normalized squared parameter distance."""
        return self.bd**2 / self.d

    # --- sampling and weights ----------------------------------------------
    def log_weight_law(self, u: np.ndarray) -> np.ndarray:
        """Relative log-weights -B^2/2 - B*ndtri(u_0) from uniforms (..., 1);
        at d = 1 and phi > theta, the path's values on the same uniforms."""
        b = self.bd
        return -0.5 * b * b - b * ndtri(u[..., 0])

    def reparam(self, eps: np.ndarray) -> np.ndarray:
        return self.phi + eps

    def log_relative_weight(self, z: np.ndarray) -> np.ndarray:
        z = self._check_z(z)
        dt = z - self.theta
        dp = z - self.phi
        return -0.5 * (np.sum(dt * dt, axis=-1) - np.sum(dp * dp, axis=-1))

    def log_unnormalized_weight(self, z: np.ndarray) -> np.ndarray:
        return self.log_relative_weight(z)  # normalized by construction

    def log_marginal(self) -> float:
        return 0.0

    def log_weight_quadratic(self):
        """(loc, scale, c0, v, q) with z = loc + scale*eps and
        log w = c0 + v . eps + q ||eps||^2: here -B^2/2 + (theta - phi) . eps."""
        v = self.theta - self.phi
        return self.phi, 1.0, -0.5 * float(v @ v), v, 0.0

    def score_affine(self):
        """((const, coef) of d_theta, of d_phi_total, of d_phi_stopped).

        d_theta       = z - theta
        d_phi_total   = -(phi + eps - theta) = theta - z   (path + explicit proposal term)
        d_phi_stopped = theta - phi                        (path only; constant in z)
        """
        ones = np.ones(self.d)
        return ((-self.theta, ones), (self.theta.copy(), -ones),
                (self.theta - self.phi, np.zeros(self.d)))

    score_grads = _score_grads

    # --- training and gap theory -------------------------------------------
    def train_normals(self, n: int) -> int:
        return n + 2 * self.d

    def train_sums(self, normals: np.ndarray, alpha: float):
        """(log_w, w_sum, wz) from N + 2d standard normals per row (last
        axis), drawn from the exact law of the eps-path sums.

        With u = (theta - phi)/B the log-weights see eps_j only through
        S_j = u . eps_j.  The first N normals are -S_j, so log_w =
        -B^2/2 - B * normals[:N] is `log_weight_law` on the same uniforms.
        Given S, the parts of eps_j orthogonal to u are i.i.d. and
        independent of the weights, so (sum s eps, sum h eps) is
        (sum s S) u and (sum h S) u plus a Gaussian pair on the complement of
        u with 2x2 covariance [[sum s^2, sum s h], [sum s h, sum h^2]]: the
        last 2d normals, with u projected out and mixed by the Cholesky
        factor of that matrix.  At B = 0 there is no u and nothing is
        projected; at d = 1 the projection leaves nothing.
        """
        d = self.d
        n = normals.shape[-1] - 2 * d
        b = self.bd
        s_dir = -normals[..., :n]                     # S_j = u . eps_j
        lw = -0.5 * b * b + b * s_dir
        w = _weight_rows(lw, alpha)                   # (..., 2, N)
        w_sum = w.sum(axis=-1, keepdims=True)         # (..., 2, 1)
        g = normals[..., n:].reshape(*normals.shape[:-1], 2, d)
        wz = w_sum * self.phi
        if b > 0.0:
            u = (self.theta - self.phi) / b
            g = g - (g @ u)[..., None] * u
            wz = wz + (w @ s_dir[..., None]) * u
        gram = w @ np.swapaxes(w, -1, -2)             # (..., 2, 2)
        l11 = np.sqrt(gram[..., 0, 0])
        l21 = gram[..., 1, 0] / l11
        # singular when h is proportional to s (alpha = 1, or N = 1)
        l22 = np.sqrt(np.maximum(gram[..., 1, 1] - l21 * l21, 0.0))
        wz[..., 0, :] += l11[..., None] * g[..., 0, :]
        wz[..., 1, :] += l21[..., None] * g[..., 0, :] + l22[..., None] * g[..., 1, :]
        return lw, w_sum, wz

    def gap_theory(self, alpha: float, n_grid):
        """(error_term, gamma2, elbo_gap, ev_base, ev_shape): the log-normal
        closed forms, and the log-normal extreme-value curve per N."""
        b = self.bd
        error_term, gamma2 = toy_analytics(alpha, b * b)
        return (error_term, gamma2, -0.5 * b * b,
                *_ev_columns(lambda n: lognormal_curve(n, b, alpha, 0.0), b, n_grid))


@dataclass
class LinearGaussian(_Model):
    """Conjugate linear Gaussian model with diagonal encoder A = diag(a_tilde)."""

    d: int
    theta: np.ndarray
    a_tilde: np.ndarray
    b: np.ndarray
    x: np.ndarray

    TABLE_NAME = "lingauss"
    PROGRESS_LABEL = "lambda"
    TRAINS_THETA = True
    LAW_WORDS = 2

    def __post_init__(self):
        for name in ("theta", "a_tilde", "b", "x"):
            v = np.broadcast_to(np.asarray(getattr(self, name), dtype=np.float64), (self.d,)).copy()
            setattr(self, name, v)

    # --- parameter plumbing -------------------------------------------------
    @property
    def phi_dim(self) -> int:
        return 2 * self.d  # (a_tilde, b)

    @property
    def phi_vec(self) -> np.ndarray:
        return np.concatenate([self.a_tilde, self.b])

    def with_phi(self, v: np.ndarray) -> "LinearGaussian":
        v = np.asarray(v, dtype=np.float64)
        return replace(self, a_tilde=v[: self.d], b=v[self.d :])

    # --- derived constants (recomputed on access, never stale) ---------------
    @property
    def q_mean(self) -> np.ndarray:
        return self.a_tilde * self.x + self.b

    @property
    def posterior_mean(self) -> np.ndarray:
        return 0.5 * (self.theta + self.x)

    @property
    def lam(self) -> float:
        """lambda = ||posterior mean - proposal mean|| / sqrt(d)."""
        return float(np.linalg.norm(self.posterior_mean - self.q_mean) / math.sqrt(self.d))

    @property
    def progress(self) -> float:
        return self.lam

    # --- sampling and weights ----------------------------------------------
    def log_weight_law(self, u: np.ndarray) -> np.ndarray:
        """Relative log-weights (d/2) log(4/3) + 3||delta||^2 - X/6 from
        uniforms (..., 2): X = (ndtri(u_0) + sqrt(24 ||delta||^2))^2
        + 2 gammaincinv((d-1)/2, u_1), without the gamma term at d = 1."""
        delta2 = float(np.sum((self.posterior_mean - self.q_mean) ** 2))
        x = (ndtri(u[..., 0]) + math.sqrt(24.0 * delta2)) ** 2
        if self.d > 1:
            x = x + 2.0 * gammaincinv(0.5 * (self.d - 1), u[..., 1])
        return 0.5 * self.d * _LOG_4_3 + 3.0 * delta2 - x / 6.0

    def reparam(self, eps: np.ndarray) -> np.ndarray:
        return self.q_mean + math.sqrt(2.0 / 3.0) * eps

    def log_relative_weight(self, z: np.ndarray) -> np.ndarray:
        z = self._check_z(z)
        dm = z - self.posterior_mean
        dq = z - self.q_mean
        return 0.5 * self.d * _LOG_4_3 - np.sum(dm * dm, axis=-1) + 0.75 * np.sum(dq * dq, axis=-1)

    def log_marginal(self) -> float:
        dx = self.x - self.theta
        return float(-0.5 * self.d * math.log(4.0 * math.pi) - 0.25 * np.dot(dx, dx))

    def log_unnormalized_weight(self, z: np.ndarray) -> np.ndarray:
        return self.log_relative_weight(z) + self.log_marginal()

    def log_weight_quadratic(self):
        """(loc, scale, c0, v, q) with z = loc + scale*eps and
        log w = c0 + v . eps + q ||eps||^2.  With delta = posterior mean -
        q_mean and scale = sqrt(2/3), z - posterior mean = scale*eps - delta, so
            log w = c0 + 2 scale delta . eps - ||eps||^2 / 6,
            c0 = (d/2) log(4/3) - ||delta||^2 + log p(x)."""
        scale = math.sqrt(2.0 / 3.0)
        delta = self.posterior_mean - self.q_mean
        c0 = 0.5 * self.d * _LOG_4_3 - float(delta @ delta) + self.log_marginal()
        return self.q_mean, scale, c0, 2.0 * scale * delta, -1.0 / 6.0

    def score_affine(self):
        """((const, coef) of d_theta, of d_phi_total, of d_phi_stopped); phi
        blocks packed [a, b], so their coefficients act on z tiled twice.

        The unnormalized weight is p(z) p(x|z) / q(z|x), so the theta score
        keeps the marginal's theta-dependence: d_theta = z - theta.  For phi,
        z = a*x + b + sqrt(2/3) eps, hence coordinate k of the path Jacobian
        is x_k for a_k and 1 for b_k; the explicit -log q term is constant in
        phi along the sample path, so it only enters the stopped variant
        through grad_z log w.  With that Jacobian applied to
            base_total   = (theta - z) + (x - z)           = c_t - 2 z,
            base_stopped = base_total + 1.5 (z - q_mean)   = c_s - z / 2,
        where c_t = theta + x and c_s = c_t - 1.5 q_mean.
        """
        c_t = self.theta + self.x
        c_s = c_t - 1.5 * self.q_mean
        ones = np.ones(self.d)
        return ((-self.theta, ones),
                (np.concatenate([self.x * c_t, c_t]), np.concatenate([-2.0 * self.x, -2.0 * ones])),
                (np.concatenate([self.x * c_s, c_s]), np.concatenate([-0.5 * self.x, -0.5 * ones])))

    score_grads = _score_grads

    # --- gap theory ----------------------------------------------------------
    def gap_theory(self, alpha: float, n_grid):
        """(error_term, gamma2, elbo_gap, ev_base, ev_shape): the closed forms
        of `lingauss_analytics`, and the iid-sum extreme-value curve per N."""
        error_term, gamma2, _, sigma2, a_const = lingauss_analytics(self, alpha)
        sigma = math.sqrt(sigma2)
        return (error_term, gamma2, -self.d * a_const,
                *_ev_columns(lambda n: iid_sum_curve(n, self.d, a_const, sigma, 0.0),
                             math.sqrt(self.d), n_grid))


# --------------------------------------------------------------------------
# Closed-form constants
# --------------------------------------------------------------------------

def toy_analytics(alpha: float, sigma2d: float) -> tuple[float, float]:
    """(vr_gap, gamma2) for exactly log-normal weights with variance B^2.

    `sigma2d` is B^2 = ||theta - phi||^2.  vr_gap is the N -> infinity error
    term -alpha*B^2/2; gamma2 = (exp((1-alpha)^2 B^2) - 1)/(1-alpha) controls
    the 1/N term and overflows to inf in high dimension, which is meaningful
    (the 1/N regime is unreachable there).
    """
    _check_alpha(alpha)
    if sigma2d < 0:
        raise ValueError("sigma2d must be non-negative")
    vr_gap = -alpha * sigma2d / 2.0
    with np.errstate(over="ignore"):
        gamma2 = float(np.expm1((1.0 - alpha) ** 2 * sigma2d) / (1.0 - alpha))
    return vr_gap, gamma2


def lingauss_analytics(model: LinearGaussian, alpha: float):
    """(vr_gap, gamma2, lam, sigma2, a_const) for the linear Gaussian model.

    vr_gap and gamma2 are the exact closed forms of the VR error term and the
    1/N variance constant; sigma2 and a_const are the per-dimension variance
    and mean gap of the log-weights, with ELBO - log marginal = -d * a_const.
    """
    _check_alpha(alpha)
    d = model.d
    lam = model.lam
    dlam2 = d * lam * lam
    vr_gap = 0.5 * d * (_LOG_4_3 + math.log(3.0 / (4.0 - alpha)) / (1.0 - alpha)) \
        - 3.0 * alpha / (4.0 - alpha) * dlam2
    log_factor = d * math.log(4.0 - alpha) - 0.5 * d * math.log(15.0 - 6.0 * alpha) \
        + 24.0 * (1.0 - alpha) ** 2 / ((5.0 - 2.0 * alpha) * (4.0 - alpha)) * dlam2
    with np.errstate(over="ignore"):
        gamma2 = float(np.expm1(log_factor) / (1.0 - alpha))
    sigma2 = 1.0 / 18.0 + (8.0 / 3.0) * lam * lam
    a_const = lam * lam + 1.0 / 6.0 + 0.5 * math.log(3.0 / 4.0)
    return vr_gap, gamma2, lam, sigma2, a_const


def optimal_params(x: np.ndarray, rest: np.ndarray,
                   t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta*, a*, b*) maximizing the linear Gaussian objective on a dataset
    of T points, from its two sufficient statistics: the evaluation datapoint
    x and the sum `rest` of the other T - 1 points.

    theta* is the data mean (x + rest)/T, a* = u/2 regardless of the data,
    b* = theta*/2.
    """
    if t < 1:
        raise ValueError("need at least one datapoint")
    theta_star = (np.asarray(x, dtype=np.float64) + rest) / t
    a_star = np.full(theta_star.shape, 0.5)
    b_star = 0.5 * theta_star
    return theta_star, a_star, b_star


def perturb_params(params, sigma_perturb: float, stream: vrng.RngStream):
    """Add i.i.d. N(0, sigma_perturb^2) noise to every parameter coordinate.

    `params` is an array or a sequence of arrays; the perturbed copies come
    back in the same structure.  sigma_perturb = 0 returns the input(s)
    unchanged (no draws consumed).
    """
    if sigma_perturb < 0:
        raise ValueError("sigma_perturb must be non-negative")

    def one(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        if sigma_perturb == 0.0:
            return p.copy()
        return p + sigma_perturb * vrng.standard_normal(stream, p.shape)

    if isinstance(params, (list, tuple)):
        return type(params)(one(p) for p in params)
    return one(params)


# --------------------------------------------------------------------------
# Quadrature oracle
#
# Independent verification path for the linear Gaussian closed forms: the
# integrands factorize across coordinates, so every moment of the relative
# weight reduces to a product of 1-D integrals, evaluated here with adaptive
# Simpson on [-12, 12] proposal standard deviations.
# --------------------------------------------------------------------------

def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 24) -> float:
    """Adaptive Simpson quadrature of f on [a, b].

    The depth cap keeps the recursion finite when rounding noise makes the
    per-interval tolerance unreachable; with the default settings the result
    is far tighter than the 1e-6 relative agreement the oracle comparisons
    assert.
    """

    def simpson(fa, fm, fb, a_, b_):
        return (b_ - a_) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a_, b_, fa, fm, fb, whole, tol_, depth):
        m = 0.5 * (a_ + b_)
        lm, rm = 0.5 * (a_ + m), 0.5 * (m + b_)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a_, m)
        right = simpson(fm, frm, fb, m, b_)
        err = left + right - whole
        if depth >= max_depth or abs(err) <= 15.0 * max(tol_, 1e-16 * abs(whole)):
            return left + right + err / 15.0
        return (recurse(a_, m, fa, flm, fm, left, tol_ / 2.0, depth + 1)
                + recurse(m, b_, fm, frm, fb, right, tol_ / 2.0, depth + 1))

    fa, fb = f(a), f(b)
    m0 = 0.5 * (a + b)
    fm = f(m0)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, a, b), tol, 0)


def _coordinate_moment(model: LinearGaussian, k: int, power: float) -> float:
    """E_q[ exp(power * g_k(z_k)) ] by 1-D quadrature, where g_k is the
    k-th coordinate term of the relative log-weight.

    The integrand is itself Gaussian-shaped with precision
    2A = 2(0.75(1-power) + power), so the window is centered at its own mean
    and spans 12 of its standard deviations.
    """
    c = float(model.q_mean[k])
    m = float(model.posterior_mean[k])

    def f(z):
        g = 0.5 * _LOG_4_3 - (z - m) ** 2 + 0.75 * (z - c) ** 2
        logq = -0.5 * math.log(2.0 * math.pi * 2.0 / 3.0) - 0.75 * (z - c) ** 2
        return math.exp(logq + power * g)

    a = 0.75 * (1.0 - power) + power
    center = (0.75 * (1.0 - power) * c + power * m) / a
    width = 12.0 / math.sqrt(2.0 * a)
    return adaptive_simpson(f, center - width, center + width)


def lingauss_gap_quadrature(model: LinearGaussian, alpha: float) -> float:
    """VR error term (1/(1-alpha)) log E_q[wbar^(1-alpha)] by quadrature."""
    _check_alpha(alpha)
    log_moment = sum(math.log(_coordinate_moment(model, k, 1.0 - alpha)) for k in range(model.d))
    return log_moment / (1.0 - alpha)


def lingauss_gamma2_quadrature(model: LinearGaussian, alpha: float) -> float:
    """gamma^2 = (E[wbar^(2-2a)]/E[wbar^(1-a)]^2 - 1)/(1-a) by quadrature."""
    _check_alpha(alpha)
    log_m1 = sum(math.log(_coordinate_moment(model, k, 1.0 - alpha)) for k in range(model.d))
    log_m2 = sum(math.log(_coordinate_moment(model, k, 2.0 * (1.0 - alpha))) for k in range(model.d))
    return math.expm1(log_m2 - 2.0 * log_m1) / (1.0 - alpha)


def lingauss_marginal_quadrature(model: LinearGaussian) -> float:
    """Marginal density p(x) as the 1-D-factorized integral of p(x, z)."""
    out = 0.0
    for k in range(model.d):
        t = float(model.theta[k])
        xk = float(model.x[k])

        def f(z):
            return math.exp(-0.5 * (z - t) ** 2 - 0.5 * (xk - z) ** 2) / (2.0 * math.pi)

        center = 0.5 * (t + xk)
        out += math.log(adaptive_simpson(f, center - 12.0, center + 12.0))
    return out
