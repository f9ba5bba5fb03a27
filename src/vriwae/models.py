"""Analytic Gaussian testbeds with exact weights, marginals and scores.

Two models, both with fully closed-form importance weights:

GaussianToy
    target N(theta, I_d) against proposal N(phi, I_d), with the weight defined
    directly as the density ratio, so the log normalizer is identically zero.
    With B = ||theta - phi|| the log-weights are exactly N(-B^2/2, B^2).

LinearGaussian
    prior N(theta, I_d), likelihood N(x; z, I_d), proposal
    N(a*x + b, (2/3) I_d) with elementwise a.  Exact marginal N(x; theta, 2I),
    exact posterior N((theta+x)/2, (1/2) I).  The relative log-weight of z is
        (d/2) log(4/3) - ||z - (theta+x)/2||^2 + (3/4) ||z - a*x - b||^2.
    With lambda = ||(theta+x)/2 - a*x - b|| / sqrt(d), the log-weights are a
    sum of d i.i.d. terms of variance 1/18 + (8/3) lambda^2 and mean gap
    a_const = lambda^2 + 1/6 + (1/2) log(3/4): ELBO - log p = -d a_const.
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
* The z-form `reparam`, `log_relative_weight`, `log_unnormalized_weight`
  and `log_marginal`.  The finite-difference oracle and `selftest` run on
  it, and the tests hold the law and the quadratic to it.
* `log_weight_quadratic()`: z = loc + scale*eps is affine, so
  log w = c0 + v . eps + q ||eps||^2, stated as (loc, scale, c0, v, q,
  ||v||^2), with q = 0 for the toy and -1/6 for the linear Gaussian.
  `_eps_sums` reads the log-weights and the weighted sums of z off it,
  without building z.
* `score_affine()`: the three scores as coefficients (see Scores).
* `train_normals(N)` and `train_sums(normals, alpha, rows)`: the normals
  one epoch of `train`'s array kernel (toy Adam, the linear Gaussian) reads
  and the sums it takes from them for the weight rows `rows` (s: 0, h: 1)
  its gradients contract, by default N x d eps through `_eps_sums`, which
  yields both rows from the same draws.  The toy draws the sums of its one
  row from their exact conditional law with N + d normals.  (A
  Bartlett-factor draw for the linear Gaussian would take N(N+1)/2 + d
  normals for one row and N(N+1)/2 + 2d for two, which pays only below
  N ~ 2d either way, where no experiment runs.)
* `sgd_chain(N, alpha, lr, estimator)`: None, or the epoch kernel of plain
  SGD that `train` runs instead.  The toy's law and its logged columns see
  theta - phi only through b^2 = ||theta - phi||^2, so its SGD run is a
  chain in b^2, drawn from the exact law of the `train_sums` loop with
  N + 3 uniforms per rep epoch (N for drep or at d = 1): N for Z and 3 for
  C ~ chi^2_(d-1), the perpendicular part of the gradient.
* `ev_curve(alpha, sigma2, a_const)`: its extreme-value curve family and fit
  scale, the log-normal curve of B on the B scale for the toy, the iid-sum
  curve on the sqrt(d) scale for the linear Gaussian.
* `LAW_WORDS` (1 and 4), the uniforms of one law draw; `phi_vec` and
  `with_phi`.  `theta_vec` and `phi_vec` are the model's own arrays (the
  linear Gaussian keeps a_tilde and b as the two halves of its phi_vec), so
  stepping them in place moves the model, and their sizes are the sizes of
  the theta and phi blocks; `copy()` is a model at the same parameters that
  shares no array with this one.

The rest follows from four scalars, which `_Model.law_scalars()` reads off
the quadratic and `log_marginal()`: (c, ||v||^2, q, d) with c = c0 - log p.
Rotating v onto the first axis, Z = -v . eps / ||v|| ~ N(0, 1) and
C = ||eps||^2 - Z^2 ~ chi^2_(d-1) are independent, and

    log w - log p = c - ||v|| Z + q (Z^2 + C).

* The law draw.  `law_variates(u, scalars)` maps LAW_WORDS uniforms to
  Z = ndtri(u_0) and, where q != 0, Z^2 + C with C = rng.chi_square(u_1..3,
  d - 1) where d > 1; they depend on q and d alone.  `law_log_weights(
  variates, scalars, out)` returns c - ||v|| Z, plus q (Z^2 + C) where
  q != 0, so `law_log_weights(law_variates(u, s), s)` takes O(1) draws
  instead of d normals per log-weight.  `bounds._law_samples` takes one
  model's law and a list of scalars (of models of one class and d: sigma
  variants, or a training run's logged states), reads the variates once per
  chunk, and broadcasts them in one `law_log_weights` call against the
  states' c and ||v||^2 as columns into one block; a single state writes
  over Z.
* The closed forms.  For every t >= 0 (q <= 0 in both models),

      log E[wbar^t] = t c + t^2 ||v||^2 / (2(1 - 2tq)) - (d/2) log(1 - 2tq).

  `closed_forms(model, alpha)` builds on it the VR error term, gamma^2, the
  ELBO gap c + q d, and the per-dimension variance (||v||^2 + 2 q^2 d)/d and
  mean gap -(c + q d)/d, which the model's `ev_curve` takes.

`_Model` holds these, the theta plumbing, `copy`, the z check and the
default training draw, and each class binds the shared `score_grads` in its
own body.

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
linear Gaussian phi blocks, packed [a, b]; m = 1 otherwise).  coef depends on
no trained parameter; const does, so `score_affine` states it as a function
of no arguments that reads the model's parameters when called.  A caller that
steps the parameters in place (`train`) builds the coefficients once and
evaluates only the consts it needs.  `score_grads` materializes the scores
from these coefficients, and the gradient kernels contract them without
materializing (see `gradients`), so the finite-difference checks of
`score_grads` vouch for the formula that runs.

All array methods broadcast: z / eps may be (..., d) batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from . import rng as vrng
from .asymptotics import iid_sum_curve, lognormal_curve
from .weights import _check_alpha, _h, _softmax_last, _weight_rows

__all__ = [
    "GaussianToy",
    "LinearGaussian",
    "closed_forms",
    "optimal_params",
    "perturb_params",
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
    # coef as (m, d) against z broadcast over m: the products of the tiling,
    # without building the tiled z
    tiled = coef.reshape(-1, z.shape[-1]) * z[..., None, :]
    return const * weight_sum + tiled.reshape(*z.shape[:-1], coef.shape[0])


def _score_grads(self, eps: np.ndarray, z: np.ndarray):
    """(d_theta, d_phi_total, d_phi_stopped) from `score_affine`, each
    shaped like z but with the block's size on the last axis."""
    z = np.asarray(z, dtype=np.float64)
    return tuple(_affine_score(const(), coef, z) for const, coef in self.score_affine())


def _eps_sums(model, eps: np.ndarray, alpha: float, n_grid=None):
    """(log_w, w_sum, wz) for eps of shape (..., N, d), read off
    `model.log_weight_quadratic()` without building z: log_w is (..., N),
    w_sum (..., 2, 1) holds sum s and sum h, and wz (..., 2, d) holds sum s z
    and sum h z.  Given `n_grid`, an increasing list of N up to eps's, log_w
    is that of the first n_grid[-1] samples, and w_sum and wz gain a grid
    axis before their rows, (..., G, 2, 1) and (..., G, 2, d), whose entry g
    holds the sums of the first n_grid[g] samples, each equal bit for bit to
    the sums of those samples alone."""
    loc, scale, c0, v, q, _ = model.log_weight_quadratic()
    # a sum of squares rounds each row alike at any N and in any chunk
    square = q * np.einsum("...i,...i->...", eps, eps) if q else None

    def sums(n):
        x = eps[..., :n, :]
        # a batched matvec rounds each row alike in any chunk (one flat
        # (rows, d) @ v does not), but not at any N: BLAS takes a matrix's
        # rows in blocks and its last rows apart, so each N takes its own
        lw = c0 + x @ v
        if q:
            lw += square[..., :n]
        w = _weight_rows(lw, alpha)               # (..., 2, n): rows s and h
        w_sum = w.sum(axis=-1, keepdims=True)
        return lw, w_sum, w_sum * loc + scale * (w @ x)

    if n_grid is None:
        return sums(eps.shape[-2])
    lw, w_sum, wz = zip(*map(sums, n_grid))
    return lw[-1], np.stack(w_sum, axis=-3), np.stack(wz, axis=-3)


class _Model:
    """What the two models share (see the module docstring)."""

    def law_scalars(self, quadratic=None) -> tuple:
        """(c, ||v||^2, q, d) with log w - log p = c - ||v|| Z + q (Z^2 + C),
        from `quadratic`, by default `log_weight_quadratic()`."""
        _, _, c0, _, q, v2 = quadratic or self.log_weight_quadratic()
        return c0 - self.log_marginal(), v2, q, self.d

    @staticmethod
    def law_variates(u: np.ndarray, scalars: tuple) -> tuple:
        """(Z,), or (Z, Z^2 + C) where q != 0, from uniforms (..., LAW_WORDS):
        Z = ndtri(u_0), and C = rng.chi_square(u_1..3, d - 1) where d > 1.
        C costs about 1.2 times Z per element."""
        _, _, q, d = scalars
        z = ndtri(u[..., 0])
        if not q:
            return (z,)
        square = z * z
        if d > 1:
            square += vrng.chi_square(u[..., 1:], d - 1)
        return z, square

    @staticmethod
    def law_log_weights(variates: tuple, scalars: tuple, out=None) -> np.ndarray:
        """Relative log-weights c - ||v|| Z, plus q (Z^2 + C) where q != 0,
        written into `out` if given, which may be Z itself.  c and ||v||^2
        may be columns of states, which broadcast against the variates."""
        c, v2, q, _ = scalars
        # (-||v|| Z) + c rounds as c - ||v|| Z, and needs no second temporary
        lw = np.multiply(variates[0], -np.sqrt(v2), out=out)
        lw += c
        if q:
            lw += q * variates[1]
        return lw

    @property
    def theta_vec(self) -> np.ndarray:
        return self.theta

    def with_theta(self, v: np.ndarray):
        return replace(self, theta=np.asarray(v, dtype=np.float64))

    def copy(self):
        """The model at the same parameters, sharing no array with this one."""
        return replace(self)

    def _check_z(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.shape[-1] != self.d:
            raise ValueError(f"z has dimension {z.shape[-1]}, expected {self.d}")
        return z

    def train_normals(self, n: int) -> int:
        """Standard normals one training epoch with N samples reads."""
        return n * self.d

    def train_sums(self, normals: np.ndarray, alpha: float, rows=(0,)):
        """`_eps_sums` of one training epoch, from its train_normals(N)
        normals (last axis) read as N x d eps, with w_sum and wz cut to the
        weight rows `rows` (s: 0, h: 1), in order."""
        lw, w_sum, wz = _eps_sums(self, normals.reshape(*normals.shape[:-1], -1, self.d), alpha)
        return lw, w_sum[..., list(rows), :], wz[..., list(rows), :]

    def sgd_chain(self, n: int, alpha: float, lr: float, estimator: str):
        """None: SGD steps the parameter arrays (see `GaussianToy.sgd_chain`)."""
        return None


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
    def phi_vec(self) -> np.ndarray:
        return self.phi

    def with_phi(self, v: np.ndarray) -> "GaussianToy":
        return replace(self, phi=np.asarray(v, dtype=np.float64))

    @property
    def progress(self) -> float:
        """B^2/d, the normalized squared parameter distance, as ||v||^2/d."""
        return self.law_scalars()[1] / self.d

    # --- sampling and weights ----------------------------------------------
    def reparam(self, eps: np.ndarray) -> np.ndarray:
        return self.phi + eps

    def log_relative_weight(self, z: np.ndarray) -> np.ndarray:
        z = self._check_z(z)
        dt = z - self.theta
        dp = z - self.phi
        return -0.5 * (np.einsum("...i,...i->...", dt, dt) - np.einsum("...i,...i->...", dp, dp))

    def log_unnormalized_weight(self, z: np.ndarray) -> np.ndarray:
        return self.log_relative_weight(z)  # normalized by construction

    def log_marginal(self) -> float:
        return 0.0

    def log_weight_quadratic(self):
        """(loc, scale, c0, v, q, ||v||^2) with z = loc + scale*eps and
        log w = c0 + v . eps + q ||eps||^2: here -B^2/2 + (theta - phi) . eps."""
        v = self.theta - self.phi
        v2 = float(v @ v)
        return self.phi, 1.0, -0.5 * v2, v, 0.0, v2

    def score_affine(self):
        """((const, coef) of d_theta, of d_phi_total, of d_phi_stopped), each
        const a function of the current parameters.

        d_theta       = z - theta
        d_phi_total   = -(phi + eps - theta) = theta - z   (path + explicit proposal term)
        d_phi_stopped = theta - phi                        (path only; constant in z)
        """
        ones = np.ones(self.d)
        return ((lambda: -self.theta, ones), (lambda: self.theta, -ones),
                (lambda: self.theta - self.phi, np.zeros(self.d)))

    score_grads = _score_grads

    # --- training and extreme values -----------------------------------------
    def train_normals(self, n: int) -> int:
        return n + self.d

    def train_sums(self, normals: np.ndarray, alpha: float, rows=(0,)):
        """(log_w, w_sum, wz) of the one weight row in `rows` (s: 0, h: 1),
        from N + d standard normals per row of `normals` (last axis), drawn
        from the exact law of that row's eps-path sums.

        With u = (theta - phi)/B the log-weights see eps_j only through
        S_j = u . eps_j.  The first N normals are Z_j = -S_j, and log_w is
        `law_log_weights` of them, -||v||^2/2 - B Z_j: the law draw on the
        same uniforms, bit for bit.  Given S, the parts of eps_j
        orthogonal to u are i.i.d. and independent of the weights, so for
        the row w

            sum_j w_j eps_j = (sum_j w_j S_j) u + ||w||_2 (I - u u^T) g,

        with g ~ N(0, I_d) the last d normals.  It is taken as
        ||w||_2 g + (sum_j w_j S_j - ||w||_2 g . u) u, with u = v/B.  At
        B = 0 there is no u and nothing is projected; at d = 1 the
        projection leaves g only its rounding.  The s and h sums share S,
        and their parts off u are correlated, so d normals give that part
        for one row only: the row of the estimator a training run steps (the
        toy trains no theta).
        """
        if len(rows) != 1:
            raise ValueError(f"the toy sums one weight row per draw, got rows {rows}")
        n = normals.shape[-1] - self.d
        quadratic = self.log_weight_quadratic()
        loc, _, _, v, _, v2 = quadratic
        lw = self.law_log_weights((normals[..., :n],), self.law_scalars(quadratic))
        s = _softmax_last((1.0 - alpha) * lw)[..., None, :]
        w = _h(s, alpha) if rows[0] else s           # (..., 1, N)
        w_sum = w.sum(axis=-1, keepdims=True)         # (..., 1, 1)
        norm = np.sqrt(w @ np.swapaxes(w, -1, -2))   # ||w||_2, (..., 1, 1)
        g = normals[..., None, n:]                    # (..., 1, d)
        wz = w_sum * loc + norm * g
        if v2 > 0.0:
            b = math.sqrt(v2)                         # B
            # (sum_j w_j S_j - ||w||_2 g . u) u, with S_j = -Z_j and u = v/B
            wz -= (w @ normals[..., :n, None] + norm * (g @ v)[..., None] / b) / b * v
        return lw, w_sum, wz

    def sgd_chain(self, n: int, alpha: float, lr: float, estimator: str):
        """(words, variates, step, finite, place): plain SGD on phi as a
        chain in b^2 = ||theta - phi||^2, drawn from the exact law of the
        loop that steps phi on `train_sums`.

        With B = sqrt(b^2), u = (theta - phi)/B and s the rep weights of
        log w_j = -B^2/2 - B Z_j, the rep gradient is
        (sum s B + sum_j s_j Z_j) u - ||s||_2 (I - u u^T) g with g ~ N(0, I_d)
        independent of Z (see `train_sums`).  So the step leaves
        b^2 = (B - lr g_par)^2 + lr^2 ||s||_2^2 C, with g_par the coefficient
        of u and C ~ chi^2_(d-1) the squared norm of (I - u u^T) g, and the
        gradient norm is sqrt(g_par^2 + ||s||_2^2 C).  The drep gradient is
        (sum h)(theta - phi), which leaves b^2 (1 - lr sum h)^2.  The next
        epoch's eps are fresh and rotation invariant, so it sees the new
        theta - phi through b^2 alone, and every logged row has the loop's
        law.

        An epoch reads `words` uniforms: N for Z = ndtri(u), then 3 for C by
        `rng.chi_square` where rep and d > 1 (C = 0 at d = 1).
        `variates(u)` maps a block (epochs, words) to one draw per epoch;
        `step(draw)` steps b^2 and returns the gradient norm; `finite()`
        tells whether b^2 is, in O(1); `place()` sets this model's phi to
        theta - B u0, u0 the direction of theta - phi at the start (the
        first axis if they are equal), for a row to log.
        """
        _, _, _, v, _, b2 = self.log_weight_quadratic()
        u0 = v / math.sqrt(b2) if b2 > 0.0 else np.eye(1, self.d)[0]
        rep = estimator == "rep"
        words = n + 3 if rep and self.d > 1 else n

        def variates(u):
            z = ndtri(u[:, :n])
            low = z.min(axis=1, keepdims=True)
            chi = vrng.chi_square(u[:, n:], self.d - 1) if words > n else np.zeros(len(u))
            return zip(z - low, low[:, 0].tolist(), chi.tolist())

        buf = np.empty(n)

        def step(draw):
            nonlocal b2
            zc, low, chi = draw
            b = math.sqrt(b2)
            # s = e / sum(e) is softmax((1 - alpha) log w) with its constant
            # and its largest exponent taken out: the largest e is 1.  Into
            # one buffer, and `dot` for the products: at N = 100 `@` costs
            # about twice as much per call, with the same bits
            e = np.exp(np.multiply(zc, (alpha - 1.0) * b, out=buf), out=buf)
            total = float(e.sum())
            s2 = float(e.dot(e)) / (total * total)
            if rep:
                par = b + float(e.dot(zc)) / total + low
                off = b - lr * par
                b2 = off * off + lr * lr * s2 * chi
                return math.sqrt(par * par + s2 * chi)
            h = alpha + (1.0 - alpha) * s2
            b2 *= (1.0 - lr * h) * (1.0 - lr * h)
            return h * b

        def finite():
            return math.isfinite(b2)

        def place():
            np.subtract(self.theta, math.sqrt(b2) * u0, out=self.phi)

        return words, variates, step, finite, place

    def ev_curve(self, alpha: float, sigma2: float, a_const: float):
        """(curve, scale): the log-normal extreme-value curve of B, on the B
        scale, with B = sqrt(||v||^2) of `law_scalars`."""
        b = math.sqrt(self.law_scalars()[1])
        return (lambda n: lognormal_curve(n, b, alpha)), b


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
    LAW_WORDS = 4

    def __post_init__(self):
        vecs = [np.broadcast_to(np.asarray(getattr(self, name), dtype=np.float64), (self.d,))
                for name in ("theta", "a_tilde", "b", "x")]
        self.theta, self.x = vecs[0].copy(), vecs[3].copy()
        # a_tilde and b are the halves of one phi array, so that phi_vec is
        # the model's own
        self._phi = np.concatenate(vecs[1:3])
        self.a_tilde, self.b = self._phi[: self.d], self._phi[self.d :]

    # --- parameter plumbing -------------------------------------------------
    @property
    def phi_vec(self) -> np.ndarray:
        return self._phi

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
    def progress(self) -> float:
        """lambda = ||posterior mean - proposal mean|| / sqrt(d)."""
        return float(np.linalg.norm(self.posterior_mean - self.q_mean) / math.sqrt(self.d))

    # --- sampling and weights ----------------------------------------------
    def reparam(self, eps: np.ndarray) -> np.ndarray:
        return self.q_mean + math.sqrt(2.0 / 3.0) * eps

    def log_relative_weight(self, z: np.ndarray) -> np.ndarray:
        z = self._check_z(z)
        dm = z - self.posterior_mean
        dq = z - self.q_mean
        return (0.5 * self.d * _LOG_4_3 - np.einsum("...i,...i->...", dm, dm)
                + 0.75 * np.einsum("...i,...i->...", dq, dq))

    def log_marginal(self) -> float:
        dx = self.x - self.theta
        return float(-0.5 * self.d * math.log(4.0 * math.pi) - 0.25 * np.dot(dx, dx))

    def log_unnormalized_weight(self, z: np.ndarray) -> np.ndarray:
        return self.log_relative_weight(z) + self.log_marginal()

    def log_weight_quadratic(self):
        """(loc, scale, c0, v, q, ||v||^2) with z = loc + scale*eps and
        log w = c0 + v . eps + q ||eps||^2.  With delta = posterior mean -
        q_mean and scale = sqrt(2/3), z - posterior mean = scale*eps - delta, so
            log w = c0 + 2 scale delta . eps - ||eps||^2 / 6,
            c0 = (d/2) log(4/3) - ||delta||^2 + log p(x)."""
        scale = math.sqrt(2.0 / 3.0)
        delta = self.posterior_mean - self.q_mean
        c0 = 0.5 * self.d * _LOG_4_3 - float(delta @ delta) + self.log_marginal()
        v = 2.0 * scale * delta
        return self.q_mean, scale, c0, v, -1.0 / 6.0, float(v @ v)

    def score_affine(self):
        """((const, coef) of d_theta, of d_phi_total, of d_phi_stopped), each
        const a function of the current parameters; phi blocks packed [a, b],
        so their coefficients act on z tiled twice.

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
        def phi_const(c):
            return np.concatenate([self.x * c, c])

        def c_t():
            return self.theta + self.x

        ones = np.ones(self.d)
        return ((lambda: -self.theta, ones),
                (lambda: phi_const(c_t()), np.concatenate([-2.0 * self.x, -2.0 * ones])),
                (lambda: phi_const(c_t() - 1.5 * self.q_mean),
                 np.concatenate([-0.5 * self.x, -0.5 * ones])))

    score_grads = _score_grads

    # --- extreme values ------------------------------------------------------
    def ev_curve(self, alpha: float, sigma2: float, a_const: float):
        """(curve, scale): the iid-sum extreme-value curve of d terms of
        variance sigma2 and mean gap a_const, on the sqrt(d) scale."""
        sigma = math.sqrt(sigma2)
        return (lambda n: iid_sum_curve(n, self.d, a_const, sigma)), math.sqrt(self.d)


# --------------------------------------------------------------------------
# Closed-form constants
# --------------------------------------------------------------------------

def closed_forms(model, alpha: float) -> tuple:
    """(vr_gap, gamma2, elbo_gap, sigma2, a_const) from the moment formula on
    the model's `law_scalars` (see the module docstring), with t = 1 - alpha:
    the N -> infinity error term (1/t) log E[wbar^t]; gamma2 =
    (E[wbar^(2t)] / E[wbar^t]^2 - 1)/t, which controls the 1/N term and
    overflows to inf where that regime is unreachable; E[log wbar] = c + q d;
    and the per-dimension variance and mean gap of the log-weights."""
    _check_alpha(alpha)
    c, v2, q, d = model.law_scalars()
    t = 1.0 - alpha
    r = 1.0 - 2.0 * t * q
    vr_gap = c + t * v2 / (2.0 * r) - 0.5 * d * math.log1p(-2.0 * t * q) / t
    # log E[wbar^(2t)] - 2 log E[wbar^t], its t c terms cancelled and its logs
    # merged, so that it keeps its digits as t -> 0
    log_ratio = t * t * v2 / (r * (r - 2.0 * t * q)) - 0.5 * d * math.log1p(-(2.0 * t * q / r) ** 2)
    with np.errstate(over="ignore"):
        gamma2 = float(np.expm1(log_ratio) / t)
    elbo_gap = c + q * d
    return vr_gap, gamma2, elbo_gap, (v2 + 2.0 * q * q * d) / d, -elbo_gap / d


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


def perturb_params(params: tuple, sigma_perturb: float, stream: vrng.RngStream) -> tuple:
    """Add i.i.d. N(0, sigma_perturb^2) noise to every coordinate of a tuple
    of parameter arrays, in order; returns the perturbed copies as a tuple.
    sigma_perturb = 0 returns copies of the inputs (no draws consumed).
    """
    if sigma_perturb < 0:
        raise ValueError("sigma_perturb must be non-negative")
    params = tuple(np.asarray(p, dtype=np.float64) for p in params)
    if sigma_perturb == 0.0:
        return tuple(p.copy() for p in params)
    return tuple(p + sigma_perturb * vrng.standard_normal(stream, p.shape) for p in params)


# --------------------------------------------------------------------------
# Quadrature oracle
#
# Independent verification path for the linear Gaussian closed forms: the
# integrands factorize across coordinates, so every moment of the relative
# weight reduces to a product of 1-D integrals, evaluated here with
# `scipy.integrate.quad` (QUADPACK's adaptive Gauss-Kronrod) to a relative
# tolerance of 1e-13, on a window of at least 12 standard deviations of the
# Gaussian-shaped integrand on each side of its center.
# --------------------------------------------------------------------------

def _quad(f, a: float, b: float) -> float:
    """The integral of f on [a, b] to the oracle's relative tolerance."""
    # imported here, not at module level: there it added 0.33-0.36 s to a
    # 0.45 s `import vriwae.cli`, which every CLI call pays
    from scipy.integrate import quad
    return quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _log_moment(model: LinearGaussian, power: float) -> float:
    """log E_q[wbar^power], the sum over coordinates k of the log of
    E_q[exp(power * g_k(z_k))] by 1-D quadrature, where g_k is the k-th
    coordinate term of the relative log-weight.

    Each integrand is itself Gaussian-shaped with precision
    2A = 2(0.75(1-power) + power), so its window is centered at its own mean
    and spans 12 of its standard deviations.
    """
    a = 0.75 * (1.0 - power) + power
    width = 12.0 / math.sqrt(2.0 * a)
    out = 0.0
    for c, m in zip(model.q_mean.tolist(), model.posterior_mean.tolist()):

        def f(z):
            g = 0.5 * _LOG_4_3 - (z - m) ** 2 + 0.75 * (z - c) ** 2
            logq = -0.5 * math.log(2.0 * math.pi * 2.0 / 3.0) - 0.75 * (z - c) ** 2
            return math.exp(logq + power * g)

        center = (0.75 * (1.0 - power) * c + power * m) / a
        out += math.log(_quad(f, center - width, center + width))
    return out


def lingauss_gap_quadrature(model: LinearGaussian, alpha: float) -> float:
    """VR error term (1/(1-alpha)) log E_q[wbar^(1-alpha)] by quadrature."""
    _check_alpha(alpha)
    return _log_moment(model, 1.0 - alpha) / (1.0 - alpha)


def lingauss_gamma2_quadrature(model: LinearGaussian, alpha: float) -> float:
    """gamma^2 = (E[wbar^(2-2a)]/E[wbar^(1-a)]^2 - 1)/(1-a) by quadrature."""
    _check_alpha(alpha)
    return math.expm1(_log_moment(model, 2.0 * (1.0 - alpha))
                      - 2.0 * _log_moment(model, 1.0 - alpha)) / (1.0 - alpha)


def lingauss_marginal_quadrature(model: LinearGaussian) -> float:
    """Marginal density p(x) as the 1-D-factorized integral of p(x, z)."""
    out = 0.0
    for k in range(model.d):
        t = float(model.theta[k])
        xk = float(model.x[k])

        def f(z):
            return math.exp(-0.5 * (z - t) ** 2 - 0.5 * (xk - z) ** 2) / (2.0 * math.pi)

        center = 0.5 * (t + xk)
        out += math.log(_quad(f, center - 12.0, center + 12.0))
    return out
