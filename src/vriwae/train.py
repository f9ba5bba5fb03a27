"""Stochastic gradient ascent on the VR-IWAE objective for the analytic models.

One gradient sample per step (single-draw estimators), plain SGD by default.
The default learning rate 1e-3 was selected by a sweep over {1e-2, 1e-3, 1e-4}
on the high-dimensional density-ratio run (d=1000, alpha=0.2, N=100, 5000
epochs): 1e-4 is too slow (final normalized distance 0.41), 1e-2 converges
fastest (3e-4) but then jitters at its noise floor, and 1e-3 reaches 4e-3
with a cleanly decreasing trend.  Adam is available as an alternative, with
the usual fixed constants ADAM_BETA1 = 0.9, ADAM_BETA2 = 0.999 and
ADAM_EPS = 1e-8 and the run's learning rate.

The model states what a run needs of it (see `models`): whether theta trains
besides phi (`TRAINS_THETA`), the progress column a trajectory logs
(`PROGRESS_LABEL`, `progress`), and how many standard normals an epoch reads
and which gradient sums it takes from them (`train_normals`, `train_sums`).
Each logged row adds a small fresh Monte Carlo gap estimate and the gradient
norm.

Draws follow the package's one rule (see `rng`): epoch e (from 1) reads block
e - 1 of a fresh stream at the key of the run's stream, and logged row k's
gap is `bounds.gap_mc` on stream.child(1 + k).  The words do not depend on
the parameters, so each chunk of epochs takes one `standard_normal` call,
and the rows do not depend on the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as vrng
from .bounds import gap_mc
from .gradients import _contract
from .weights import _check_alpha

__all__ = [
    "DEFAULT_LEARNING_RATE",
    "TrainConfig",
    "TrajectoryRow",
    "Trajectory",
    "AdamState",
    "TrainingDiverged",
    "sgd_step",
    "adam_step",
    "run_training",
]

DEFAULT_LEARNING_RATE = 1e-3
GRAD_NORM_LIMIT = 1e8
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_ESTIMATORS = ("rep", "drep")
_OPTIMIZERS = ("sgd", "adam")


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    alpha: float = 0.2
    n_importance: int = 100
    estimator: str = "rep"           # "rep" | "drep"
    optimizer: str = "sgd"           # "sgd" | "adam"
    learning_rate: float = DEFAULT_LEARNING_RATE
    epochs: int = 5000
    log_every: int = 50
    gap_replicates: int = 16         # fresh batches per logged gap estimate

    def __post_init__(self):
        _check_alpha(self.alpha, closed=True)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.n_importance < 1:
            raise ValueError("n_importance must be positive")
        if self.log_every < 1:
            raise ValueError("log_every must be positive")
        if self.gap_replicates < 1:
            raise ValueError("gap_replicates must be positive")
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.optimizer not in _OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrajectoryRow:
    epoch: int
    progress: float        # the model's `progress`
    gap_mean: float
    gap_se: float
    grad_norm: float


@dataclass
class Trajectory:
    progress_label: str    # the model's PROGRESS_LABEL
    rows: list = field(default_factory=list)

    @property
    def final(self) -> TrajectoryRow:
        return self.rows[-1]


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """Ascent step params + lr * grad."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if params.shape != grad.shape:
        raise ValueError("params and grad shapes differ")
    return params + lr * grad


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(m=np.zeros(dim), v=np.zeros(dim), t=0)


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray, lr: float = 1e-3):
    """Bias-corrected adaptive moment ascent step; returns (state, params)."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_params = params + lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return AdamState(m=m, v=v, t=t), new_params


def _epoch_normals(model, config: TrainConfig, stream: vrng.RngStream):
    """Yield (epoch, normals) for epochs 1..config.epochs, model.train_normals(N)
    normals per epoch, a chunk of epochs per `standard_normal` call on a
    fresh stream at the key of `stream`."""
    words = model.train_normals(config.n_importance)
    draws = vrng.make_stream(stream.seed, stream.stream_id)
    for start, stop in vrng._replicate_chunks(config.epochs, words):
        yield from zip(range(start + 1, stop + 1),
                       vrng.standard_normal(draws, (stop - start, words)))


def run_training(model, config: TrainConfig, stream: vrng.RngStream) -> Trajectory:
    """Gradient ascent on the bound; returns the logged trajectory.

    Epoch e reads block e - 1 of a fresh stream at the key of `stream`, and
    logged row k's gap reads stream.child(1 + k) (see the module docstring),
    so identical (model, config, stream key) reproduce identical rows;
    `stream` is not advanced.  Aborts when the gradient norm exceeds 1e8.
    """
    traj = Trajectory(progress_label=model.PROGRESS_LABEL)
    train_theta = model.TRAINS_THETA
    adam_theta = AdamState.zeros(model.theta_dim)
    adam_phi = AdamState.zeros(model.phi_dim)

    def log_row(epoch: int, grad_norm: float):
        gap = gap_mc(model, config.alpha, config.n_importance, config.gap_replicates,
                     stream.child(1 + len(traj.rows)))
        traj.rows.append(TrajectoryRow(epoch=epoch, progress=model.progress,
                                       gap_mean=gap.mean, gap_se=gap.std_error,
                                       grad_norm=grad_norm))

    log_row(0, 0.0)
    for epoch, normals in _epoch_normals(model, config, stream):
        _, w_sum, wz = model.train_sums(normals, config.alpha)
        g_theta, g_rep, g_drep = _contract(model, w_sum, wz)
        g_phi = g_rep if config.estimator == "rep" else g_drep
        norm_sq = float(np.dot(g_phi, g_phi))
        if train_theta:
            norm_sq += float(np.dot(g_theta, g_theta))
        grad_norm = float(np.sqrt(norm_sq))
        if grad_norm > GRAD_NORM_LIMIT:
            raise TrainingDiverged(
                f"gradient norm {grad_norm:.3e} exceeded {GRAD_NORM_LIMIT:.0e} at epoch {epoch}")
        if train_theta:
            if config.optimizer == "sgd":
                model = model.with_theta(sgd_step(model.theta_vec, g_theta, config.learning_rate))
            else:
                adam_theta, new_theta = adam_step(adam_theta, model.theta_vec, g_theta,
                                                  config.learning_rate)
                model = model.with_theta(new_theta)
        if config.optimizer == "sgd":
            model = model.with_phi(sgd_step(model.phi_vec, g_phi, config.learning_rate))
        else:
            adam_phi, new_phi = adam_step(adam_phi, model.phi_vec, g_phi, config.learning_rate)
            model = model.with_phi(new_phi)
        if epoch % config.log_every == 0 or epoch == config.epochs:
            log_row(epoch, grad_norm)
    return traj
