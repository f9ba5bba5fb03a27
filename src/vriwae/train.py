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
(`PROGRESS_LABEL`, `progress`), and the epoch kernel.  Each logged row adds
a small fresh Monte Carlo gap estimate and the gradient norm.

`run_training` copies the caller's model once (`copy`), and the caller's
model is never touched.  It picks one epoch kernel per run, from the model
and the optimizer alone, and runs it in its one loop of draws, divergence
check and logging.  A kernel is (words, variates, step, finite, place): the
uniforms an epoch reads, the map from a block of them to one draw per epoch,
the step that takes a draw and returns the gradient norm, whether the state
the last step left is finite, and what makes the private copy show the run's
state before a row is logged.  The loop checks the gradient norm and then
the state after every step, so a step that overflows the state stops the run
at its own epoch, before a row or a later step reads that state.

* The toy's SGD chain (`GaussianToy.sgd_chain`).  The toy's law, and every
  logged column, sees theta - phi only through b^2 = ||theta - phi||^2, so
  plain SGD runs as a chain in b^2, drawn from the exact law of the array
  kernel's rows: N + 3 uniforms per rep epoch where d > 1, N otherwise, and
  no d-vector, except that `place` sets phi = theta - b u0 for a row.
* The array kernel, for every other run: toy Adam, whose per-coordinate
  moments see the direction of phi, and the linear Gaussian.  An epoch reads
  `train_normals(N)` normals and takes the sums of the weight rows its
  gradients contract (`train_sums`; by `gradients._GRADIENTS`, s for theta
  and rep phi, h for drep phi).  The copy's parameter arrays (`theta_vec`,
  `phi_vec`) are stepped in place, with the score coefficients of
  `score_affine`, built once, and one update rule per stepped array with its
  state (Adam's moments).  An epoch contracts only the gradients the run
  steps: theta's where `TRAINS_THETA`, and phi's of the run's estimator.
  `p += lr * g` rounds as `p + lr * g` does, so the rows are those of a loop
  that rebuilds the model every epoch.

Draws follow the package's one rule (see `rng`): epoch e (from 1) reads row
e - 1 of one block of uniforms of a fresh stream at the key of the run's
stream, as wide as the kernel's words, and logged row k's gap is
`bounds.gap_mc` on stream.child(1 + k).  The words do not depend on the
parameters, so the run builds that one stream and reads it a chunk of epochs
at a time (`rng._replicate_chunks`), one block of uniforms per chunk; since
consecutive reads give consecutive words, the rows do not depend on the
chunk size.  A kernel's `variates` is a function of those words alone;
the array kernel maps them through `ndtri`, the bits of
`rng.standard_normal`.  The epochs run serially on the calling thread,
since each starts from the state the last one left.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import rng as vrng
from .bounds import gap_mc
from .gradients import _GRADIENTS, _contract

__all__ = [
    "DEFAULT_LEARNING_RATE",
    "TrainConfig",
    "TrajectoryRow",
    "Trajectory",
    "TrainingDiverged",
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


def _check_rules(obj, rules, skip=()) -> None:
    """Raise ValueError naming the first of `rules`, (field, holds,
    requirement) in order, whose field of `obj` is not in `skip` and fails
    holds(value, obj)."""
    for name, holds, requirement in rules:
        value = getattr(obj, name)
        if name not in skip and not holds(value, obj):
            raise ValueError(f"{name} must be {requirement}, got {value!r}")


def _is_a(value, cast) -> bool:
    """Whether `value` has the numeric type `cast` (int or float) of a
    field: an int field takes an Integral, a float field a finite Real (an
    int is a float too, unless it is too large for one), and neither takes a
    bool."""
    return not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) if cast is int
        else isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max)


def _type_rules(casts, grids=()) -> tuple:
    """The type rule, for `_check_rules`, of each (field, cast) of `casts`:
    the field holds a `cast` by `_is_a` or, if it is in `grids`, a non-empty
    list or tuple of them."""
    def holds(v, cast, grid):
        return (not grid or (isinstance(v, (list, tuple)) and len(v) > 0)) and all(
            _is_a(x, cast) for x in (v if grid else [v]))
    words = {int: ("an int", "ints"), float: ("a finite float", "finite floats")}
    return tuple((name, lambda v, o, cast=cast, grid=name in grids: holds(v, cast, grid),
                  f"a non-empty list of {words[cast][1]}" if name in grids else words[cast][0])
                 for name, cast in casts)


# the rules of a TrainConfig, in the order they are checked: the type of
# each numeric field, then the ranges
_CONFIG_RULES = (
    *_type_rules((("alpha", float), ("learning_rate", float), ("epochs", int),
                  ("n_importance", int), ("log_every", int), ("gap_replicates", int))),
    ("alpha", lambda v, c: 0.0 <= v <= 1.0, "in [0, 1]"),
    ("learning_rate", lambda v, c: v > 0, "positive"),
    ("epochs", lambda v, c: v >= 0, ">= 0"),
    ("n_importance", lambda v, c: v >= 1, ">= 1"),
    ("log_every", lambda v, c: v >= 1, ">= 1"),
    ("gap_replicates", lambda v, c: v >= 2, ">= 2 for a standard error"),
    ("estimator", lambda v, c: v in _ESTIMATORS, f"one of {_ESTIMATORS}"),
    ("optimizer", lambda v, c: v in _OPTIMIZERS, f"one of {_OPTIMIZERS}"),
)


@dataclass
class TrainConfig:
    """One training run's settings, checked on construction by
    `_check_rules`, in the order of `_CONFIG_RULES`: first the type of each
    numeric field (`_type_rules`), where a float field is finite
    (`_is_a`), then the ranges, and the estimator and optimizer names."""

    alpha: float = 0.2
    n_importance: int = 100
    estimator: str = "rep"           # "rep" | "drep"
    optimizer: str = "sgd"           # "sgd" | "adam"
    learning_rate: float = DEFAULT_LEARNING_RATE
    epochs: int = 5000
    log_every: int = 50
    gap_replicates: int = 16         # fresh batches per logged gap estimate

    def __post_init__(self):
        _check_rules(self, _CONFIG_RULES)


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


class _Sgd:
    """Ascent steps on the array `params`, in place: params += lr * grad."""

    def __init__(self, params: np.ndarray, lr: float):
        self.params, self.lr = params, lr

    def __call__(self, grad: np.ndarray) -> None:
        if self.params.shape != grad.shape:
            raise ValueError("params and grad shapes differ")
        self.params += self.lr * grad


class _Adam:
    """Bias-corrected adaptive moment ascent steps on the array `params`, in
    place; keeps the moments m, v and the step count t."""

    def __init__(self, params: np.ndarray, lr: float):
        self.params, self.lr = params, lr
        self.m = np.zeros(params.shape)
        self.v = np.zeros(params.shape)
        self.t = 0

    def __call__(self, grad: np.ndarray) -> None:
        self.t += 1
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = self.m / (1.0 - ADAM_BETA1**self.t)
        v_hat = self.v / (1.0 - ADAM_BETA2**self.t)
        self.params += self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


_RULES = {"sgd": _Sgd, "adam": _Adam}


def _array_kernel(model, config: TrainConfig):
    """(words, variates, step, finite, place) of the epoch that steps the
    model's parameter arrays: train_normals(N) normals per epoch, whose
    `train_sums` the gradients the run steps contract.  The state is finite
    where the model's `law_scalars` are, which every row and step reads."""
    kinds, params = (config.estimator,), (model.phi_vec,)
    if model.TRAINS_THETA:
        kinds, params = ("theta", *kinds), (model.theta_vec, *params)
    rows = tuple(sorted({_GRADIENTS[kind][1] for kind in kinds}))
    rules = [_RULES[config.optimizer](p, config.learning_rate) for p in params]
    scores = model.score_affine()

    def step(normals):
        _, w_sum, wz = model.train_sums(normals, config.alpha, rows)
        grads = _contract(scores, w_sum, wz, kinds, rows)
        for rule, g in zip(rules, grads):
            rule(g)
        return math.sqrt(sum(float(np.dot(g, g)) for g in grads))

    def finite():
        # an overflowed state is caught here, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            return all(map(math.isfinite, model.law_scalars()))

    return (model.train_normals(config.n_importance), lambda u: ndtri(u, out=u), step, finite,
            lambda: None)


def _epoch_draws(config: TrainConfig, stream: vrng.RngStream, words: int, variates):
    """Yield (epoch, draw) for epochs 1..config.epochs: epoch e's draw is
    item e - 1 of variates(u), for the block u of `words` uniforms per epoch
    of one fresh stream at the key of `stream`, read a chunk of epochs at a
    time."""
    fresh = vrng.make_stream(stream.seed, stream.stream_id)
    for start, stop in vrng._replicate_chunks(config.epochs, words):
        yield from zip(range(start + 1, stop + 1),
                       variates(vrng.uniform(fresh, (stop - start, words))))


def run_training(model, config: TrainConfig, stream: vrng.RngStream) -> Trajectory:
    """Gradient ascent on the bound; returns the logged trajectory.

    Epoch e reads row e - 1 of a block of uniforms at the key of `stream`,
    and logged row k's gap reads stream.child(1 + k) (see the module
    docstring), so identical (model, config, stream key) reproduce identical
    rows; neither `model` nor `stream` changes.  Aborts when the gradient
    norm exceeds 1e8 or is NaN, or when a step leaves a state that is not
    finite.
    """
    model = model.copy()
    traj = Trajectory(progress_label=model.PROGRESS_LABEL)
    chain = (model.sgd_chain(config.n_importance, config.alpha, config.learning_rate,
                             config.estimator) if config.optimizer == "sgd" else None)
    words, variates, step, finite, place = chain or _array_kernel(model, config)

    def log_row(epoch: int, grad_norm: float):
        gap = gap_mc(model, config.alpha, config.n_importance, config.gap_replicates,
                     stream.child(1 + len(traj.rows)))
        traj.rows.append(TrajectoryRow(epoch=epoch, progress=model.progress,
                                       gap_mean=gap.mean, gap_se=gap.std_error,
                                       grad_norm=grad_norm))

    log_row(0, 0.0)
    for epoch, draw in _epoch_draws(config, stream, words, variates):
        grad_norm = step(draw)
        if not grad_norm <= GRAD_NORM_LIMIT:    # a NaN norm fails this test too
            why = ("is NaN" if math.isnan(grad_norm)
                   else f"{grad_norm:.3e} exceeded {GRAD_NORM_LIMIT:.0e}")
            raise TrainingDiverged(f"gradient norm {why} at epoch {epoch}")
        if not finite():
            raise TrainingDiverged(f"state is not finite after the step of epoch {epoch}")
        if epoch % config.log_every == 0 or epoch == config.epochs:
            place()
            log_row(epoch, grad_norm)
    return traj
