"""Deterministic experiment runners and their CSV/JSON/SVG outputs.

Every experiment is a pure function of (spec, seed).  Each experiment family
owns a disjoint stream_id block, and each grid cell reads its own stream
within it, by the package's one draw rule (see `rng`): replicate r of the
cell takes block r of the stream's words.  The gap and collapse runners
share one law grid (`_law_grid`): it lays cell (d_idx, n_idx) on the stream
at the family's offset + d_idx len(n_grid) + n_idx, puts all N cells of a
dimension in one `rng._chunk_map` (`bounds._law_samples`), whose kernel maps
a chunk's uniforms and whose chunks run on all cores, and reduces each cell's
samples at once to their mean and SE, so their tables are byte-identical at
any number of threads and any chunk size.  The weights runner draws each
(d, sigma_perturb) sample as one such cell of N = 1, whose chunks run on all
cores once it spans more than one; its tables, and the `snr` tables (see
`gradients`), are byte-identical in the same way.  Common random numbers
are reused on purpose across alpha values and across perturbation scales of
the same grid cell: the draws are i.i.d. for each configuration, and sharing
them makes the comparisons paired.  Each log-weight comes from its model's
exact law (`law_variates` and `law_log_weights`), not d normals.

Output files are CSV with '#'-prefixed metadata header lines (schema version,
seed, spec echo) or a JSON mirror.  Gap tables carry both the prediction
baselines and their fit shape columns, so fitted constants can be recomputed
from the file alone: the runner fits each group with `_fit_group`, the
function that `fit_gap_table`, and so `vriwae fit`, runs on the file's rows.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
# ndtri is unused here, but perfbench/tracing.py wraps experiments.ndtri
from scipy.special import logsumexp, ndtri  # noqa: F401

from . import rng as vrng
from .asymptotics import expected_min_normal, fit_constant, one_over_n_curve
from .bounds import _law_samples, _split, vr_iwae_from_log_weights
from .gradients import (SNR_MIN_REPLICATES, fd_grad_from_eps, fd_grad_oracle, grad_mean_se,
                        snr_floor, snr_sweep)
from .models import (GaussianToy, LinearGaussian, closed_forms, lingauss_gamma2_quadrature,
                     lingauss_gap_quadrature, optimal_params, perturb_params)
from .train import DEFAULT_LEARNING_RATE, TrainConfig, _check_rules, _type_rules, run_training
from .weights import _diagnostics, _mean_se, _weight_rows, qq_points

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentSpec",
    "make_toy",
    "make_linear_gaussian",
    "run_gap_experiment",
    "run_snr_experiment",
    "run_weights_experiment",
    "run_collapse_experiment",
    "run_train_experiment",
    "fit_gap_table",
    "write_table",
    "read_table",
    "render_svg",
    "selftest",
    "SelftestReport",
]

SCHEMA_VERSION = "1"

# stream_id blocks, one per draw purpose; ids inside a block are linear
# indexes over the experiment grid
_OFF_DATASET = 1 << 40
_OFF_DATAPOINT = 2 << 40
_OFF_PERTURB = 3 << 40
_OFF_GAP = 4 << 40
_OFF_SNR = 5 << 40
_OFF_WEIGHTS = 6 << 40
_OFF_COLLAPSE = 7 << 40
_OFF_TRAIN = 8 << 40
_OFF_SELFTEST = 9 << 40

_DEFAULT_N_GRID = tuple(2**j for j in range(1, 10))
# the type of each numeric field the spec reads itself (of each item, for
# the grid fields, which take a non-empty list or tuple); its TrainConfig
# checks those of the train-only fields
_NUMERIC_FIELDS = {**dict.fromkeys(("replicates", "seed", "weight_samples", "m_samples",
                                    "coordinate_sample", "ds", "n_grid"), int),
                   **dict.fromkeys(("alphas", "sigma_perturbs", "theta_scale"), float)}
_GRID_FIELDS = ("alphas", "ds", "n_grid", "sigma_perturbs")
_SPEC_TYPES = _type_rules(_NUMERIC_FIELDS.items(), _GRID_FIELDS)
_KINDS = ("gap", "snr", "weights", "collapse", "train")
_MODELS = (GaussianToy.TABLE_NAME, LinearGaussian.TABLE_NAME)
# the grids whose default depends on the kind: (any kind but train, train)
_KIND_DEFAULTS = {"alphas": ((0.0, 0.2, 0.5), (0.0,)), "ds": ((10, 100, 1000), (10,))}
# the fields that runs of each model and of each kind never read: the toy has
# no perturbation, the linear Gaussian sits at its optimum, not at a
# theta_scale, snr reports both estimators, and train logs its gaps from
# TrainConfig.gap_replicates
_TRAIN_ONLY = ("estimator", "epochs", "learning_rate", "optimizer", "n_importance", "log_every")
_UNREAD = {GaussianToy.TABLE_NAME: ("sigma_perturbs",),
           LinearGaussian.TABLE_NAME: ("theta_scale",),
           "gap": (*_TRAIN_ONLY, "weight_samples", "m_samples", "coordinate_sample"),
           "snr": (*_TRAIN_ONLY, "weight_samples"),
           "weights": (*_TRAIN_ONLY, "alphas", "n_grid", "replicates", "m_samples",
                       "coordinate_sample"),
           "collapse": (*_TRAIN_ONLY, "weight_samples", "m_samples", "coordinate_sample"),
           "train": ("n_grid", "replicates", "weight_samples", "m_samples", "coordinate_sample")}
_FORMATS = ("csv", "json")
# the range rules of a spec, in the order they are checked (see
# `train._check_rules`); a grid field's values are finite and it holds one
# at least, by the type check that runs first
_SPEC_RULES = (
    ("kind", lambda v, s: v in _KINDS, f"one of {_KINDS}"),
    ("model", lambda v, s: v in _MODELS, f"one of {_MODELS}"),
    ("ds", lambda v, s: min(v) >= 1, ">= 1"),
    ("n_grid", lambda v, s: min(v) >= 1, ">= 1"),
    ("replicates", lambda v, s: v >= 2, ">= 2 for a standard error"),
    ("replicates", lambda v, s: s.kind != "snr" or v >= SNR_MIN_REPLICATES,
     f">= {SNR_MIN_REPLICATES} for snr"),
    ("seed", lambda v, s: 0 <= v < 2**64, "in [0, 2**64)"),
    ("sigma_perturbs", lambda v, s: min(v) >= 0, ">= 0"),
    ("m_samples", lambda v, s: v >= 1, ">= 1"),
    ("coordinate_sample", lambda v, s: v >= 1, ">= 1"),
    ("weight_samples", lambda v, s: v >= 2, ">= 2"),
    ("alphas", lambda v, s: 0 <= min(v) and max(v) <= 1, "in [0, 1]"),
    # the closed-form error term and gamma^2 divide by 1 - alpha, and T is
    # defined for alpha in [0, 1)
    ("alphas", lambda v, s: s.kind not in ("gap", "collapse") or max(v) < 1,
     "in [0, 1) for gap and collapse"),
    ("n_grid", lambda v, s: all(a < b for a, b in zip(v, v[1:])), "strictly increasing"),
    # a repeated value would write two groups of rows under one key
    *(rule for name in ("ds", "alphas", "sigma_perturbs")
      for rule in ((name, lambda v, s: len(set(v)) == len(v), "free of repeats"),
                   (name, lambda v, s: s.kind != "train" or len(v) == 1,
                    "one value for train, which runs one model"))),
    ("format", lambda v, s: v in _FORMATS, f"one of {_FORMATS}"),
    ("out", lambda v, s: isinstance(v, (str, type(None))), "a path string"),
    ("plot", lambda v, s: isinstance(v, (str, type(None))), "a path string"),
)


@dataclass
class ExperimentSpec:
    """Grid and output description shared by all experiment kinds.

    A field is checked where a run reads it, each rule by
    `train._check_rules`, in order:

    * types and finiteness: `_SPEC_TYPES` (by `train._type_rules`) checks
      each numeric field that the spec reads itself, at any model and kind:
      an int field holds an int, a float field a finite float
      (`train._is_a`), and a grid field a non-empty list or tuple of them,
      stored as a tuple;
    * ranges: `_SPEC_RULES` skips each field that the spec's model or kind
      never reads (`_UNREAD`);
    * the train-only fields (`epochs`, `n_importance`, `log_every`,
      `learning_rate`, `estimator`, `optimizer`): a train run's TrainConfig
      checks their types, finiteness and ranges, and the spec none;
    * a field that the model or kind never reads must keep its default: the
      ignored-field rule, checked last, names the field and the model or
      kind that ignores it.
    """

    kind: str
    model: str = "toy"                       # "toy" | "lingauss"
    alphas: Optional[tuple] = None           # default (0.0, 0.2, 0.5); (0.0,) for train
    ds: Optional[tuple] = None               # default (10, 100, 1000); (10,) for train
    n_grid: tuple = _DEFAULT_N_GRID
    replicates: int = 1000
    seed: int = 0
    sigma_perturbs: tuple = (0.0,)
    estimator: str = "rep"
    theta_scale: float = 0.0                 # toy: theta = theta_scale * u_d, phi = u_d
    weight_samples: int = 100_000
    m_samples: int = 1
    coordinate_sample: int = 10
    epochs: int = 5000
    learning_rate: Optional[float] = None
    optimizer: str = "sgd"
    n_importance: int = 100
    log_every: int = 50
    out: Optional[str] = None
    format: str = "csv"
    plot: Optional[str] = None

    def __post_init__(self):
        # train runs one model, at the first value of each default grid
        train = self.kind == "train"
        for name, defaults in _KIND_DEFAULTS.items():
            if getattr(self, name) is None:
                setattr(self, name, defaults[train])
        _check_rules(self, _SPEC_TYPES)
        for name in _GRID_FIELDS:
            setattr(self, name, tuple(map(_NUMERIC_FIELDS[name], getattr(self, name))))
        # a field that the model or the kind never reads skips the range
        # rules, which describe a use that never happens
        _check_rules(self, _SPEC_RULES, skip=(*_UNREAD.get(self.model, ()),
                                               *_UNREAD.get(self.kind, ())))
        if train:
            self.train_config()
        # a field that the model or the kind never reads must keep its
        # default rather than run as if read; the model's fields go first
        for owner, key in ((f"model {self.model!r}", self.model), (self.kind, self.kind)):
            for name in _UNREAD[key]:
                default = (_KIND_DEFAULTS[name][train] if name in _KIND_DEFAULTS
                           else self.__dataclass_fields__[name].default)
                if getattr(self, name) != default:
                    raise ValueError(f"{name} must be {default} for {owner}, which ignores "
                                     f"it, got {getattr(self, name)}")

    def train_config(self) -> TrainConfig:
        """The TrainConfig of a train run of this spec, at its first alpha."""
        return TrainConfig(alpha=self.alphas[0], n_importance=self.n_importance,
                           estimator=self.estimator, optimizer=self.optimizer,
                           learning_rate=(DEFAULT_LEARNING_RATE if self.learning_rate is None
                                          else self.learning_rate),
                           epochs=self.epochs, log_every=self.log_every)

    def echo(self) -> dict:
        d = asdict(self)
        d.pop("out", None)
        d.pop("plot", None)
        return d


# --------------------------------------------------------------------------
# Model construction
# --------------------------------------------------------------------------

def make_toy(d: int, theta_scale: float = 0.0) -> GaussianToy:
    """Toy model with theta = theta_scale * u_d and phi = u_d."""
    return GaussianToy(d=d, theta=np.full(d, theta_scale), phi=np.ones(d))


def make_linear_gaussian(d: int, sigma_perturb: float, seed: int,
                         t: int = 1024) -> tuple[LinearGaussian, tuple[np.ndarray, np.ndarray]]:
    """Linear Gaussian model at a perturbed optimum, plus the statistics it
    was built from.

    The optimum is that of a dataset of T i.i.d. N(0, 2I) points, evaluated
    at one of them, x.  It depends on the dataset only through x and the sum
    `rest` of the other T - 1 points, and since the datapoint's index is
    drawn independently of the rows, x ~ N(0, 2I) and rest ~ N(0, 2(T-1) I)
    are independent.  Each is drawn directly (2d normals in all), from its
    own stream keyed by (seed, d), as is the perturbation noise, so the same
    (seed, d, T) always yields the same instance, and the sigma_perturb
    variants of one (seed, d) share x, rest and the perturbation directions,
    which sigma_perturb only scales.  Returns (model, (x, rest)).
    """
    x = math.sqrt(2.0) * vrng.standard_normal(vrng.make_stream(seed, _OFF_DATAPOINT + d), d)
    rest = math.sqrt(2.0 * (t - 1)) * vrng.standard_normal(
        vrng.make_stream(seed, _OFF_DATASET + d), d)
    theta, a_tilde, b = perturb_params(optimal_params(x, rest, t), sigma_perturb,
                                       vrng.make_stream(seed, _OFF_PERTURB + d))
    return LinearGaussian(d=d, theta=theta, a_tilde=a_tilde, b=b, x=x), (x, rest)


def _variants(spec: ExperimentSpec, d: int) -> list:
    """(sigma_perturb, model) pairs for one dimension of the grid.

    The toy model has no perturbation notion; its sigma_perturb is None and
    serializes to an empty CSV cell.
    """
    if spec.model == "toy":
        return [(None, make_toy(d, spec.theta_scale))]
    return [(sp, make_linear_gaussian(d, sp, spec.seed)[0]) for sp in spec.sigma_perturbs]


# --------------------------------------------------------------------------
# Gap experiment
# --------------------------------------------------------------------------

def _law_grid(spec: ExperimentSpec, offset: int, reduce):
    """Yield (d, variants, stats) per d of the grid, where stats holds per N
    of the grid the (mean, SE) over its replicates of reduce(lrw) (see
    `bounds._law_samples`).  Cell (d_idx, n_idx) reads stream
    offset + d_idx * len(n_grid) + n_idx, and all N cells of one d share one
    chunk map."""
    for d_idx, d in enumerate(spec.ds):
        variants = _variants(spec, d)
        cells = [(offset + d_idx * len(spec.n_grid) + n_idx, n)
                 for n_idx, n in enumerate(spec.n_grid)]
        samples = _law_samples(variants[0][1], [m.law_scalars() for _, m in variants],
                               spec.seed, cells, spec.replicates, reduce)
        yield d, variants, [_mean_se(cell_samples) for cell_samples in samples]


def run_gap_experiment(spec: ExperimentSpec) -> list:
    """Monte Carlo variational gap over the (alpha, d, N) grid, with both
    predicted curve families and their fitted free constants.

    pred_1n is the fixed-dimension curve error_term - gamma2/(2N) (NaN when
    gamma2 overflows); pred_ev is the extreme-value family of the model
    (log-normal for the toy, iid-sum for the linear Gaussian), undefined for
    N < 3.  *_fit columns add the least-squares constant fitted per
    (model, alpha, d, sigma_perturb) group across the N grid.
    """
    rows: list[dict] = []
    # (C, V, A) per chunk: replicates first, as the reducer expects
    grid = _law_grid(spec, _OFF_GAP, lambda lrw: np.swapaxes(
        vr_iwae_from_log_weights(lrw, spec.alphas), 0, 1))
    for _, variants, stats in grid:
        # mean and SE of the gap samples per (variant, alpha, n)
        means, ses = (np.stack(x, axis=-1) for x in zip(*stats))
        for v_idx, (sp, model) in enumerate(variants):
            for a_idx, alpha in enumerate(spec.alphas):
                rows.extend(_gap_rows(spec, model, sp, alpha, spec.n_grid,
                                      means[v_idx, a_idx], ses[v_idx, a_idx]))
    return rows


def _gap_rows(spec, model, sigma_perturb, alpha, n_grid, mean_gap, se_gap):
    log_marginal = model.log_marginal()
    error_term, gamma2, elbo_gap, sigma2, a_const = closed_forms(model, alpha)
    # the model's extreme-value curve, and its fit shape
    # scale * log log N / sqrt(log N), per N, both NaN below N = 3
    curve, scale = model.ev_curve(alpha, sigma2, a_const)
    ev_base = [curve(n) if n >= 3 else math.nan for n in n_grid]
    ev_shape = [scale * math.log(math.log(n)) / math.sqrt(math.log(n)) if n >= 3 else math.nan
                for n in n_grid]
    one_n_base = [one_over_n_curve(n, error_term, gamma2) if math.isfinite(gamma2)
                  else math.nan for n in n_grid]
    one_n_shape = [1.0 / n for n in n_grid]

    out = []
    for i, n in enumerate(n_grid):
        # the fitted columns are placeholders here, filled by the group fit
        out.append({
            "model": model.TABLE_NAME,
            "alpha": alpha, "d": model.d, "sigma_perturb": sigma_perturb, "N": n,
            "replicates": spec.replicates,
            "mean_gap": float(mean_gap[i]), "se_gap": float(se_gap[i]),
            "mean_bound": float(mean_gap[i] + log_marginal),
            "log_marginal": log_marginal, "elbo_gap": elbo_gap,
            "pred_1n": one_n_base[i], "shape_1n": one_n_shape[i],
            "pred_1n_fit": None, "c1": None, "rms_1n": None,
            "pred_ev": ev_base[i], "shape_ev": ev_shape[i],
            "pred_ev_fit": None, "c2": None, "rms_ev": None,
        })
    fit = _fit_group(out)
    for row in out:
        row.update(fit, pred_1n_fit=row["pred_1n"] + fit["c1"] * row["shape_1n"],
                   pred_ev_fit=row["pred_ev"] + fit["c2"] * row["shape_ev"])
    return out


def _fit_group(rows: Sequence[dict]) -> dict:
    """c1, rms_1n, c2 and rms_ev of one (model, alpha, d, sigma_perturb)
    group of gap rows: the least-squares constant of each curve family, and
    its residual RMS, over the rows whose baseline, shape and mean_gap are
    finite (an empty cell reads as NaN); NaN where no such row has a nonzero
    shape."""
    fit = {}
    for const, curve in (("c1", "1n"), ("c2", "ev")):
        base, shape, observed = (np.array([r[col] for r in rows], dtype=np.float64)
                                 for col in (f"pred_{curve}", f"shape_{curve}", "mean_gap"))
        ok = np.isfinite(base) & np.isfinite(shape) & np.isfinite(observed)
        fit[const], fit[f"rms_{curve}"] = (fit_constant(base[ok], shape[ok], observed[ok])
                                           if np.any(shape[ok] != 0) else (math.nan, math.nan))
    return fit


def fit_gap_table(rows: Sequence[dict]) -> list:
    """Re-fit the curve constants per (model, alpha, d, sigma_perturb) group
    of a gap table, from its stored baseline and shape columns alone.

    Raises KeyError for a missing column, and ValueError naming the column
    and the row (from 1) for a group-key cell that is not a string, number or
    null, a cell of N that is not a number, or a cell of a fitted column that
    is neither a number nor empty (an empty cell reads as NaN)."""
    groups: dict[tuple, list] = {}
    for i, row in enumerate(rows, 1):
        key = (row["model"], row["alpha"], row["d"], row["sigma_perturb"])
        for col, v in zip(("model", "alpha", "d", "sigma_perturb"), key):
            if not isinstance(v, (str, int, float, type(None))):
                raise ValueError(f"column {col!r} holds {v!r} in row {i}, "
                                 "not a string, number or null")
        for col in ("N", "mean_gap", "pred_1n", "shape_1n", "pred_ev", "shape_ev"):
            v = row[col]
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            if not (number or v is None and col != "N"):
                raise ValueError(f"column {col!r} holds {v!r} in row {i}, not a number")
        groups.setdefault(key, []).append(row)
    return [{"model": model, "alpha": alpha, "d": d, "sigma_perturb": sp,
             **_fit_group(sorted(grp, key=lambda r: r["N"]))}
            for (model, alpha, d, sp), grp in groups.items()]


# --------------------------------------------------------------------------
# SNR experiment
# --------------------------------------------------------------------------

def run_snr_experiment(spec: ExperimentSpec) -> list:
    """SNR of rep and drep gradient estimators over the grid, with log-log
    slope fits and the theoretical +-1/2 reference slopes.

    Health columns: snr_floor is sqrt(2/(pi R)), the SNR a zero-mean
    coordinate reads over R replicates, and at_floor marks rows whose
    snr_mean is below twice that floor, where the SNR cannot be read.
    """
    rows = []
    floor = snr_floor(spec.replicates)
    # a sweep reads 2 + len(n_grid) stream ids from its stream's, so grid
    # points that far apart read disjoint ones
    stride = max(4096, len(spec.n_grid) + 2)
    grid_idx = 0
    for d in spec.ds:
        for sp, model in _variants(spec, d):
            for alpha in spec.alphas:
                stream = vrng.make_stream(spec.seed, _OFF_SNR + grid_idx * stride)
                grid_idx += 1
                blocks = snr_sweep(model, alpha, spec.m_samples, spec.n_grid,
                                   spec.replicates, spec.coordinate_sample, stream)
                for (kind, block), blk in sorted(blocks.items()):
                    if block == "theta":
                        ref = 0.5
                    else:
                        ref = -0.5 if alpha == 0.0 else 0.5
                    for i, n in enumerate(spec.n_grid):
                        rows.append({
                            "model": model.TABLE_NAME, "estimator": kind, "alpha": alpha,
                            "d": d, "sigma_perturb": sp, "M": spec.m_samples, "N": n,
                            "block": block, "snr_mean": float(blk.mean_snr[i]),
                            "slope": blk.slope,
                            "slope_lo": blk.slope - 2.0 * blk.slope_se,
                            "slope_hi": blk.slope + 2.0 * blk.slope_se,
                            "ref_slope": ref,
                            "snr_floor": floor, "at_floor": bool(blk.at_floor[i]),
                        })
    return rows


# --------------------------------------------------------------------------
# Weights experiment
# --------------------------------------------------------------------------

_HIST_BINS = 60


def run_weights_experiment(spec: ExperimentSpec) -> list:
    """Log-weight histograms, moments, and QQ normality correlation per
    (d, sigma_perturb); qq_corr is empty where the sample SD is 0."""
    rows = []
    grid_idx = 0
    for d in spec.ds:
        for sp, model in _variants(spec, d):
            n = spec.weight_samples
            # one cell of n replicates of N = 1: replicate r reads words
            # [r k, (r + 1) k), as one (n, k) draw would
            lrw, = _law_samples(model, [model.law_scalars()], spec.seed,
                                [(_OFF_WEIGHTS + grid_idx, 1)], n, lambda lrw: lrw[0, :, 0])
            grid_idx += 1
            mean, std = float(lrw.mean()), float(lrw.std(ddof=1))
            # a constant sample (the toy at theta = phi) has no QQ correlation
            corr = qq_points(lrw).correlation if std > 0 else None
            counts, edges = np.histogram(lrw, bins=_HIST_BINS)
            for i in range(_HIST_BINS):
                rows.append({"model": model.TABLE_NAME, "d": d, "sigma_perturb": sp,
                             "n_samples": n, "log_mean": mean, "log_std": std,
                             "qq_corr": corr, "bin_lo": float(edges[i]),
                             "bin_hi": float(edges[i + 1]), "count": int(counts[i])})
    return rows


# --------------------------------------------------------------------------
# Collapse experiment
# --------------------------------------------------------------------------

def run_collapse_experiment(spec: ExperimentSpec) -> list:
    """Monte Carlo means of the dominance statistic T, the max-weight share,
    and the effective sample size over fresh batches per (alpha, d, N)."""
    def collapse_stats(lrw):
        # (T, max share, ESS) per (variant, alpha), as (C, V, A, 3): replicates first
        return _diagnostics(lrw, spec.alphas).transpose(1, 0, 2, 3)

    rows = []
    for d, variants, stats in _law_grid(spec, _OFF_COLLAPSE, collapse_stats):
        for n, (mean, se) in zip(spec.n_grid, stats):
            for v_idx, (sp, model) in enumerate(variants):
                for a_idx, alpha in enumerate(spec.alphas):
                    row = {"model": model.TABLE_NAME, "alpha": alpha, "d": d,
                           "sigma_perturb": sp, "N": n, "replicates": spec.replicates}
                    for i, col in enumerate(("t", "max_share", "ess")):
                        row[f"{col}_mean"] = float(mean[v_idx, a_idx, i])
                        row[f"{col}_se"] = float(se[v_idx, a_idx, i])
                    rows.append(row)
    return rows


# --------------------------------------------------------------------------
# Training experiment
# --------------------------------------------------------------------------

def run_train_experiment(spec: ExperimentSpec) -> list:
    """Train the selected model and emit the trajectory as table rows."""
    _, model = _variants(spec, spec.ds[0])[0]
    traj = run_training(model, spec.train_config(), vrng.make_stream(spec.seed, _OFF_TRAIN))
    return [{"epoch": r.epoch, traj.progress_label: r.progress, "gap_mean": r.gap_mean,
             "gap_se": r.gap_se, "grad_norm": r.grad_norm} for r in traj.rows]


# --------------------------------------------------------------------------
# Table I/O
# --------------------------------------------------------------------------

def _cell(v):
    """A numpy scalar as its builtin value; `csv.writer` writes a float as
    its repr and None as "", and a numpy float's repr is np.float64(...)."""
    return v.item() if isinstance(v, np.generic) else v


def write_table(rows: Sequence[dict], spec: ExperimentSpec, path: Optional[str] = None) -> str:
    """Serialize rows with a metadata header; returns the text, optionally
    writing it to `path`.  Format comes from the spec (csv or json)."""
    if spec.format == "json":
        text = json.dumps({"schema_version": SCHEMA_VERSION, "spec": spec.echo(),
                           "rows": list(rows)}, sort_keys=True, indent=1,
                          default=_json_default) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# schema_version={SCHEMA_VERSION}\n")
        buf.write(f"# seed={spec.seed}\n")
        buf.write(f"# spec={json.dumps(spec.echo(), sort_keys=True, default=_json_default)}\n")
        if rows:
            columns = list(rows[0].keys())
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([_cell(row[c]) for c in columns] for row in rows)
        text = buf.getvalue()
    if path:
        with open(path, "w") as f:
            f.write(text)
    return text


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    raise TypeError(f"not JSON serializable: {type(v)}")


def _parse_cell(s: str):
    if s == "":
        return None
    if s in ("True", "False"):
        return s == "True"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def read_table(path: str) -> tuple[list, dict]:
    """Read a table written by write_table, CSV or JSON; returns (rows,
    metadata).  The metadata of either format holds the CSV header's
    strings: schema_version, seed and the spec as JSON.  A file that starts
    like a JSON table but is not one raises ValueError."""
    meta: dict = {}
    with open(path) as f:
        if f.read(1) == "{":
            f.seek(0)
            doc = json.load(f)
            spec, rows = doc.get("spec"), doc.get("rows")
            if not ("schema_version" in doc and isinstance(spec, dict) and "seed" in spec
                    and isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
                raise ValueError("a JSON table needs schema_version, a list of row objects "
                                 "as rows and a spec with a seed")
            return doc["rows"], {"schema_version": doc["schema_version"],
                                 "seed": str(spec["seed"]),
                                 "spec": json.dumps(spec, sort_keys=True)}
        f.seek(0)
        lines = []
        for line in f:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            else:
                lines.append(line)
    reader = csv.reader(lines)
    try:
        columns = next(reader)
    except StopIteration:
        return [], meta
    rows = [{c: _parse_cell(v) for c, v in zip(columns, rec)} for rec in reader]
    return rows, meta


# --------------------------------------------------------------------------
# SVG rendering
# --------------------------------------------------------------------------

_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]


def render_svg(rows: Sequence[dict], x_col: str, y_cols: Sequence[str], out_path: str) -> None:
    """Minimal static line plot: one polyline per y column.

    The x axis is log-scaled when plotting against the importance-sample
    count column "N".  Raises on an empty table or a missing column and
    writes nothing in that case.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("cannot render an empty table")
    for col in [x_col, *y_cols]:
        if col not in rows[0]:
            raise ValueError(f"missing column {col!r}")
    log_x = x_col == "N"

    width, height, margin = 640, 420, 56

    def xval(v):
        return math.log(v) if log_x else float(v)

    xs = [xval(r[x_col]) for r in rows]
    ys = [float(r[c]) for c in y_cols for r in rows
          if isinstance(r[c], (int, float)) and math.isfinite(float(r[c]))]
    if not ys:
        raise ValueError("no finite y values to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(v):
        return margin + (xval(v) - x_lo) / x_span * (width - 2 * margin)

    def py(v):
        return height - margin - (float(v) - y_lo) / y_span * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
             f'stroke="black"/>']
    for k, col in enumerate(y_cols):
        color = _PALETTE[k % len(_PALETTE)]
        pts = []
        for r in rows:
            v = r[col]
            if isinstance(v, (int, float)) and math.isfinite(float(v)):
                pts.append(f"{px(r[x_col]):.2f},{py(v):.2f}")
        if pts:
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                         f'points="{" ".join(pts)}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * k}" '
                     f'font-size="11" fill="{color}">{col}</text>')
    parts.append(f'<text x="{width // 2}" y="{height - margin // 4}" font-size="12" '
                 f'text-anchor="middle">{x_col}{" (log scale)" if log_x else ""}</text>')
    parts.append(f'<text x="{margin}" y="{margin - 10}" font-size="11">'
                 f'{y_lo:.4g} .. {y_hi:.4g}</text>')
    parts.append("</svg>")
    with open(out_path, "w") as f:
        f.write("\n".join(parts) + "\n")


# --------------------------------------------------------------------------
# Self-test
# --------------------------------------------------------------------------

@dataclass
class SelftestReport:
    checks: list = field(default_factory=list)  # (name, passed, detail)

    def record(self, name: str, passed: bool, detail: str = ""):
        self.checks.append((name, bool(passed), detail))

    @property
    def ok(self) -> bool:
        return all(p for _, p, _ in self.checks)


def selftest(seed: int = 0) -> SelftestReport:
    """Reduced-scale run of the library's invariants and oracle comparisons.

    Checks the algebraic bound identities, weight-diagnostic invariances,
    analytic scores against finite differences, rep/drep/FD gradient
    agreement, closed forms against the quadrature oracle, the refined
    extreme-value constant against a sampling oracle, the chi^2 draw's
    moments, and experiment determinism.  Tolerances are set so the outcome
    is seed-independent.
    """
    report = SelftestReport()
    rng0 = np.random.default_rng(seed)

    # bound algebra on random batches
    worst_mono, worst_iwae, worst_elbo, worst_decomp, worst_rbound = 0.0, 0.0, 0.0, 0.0, 0.0
    for _ in range(200):
        n = int(rng0.integers(1, 65))
        lw = rng0.uniform(-50, 50, size=n)     # relative log-weights
        prev = math.inf
        for alpha in np.linspace(0.0, 0.9, 10):
            v = vr_iwae_from_log_weights(lw, float(alpha))
            worst_mono = max(worst_mono, v - prev)
            prev = v
        worst_iwae = max(worst_iwae, abs(vr_iwae_from_log_weights(lw, 0.0)
                                         - (logsumexp(lw) - math.log(n))))
        worst_elbo = max(worst_elbo, abs(vr_iwae_from_log_weights(lw, 1.0 - 1e-9) - lw.mean()))
        for alpha in (0.0, 0.5):
            # the gap runner's split of a sample, at one beta
            dm, (rt,), (t,) = _split(lw, [1.0 - alpha], -1)
            worst_decomp = max(worst_decomp, abs(dm + rt - vr_iwae_from_log_weights(lw, alpha)))
            worst_rbound = max(worst_rbound, rt - t / (1.0 - alpha))
    report.record("bound_alpha_monotonicity", worst_mono <= 1e-10, f"max increase {worst_mono:.2e}")
    report.record("bound_iwae_identity", worst_iwae <= 1e-12, f"max dev {worst_iwae:.2e}")
    report.record("bound_elbo_limit", worst_elbo <= 1e-6, f"max dev {worst_elbo:.2e}")
    report.record("gap_decomposition_identity", worst_decomp <= 1e-10, f"max dev {worst_decomp:.2e}")
    report.record("remainder_bound", worst_rbound <= 1e-12, f"max excess {worst_rbound:.2e}")

    # weight diagnostics invariances, read as the collapse runner reads them:
    # (T, max share, ESS) at alpha 0.3, and T at alpha 0
    worst_shift, worst_share = 0.0, 0.0
    for _ in range(100):
        n = int(rng0.integers(2, 40))
        a = rng0.uniform(-50, 50, size=n)
        b = a + rng0.uniform(-50, 50)
        da, db = _diagnostics(a, [0.3, 0.0]), _diagnostics(b, [0.3])
        worst_shift = max(worst_shift, *np.abs(da[0] - db[0]))
        worst_share = max(worst_share, abs(da[0, 1] * (1.0 + da[1, 0]) - 1.0))
    report.record("weights_shift_invariance", worst_shift <= 1e-10, f"max dev {worst_shift:.2e}")
    report.record("weights_share_identity", worst_share <= 1e-10, f"max dev {worst_share:.2e}")

    # doubly-reparameterized coefficients, the h row of the estimators' weight
    # rows: at uniform weights, s = 1/8, and at one dominant weight, s = e_1
    h_ok = np.allclose(_weight_rows(np.zeros(8), 0.4)[1], 0.4 / 8 + 0.6 / 64) and np.allclose(
        _weight_rows(np.array([0.0, -np.inf, -np.inf]), 0.0)[1], [1.0, 0.0, 0.0])
    report.record("h_coefficients_values", bool(h_ok), "")

    # analytic scores vs the finite-difference oracle: at N = 1 and alpha = 0
    # the bound sample is log w itself, so its differences are the scores'
    worst_score = 0.0
    for _ in range(10):
        d = int(rng0.integers(1, 4))
        toy = GaussianToy(d=d, theta=rng0.normal(size=d), phi=rng0.normal(size=d))
        lg = LinearGaussian(d=d, theta=rng0.normal(size=d), a_tilde=rng0.normal(size=d),
                            b=rng0.normal(size=d), x=rng0.normal(size=d))
        for model in (toy, lg):
            eps = rng0.normal(size=(1, 1, d))
            d_theta, d_phi_total, _ = model.score_grads(eps, model.reparam(eps))
            for fd, score in zip(fd_grad_from_eps(model, eps, 0.0, 1e-5),
                                 (d_theta[:, 0], d_phi_total[:, 0])):
                worst_score = max(worst_score, float(np.max(np.abs(fd - score) / (1.0 + np.abs(fd)))))
    report.record("score_grads_vs_fd", worst_score <= 1e-5, f"max rel err {worst_score:.2e}")

    # rep vs drep vs FD gradient means (reduced replicates): every pair agrees
    # within 4 combined SEs on every coordinate, on common random numbers
    toy = GaussianToy(d=3, theta=np.zeros(3), phi=np.full(3, 0.5))
    key = (seed, _OFF_SELFTEST + 1)
    est = grad_mean_se(toy, 0.5, 4, 20_000, vrng.make_stream(*key))
    fd = fd_grad_oracle(toy, 0.5, 4, 1e-3, 20_000, vrng.make_stream(*key))
    worst_z = 0.0
    for a, b in ((est["rep"], est["drep"]), (est["rep"], fd), (est["drep"], fd)):
        for blk in ("theta", "phi"):
            diff = np.abs(getattr(a, f"{blk}_mean") - getattr(b, f"{blk}_mean"))
            se = np.sqrt(getattr(a, f"{blk}_se") ** 2 + getattr(b, f"{blk}_se") ** 2)
            z = np.where(se > 0, diff / np.where(se > 0, se, 1.0), np.where(diff > 0, np.inf, 0.0))
            worst_z = max(worst_z, float(z.max()))
    report.record("gradient_unbiasedness_reduced", worst_z <= 4.0, f"max z {worst_z:.2f}")

    # closed forms vs quadrature oracle; relative tolerance with an absolute
    # floor since the gap is exactly zero at alpha = 0
    worst_quad = 0.0
    for _ in range(4):
        d = int(rng0.integers(1, 3))
        lg = LinearGaussian(d=d, theta=rng0.normal(size=d), a_tilde=rng0.normal(size=d),
                            b=rng0.normal(size=d), x=rng0.normal(size=d))
        for alpha in (0.0, 0.5):
            gap, g2, *_ = closed_forms(lg, alpha)
            for exact, quad in ((gap, lingauss_gap_quadrature(lg, alpha)),
                                (g2, lingauss_gamma2_quadrature(lg, alpha))):
                tol = 1e-6 * max(abs(exact), abs(quad)) + 1e-9
                worst_quad = max(worst_quad, abs(exact - quad) / tol)
    report.record("lingauss_closed_forms_vs_quadrature", worst_quad <= 1.0,
                  f"worst err/tol {worst_quad:.2e}")

    # extreme-value constant vs sampling oracle
    stream = vrng.make_stream(seed, _OFF_SELFTEST)
    mins = vrng.standard_normal(stream, (200, 1000)).min(axis=1)
    dev = abs(float(mins.mean()) - expected_min_normal(1000, refined=True))
    report.record("extreme_value_refined_constant", dev <= 0.12, f"dev {dev:.3f}")

    # the chi^2 draw of the linear Gaussian's law: mean k and variance 2k
    k = 999
    x = vrng.chi_square(vrng.uniform(vrng.make_stream(seed, _OFF_SELFTEST + 2), (100_000, 3)), k)
    dev2 = (x - x.mean()) ** 2
    z_mean = abs(x.mean() - k) / (x.std(ddof=1) / math.sqrt(x.size))
    z_var = abs(x.var(ddof=1) - 2 * k) / (dev2.std(ddof=1) / math.sqrt(x.size))
    report.record("chi2_law_moments", max(z_mean, z_var) <= 5.0,
                  f"mean z {z_mean:.2f}, var z {z_var:.2f}")

    # experiment determinism
    tiny = ExperimentSpec(kind="gap", model="toy", alphas=(0.0, 0.5), ds=(2,),
                          n_grid=(2, 4, 8), replicates=64, seed=seed)
    r1 = write_table(run_gap_experiment(tiny), tiny)
    r2 = write_table(run_gap_experiment(tiny), tiny)
    report.record("experiment_determinism", r1 == r2, "")
    return report
