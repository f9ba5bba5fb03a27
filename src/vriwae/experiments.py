"""Deterministic experiment runners and their CSV/JSON/SVG outputs.

Every experiment is a pure function of (spec, seed).  Each experiment family
owns a disjoint stream_id block, and each grid cell reads its own stream
within it, by the package's one draw rule (see `rng`): replicate r of the
cell takes block r of the stream's words, so outputs are byte-identical no
matter how cells are scheduled, and agree to rounding across chunk sizes.
The gap and collapse cells draw whole chunks of replicates at a time
(`bounds._relative_weight_batches`).  Common random numbers are reused on
purpose across alpha values and across perturbation scales of the same grid
cell: the draws are i.i.d. for each configuration, and sharing them makes the
comparisons paired.  Each log-weight comes from its model's exact law
(`log_weight_law`), not d normals.

Output files are CSV with '#'-prefixed metadata header lines (schema version,
seed, spec echo) or a JSON mirror.  Gap tables carry both the prediction
baselines and their fit shape columns, so fitted constants can be recomputed
from the file alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
# ndtri is unused here, but perfbench/tracing.py wraps experiments.ndtri
from scipy.special import logsumexp, ndtri  # noqa: F401

from . import rng as vrng
from .asymptotics import expected_min_normal, fit_constant, one_over_n_curve
from .bounds import _relative_weight_batches, decomposition_sample, vr_iwae_from_log_weights
from .gradients import (SNR_MIN_REPLICATES, fd_grad_from_eps, fd_grad_oracle, grad_mean_se,
                        h_coefficients, snr_floor, snr_sweep)
from .models import (GaussianToy, LinearGaussian, lingauss_analytics,
                     lingauss_gamma2_quadrature, lingauss_gap_quadrature,
                     optimal_params, perturb_params)
from .train import _ESTIMATORS, _OPTIMIZERS, DEFAULT_LEARNING_RATE, TrainConfig, run_training
from .weights import LogWeights, _MeanSE, ess, max_weight_share, qq_points, t_statistic

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
# the type of each numeric spec field (of each item, for the grid fields,
# which take a list or tuple): an int is a float too, a bool is neither
_NUMERIC_FIELDS = {**dict.fromkeys(("replicates", "seed", "weight_samples", "m_samples",
                                    "coordinate_sample", "epochs", "n_importance", "log_every",
                                    "ds", "n_grid"), int),
                   **dict.fromkeys(("alphas", "sigma_perturbs", "theta_scale", "learning_rate"),
                                   float)}
_GRID_FIELDS = ("alphas", "ds", "n_grid", "sigma_perturbs")
_KINDS = ("gap", "snr", "weights", "collapse", "train")
_MODELS = (GaussianToy.TABLE_NAME, LinearGaussian.TABLE_NAME)


@dataclass
class ExperimentSpec:
    """Grid and output description shared by all experiment kinds."""

    kind: str
    model: str = "toy"                       # "toy" | "lingauss"
    alphas: tuple = (0.0, 0.2, 0.5)
    ds: tuple = (10, 100, 1000)
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
        for name, cast in _NUMERIC_FIELDS.items():
            value, grid = getattr(self, name), name in _GRID_FIELDS
            kind = numbers.Integral if cast is int else numbers.Real
            items = value if grid and isinstance(value, (list, tuple)) else [value]
            if (grid and not isinstance(value, (list, tuple))) or any(
                    isinstance(x, bool) or not isinstance(x, kind) for x in items
                    if not (name == "learning_rate" and x is None)):
                raise ValueError(f"{name} must be {'a list of ' if grid else ''}"
                                 f"{cast.__name__}, got {value!r}")
            if grid:
                setattr(self, name, tuple(cast(x) for x in value))
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}, got {self.estimator!r}")
        if self.optimizer not in _OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {_OPTIMIZERS}, got {self.optimizer!r}")
        if any(d < 1 for d in self.ds):
            raise ValueError(f"ds must be >= 1, got {self.ds}")
        if any(n < 1 for n in self.n_grid):
            raise ValueError(f"n_grid must be >= 1, got {self.n_grid}")
        if self.replicates < 2:
            raise ValueError(f"replicates must be >= 2 for a standard error, got {self.replicates}")
        if self.kind == "snr" and self.replicates < SNR_MIN_REPLICATES:
            raise ValueError(f"replicates must be >= {SNR_MIN_REPLICATES} for snr, "
                             f"got {self.replicates}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if any(not s >= 0 for s in self.sigma_perturbs):
            raise ValueError(f"sigma_perturbs must be >= 0, got {self.sigma_perturbs}")
        if self.m_samples < 1:
            raise ValueError(f"m_samples must be >= 1, got {self.m_samples}")
        if self.coordinate_sample < 1:
            raise ValueError(f"coordinate_sample must be >= 1, got {self.coordinate_sample}")
        if self.weight_samples < 2:
            raise ValueError(f"weight_samples must be >= 2, got {self.weight_samples}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate is not None and not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.n_importance < 1:
            raise ValueError(f"n_importance must be >= 1, got {self.n_importance}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")
        if any(not 0.0 <= a <= 1.0 for a in self.alphas):
            raise ValueError("alphas must lie in [0, 1]")
        if self.kind in ("gap", "collapse") and 1.0 in self.alphas:
            # the closed-form error term and gamma^2 divide by 1 - alpha, and
            # T is defined for alpha in [0, 1)
            raise ValueError(f"alphas must lie in [0, 1) for {self.kind}, got 1.0")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")

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
    own seed-keyed stream, as is the perturbation noise, so the same
    (seed, d, T) always yields the same instance; sigma_perturb only scales
    the shared perturbation directions.  Returns (model, (x, rest)).
    """
    models, stats = _linear_gaussians(d, (sigma_perturb,), seed, t)
    return models[0], stats


def _linear_gaussians(d: int, sigma_perturbs: Sequence[float], seed: int, t: int = 1024):
    """`make_linear_gaussian` for several sigma_perturb at once: x and rest
    are drawn once, and each perturbation from a fresh copy of the
    (seed, _OFF_PERTURB + d) stream, so every model is the one
    `make_linear_gaussian(d, sigma_perturb, seed, t)` returns."""
    x = math.sqrt(2.0) * vrng.standard_normal(vrng.make_stream(seed, _OFF_DATAPOINT + d), d)
    rest = math.sqrt(2.0 * (t - 1)) * vrng.standard_normal(
        vrng.make_stream(seed, _OFF_DATASET + d), d)
    params = optimal_params(x, rest, t)
    models = []
    for sp in sigma_perturbs:
        theta, a_tilde, b = perturb_params(params, sp, vrng.make_stream(seed, _OFF_PERTURB + d))
        models.append(LinearGaussian(d=d, theta=theta, a_tilde=a_tilde, b=b, x=x))
    return models, (x, rest)


def _variants(spec: ExperimentSpec, d: int) -> list:
    """(sigma_perturb, model) pairs for one dimension of the grid.

    The toy model has no perturbation notion; its sigma_perturb is None and
    serializes to an empty CSV cell.
    """
    if spec.model == "toy":
        return [(None, make_toy(d, spec.theta_scale))]
    return list(zip(spec.sigma_perturbs, _linear_gaussians(d, spec.sigma_perturbs, spec.seed)[0]))


# --------------------------------------------------------------------------
# Gap experiment
# --------------------------------------------------------------------------

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
    n_grid = spec.n_grid
    for d_idx, d in enumerate(spec.ds):
        variants = _variants(spec, d)
        models = [m for _, m in variants]
        # gap samples per (variant, alpha, n, replicate), aggregated on the fly
        means = np.empty((len(variants), len(spec.alphas), len(n_grid)))
        ses = np.empty_like(means)
        for n_idx, n in enumerate(n_grid):
            cell = _OFF_GAP + d_idx * len(n_grid) + n_idx
            acc = _MeanSE((len(variants), len(spec.alphas)))
            for start, stop, lrw in _relative_weight_batches(models, n, spec.replicates,
                                                             spec.seed, cell):
                # (C, V, A): replicates first, as the reducer expects
                acc.add(np.stack([vr_iwae_from_log_weights(lrw, alpha, axis=-1).T
                                  for alpha in spec.alphas], axis=-1))
            means[:, :, n_idx], ses[:, :, n_idx] = acc.finalize()

        for v_idx, (sp, model) in enumerate(variants):
            for a_idx, alpha in enumerate(spec.alphas):
                rows.extend(_gap_rows(spec, model, sp, alpha, n_grid,
                                      means[v_idx, a_idx], ses[v_idx, a_idx]))
    return rows


def _gap_rows(spec, model, sigma_perturb, alpha, n_grid, mean_gap, se_gap):
    log_marginal = model.log_marginal()
    error_term, gamma2, elbo_gap, ev_base, ev_shape = model.gap_theory(alpha, n_grid)
    one_n_base = [one_over_n_curve(n, error_term, gamma2, 0.0) if math.isfinite(gamma2)
                  else math.nan for n in n_grid]
    one_n_shape = [1.0 / n for n in n_grid]

    c1, rms_1n = _masked_fit(one_n_base, one_n_shape, mean_gap)
    c2, rms_ev = _masked_fit(ev_base, ev_shape, mean_gap)

    out = []
    for i, n in enumerate(n_grid):
        out.append({
            "model": model.TABLE_NAME,
            "alpha": alpha, "d": model.d, "sigma_perturb": sigma_perturb, "N": n,
            "replicates": spec.replicates,
            "mean_gap": float(mean_gap[i]), "se_gap": float(se_gap[i]),
            "mean_bound": float(mean_gap[i] + log_marginal),
            "log_marginal": log_marginal, "elbo_gap": elbo_gap,
            "pred_1n": one_n_base[i], "shape_1n": one_n_shape[i],
            "pred_1n_fit": one_n_base[i] + c1 * one_n_shape[i] if not math.isnan(c1) else math.nan,
            "c1": c1, "rms_1n": rms_1n,
            "pred_ev": ev_base[i], "shape_ev": ev_shape[i],
            "pred_ev_fit": ev_base[i] + c2 * ev_shape[i] if not math.isnan(c2) else math.nan,
            "c2": c2, "rms_ev": rms_ev,
        })
    return out


def _masked_fit(base, shape, observed):
    base = np.asarray(base, dtype=np.float64)
    shape = np.asarray(shape, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    ok = np.isfinite(base) & np.isfinite(shape) & np.isfinite(observed)
    if ok.sum() < 1 or not np.any(shape[ok] != 0):
        return math.nan, math.nan
    return fit_constant(base[ok], shape[ok], observed[ok])


def fit_gap_table(rows: Sequence[dict]) -> list:
    """Re-fit the curve constants per (model, alpha, d, sigma_perturb) group
    of a gap table, from its stored baseline and shape columns alone."""
    groups: dict[tuple, list] = {}
    for row in rows:
        key = (row["model"], row["alpha"], row["d"], row["sigma_perturb"])
        groups.setdefault(key, []).append(row)
    out = []
    for (model, alpha, d, sp), grp in groups.items():
        grp = sorted(grp, key=lambda r: r["N"])
        gaps = [r["mean_gap"] for r in grp]
        c1, rms_1n = _masked_fit([r["pred_1n"] for r in grp],
                                 [r["shape_1n"] for r in grp], gaps)
        c2, rms_ev = _masked_fit([r["pred_ev"] for r in grp],
                                 [r["shape_ev"] for r in grp], gaps)
        out.append({"model": model, "alpha": alpha, "d": d, "sigma_perturb": sp,
                    "c1": c1, "rms_1n": rms_1n, "c2": c2, "rms_ev": rms_ev})
    return out


# --------------------------------------------------------------------------
# SNR experiment
# --------------------------------------------------------------------------

SNR_COLUMNS = ["model", "estimator", "alpha", "d", "sigma_perturb", "M", "N",
               "block", "snr_mean", "slope", "slope_lo", "slope_hi", "ref_slope",
               "snr_floor", "at_floor"]


def run_snr_experiment(spec: ExperimentSpec) -> list:
    """SNR of rep and drep gradient estimators over the grid, with log-log
    slope fits and the theoretical +-1/2 reference slopes.

    Health columns: snr_floor is sqrt(2/(pi R)), the SNR a zero-mean
    coordinate reads over R replicates, and at_floor marks rows whose
    snr_mean is below twice that floor, where the SNR cannot be read.
    """
    rows = []
    floor = snr_floor(spec.replicates)
    grid_idx = 0
    for d in spec.ds:
        for sp, model in _variants(spec, d):
            for alpha in spec.alphas:
                stream = vrng.make_stream(spec.seed, _OFF_SNR + grid_idx * 4096)
                grid_idx += 1
                report = snr_sweep(model, alpha, spec.m_samples, spec.n_grid,
                                   spec.replicates, spec.coordinate_sample, stream)
                for (kind, block), blk in sorted(report.blocks.items()):
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
            stream = vrng.make_stream(spec.seed, _OFF_WEIGHTS + grid_idx)
            grid_idx += 1
            n = spec.weight_samples
            lrw = model.log_weight_law(vrng.uniform(stream, (n, model.LAW_WORDS)))
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
    rows = []
    for d_idx, d in enumerate(spec.ds):
        variants = _variants(spec, d)
        models = [m for _, m in variants]
        for n_idx, n in enumerate(spec.n_grid):
            cell = _OFF_COLLAPSE + d_idx * len(spec.n_grid) + n_idx
            # (T, max share, ESS) per (variant, alpha)
            acc = _MeanSE((len(variants), len(spec.alphas), 3))
            for start, stop, lrw in _relative_weight_batches(models, n, spec.replicates,
                                                             spec.seed, cell):
                t = np.stack([t_statistic(lrw, alpha) for alpha in spec.alphas], axis=-1)
                share, e = max_weight_share(lrw)[..., None], ess(lrw)[..., None]
                stats = np.stack(np.broadcast_arrays(t, share, e), axis=-1)
                acc.add(stats.transpose(1, 0, 2, 3))  # (C, V, A, 3): replicates first
            mean, se = acc.finalize()
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
    config = TrainConfig(alpha=spec.alphas[0], n_importance=spec.n_importance,
                         estimator=spec.estimator, optimizer=spec.optimizer,
                         learning_rate=(DEFAULT_LEARNING_RATE if spec.learning_rate is None
                                        else spec.learning_rate),
                         epochs=spec.epochs, log_every=spec.log_every)
    traj = run_training(model, config, vrng.make_stream(spec.seed, _OFF_TRAIN))
    return [{"epoch": r.epoch, traj.progress_label: r.progress, "gap_mean": r.gap_mean,
             "gap_se": r.gap_se, "grad_norm": r.grad_norm} for r in traj.rows]


# --------------------------------------------------------------------------
# Table I/O
# --------------------------------------------------------------------------

def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


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
            for row in rows:
                writer.writerow([_format_cell(row[c]) for c in columns])
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
    strings: schema_version, seed and the spec as JSON."""
    meta: dict = {}
    with open(path) as f:
        if f.read(1) == "{":
            f.seek(0)
            doc = json.load(f)
            spec = doc["spec"]
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
    extreme-value constant against a sampling oracle, and experiment
    determinism.  Tolerances are set so the outcome is seed-independent.
    """
    report = SelftestReport()
    rng0 = np.random.default_rng(seed)

    # bound algebra on random batches
    worst_mono, worst_iwae, worst_elbo, worst_decomp, worst_rbound = 0.0, 0.0, 0.0, 0.0, 0.0
    for _ in range(200):
        n = int(rng0.integers(1, 65))
        lw = LogWeights(rng0.uniform(-50, 50, size=n), log_marginal=0.0)
        prev = math.inf
        for alpha in np.linspace(0.0, 0.9, 10):
            v = vr_iwae_from_log_weights(lw.values, float(alpha))
            worst_mono = max(worst_mono, v - prev)
            prev = v
        worst_iwae = max(worst_iwae, abs(vr_iwae_from_log_weights(lw.values, 0.0)
                                         - (logsumexp(lw.values) - math.log(n))))
        worst_elbo = max(worst_elbo, abs(vr_iwae_from_log_weights(lw.values, 1.0 - 1e-9)
                                         - lw.values.mean()))
        for alpha in (0.0, 0.5):
            dm, rt, t = decomposition_sample(lw, alpha)
            worst_decomp = max(worst_decomp, abs(dm + rt - vr_iwae_from_log_weights(lw.values, alpha)))
            worst_rbound = max(worst_rbound, rt - t / (1.0 - alpha))
    report.record("bound_alpha_monotonicity", worst_mono <= 1e-10, f"max increase {worst_mono:.2e}")
    report.record("bound_iwae_identity", worst_iwae <= 1e-12, f"max dev {worst_iwae:.2e}")
    report.record("bound_elbo_limit", worst_elbo <= 1e-6, f"max dev {worst_elbo:.2e}")
    report.record("gap_decomposition_identity", worst_decomp <= 1e-10, f"max dev {worst_decomp:.2e}")
    report.record("remainder_bound", worst_rbound <= 1e-12, f"max excess {worst_rbound:.2e}")

    # weight diagnostics invariances
    worst_shift, worst_share = 0.0, 0.0
    for _ in range(100):
        n = int(rng0.integers(2, 40))
        a = rng0.uniform(-50, 50, size=n)
        b = a + rng0.uniform(-50, 50)
        worst_shift = max(worst_shift,
                          abs(t_statistic(a, 0.3) - t_statistic(b, 0.3)),
                          abs(max_weight_share(a) - max_weight_share(b)),
                          abs(ess(a) - ess(b)))
        worst_share = max(worst_share, abs(max_weight_share(a) * (1.0 + t_statistic(a, 0.0)) - 1.0))
    report.record("weights_shift_invariance", worst_shift <= 1e-10, f"max dev {worst_shift:.2e}")
    report.record("weights_share_identity", worst_share <= 1e-10, f"max dev {worst_share:.2e}")

    # doubly-reparameterized coefficients
    s = np.full(8, 0.125)
    h = h_coefficients(s, 0.4)
    h_ok = np.allclose(h, 0.4 / 8 + 0.6 / 64) and np.allclose(
        h_coefficients(np.array([1.0, 0.0, 0.0]), 0.0), [1.0, 0.0, 0.0])
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
    rep = grad_mean_se(toy, 0.5, 4, 20_000, vrng.make_stream(*key), "rep")
    drep = grad_mean_se(toy, 0.5, 4, 20_000, vrng.make_stream(*key), "drep")
    fd = fd_grad_oracle(toy, 0.5, 4, 1e-3, 20_000, vrng.make_stream(*key))
    worst_z = 0.0
    for a, b in ((rep, drep), (rep, fd), (drep, fd)):
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
            gap, g2, *_ = lingauss_analytics(lg, alpha)
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

    # experiment determinism
    tiny = ExperimentSpec(kind="gap", model="toy", alphas=(0.0, 0.5), ds=(2,),
                          n_grid=(2, 4, 8), replicates=64, seed=seed)
    r1 = write_table(run_gap_experiment(tiny), tiny)
    r2 = write_table(run_gap_experiment(tiny), tiny)
    report.record("experiment_determinism", r1 == r2, "")
    return report
