"""Checks of the benchmark's output tables against closed forms and
properties the method must have.

Every check returns a list of violations (strings); an empty list means the
table passed.  The closed forms are derived here, not taken from the
package, so a wrong formula in `vriwae` cannot vouch for itself:

* toy model, theta = 0 and phi = 1: B^2 = d, the ELBO gap is -B^2/2 and the
  VR error term is -alpha*B^2/2;
* linear Gaussian: with lambda^2 the mean squared distance between the
  posterior and the proposal mean, the ELBO gap is -d*a with
  a = lambda^2 + 1/6 + log(3/4)/2, the log-weight std is sqrt(d)*sigma with
  sigma^2 = 1/18 + (8/3)*lambda^2, and the VR error term is
  (d/2)*(log(4/3) + log(3/(4-alpha))/(1-alpha)) - 3*alpha/(4-alpha)*d*lambda^2.

Statistical checks allow K_SIGMA standard errors.  At 3 standard errors a
two-sided check fails on about 0.3% of rows of a correct program, which a
few hundred seeded runs would hit; at 5 it is below 1e-6 per row.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict

import numpy as np

K_SIGMA = 5.0
ONE_OVER_N_FLOOR = 0.002        # absolute floor of the 1/N-curve check (A3)
SNR_THETA_SLOPE = (0.3, 0.7)    # band of the theta SNR slopes (A6)
GAP_COLUMNS = ("model", "alpha", "d", "sigma_perturb", "N", "replicates",
               "mean_gap", "se_gap", "log_marginal", "elbo_gap", "pred_1n", "pred_ev")


class StrictJSONError(ValueError):
    """A JSON text holds NaN or +-Infinity, which strict JSON forbids."""


def _reject_constant(name):
    raise StrictJSONError(f"non-standard JSON constant {name}")


def strict_json_loads(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


# --------------------------------------------------------------------------
# Closed forms
# --------------------------------------------------------------------------

def toy_b2(d: int) -> float:
    """B^2 = ||theta - phi||^2 for the CLI's toy model, theta = 0, phi = u_d."""
    return float(d)


def toy_elbo_gap(b2: float) -> float:
    return -0.5 * b2


def toy_vr_gap(b2: float, alpha: float) -> float:
    return -0.5 * alpha * b2


def toy_one_over_n(b2: float, alpha: float, n: int) -> float:
    """Fixed-d curve vr_gap - gamma^2/(2N) of exactly log-normal weights."""
    gamma2 = math.expm1((1.0 - alpha) ** 2 * b2) / (1.0 - alpha)
    return toy_vr_gap(b2, alpha) - gamma2 / (2.0 * n)


def toy_bounds(row) -> tuple[float, float]:
    """(ELBO gap, VR error term) of a toy-model gap row."""
    b2 = toy_b2(row["d"])
    return toy_elbo_gap(b2), toy_vr_gap(b2, row["alpha"])


def toy_curve(row) -> float:
    """The 1/N curve at a toy-model gap row."""
    return toy_one_over_n(toy_b2(row["d"]), row["alpha"], row["N"])


def lingauss_lambda2(model) -> float:
    """Mean squared distance between posterior mean (theta+x)/2 and the
    proposal mean a*x + b, from the model's parameters."""
    diff = 0.5 * (model.theta + model.x) - (model.a_tilde * model.x + model.b)
    return float(np.mean(diff * diff))


def lingauss_elbo_gap(d: int, lam2: float) -> float:
    return -d * (lam2 + 1.0 / 6.0 + 0.5 * math.log(0.75))


def lingauss_vr_gap(d: int, lam2: float, alpha: float) -> float:
    return 0.5 * d * (math.log(4.0 / 3.0) + math.log(3.0 / (4.0 - alpha)) / (1.0 - alpha)) \
        - 3.0 * alpha / (4.0 - alpha) * d * lam2


def lingauss_log_weight_std(d: int, lam2: float) -> float:
    return math.sqrt(d * (1.0 / 18.0 + 8.0 / 3.0 * lam2))


# --------------------------------------------------------------------------
# gap
# --------------------------------------------------------------------------

def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_gap(rows, bounds_of, n_grid, alphas, one_over_n=None, marginal_of=None):
    """Checks of a gap table.

    bounds_of(row) -> (elbo_gap, vr_gap) closed forms of the row's model and
    alpha.  one_over_n(row), when given, is the 1/N curve each row must meet
    within max(K_SIGMA*se, ONE_OVER_N_FLOOR).  marginal_of(row), when given,
    is an independent value of the row's log_marginal.
    """
    bad = []
    groups = defaultdict(dict)
    for row in rows:
        missing = [c for c in GAP_COLUMNS if c not in row]
        if missing:
            return [f"gap row lacks columns {missing}"]
        g, se, n, alpha = row["mean_gap"], row["se_gap"], row["N"], row["alpha"]
        tag = f"gap d={row['d']} sp={row['sigma_perturb']} alpha={alpha} N={n}"
        if not _finite(g, se) or se <= 0:
            bad.append(f"{tag}: mean_gap {g!r}, se_gap {se!r} not finite and positive")
            continue
        lo, hi = bounds_of(row)
        slack = K_SIGMA * se
        if not lo - slack <= g <= hi + slack:
            bad.append(f"{tag}: mean_gap {g:.6g} outside [{lo:.6g}, {hi:.6g}] "
                       f"by more than {K_SIGMA:g} se ({se:.3g})")
        if abs(row["elbo_gap"] - lo) > 1e-9 * max(1.0, abs(lo)):
            bad.append(f"{tag}: elbo_gap column {row['elbo_gap']!r} != closed form {lo!r}")
        if one_over_n is not None:
            pred = one_over_n(row)
            tol = max(K_SIGMA * se, ONE_OVER_N_FLOOR)
            if abs(g - pred) > tol:
                bad.append(f"{tag}: mean_gap {g:.6g} is {abs(g - pred):.3g} from the 1/N "
                           f"curve {pred:.6g} (tolerance {tol:.3g})")
        if marginal_of is not None:
            ref = marginal_of(row)
            if abs(row["log_marginal"] - ref) > 1e-7 * max(1.0, abs(ref)):
                bad.append(f"{tag}: log_marginal {row['log_marginal']!r} != quadrature {ref!r}")
        groups[(row["d"], row["sigma_perturb"])][(alpha, n)] = row

    for (d, sp), cells in groups.items():
        if len(cells) != len(alphas) * len(n_grid):
            bad.append(f"gap d={d} sp={sp}: {len(cells)} rows, expected "
                       f"{len(alphas) * len(n_grid)}")
            continue
        # the runner reuses one set of draws across alpha, and the power mean
        # falls with alpha draw by draw, so only rounding may break the order
        for n in n_grid:
            seq = [cells[(a, n)]["mean_gap"] for a in sorted(alphas)]
            for a0, a1, g0, g1 in zip(sorted(alphas), sorted(alphas)[1:], seq, seq[1:]):
                if g1 > g0 + 1e-9 * max(1.0, abs(g0)):
                    bad.append(f"gap d={d} sp={sp} N={n}: mean_gap rises from {g0!r} "
                               f"at alpha={a0} to {g1!r} at alpha={a1}")
        for a in alphas:
            seq = [cells[(a, n)] for n in sorted(n_grid)]
            for r0, r1 in zip(seq, seq[1:]):
                slack = K_SIGMA * math.hypot(r0["se_gap"], r1["se_gap"])
                if r1["mean_gap"] < r0["mean_gap"] - slack:
                    bad.append(f"gap d={d} sp={sp} alpha={a}: mean_gap falls from "
                               f"{r0['mean_gap']:.6g} at N={r0['N']} to "
                               f"{r1['mean_gap']:.6g} at N={r1['N']} by more than "
                               f"{K_SIGMA:g} se")
    return bad


def check_gap_json(text: str, n_rows: int):
    """A gap table exported with --format json must be strict JSON with
    every gap column in each of its n_rows rows.  Raises StrictJSONError
    (the export failed) or returns violations."""
    doc = strict_json_loads(text)
    rows = doc.get("rows", [])
    if len(rows) != n_rows:
        return [f"json gap export has {len(rows)} rows, expected {n_rows}"]
    return [f"json gap row {i} lacks {c}" for i, r in enumerate(rows)
            for c in GAP_COLUMNS if c not in r]


# --------------------------------------------------------------------------
# collapse
# --------------------------------------------------------------------------

def check_collapse(rows, ds):
    """T in [0, N-1], max share in [1/N, 1], ESS in [1, N] on every row;
    mean T strictly falling with d at each (alpha, N)."""
    bad = []
    by_cell = defaultdict(dict)
    for row in rows:
        n = row["N"]
        tag = f"collapse d={row['d']} alpha={row['alpha']} N={n}"
        eps = 1e-12 * n
        for col, lo, hi in (("t_mean", 0.0, n - 1.0), ("max_share_mean", 1.0 / n, 1.0),
                            ("ess_mean", 1.0, float(n))):
            v = row[col]
            if not _finite(v) or not lo - eps <= v <= hi + eps:
                bad.append(f"{tag}: {col} {v!r} outside [{lo:.6g}, {hi:.6g}]")
        by_cell[(row["alpha"], n, row["sigma_perturb"])][row["d"]] = row["t_mean"]
    for (alpha, n, sp), t_by_d in by_cell.items():
        if sorted(t_by_d) != sorted(ds):
            bad.append(f"collapse alpha={alpha} N={n}: rows for d={sorted(t_by_d)}, "
                       f"expected {sorted(ds)}")
            continue
        ts = [t_by_d[d] for d in sorted(ds)]
        if not all(a > b for a, b in zip(ts, ts[1:])):
            bad.append(f"collapse alpha={alpha} N={n}: mean T {ts} does not fall "
                       f"strictly with d={sorted(ds)}")
    return bad


# --------------------------------------------------------------------------
# weights
# --------------------------------------------------------------------------

def check_weights(rows, law_of, n_samples):
    """log_mean and log_std within K_SIGMA sampling errors of the exact law
    (mean, std) = law_of(row); histogram counts summing to n_samples.

    The sampling errors are those of a normal sample: std/sqrt(n) for the
    mean and std/sqrt(2n) for the standard deviation.
    """
    bad = []
    groups = defaultdict(list)
    for row in rows:
        groups[(row["model"], row["d"], row["sigma_perturb"])].append(row)
    for (model, d, sp), grp in groups.items():
        tag = f"weights {model} d={d} sp={sp}"
        row = grp[0]
        mean, std = law_of(row)
        n = row["n_samples"]
        if n != n_samples:
            bad.append(f"{tag}: n_samples {n} != {n_samples}")
        if abs(row["log_mean"] - mean) > K_SIGMA * std / math.sqrt(n):
            bad.append(f"{tag}: log_mean {row['log_mean']:.6g} vs exact {mean:.6g}")
        if abs(row["log_std"] - std) > K_SIGMA * std / math.sqrt(2.0 * n):
            bad.append(f"{tag}: log_std {row['log_std']:.6g} vs exact {std:.6g}")
        total = sum(r["count"] for r in grp)
        if total != n:
            bad.append(f"{tag}: histogram counts sum to {total}, not {n}")
    return bad


# --------------------------------------------------------------------------
# snr
# --------------------------------------------------------------------------

def check_snr(rows, n_grid, alphas):
    """Theta SNRs identical between rep and drep at every (alpha, N), and
    theta slopes inside SNR_THETA_SLOPE."""
    bad = []
    theta = defaultdict(dict)
    slopes = {}
    for row in rows:
        if row["block"] != "theta":
            continue
        theta[(row["alpha"], row["N"])][row["estimator"]] = row["snr_mean"]
        slopes[(row["estimator"], row["alpha"])] = row["slope"]
    for alpha in alphas:
        for n in n_grid:
            cell = theta.get((alpha, n), {})
            if set(cell) != {"rep", "drep"}:
                bad.append(f"snr alpha={alpha} N={n}: theta rows for {sorted(cell)}")
            elif cell["rep"] != cell["drep"]:
                bad.append(f"snr alpha={alpha} N={n}: theta SNR rep {cell['rep']!r} != "
                           f"drep {cell['drep']!r}")
    lo, hi = SNR_THETA_SLOPE
    for (kind, alpha), slope in sorted(slopes.items()):
        if not (_finite(slope) and lo <= slope <= hi):
            bad.append(f"snr {kind} alpha={alpha}: theta slope {slope!r} outside [{lo}, {hi}]")
    return bad


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

def check_train(rows, epochs, log_every):
    """B^2/d starts at 1.0 and falls by the A11 trend rule (each logged value
    below the largest of the ten before it); gap_mean <= 3 gap_se."""
    bad = []
    expect = len(range(0, epochs + 1, log_every)) + (epochs % log_every != 0)
    if len(rows) != expect:
        return [f"train: {len(rows)} rows, expected {expect}"]
    prog = [r["bd2_over_d"] for r in rows]
    if abs(prog[0] - 1.0) > 1e-12:
        bad.append(f"train: B^2/d starts at {prog[0]!r}, not 1.0")
    for i in range(1, len(prog)):
        if not prog[i] < max(prog[max(0, i - 10):i]):
            bad.append(f"train epoch {rows[i]['epoch']}: B^2/d {prog[i]:.6g} breaks the "
                       f"decreasing trend")
    for r in rows:
        if not r["gap_mean"] <= 3.0 * r["gap_se"]:
            bad.append(f"train epoch {r['epoch']}: gap_mean {r['gap_mean']:.6g} > 3 se "
                       f"({r['gap_se']:.3g})")
    return bad
