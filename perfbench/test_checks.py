"""Tests of the benchmark's own table checks: each check accepts a table the
package really writes and rejects the same table made wrong.

Kept out of the tier-1 suite (pytest's testpaths is `tests`).  Run with

    PYTHONPATH=src python -m pytest perfbench/test_checks.py
"""

import json
import math
import os

import pytest

import checks
import run
import workloads
from vriwae.experiments import (ExperimentSpec, make_linear_gaussian, read_table,
                                run_collapse_experiment, run_gap_experiment,
                                run_snr_experiment, run_train_experiment,
                                run_weights_experiment, write_table)
from vriwae.models import lingauss_marginal_quadrature

N_FULL = (2, 4, 8, 16, 32, 64, 128, 256, 512)


def _table(tmp_path, runner, **fields):
    """Rows as the CLI writes them to CSV and the benchmark reads them back."""
    spec = ExperimentSpec(seed=3, **fields)
    path = str(tmp_path / f"{fields['kind']}.csv")
    write_table(runner(spec), spec, path=path)
    rows, _ = read_table(path)
    return rows


def test_gap_toy_rejects_row_above_vr_error_term(tmp_path):
    alphas, n_grid = (0.0, 0.5), (2, 8, 32)
    rows = _table(tmp_path, run_gap_experiment, kind="gap", model="toy", alphas=alphas,
                  ds=(100,), n_grid=n_grid, replicates=200)
    assert checks.check_gap(rows, checks.toy_bounds, n_grid, alphas) == []
    row = next(r for r in rows if r["alpha"] == 0.5 and r["N"] == 32)
    row["mean_gap"] = checks.toy_vr_gap(100, 0.5) + 6 * row["se_gap"]
    bad = checks.check_gap(rows, checks.toy_bounds, n_grid, alphas)
    assert any("outside" in v for v in bad)


def test_gap_rejects_alpha_and_n_order(tmp_path):
    alphas, n_grid = (0.0, 0.5), (2, 8, 32)
    rows = _table(tmp_path, run_gap_experiment, kind="gap", model="toy", alphas=alphas,
                  ds=(100,), n_grid=n_grid, replicates=200)
    a0 = next(r for r in rows if r["alpha"] == 0.0 and r["N"] == 8)
    a5 = next(r for r in rows if r["alpha"] == 0.5 and r["N"] == 8)
    a0["mean_gap"], a5["mean_gap"] = a5["mean_gap"], a0["mean_gap"]
    bad = checks.check_gap(rows, checks.toy_bounds, n_grid, alphas)
    assert len(bad) == 1 and "rises" in bad[0]
    a0["mean_gap"], a5["mean_gap"] = a5["mean_gap"], a0["mean_gap"]
    n2 = next(r for r in rows if r["alpha"] == 0.0 and r["N"] == 2)
    a0["mean_gap"] = n2["mean_gap"] - 6 * math.hypot(n2["se_gap"], a0["se_gap"])
    bad = checks.check_gap(rows, checks.toy_bounds, n_grid, alphas)
    assert any("falls from" in v for v in bad)


def test_gap_lowdim_rejects_row_off_the_one_over_n_curve(tmp_path):
    alphas, n_grid = (0.0, 0.5), (64, 256)
    rows = _table(tmp_path, run_gap_experiment, kind="gap", model="toy", alphas=alphas,
                  ds=(1,), n_grid=n_grid, replicates=5000)
    def check():
        return checks.check_gap(rows, checks.toy_bounds, n_grid, alphas,
                                one_over_n=checks.toy_curve)

    assert check() == []
    rows[0]["mean_gap"] -= 0.05      # alpha 0, N 64: still inside [-1/2, 0]
    bad = check()
    assert len(bad) == 1 and "1/N curve" in bad[0]


def test_gap_lingauss_closed_forms_and_marginal(tmp_path):
    d, alphas, n_grid, sps = 10, (0.0, 0.5), (2, 8, 32), (0.0, 0.01)
    rows = _table(tmp_path, run_gap_experiment, kind="gap", model="lingauss", alphas=alphas,
                  ds=(d,), n_grid=n_grid, replicates=200, sigma_perturbs=sps)
    models = {sp: make_linear_gaussian(d, sp, 3)[0] for sp in sps}

    def bounds_of(row):
        lam2 = checks.lingauss_lambda2(models[row["sigma_perturb"]])
        return (checks.lingauss_elbo_gap(d, lam2),
                checks.lingauss_vr_gap(d, lam2, row["alpha"]))

    def marginal_of(row):
        return lingauss_marginal_quadrature(models[row["sigma_perturb"]])

    assert checks.check_gap(rows, bounds_of, n_grid, alphas, marginal_of=marginal_of) == []
    rows[1]["log_marginal"] += 1e-3
    bad = checks.check_gap(rows, bounds_of, n_grid, alphas, marginal_of=marginal_of)
    assert len(bad) == 1 and "quadrature" in bad[0]


def test_collapse_rejects_t_outside_range_and_d_order(tmp_path):
    ds = (10, 100)
    rows = _table(tmp_path, run_collapse_experiment, kind="collapse", model="toy",
                  alphas=(0.0,), ds=ds, n_grid=(16,), replicates=100)
    assert checks.check_collapse(rows, ds) == []
    rows[1]["t_mean"] = 15.5         # N - 1 = 15
    bad = checks.check_collapse(rows, ds)
    assert any("t_mean" in v and "outside" in v for v in bad)
    assert any("does not fall" in v for v in bad)


def test_weights_rejects_moments_off_the_exact_law(tmp_path):
    rows = _table(tmp_path, run_weights_experiment, kind="weights", model="toy",
                  ds=(10, 100), weight_samples=5000)

    def law_of(row):
        b2 = checks.toy_b2(row["d"])
        return -0.5 * b2, math.sqrt(b2)

    assert checks.check_weights(rows, law_of, 5000) == []
    for r in rows:
        if r["d"] == 100:
            r["log_std"] *= 1.1
    rows[0]["count"] += 1
    bad = checks.check_weights(rows, law_of, 5000)
    assert any("log_std" in v for v in bad) and any("counts sum" in v for v in bad)


def test_snr_rejects_theta_snr_differing_between_rep_and_drep(tmp_path):
    alphas = (0.0, 0.5)
    rows = _table(tmp_path, run_snr_experiment, kind="snr", model="lingauss", alphas=alphas,
                  ds=(20,), n_grid=N_FULL, replicates=200, sigma_perturbs=(0.05,))
    assert checks.check_snr(rows, N_FULL, alphas) == []
    row = next(r for r in rows if r["estimator"] == "drep" and r["block"] == "theta")
    row["snr_mean"] *= 1.0 + 1e-12
    bad = checks.check_snr(rows, N_FULL, alphas)
    assert len(bad) == 1 and "!= drep" in bad[0]


def test_train_rejects_rising_trend(tmp_path):
    rows = _table(tmp_path, run_train_experiment, kind="train", model="toy", alphas=(0.2,),
                  ds=(100,), epochs=100, log_every=25, n_importance=20)
    assert checks.check_train(rows, 100, 25) == []
    rows[2]["bd2_over_d"] = 1.5
    bad = checks.check_train(rows, 100, 25)
    assert any("decreasing trend" in v for v in bad)


def test_strict_json_rejects_nan_and_accepts_null():
    with pytest.raises(checks.StrictJSONError):
        checks.strict_json_loads('{"x": NaN}')
    with pytest.raises(checks.StrictJSONError):
        checks.strict_json_loads('{"x": -Infinity}')
    assert checks.strict_json_loads('{"x": null}') == {"x": None}


def test_gap_json_export_fails_while_write_table_passes_nan_through():
    spec = ExperimentSpec(kind="gap", model="toy", alphas=(0.0,), ds=(10,), n_grid=(2, 4),
                          replicates=10, format="json")
    text = write_table(run_gap_experiment(spec), spec)
    with pytest.raises(checks.StrictJSONError):
        checks.check_gap_json(text, 2)
    # the same table with null in place of NaN passes
    fixed = json.dumps(json.loads(text), allow_nan=True).replace("NaN", "null")
    assert checks.check_gap_json(fixed, 2) == []


def test_benchmark_json_lists_what_a_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run._units_per_layer()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for name in run.WORKLOADS:
        assert workloads.build(name, 0)
