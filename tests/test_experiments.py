import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from vriwae import experiments
from vriwae import rng as vrng
from vriwae.experiments import (SNR_COLUMNS, ExperimentSpec, fit_gap_table,
                                make_linear_gaussian, make_toy, read_table, render_svg,
                                run_collapse_experiment, run_gap_experiment,
                                run_snr_experiment, run_train_experiment,
                                run_weights_experiment, selftest, write_table)
from vriwae.weights import ess, max_weight_share, t_statistic


def small_gap_spec(**kw):
    base = dict(kind="gap", model="toy", alphas=(0.0, 0.5), ds=(2,),
                n_grid=(2, 4, 8), replicates=200, seed=1)
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(kind="gap", n_grid=(4, 2))
    with pytest.raises(ValueError):
        ExperimentSpec(kind="gap", alphas=(0.0, 1.5))
    with pytest.raises(ValueError):
        ExperimentSpec(kind="gap", format="xml")
    for kw, field in ((dict(kind="plot"), "kind"), (dict(model="gauss"), "model"),
                      (dict(ds=(10, 0)), "ds"), (dict(n_grid=(0, 2)), "n_grid"),
                      (dict(replicates=1), "replicates"),
                      (dict(kind="snr", replicates=99), "replicates"),
                      (dict(weight_samples=1), "weight_samples"),
                      (dict(kind="train", epochs=-1), "epochs"),
                      (dict(kind="train", learning_rate=0.0), "learning_rate"),
                      (dict(kind="train", learning_rate=-1.0), "learning_rate"),
                      (dict(kind="train", n_importance=0), "n_importance"),
                      (dict(kind="train", log_every=0), "log_every"),
                      (dict(seed=-1), "seed"), (dict(seed=2**64), "seed"),
                      (dict(sigma_perturbs=(0.1, -0.1)), "sigma_perturbs"),
                      (dict(sigma_perturbs=(math.nan,)), "sigma_perturbs"),
                      (dict(kind="snr", m_samples=0), "m_samples"),
                      (dict(kind="snr", coordinate_sample=0), "coordinate_sample"),
                      (dict(seed=1.5), "seed"), (dict(seed=True), "seed"),
                      (dict(ds=10), "ds"), (dict(n_grid=(2.0, 4.0)), "n_grid"),
                      (dict(alphas=(True,)), "alphas"), (dict(theta_scale="1"), "theta_scale"),
                      (dict(kind="train", learning_rate="0.1"), "learning_rate")):
        with pytest.raises(ValueError, match=field):
            ExperimentSpec(**{"kind": "gap", **kw})


# the flags of every CLI call below, by the spec field each sets
_CLI_BASE = {"ds": ["--d", "10"], "n_grid": ["--n-grid", "2", "4"], "alphas": ["--alpha", "0"],
             "replicates": ["--replicates", "10"], "seed": ["--seed", "0"]}


def _cli_base(skip=()):
    """The shared flags, less those of the fields in `skip`: an explicit flag
    overrides the --config value of its field."""
    return [arg for key, flags in _CLI_BASE.items() if key not in skip for arg in flags]


# a dict in `bad` is written to a JSON file and passed as --config
@pytest.mark.parametrize("command, bad, field", [
    ("gap", ["--replicates", "0"], "replicates"),
    ("gap", ["--replicates", "1"], "replicates"),
    ("collapse", ["--replicates", "0"], "replicates"),
    ("gap", ["--d", "0"], "ds"),
    ("gap", ["--n-grid", "0", "2"], "n_grid"),
    ("weights", ["--weight-samples", "1"], "weight_samples"),
    ("gap", [{"model": "gauss"}], "model"),
    ("snr", ["--replicates", "50"], "replicates"),
    ("train", ["--lr", "0"], "learning_rate"),
    ("train", ["--lr", "-1"], "learning_rate"),
    ("train", ["--log-every", "0"], "log_every"),
    ("train", ["--n-importance", "0"], "n_importance"),
    ("train", ["--epochs", "-1"], "epochs"),
    ("gap", ["--seed", "-1"], "seed"),
    ("gap", ["--seed", str(2**64)], "seed"),
    ("gap", ["--model", "lingauss", "--sigma-perturb", "0", "-0.1"], "sigma_perturbs"),
    ("snr", [{"m_samples": 0}, "--replicates", "100"], "m_samples"),
    ("snr", [{"coordinate_sample": 0}, "--replicates", "100"], "coordinate_sample"),
    ("gap", [{"seed": 1.5}], "seed"),
    ("gap", [{"ds": [2.7]}], "ds"),
    ("gap", [{"ds": 10}], "ds"),
    ("gap", [{"replicates": "20"}], "replicates"),
    ("gap", [{"replicates": 2.9}], "replicates"),
    ("gap", [{"seed": True}], "seed"),
    ("gap", [{"estimator": "nope"}], "estimator"),
    ("gap", [{"optimizer": "nope"}], "optimizer"),
    ("train", [{"estimator": "nope"}, "--epochs", "2"], "estimator"),
    ("train", [{"optimizer": "nope"}, "--epochs", "2"], "optimizer"),
    ("gap", ["--alpha", "0", "1"], "alphas"),
    ("gap", ["--model", "lingauss", "--alpha", "1"], "alphas"),
    ("collapse", ["--alpha", "0.5", "1"], "alphas"),
], ids=["gap-replicates-0", "gap-replicates-1", "collapse-replicates-0", "gap-d-0",
        "gap-n-0", "weights-samples-1", "config-model", "snr-replicates-50",
        "train-lr-0", "train-lr-neg", "train-log-every-0", "train-n-importance-0",
        "train-epochs-neg", "gap-seed-neg", "gap-seed-2-64", "gap-sigma-perturb-neg",
        "snr-config-m-samples-0", "snr-config-coordinate-sample-0", "config-seed-float",
        "config-ds-float", "config-ds-int", "config-replicates-str", "config-replicates-float",
        "config-seed-bool", "gap-config-estimator", "gap-config-optimizer",
        "train-config-estimator", "train-config-optimizer", "gap-alpha-1-toy",
        "gap-alpha-1-lingauss", "collapse-alpha-1"])
def test_cli_rejects_invalid_spec(tmp_path, capsys, command, bad, field):
    from vriwae.cli import main
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "table.csv"
    configured = [key for arg in bad if isinstance(arg, dict) for key in arg]
    argv = [command, *_cli_base(skip=configured)]
    for arg in bad:
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg))
            argv += ["--config", str(cfg)]
        else:
            argv.append(arg)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"{command}: {field} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"replicate": 5, "model": "toy"}, "unknown config key(s) replicate in"),
    ([5], "must hold a JSON object"),
], ids=["unknown-key", "not-an-object"])
def test_cli_rejects_malformed_config(tmp_path, capsys, config, message):
    # a misspelt key would otherwise run at the field's default
    from vriwae.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "table.csv"
    with pytest.raises(SystemExit) as exc:
        main(["gap", *_cli_base(), "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_gap_experiment_columns_and_determinism():
    spec = small_gap_spec()
    rows1 = run_gap_experiment(spec)
    rows2 = run_gap_experiment(spec)
    assert write_table(rows1, spec) == write_table(rows2, spec)
    assert len(rows1) == 2 * 3  # alphas x n_grid
    for row in rows1:
        assert row["mean_bound"] == pytest.approx(row["mean_gap"])  # toy marginal is 0
        assert math.isfinite(row["se_gap"])


def test_gap_matched_params_all_zero():
    spec = small_gap_spec(theta_scale=1.0)  # theta = phi = u_d
    rows = run_gap_experiment(spec)
    for row in rows:
        assert row["mean_gap"] == 0.0
        assert row["c1"] == pytest.approx(0.0, abs=1e-12)


def test_gap_prediction_matches_one_over_n_formula():
    # d=1 toy at alpha=0.5: pred_1n at N=1024 is about -2.5109 for B^2=10;
    # here check the stored baseline columns are self-consistent instead
    spec = small_gap_spec()
    rows = run_gap_experiment(spec)
    for row in rows:
        if not math.isnan(row["pred_1n_fit"]):
            assert row["pred_1n_fit"] == pytest.approx(
                row["pred_1n"] + row["c1"] * row["shape_1n"], abs=1e-10)
        if row["N"] >= 3 and not math.isnan(row["pred_ev_fit"]):
            assert row["pred_ev_fit"] == pytest.approx(
                row["pred_ev"] + row["c2"] * row["shape_ev"], abs=1e-10)
        if row["N"] < 3:
            assert math.isnan(row["pred_ev"])


def test_gap_lingauss_runs_with_perturbations():
    spec = ExperimentSpec(kind="gap", model="lingauss", alphas=(0.0,), ds=(3,),
                          n_grid=(2, 4), replicates=100, seed=2,
                          sigma_perturbs=(0.0, 0.5))
    rows = run_gap_experiment(spec)
    assert len(rows) == 4
    sps = sorted({row["sigma_perturb"] for row in rows})
    assert sps == [0.0, 0.5]
    for row in rows:
        assert row["mean_bound"] == pytest.approx(row["mean_gap"] + row["log_marginal"])


def test_lingauss_variants_match_make_linear_gaussian(monkeypatch):
    # x and the sum of the other data points are drawn once per d for all
    # sigma_perturb; every model, and so every table, is byte-identical to
    # building each sigma_perturb's instance on its own with make_linear_gaussian
    spec = ExperimentSpec(kind="gap", model="lingauss", alphas=(0.0, 0.5), ds=(3, 5),
                          n_grid=(2, 4), replicates=20, seed=4,
                          sigma_perturbs=(0.0, 0.1, 0.3))
    for d in spec.ds:
        variants = experiments._variants(spec, d)
        assert [sp for sp, _ in variants] == list(spec.sigma_perturbs)
        for sp, model in variants:
            ref = make_linear_gaussian(d, sp, spec.seed)[0]
            for name in ("theta", "a_tilde", "b", "x"):
                assert getattr(model, name).tobytes() == getattr(ref, name).tobytes()
    tables = [write_table(run(spec), spec) for run in (run_gap_experiment,
                                                       run_collapse_experiment)]
    monkeypatch.setattr(experiments, "_variants", lambda spec, d: [
        (sp, make_linear_gaussian(d, sp, spec.seed)[0]) for sp in spec.sigma_perturbs])
    assert tables == [write_table(run(spec), spec) for run in (run_gap_experiment,
                                                               run_collapse_experiment)]


_CHUNK_SPECS = {
    model: dict(model=model, alphas=(0.0, 0.5), ds=(1, 3), n_grid=(2, 8), replicates=40,
                seed=5, sigma_perturbs=(0.0, 0.3))
    for model in ("toy", "lingauss")}
_CHUNK_REFS: dict = {}


def _chunk_tables(model):
    return {kind: run(ExperimentSpec(kind=kind, **_CHUNK_SPECS[model]))
            for kind, run in (("gap", run_gap_experiment),
                              ("collapse", run_collapse_experiment))}


@settings(max_examples=12, deadline=None)
@given(target=st.integers(min_value=1, max_value=400),
       model=st.sampled_from(sorted(_CHUNK_SPECS)))
def test_gap_and_collapse_independent_of_chunk_size(target, model):
    # replicate r always reads block r of its cell's stream, so the chunk size
    # only changes how the reducer merges batches: the tables agree to rounding
    if model not in _CHUNK_REFS:
        _CHUNK_REFS[model] = _chunk_tables(model)
    with mock.patch.object(vrng, "_CHUNK_TARGET", target):
        got = _chunk_tables(model)
    for kind, ref_rows in _CHUNK_REFS[model].items():
        assert len(got[kind]) == len(ref_rows)
        for ref, row in zip(ref_rows, got[kind]):
            assert ref.keys() == row.keys()
            for key, value in ref.items():
                if isinstance(value, float) and not math.isnan(value):
                    assert row[key] == pytest.approx(value, rel=1e-9, abs=1e-12), (kind, key)
                elif isinstance(value, float):
                    assert math.isnan(row[key])
                else:
                    assert row[key] == value


def _by_hand_cells(spec):
    """{(alpha, d, sigma_perturb, N): {column: (mean, se)}} by hand: cell
    (d_idx, n_idx) reads the stream at the family offset + d_idx * len(n_grid)
    + n_idx, replicate r maps block r of its uniforms through each model's
    law, and each statistic comes from scipy's logsumexp or the `weights`
    diagnostics of one batch, reduced by a two-pass mean and SE."""
    offset = experiments._OFF_GAP if spec.kind == "gap" else experiments._OFF_COLLAPSE
    out = {}
    for d_idx, d in enumerate(spec.ds):
        if spec.model == "toy":
            variants = [(None, make_toy(d, spec.theta_scale))]
        else:
            variants = [(sp, make_linear_gaussian(d, sp, spec.seed)[0])
                        for sp in spec.sigma_perturbs]
        for n_idx, n in enumerate(spec.n_grid):
            stream = vrng.make_stream(spec.seed, offset + d_idx * len(spec.n_grid) + n_idx)
            u = vrng.uniform(stream, (spec.replicates, n, variants[0][1].LAW_WORDS))
            for sp, model in variants:
                batches = [model.log_weight_law(u[r]) for r in range(spec.replicates)]
                for alpha in spec.alphas:
                    if spec.kind == "gap":
                        stats = {"gap": [(logsumexp((1.0 - alpha) * v) - math.log(n))
                                         / (1.0 - alpha) for v in batches]}
                    else:
                        stats = {"t": [t_statistic(b, alpha) for b in batches],
                                 "max_share": [max_weight_share(b) for b in batches],
                                 "ess": [ess(b) for b in batches]}
                    out[(alpha, d, sp, n)] = {
                        col: (np.mean(v), np.std(v, ddof=1) / math.sqrt(len(v)))
                        for col, v in stats.items()}
    return out


@pytest.mark.parametrize("kind", ["gap", "collapse"])
@pytest.mark.parametrize("model", sorted(_CHUNK_SPECS))
def test_gap_and_collapse_rows_match_by_hand_oracle(kind, model):
    spec = ExperimentSpec(kind=kind, **_CHUNK_SPECS[model])
    run = run_gap_experiment if kind == "gap" else run_collapse_experiment
    want = _by_hand_cells(spec)
    for target in (1, 40, 10**6):
        with mock.patch.object(vrng, "_CHUNK_TARGET", target):
            rows = run(spec)
        assert len(rows) == len(want)
        for row in rows:
            cell = want[(row["alpha"], row["d"], row["sigma_perturb"], row["N"])]
            for col, (mean, se) in cell.items():
                mean_col, se_col = ("mean_gap", "se_gap") if col == "gap" else (
                    f"{col}_mean", f"{col}_se")
                assert row[mean_col] == pytest.approx(mean, rel=1e-12, abs=1e-12), (target, col)
                assert row[se_col] == pytest.approx(se, rel=1e-9, abs=1e-12), (target, col)


def test_fit_gap_table_roundtrip(tmp_path):
    spec = small_gap_spec(out=str(tmp_path / "gap.csv"))
    rows = run_gap_experiment(spec)
    write_table(rows, spec, path=spec.out)
    read_rows, meta = read_table(spec.out)
    assert meta["schema_version"] == "1"
    fits = fit_gap_table(read_rows)
    by_alpha = {f["alpha"]: f for f in fits}
    for row in rows:
        f = by_alpha[row["alpha"]]
        assert f["c1"] == pytest.approx(row["c1"], rel=1e-9, abs=1e-12)
        assert f["c2"] == pytest.approx(row["c2"], rel=1e-9, abs=1e-12)


def test_csv_bytes_identical(tmp_path):
    spec = small_gap_spec(out=str(tmp_path / "a.csv"))
    write_table(run_gap_experiment(spec), spec, path=spec.out)
    spec2 = small_gap_spec(out=str(tmp_path / "b.csv"))
    write_table(run_gap_experiment(spec2), spec2, path=spec2.out)
    with open(spec.out, "rb") as f:
        a = f.read()
    with open(spec2.out, "rb") as f:
        b = f.read()
    assert a == b


def test_json_format():
    spec = small_gap_spec(format="json")
    text = write_table(run_gap_experiment(spec), spec)
    doc = json.loads(text)
    assert doc["schema_version"] == "1"
    assert doc["spec"]["kind"] == "gap"
    assert len(doc["rows"]) == 6


def test_snr_experiment_smoke():
    spec = ExperimentSpec(kind="snr", model="lingauss", alphas=(0.0, 0.5), ds=(4,),
                          n_grid=(2, 8, 32), replicates=200, seed=3,
                          sigma_perturbs=(0.01,), coordinate_sample=3)
    rows = run_snr_experiment(spec)
    # 2 alphas x 2 estimators x 2 blocks x 3 N values
    assert len(rows) == 24
    for row in rows:
        assert row["block"] in ("theta", "phi")
        assert row["estimator"] in ("rep", "drep")
        assert row["ref_slope"] in (0.5, -0.5)
        assert row["slope_lo"] <= row["slope"] <= row["slope_hi"]
        assert list(row) == SNR_COLUMNS
        assert row["snr_floor"] == pytest.approx(math.sqrt(2.0 / (math.pi * 200)))
        assert row["at_floor"] == (row["snr_mean"] < 2.0 * row["snr_floor"])


def test_weights_experiment_rows():
    spec = ExperimentSpec(kind="weights", model="toy", ds=(5,), weight_samples=20_000,
                          seed=4)
    rows = run_weights_experiment(spec)
    assert len(rows) == 60  # one row per histogram bin
    total = sum(r["count"] for r in rows)
    assert total == 20_000
    # toy log-weights are exactly normal
    assert rows[0]["qq_corr"] > 0.999
    assert abs(rows[0]["log_std"] - math.sqrt(5.0)) < 0.05


def test_cli_weights_constant_log_weights(tmp_path):
    # the toy at theta = phi has constant log-weights: SD 0 and an empty
    # QQ correlation, in CSV and in strict JSON
    from vriwae.cli import main
    base = ["weights", "--d", "3", "--theta-scale", "1", "--weight-samples", "100"]
    assert main([*base, "--out", str(tmp_path / "w.csv")]) == 0
    rows, _ = read_table(str(tmp_path / "w.csv"))
    assert all(r["log_std"] == 0.0 and r["qq_corr"] is None for r in rows)
    assert main([*base, "--format", "json", "--out", str(tmp_path / "w.json")]) == 0
    rows = json.loads((tmp_path / "w.json").read_text(), parse_constant=pytest.fail)["rows"]
    assert all(r["log_std"] == 0.0 and r["qq_corr"] is None for r in rows)


def test_weights_experiment_lingauss_smoke():
    spec = ExperimentSpec(kind="weights", model="lingauss", ds=(4,),
                          sigma_perturbs=(0.5,), weight_samples=5_000, seed=5)
    rows = run_weights_experiment(spec)
    assert len(rows) == 60
    assert all(math.isfinite(r["log_mean"]) for r in rows)


def test_collapse_experiment_trends():
    spec = ExperimentSpec(kind="collapse", model="toy", alphas=(0.0,), ds=(1, 25),
                          n_grid=(64,), replicates=400, seed=6)
    rows = run_collapse_experiment(spec)
    assert len(rows) == 2
    small_d, large_d = rows[0], rows[1]
    # collapse strengthens with dimension: T falls, max share rises
    assert small_d["t_mean"] > large_d["t_mean"]
    assert small_d["max_share_mean"] < large_d["max_share_mean"]
    for row in rows:
        assert 1.0 <= row["ess_mean"] <= 64.0
        assert 0.0 < row["max_share_mean"] <= 1.0


def test_collapse_matches_scalar_diagnostics():
    # the batched T / max share / ESS and their streaming mean and SE equal
    # the diagnostics of `weights` on each replicate batch alone and a
    # two-pass SE
    spec = ExperimentSpec(kind="collapse", model="lingauss", alphas=(0.0, 0.5), ds=(3,),
                          n_grid=(8,), replicates=30, seed=9, sigma_perturbs=(0.0, 0.3))
    rows = run_collapse_experiment(spec)
    models = [m for _, m in experiments._variants(spec, 3)]
    (_, _, lrw), = experiments._relative_weight_batches(models, 8, spec.replicates, spec.seed,
                                                        experiments._OFF_COLLAPSE)
    assert len(rows) == 4
    for row in rows:
        batches = list(lrw[spec.sigma_perturbs.index(row["sigma_perturb"])])
        for col, stat in (("t", lambda b: t_statistic(b, row["alpha"])),
                          ("max_share", max_weight_share), ("ess", ess)):
            vals = np.array([stat(b) for b in batches])
            assert row[f"{col}_mean"] == pytest.approx(vals.mean(), rel=1e-12)
            assert row[f"{col}_se"] == pytest.approx(
                vals.std(ddof=1) / math.sqrt(vals.size), rel=1e-9)


def test_train_experiment_rows():
    spec = ExperimentSpec(kind="train", model="toy", alphas=(0.5,), ds=(3,),
                          n_importance=8, epochs=30, log_every=10, seed=7)
    rows = run_train_experiment(spec)
    assert rows[0]["epoch"] == 0
    assert rows[-1]["epoch"] == 30
    assert "bd2_over_d" in rows[0]


def test_render_svg(tmp_path):
    rows = [{"N": 2, "y": 1.0, "z": 2.0}, {"N": 4, "y": 2.0, "z": 1.0}]
    path = tmp_path / "plot.svg"
    render_svg(rows, "N", ["y", "z"], str(path))
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert "log scale" in text


def test_render_svg_errors(tmp_path):
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError):
        render_svg([], "N", ["y"], str(path))
    with pytest.raises(ValueError):
        render_svg([{"N": 2}], "N", ["missing"], str(path))
    assert not path.exists()


def test_render_svg_gap_table(tmp_path):
    spec = small_gap_spec()
    rows = run_gap_experiment(spec)
    path = tmp_path / "gap.svg"
    rows0 = [r for r in rows if r["alpha"] == 0.0]
    render_svg(rows0, "N", ["mean_gap", "pred_ev_fit"], str(path))
    assert path.exists()


SELFTEST_CHECKS = [
    "bound_alpha_monotonicity", "bound_iwae_identity", "bound_elbo_limit",
    "gap_decomposition_identity", "remainder_bound", "weights_shift_invariance",
    "weights_share_identity", "h_coefficients_values", "score_grads_vs_fd",
    "gradient_unbiasedness_reduced", "lingauss_closed_forms_vs_quadrature",
    "extreme_value_refined_constant", "experiment_determinism",
]


def test_selftest_passes():
    report = selftest(seed=0)
    for name, passed, detail in report.checks:
        assert passed, f"{name}: {detail}"
    assert report.ok
    assert [name for name, _, _ in report.checks] == SELFTEST_CHECKS


def test_selftest_seed_independent():
    assert selftest(seed=12345).ok


def test_selftest_catches_corrupted_h(monkeypatch):
    # dropping the alpha*s term must break the drep-vs-rep agreement check
    import vriwae.gradients as gradients_mod

    def broken(model, eps, alpha, kind):
        if kind != "drep":
            return real(model, eps, alpha, kind)
        z = model.reparam(eps)
        lw = model.log_unnormalized_weight(z)
        s = gradients_mod._softmax_last((1.0 - alpha) * lw)
        d_theta, _, d_phi_stopped = model.score_grads(eps, z)
        g_theta = np.einsum("...n,...nk->...k", s, d_theta)
        g_phi = np.einsum("...n,...nk->...k", (1.0 - alpha) * s * s, d_phi_stopped)
        return g_theta, g_phi

    real = gradients_mod.grad_samples_from_eps
    monkeypatch.setattr(gradients_mod, "grad_samples_from_eps", broken)
    report = selftest(seed=0)
    failed = {name for name, passed, _ in report.checks if not passed}
    assert "gradient_unbiasedness_reduced" in failed


def test_cli_gap_and_fit(tmp_path):
    from vriwae.cli import main
    out = tmp_path / "gap.csv"
    code = main(["gap", "--model", "toy", "--alpha", "0", "0.5", "--d", "2",
                 "--n-grid", "2", "4", "8", "--replicates", "100", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    rows, meta = read_table(str(out))
    assert len(rows) == 6
    fit_out = tmp_path / "fit.json"
    assert main(["fit", str(out), "--out", str(fit_out)]) == 0
    fits = json.loads(fit_out.read_text())
    assert {f["alpha"] for f in fits} == {0.0, 0.5}


def test_read_table_json_mirror(tmp_path, capsys):
    # the JSON mirror reads back to the CSV's rows and metadata, NaN and None
    # included, and `fit` gives the same constants from either
    from vriwae.cli import main
    paths = {fmt: str(tmp_path / f"gap.{fmt}") for fmt in ("csv", "json")}
    specs = {fmt: small_gap_spec(format=fmt, out=path) for fmt, path in paths.items()}
    rows = run_gap_experiment(specs["csv"])
    assert any(math.isnan(r["pred_ev"]) for r in rows)
    for fmt, spec in specs.items():
        write_table(rows, spec, path=spec.out)
    (csv_rows, csv_meta), (json_rows, json_meta) = (read_table(paths[f]) for f in ("csv", "json"))
    # the JSON mirror sorts its keys, so put them back in the CSV's order
    assert all(r.keys() == csv_rows[0].keys() for r in json_rows)
    json_rows = [{c: r[c] for c in csv_rows[0]} for r in json_rows]
    assert write_table(json_rows, specs["csv"]) == write_table(csv_rows, specs["csv"]) \
        == open(paths["csv"]).read()
    assert {k: json_meta[k] for k in ("schema_version", "seed")} == \
        {k: csv_meta[k] for k in ("schema_version", "seed")} == {"schema_version": "1", "seed": "1"}
    assert json.loads(json_meta["spec"]) == {**json.loads(csv_meta["spec"]), "format": "json"}
    fits = []
    for path in paths.values():
        assert main(["fit", path]) == 0
        fits.append(capsys.readouterr().out)
    assert fits[0] == fits[1]


def test_read_table_snr_csv_matches_json(tmp_path):
    # a bool cell (at_floor) reads back as a bool from the CSV too, so both
    # formats of one snr table give equal rows; near theta = phi some
    # gradient means sit at the floor
    spec = ExperimentSpec(kind="snr", model="toy", alphas=(0.0,), ds=(2,), n_grid=(1, 2, 4),
                          replicates=100, seed=3, theta_scale=0.9)
    rows = run_snr_experiment(spec)
    assert {r["at_floor"] for r in rows} == {False, True}
    read = {}
    for fmt in ("csv", "json"):
        path = str(tmp_path / f"snr.{fmt}")
        write_table(rows, ExperimentSpec(**{**spec.echo(), "format": fmt}), path=path)
        read[fmt], _ = read_table(path)
    assert read["csv"] == read["json"] == rows
    assert all(type(r["at_floor"]) is bool for r in read["csv"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_fit_refuses_non_gap_table(tmp_path, capsys, fmt):
    from vriwae.cli import main
    table = tmp_path / f"snr.{fmt}"
    assert main(["snr", "--model", "toy", "--alpha", "0", "--d", "2", "--n-grid", "2", "4",
                 "--replicates", "100", "--format", fmt, "--out", str(table)]) == 0
    fit_out = tmp_path / "fit.json"
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(table), "--out", str(fit_out)])
    assert exc.value.code == 2
    assert "holds a snr table, not a gap table" in capsys.readouterr().err
    assert not fit_out.exists()


def test_cli_selftest_exit_code():
    from vriwae.cli import main
    assert main(["selftest", "--seed", "0"]) == 0


def test_cli_config_file(tmp_path):
    from vriwae.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "toy", "alphas": [0.0], "ds": [2],
                               "n_grid": [2, 4], "replicates": 50, "seed": 9}))
    out = tmp_path / "gap.csv"
    assert main(["gap", "--config", str(cfg), "--out", str(out)]) == 0
    rows, _ = read_table(str(out))
    assert len(rows) == 2
