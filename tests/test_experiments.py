import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import vriwae
from vriwae import experiments, train
from vriwae import rng as vrng
from vriwae.asymptotics import slope_fit
from vriwae.experiments import (ExperimentSpec, fit_gap_table,
                                make_linear_gaussian, make_toy, read_table, render_svg,
                                run_collapse_experiment, run_gap_experiment,
                                run_snr_experiment, run_train_experiment,
                                run_weights_experiment, selftest, write_table)
from vriwae.bounds import _law_samples, vr_iwae_from_log_weights
from vriwae.weights import _diagnostics, _mean_se


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
                      (dict(sigma_perturbs=(0.1, 0.3)), "sigma_perturbs"),
                      (dict(kind="train", sigma_perturbs=(0.1,)), "sigma_perturbs"),
                      (dict(model="lingauss", theta_scale=5.0), "theta_scale"),
                      (dict(kind="snr", m_samples=0), "m_samples"),
                      (dict(kind="snr", coordinate_sample=0), "coordinate_sample"),
                      (dict(seed=1.5), "seed"), (dict(seed=True), "seed"),
                      (dict(ds=10), "ds"), (dict(n_grid=(2.0, 4.0)), "n_grid"),
                      (dict(alphas=(True,)), "alphas"), (dict(theta_scale="1"), "theta_scale"),
                      (dict(kind="train", learning_rate="0.1"), "learning_rate")):
        with pytest.raises(ValueError, match=field):
            ExperimentSpec(**{"kind": "gap", **kw})
    # a field a kind never reads keeps its default, which its echo holds
    for kind in experiments._KINDS:
        echo = ExperimentSpec(kind=kind).echo()
        assert ExperimentSpec(**echo).echo() == echo
    for kw, field in ((dict(kind="weights", alphas=(0.3,)), "alphas"),
                      (dict(kind="train", replicates=5000), "replicates"),
                      (dict(kind="snr", estimator="drep"), "estimator")):
        with pytest.raises(ValueError, match=f"{field} must be .* which ignores it"):
            ExperimentSpec(**kw)


# each float field of a spec and of a TrainConfig, as a function that sets it
# (an item of it, for the grids) to a value
_FLOAT_FIELDS = {
    "spec-theta_scale": ("theta_scale", lambda v: ExperimentSpec(kind="gap", theta_scale=v)),
    "spec-alphas-first": ("alphas", lambda v: ExperimentSpec(kind="gap", alphas=(v, 0.5))),
    "spec-alphas-last": ("alphas", lambda v: ExperimentSpec(kind="gap", alphas=(0.0, v))),
    "spec-sigma_perturbs-first": ("sigma_perturbs", lambda v: ExperimentSpec(
        kind="gap", model="lingauss", sigma_perturbs=(v, 0.1))),
    "spec-sigma_perturbs-last": ("sigma_perturbs", lambda v: ExperimentSpec(
        kind="gap", model="lingauss", sigma_perturbs=(0.0, v))),
    "spec-train-learning_rate": ("learning_rate",
                                 lambda v: ExperimentSpec(kind="train", learning_rate=v)),
    "config-alpha": ("alpha", lambda v: train.TrainConfig(alpha=v)),
    "config-learning_rate": ("learning_rate", lambda v: train.TrainConfig(learning_rate=v)),
}
# values no float field takes: not finite, too large for a float, or not a
# number of its own
_BAD_FLOATS = {"nan": math.nan, "inf": math.inf, "minus-inf": -math.inf, "huge-int": 10**400,
               "minus-huge-int": -10**400, "bool": True, "str": "1"}


@pytest.mark.parametrize("bad", _BAD_FLOATS.values(), ids=_BAD_FLOATS.keys())
@pytest.mark.parametrize("field, build", _FLOAT_FIELDS.values(), ids=_FLOAT_FIELDS.keys())
def test_float_fields_take_finite_numbers_only(field, build, bad):
    # the spec and TrainConfig decide what a float field takes by one
    # predicate, and the message names the field
    with pytest.raises(ValueError, match=f"^{field} must be "):
        build(bad)


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
    ("train", ["--d", "3", "50"], "ds"),
    ("train", ["--alpha", "0.2", "0.5"], "alphas"),
    ("train", ["--model", "lingauss", "--sigma-perturb", "0", "0.1"], "sigma_perturbs"),
    ("gap", [{"alphas": []}], "alphas"),
    ("collapse", [{"alphas": []}], "alphas"),
    ("gap", [{"sigma_perturbs": []}, "--model", "lingauss"], "sigma_perturbs"),
    ("collapse", [{"sigma_perturbs": []}, "--model", "lingauss"], "sigma_perturbs"),
    ("gap", [{"ds": []}], "ds"),
    ("collapse", [{"ds": []}], "ds"),
    ("snr", [{"ds": []}, "--replicates", "100"], "ds"),
    ("gap", [{"n_grid": []}], "n_grid"),
    ("collapse", [{"n_grid": []}], "n_grid"),
    ("snr", [{"n_grid": []}, "--replicates", "100"], "n_grid"),
    ("gap", ["--theta-scale", "nan"], "theta_scale"),
    ("gap", ["--theta-scale", "inf"], "theta_scale"),
    ("gap", ["--model", "lingauss", "--sigma-perturb", "inf"], "sigma_perturbs"),
    ("gap", ["--model", "lingauss", "--sigma-perturb", "nan"], "sigma_perturbs"),
    ("train", ["--lr", "inf"], "learning_rate"),
    ("train", ["--lr", "nan"], "learning_rate"),
    ("gap", [{"theta_scale": 1e400}], "theta_scale"),
    ("gap", [{"theta_scale": 10**400}], "theta_scale"),
    ("gap", ["--d", "2", "2"], "ds"),
    ("collapse", ["--d", "2", "3", "2"], "ds"),
    ("snr", ["--d", "2", "2", "--replicates", "100"], "ds"),
    ("gap", ["--alpha", "0", "0"], "alphas"),
    ("gap", ["--model", "lingauss", "--sigma-perturb", "0.1", "0.1"], "sigma_perturbs"),
    ("gap", [{"sigma_perturbs": [0, 0.0]}, "--model", "lingauss"], "sigma_perturbs"),
    ("gap", [{"kind": "snr"}], "kind"),
    ("snr", [{"kind": "gap"}, "--replicates", "100"], "kind"),
    ("gap", [{"out": 5}], "out"),
    ("gap", [{"plot": ["a"]}], "plot"),
    ("gap", ["--model", "toy", "--sigma-perturb", "0.1", "0.3"], "sigma_perturbs"),
    ("weights", ["--model", "lingauss", "--theta-scale", "5"], "theta_scale"),
    # a field the kind never reads, which the table header would echo as run
    ("gap", ["--estimator", "drep", "--epochs", "3"], "estimator"),
    ("snr", ["--replicates", "100", "--estimator", "drep"], "estimator"),
    ("weights", ["--alpha", "0.3", "--n-grid", "5"], "alphas"),
    ("collapse", ["--lr", "0.1"], "learning_rate"),
    ("train", ["--n-importance", "4", "--epochs", "4", "--log-every", "2"], "n_grid"),
], ids=["gap-replicates-0", "gap-replicates-1", "collapse-replicates-0", "gap-d-0",
        "gap-n-0", "weights-samples-1", "config-model", "snr-replicates-50",
        "train-lr-0", "train-lr-neg", "train-log-every-0", "train-n-importance-0",
        "train-epochs-neg", "gap-seed-neg", "gap-seed-2-64", "gap-sigma-perturb-neg",
        "snr-config-m-samples-0", "snr-config-coordinate-sample-0", "config-seed-float",
        "config-ds-float", "config-ds-int", "config-replicates-str", "config-replicates-float",
        "config-seed-bool", "gap-config-estimator", "gap-config-optimizer",
        "train-config-estimator", "train-config-optimizer", "gap-alpha-1-toy",
        "gap-alpha-1-lingauss", "collapse-alpha-1", "train-two-ds", "train-two-alphas",
        "train-two-sigma-perturbs", "gap-config-alphas-empty", "collapse-config-alphas-empty",
        "gap-config-sigma-perturbs-empty", "collapse-config-sigma-perturbs-empty",
        "gap-config-ds-empty", "collapse-config-ds-empty", "snr-config-ds-empty",
        "gap-config-n-grid-empty", "collapse-config-n-grid-empty", "snr-config-n-grid-empty",
        "gap-theta-scale-nan", "gap-theta-scale-inf", "gap-sigma-perturb-inf",
        "gap-sigma-perturb-nan", "train-lr-inf", "train-lr-nan", "gap-config-theta-scale-1e400",
        "gap-config-theta-scale-huge-int", "gap-repeated-d", "collapse-repeated-d",
        "snr-repeated-d", "gap-repeated-alpha", "gap-repeated-sigma-perturb",
        "gap-config-repeated-sigma-perturb", "gap-config-kind-snr", "snr-config-kind-gap",
        "gap-config-out-int", "gap-config-plot-list", "gap-toy-sigma-perturbs",
        "weights-lingauss-theta-scale", "gap-unread-estimator", "snr-unread-estimator",
        "weights-unread-alphas", "collapse-unread-lr", "train-unread-n-grid"])
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
    if "out" not in configured:     # an explicit --out overrides the config's
        argv += ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{command}: {field} " in capsys.readouterr().err
    assert not out.exists()


# an out-of-range value of each field that a range rule of the spec or of
# its TrainConfig checks, and that a model or a kind ignores
_OUT_OF_RANGE = {"sigma_perturbs": [-1.0], "alphas": [1.5], "n_grid": [4, 2], "replicates": 1,
                 "weight_samples": 1, "m_samples": 0, "coordinate_sample": 0,
                 "estimator": "nope", "epochs": -1, "learning_rate": 0.0, "optimizer": "nope",
                 "n_importance": 0, "log_every": 0}
_RULED = {name for name, _, _ in (*experiments._SPEC_RULES, *train._CONFIG_RULES)}


def _ignored_out_of_range():
    """One CLI call per (model or kind, field) pair of `_UNREAD` whose field
    has a range rule, which sets that field out of range by --config (a
    model's fields on a gap run), then the three calls whose range rule once
    fired first."""
    for owner, names in experiments._UNREAD.items():
        is_model = owner in experiments._MODELS
        for name in sorted(set(names) & _RULED):
            config = {"model": owner} if is_model else {}
            config[name] = _OUT_OF_RANGE[name]
            yield pytest.param(["gap" if is_model else owner, "--config", config], name,
                               id=f"{owner}-{name}")
    for argv, name, cid in (
            (["weights", "--d", "2", "--weight-samples", "100", "--replicates", "1"],
             "replicates", "weights-replicates-1"),
            (["weights", "--d", "2", "--weight-samples", "100", "--n-grid", "4", "2"],
             "n_grid", "weights-n-grid-decreasing"),
            (["gap", "--d", "2", "--n-grid", "2", "--replicates", "2", "--weight-samples", "1"],
             "weight_samples", "gap-weight-samples-1")):
        yield pytest.param(argv, name, id=cid)


@pytest.mark.parametrize("argv, field", _ignored_out_of_range())
def test_cli_range_rules_skip_ignored_fields(tmp_path, capsys, argv, field):
    # no range rule fires on a field the run never reads: the ignored-field
    # rule names it, with the model or kind that ignores it
    from vriwae.cli import main
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "table.csv"
    config = next((arg for arg in argv if isinstance(arg, dict)), {})
    cfg.write_text(json.dumps(config))
    kind, model = argv[0], config.get("model", "toy")
    owner = f"model {model!r}" if field in experiments._UNREAD[model] else kind
    default = getattr(ExperimentSpec(kind=kind, model=model), field)
    with pytest.raises(SystemExit) as exc:
        main([str(cfg) if isinstance(arg, dict) else arg for arg in argv]
             + ["--out", str(out)])
    assert exc.value.code == 2
    assert (f"{kind}: {field} must be {default} for {owner}, which ignores it"
            in capsys.readouterr().err)
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
                seed=5, **sp)
    for model, sp in (("toy", {}), ("lingauss", {"sigma_perturbs": (0.0, 0.3)}))}
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


_RUNNERS = {"gap": run_gap_experiment, "collapse": run_collapse_experiment,
            "snr": run_snr_experiment, "weights": run_weights_experiment}
# a weights draw is one cell of N = 1 per (d, sigma_perturb); at 70k samples
# it spans 2 (toy) or 3 (lingauss) chunks of the default target.  Target 999
# makes 71 or 141 chunks per cell and starts the toy's at every word offset
# mod 4; targets 1 and 40 would make 10**3 to 10**5
_CHUNK_FIELDS = {"snr": {"replicates": 100}, "weights": {"weight_samples": 70_000}}
_CHUNK_TARGETS = {"weights": (999, 2**16, 10**6)}
# the grid fields a weights run never reads, which its spec may not set
_WEIGHTS_UNREAD = ("alphas", "n_grid", "replicates")


def _fields_read(kind, fields):
    """`fields` less those that a run of `kind` never reads."""
    return {k: v for k, v in fields.items() if kind != "weights" or k not in _WEIGHTS_UNREAD}


@pytest.mark.parametrize("kind", sorted(_RUNNERS))
@pytest.mark.parametrize("model", sorted(_CHUNK_SPECS))
def test_tables_independent_of_workers_and_chunk_size(kind, model):
    # each cell's samples come back in replicate order and are reduced at
    # once on the calling thread, so neither the number of threads nor the
    # chunk size moves a bit of the table
    spec = ExperimentSpec(kind=kind, **_fields_read(kind, {**_CHUNK_SPECS[model],
                                                           **_CHUNK_FIELDS.get(kind, {})}))
    tables = {}
    for workers in (1, 2):
        for target in _CHUNK_TARGETS.get(kind, (1, 40, 2**16, 10**6)):
            with mock.patch.object(vrng, "_WORKERS", workers), \
                    mock.patch.object(vrng, "_CHUNK_TARGET", target):
                tables[(workers, target)] = write_table(_RUNNERS[kind](spec), spec)
    ref = tables[(1, 10**6)]
    assert [key for key, text in tables.items() if text != ref] == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and 2 CPUs")
def test_cli_table_same_on_one_cpu(tmp_path):
    # a child pinned to one CPU maps every chunk on its calling thread; its
    # table is the one a child on all cores writes
    argv = ["gap", "--model", "toy", "--d", "1", "--alpha", "0", "0.5",
            "--n-grid", "64", "256", "1024", "--replicates", "2000", "--seed", "5"]
    pin = ("import os, runpy; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
           "runpy.run_module('vriwae.cli', run_name='__main__')")
    src = str(pathlib.Path(vriwae.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    tables = {}
    for label, prefix in (("one", ["-c", pin]), ("all", ["-m", "vriwae.cli"])):
        out = tmp_path / f"{label}.csv"
        subprocess.run([sys.executable, *prefix, *argv, "--out", str(out)], env=env,
                       check=True, timeout=300)
        tables[label] = out.read_bytes()
    assert tables["one"] == tables["all"]


def _plain_diagnostics(alpha):
    """{column: statistic of one 1-D batch} for the collapse table, from the
    definitions: T sums over the batch with its argmax deleted, and the max
    share and ESS read scipy's logsumexp."""
    return {"t": lambda b: np.sum(np.exp((1.0 - alpha) * (np.delete(b, np.argmax(b)) - b.max()))),
            "max_share": lambda b: np.exp(b.max() - logsumexp(b)),
            "ess": lambda b: np.exp(2.0 * logsumexp(b) - logsumexp(2.0 * b))}


def _by_hand_cells(spec):
    """{(alpha, d, sigma_perturb, N): {column: (mean, se)}} by hand: dimension
    d_idx reads the stream at the family offset + d_idx, replicate r takes
    block r of its uniforms, largest N x LAW_WORDS of them, and the batch of
    N maps the first N rows of that block through each model's law; each
    statistic comes from scipy's logsumexp or the plain definitions of the
    diagnostics on one batch (`_plain_diagnostics`), reduced by a two-pass
    mean and SE."""
    offset = experiments._OFF_GAP if spec.kind == "gap" else experiments._OFF_COLLAPSE
    out = {}
    for d_idx, d in enumerate(spec.ds):
        if spec.model == "toy":
            variants = [(None, make_toy(d, spec.theta_scale))]
        else:
            variants = [(sp, make_linear_gaussian(d, sp, spec.seed)[0])
                        for sp in spec.sigma_perturbs]
        stream = vrng.make_stream(spec.seed, offset + d_idx)
        u = vrng.uniform(stream, (spec.replicates, spec.n_grid[-1], variants[0][1].LAW_WORDS))
        for n in spec.n_grid:
            for sp, model in variants:
                s = model.law_scalars()
                batches = [model.law_log_weights(model.law_variates(u[r, :n], s), s)
                           for r in range(spec.replicates)]
                for alpha in spec.alphas:
                    if spec.kind == "gap":
                        stats = {"gap": [(logsumexp((1.0 - alpha) * v) - math.log(n))
                                         / (1.0 - alpha) for v in batches]}
                    else:
                        stats = {col: [stat(b) for b in batches]
                                 for col, stat in _plain_diagnostics(alpha).items()}
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


@pytest.mark.parametrize("kind", ["gap", "collapse"])
@pytest.mark.parametrize("model", ["toy", "lingauss"])
def test_nested_n_rows_have_the_law_of_per_n_cells(kind, model):
    # the N of a d share one batch per replicate; each N keeps the law of a
    # cell drawn alone: every row's means lie within a few SEs of a cell of
    # the rule the N cells read before they shared one batch, one fresh
    # stream per (d, N) (here at another seed), each a one-N law grid
    spec = ExperimentSpec(kind=kind, model=model, alphas=(0.0, 0.5), ds=(1, 4),
                          n_grid=(1, 3, 10), replicates=3000, seed=41,
                          **({"sigma_perturbs": (0.0, 0.3)} if model == "lingauss" else {}))
    rows = (run_gap_experiment if kind == "gap" else run_collapse_experiment)(spec)
    columns = ["gap"] if kind == "gap" else ["t", "max_share", "ess"]
    reduce = (lambda lrw: vr_iwae_from_log_weights(lrw, spec.alphas)) if kind == "gap" else (
        lambda lrw: _diagnostics(lrw, spec.alphas))
    worst, compared = 0.0, 0
    for d_idx, d in enumerate(spec.ds):
        variants = experiments._variants(spec, d)
        for n_idx, n in enumerate(spec.n_grid):
            (samples,) = _law_samples(variants[0][1], [m.law_scalars() for _, m in variants],
                                      spec.seed + 1, d_idx * len(spec.n_grid) + n_idx, (n,),
                                      spec.replicates, reduce)
            mean, se = (np.reshape(x, (len(variants), len(spec.alphas), -1))
                        for x in _mean_se(samples))
            for v_idx, (sp, _) in enumerate(variants):
                for a_idx, alpha in enumerate(spec.alphas):
                    row, = [r for r in rows if (r["d"], r["sigma_perturb"], r["N"],
                                                 r["alpha"]) == (d, sp, n, alpha)]
                    for c, col in enumerate(columns):
                        mean_col, se_col = ("mean_gap", "se_gap") if kind == "gap" else (
                            f"{col}_mean", f"{col}_se")
                        both = math.hypot(row[se_col], se[v_idx, a_idx, c])
                        diff = abs(row[mean_col] - mean[v_idx, a_idx, c])
                        if both == 0:
                            assert diff == 0, (d, sp, n, alpha, col)
                            continue
                        worst, compared = max(worst, diff / both), compared + 1
    assert compared > 0
    assert worst < 4.0, worst


def test_fit_gap_table_roundtrip(tmp_path):
    # the table's constants are those `vriwae fit` recomputes from the file,
    # exactly, for both models; the toy's gamma^2 overflows at d = 1000 and
    # alpha = 0, whose c1 is NaN in both
    specs = [small_gap_spec(ds=(2, 1000), out=str(tmp_path / "toy.csv")),
             small_gap_spec(model="lingauss", ds=(2, 1000), sigma_perturbs=(0.0, 0.3),
                            out=str(tmp_path / "lingauss.csv"))]
    nan_c1 = 0
    for spec in specs:
        rows = run_gap_experiment(spec)
        write_table(rows, spec, path=spec.out)
        read_rows, meta = read_table(spec.out)
        assert meta["schema_version"] == "1"
        fits = fit_gap_table(read_rows)
        by_group = {(f["alpha"], f["d"], f["sigma_perturb"]): f for f in fits}
        assert len(by_group) == len(fits) == len(rows) // len(spec.n_grid)
        for row in rows:
            f = by_group[(row["alpha"], row["d"], row["sigma_perturb"])]
            for col in ("c1", "rms_1n", "c2", "rms_ev"):
                assert f[col] == row[col] or math.isnan(f[col]) and math.isnan(row[col]), col
        nan_c1 += sum(math.isnan(f["c1"]) for f in fits)
    assert nan_c1 >= 1


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


def test_csv_numpy_scalars_round_trip(tmp_path):
    # a numpy scalar cell is written as its builtin value, not as its repr
    # (np.float64(0.91)), so it reads back as a number
    spec = small_gap_spec()
    path = str(tmp_path / "t.csv")
    write_table([{"f": np.float64(0.91), "i": np.int64(7), "b": np.bool_(True), "n": None}],
                spec, path=path)
    rows, _ = read_table(path)
    assert rows == [{"f": 0.91, "i": 7, "b": True, "n": None}]
    assert [type(v) for v in rows[0].values()] == [float, int, bool, type(None)]


_TINY_SPECS = {"gap": dict(n_grid=(2, 4), replicates=20),
               "collapse": dict(n_grid=(2, 4), replicates=20),
               "snr": dict(n_grid=(2, 4), replicates=100, coordinate_sample=2),
               "weights": dict(weight_samples=200),
               "train": dict(n_importance=4, epochs=4, log_every=2)}


@pytest.mark.parametrize("model", ["toy", "lingauss"])
@pytest.mark.parametrize("kind", sorted(_TINY_SPECS))
def test_runner_rows_hold_builtin_scalars(kind, model):
    # what a runner returns, write_table writes as is: builtin scalars or None
    spec = ExperimentSpec(kind=kind, model=model, ds=(2,), seed=3,
                          **_fields_read(kind, {"alphas": (0.5,), **_TINY_SPECS[kind]}))
    rows = {**_RUNNERS, "train": run_train_experiment}[kind](spec)
    assert rows
    for row in rows:
        for key, value in row.items():
            assert value is None or type(value) in (bool, int, float, str), (key, type(value))


def test_json_format():
    spec = small_gap_spec(format="json")
    text = write_table(run_gap_experiment(spec), spec)
    doc = json.loads(text)
    assert doc["schema_version"] == "1"
    assert doc["spec"]["kind"] == "gap"
    assert len(doc["rows"]) == 6


SNR_COLUMNS = ["model", "estimator", "alpha", "d", "sigma_perturb", "M", "N",
               "block", "snr_mean", "slope", "slope_lo", "slope_hi", "ref_slope",
               "snr_floor", "at_floor"]


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


@pytest.mark.parametrize("n_values", [3, 4094, 4095])
def test_snr_grid_points_read_disjoint_streams(monkeypatch, n_values):
    # a sweep reads the stream ids [id, id + 3) of its stream, at any grid:
    # children 0 and 1 for its coordinate draws, 2 for the one batch at the
    # largest N that every N reads.  The recorder draws nothing and returns
    # no blocks, so the run writes no rows
    reads = []

    def record(model, alpha, m_samples, n_grid, replicates, coordinate_sample, stream):
        reads.append(range(stream.stream_id, stream.stream_id + 3))
        return {}

    monkeypatch.setattr(experiments, "snr_sweep", record)
    spec = ExperimentSpec(kind="snr", model="toy", alphas=(0.0, 0.5), ds=(1, 2),
                          n_grid=tuple(range(1, n_values + 1)), replicates=100)
    assert run_snr_experiment(spec) == []
    assert len(reads) == 4
    for a, b in zip(reads, reads[1:]):
        assert a.stop <= b.start
    # grid points keep the stride of 4096 ids at any number of N values
    assert [r.start - reads[0].start for r in reads] == [0, 4096, 8192, 12288]


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
    # the batched T / max share / ESS and their mean and SE equal the plain
    # definitions on each replicate batch alone and a two-pass SE
    spec = ExperimentSpec(kind="collapse", model="lingauss", alphas=(0.0, 0.5), ds=(3,),
                          n_grid=(8,), replicates=30, seed=9, sigma_perturbs=(0.0, 0.3))
    rows = run_collapse_experiment(spec)
    models = [m for _, m in experiments._variants(spec, 3)]
    u = vrng.uniform(vrng.make_stream(spec.seed, experiments._OFF_COLLAPSE),
                     (spec.replicates, 8, models[0].LAW_WORDS))
    scalars = [m.law_scalars() for m in models]
    lrw = np.stack([m.law_log_weights(m.law_variates(u, s), s) for m, s in zip(models, scalars)])
    assert len(rows) == 4
    for row in rows:
        batches = list(lrw[spec.sigma_perturbs.index(row["sigma_perturb"])])
        for col, stat in _plain_diagnostics(row["alpha"]).items():
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
    "extreme_value_refined_constant", "chi2_law_moments", "experiment_determinism",
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
    import vriwae.weights as weights_mod
    monkeypatch.setattr(weights_mod, "_h", lambda s, alpha: (1.0 - alpha) * s * s)
    report = selftest(seed=0)
    failed = {name for name, passed, _ in report.checks if not passed}
    assert "gradient_unbiasedness_reduced" in failed


def test_selftest_checks_each_term_of_the_split(monkeypatch):
    # a split whose terms are wrong by opposite amounts keeps their sum, the
    # bound: the decomposition record reads each term on its own and fails
    real = experiments._split

    def shifted(values, betas):
        delta_max, r_term, t = real(values, betas)
        return delta_max + 1.0, r_term - 1.0, t

    monkeypatch.setattr(experiments, "_split", shifted)
    failed = {name for name, passed, _ in selftest(seed=0).checks if not passed}
    assert "gap_decomposition_identity" in failed


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_fit_writes_strict_json(tmp_path, capsys, fmt):
    # at d = 1000 and alpha = 0 the toy's gamma^2 overflows, so pred_1n is
    # NaN and its group has no 1/N fit: fit writes null there, which a parser
    # that rejects NaN and Infinity reads, to --out and to stdout alike
    from vriwae.cli import main
    table = tmp_path / f"gap.{fmt}"
    assert main(["gap", "--model", "toy", "--d", "1000", "--alpha", "0", "0.5", "--n-grid", "2",
                 "4", "8", "--replicates", "10", "--format", fmt, "--out", str(table)]) == 0

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    out = tmp_path / "fit.json"
    assert main(["fit", str(table), "--out", str(out)]) == 0
    assert main(["fit", str(table)]) == 0
    texts = [out.read_text(), capsys.readouterr().out]
    assert texts[0] == texts[1]
    fits = {f["alpha"]: f for f in json.loads(texts[0], parse_constant=reject)}
    assert fits[0.0]["c1"] is None and fits[0.0]["rms_1n"] is None
    assert all(isinstance(fits[a][k], float) for a in fits for k in ("c2", "rms_ev"))


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


def test_snr_rounding_noise_counts_as_zero_variance():
    # at N = 1, h = s = 1 and the toy's drep phi gradient (sum h)(theta - phi)
    # is constant up to its last bit: its SNR is the +inf sentinel, not
    # |mean| / (rounding noise) ~ 1e14, and the slope is fitted on N = 2, 4
    spec = ExperimentSpec(kind="snr", model="toy", alphas=(0.0,), ds=(2,), n_grid=(1, 2, 4),
                          replicates=100, seed=3, theta_scale=0.9)
    rows = [r for r in run_snr_experiment(spec) if (r["estimator"], r["block"]) == ("drep", "phi")]
    snr = {r["N"]: r["snr_mean"] for r in rows}
    assert snr[1] == math.inf
    assert all(math.isfinite(snr[n]) for n in (2, 4))
    fit = slope_fit(np.log([2.0, 4.0]), np.log([snr[2], snr[4]]))
    assert {r["slope"] for r in rows} == {fit.slope}


def test_snr_writes_a_constant_drep_phi_block_as_inf():
    # at alpha = 1, h = s and the toy's drep phi gradient (sum s)(theta - phi)
    # is constant at every N, which the model states, not rounding: its rows
    # read the +inf sentinel, and only a flat theta block is refused
    spec = ExperimentSpec(kind="snr", model="toy", alphas=(1.0,), ds=(1,), n_grid=(1, 3, 10),
                          replicates=100, seed=3)
    rows = run_snr_experiment(spec)
    assert {r["N"]: r["snr_mean"] for r in rows
            if (r["estimator"], r["block"]) == ("drep", "phi")} == dict.fromkeys((1, 3, 10),
                                                                                math.inf)
    assert all(math.isfinite(r["snr_mean"]) for r in rows if r["block"] == "theta")


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


def _gap_csv_without(column):
    """A gap table's CSV text with `column` removed."""
    spec = small_gap_spec(replicates=10)
    lines = write_table(run_gap_experiment(spec), spec).splitlines()
    header = [line for line in lines if line.startswith("#")]
    records = list(csv.reader(line for line in lines if not line.startswith("#")))
    i = records[0].index(column)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(r[:i] + r[i + 1:] for r in records)
    return "\n".join(header) + "\n" + out.getvalue()


def _gap_table_with(fmt, column, row, value):
    """A gap table's text in format `fmt` with `value` in `column` of data
    row `row` (from 0)."""
    spec = small_gap_spec(replicates=10, format=fmt)
    rows = run_gap_experiment(spec)
    if fmt == "json":
        rows[row][column] = value
        return write_table(rows, spec)
    lines = write_table(rows, spec).splitlines()
    header = [line for line in lines if line.startswith("#")]
    records = list(csv.reader(line for line in lines if not line.startswith("#")))
    records[1 + row][records[0].index(column)] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(records)
    return "\n".join(header) + "\n" + out.getvalue()


_BUILT_TABLES = {"no-mean-gap": lambda: _gap_csv_without("mean_gap"),
                 "json-mean-gap-x": lambda: _gap_table_with("json", "mean_gap", 1, "x"),
                 "csv-mean-gap-x": lambda: _gap_table_with("csv", "mean_gap", 1, "x"),
                 "json-alpha-list": lambda: _gap_table_with("json", "alpha", 1, [0]),
                 "json-model-object": lambda: _gap_table_with("json", "model", 1, {"a": 1})}
_GAP_META = '"schema_version": "1", "spec": {"kind": "gap", "seed": 0}'
_NOT_VRIWAE = "is not a vriwae table: "


@pytest.mark.parametrize("name, text, message", [
    ("gap.json", "{not json", _NOT_VRIWAE),
    ("gap.json", "{}", _NOT_VRIWAE),
    ("gap.json", '{"rows": [], "schema_version": 1}', _NOT_VRIWAE),
    ("gap.json", '{"rows": 5, %s}' % _GAP_META, _NOT_VRIWAE + "a JSON table needs"),
    ("gap.json", '{"rows": [{"a": 1}], %s}' % _GAP_META,
     "is not a gap table: it has no column 'model'\n"),
    ("gap.csv", "no-mean-gap", "is not a gap table: it has no column 'mean_gap'\n"),
    ("gap.json", "json-mean-gap-x",
     "is not a gap table: column 'mean_gap' holds 'x' in row 2, not a number\n"),
    ("gap.csv", "csv-mean-gap-x",
     "is not a gap table: column 'mean_gap' holds 'x' in row 2, not a number\n"),
    # an unhashable group-key cell
    ("gap.json", "json-alpha-list",
     "is not a gap table: column 'alpha' holds [0] in row 2, not a string, number or null\n"),
    ("gap.json", "json-model-object",
     "is not a gap table: column 'model' holds {'a': 1} in row 2, not a string, number or "
     "null\n"),
], ids=["not-json", "empty-object", "no-spec", "rows-not-a-list", "rows-without-columns",
        "csv-without-mean-gap", "json-non-numeric-cell", "csv-non-numeric-cell",
        "json-list-key-cell", "json-object-key-cell"])
def test_cli_fit_rejects_malformed_table(tmp_path, capsys, name, text, message):
    from vriwae.cli import main
    table = tmp_path / name
    table.write_text(_BUILT_TABLES[text]() if text in _BUILT_TABLES else text)
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(table)])
    assert exc.value.code == 2
    assert f"fit: {table} {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command, args, x_col, y_cols", [
    ("gap", ["--alpha", "0", "--n-grid", "2", "4", "--replicates", "10"], "N",
     ["mean_gap", "pred_1n_fit", "pred_ev_fit"]),
    ("snr", ["--alpha", "0", "--n-grid", "2", "4", "--replicates", "100"], "N", ["snr_mean"]),
    ("weights", ["--weight-samples", "100"], "bin_lo", ["count"]),
    ("collapse", ["--alpha", "0", "--n-grid", "2", "4", "--replicates", "10"], "N",
     ["t_mean", "max_share_mean"]),
    ("train", ["--alpha", "0", "--epochs", "4", "--log-every", "2", "--n-importance", "4"],
     "epoch", ["gap_mean"]),
])
def test_cli_plot_writes_svg(tmp_path, command, args, x_col, y_cols):
    # every runner subcommand plots its own columns beside its table
    from vriwae.cli import main
    table, plot = tmp_path / "table.csv", tmp_path / "plot.svg"
    assert main([command, "--d", "2", *args, "--out", str(table), "--plot", str(plot)]) == 0
    text = plot.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert f">{x_col}" in text
    assert [col for col in y_cols if f">{col}</text>" not in text] == []
    assert text.count("<polyline") == len(y_cols)


@pytest.mark.parametrize("flag, is_dir", [
    ("--out", False), ("--plot", False), ("config-out", False),
    ("--out", True), ("--plot", True), ("config-out", True),
], ids=["--out", "--plot", "config-out", "--out-is-dir", "--plot-is-dir", "config-out-is-dir"])
def test_cli_rejects_output_in_missing_directory(tmp_path, capsys, monkeypatch, flag, is_dir):
    # the grid would run in full before the write failed, and --plot would
    # leave its table behind.  An output path that is a directory fails the
    # same way, before any work
    import vriwae.cli as vcli

    def no_run(spec):
        raise AssertionError("the runner ran")

    monkeypatch.setitem(vcli._RUNNERS, "gap", no_run)
    missing = tmp_path / "missing"
    table = tmp_path / "table.csv"
    existing = tmp_path / "existing"
    existing.mkdir()
    if flag == "config-out":
        cfg = tmp_path / "cfg.json"
        path = existing if is_dir else missing / "x.csv"
        cfg.write_text(json.dumps({"out": str(path)}))
        argv, name = ["--config", str(cfg)], "out"
    else:
        path = existing if is_dir else missing / "x.svg"
        argv, name = [flag, str(path)], flag[2:]
        if flag == "--plot":
            argv += ["--out", str(table)]
    with pytest.raises(SystemExit) as exc:
        vcli.main(["gap", *_cli_base(), *argv])
    assert exc.value.code == 2
    message = f"{path} is a directory" if is_dir else f"directory {missing} does not exist"
    assert f"gap: {name} {message}" in capsys.readouterr().err
    assert not table.exists() and not missing.exists()
    assert list(existing.iterdir()) == []


def test_cli_fit_rejects_output_in_missing_directory(tmp_path, capsys, monkeypatch):
    # the directory is checked before the table is read
    import vriwae.cli as vcli

    def no_read(path):
        raise AssertionError("the table was read")

    monkeypatch.setattr(vcli, "read_table", no_read)
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exc:
        vcli.main(["fit", str(tmp_path / "gap.csv"), "--out", str(missing / "x.json")])
    assert exc.value.code == 2
    assert f"fit: out directory {missing} does not exist" in capsys.readouterr().err
    assert not missing.exists()
    # an output path that is a directory fails the same way
    existing = tmp_path / "existing"
    existing.mkdir()
    with pytest.raises(SystemExit) as exc:
        vcli.main(["fit", str(tmp_path / "gap.csv"), "--out", str(existing)])
    assert exc.value.code == 2
    assert f"fit: out {existing} is a directory" in capsys.readouterr().err
    assert list(existing.iterdir()) == []


def test_cli_train_divergence_is_one_line(tmp_path, capsys):
    # a diverging run names its epoch, gradient norm and --lr, exits 1 and
    # writes no table
    from vriwae.cli import main
    out = tmp_path / "train.csv"
    assert main(["train", "--model", "toy", "--d", "10", "--lr", "1e12", "--epochs", "20",
                 "--log-every", "5", "--n-importance", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(r"vriwae train: training diverged: gradient norm \S+ exceeded \S+ "
                        r"at epoch \d+ with --lr 1e\+12\n", err)
    assert not out.exists()


_OVERFLOWING = pytest.mark.parametrize(
    "extra", [[], ["--optimizer", "adam"], ["--model", "lingauss"]],
    ids=["toy-sgd", "toy-adam", "lingauss-sgd"])
_OVERFLOW_LINE = ("vriwae train: training diverged: state is not finite after the step of "
                  "epoch 1 with --lr 1e+300\n")


def _overflowing_train(extra, epochs, out):
    return ["train", "--lr", "1e300", "--d", "2", "--n-importance", "4", "--epochs", str(epochs),
            "--log-every", "1", *extra, "--out", str(out)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@_OVERFLOWING
def test_cli_train_nan_gradient_norm_is_one_line(tmp_path, capsys, extra):
    # a step that overflows the state stops the run at its epoch, before the
    # next gradient norm is NaN: exit 1, one line, no table.  At --epochs 1
    # that step is the last, whose row would read the state
    from vriwae.cli import main
    out = tmp_path / "train.csv"
    for epochs in (6, 1):
        assert main(_overflowing_train(extra, epochs, out)) == 1
        assert capsys.readouterr().err == _OVERFLOW_LINE
        assert not out.exists()


@_OVERFLOWING
def test_cli_train_overflow_prints_no_warning(tmp_path, extra):
    # in a fresh interpreter, whose warnings reach stderr, the divergence
    # line is all a diverging run prints
    src = str(pathlib.Path(vriwae.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = tmp_path / "train.csv"
    run = subprocess.run([sys.executable, "-m", "vriwae.cli", *_overflowing_train(extra, 6, out)],
                         env=env, timeout=300, capture_output=True, text=True)
    assert (run.returncode, run.stderr, run.stdout) == (1, _OVERFLOW_LINE, "")
    assert not out.exists()


def test_cli_main_builds_no_parser(tmp_path):
    # the parser is built once, at import: a call only parses, whatever it runs
    import vriwae.cli as vcli
    table = tmp_path / "gap.csv"
    with mock.patch.object(vcli.argparse, "ArgumentParser",
                           side_effect=AssertionError("main built a parser")):
        assert vcli.main(["gap", "--model", "toy", *_cli_base(), "--out", str(table)]) == 0
        assert vcli.main(["fit", str(table), "--out", str(tmp_path / "fit.json")]) == 0
        assert vcli.main(["selftest", "--seed", "0"]) == 0
        with pytest.raises(SystemExit) as exc:
            vcli.main(["gap", "--no-such-flag"])
        assert exc.value.code == 2


def test_cli_flags_do_not_carry_over(tmp_path):
    # one parser serves every call, and each call reads only its own flags
    from vriwae.cli import main
    estimators = []
    for i, extra in enumerate((["--estimator", "drep"], [])):
        out = tmp_path / f"train{i}.json"
        assert main(["train", "--model", "toy", "--d", "2", "--epochs", "4", "--log-every", "2",
                     "--n-importance", "4", "--format", "json", "--out", str(out), *extra]) == 0
        _, meta = read_table(str(out))
        estimators.append(json.loads(meta["spec"])["estimator"])
    assert estimators == ["drep", "rep"]


def test_cli_selftest_exit_code():
    from vriwae.cli import main
    assert main(["selftest", "--seed", "0"]) == 0


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["neg", "2-64"])
def test_cli_selftest_rejects_seed_out_of_range(capsys, seed):
    from vriwae.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--seed", str(seed)])
    assert exc.value.code == 2
    assert f"selftest: seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gap", *_cli_base(), "--config"], "gap: cannot read config "),
    (["fit"], "fit: cannot read "),
], ids=["gap-config", "fit-table"])
def test_cli_rejects_unreadable_input(tmp_path, capsys, argv, message):
    # a missing --config or fit table stops at the CLI, naming the path
    from vriwae.cli import main
    missing, out = tmp_path / "missing.json", tmp_path / "table.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(missing), "--out", str(out)])
    assert exc.value.code == 2
    assert f"{message}{missing}: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file(tmp_path):
    from vriwae.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "toy", "alphas": [0.0], "ds": [2],
                               "n_grid": [2, 4], "replicates": 50, "seed": 9}))
    out = tmp_path / "gap.csv"
    assert main(["gap", "--config", str(cfg), "--out", str(out)]) == 0
    rows, _ = read_table(str(out))
    assert len(rows) == 2


def test_runner_batches_reach_the_kernel_c_contiguous(monkeypatch):
    # every batch the runners reduce reaches `_tail_sums` C-contiguous, so
    # the kernel's C-order copy never runs on their path: the gap runner on
    # both models (one law block per sigma variant), the collapse runner, a
    # training run's logged gaps (`gap_mc` on its law states) and the
    # finite-difference oracle
    from vriwae import bounds, weights
    from vriwae.gradients import fd_grad_oracle
    real, layouts = weights._tail_sums, {}

    def recording(x, betas):
        layouts.setdefault(stage, []).append(x.flags.c_contiguous)
        return real(x, betas)

    for module in (weights, bounds):
        monkeypatch.setattr(module, "_tail_sums", recording)
    lingauss = dict(model="lingauss", sigma_perturbs=(0.0, 0.3))
    runs = {"gap-toy": lambda: run_gap_experiment(small_gap_spec(replicates=20)),
            "gap-lingauss": lambda: run_gap_experiment(small_gap_spec(replicates=20, **lingauss)),
            "collapse": lambda: run_collapse_experiment(ExperimentSpec(
                kind="collapse", alphas=(0.0, 0.5), ds=(3,), n_grid=(2, 4), replicates=20,
                **lingauss)),
            "train": lambda: run_train_experiment(ExperimentSpec(
                kind="train", model="toy", alphas=(0.5,), ds=(3,), n_importance=8, epochs=30,
                log_every=10, seed=7)),
            "fd": lambda: fd_grad_oracle(make_toy(2, 0.5), 0.5, 4, 1e-3, 10,
                                         vrng.make_stream(0, 0))}
    for stage, run in runs.items():
        run()
    assert sorted(layouts) == sorted(runs)
    assert all(all(seen) for seen in layouts.values()), layouts


_LAW_OVERFLOWS = pytest.mark.parametrize("extra, message", [
    (["--theta-scale", "1e200"], "law scalar c = -inf of the toy model at d 1 and "
                                 "theta_scale 1e+200 is not finite"),
    (["--model", "lingauss", "--sigma-perturb", "1e300"],
     "law scalar c = nan of the lingauss model at d 1 and sigma_perturb 1e+300 is not finite"),
], ids=["toy", "lingauss"])


@_LAW_OVERFLOWS
@pytest.mark.parametrize("kind", ["gap", "train"])
def test_cli_refuses_a_model_whose_law_overflows(tmp_path, kind, extra, message):
    # a model whose law scalars overflow would read NaN in every cell: the
    # CLI refuses it as an invalid spec, with exit 2 and no table, and in a
    # fresh interpreter, whose warnings reach stderr, prints no warning
    src = str(pathlib.Path(vriwae.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = tmp_path / f"{kind}.csv"
    grid = ["--n-grid", "2", "--replicates", "2"] if kind == "gap" else ["--epochs", "2"]
    run = subprocess.run([sys.executable, "-m", "vriwae.cli", kind, "--d", "1", *grid, *extra,
                          "--out", str(out)], env=env, timeout=300, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    usage, error = run.stderr.splitlines()
    assert usage.startswith("usage: vriwae ")
    assert error == f"vriwae: error: {kind}: {message}"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["gap", "snr", "weights", "collapse", "train"])
def test_runners_refuse_a_model_whose_law_overflows(kind):
    # every runner builds its models through one function, which checks their
    # law scalars before any draw, each sigma variant's (train runs one); a
    # theta_scale of 1e100 keeps a finite law
    from vriwae.cli import _RUNNERS
    with pytest.raises(ValueError, match=r"^law scalar c = -inf of the toy model at d 1 and "
                                         r"theta_scale 1e\+200 is not finite$"):
        _RUNNERS[kind](ExperimentSpec(kind=kind, model="toy", ds=(1,), theta_scale=1e200))
    with pytest.raises(ValueError, match=r"^law scalar c = nan of the lingauss model at d 1 and "
                                         r"sigma_perturb 1e\+300 is not finite$"):
        _RUNNERS[kind](ExperimentSpec(kind=kind, model="lingauss", ds=(1,),
                                      sigma_perturbs=(1e300,) if kind == "train" else (0.3, 1e300)))
    rows = run_gap_experiment(small_gap_spec(ds=(1,), theta_scale=1e100, replicates=2))
    assert all(math.isfinite(row["mean_gap"]) for row in rows)


def _fresh_cli(argv, out):
    """`vriwae argv --out out` run in a fresh interpreter on this package."""
    src = str(pathlib.Path(vriwae.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "vriwae.cli", *argv, "--out", str(out)],
                          env=env, timeout=300, capture_output=True, text=True)


@pytest.mark.parametrize("argv, message", [
    (["gap", "--theta-scale", "1e153", "--d", "1", "--n-grid", "2", "--replicates", "1000",
      "--alpha", "0"], "the mean or SE of 1000 samples overflows"),
    (["weights", "--theta-scale", "1e16", "--d", "1", "--weight-samples", "1000"],
     "60 bins cannot resolve the log-weights of the toy model at d 1"),
    (["weights", "--model", "lingauss", "--sigma-perturb", "1e100", "--d", "1",
      "--weight-samples", "1000"],
     "60 bins cannot resolve the log-weights of the lingauss model at d 1"),
    (["weights", "--theta-scale", "1e152", "--d", "1", "--weight-samples", "100000"],
     "60 bins cannot resolve the log-weights of the toy model at d 1"),
    (["gap", "--theta-scale", "1e153", "--d", "1", "1000", "--n-grid", "2", "1024",
      "--replicates", "20000"],
     "law scalar c = -inf of the toy model at d 1000 and theta_scale 1e+153 is not finite"),
    (["snr", "--theta-scale", "1e100", "--d", "1", "--n-grid", "2", "4", "--replicates", "200"],
     "the theta gradient of the toy model at d 1 reads zero variance at N 2"),
    (["snr", "--theta-scale", "1e16", "--d", "1", "--n-grid", "2", "4", "--replicates", "200"],
     "the theta gradient of the toy model at d 1 reads zero variance at N 2"),
], ids=["gap-mean", "weights-toy", "weights-lingauss", "weights-moments", "gap-last-d",
        "snr-theta", "snr-theta-1e16"])
def test_cli_refuses_a_sample_it_cannot_represent(tmp_path, argv, message):
    # a finite law whose gap mean or SE overflows, a weights sample that 60
    # bins cannot resolve, a law that overflows at the last d, and a theta
    # gradient that rounds to a constant (z - theta at theta = 1e100), or
    # spreads by about one ulp of its mean (at 1e16): exit 2, a usage line
    # and one error line, no table, and in a fresh interpreter, whose
    # warnings reach stderr, no warning
    out = tmp_path / "t.csv"
    run = _fresh_cli(argv, out)
    assert (run.returncode, run.stdout) == (2, "")
    usage, error = run.stderr.splitlines()
    assert usage.startswith("usage: vriwae ")
    assert error == f"vriwae: error: {argv[0]}: {message}"
    assert not out.exists()


def test_cli_writes_a_large_snr_that_floats_resolve(tmp_path):
    # at theta = 1e12 the toy's theta gradient spreads by about 0.8 about a
    # mean of about 1e12, thousands of ulps of it: not zero variance, so its
    # SNR, about 1.3e12, is written, in a fresh interpreter with no warning
    out = tmp_path / "t.csv"
    run = _fresh_cli(["snr", "--theta-scale", "1e12", "--d", "1", "--n-grid", "2", "4",
                      "--replicates", "200"], out)
    assert (run.returncode, run.stderr) == (0, "")
    rows, _ = read_table(str(out))
    theta = [row["snr_mean"] for row in rows if row["block"] == "theta"]
    assert {row["N"] for row in rows if row["block"] == "theta"} == {2, 4}
    assert theta and all(1e12 < snr < 2e12 for snr in theta)


@pytest.mark.parametrize("kind", ["gap", "collapse", "weights", "snr"])
def test_runners_check_every_law_before_any_draw(monkeypatch, kind):
    # every d's models are built and checked before the first draw, so a
    # law that overflows at the last d is refused with no draw run
    def no_draw(*args):
        raise AssertionError("a draw ran")

    monkeypatch.setattr(vrng, "_chunk_map", no_draw)
    from vriwae.cli import _RUNNERS
    with pytest.raises(ValueError, match=r"^law scalar c = -inf of the toy model at d 1000 "):
        _RUNNERS[kind](ExperimentSpec(kind=kind, model="toy", ds=(1, 1000), theta_scale=1e153))


def test_weights_sigma_variants_share_their_draws():
    # the sigma variants of a d are one law-grid cell: each one's rows are
    # those of a run at that sigma_perturb alone, bit for bit
    base = dict(kind="weights", model="lingauss", ds=(4, 9), weight_samples=5000, seed=5)
    rows = run_weights_experiment(ExperimentSpec(**base, sigma_perturbs=(0.0, 0.3)))
    for sp in (0.0, 0.3):
        alone = run_weights_experiment(ExperimentSpec(**base, sigma_perturbs=(sp,)))
        assert [r for r in rows if r["sigma_perturb"] == sp] == alone
