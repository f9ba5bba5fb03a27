"""The package's public names, and the ones the benchmark's tracer looks up.

`perfbench/tracing.py` wraps every function in the `__all__` of the traced
modules, `experiments.ndtri`, `RngStream.child` and four methods on each
model class, so a deletion of any of them fails here before it crashes a
traced benchmark run.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

import vriwae

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "vriwae").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"vriwae.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing


def test_package_reexports_public_names():
    # every name vriwae/__init__ imports is public in its module and is that object
    tree = ast.parse((ROOT / "src" / "vriwae" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"vriwae.{node.module}")
        for alias in node.names:
            assert alias.name in mod.__all__, f"{node.module}.{alias.name}"
            assert getattr(vriwae, alias.name) is getattr(mod, alias.name)


def _namespaces(tracing):
    """Every namespace the tracer patches, as {label: dict copy}."""
    import vriwae.cli
    mods = {name: importlib.import_module(f"vriwae.{name}") for name in tracing.TRACED_MODULES}
    out = {name: dict(vars(mod)) for name, mod in mods.items()}
    out["cli"] = dict(vars(vriwae.cli))
    out["cli._RUNNERS"] = dict(vriwae.cli._RUNNERS)
    for cls in (mods["rng"].RngStream, mods["models"].GaussianToy, mods["models"].LinearGaussian):
        out[cls.__name__] = dict(vars(cls))
    return out


def test_tracer_runs_cli_and_restores_names(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    import vriwae.cli
    from vriwae.models import GaussianToy, LinearGaussian
    for cls in (GaussianToy, LinearGaussian):
        assert all(inspect.isfunction(vars(cls).get(m)) for m in tracing.MODEL_METHODS)

    before = _namespaces(tracing)
    tracer = tracing.Tracer()
    words = {}
    with tracer.installed():
        assert vriwae.cli.main(["gap", "--d", "3", "--n-grid", "2", "4", "--alpha", "0",
                                "--replicates", "8", "--out", str(tmp_path / "gap.csv")]) == 0
        words["gap"] = tracer.layer_metrics()["rng.words"]
        tracer.reset_totals()
        assert vriwae.cli.main(["train", "--d", "3", "--n-importance", "4", "--epochs", "6",
                                "--log-every", "3", "--out", str(tmp_path / "train.csv")]) == 0
        words["train"] = tracer.layer_metrics()["rng.words"]
    after = _namespaces(tracing)

    # both commands draw through the traced rng functions
    assert words["gap"] > 0 and words["train"] > 0, words
    metrics = tracer.layer_metrics()
    assert tracer.spans > 0
    assert metrics["experiments.runner_s"] > 0 and metrics["experiments.table_bytes"] > 0
    assert before.keys() == after.keys()
    for label, names in before.items():
        changed = [k for k, v in names.items() if after[label].get(k) is not v]
        assert not changed, f"{label}: {changed} not restored"
