"""The package's public names, and the ones the benchmark's tracer looks up.

`perfbench/tracing.py` wraps every function in the `__all__` of the traced
modules, `experiments.ndtri`, `RngStream.child` and four methods on each
model class, so a deletion of any of them fails here before it crashes a
traced benchmark run.  It also guards the model protocol: no module outside
`models` branches on a model's type.
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


def _model_type_branches(tree):
    """(function, line) of every isinstance(..., GaussianToy | LinearGaussian)
    and every `spec.model ==` / `!=` comparison, outside the model factories
    (`make_*` and `_variants`)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("make_") or node.name == "_variants":
                return
            func = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            if names & {"GaussianToy", "LinearGaussian"}:
                found.append((func, node.lineno))
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq))
                                                 for op in node.ops):
            for side in (node.left, *node.comparators):
                if (isinstance(side, ast.Attribute) and side.attr == "model"
                        and getattr(side.value, "id", None) == "spec"):
                    found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_no_model_type_branches_outside_models():
    # what a model is lives in `models`: train and the runners ask the model
    # (see the models docstring), and only the factories choose a class
    paths = [p for p in sorted((ROOT / "src" / "vriwae").glob("*.py")) if p.stem != "models"]
    assert {"train", "experiments"} <= {p.stem for p in paths}
    for path in paths:
        assert _model_type_branches(ast.parse(path.read_text())) == [], path.name
    probe = ast.parse("def f(m, spec):\n    if isinstance(m, (int, GaussianToy)): pass\n"
                      "    return spec.model != 'toy'\n"
                      "def make_toy(spec):\n    return spec.model == 'toy'\n")
    assert _model_type_branches(probe) == [("f", 2), ("f", 3)]
