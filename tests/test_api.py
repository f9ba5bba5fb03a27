"""The package's public names, and the ones the benchmark's tracer looks up.

`perfbench/tracing.py` wraps every function in the `__all__` of the traced
modules, `experiments.ndtri`, `RngStream.child` and four methods on each
model class, so a deletion of any of them fails here before it crashes a
traced benchmark run; a traced `snr` call must count every normal it draws,
so an eps kernel that bypasses `rng.standard_normal` fails here too.  It
also guards the model protocol: no module outside
`models` branches on a model's type; and the one map of replicate noise:
only `bounds._law_samples` and `gradients._grad_moments` call
`rng._chunk_map`.  It is the package's import lint: no
module imports a name it does not read.  And no public name is reached by
tests alone: every name in an `__all__`, and every public method or property
of a model class, is read by the package or by the benchmark.  Last, it
keeps `import vriwae.cli`, which every CLI call pays for, free of
scipy.integrate, which only the quadrature oracle reads, and probes
`tools/code_lines.py`, which counts the package's code lines, and
`tools/table_digests.py`, which digests the benchmark's tables,
`tools/table_diff.py`, which says by how much two sets of them differ, and
the summary of `tools/bench_pairs.py`, which compares two checkouts'
benchmark runs.
"""

import ast
import hashlib
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

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
        tracer.reset_totals()
        assert vriwae.cli.main(["snr", "--d", "2", "--n-grid", "2", "4", "--alpha", "0",
                                "--replicates", "100", "--out", str(tmp_path / "snr.csv")]) == 0
        grad_calls = tracer.layer_metrics()["gradients.grad_calls"]
        config = tmp_path / "snr.json"
        config.write_text(json.dumps({"m_samples": 2}))
        normals = {}
        for sigma_perturb in (0.0, 0.05):
            tracer.reset_totals()
            assert vriwae.cli.main(["snr", "--config", str(config), "--model", "lingauss",
                                    "--d", "3", "--sigma-perturb", str(sigma_perturb),
                                    "--n-grid", "2", "4", "--alpha", "0", "--replicates", "100",
                                    "--out", str(tmp_path / "snr_lingauss.csv")]) == 0
            normals[sigma_perturb] = tracer.layer_metrics()["rng.normals"]
    after = _namespaces(tracing)

    # both commands draw through the traced rng functions, and snr computes
    # its gradients through the traced kernel
    assert words["gap"] > 0 and words["train"] > 0, words
    assert grad_calls > 0
    # an snr call draws R M sum(N) d normals for its eps through the traced
    # `standard_normal`, besides the instance's own: 2d for x and rest, and
    # 3d more for the perturbation of theta, a and b where sigma_perturb > 0
    eps = 100 * 2 * (2 + 4) * 3
    assert normals == {0.0: eps + 2 * 3, 0.05: eps + 5 * 3}
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


def test_one_statement_of_the_law():
    # both models draw their log-weight law and take its closed forms from
    # the four scalars of `_Model.law_scalars`: no class states its own
    from vriwae import models
    for cls in (models.GaussianToy, models.LinearGaussian):
        stated = {"law_variates", "law_log_weights"} & vars(cls).keys()
        assert not stated, (cls.__name__, stated)
    assert [name for name in models.__all__ if name.endswith("_analytics")] == []


def _chunk_map_users(tree, module):
    """"module.function" of each top-level function of `tree` that calls
    `_chunk_map`, by name or as an attribute, sorted."""
    found = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (
                        getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                ) == "_chunk_map":
                    found.add(f"{module}.{top.name}")
    return sorted(found)


def test_one_map_per_draw_law():
    # replicate noise is drawn through `rng._chunk_map` by two functions only:
    # `bounds._law_samples` for the log-weight law, `gradients._grad_moments`
    # for the gradient samples; every other Monte Carlo caller goes through one
    users = [user for name in MODULES
             for user in _chunk_map_users(ast.parse((ROOT / "src" / "vriwae" / f"{name}.py")
                                                    .read_text()), name)]
    assert users == ["bounds._law_samples", "gradients._grad_moments"]
    probe = ast.parse("def f(c):\n    return [vrng._chunk_map(*c)]\n"
                      "def g(k):\n    def h():\n        return _chunk_map(0, 1, [], k, None)\n"
                      "def e(m: _chunk_map):\n    return vrng._chunk_map\n")
    assert _chunk_map_users(probe, "m") == ["m.f", "m.g"]


# imports no module reads, each kept on purpose: perfbench/tracing.py wraps
# experiments.ndtri
UNREAD_IMPORTS = {("experiments", "ndtri")}


def _unread_imports(tree):
    """Names a module binds by import and never reads, sorted.  A name counts
    as read where it appears as a name anywhere in the module, or as a string
    in its `__all__`."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted(imported - read)


def test_no_unread_imports():
    # `__init__` imports only to re-export (test_package_reexports_public_names)
    found = {(name, unread) for name in MODULES
             for unread in _unread_imports(ast.parse((ROOT / "src" / "vriwae" / f"{name}.py")
                                                     .read_text()))}
    assert found == UNREAD_IMPORTS
    probe = ast.parse("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                      "from dataclasses import dataclass, field\nfrom math import pi, tau\n"
                      "__all__ = ['tau']\n@dataclass\nclass A:\n    x: np.ndarray\n")
    assert _unread_imports(probe) == ["field", "os", "pi"]


def _unread_public_names(modules, readers):
    """"module.name" of every name in the `__all__` of a module of
    `modules` ({module: tree}) that no tree of `modules` or `readers` reads,
    sorted.  A name counts as read where it is loaded as a name or looked up
    as an attribute; a definition, an import or an `__all__` string is not a
    read."""
    read = set()
    for tree in (*modules.values(), *readers):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    public = set()
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                public |= {f"{name}.{elt.value}" for elt in node.value.elts}
    return sorted(p for p in public if p.partition(".")[2] not in read)


def _unread_model_methods(classes, trees):
    """"Class.name" of every public method or property that a class of
    `classes`, or a base of it, defines and that no tree of `trees` looks up
    as an attribute, sorted."""
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    found = set()
    for cls in classes:
        for klass in cls.__mro__[:-1]:
            for name, value in vars(klass).items():
                if (not name.startswith("_") and name not in read
                        and (inspect.isfunction(value)
                             or isinstance(value, (property, staticmethod, classmethod)))):
                    found.add(f"{klass.__name__}.{name}")
    return sorted(found)


class _ProbeBase:
    LABEL = "probe"

    def read(self):
        pass

    def unread(self):
        pass

    def _private(self):
        pass


class _Probe(_ProbeBase):
    @property
    def size(self):
        return 0

    @staticmethod
    def law():
        pass

    alias = _ProbeBase.read


def test_public_names_are_read():
    # a public name that only tests reach is a deletion candidate: every
    # name in an `__all__`, and every public method or property of a model
    # class, is read by the package (not its `__init__`, which only
    # re-exports) or by the benchmark
    from vriwae.models import GaussianToy, LinearGaussian
    modules = {name: ast.parse((ROOT / "src" / "vriwae" / f"{name}.py").read_text())
               for name in MODULES}
    readers = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert readers
    assert _unread_public_names(modules, readers) == []
    assert _unread_model_methods((GaussianToy, LinearGaussian),
                                 [*modules.values(), *readers]) == []
    assert _unread_model_methods((_Probe,), [ast.parse("m.read()\nm.size\n")]) == [
        "_Probe.alias", "_Probe.law", "_ProbeBase.unread"]
    probe = {"a": ast.parse("__all__ = ['f', 'g', 'h', 'k']\ndef f(): pass\n"
                            "def g(): return f()\nh = 1\nk = 2\n"),
             "b": ast.parse("from a import k\n")}
    assert _unread_public_names(probe, [ast.parse("import a\na.h\n")]) == ["a.g", "a.k"]


def test_cli_import_leaves_scipy_integrate_out():
    # the quadrature oracle imports scipy.integrate where it runs: at module
    # level it added 0.33-0.36 s to a 0.45 s `import vriwae.cli`
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, vriwae.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_code_line_counter_skips_blanks_comments_and_docstrings(tmp_path, monkeypatch, capsys):
    # tools/code_lines.py counts the lines that hold a token other than a
    # comment, outside docstrings; a multi-line string counts on each of its
    # non-blank lines
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    code_lines = importlib.import_module("code_lines")
    probe = ('"""Module\n\ndocstring."""\n'
             "\n"
             "# a comment\n"
             "import os  # a trailing comment\n"
             "\n"
             "def f(x):\n"
             '    """One-line docstring."""\n'
             "    s = '''two\n"
             "\n"
             "lines'''\n"
             "    return (x +\n"
             "            1)\n"
             "\n"
             "class A:\n"
             '    """Class\n    docstring."""\n'
             "    # a comment\n"
             "    y = 1\n")
    assert code_lines.code_lines(probe) == 8
    (tmp_path / "a.py").write_text(probe)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "8", "b.py", "0", "total", "8"]


def test_table_digests_repeat(tmp_path, monkeypatch, capsys):
    # tools/table_digests.py prints one sha256 line per op table of a
    # workload, and the same lines on a second run, which keeps the files
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "path", list(sys.path))    # undoes the tool's own entries
    table_digests = importlib.import_module("table_digests")
    runs = []
    for keep in ([], ["--keep", str(tmp_path)]):
        assert table_digests.main(["--workload", "train", "--seed", "0", *keep]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    kept = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert {f"train-0-{line.split()[3]}.csv": line.split()[0]
            for line in runs[0][:-1]} | {"selftest.txt": runs[0][-1].split()[0]} == kept
    lines = [line for line in runs[0] if not line.endswith("selftest --seed 0")]
    ops = [op.name for op in importlib.import_module("workloads").build("train", 0)]
    assert [line.split()[1:] for line in lines] == [["train", "0", name] for name in ops]
    assert all(len(line.split()[0]) == 64 for line in runs[0])


def _table_diff_lines(out: str):
    """The per-table lines of tools/table_diff.py's output, each with the
    (relative difference, column) pairs of its indented per-column lines."""
    tables = []
    for line in out.splitlines():
        if line.startswith(" "):
            rel, col = line.split()
            tables[-1][1].append((float(rel), col))
        else:
            tables.append((line, []))
    return tables


def test_table_diff_reads_the_relative_size_of_a_change(tmp_path, monkeypatch, capsys):
    # tools/table_diff.py prints per table the largest relative difference
    # of its numeric cells: 0 for identical tables, and the size of one
    # perturbed cell; after it, per column that moved, that column's largest
    # relative difference, and none for a column that did not move; a
    # changed non-numeric cell or column makes it exit 1
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    table_diff = importlib.import_module("table_diff")
    csv_text = "# seed=3\nmodel,N,mean\ntoy,2,-0.5\ntoy,4,nan\n"
    json_doc = {"schema_version": 1, "rows": [{"N": 2, "mean": 4.0, "pred": None}]}
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "t.csv").write_text(csv_text)
        (tmp_path / side / "t.json").write_text(json.dumps(json_doc))
    assert table_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    tables = _table_diff_lines(capsys.readouterr().out)
    assert [line.split()[:2] for line, _ in tables] == [
        ["0.000e+00", "t.csv"], ["0.000e+00", "t.json"]]
    assert [columns for _, columns in tables] == [[], []]

    (tmp_path / "b" / "t.csv").write_text(csv_text.replace("-0.5", "-0.5000005"))
    json_doc["rows"][0]["mean"] = 4.0 * (1 + 2e-13)
    (tmp_path / "b" / "t.json").write_text(json.dumps(json_doc))
    assert table_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    tables = _table_diff_lines(capsys.readouterr().out)
    (csv_line, csv_rel), (json_line, json_rel) = [
        (line, float(line.split()[0])) for line, _ in tables]
    assert csv_rel == pytest.approx(1e-6, rel=1e-5) and csv_line.endswith("t.csv  row 0 mean")
    assert json_rel == pytest.approx(2e-13, rel=1e-3) and json_line.endswith("t.json  row 0 mean")
    assert [columns for _, columns in tables] == [[(csv_rel, "mean")], [(json_rel, "mean")]]

    # two columns move, by different amounts in different rows; N does not
    two = "model,N,mean,se\ntoy,2,-0.5,0.25\ntoy,4,1.0,0.5\n"
    for side, text in (("c", two), ("d", two.replace("-0.5,", "-0.5000005,")
                                         .replace("0.5\n", "0.5005\n"))):
        (tmp_path / side).mkdir()
        (tmp_path / side / "t.csv").write_text(text)
    assert table_diff.main([str(tmp_path / "c"), str(tmp_path / "d")]) == 0
    (line, columns), = _table_diff_lines(capsys.readouterr().out)
    assert float(line.split()[0]) == pytest.approx(0.0005 / 0.5005, rel=1e-3)
    assert line.endswith("t.csv  row 1 se")
    assert [col for _, col in columns] == ["mean", "se"]
    assert columns[0][0] == pytest.approx(1e-6, rel=1e-5)
    assert columns[1][0] == float(line.split()[0])

    for changed in (csv_text.replace("toy,4", "lg,4"), csv_text.replace("mean", "gap"),
                    csv_text.replace("nan", "0.0"), csv_text + "toy,8,1.0\n",
                    csv_text.replace("seed=3", "seed=4")):
        (tmp_path / "b" / "t.csv").write_text(changed)
        assert table_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1, changed
    capsys.readouterr()


def _result(rate, rss, correct=True, failed=0):
    return {"correct": correct, "attempted": 12, "failed": failed,
            "metrics": {"log_weights_per_ref": {"value": rate, "unit": "1/ref"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_bench_pairs_summary(monkeypatch):
    # tools/bench_pairs.py summarises alternating pairs of result lines: per
    # metric each side's median and quartiles, the ratio of the medians, the
    # pairs the change wins in the metric's direction (a tie counts for
    # neither) and whether the medians differ by more than the parent's
    # quartile distance; then each side's failed share and correct runs
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    bench_pairs = importlib.import_module("bench_pairs")
    pairs = [(_result(100.0, 110.0), _result(130.0, 110.0)),
             (_result(104.0, 111.0), _result(135.0, 109.0, failed=2)),
             (_result(96.0, 109.0), _result(96.0, 112.0)),
             (_result(102.0, 110.5), _result(140.0, 108.0, correct=False))]
    lines = bench_pairs.summarise(pairs, [("log_weights_per_ref", "1/ref", "higher"),
                                          ("peak_rss_mb", "MB", "lower")])
    assert lines[0] == "4 pairs"
    assert lines[3] == ("| `log_weights_per_ref` (1/ref) | 101 (99–102.5) "
                        "| 132.5 (121.5–136.2) | 1.312 | 3/4 | yes |")
    assert lines[4] == ("| `peak_rss_mb` (MB) | 110.2 (109.8–110.6) | 109.5 (108.8–110.5) "
                        "| 0.993 | 2/4 | no |")
    assert lines[5:] == ["parent: failed 0/48, correct 4/4", "change: failed 2/48, correct 3/4"]
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert bench_pairs._fmt(540_600.0) == "540.6k" and bench_pairs._fmt(5.03e6) == "5.03M"
