"""In-memory span tracing of the `vriwae` layers, from outside the package.

`Tracer.installed()` replaces the public functions of the traced modules
with wrappers that record a span (name, start, end, parent, op) each, and
restores the originals on exit.  A function is replaced wherever a caller
looks it up: in its own module, in every `vriwae` module that imported it by
name, and in the CLI's runner table.  Model methods are replaced on their
classes.  `asymptotics` and `cli` stay untraced.

A span's self time is its duration minus the durations of its child spans;
`LAYERS` sums self times into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from array import array
from collections import defaultdict

TRACED_MODULES = ("rng", "models", "bounds", "weights", "gradients", "train", "experiments")
MODEL_METHODS = ("reparam", "log_relative_weight", "log_unnormalized_weight", "score_grads")
RUNNERS = ("run_gap_experiment", "run_snr_experiment", "run_weights_experiment",
           "run_collapse_experiment", "run_train_experiment")

# per-layer self-time metric -> spans whose self time it sums
LAYERS = {
    "rng.stream_s": ("rng.make_stream", "rng.child"),
    "rng.word_s": ("rng.raw_uint64",),
    "rng.normal_s": ("rng.uniform", "rng.standard_normal", "experiments.ndtri"),
    "models.weight_s": tuple(f"models.{m}" for m in MODEL_METHODS[:3]),
    "models.score_s": ("models.score_grads",),
    "bounds.reduce_s": ("bounds.vr_iwae_from_log_weights",),
    "weights.qq_s": ("weights.qq_points",),
    "gradients.grad_s": ("gradients.grad_samples_from_eps",),
    "gradients.sweep_s": ("gradients.snr_sweep",),
    "train.loop_s": ("train.run_training",),
    "experiments.runner_s": tuple(f"experiments.{r}" for r in RUNNERS),
    "experiments.write_s": ("experiments.write_table",),
}

COUNTERS = ("rng.streams", "rng.words", "rng.normals", "models.weight_evals",
            "models.max_batch_elems", "models.score_bytes", "bounds.reduce_elems",
            "gradients.grad_calls", "experiments.table_bytes")

_WEIGHT_SPANS = ("models.log_relative_weight", "models.log_unnormalized_weight")


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _count(tracer, name, parent, args, out):
    """Counters kept at the span boundaries."""
    c = tracer.counts
    if name == "rng.make_stream":
        c["rng.streams"] += 1
    elif name == "rng.raw_uint64":
        c["rng.words"] += int(args[1])
    elif name in ("rng.standard_normal", "experiments.ndtri"):
        c["rng.normals"] += _size(out)
    elif name in _WEIGHT_SPANS:
        # log_unnormalized_weight of the linear Gaussian calls
        # log_relative_weight: count each log-weight once
        if parent not in _WEIGHT_SPANS:
            c["models.weight_evals"] += _size(out)
    elif name == "bounds.vr_iwae_from_log_weights":
        c["bounds.reduce_elems"] += _size(args[0])
    elif name == "gradients.grad_samples_from_eps":
        c["gradients.grad_calls"] += 1
    elif name == "experiments.write_table":
        c["experiments.table_bytes"] += len(out.encode())
    if name in ("models.reparam", "models.score_grads"):
        c["models.max_batch_elems"] = max(c["models.max_batch_elems"], _size(args[1]))
    if name == "models.score_grads":
        c["models.score_bytes"] += sum(int(t.nbytes) for t in out)


class Tracer:
    """Spans and counters of the traced calls, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self._stack: list = []            # [span index, name, start, child time]
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)

    def reset_totals(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    @property
    def spans(self) -> int:
        return len(self.span_start)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name):
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([idx, name, start, 0.0])

    def _close(self):
        end = time.perf_counter()
        idx, name, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
            return self._stack[-1][1]
        return None

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a call made by the benchmark itself."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                parent = tracer._close()
            _count(tracer, name, parent, args, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace the `vriwae` layers inside the block."""
        import vriwae.cli
        modules = {name: importlib.import_module(f"vriwae.{name}") for name in TRACED_MODULES}
        wrappers = {}           # id(original) -> wrapper
        for mod_name, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = self.wrap(f"{mod_name}.{attr}", fn)
        ndtri = modules["experiments"].ndtri
        wrappers[id(ndtri)] = self.wrap("experiments.ndtri", ndtri)

        patches = []            # (namespace, key, original, setter)

        def patch(ns, key, value, setter):
            patches.append((ns, key, value, setter))
            setter(ns, key, wrappers[id(value)])

        for mod in (*modules.values(), vriwae.cli):
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers and (value is not ndtri or mod is modules["experiments"]):
                    patch(mod, key, value, setattr)
        for key, value in list(vriwae.cli._RUNNERS.items()):
            patch(vriwae.cli._RUNNERS, key, value, dict.__setitem__)
        for cls, methods, layer in (
                (modules["rng"].RngStream, ("child",), "rng"),
                (modules["models"].GaussianToy, MODEL_METHODS, "models"),
                (modules["models"].LinearGaussian, MODEL_METHODS, "models")):
            for m in methods:
                fn = vars(cls)[m]
                wrappers[id(fn)] = self.wrap(f"{layer}.{m}", fn)
                patch(cls, m, fn, setattr)
        try:
            yield self
        finally:
            for ns, key, value, setter in reversed(patches):
                setter(ns, key, value)

    def layer_metrics(self) -> dict:
        """Per-layer self times and counters since the last reset."""
        out = {name: sum(self.self_s.get(s, 0.0) for s in spans)
               for name, spans in LAYERS.items()}
        out.update({name: self.counts.get(name, 0) for name in COUNTERS})
        return out

    def save(self, path):
        """Write every span to an .npz file: names, and per span its name
        index, start, end, parent span index (-1 for none) and op index."""
        import numpy as np
        np.savez(path, names=np.array(self.names), name=np.asarray(self.span_name),
                 start=np.asarray(self.span_start), end=np.asarray(self.span_end),
                 parent=np.asarray(self.span_parent), op=np.asarray(self.span_op))
