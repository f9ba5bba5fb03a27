"""Benchmark of the `vriwae` command line.

    python3 perfbench/run.py --workload highdim --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`).  After a warm-up round, a run repeats whole rounds of its
workload's CLI calls (see `workloads.py`) until the rounds have taken
`--seconds`, checks the tables of the first round (see `checks.py`) and that
later rounds write the same bytes, and prints one JSON object as its last
line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: set-up time, peak RSS
and log-weights per reference time, where each call's time is divided by
that of a fixed kernel timed just before and after it (`reference_s`).  With
`--trace 1` traced and untraced rounds alternate; the traced rounds give the
per-layer metrics (see `tracing.py`), the untraced ones the per-subcommand
rates and the process counters, and the two together the tracing overhead.
Tables, traces and the result go to `perfbench/out/`.

Everything runs in this one process, with numpy's BLAS threads capped to the
cores it may use; only the set-up samples start fresh interpreters.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 5
_SETUP_CHILD = ("import time; t = time.perf_counter(); "
                "import numpy, scipy.special, vriwae.cli; "
                "print(time.perf_counter() - t)")

SUBCOMMAND_RATES = {
    "gap": "cli.gap_log_weights_per_s",
    "collapse": "cli.collapse_log_weights_per_s",
    "weights": "cli.weights_log_weights_per_s",
    "snr": "cli.snr_samples_per_s",
    "train": "cli.train_epochs_per_s",
}

WORKLOADS = ("highdim", "lowdim", "snr", "train")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "log_weights_per_ref": "1/ref"}


def _units_per_layer() -> dict:
    import tracing
    units = {name: "s" for name in tracing.LAYERS}
    units.update({name: "count" for name in tracing.COUNTERS})
    units.update({"models.score_bytes": "B", "experiments.table_bytes": "B",
                  "process.sys_s": "s", "process.minor_faults": "count",
                  "trace.overhead_pct": "%", "trace.spans": "count"})
    units.update({name: "1/s" for name in ("cli.log_weights_per_s", *SUBCOMMAND_RATES.values())})
    return units


def _cap_threads():
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    sys.path.insert(0, SRC)


def _setup_sample() -> float:
    """Import time of numpy, scipy and vriwae in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD], capture_output=True,
                          text=True, timeout=120, check=True, cwd=ROOT)
    return float(proc.stdout.split()[-1])


REFERENCE_WORDS = 1_500_000


def reference_s() -> float:
    """Time of a fixed kernel shaped like the package's draws: raw Philox
    words, 53-bit uniforms, `ndtri` and a sum of squares on fresh 12 MB
    arrays.  It calls no `vriwae` code, so a change to the package leaves it
    unchanged, and it tracks how fast the machine runs at the moment."""
    import numpy as np
    from scipy.special import ndtri
    t0 = time.perf_counter()
    for k in range(2):
        words = np.random.Philox(key=[k, 0]).random_raw(REFERENCE_WORDS)
        e = ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
        float((e * e).sum())
    return time.perf_counter() - t0


class Round:
    """Timings and outcomes of one round of a workload's CLI calls.

    `refs[i]` and `refs[i + 1]` are the reference kernel's times just before
    and just after call i.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.seconds: list[float] = []
        self.refs: list[float] = []
        self.ok: list[bool] = []
        self.texts: list = []
        self.sys_s = 0.0
        self.minor_faults = 0
        self.layers: dict = {}

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    def call_seconds(self, i, per_ref=False) -> float:
        """Time of call i, or with `per_ref` that time in units of the
        reference kernel's time around the call."""
        if per_ref:
            return self.seconds[i] / (0.5 * (self.refs[i] + self.refs[i + 1]))
        return self.seconds[i]


def rate(ops, rounds, subcommand=None, per_ref=False) -> float:
    """Log-weights per second (or per reference time, with `per_ref`) of the
    calls that count and never failed, from each call's median time over
    `rounds`; with `subcommand`, that subcommand's own units per second."""
    count = seconds = 0.0
    for i, op in enumerate(ops):
        if op.count and subcommand in (None, op.subcommand) and all(r.ok[i] for r in rounds):
            count += op.count if subcommand is None else op.count / op.per_unit
            seconds += statistics.median(r.call_seconds(i, per_ref) for r in rounds)
    return count / seconds if seconds else 0.0


def run_round(ops, outdir, tracer=None) -> Round:
    import vriwae.cli
    rnd = Round(traced=tracer is not None)
    gc.collect()
    rnd.refs.append(reference_s())
    for i, op in enumerate(ops):
        path = os.path.join(outdir, op.name + (".json" if "json" in op.argv else ".csv"))
        argv = [*op.argv, "--out", path]
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                vriwae.cli.main(argv)
            else:
                tracer.op = i
                with tracer.span(f"cli.{op.subcommand}"):
                    vriwae.cli.main(argv)
            ok = True
        except Exception:       # a failing call is counted and the run goes on
            traceback.print_exc()
            ok = False
        rnd.seconds.append(time.perf_counter() - t0)
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        rnd.sys_s += r1.ru_stime - r0.ru_stime
        rnd.minor_faults += r1.ru_minflt - r0.ru_minflt
        rnd.ok.append(ok)
        text = None
        if ok:
            with open(path) as f:
                text = f.read()
        rnd.texts.append((path, text))
        rnd.refs.append(reference_s())
    return rnd


def verify(ops, rounds) -> tuple[int, list]:
    """Check the first round's tables; later rounds must write the same bytes.

    Returns (failed calls, violations).  A call fails when the CLI raises or
    its table cannot be read or lacks a column; a violation is a table that
    reads wrong.
    """
    failed, violations = 0, []
    first = rounds[0]
    first_ok = []
    for op, ok, (path, _) in zip(ops, first.ok, first.texts):
        if ok:
            try:
                violations += op.check(path)
            except (ValueError, KeyError) as exc:     # unreadable or incomplete table
                print(f"{op.name}: {exc!r}", file=sys.stderr)
                ok = False
        first_ok.append(ok)
    for rnd in rounds:
        for op, ok, ok_first, (_, text), (_, text_first) in zip(
                ops, rnd.ok, first_ok, rnd.texts, first.texts):
            failed += not (ok and ok_first)
            if ok and text != text_first:
                violations.append(f"{op.name}: a later round wrote a different table")
    return failed, violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(SRC, "vriwae", "cli.py")):
        print(f"run.py: no vriwae package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    _cap_threads()
    t0 = time.perf_counter()
    import numpy, scipy.special, vriwae.cli  # noqa: E401,F401  (timed set-up)
    setup = [time.perf_counter() - t0]
    setup += [_setup_sample() for _ in range(SETUP_SAMPLES - 1)]

    import tracing
    import workloads
    ops = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    outdir = os.path.join(OUT, tag)
    os.makedirs(outdir, exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    # The first round warms up: it pays for first-touch page faults and lazy
    # loading (about 25% slower), and stays out of the metrics.
    rounds = [run_round(ops, outdir)]
    measured = 0.0
    # with tracing, traced and untraced rounds alternate in pairs
    while measured < args.seconds or (tracer is not None and len(rounds) % 2 == 0):
        if tracer is not None and len(rounds) % 2:
            tracer.reset_totals()
            with tracer.installed():
                rnd = run_round(ops, outdir, tracer)
            rnd.layers = tracer.layer_metrics()
        else:
            rnd = run_round(ops, outdir)
        rounds.append(rnd)
        measured += rnd.wall + sum(rnd.refs)

    failed, violations = verify(ops, rounds)
    for v in violations:
        print(f"VIOLATION {v}", file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "log_weights_per_ref": rate(ops, rounds[1:], per_ref=True),
        }
        units = END_TO_END_UNITS
    else:
        plain = [r for r in rounds[1:] if not r.traced]
        traced = [r for r in rounds if r.traced]
        values = {name: statistics.median(r.layers[name] for r in traced)
                  for name in traced[0].layers}
        values["process.sys_s"] = statistics.median(r.sys_s for r in plain)
        values["process.minor_faults"] = statistics.median(r.minor_faults for r in plain)
        values["trace.overhead_pct"] = 100.0 * (rate(ops, plain, per_ref=True)
                                                / rate(ops, traced, per_ref=True) - 1.0)
        values["trace.spans"] = tracer.spans / len(traced)
        values["cli.log_weights_per_s"] = rate(ops, plain)
        for sub, name in SUBCOMMAND_RATES.items():
            values[name] = rate(ops, plain, sub)
        tracer.save(os.path.join(OUT, f"trace-{tag}.npz"))
        units = _units_per_layer()

    result = {
        "correct": not violations,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    if tracer is None:
        print(f"{'log_weights_per_s (raw)':34s} "
              f"{rate(ops, rounds[1:]):.6g} 1/s")
    walls = " ".join(f"{r.wall:.2f}{'T' if r.traced else ''}" for r in rounds)
    print(f"rounds (s) {walls}; attempted {result['attempted']}, "
          f"failed {failed}, correct {result['correct']}")
    text = json.dumps(result)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        f.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
