"""Run the benchmark on two checkouts in alternating pairs and print the
table a claim needs.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]

Pair i runs `perfbench/run.py --workload W --seed K+i --seconds S --trace 0`
with this interpreter in the root of each checkout, one after the other:
the parent first in even pairs and the change first in odd ones, so that a
drift of the machine's speed over the runs falls on both sides alike.
Each run's result is the JSON object on the last line of its output.

The summary gives, per end-to-end metric of `BENCHMARK.json` (read from
CHANGE): each side's median with its quartiles, the change's median over
the parent's, the pairs in which the change reads better (ties count for
neither side), and whether the medians differ by more than the parent's
quartile distance.  Then the failed share (failed calls over attempted
ones, summed over each side's runs) and how many runs were `correct`.
Nothing under either checkout is changed besides the runs' own
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run_once(tree, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one benchmark run in checkout `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values) -> tuple:
    """(q1, median, q3) of `values`, by the inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _fmt(x: float) -> str:
    for scale, suffix in ((1e6, "M"), (1e3, "k")):
        if abs(x) >= scale:
            return f"{x / scale:.4g}{suffix}"
    return f"{x:.4g}"


def summarise(pairs, metrics) -> list:
    """The summary lines for `pairs`, a list of (parent result, change
    result), over `metrics`, a list of (name, unit, better) with better
    "higher" or "lower"."""
    lines = [f"{len(pairs)} pairs",
             "| metric | parent median (q1–q3) | change median (q1–q3) | change/parent "
             "| change better | beyond parent IQR |",
             "|---|---|---|---|---|---|"]
    for name, unit, better in metrics:
        sides = [[result["metrics"][name]["value"] for result in side] for side in zip(*pairs)]
        (p1, pm, p3), (c1, cm, c3) = map(quartiles, sides)
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(*sides))
        lines.append(f"| `{name}` ({unit}) | {_fmt(pm)} ({_fmt(p1)}–{_fmt(p3)}) "
                     f"| {_fmt(cm)} ({_fmt(c1)}–{_fmt(c3)}) | {cm / pm:.3f} "
                     f"| {wins}/{len(pairs)} | {'yes' if abs(cm - pm) > p3 - p1 else 'no'} |")
    for label, side in zip(("parent", "change"), zip(*pairs)):
        failed = sum(r["failed"] for r in side)
        attempted = sum(r["attempted"] for r in side)
        correct = sum(bool(r["correct"]) for r in side)
        lines.append(f"{label}: failed {failed}/{attempted}, correct {correct}/{len(side)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((pathlib.Path(args.change) / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run_once(getattr(args, side), args.workload, seed, args.seconds)
               for side in order}
        pairs.append((got["parent"], got["change"]))
        values = "  ".join(f"{name} {_fmt(got['parent']['metrics'][name]['value'])} -> "
                           f"{_fmt(got['change']['metrics'][name]['value'])}"
                           for name, _, _ in metrics)
        print(f"pair {i + 1} seed {seed} ({order[0]} first): {values}", flush=True)
    print("\n".join(summarise(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
