"""Print the sha256 of every table the benchmark's workloads write, and of
the selftest's output, so that two commits can be checked for the same bits.

For each workload and seed given, each op of `perfbench/workloads.build`
runs through `vriwae.cli.main` with `--out` into a temporary directory, and
one line gives the sha256 of the file it wrote, then the workload, the seed
and the op's name.  Then one `<sha256>  cover <name>` line per call of
`COVER`, a fixed list of small runs down paths that no workload takes:
several sigma variants of the linear Gaussian's weights and collapse,
training the toy with Adam and drep and the linear Gaussian, the toy's snr,
a toy gap and a linear Gaussian snr (at alpha 0 and 1) on the grid
N = 1, 3, 10, which starts at 1 and holds no power of two, and a toy snr at
theta-scale 1e12, whose theta SNR, about 1.3e12, is large but resolved.
Then one line per record of `vriwae selftest --seed 0` gives the sha256 of
that record's line of its stdout, then the record's name, so that a changed
record, or only its detail, is one changed line.

    python tools/table_digests.py [--workload W ...] [--seed S ...] [--keep DIR]

The defaults are all four workloads, at seeds 0 and 1: 24 tables, the cover
tables and the selftest records, in about 3 s on 2 cores.  Run it on two
checkouts and compare the output with `diff`.  With `--keep DIR` the tables
are written to DIR as `<workload>-<seed>-<op>.csv` (or `.json`), the cover
tables as `cover-<name>.csv`, with the selftest's stdout as `selftest.txt`,
so that `tools/table_diff.py` can say by how much two checkouts' tables
differ.  The package and the workloads are imported from
src/ and perfbench/ next to this script's directory; nothing there is
changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("highdim", "lowdim", "snr", "train")
# (name, argv) of each cover call; each takes under 0.2 s
COVER = (
    ("weights-lingauss", "weights --model lingauss --d 4 9 --sigma-perturb 0 0.3 "
                         "--weight-samples 5000 --seed 5"),
    ("collapse-lingauss", "collapse --model lingauss --d 3 --sigma-perturb 0 0.3 --alpha 0 0.5 "
                          "--n-grid 8 64 --replicates 200 --seed 5"),
    ("train-toy-adam", "train --model toy --optimizer adam --estimator drep --d 50 --epochs 200 "
                       "--log-every 50 --seed 5"),
    ("train-lingauss", "train --model lingauss --d 5 --epochs 200 --log-every 50 --seed 5"),
    ("snr-toy", "snr --model toy --d 3 --alpha 0 0.5 --n-grid 2 4 8 --replicates 200 --seed 5"),
    ("gap-toy-n1-3-10", "gap --model toy --d 2 --alpha 0 0.5 --n-grid 1 3 10 --replicates 200 "
                        "--seed 5"),
    ("snr-lingauss-n1-3-10", "snr --model lingauss --d 3 --sigma-perturb 0.1 --alpha 0 1 "
                             "--n-grid 1 3 10 --replicates 200 --seed 5"),
    ("snr-toy-theta-1e12", "snr --model toy --d 1 --theta-scale 1e12 --n-grid 2 4 "
                           "--replicates 200 --seed 5"),
)


def digests(workloads=WORKLOADS, seeds=(0, 1), keep=None) -> list:
    """The output lines: one per op table of each (workload, seed), in
    order, then one per cover call, then one per selftest record; the files
    are left in `keep` if it is given."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads as perf_workloads
    from vriwae.cli import main

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(keep or tmp)
        out_dir.mkdir(parents=True, exist_ok=True)
        calls = [(f"{workload}-{seed}-{op.name}", op.argv, f"{workload} {seed} {op.name}")
                 for workload in workloads for seed in seeds
                 for op in perf_workloads.build(workload, seed)]
        calls += [(f"cover-{name}", argv.split(), f"cover {name}") for name, argv in COVER]
        for stem, argv, label in calls:
            path = out_dir / (stem + (".json" if "json" in argv else ".csv"))
            with contextlib.redirect_stdout(io.StringIO()):
                main([*argv, "--out", os.fspath(path)])
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {label}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["selftest", "--seed", "0"])
        (out_dir / "selftest.txt").write_text(out.getvalue())
    for record in out.getvalue().splitlines():
        # "[PASS] name (detail)"
        digest = hashlib.sha256(record.encode()).hexdigest()
        lines.append(f"{digest}  selftest --seed 0 {record.split()[1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--seed", type=int, nargs="+", default=(0, 1))
    parser.add_argument("--keep", metavar="DIR", help="write the tables and selftest.txt to DIR")
    args = parser.parse_args(argv)
    for line in digests(args.workload, args.seed, args.keep):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
