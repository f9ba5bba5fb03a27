"""Print the sha256 of every table the benchmark's workloads write, and of
the selftest's output, so that two commits can be checked for the same bits.

For each workload and seed given, each op of `perfbench/workloads.build`
runs through `vriwae.cli.main` with `--out` into a temporary directory, and
one line gives the sha256 of the file it wrote, then the workload, the seed
and the op's name.  Then one line per record of `vriwae selftest --seed 0`
gives the sha256 of that record's line of its stdout, then the record's
name, so that a changed record, or only its detail, is one changed line.

    python tools/table_digests.py [--workload W ...] [--seed S ...] [--keep DIR]

The defaults are all four workloads, at seeds 0 and 1: 24 tables and the
selftest records, in about 3 s on 2 cores.  Run it on two checkouts and
compare the output with `diff`.  With `--keep DIR` the tables are written to
DIR as `<workload>-<seed>-<op>.csv` (or `.json`), with the selftest's stdout
as `selftest.txt`, so that `tools/table_diff.py` can say by how much two
checkouts' tables differ.  The package and the workloads are imported from
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


def digests(workloads=WORKLOADS, seeds=(0, 1), keep=None) -> list:
    """The output lines: one per op table of each (workload, seed), in
    order, then one per selftest record; the files are left in `keep` if it
    is given."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads as perf_workloads
    from vriwae.cli import main

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(keep or tmp)
        out_dir.mkdir(parents=True, exist_ok=True)
        for workload in workloads:
            for seed in seeds:
                for op in perf_workloads.build(workload, seed):
                    ext = ".json" if "json" in op.argv else ".csv"
                    path = out_dir / f"{workload}-{seed}-{op.name}{ext}"
                    with contextlib.redirect_stdout(io.StringIO()):
                        main([*op.argv, "--out", os.fspath(path)])
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {workload} {seed} {op.name}")
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
