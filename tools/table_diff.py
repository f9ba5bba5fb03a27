"""Print, per table, the largest relative difference between two directories
of tables, such as two checkouts' `tools/table_digests.py --keep DIR`.

    python tools/table_diff.py A B

For each table of A (`*.csv` and `*.json`) one line gives the largest
|a - b| / max(|a|, |b|) over its numeric cells, the row and column where it
is reached, and the file name.  Equal cells, NaN on both sides and the same
infinity on both sides read 0.  The exit status is 1 if the two
directories hold different tables, or if a table's metadata, rows, columns
or non-numeric cells differ (a cell that is NaN or infinite on one side
only counts as such), and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import pathlib
import sys


def cells(path: pathlib.Path) -> dict:
    """{(row, column): value} of one table; the metadata (the CSV comment
    lines, the JSON keys other than "rows") sits at row -1.  A CSV cell that
    parses as a float is read as one."""
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        out = {(-1, k): json.dumps(v, sort_keys=True) for k, v in doc.items() if k != "rows"}
        for i, row in enumerate(doc.get("rows", [])):
            out.update(((i, c), v) for c, v in row.items())
        return out
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    out = {(-1, j): line for j, line in enumerate(meta)}
    reader = csv.reader(lines[len(meta):])
    columns = next(reader, [])
    out[(-1, "columns")] = ",".join(columns)
    for i, row in enumerate(reader):
        out.update(((i, c), _number(v)) for c, v in zip(columns, row, strict=True))
    return out


def _number(s: str):
    try:
        return float(s)
    except ValueError:
        return s


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def relative_difference(a, b):
    """|a - b| / max(|a|, |b|) of two cells, 0 where they are equal; None
    where they cannot be compared so: a non-numeric cell that differs, or a
    NaN or an infinity on one side only."""
    if a == b or (_is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (_is_number(a) and _is_number(b) and math.isfinite(a) and math.isfinite(b)):
        return None
    return abs(a - b) / max(abs(a), abs(b))


def compare(a_dir, b_dir) -> int:
    """Print the per-table lines for directories `a_dir` and `b_dir`; the
    exit status."""
    a_dir, b_dir = pathlib.Path(a_dir), pathlib.Path(b_dir)
    names = [sorted(p.name for p in d.iterdir() if p.suffix in (".csv", ".json"))
             for d in (a_dir, b_dir)]
    status = 0
    for name in sorted(set(names[0]) ^ set(names[1])):
        print(f"only in {a_dir if name in names[0] else b_dir}: {name}")
        status = 1
    for name in names[0]:
        if name not in names[1]:
            continue
        a, b = cells(a_dir / name), cells(b_dir / name)
        if a.keys() != b.keys():
            print(f"rows or columns differ: {name}")
            status = 1
            continue
        worst, where = 0.0, "-"
        for (row, col), x in a.items():
            r = relative_difference(x, b[(row, col)])
            if r is None:
                print(f"cell differs: {name} row {row} {col}: {x!r} != {b[(row, col)]!r}")
                status = 1
            elif r > worst:
                worst, where = r, f"row {row} {col}"
        print(f"{worst:.3e}  {name}  {where}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
