#!/usr/bin/env python3
"""Compare two directories of pottsim reports, paired by file name.

    python3 scripts/compare_reports.py OLD_DIR NEW_DIR

Reads every pottsim table, JSON or CSV: `solve`/`ablate` reports, `bench`
summaries, `detune` sweeps and `landscape` curves.  Prints one markdown
table row per report: the number of records, whether every discrete value
is equal (the head: a JSON report's keys other than its runs or rows, or a
CSV table's comment and header lines; per run: seed, accuracy, delta_energy
and cycles; per detune row: delta; per landscape row: index; per bench row:
the whole row), whether
every real value is bit-equal (`vector_energy`, a detune row's mean
deviation, or a landscape energy), the largest |difference| in those real
values, and whether the files are byte-identical.

Exits 1 if a discrete value differs, a report has a different number of
records, or a report is missing from one side; real values only print.  A
reader that closes the output early (`| head`) ends it quietly, and the exit
code still reports the whole comparison.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _cell(text: str):
    """A CSV cell as the value its JSON form holds: None, int, float or str."""
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def rows(path: Path) -> list[dict]:
    """The rows of a table as {column: value}: a JSON report's runs or rows,
    or the lines under a CSV table's `# {json}` comment and header."""
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        return doc["runs"] if "runs" in doc else doc["rows"]
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError(f"{path}: not a JSON report or a pottsim CSV table")
    columns = lines[1].split(",")
    return [dict(zip(columns, map(_cell, line.split(",")))) for line in lines[2:]]


def head(path: Path):
    """What a table holds outside its rows: a JSON report's other keys (params,
    aggregate ...), or a CSV table's `# {json}` comment and header lines."""
    if path.suffix == ".json":
        return {k: v for k, v in json.loads(path.read_text()).items() if k not in ("runs", "rows")}
    return path.read_text().splitlines()[:2]


def records(path: Path) -> list[tuple[tuple, float | None]]:
    """(discrete values, real value) per run, detune row, landscape row or bench row."""
    table = rows(path)
    columns = set(table[0]) if table else set()
    if "seed" in columns:
        return [((r["seed"], r["accuracy"], r["delta_energy"], r["cycles"]), r["vector_energy"])
                for r in table]
    if {"delta", "mean_deviation_deg"} <= columns:
        return [((r["delta"],), r["mean_deviation_deg"]) for r in table]
    if {"index", "energy"} <= columns:
        return [((r["index"],), r["energy"]) for r in table]
    return [(tuple(sorted(r.items())), None) for r in table]


def compare(old: Path, new: Path) -> tuple[bool, str]:
    """(discrete values all equal, table row) for one pair of reports."""
    a, b = records(old), records(new)
    same_bytes = "yes" if old.read_bytes() == new.read_bytes() else "no"
    if len(a) != len(b):
        return False, f"| {old.name} | {len(a)} vs {len(b)} | NO | - | - | {same_bytes} |"
    discrete = head(old) == head(new) and all(x == y for (x, _), (y, _) in zip(a, b))
    reals = [(x, y) for (_, x), (_, y) in zip(a, b) if x is not None]
    if not reals:
        real_equal, largest = "-", "-"
    else:
        real_equal = "yes" if all(x == y for x, y in reals) else "no"
        largest = f"{max(abs(x - y) for x, y in reals):.2g}"
    row = (f"| {old.name} | {len(a)} | {'yes' if discrete else 'NO'} | {real_equal} "
           f"| {largest} | {same_bytes} |")
    return discrete, row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    names = sorted({p.name for d in (args.old, args.new) for p in d.iterdir() if p.is_file()})
    table = ["| report | records | discrete equal | real bit-equal | max abs diff | bytes equal |",
             "|---|---|---|---|---|---|"]
    ok = True
    for name in names:
        old, new = args.old / name, args.new / name
        if not (old.is_file() and new.is_file()):
            ok = False
            table.append(f"| {name} | missing in {args.new if old.is_file() else args.old} "
                         "| NO | - | - | no |")
            continue
        same, row = compare(old, new)
        ok = ok and same
        table.append(row)
    try:
        print("\n".join(table), flush=True)
    except BrokenPipeError:
        # the reader closed early (`| head`): stdout now writes to devnull, so
        # the flush at exit cannot raise again, and the exit code still tells
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
