#!/usr/bin/env python3
"""Regenerate the committed benchmark instances under benchmarks/.

The flat_* series mirrors the vertex/edge counts of the SATLIB flat-graph
3-coloring suite; since the published files are not vendored here, each is a
locally generated planted 3-colorable instance of the same size, fixed by the
seed recorded in its .json sidecar.  rnd_1000 (and rnd_2000 with --full) are
the larger random instances used by the scaling runs.
"""
from __future__ import annotations

import argparse
from pathlib import Path

from pottsim.cli import main as pottsim

FLAT_SIZES = [
    (30, 60),
    (50, 115),
    (75, 180),
    (100, 239),
    (125, 301),
    (150, 360),
    (175, 417),
    (200, 479),
]
RANDOM_SIZES = {"rnd_1000": (1000, 2682), "rnd_2000": (2000, 5662)}


def write_instance(directory: Path, name: str, n: int, m: int, seed: int):
    """`pottsim gen`, which writes the .col and its .json sidecar atomically."""
    argv = ["gen", "--n", str(n), "--m", str(m), "--k", "3", "--seed", str(seed),
            "--out", str(directory / f"{name}.col")]
    if pottsim(argv) != 0:
        raise SystemExit(f"pottsim {' '.join(argv)} failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dest", type=Path,
                        default=Path(__file__).resolve().parents[1] / "benchmarks")
    parser.add_argument("--full", action="store_true",
                        help="also generate the 2000-vertex instance")
    args = parser.parse_args()
    args.dest.mkdir(parents=True, exist_ok=True)

    for n, m in FLAT_SIZES:
        write_instance(args.dest, f"flat_{n}_{m}-1", n, m, seed=1000 + n)
    names = ["rnd_1000"] + (["rnd_2000"] if args.full else [])
    for name in names:
        n, m = RANDOM_SIZES[name]
        write_instance(args.dest, name, n, m, seed=1000 + n)


if __name__ == "__main__":
    main()
