#!/usr/bin/env python3
"""Record what a fixed set of pottsim commands print and write, to check two
trees for byte identity.

    python3 scripts/identity_outputs.py DEST

Runs each command of `commands` as `python -m pottsim.cli ...` in its own
process, from the repository root, on the `src/` beside this script.  Under
DEST it writes, per command NAME:

    reports/NAME.json or .csv   the table the command prints or writes to --out
    logs/NAME.stdout            its stdout, when that is not a table
    logs/NAME.stderr            its stderr
    logs/NAME.exit              its exit code

with DEST's own path written as the literal `DEST` and the tree's as `ROOT`
(a warning names the file that raised it), so that two trees run into
different DESTs compare equal.  `gen` writes its instance and sidecar
under gen/, not reports/, since a sidecar is no table.  logs/numpy.json
holds numpy's version and the CPU dispatch target of the kernels whose bits
reach a report (np.tan in the RHS, np.arctan2 behind np.angle): on another
target the real values differ in their last digits.

To compare another tree, copy this file into that tree's `scripts/` and run
it there too.  The trees agree when `diff -r DEST_A DEST_B` prints nothing;
`scripts/compare_reports.py DEST_A/reports DEST_B/reports` explains a
difference in the reports run by run.  The set took 26-30 s on a shared
2-vCPU host (Python 3.11.7, numpy 2.4.6).
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
K3 = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
# `pottsim gen --n 7 --m 10 --k 3 --seed 0`: its landscape spans several chunks
G7 = "p edge 7 10\n" + "".join(f"e {u} {v}\n" for u, v in (
    (1, 2), (1, 3), (1, 7), (2, 4), (2, 5), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7)))
# edge 1-2 given in both orientations and a header edge count over the 3 distinct
# edges: parse_dimacs drops the duplicate and warns twice
DUP = "p edge 4 4\ne 1 2\ne 2 3\ne 2 1\ne 3 4\n"
GRAPHS = {"k3.col": K3, "g7.col": G7, "dup.col": DUP}


def commands(dest: Path) -> list[tuple[str, list[str], str | None]]:
    """(name, argv, suffix of the table on stdout, or None) per command.

    Instance paths are relative to the repository root; `--out` files and the
    GRAPHS instances live under `dest`."""
    flat_30, flat_200 = "benchmarks/flat_30_60-1.col", "benchmarks/flat_200_479-1.col"
    instances = sorted(p.name for p in (ROOT / "benchmarks").glob("*.col"))
    cmds = [(f"solve_{Path(name).stem}", ["solve", f"benchmarks/{name}", "--iters", "20",
                                          "--jobs", "2"], ".json") for name in instances]
    cmds += [(f"ablate_{mode}", ["ablate", flat_200, "--mode", mode, "--jobs", "2"], ".json")
             for mode in ("full", "sync_only", "couplings_only", "none")]
    bench = ["bench", "benchmarks", "--iters", "2", "--t-max", "20"]
    cmds += [("bench", bench, ".json"), ("bench_csv", [*bench, "--format", "csv"], ".csv")]
    cmds += [(f"detune_jobs{jobs}", ["detune", flat_200, "--iters", "2", "--jobs", str(jobs)],
              ".csv") for jobs in (1, 2)]
    # a noisy row and a detuned row each run to t_max, alone and together
    cmds += [(f"solve_{name}", ["solve", flat_30, "--iters", "10", *flags, "--jobs", "2"], ".json")
             for name, flags in (("noisy", ["--noise", "0.01"]), ("detuned", ["--detune", "0.2"]),
                                 ("noisy_detuned", ["--noise", "0.01", "--detune", "0.2"]))]
    # N = 2 and N = 4 run the RHS's Chebyshev loop 0 and 2 times
    cmds += [(f"solve_n{n}", ["solve", flat_30, "--iters", "10", "--n-phases", str(n),
                              "--jobs", "2"], ".json") for n in (2, 4)]
    cmds += [
        ("solve_one_row", ["solve", flat_200, "--iters", "1"], ".json"),
        # t_max is no whole number of checkpoint strides: unsettled runs end on a 15-step interval
        ("solve_t_max_12_3", ["solve", flat_30, "--iters", "10", "--t-max", "12.3", "--jobs", "2"],
         ".json"),
        # a SHIL envelope off its defaults reaches the steps, the rise check and the header
        ("solve_t_on1_ramp0", ["solve", flat_30, "--iters", "5", "--t-on", "1", "--ramp", "0",
                               "--jobs", "2"], ".json"),
        ("detune_t_on0_ramp2", ["detune", flat_30, "--iters", "1", "--deltas", "0,30",
                                "--t-on", "0", "--ramp", "2"], ".csv"),
        ("detune_json", ["detune", flat_30, "--iters", "2", "--format", "json", "--jobs", "2"],
         ".json"),
        # a nonzero base seed: run i takes seed 1000 + i, in a solve and in a sweep's rows
        ("solve_seed_1000", ["solve", flat_30, "--iters", "10", "--seed", "1000", "--jobs", "2"],
         ".json"),
        ("detune_seed_1000", ["detune", flat_30, "--iters", "2", "--deltas", "0,30",
                              "--seed", "1000"], ".csv"),
        # fails: the coupling-unstable run's Lyapunov value rises
        ("solve_kc40", ["solve", flat_200, "--kc", "40", "--iters", "3"], None),
        # fail: the sweep refuses a rate it would not run; the horizon overflows the step count
        ("detune_detune_nonzero", ["detune", flat_30, "--iters", "1", "--deltas", "0,30",
                                   "--detune", "5"], None),
        ("solve_t_max_overflow", ["solve", flat_30, "--iters", "1", "--t-max", "1e308"], None),
        ("solve_csv_out", ["solve", "benchmarks/flat_50_115-1.col", "--iters", "10",
                           "--format", "csv", "--out", str(dest / "reports" / "solve_csv_out.csv")],
         None),
        ("landscape_k3", ["landscape", str(dest / "k3.col")], ".csv"),
        ("landscape_g7", ["landscape", str(dest / "g7.col"), "--n-phases", "6"], ".csv"),
        ("solve_dup", ["solve", str(dest / "dup.col"), "--iters", "3"], ".json"),
        ("landscape_dup", ["landscape", str(dest / "dup.col")], ".csv"),
        ("gen", ["gen", "--n", "300", "--m", "700", "--k", "4", "--seed", "3",
                 "--out", str(dest / "gen" / "planted.col")], None),
        ("help", ["--help"], None),
    ]
    cmds += [(f"help_{sub}", [sub, "--help"], None)
             for sub in ("solve", "bench", "ablate", "landscape", "detune", "gen")]
    return cmds


def numpy_provenance() -> str:
    import numpy as np

    doc = {"numpy": np.__version__}
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0 cannot say
        doc["dispatch"] = None
    else:
        doc["dispatch"] = {name: {sig: info["current"] for sig, info in sigs.items()}
                           for name, sigs in opt_func_info("^(tan|arctan2)$", "float64").items()}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dest", type=Path)
    dest = parser.parse_args(argv).dest.resolve()
    for sub in ("reports", "logs", "gen"):
        (dest / sub).mkdir(parents=True, exist_ok=True)
    for name, text in GRAPHS.items():
        (dest / name).write_text(text)
    (dest / "logs" / "numpy.json").write_text(numpy_provenance())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def scrub(out: bytes) -> bytes:
        return out.replace(bytes(dest), b"DEST").replace(bytes(ROOT), b"ROOT")

    for name, args, suffix in commands(dest):
        print(f"{name}: pottsim {' '.join(args)}", flush=True)
        proc = subprocess.run([sys.executable, "-m", "pottsim.cli", *args], cwd=ROOT, env=env,
                              capture_output=True)
        stdout = dest / "reports" / f"{name}{suffix}" if suffix else dest / "logs" / f"{name}.stdout"
        stdout.write_bytes(scrub(proc.stdout))
        (dest / "logs" / f"{name}.stderr").write_bytes(scrub(proc.stderr))
        (dest / "logs" / f"{name}.exit").write_text(f"{proc.returncode}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
