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

To compare another tree, copy this file into that tree's `scripts/` and run
it there too.  The trees agree when `diff -r DEST_A DEST_B` prints nothing;
`scripts/compare_reports.py DEST_A/reports DEST_B/reports` explains a
difference in the reports run by run.  The set took 46-48 s on a shared
2-vCPU host (Python 3.11.7, numpy 2.4.6).
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
K3 = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


def commands(dest: Path) -> list[tuple[str, list[str], str | None]]:
    """(name, argv, suffix of the table on stdout, or None) per command.

    Instance paths are relative to the repository root; `--out` files and the
    K3 instance live under `dest`."""
    flat_200 = "benchmarks/flat_200_479-1.col"
    instances = sorted(p.name for p in (ROOT / "benchmarks").glob("*.col"))
    cmds = [(f"solve_{Path(name).stem}", ["solve", f"benchmarks/{name}", "--iters", "20",
                                          "--jobs", "2"], ".json") for name in instances]
    cmds += [(f"ablate_{mode}", ["ablate", flat_200, "--mode", mode, "--jobs", "2"], ".json")
             for mode in ("full", "sync_only", "couplings_only", "none")]
    cmds += [("bench", ["bench", "benchmarks", "--iters", "2", "--t-max", "20"], ".json")]
    cmds += [(f"detune_jobs{jobs}", ["detune", flat_200, "--iters", "2", "--jobs", str(jobs)],
              ".csv") for jobs in (1, 2)]
    cmds += [
        ("solve_noisy_detuned", ["solve", "benchmarks/flat_30_60-1.col", "--iters", "10",
                                 "--noise", "0.01", "--detune", "0.2", "--jobs", "2"], ".json"),
        # fails: the coupling-unstable run's Lyapunov value rises
        ("solve_kc40", ["solve", flat_200, "--kc", "40", "--iters", "3"], None),
        ("solve_csv_out", ["solve", "benchmarks/flat_50_115-1.col", "--iters", "10",
                           "--format", "csv", "--out", str(dest / "reports" / "solve_csv_out.csv")],
         None),
        ("landscape_k3", ["landscape", str(dest / "k3.col")], ".csv"),
        ("help", ["--help"], None),
    ]
    cmds += [(f"help_{sub}", [sub, "--help"], None)
             for sub in ("solve", "bench", "ablate", "landscape", "detune", "gen")]
    return cmds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dest", type=Path)
    dest = parser.parse_args(argv).dest.resolve()
    for sub in ("reports", "logs"):
        (dest / sub).mkdir(parents=True, exist_ok=True)
    (dest / "k3.col").write_text(K3)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, args, suffix in commands(dest):
        print(f"{name}: pottsim {' '.join(args)}", flush=True)
        proc = subprocess.run([sys.executable, "-m", "pottsim.cli", *args], cwd=ROOT, env=env,
                              capture_output=True)
        stdout = dest / "reports" / f"{name}{suffix}" if suffix else dest / "logs" / f"{name}.stdout"
        stdout.write_bytes(proc.stdout)
        (dest / "logs" / f"{name}.stderr").write_bytes(proc.stderr)
        (dest / "logs" / f"{name}.exit").write_text(f"{proc.returncode}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
