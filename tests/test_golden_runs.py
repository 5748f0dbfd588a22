"""Per-run regression check against recorded results.

`data/golden_runs.json` holds the per-run records of eight short commands,
recorded at the commit named in the file (a case added later names its own
commit under "added").  A change that alters any accuracy, `delta_energy`
or `cycles` value fails here, and so does one that moves a `vector_energy`
or a detune deviation by more than roundoff.  A change that alters results
on purpose rewrites the file and declares the differences:

    PYTHONPATH=src python3 tests/test_golden_runs.py

A new case is recorded on its own, under "added" with the commit of the
pottsim it ran, and leaves every other byte of the file as it is:

    PYTHONPATH=src python3 tests/test_golden_runs.py --add NAME...
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from pottsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_runs.json"
# roundoff allowance for the real-valued outputs; the discrete ones must be equal
TOLERANCE = 1e-9

CASES = {
    "solve-flat30": ["solve", "benchmarks/flat_30_60-1.col", "--iters", "20"],
    "solve-flat200": ["solve", "benchmarks/flat_200_479-1.col", "--iters", "20"],
    "solve-rnd1000": ["solve", "benchmarks/rnd_1000.col", "--iters", "4"],
    "ablate-couplings-only": ["ablate", "benchmarks/flat_200_479-1.col",
                              "--mode", "couplings_only", "--iters", "10"],
    "ablate-none": ["ablate", "benchmarks/flat_200_479-1.col", "--mode", "none", "--iters", "20"],
    "ablate-sync-only": ["ablate", "benchmarks/flat_200_479-1.col",
                         "--mode", "sync_only", "--iters", "20"],
    "detune-flat30": ["detune", "benchmarks/flat_30_60-1.col", "--iters", "2"],
    # per-row noise streams and detuning rates in two 5-row blocks
    "solve-flat30-noisy-detuned": ["solve", "benchmarks/flat_30_60-1.col", "--iters", "10",
                                   "--noise", "0.01", "--detune", "0.2", "--jobs", "2"],
}


def run_case(argv: list[str], out: Path) -> list:
    """The per-run records of a solve/ablate report, or the (delta, deviation)
    rows of a detune sweep."""
    argv = [str(ROOT / a) if a.startswith("benchmarks/") else a for a in argv]
    assert main([*argv, "--seed", "0", "--out", str(out)]) == 0
    if argv[0] == "detune":
        rows = out.read_text().splitlines()[2:]
        return [[float(x) for x in row.split(",")] for row in rows]
    return json.loads(out.read_text())["runs"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_runs_match_the_recorded_results(name, tmp_path):
    want = json.loads(GOLDEN.read_text())["cases"][name]
    got = run_case(CASES[name], tmp_path / "out")
    assert len(got) == len(want)
    if CASES[name][0] == "detune":
        for (d_got, dev_got), (d_want, dev_want) in zip(got, want):
            assert d_got == d_want
            assert dev_got == pytest.approx(dev_want, rel=0, abs=TOLERANCE)
        return
    for g, w in zip(got, want):
        assert (g["seed"], g["accuracy"], g["delta_energy"], g["cycles"]) == \
            (w["seed"], w["accuracy"], w["delta_energy"], w["cycles"])
        assert g["vector_energy"] == pytest.approx(w["vector_energy"], rel=0, abs=TOLERANCE)


if __name__ == "__main__":
    import pottsim

    parser = argparse.ArgumentParser(description="Record the golden runs of the pottsim on PYTHONPATH.")
    parser.add_argument("--add", nargs="+", choices=sorted(CASES), metavar="NAME",
                        help="record only these cases, each under \"added\" with this commit")
    args = parser.parse_args()
    src = Path(pottsim.__file__).resolve().parent
    sha = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        cases = {name: run_case(CASES[name], Path(tmp) / "out") for name in args.add or CASES}
    if args.add:
        doc = json.loads(GOLDEN.read_text())
        doc["cases"].update(cases)
        doc.setdefault("added", {}).update(dict.fromkeys(cases, sha))
    else:
        doc = {"commit": sha, "seed": 0, "cases": cases}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {', '.join(cases)} to {GOLDEN} from pottsim at {src} (commit {sha})",
          file=sys.stderr)
