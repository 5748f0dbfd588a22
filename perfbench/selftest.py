"""Fast self-test of the benchmark harness (about a minute on two cores).

    python3 perfbench/selftest.py

Runs every workload at one restart per batch, untraced and traced, and checks
that the output parses, that every metric BENCHMARK.json names is printed
with its unit, that the span tree nests, that the canonical report repeats
byte for byte, that a report at the random-coloring baseline fails the
correctness gate, and that the benchmark refuses to run without the source
tree.  Exits nonzero on the first failed check.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, GateError, check_detune_csv, check_solve_report  # noqa: E402


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def check(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_result(lines: list[str], declared: list[dict], label: str) -> dict:
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{label}: correctness gate passes")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, f"{label}: every declared metric printed with its unit")
    check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
          f"{label}: metric values are numbers")
    return json.loads(lines[-2])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the workloads of workloads.py")

    shas = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            label = f"{name} trace={trace}"
            rc, lines = run(["--workload", name, "--seed", "0", "--seconds", "0",
                             "--trace", str(trace), "--restarts", "1"])
            check(rc == 0, f"{label}: exits 0")
            declared = bench["per_layer" if trace else "end_to_end"]
            details = check_result(lines, declared, label)
            shas.setdefault(name, set()).add(details["report_sha256"])
    for name, seen in shas.items():
        check(len(seen) == 1, f"{name}: canonical report sha256 repeats across runs")

    good = [["p", 1, "cli.main", 0.0, 4.0, None, "main", None],
            ["p", 2, "solver.solve_once", 1.0, 3.0, 1, "main", None],
            ["p", 3, "dynamics.integrate", 1.5, 2.5, 2, "main", None]]
    check(tracing.check_nesting(good) == [], "a nested span tree passes")
    check(tracing.self_times(good)[("p", 2)] == 1.0, "self time subtracts direct children")
    bad = good + [["p", 4, "dynamics.rhs", 2.0, 3.5, 3, "main", None]]
    check(tracing.check_nesting(bad) != [], "a child outside its parent is caught")

    # a genuine random-coloring report: the `none` ablation scores quantized
    # random initial phases (accuracy ~0.666)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    w = WORKLOADS["solve-flat200-serial"]
    text = subprocess.run([sys.executable, "-m", "pottsim.cli", "ablate", w.instance,
                           "--mode", "none", "--iters", "8"], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=60).stdout
    try:
        check_solve_report(text, 8, w.accuracy_floor)
        check(False, "a random-baseline report fails the gate")
    except GateError:
        check(True, "a random-baseline report fails the gate")
    try:
        check_detune_csv("delta,mean_deviation_deg\n0.0,5.0\n", 3, deltas=(0.0,))
        check(False, "an unlocked delta=0 deviation fails the gate")
    except GateError:
        check(True, "an unlocked delta=0 deviation fails the gate")

    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, lines = run(["--workload", "solve-flat200-serial", "--seed", "0", "--seconds", "1",
                         "--trace", "0"], cwd=bare)
        check(rc != 0 and not lines, "without the source tree: nonzero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
