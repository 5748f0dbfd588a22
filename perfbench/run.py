"""pottsim benchmark: restarts/s, set-up time, memory and solution quality.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-flat200-serial --seed 1 --seconds 20 --trace 0

Workloads are listed in perfbench/workloads.py (``--workload all`` runs each
in turn).  With ``--trace 0`` the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"} holding the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a separate traced run.
The line before it carries provenance and the sha256 of the run's first
report.  The exit code is 0 only if every output passed the correctness gate.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_SAMPLES = 8          # timed set-up probes per run, after one warm-up
CHILD_BUDGET_S = 170.0     # the whole run must end within 180 s

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "avg_accuracy": "frac",
    "best_accuracy": "frac",
    "converged_frac": "frac",
    "median_cycles": "cycles",
    "zero_detune_dev_deg": "deg",
}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here (no source tree, a child died)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run workload.py in its own session; kill the whole group on timeout."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"workload process timed out: {' '.join(args)}") from None
    finally:
        # pool workers left behind by a crashed child share its session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise HarnessError(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup_sample(workload: str, timeout: float) -> dict:
    t_spawn = time.monotonic()
    args = ["--workload", workload, "--instance", WORKLOADS[workload].instance,
            "--seed", "0", "--setup-only"]
    setup = run_child(args, timeout)["setup"]
    setup["setup_s"] = setup["t_parsed"] - t_spawn
    return setup


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(child: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pottsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = child_env()
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "start_method": child.get("start_method"),
        "thread_env": {var: env[var] for var in THREAD_VARS},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, restarts) -> tuple[dict, dict]:
    """Run one workload; returns (details line, result line)."""
    w = WORKLOADS[name]
    if not (ROOT / "src" / "pottsim" / "cli.py").is_file() or not (ROOT / w.instance).is_file():
        raise HarnessError(f"no pottsim source tree or instance under {ROOT}")
    deadline = time.monotonic() + CHILD_BUDGET_S
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}-{name}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setup_sample(name, deadline - time.monotonic())  # warm-up: fills bytecode caches
        samples = [setup_sample(name, deadline - time.monotonic()) for _ in range(SETUP_SAMPLES)]
        args = ["--workload", name, "--instance", w.instance, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace)),
                "--tmp", str(tmp.relative_to(ROOT))]
        if restarts is not None:
            args += ["--restarts", str(restarts)]
        t_spawn = time.monotonic()
        child = run_child(args, deadline - time.monotonic())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    samples.append(dict(child["setup"], setup_s=child["setup"]["t_parsed"] - t_spawn))

    batches = child["batches"]
    failures = [b["error"] for b in batches if not b["ok"]]
    if not trace:
        q = child["quality"]
        values = {
            "runs_per_s": child["runs_per_s"],
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "peak_rss_mb": max(child["rss"].values()),
            **q,
        }
        if set(values) != set(END_TO_END_UNITS):
            failures.append("quality metrics missing: a gated output failed")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        failures += [f"span tree: {p}" for p in child["span_problems"]]
        layers = dict(child["layers"])
        layers["graph_io.parse_ms"] = (statistics.median(s["parse_ms"] for s in samples), "ms")
        layers["cli.import_s"] = (statistics.median(s["import_s"] for s in samples), "s")
        untraced, traced = child["runs_per_s_untraced"], child["runs_per_s_traced"]
        layers["trace.runs_per_s_untraced"] = (untraced, "1/s")
        layers["trace.runs_per_s_traced"] = (traced, "1/s")
        layers["trace.overhead_frac"] = (1.0 - traced / untraced if untraced else 0.0, "frac")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}

    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "report_sha256": child["report_sha256"],
        "failed_frac": child["failed"] / child["attempted"],
        "runs_per_s_wall": child.get("runs_per_s_wall"),
        "failures": failures,
        "batches": [{k: b[k] for k in ("argv", "restarts", "wall_s", "ok")} for b in batches],
        "rss_mb": child["rss"],
        "provenance": provenance(child),
    }
    result = {"correct": not failures, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--restarts", type=int, default=None,
                    help="override restarts per batch (the harness self-test uses 1)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or (args.restarts is not None and args.restarts < 1):
        ap.error("--seed and --seconds must be >= 0, --restarts >= 1")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            details, result = run_one(name, args.seed, args.seconds, bool(args.trace),
                                      args.restarts)
        except HarnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for failure in details["failures"]:
            print(f"{name}: correctness check failed: {failure}", file=sys.stderr)
        print(json.dumps(details))
        results[name] = result
    if args.workload == "all":
        for name, r in results.items():
            print(f"{name}: correct={r['correct']} failed_frac="
                  f"{r['failed'] / r['attempted']:.4f}")
            for metric, m in r["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
