"""One benchmark workload process: set-up, the timed closed loop, the probe.

Started by run.py with the checkout's ``src`` on PYTHONPATH and the BLAS and
OpenMP thread variables pinned to 1.  It prints one JSON object on stdout.

  --setup-only   import pottsim.cli, parse --instance, report timestamps
  (default)      also run the closed loop of CLI batches for --seconds, then
                 the quality probe; with --trace 1, alternate untraced batches
                 and batches with spans recorded, for the per-layer metrics
"""
import sys
import time

T_START = time.monotonic()

import pottsim.cli  # noqa: E402  (timed: this is the CLI's import cost)

T_IMPORTED = time.monotonic()

# Parse the instance (--instance PATH) before any module of the harness is
# imported, so that set-up time holds only interpreter start, the import and
# the parse.
from pathlib import Path  # noqa: E402
from pottsim.graph_io import parse_dimacs  # noqa: E402

parse_dimacs(Path(sys.argv[sys.argv.index("--instance") + 1]).read_text())
T_PARSED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
from pottsim.dynamics import DynamicsParams  # noqa: E402
from pottsim.solver import detune_protocol_params  # noqa: E402

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_DELTAS,
    SEED_STRIDE,
    WORKLOADS,
    batch_argv,
    check_detune_csv,
    check_solve_report,
    probe_argv,
)


KERNEL_REPS = 1500
KERNEL_SAMPLES = 5
KERNEL_REF_S = 0.035  # reference_kernel() on an unloaded Xeon vCPU, numpy 2.4


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--instance", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tmp", type=Path)
    ap.add_argument("--restarts", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    w = WORKLOADS[args.workload]
    setup = {"t_start": T_START, "t_imported": T_IMPORTED, "t_parsed": T_PARSED,
             "import_s": T_IMPORTED - T_START, "parse_ms": (T_PARSED - T_IMPORTED) * 1e3}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0
    result = run_workload(w, args)
    result["setup"] = setup
    print(json.dumps(result))
    return 0


def invoke(argv: list[str], out: Path, restarts: int, gate) -> dict:
    """One in-process CLI invocation, timed and gated.

    gate(text) parses the output and raises on a bad one; what it returns is
    kept for the quality metrics.  Any failure marks the whole invocation
    failed: all of its restarts count as failed.
    """
    rec = {"argv": argv, "restarts": restarts, "ok": False, "error": None}
    t0 = time.monotonic()
    try:
        rc = pottsim.cli.main(argv)
    except Exception:  # a crash of one batch is a failed batch, not a dead run
        rc, rec["error"] = -1, traceback.format_exc()
    rec["wall_s"] = time.monotonic() - t0
    if rc == 0:
        try:
            text = out.read_text()
            out.unlink()
            rec["check"] = gate(text)
            rec["sha256"] = hashlib.sha256(text.encode()).hexdigest()
            rec["ok"] = True
        except (ValueError, KeyError, TypeError, OSError) as exc:  # GateError is a ValueError
            rec["error"] = f"gate: {exc!r}"
    elif rec["error"] is None:
        rec["error"] = f"pottsim exited with {rc}"
    if not rec["ok"]:
        print(f"{' '.join(argv[:2])} failed: {rec['error']}", file=sys.stderr)
    return rec


def solve_gate(restarts: int, floor: float):
    def gate(text):
        doc = check_solve_report(text, restarts, floor)
        return {"runs": [[r["accuracy"], r["cycles"]] for r in doc["runs"]]}
    return gate


def detune_gate(n_phases: int, deltas=DEFAULT_DELTAS, lock_gate: bool = True):
    def gate(text):
        return {"zero_dev_deg": check_detune_csv(text, n_phases, deltas, lock_gate)[0.0]}
    return gate


def reference_kernel() -> float:
    """Seconds taken by a fixed RHS-shaped numpy loop that no pottsim change touches.

    Timed before and after every batch, it measures how fast the machine runs
    this kind of code at that moment (see runs_per_s).  The median of a few
    repetitions keeps one short stall from setting the figure.
    """
    rng = numpy.random.default_rng(12345)
    n, m = 200, 480
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    w = numpy.ones(m)
    theta0 = rng.random(n) * 6.28
    times = []
    for _ in range(KERNEL_SAMPLES):
        theta = theta0
        t0 = time.monotonic()
        for _ in range(KERNEL_REPS):
            s, c = numpy.sin(theta), numpy.cos(theta)
            ac = numpy.bincount(u, w * c[v], minlength=n) + numpy.bincount(v, w * c[u], minlength=n)
            as_ = numpy.bincount(u, w * s[v], minlength=n) + numpy.bincount(v, w * s[u], minlength=n)
            theta = theta + 0.01 * (s * ac - c * as_)
        times.append(time.monotonic() - t0)
    return statistics.median(times)


def run_batches(w, base_seed: int, first_batch: int, seconds: float, min_batches: int,
                tmp: Path, restarts, batches: list):
    """Closed loop: issue CLI batches until `seconds` pass and `min_batches` ran."""
    per_batch = w.restarts if restarts is None else restarts
    if w.command == "solve":
        gate = solve_gate(per_batch, w.accuracy_floor)
    else:
        gate = detune_gate(detune_protocol_params().n_phases)
    t_begin = time.monotonic()
    kernel_before = reference_kernel()
    k = 0
    while k < min_batches or time.monotonic() - t_begin < seconds:
        index = first_batch + k
        out = tmp / f"batch-{index}.out"
        argv = batch_argv(w, base_seed + index * per_batch, str(out), restarts)
        rec = invoke(argv, out, w.batch_restarts(restarts), gate)
        kernel_after = reference_kernel()
        rec["kernel_s"] = (kernel_before + kernel_after) / 2
        kernel_before = kernel_after
        batches.append(rec)
        k += 1


def run_probe(w, base_seed: int, tmp: Path) -> dict:
    """The other quality view at the workload's own operating point (see probe_argv)."""
    out = tmp / "probe.out"
    if w.command == "solve":
        params, restarts = DynamicsParams(), 4
        gate = detune_gate(params.n_phases, deltas=(0.0,), lock_gate=False)
    else:
        params, restarts = detune_protocol_params(), 8
        gate = solve_gate(restarts, w.accuracy_floor)
    rec = invoke(probe_argv(w, params, base_seed, str(out), restarts), out, restarts, gate)
    rec["t_max"] = params.t_max
    return rec


def quality(w, batches: list, probe: dict) -> dict:
    """The five quality metrics from the leading batches and the probe.

    Solve runs come from the leading batches of solve workloads and from the
    probe of the detune workload; delta = 0 deviations the other way round.
    A run that never settles counts the whole horizon toward median_cycles.
    """
    lead = [b for b in batches[: w.quality_batches] if b["ok"]]
    if not lead or not probe["ok"]:
        return {}
    if w.command == "solve":
        runs = [r for b in lead for r in b["check"]["runs"]]
        devs = [probe["check"]["zero_dev_deg"]]
        t_max = DynamicsParams().t_max
    else:
        runs = probe["check"]["runs"]
        devs = [b["check"]["zero_dev_deg"] for b in lead]
        t_max = probe["t_max"]
    accs = [a for a, _ in runs]
    return {
        "avg_accuracy": statistics.fmean(accs),
        "best_accuracy": max(accs),
        "converged_frac": sum(c is not None for _, c in runs) / len(runs),
        "median_cycles": statistics.median(t_max if c is None else c for _, c in runs),
        "zero_detune_dev_deg": statistics.fmean(devs),
    }


def runs_per_s(batches: list, normalized: bool = True) -> float:
    """Median over successful batches of restarts per second.

    normalized: each batch's wall time is rescaled to the reference
    machine speed, at which reference_kernel() takes KERNEL_REF_S, using the
    kernel timed around that batch; this removes most of the drift of a
    shared host.
    """
    rates = [b["restarts"] / b["wall_s"] * (b["kernel_s"] / KERNEL_REF_S if normalized else 1.0)
             for b in batches if b["ok"]]
    return statistics.median(rates) if rates else 0.0


def peak_rss_mb() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"parent_mb": own, "largest_worker_mb": workers}


def run_workload(w, args) -> dict:
    base_seed = args.seed * SEED_STRIDE
    tmp = args.tmp
    batches: list = []
    result = {
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }
    if not args.trace:
        min_batches = 1 if args.restarts is not None else w.quality_batches
        run_batches(w, base_seed, 0, args.seconds, min_batches, tmp, args.restarts, batches)
        probe = run_probe(w, base_seed, tmp)
        result["quality"] = quality(w, batches, probe)
        result["runs_per_s"] = runs_per_s(batches)
        result["runs_per_s_wall"] = runs_per_s(batches, normalized=False)
        batches = batches + [probe]
    else:
        # alternate untraced and traced batches, so that both halves of the
        # overhead ratio see the same phases of a drifting machine
        spill = tmp / "spans"
        spill.mkdir()
        tracer = tracing.Tracer(spill)
        t_begin = time.monotonic()
        while len(batches) < 2 or time.monotonic() - t_begin < args.seconds:
            traced = len(batches) % 2 == 1
            if traced:
                tracing.install(tracer)
            try:
                run_batches(w, base_seed, len(batches), 0.0, 1, tmp, args.restarts, batches)
            finally:
                tracer.uninstall()
        spans = tracer.collect()
        result["layers"] = tracing.derive(spans, w.jobs, len(batches[1::2]))
        result["span_problems"] = tracing.check_nesting(spans)[:20]
        result["runs_per_s_untraced"] = runs_per_s(batches[0::2])
        result["runs_per_s_traced"] = runs_per_s(batches[1::2])
    result["attempted"] = sum(b["restarts"] for b in batches)
    result["failed"] = sum(b["restarts"] for b in batches if not b["ok"])
    result["batches"] = [{k: v for k, v in b.items() if k != "check"} for b in batches]
    result["report_sha256"] = batches[0].get("sha256")
    result["rss"] = peak_rss_mb()
    return result


if __name__ == "__main__":
    sys.exit(main())
