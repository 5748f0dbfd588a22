"""Workload table and correctness gate of the pottsim benchmark.

Each workload is a closed loop over `pottsim` CLI invocations ("batches"):
the next batch is issued only when the previous one has returned, and inside
a batch the solver hands the next restart to a worker only when one is free.
No workload uses more than two worker processes.

Batch k of a run uses the CLI base seed ``seed * SEED_STRIDE + k * restarts``,
so one benchmark seed fixes every restart of the run and different benchmark
seeds never share a restart.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

SEED_STRIDE = 100_000

# The CLI's default detuning sweep (11 deltas), restated so that the gate can
# check the sweep covers what the detune workload is supposed to run.
DEFAULT_DELTAS = (0.0, 10.0, -10.0, 30.0, -30.0, 80.0, -80.0, 150.0, -150.0, 300.0, -300.0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # CLI subcommand: "solve" or "detune"
    instance: str             # path relative to the checkout root
    jobs: int
    restarts: int             # solve: --iters per batch; detune: --iters per delta
    quality_batches: int      # leading batches whose outputs give the quality metrics
    accuracy_floor: float     # acceptance floor for avg_accuracy on this instance

    def batch_restarts(self, restarts: Optional[int] = None) -> int:
        """Machine runs (restarts) one batch performs."""
        r = self.restarts if restarts is None else restarts
        return r * len(DEFAULT_DELTAS) if self.command == "detune" else r


# A batch is one solve of the size the CLI is run at for these instances:
# 20 restarts serial on flat_200, 10 on the pool on rnd_1000, and 2 per delta
# for the sweep.  The batch size bounds the lockstep width a batching change
# can use (R <= 20 here) and fixes the share of per-batch costs (parse,
# aggregate, report, pool start), so it is not tuned for steadiness.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-flat200-serial",
            command="solve",
            instance="benchmarks/flat_200_479-1.col",
            jobs=1,
            restarts=20,
            quality_batches=2,
            accuracy_floor=0.85,
        ),
        Workload(
            name="solve-rnd1000-pool",
            command="solve",
            instance="benchmarks/rnd_1000.col",
            jobs=2,
            restarts=10,
            quality_batches=4,
            accuracy_floor=0.84,
        ),
        Workload(
            name="detune-flat200-pool",
            command="detune",
            instance="benchmarks/flat_200_479-1.col",
            jobs=2,
            restarts=2,
            quality_batches=2,
            accuracy_floor=0.85,
        ),
    )
}


def batch_argv(w: Workload, seed: int, out: str, restarts: Optional[int] = None) -> list[str]:
    """CLI arguments of one timed batch."""
    r = w.restarts if restarts is None else restarts
    return [w.command, w.instance, "--iters", str(r), "--jobs", str(w.jobs),
            "--seed", str(seed), "--out", out]


def probe_argv(w: Workload, params, seed: int, out: str, restarts: int) -> list[str]:
    """CLI arguments of the quality probe run after the timed loop.

    Each workload reports both quality views at its own operating point
    ``params`` (a DynamicsParams): solve workloads add a delta = 0 detune run
    for the lattice deviation, the detune workload adds a solve run for
    accuracy and settling.
    """
    gains = ["--kc", repr(params.coupling_gain), "--ks", repr(params.shil_gain_max),
             "--dt", repr(params.dt), "--t-max", repr(params.t_max)]
    head = ["detune", w.instance, "--deltas", "0"] if w.command == "solve" else ["solve", w.instance]
    return head + ["--iters", str(restarts), "--jobs", str(w.jobs), "--seed", str(seed),
                   "--out", out] + gains


class GateError(ValueError):
    """A CLI output failed the benchmark's correctness gate."""


def check_solve_report(text: str, iterations: int, floor: float) -> dict:
    """Parse a `pottsim solve` JSON report and apply the gate; returns it parsed."""
    doc = json.loads(text)
    agg = doc["aggregate"]
    runs = doc["runs"]
    if agg["num_runs"] != iterations or len(runs) != iterations:
        raise GateError(f"report has {agg['num_runs']} runs, {iterations} requested")
    accs = [r["accuracy"] for r in runs]
    if any(not 0.0 <= a <= 1.0 for a in accs):
        raise GateError("per-run accuracy outside [0, 1]")
    if not agg["avg_accuracy"] >= floor:
        raise GateError(f"avg_accuracy {agg['avg_accuracy']:.4f} below the floor {floor}")
    return doc


def check_detune_csv(text: str, n_phases: int, deltas=DEFAULT_DELTAS, lock_gate: bool = True) -> dict:
    """Parse `pottsim detune` CSV output into {delta: deviation_deg} and apply the gate.

    Every deviation must be a finite angle in [0, 180/N] degrees.  With
    ``lock_gate`` (the detune operating point) delta = 0 must lock within
    1 degree and |delta| = 300 must sit at 25-35 degrees.
    """
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not rows or rows[0] != "delta,mean_deviation_deg":
        raise GateError("missing detune header 'delta,mean_deviation_deg'")
    sweep = {}
    for ln in rows[1:]:
        d, dev = ln.split(",")
        sweep[float(d)] = float(dev)
    if sorted(sweep) != sorted(deltas):
        raise GateError(f"detune rows {sorted(sweep)} do not match the requested deltas")
    if any(not (math.isfinite(v) and 0.0 <= v <= 180.0 / n_phases) for v in sweep.values()):
        raise GateError("lattice deviation outside [0, 180/N] degrees")
    if lock_gate:
        if not sweep[0.0] < 1.0:
            raise GateError(f"delta=0 deviation {sweep[0.0]:.3f} deg is not < 1 deg")
        far = [v for d, v in sweep.items() if abs(d) == 300.0]
        if not all(25.0 <= v <= 35.0 for v in far):
            raise GateError(f"|delta|=300 deviations {far} outside 25-35 deg")
    return sweep
