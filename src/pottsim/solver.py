"""Multi-restart solving, ablation studies, detuning sweeps and reporting.

The benchmark protocol: a problem graph is solved `iterations` times from
independently seeded random initial phases, each run is rounded to a
coloring and scored, and the per-run records are aggregated into a
SolveReport (average/best accuracy, a 0.01-wide accuracy histogram, mean
cycles-to-solution over the converged runs).  Per-run seeds are
base_seed + run index, so any report is reproducible from its embedded
configuration regardless of worker parallelism.
"""
from __future__ import annotations

import dataclasses
import enum
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import (
    CONVERGENCE_EPS,
    CONVERGENCE_WINDOW,
    DynamicsParams,
    integrate_block,
    random_init,
)
from .graph_io import Graph
from .potts import TWO_PI, accuracy, delta_energy, lattice_deviation, quantize, vector_energy

HISTOGRAM_BINS = 100
# Restarts per lockstep block (dynamics.integrate_block), on every graph.  The
# rows of a block share the per-call overhead of the RHS.  CPU seconds of
# solver._run_task (two runs each, 2 vCPUs on a shared host): 40 restarts on
# flat_200 took 4.91-5.13 at R = 1, 1.22 at R = 20 and 1.08-1.23 at R = 40;
# 20 restarts on rnd_1000 took 5.78-6.53 at R = 1, 4.07-4.10 at R = 5,
# 3.51-3.53 at R = 10 and 3.50-3.63 at R = 20; 20 restarts on the
# 2000-vertex rnd_2000 took 14.25-16.03 at R = 1 and 11.19-12.47 at R = 20.
LOCKSTEP_ROWS = 20


def __getattr__(name: str):
    # PEP 562: the process-pool stack (multiprocessing, socket, queue ...) is
    # imported when a batch first opens a pool, so a serial command never loads it
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class AblationMode(str, enum.Enum):
    FULL = "full"
    SYNC_ONLY = "sync_only"
    COUPLINGS_ONLY = "couplings_only"
    NONE = "none"


@dataclass(frozen=True)
class RunRecord:
    seed: int
    accuracy: float
    delta_energy: float
    vector_energy: float
    cycles: Optional[float]


@dataclass(frozen=True)
class SolveReport:
    """Per-run records and their aggregate statistics.  It is built from its
    runs alone: the six aggregate fields are set once, from the runs."""

    benchmark: str
    params: dict
    runs: tuple[RunRecord, ...]
    avg_accuracy: float = dataclasses.field(init=False)
    best_accuracy: float = dataclasses.field(init=False)
    histogram: tuple[int, ...] = dataclasses.field(init=False)
    mean_cycles: Optional[float] = dataclasses.field(init=False)
    num_converged: int = dataclasses.field(init=False)
    num_runs: int = dataclasses.field(init=False)

    def __post_init__(self):
        if not self.runs:
            raise ValueError("a report needs at least one run")
        if any(not 0.0 <= r.accuracy <= 1.0 for r in self.runs):
            raise ValueError("accuracy outside [0, 1]")
        accs = np.array([r.accuracy for r in self.runs])
        hist, _ = np.histogram(accs, bins=np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1))
        converged = [r.cycles for r in self.runs if r.cycles is not None]
        for name, value in (
            ("avg_accuracy", float(np.mean(accs))),
            ("best_accuracy", float(np.max(accs))),
            ("histogram", tuple(int(c) for c in hist)),
            ("mean_cycles", float(np.mean(converged)) if converged else None),
            ("num_converged", len(converged)),
            ("num_runs", len(self.runs)),
        ):
            object.__setattr__(self, name, value)


def effective_config(
    params: DynamicsParams,
    iterations: int,
    base_seed: int,
    mode: Optional[AblationMode] = None,
) -> dict:
    """Self-describing configuration block embedded in every report: the SHIL
    envelope's fields form its "schedule" block, the others its "dynamics"."""
    dynamics = dataclasses.asdict(params)
    schedule = {name: dynamics.pop(name) for name in ("t_on", "ramp")}
    cfg = {
        "iterations": iterations,
        "base_seed": base_seed,
        "dynamics": dynamics,
        "schedule": schedule,
        "convergence": {"window": CONVERGENCE_WINDOW, "eps": CONVERGENCE_EPS},
    }
    if mode is not None:
        cfg["mode"] = mode.value
    return cfg


def _run_task(block: tuple) -> list[RunRecord]:
    """A block ((graph, params, mode), seeds) of restarts, stepped in
    lockstep until each has settled (or to t_max), and scored as one block;
    records in seed order.  A row's record does not depend on its block, so a
    block of one seed is the restart run alone.  Mode none scores the
    quantized initial states instead."""
    (graph, params, mode), seeds = block
    inits = [random_init(graph.num_vertices, seed) for seed in seeds]
    if mode is AblationMode.NONE:
        # each spin's lattice phase stands for the run's final phase
        spins = quantize(np.stack(inits), params.n_phases)
        phases, settled_at = TWO_PI * spins / params.n_phases, np.full(len(seeds), np.nan)
    else:
        # each row's last checkpoint is its end
        shape = (len(seeds), graph.num_vertices)
        phases, spins, settled_at = np.empty(shape), np.empty(shape, np.int64), np.empty(len(seeds))
        for rows, cp in integrate_block(graph, inits, params, seeds, settle_exit=True):
            phases[rows], spins[rows], settled_at[rows] = cp.phases, cp.spins, cp.settled_at
    columns = (accuracy(graph, spins), delta_energy(graph, spins),
               vector_energy(graph, phases), settled_at)
    return [RunRecord(seed, acc, de, ve, None if np.isnan(cycles) else cycles)
            for seed, acc, de, ve, cycles in zip(seeds, *(c.tolist() for c in columns))]


def _params_for_mode(params: DynamicsParams, mode: Optional[AblationMode]) -> DynamicsParams:
    if mode is AblationMode.SYNC_ONLY:
        return dataclasses.replace(params, coupling_gain=0.0)
    if mode is AblationMode.COUPLINGS_ONLY:
        return dataclasses.replace(params, shil_gain_max=0.0)
    return params


# its own function so that a tracer can time the aggregate as one span
def _aggregate(benchmark: str, cfg: dict, records: Sequence[RunRecord]) -> SolveReport:
    return SolveReport(benchmark, cfg, tuple(records))


def _run_batch(task, shared: tuple, rows: Sequence, jobs: int) -> list:
    """Run `task` over blocks (shared, rows[a:b]) of contiguous rows, serially
    or on one pool of `jobs` workers, and return its results in the order of
    `rows` whatever the worker count, so a report never depends on `--jobs`.

    A block holds at most LOCKSTEP_ROWS rows.  Block sizes differ by at most
    one, and their number is a multiple of `jobs` when there are enough rows,
    so the workers get equal row counts.  Blocks are dealt out one at a time,
    to no more workers than there are blocks (a forked pool starts all of its
    workers at once).
    """
    if len(rows) < 1:
        raise ValueError("iterations must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    count = min(len(rows), jobs * -(-len(rows) // (jobs * LOCKSTEP_ROWS)))
    bounds = [len(rows) * k // count for k in range(count + 1)]
    blocks = [(shared, rows[a:b]) for a, b in zip(bounds, bounds[1:])]
    workers = min(jobs, len(blocks))
    if workers == 1:
        results = [task(b) for b in blocks]
    else:
        # looked up on the module at call time, so a patched class is the one opened
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, blocks))
    return [r for block in results for r in block]


def solve_multi(
    graph: Graph,
    params: DynamicsParams,
    iterations: int,
    base_seed: int,
    benchmark: str = "",
    jobs: int = 1,
    mode: Optional[AblationMode] = None,
) -> SolveReport:
    """Run `iterations` independent restarts (seeds base_seed..+iterations-1),
    optionally with one subsystem disabled by an ablation `mode`.

    sync_only zeroes the coupling gain, couplings_only zeroes the SHIL gain
    (the final continuous state is still rounded), none skips the dynamics
    entirely and scores the quantized random initial state.  Only an explicit
    mode, full included, is recorded in the report's params.
    """
    mode = None if mode is None else AblationMode(mode)
    records = _run_batch(_run_task, (graph, _params_for_mode(params, mode), mode),
                         range(base_seed, base_seed + iterations), jobs)
    cfg = effective_config(params, iterations, base_seed, mode=mode)
    return _aggregate(benchmark, cfg, records)


def detune_protocol_params() -> DynamicsParams:
    """Default operating point for lattice-deviation (detuning) sweeps."""
    # the deviation of a settled phase from its lattice target scales like
    # 1/shil_gain, so the sweep needs a SHIL strength that dominates the
    # residual coupling torque (the solve-protocol gain of 2 floors the
    # deviation near 10 degrees); the smaller step keeps RK4 stable at that gain
    return DynamicsParams(shil_gain_max=60.0, dt=0.008, t_max=40.0)


def _detune_task(block: tuple) -> list[float]:
    """Mean lattice deviation (radians) at t_max of each row of a block
    ((graph, params), (seed, delta) rows), stepped in lockstep."""
    (graph, params), rows = block
    seeds, deltas = zip(*rows)
    inits = [random_init(graph.num_vertices, seed) for seed in seeds]
    # no settle exit: every row runs to t_max, and the last checkpoint holds them all
    for _, last in integrate_block(graph, inits, params, seeds, deltas):
        pass
    offset = (np.array(deltas) * last.time)[:, None]
    # the deviations are C-contiguous, so each row's mean has its lone bits
    return np.mean(lattice_deviation(last.phases, params.n_phases, offset=offset), axis=1).tolist()


def detune_sweep(
    graph: Graph,
    params: DynamicsParams,
    deltas: Sequence[float],
    iterations: int,
    base_seed: int = 0,
    jobs: int = 1,
) -> list[tuple[float, float]]:
    """Mean lattice deviation (degrees) of the phases at t_max per detuning rate.

    For each detuning value the machine runs `iterations` times; the reported
    figure is the mean over runs and vertices of the circular distance from
    each final phase to the nearest target phase of the (rotating) SHIL
    stimulus, converted to degrees.
    """
    if params.detuning != 0:
        # each run's rate comes from `deltas`: effective_config would record a rate never run
        raise ValueError("detune sets each run's detuning from --deltas; --detune must be 0")
    if len(deltas) == 0:
        raise ValueError("need at least one detuning value")
    if not np.isfinite(deltas).all():
        raise ValueError("detuning must be finite")
    rows = [(base_seed + i, float(delta)) for delta in deltas for i in range(iterations)]
    devs = _run_batch(_detune_task, (graph, params), rows, jobs)
    return [
        (float(delta), float(np.degrees(np.mean(devs[k * iterations:(k + 1) * iterations]))))
        for k, delta in enumerate(deltas)
    ]


# ---------------------------------------------------------------------------
# report serialization


def report_json(report: SolveReport) -> str:
    """Canonical JSON form: benchmark, params, per-run records, aggregate."""
    doc = {
        "benchmark": report.benchmark,
        "params": report.params,
        "runs": [dataclasses.asdict(r) for r in report.runs],
        "aggregate": {
            "avg_accuracy": report.avg_accuracy,
            "best_accuracy": report.best_accuracy,
            "mean_cycles": report.mean_cycles,
            "num_converged": report.num_converged,
            "num_runs": report.num_runs,
            "histogram_bin_width": 1.0 / HISTOGRAM_BINS,
            "histogram": list(report.histogram),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def report_csv(report: SolveReport) -> str:
    """One row per run, with the configuration embedded as a comment line."""
    return table_text({"benchmark": report.benchmark, "params": report.params},
                      [f.name for f in dataclasses.fields(RunRecord)],
                      [dataclasses.astuple(r) for r in report.runs])


def table_text(head: dict, columns: Sequence[str], rows, fmt: str = "csv") -> str:
    """Every pottsim table, from tuples of Python scalars, as text.  CSV: `# ` +
    `head` as JSON, the column names, one line per row of str() cells (a float's
    repr; None is empty).  JSON: `head`'s keys and "rows", one {column: value}
    each."""
    if fmt == "json":
        return json.dumps({**head, "rows": [dict(zip(columns, row)) for row in rows]}, indent=2) + "\n"
    lines = ["# " + json.dumps(head), ",".join(columns)]
    lines += (",".join("" if x is None else str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"
