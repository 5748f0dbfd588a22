"""Span tracing for the benchmark's traced run, installed from outside pottsim.

Spans are recorded around the calls into each layer by replacing names where
the caller looks them up (``solver`` and ``dynamics`` bind ``integrate``,
``quantize``, ``lyapunov`` ... at import; ``integrate`` looks up ``_rhs_core``
in its module on every call).  The tracer is installed before any pool
forks, so fork-started workers run the wrapped names too; a worker writes the
spans of each restart to a spill file when the restart ends, because it exits
without running ``atexit`` hooks.  The main process keeps its spans in memory
until the run collects them.

A span is [proc, seq, name, start, end, parent_seq, run, data]; times are
``time.monotonic()`` seconds, which on Linux is one clock for all processes.
"""
from __future__ import annotations

import functools
import json
import os
import pickle
import statistics
import sys
import time
from pathlib import Path

# Restart roots: one span per machine run, executed in a worker or in-process.
RESTART_NAMES = ("solver.run_task", "solver.detune_task")
POOL_NAME = "solver.pool"


class Tracer:
    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.main_pid = os.getpid()
        self._new_process()
        self.installed: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._new_process)

    def _new_process(self):
        self.proc = f"{os.getpid()}-{time.monotonic_ns()}"
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.seq = 0

    # -- recording -------------------------------------------------------

    def open(self, name: str, run=None, data=None) -> list:
        parent = self.stack[-1] if self.stack else None
        self.seq += 1
        if run is None:
            run = parent[6] if parent is not None else "main"
        span = [self.proc, self.seq, name, time.monotonic(), None,
                parent[1] if parent is not None else None, run, data]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list):
        now = time.monotonic()
        # close anything left open inside `span` (a region hook that never
        # saw its closing call) so the stack stays balanced
        while self.stack:
            top = self.stack.pop()
            top[4] = now
            if top is span:
                break

    def current_name(self):
        return self.stack[-1][2] if self.stack else None

    def wrap(self, fn, name: str, note=None):
        """Wrap `fn` in a span; note(args, result) may attach data to it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                span[7] = note(args, result)
            return result

        return traced

    def wrap_restart(self, fn, name: str):
        """Wrap a restart task: a new run id, its pickled size, spill in workers."""
        tracer = self

        @functools.wraps(fn)
        def traced(task):
            size = len(pickle.dumps(task))
            span = tracer.open(name, run=f"{tracer.proc}:{tracer.seq + 1}",
                               data={"pickle_bytes": size})
            try:
                return fn(task)
            finally:
                tracer.close(span)
                if os.getpid() != tracer.main_pid and not tracer.stack:
                    tracer.spill()

        return traced

    def spill(self):
        with open(self.spill_dir / f"spans-{self.proc}.jsonl", "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans = []

    def collect(self) -> list[list]:
        spans = [s for s in self.spans if s[4] is not None]
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            spans += [json.loads(ln) for ln in path.read_text().splitlines()]
        return spans

    # -- installation ----------------------------------------------------

    def patch(self, owner, attr: str, make):
        """Replace owner.attr by make(owner.attr); a missing name is reported."""
        if not hasattr(owner, attr):
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found; "
                  f"its metrics read 0", file=sys.stderr)
            return
        original = getattr(owner, attr)
        self.installed.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []


def _settle_note(args, result):
    return {"settle": result, "final": float(args[0].final.time)}


def install(tracer: Tracer):
    """Wrap every traced name of pottsim where its caller looks it up."""
    from pottsim import cli, dynamics, graph_io, potts, solver

    def span(owner, attr, name, note=None):
        tracer.patch(owner, attr, lambda fn: tracer.wrap(fn, name, note))

    # cli: the batch root, report emission, and the layers it calls into
    span(cli, "main", "cli.main")
    span(cli, "_emit", "cli.emit")
    span(cli, "parse_dimacs", "graph_io.parse_dimacs")
    span(cli, "solve_multi", "solver.solve_multi")
    span(cli, "detune_sweep", "solver.detune_sweep")
    span(cli, "report_json", "solver.report_json")
    # solver: restart roots, the pool, scoring and aggregation
    for attr, name in (("_run_task", RESTART_NAMES[0]), ("_detune_task", RESTART_NAMES[1])):
        tracer.patch(solver, attr, lambda fn, name=name: tracer.wrap_restart(fn, name))
    span(solver, "solve_once", "solver.solve_once")
    span(solver, "_aggregate", "solver.aggregate")
    span(solver, "integrate", "dynamics.integrate")
    span(solver, "random_init", "dynamics.random_init")
    span(solver, "detect_convergence", "dynamics.detect_convergence", _settle_note)
    for attr in ("accuracy", "delta_energy", "vector_energy", "quantize", "lattice_deviation"):
        span(solver, attr, f"potts.{attr}")
    tracer.patch(solver, "ProcessPoolExecutor", lambda base: _traced_pool(tracer, base))
    # dynamics: the RHS, the checkpoint work inside integrate
    span(dynamics, "_rhs_core", "dynamics.rhs")
    span(dynamics, "lyapunov", "potts.lyapunov")
    span(dynamics, "quantize", "potts.quantize")
    _install_checkpoint_region(tracer, dynamics)
    # potts: lyapunov's own vector_energy call; graph_io: edge-array derivation
    span(potts, "vector_energy", "potts.vector_energy")
    span(graph_io.Graph, "edge_arrays", "graph_io.edge_arrays")


def _install_checkpoint_region(tracer: Tracer, dynamics):
    """Span `integrate`'s nested checkpoint(): it opens with a PhaseState and
    closes with a Checkpoint, both looked up in the dynamics module."""

    def opening(phase_state):
        def hook(*args, **kwargs):
            if tracer.current_name() == "dynamics.integrate":
                tracer.open("dynamics.checkpoint")
            return phase_state(*args, **kwargs)
        return hook

    def closing(checkpoint):
        def hook(*args, **kwargs):
            obj = checkpoint(*args, **kwargs)
            if tracer.current_name() == "dynamics.checkpoint":
                tracer.close(tracer.stack[-1])
            return obj
        return hook

    tracer.patch(dynamics, "PhaseState", opening)
    tracer.patch(dynamics, "Checkpoint", closing)


def _traced_pool(tracer: Tracer, base):
    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            self._trace_span = tracer.open(POOL_NAME)
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._trace_span is not None:
                    tracer.close(self._trace_span)
                    self._trace_span = None

    return TracedPool


# -- derivation ------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10)[-1]


def self_times(spans: list[list]) -> dict:
    """(proc, seq) -> duration minus the durations of its direct children."""
    out = {(s[0], s[1]): s[4] - s[3] for s in spans}
    for s in spans:
        parent = (s[0], s[5])
        if parent in out:
            out[parent] -= s[4] - s[3]
    return out


def derive(spans: list[list], jobs: int, batches: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the traced run's spans."""
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    selfs = self_times(spans)

    def durs(name, scale):
        return [(s[4] - s[3]) * scale for s in by_name.get(name, [])]

    restarts = [s for name in RESTART_NAMES for s in by_name.get(name, [])]
    n_runs = max(1, len(restarts))
    busy = sum(s[4] - s[3] for s in restarts) or 1.0

    def per_run(name):
        return len(by_name.get(name, [])) / n_runs

    def self_frac(name):
        return sum(selfs[(s[0], s[1])] for s in by_name.get(name, [])) / busy

    layer_self: dict[str, float] = {}
    for s in spans:
        if s[2] != POOL_NAME:  # a pool's self time is waiting for its workers
            layer = s[2].split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + selfs[(s[0], s[1])]
    total_self = sum(layer_self.values()) or 1.0

    settles = [s[7] for s in by_name.get("dynamics.detect_convergence", [])]
    final_total = sum(d["final"] for d in settles)
    post_settle = sum(d["final"] - d["settle"] for d in settles if d["settle"] is not None)

    integrate_of = {}
    for s in by_name.get("dynamics.integrate", []):
        integrate_of[(s[0], s[5])] = s[4] - s[3]
    score = [(s[4] - s[3] - integrate_of.get((s[0], s[1]), 0.0)) * 1e3
             for s in by_name.get("solver.solve_once", []) or restarts]

    pool_starts = []
    for p in by_name.get(POOL_NAME, []):
        inside = [r[3] for r in restarts if r[0] != p[0] and p[3] <= r[3] <= p[4]]
        if inside:
            pool_starts.append((min(inside) - p[3]) * 1e3)
    batch_wall = sum(durs("solver.solve_multi", 1.0) + durs("solver.detune_sweep", 1.0))

    integrate_ms = durs("dynamics.integrate", 1e3)
    solve_once_ms = durs("solver.solve_once", 1e3)
    m = {
        "graph_io.edge_arrays_calls_per_run": (per_run("graph_io.edge_arrays"), "count"),
        "dynamics.integrate_ms_p50": (_median(integrate_ms), "ms"),
        "dynamics.integrate_ms_p90": (_p90(integrate_ms), "ms"),
        "dynamics.rhs_us": (_median(durs("dynamics.rhs", 1e6)), "us"),
        "dynamics.rhs_evals_per_run": (per_run("dynamics.rhs"), "count"),
        "dynamics.rhs_self_frac": (self_frac("dynamics.rhs"), "frac"),
        "dynamics.checkpoints_per_run": (per_run("dynamics.checkpoint"), "count"),
        "dynamics.checkpoint_self_frac": (self_frac("dynamics.checkpoint"), "frac"),
        "dynamics.post_settle_step_frac": (post_settle / final_total if final_total else 0.0, "frac"),
        "dynamics.detect_convergence_us": (_median(durs("dynamics.detect_convergence", 1e6)), "us"),
        "dynamics.random_init_us": (_median(durs("dynamics.random_init", 1e6)), "us"),
    }
    for f in ("quantize", "accuracy", "lyapunov", "vector_energy", "delta_energy",
              "lattice_deviation"):
        m[f"potts.{f}_us"] = (_median(durs(f"potts.{f}", 1e6)), "us")
    for f in ("quantize", "lyapunov", "vector_energy"):
        m[f"potts.{f}_calls_per_run"] = (per_run(f"potts.{f}"), "count")
    m.update({
        "solver.solve_once_ms_p50": (_median(solve_once_ms), "ms"),
        "solver.solve_once_ms_p90": (_p90(solve_once_ms), "ms"),
        "solver.score_ms": (_median(score), "ms"),
        "solver.pools_opened": (len(by_name.get(POOL_NAME, [])) / max(1, batches), "count"),
        "solver.pool_start_ms": (_median(pool_starts), "ms"),
        "solver.task_pickle_bytes": (_median([r[7]["pickle_bytes"] for r in restarts]), "bytes"),
        "solver.parallel_efficiency": (busy / (jobs * batch_wall) if batch_wall else 0.0, "frac"),
        "solver.aggregate_ms": (_median(durs("solver.aggregate", 1e3)), "ms"),
        "solver.report_ms": (_median(durs("solver.report_json", 1e3)), "ms"),
        "cli.emit_ms": (_median(durs("cli.emit", 1e3)), "ms"),
    })
    for layer in ("graph_io", "potts", "dynamics", "solver", "cli"):
        m[f"{layer}.self_frac"] = (layer_self.get(layer, 0.0) / total_self, "frac")
    return m


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with the span tree: children outside parents, negative self time."""
    index = {(s[0], s[1]): s for s in spans}
    problems = []
    for s in spans:
        if s[4] < s[3]:
            problems.append(f"{s[2]} ends before it starts")
        if s[5] is not None:
            p = index.get((s[0], s[5]))
            if p is None:
                problems.append(f"{s[2]} has no recorded parent")
            elif not (p[3] <= s[3] and s[4] <= p[4]):
                problems.append(f"{s[2]} lies outside its parent {p[2]}")
    for key, v in self_times(spans).items():
        if v < -1e-9:
            problems.append(f"{index[key][2]} has negative self time {v}")
    return problems
