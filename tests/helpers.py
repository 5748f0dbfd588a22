"""Test-only helpers: code that no pottsim command or report reaches."""
from __future__ import annotations

import collections
import dataclasses
from typing import Sequence

import numpy as np

from pottsim.dynamics import Checkpoint, DynamicsParams, _BlockEdges, _rhs_core, integrate_block
from pottsim.graph_io import Graph
from pottsim.oracle import _guard
from pottsim.potts import TWO_PI

# Percentile bootstrap: resamples per interval and two-sided coverage.
BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_CONFIDENCE = 0.95
# configurations per chunk of `_spin_chunks`
_CHUNK = 1 << 16


def bootstrap_mean_diff(
    xs: Sequence[float], ys: Sequence[float], *, seed: int = 0
) -> tuple[float, float]:
    """Percentile bootstrap CI for mean(xs) - mean(ys) (independent samples)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    rng = np.random.default_rng(seed)
    diffs = np.empty(BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        diffs[b] = np.mean(rng.choice(xs, len(xs))) - np.mean(rng.choice(ys, len(ys)))
    lo = (1.0 - BOOTSTRAP_CONFIDENCE) / 2.0
    return (
        float(np.quantile(diffs, lo)),
        float(np.quantile(diffs, 1.0 - lo)),
    )


def edge_set(graph: Graph) -> set[tuple[int, int]]:
    return {(int(u), int(v)) for u, v in graph.edges}


def _spin_chunks(num_vertices: int, n_phases: int):
    """Yield (codes, spins) for all N^V configurations in fixed chunks."""
    n_states = n_phases**num_vertices
    powers = n_phases ** np.arange(num_vertices, dtype=np.int64)
    for start in range(0, n_states, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, n_states), dtype=np.int64)
        spins = (codes[:, None] // powers[None, :]) % n_phases
        yield codes, spins


def count_proper_colorings(graph: Graph, k: int) -> int:
    """Exact number of proper k-colorings, by enumeration (guarded to 10^7)."""
    _guard(k, graph.num_vertices, "count_proper_colorings")
    u, v = graph.edge_arrays()
    total = 0
    for _, spins in _spin_chunks(graph.num_vertices, k):
        proper = np.ones(len(spins), dtype=bool)
        for e in range(len(u)):
            proper &= spins[:, u[e]] != spins[:, v[e]]
        total += int(np.count_nonzero(proper))
    return total


def lattice_phases(spins, n_phases: int) -> np.ndarray:
    """Every vertex at its spin's lattice phase, as the `none` ablation scores it."""
    return TWO_PI * np.asarray(spins) / n_phases


def run_checkpoints(graph: Graph, init: np.ndarray, params: DynamicsParams,
                    seed: int = 0) -> Checkpoint:
    """Every checkpoint of one run of `integrate_block`, as one Checkpoint
    whose row k is the run at its k-th checkpoint (`time` an array too)."""
    cps = [cp for _, cp in integrate_block(graph, [init], params, [seed])]
    return Checkpoint(*(np.concatenate([np.atleast_1d(getattr(cp, f.name)) for cp in cps])
                        for f in dataclasses.fields(Checkpoint)))


def last_checkpoint(stream):
    """The last (rows, Checkpoint) pair of an `integrate_block` stream."""
    return collections.deque(stream, maxlen=1).pop()


def velocity(graph: Graph, phases: np.ndarray, kc: float, ks: float, n_phases: int) -> np.ndarray:
    """One undetuned run's phase velocities: minus the gradient of `lyapunov`."""
    return _rhs_core(phases[:, None], 0.0, _BlockEdges(graph, 1), kc, ks, n_phases, None)[:, 0]
