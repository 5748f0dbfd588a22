"""Test-only helpers: code that no pottsim command or report reaches."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from pottsim.graph_io import Graph
from pottsim.oracle import _guard, _spin_chunks

# Percentile bootstrap: resamples per interval and two-sided coverage.
BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_CONFIDENCE = 0.95


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


def count_proper_colorings(graph: Graph, k: int) -> int:
    """Exact number of proper k-colorings, by enumeration (guarded to 10^7)."""
    _guard(k**graph.num_vertices, "count_proper_colorings")
    u, v = graph.edge_arrays()
    total = 0
    for _, spins in _spin_chunks(graph.num_vertices, k):
        proper = np.ones(len(spins), dtype=bool)
        for e in range(len(u)):
            proper &= spins[:, u[e]] != spins[:, v[e]]
        total += int(np.count_nonzero(proper))
    return total
