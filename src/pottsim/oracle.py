"""Ground-truth machinery: exhaustive landscape enumeration.

It is independent of the phase dynamics and serves as its reference:
brute-force enumeration of every lattice configuration.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_io import Graph
from .potts import TWO_PI

ENUMERATION_GUARD = 10_000_000
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Landscape:
    """Exhaustive view of the lattice energy landscape of a graph.

    energies holds the vector-Potts energy of every one of the N^|V| lattice
    configurations, sorted ascending.  Local minima are counted under the
    single-vertex spin-change neighbourhood.
    """

    n_states: int
    energies: np.ndarray
    min_energy: float
    num_global_minima: int
    num_local_minima: int

    def __post_init__(self):
        if self.n_states != len(self.energies):
            raise ValueError("n_states must match the energy sequence length")
        if self.num_global_minima < 1 or self.num_local_minima < self.num_global_minima:
            raise ValueError("minima counts inconsistent")


def _guard(n_states: float, what: str):
    if n_states > ENUMERATION_GUARD:
        raise ValueError(
            f"{what}: {n_states:.3g} states exceeds the enumeration guard of {ENUMERATION_GUARD}"
        )


def _spin_chunks(num_vertices: int, n_phases: int):
    """Yield (codes, spins) for all N^V configurations in fixed chunks."""
    n_states = n_phases**num_vertices
    powers = n_phases ** np.arange(num_vertices, dtype=np.int64)
    for start in range(0, n_states, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, n_states), dtype=np.int64)
        spins = (codes[:, None] // powers[None, :]) % n_phases
        yield codes, spins


def enumerate_landscape(graph: Graph, n_phases: int) -> Landscape:
    """Evaluate the vector-Potts energy of every lattice configuration.

    Guarded to N^|V| <= 10^7 states.  Energy-level comparisons use an
    absolute tolerance of 1e-9 * max(1, |E|), far below the spacing between
    distinct lattice energy levels.
    """
    if n_phases < 2:
        raise ValueError("n_phases must be >= 2")
    n_states = n_phases**graph.num_vertices
    _guard(n_states, "enumerate_landscape")
    u, v = graph.edge_arrays()
    costab = np.cos(TWO_PI * np.arange(n_phases) / n_phases)
    adjacency: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    for a, b in graph.edges:
        adjacency[a].append(int(b))
        adjacency[b].append(int(a))

    tol = 1e-9 * max(1.0, float(graph.num_edges))
    all_energies = np.empty(n_states, dtype=np.float64)
    num_local = 0
    for codes, spins in _spin_chunks(graph.num_vertices, n_phases):
        energies = np.zeros(len(codes))
        for e in range(len(u)):
            energies += costab[(spins[:, u[e]] - spins[:, v[e]]) % n_phases]
        all_energies[codes[0] : codes[0] + len(codes)] = energies

        is_local = np.ones(len(codes), dtype=bool)
        for vertex in range(graph.num_vertices):
            if not adjacency[vertex] or not is_local.any():
                continue
            # energy contribution of this vertex for each candidate spin
            contrib = np.zeros((len(codes), n_phases))
            for nbr in adjacency[vertex]:
                contrib += costab[(np.arange(n_phases)[None, :] - spins[:, nbr, None]) % n_phases]
            current = contrib[np.arange(len(codes)), spins[:, vertex]]
            is_local &= contrib.min(axis=1) >= current - tol
        num_local += int(np.count_nonzero(is_local))

    all_energies.sort()
    min_energy = float(all_energies[0])
    num_global = int(np.count_nonzero(all_energies <= min_energy + tol))
    return Landscape(n_states, all_energies, min_energy, num_global, num_local)
