"""Ground-truth machinery: exhaustive landscape enumeration.

It is independent of the phase dynamics and serves as its reference:
brute-force enumeration of every lattice configuration.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph_io import Graph
from .potts import TWO_PI, phase_count

ENUMERATION_GUARD = 10_000_000


@dataclass(frozen=True)
class Landscape:
    """Exhaustive view of the lattice energy landscape of a graph.

    energies holds the vector-Potts energy of every one of the N^|V| lattice
    configurations, sorted ascending.  Local minima are counted under the
    single-vertex spin-change neighbourhood.  n_states is len(energies).
    """

    n_states: int = field(init=False)
    energies: np.ndarray
    min_energy: float
    num_global_minima: int
    num_local_minima: int

    def __post_init__(self):
        object.__setattr__(self, "n_states", len(self.energies))
        if self.num_global_minima < 1 or self.num_local_minima < self.num_global_minima:
            raise ValueError("minima counts inconsistent")


def _guard(n_phases: int, num_vertices: int, what: str):
    """ValueError if the state count N^V exceeds the guard.  The message writes
    the count as a power: it can be too large to convert to a float."""
    if n_phases**num_vertices > ENUMERATION_GUARD:
        raise ValueError(f"{what}: {n_phases}^{num_vertices} states exceeds "
                         f"the enumeration guard of {ENUMERATION_GUARD}")


def enumerate_landscape(graph: Graph, n_phases: int) -> Landscape:
    """Evaluate the vector-Potts energy of every lattice configuration.

    Guarded to N^|V| <= 10^7 states.  Energy-level comparisons use an
    absolute tolerance of 1e-9 * max(1, |E|), far below the spacing between
    distinct lattice energy levels.
    """
    n_phases = phase_count(n_phases)
    _guard(n_phases, graph.num_vertices, "enumerate_landscape")
    # one array with axis i holding vertex i's spin; each edge adds
    # costab[(s_u - s_v) % N] on axes u and v, in edge order and with u < v
    # as Graph stores it (cos(2*pi*k/N) and cos(2*pi*(N-k)/N) differ in bits)
    costab = np.cos(TWO_PI * np.arange(n_phases) / n_phases)
    spins = np.arange(n_phases)
    energy = np.zeros((n_phases,) * graph.num_vertices)
    for u, v in graph.edges:
        shape = [1] * graph.num_vertices
        shape[u] = shape[v] = n_phases
        energy += costab[np.subtract.outer(spins, spins) % n_phases].reshape(shape)

    # local minima: along vertex i's axis lie the configuration and each of
    # its single-vertex spin changes at i, so none lowers the energy by more
    # than tol iff the configuration is within tol of that axis's minimum
    tol = 1e-9 * max(1.0, float(graph.num_edges))
    is_local = np.ones(energy.shape, dtype=bool)
    for axis in range(graph.num_vertices):
        # is_local &= (energy <= axis minimum + tol), written in place
        np.less_equal(energy, energy.min(axis, keepdims=True) + tol, out=is_local, where=is_local)

    energies = energy.reshape(-1)
    energies.sort()
    min_energy = float(energies[0])
    num_global = int(np.count_nonzero(energies <= min_energy + tol))
    return Landscape(energies, min_energy, num_global, int(np.count_nonzero(is_local)))
