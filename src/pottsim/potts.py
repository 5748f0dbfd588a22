"""Potts energy functions, phase quantization, and the coloring-quality metric.

A configuration of the machine lives in one of two spaces: discrete spins
(`Coloring`, one of N values per vertex) or continuous oscillator phases
(`PhaseState`, radians in [0, 2*pi)).  The functions here evaluate the
discrete Potts energy, its continuous (vector) relaxation, and the global
Lyapunov function that the phase dynamics descend.  Every edge is one unit
repulsive coupling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .graph_io import Graph

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Coloring:
    """Discrete spin assignment: spins[i] in {0, ..., num_phases - 1}."""

    spins: np.ndarray
    num_phases: int

    def __post_init__(self):
        spins = np.asarray(self.spins, dtype=np.int64)
        object.__setattr__(self, "spins", spins)
        if self.num_phases < 2:
            raise ValueError(f"num_phases must be >= 2, got {self.num_phases}")
        if spins.size and (spins.min() < 0 or spins.max() >= self.num_phases):
            raise ValueError("spin value outside {0, ..., num_phases - 1}")

    def __len__(self) -> int:
        return len(self.spins)


@dataclass(frozen=True)
class PhaseState:
    """Continuous oscillator phases, stored canonically in [0, 2*pi)."""

    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=np.float64)
        if not np.all(np.isfinite(phases)):
            raise ValueError("non-finite phase")
        object.__setattr__(self, "phases", np.mod(phases, TWO_PI))

    def __len__(self) -> int:
        return len(self.phases)


def _check_length(graph: Graph, n: int, what: str):
    if n != graph.num_vertices:
        raise ValueError(
            f"{what} length {n} does not match graph with {graph.num_vertices} vertices"
        )


def delta_energy(graph: Graph, coloring: Coloring) -> float:
    """Potts energy: the number of conflicting (equal-color) edges."""
    _check_length(graph, len(coloring), "coloring")
    u, v = graph.edge_arrays()
    s = coloring.spins
    return float(np.count_nonzero(s[u] == s[v]))


def vector_energy(graph: Graph, state: PhaseState) -> float:
    """Continuous relaxation: sum of cos(theta_i - theta_j) over edges."""
    _check_length(graph, len(state), "state")
    u, v = graph.edge_arrays()
    th = state.phases
    return float(np.sum(np.cos(th[u] - th[v])))


def lattice_state(coloring: Coloring) -> PhaseState:
    """PhaseState with every vertex at its spin's lattice phase."""
    return PhaseState(TWO_PI * coloring.spins / coloring.num_phases)


def quantize(state: PhaseState, n_phases: int) -> Coloring:
    """Round each phase to the nearest of the N equally spaced lattice phases.

    Exact ties (circular distance pi/N to both neighbours) break toward the
    lower spin index.
    """
    x = (state.phases * n_phases) / TWO_PI
    lo = np.floor(x)
    frac = x - lo
    spins = np.where(frac > 0.5, lo + 1.0, lo).astype(np.int64) % n_phases
    tie = frac == 0.5
    if np.any(tie):
        a = lo.astype(np.int64) % n_phases
        b = (lo.astype(np.int64) + 1) % n_phases
        spins = np.where(tie, np.minimum(a, b), spins)
    return Coloring(spins, n_phases)


def accuracy(graph: Graph, coloring: Coloring) -> float:
    """Fraction of edges whose endpoints get different colors (1.0 if no edges)."""
    _check_length(graph, len(coloring), "coloring")
    u, v = graph.edge_arrays()
    if len(u) == 0:
        return 1.0
    s = coloring.spins
    return float(np.count_nonzero(s[u] != s[v])) / len(u)


def lyapunov(
    graph: Graph,
    state: PhaseState,
    coupling_gain: float,
    shil_gain: float,
    n_phases: int,
) -> float:
    """Global energy descended by the phase dynamics.

    L = K_c * sum_edges cos(theta_i - theta_j)
        - (K_s / N) * sum_i cos(N * theta_i)

    The SHIL well term is minimized exactly at the lattice phases; with
    shil_gain = 0 this reduces to ``coupling_gain * vector_energy``.
    """
    if coupling_gain < 0 or shil_gain < 0:
        raise ValueError("gains must be non-negative")
    well = float(np.sum(np.cos(n_phases * state.phases)))
    return coupling_gain * vector_energy(graph, state) - (shil_gain / n_phases) * well


def lattice_deviation(state: PhaseState, n_phases: int, offset: float = 0.0) -> np.ndarray:
    """Circular distance (radians) of each phase to its nearest lattice phase.

    ``offset`` rotates the lattice: deviations are measured against the grid
    {(2*pi*s + offset) / N}, which is how a detuned (rotating) SHIL stimulus
    defines its target phases at a given time.
    """
    resid = np.angle(np.exp(1j * (n_phases * state.phases - offset)))
    return np.abs(resid) / n_phases
