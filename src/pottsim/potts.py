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


def wrap_phases(theta: np.ndarray) -> bool:
    """``theta %= TWO_PI`` in place, with np.mod's bits except that -0.0
    stays; False if a phase is not finite.

    After a step of the dynamics, phases lie in [-2*pi, 4*pi), where one
    subtraction or addition of 2*pi gives np.mod's bits at a fraction of its
    cost: on [2*pi, 4*pi) x - 2*pi is exact (Sterbenz's lemma), and on
    [-2*pi, 0) np.mod itself returns x + 2*pi.  Other values, NaN and inf
    among them, take np.mod.  Both branches map a zero to +0.0, and x + y is
    -0.0 only if x and y are, so phases that start without -0.0 never hold it.
    """
    lo, hi = theta.min(initial=np.inf), theta.max(initial=-np.inf)
    if -TWO_PI <= lo and hi < 2 * TWO_PI:
        if hi >= TWO_PI:
            np.subtract(theta, TWO_PI, out=theta, where=theta >= TWO_PI)
        if lo < 0:
            np.add(theta, TWO_PI, out=theta, where=theta < 0)
        return True
    with np.errstate(invalid="ignore"):
        theta %= TWO_PI
    return bool(np.isfinite(theta).all())


@dataclass(frozen=True)
class Coloring:
    """Discrete spin assignment: spins[i] in {0, ..., num_phases - 1}; a 2-D
    array holds a block of colorings, one per row."""

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
    """Continuous oscillator phases, stored canonically in [0, 2*pi); a 2-D
    array holds a block of runs, one per row."""

    phases: np.ndarray

    def __post_init__(self):
        # a C-contiguous copy (so a block's row sums have each row's lone
        # bits) with -0.0 as +0.0, which np.mod gives and wrap_phases keeps
        phases = np.add(np.asarray(self.phases, dtype=np.float64), 0.0, order="C")
        if not wrap_phases(phases):
            raise ValueError("non-finite phase")
        object.__setattr__(self, "phases", phases)

    def __len__(self) -> int:
        return len(self.phases)


def _check_length(graph: Graph, n: int, what: str):
    if n != graph.num_vertices:
        raise ValueError(
            f"{what} length {n} does not match graph with {graph.num_vertices} vertices"
        )


def _row_sums(x: np.ndarray, dtype=None):
    """Sums over the last axis: a float for a vector, else one per row."""
    sums = np.sum(x, axis=-1, dtype=dtype)
    return float(sums) if x.ndim == 1 else sums


def delta_energy(graph: Graph, coloring: Coloring) -> float:
    """Potts energy: the number of conflicting (equal-color) edges (per row
    for a block of colorings)."""
    s = coloring.spins
    _check_length(graph, s.shape[-1], "coloring")
    u, v = graph.edge_arrays()
    return _row_sums(np.take(s, u, axis=-1) == np.take(s, v, axis=-1), float)


def vector_energy(graph: Graph, state: PhaseState) -> float:
    """Continuous relaxation: sum of cos(theta_i - theta_j) over edges (per
    row for a block of runs)."""
    th = state.phases
    _check_length(graph, th.shape[-1], "state")
    u, v = graph.edge_arrays()
    # np.take keeps a block C-contiguous (th[..., u] would be F-ordered), so
    # each row is summed with the bits of its sum alone
    return _row_sums(np.cos(np.take(th, u, axis=-1) - np.take(th, v, axis=-1)))


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
    # a tie's lower index is lo, bar the wrap from N - 1 to 0
    up = (frac > 0.5) | ((frac == 0.5) & (lo == n_phases - 1))
    spins = (lo + up).astype(np.int64) % n_phases
    return Coloring(spins, n_phases)


def accuracy(graph: Graph, coloring: Coloring) -> float:
    """Fraction of edges whose endpoints get different colors (1.0 if no
    edges; per row for a block of colorings)."""
    conflicts = delta_energy(graph, coloring)
    m = graph.num_edges
    # without edges the conflict count is 0, so conflicts + 1.0 is 1.0 per row
    return (m - conflicts) / m if m else conflicts + 1.0


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
    shil_gain = 0 this reduces to ``coupling_gain * vector_energy``.  A block
    of runs gets one value per row.
    """
    if coupling_gain < 0 or shil_gain < 0:
        raise ValueError("gains must be non-negative")
    well = _row_sums(np.cos(n_phases * state.phases))
    return coupling_gain * vector_energy(graph, state) - (shil_gain / n_phases) * well


def lattice_deviation(state: PhaseState, n_phases: int,
                      offset: float | np.ndarray = 0.0) -> np.ndarray:
    """Circular distance (radians) of each phase to its nearest lattice phase.

    ``offset`` rotates the lattice: deviations are measured against the grid
    {(2*pi*s + offset) / N}, which is how a detuned (rotating) SHIL stimulus
    defines its target phases at a given time.  An array broadcasts against
    the phases, so a (rows, 1) column gives each row of a block its own.
    """
    resid = np.angle(np.exp(1j * (n_phases * state.phases - offset)))
    return np.abs(resid) / n_phases
