"""Potts energy functions, phase quantization, and the coloring-quality metric.

A configuration of the machine lives in one of two spaces: discrete spins
(an int array, one of N values per vertex) or continuous oscillator phases
(a float array, radians in [0, 2*pi]: see wrap_phases); a 2-D array holds a
block of them, one per row.  The functions here evaluate the discrete Potts
energy, its continuous (vector) relaxation, and the global Lyapunov function
that the phase dynamics descend.  Every edge is one unit repulsive coupling.
"""
from __future__ import annotations

import numbers
import operator
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .graph_io import Graph

TWO_PI = 2.0 * np.pi


def wrap_phases(theta: np.ndarray) -> bool:
    """``theta %= TWO_PI`` in place, with np.mod's bits except that -0.0
    stays; False if a phase is not finite.  Like np.mod it maps a phase in
    (-4.4e-16, 0) to 2*pi, so the range is [0, 2*pi] (`quantize` gives 0).

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


def phase_count(n_phases) -> int:
    """`n_phases` as a Python int; a non-integral value, or one below 2, raises ValueError."""
    if isinstance(n_phases, bool) or not isinstance(n_phases, numbers.Integral):
        raise ValueError(f"n_phases must be an integer, got {n_phases!r}")
    if n_phases < 2:
        raise ValueError("n_phases must be >= 2")
    return operator.index(n_phases)


def _check_length(graph: Graph, n: int, what: str):
    if n != graph.num_vertices:
        raise ValueError(
            f"{what} length {n} does not match graph with {graph.num_vertices} vertices"
        )


def _row_sums(x: np.ndarray, dtype=None):
    """Sums over the last axis: a float for a vector, else one per row, each
    taken over a C-contiguous row so that it has the bits of its row alone."""
    sums = np.sum(np.ascontiguousarray(x), axis=-1, dtype=dtype)
    return float(sums) if x.ndim == 1 else sums


def delta_energy(graph: Graph, spins: np.ndarray) -> float:
    """Potts energy: the number of conflicting (equal-color) edges (per row
    for a block of colorings)."""
    s = np.asarray(spins)
    _check_length(graph, s.shape[-1], "spins")
    u, v = graph.edge_arrays()
    return _row_sums(np.take(s, u, axis=-1) == np.take(s, v, axis=-1), float)


def vector_energy(graph: Graph, phases: np.ndarray) -> float:
    """Continuous relaxation: sum of cos(theta_i - theta_j) over edges (per
    row for a block of runs)."""
    th = np.asarray(phases, dtype=np.float64)
    _check_length(graph, th.shape[-1], "phases")
    u, v = graph.edge_arrays()
    return _row_sums(np.cos(np.take(th, u, axis=-1) - np.take(th, v, axis=-1)))


def quantize(phases: np.ndarray, n_phases: int) -> np.ndarray:
    """Round each phase to the nearest of the N equally spaced lattice phases;
    returns the int64 spins.

    Exact ties (circular distance pi/N to both neighbours) break toward the
    lower spin index.
    """
    x = (np.asarray(phases, dtype=np.float64) * n_phases) / TWO_PI
    lo = np.floor(x)
    frac = x - lo
    # a tie's lower index is lo, bar the wrap from N - 1 to 0
    up = (frac > 0.5) | ((frac == 0.5) & (lo == n_phases - 1))
    return (lo + up).astype(np.int64) % n_phases


def accuracy(graph: Graph, spins: np.ndarray) -> float:
    """Fraction of edges whose endpoints get different colors (1.0 if no
    edges; per row for a block of colorings)."""
    conflicts = delta_energy(graph, spins)
    m = graph.num_edges
    # without edges the conflict count is 0, so conflicts + 1.0 is 1.0 per row
    return (m - conflicts) / m if m else conflicts + 1.0


def lyapunov(
    graph: Graph,
    phases: np.ndarray,
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
    # an array, so that a list is scaled by n_phases, not repeated
    phases = np.asarray(phases, dtype=np.float64)
    well = _row_sums(np.cos(n_phases * phases))
    return coupling_gain * vector_energy(graph, phases) - (shil_gain / n_phases) * well


def lattice_deviation(phases: np.ndarray, n_phases: int) -> np.ndarray:
    """Circular distance (radians) of each phase to its nearest lattice phase."""
    resid = np.angle(np.exp(1j * (n_phases * np.asarray(phases, dtype=np.float64))))
    return np.abs(resid) / n_phases
