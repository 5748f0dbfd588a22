"""Shared hypothesis strategies for small graphs, colorings and phase states."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from pottsim.graph_io import Graph


@st.composite
def graphs(draw, max_vertices: int = 8) -> Graph:
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


@st.composite
def colorings(draw, graph: Graph, num_phases: int = 3) -> np.ndarray:
    spins = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_phases - 1),
            min_size=graph.num_vertices,
            max_size=graph.num_vertices,
        )
    )
    return np.array(spins)


@st.composite
def phase_states(draw, n: int) -> np.ndarray:
    phases = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0 * np.pi, exclude_max=True),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(phases)
