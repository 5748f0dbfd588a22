from __future__ import annotations

import numpy as np
import pytest

from pottsim.graph_io import Graph
from pottsim.potts import Coloring, accuracy
from pottsim.oracle import enumerate_landscape

from conftest import random_colorable_graph
from helpers import count_proper_colorings


class TestEnumerateLandscape:
    def test_k3_three_phases(self, k3):
        scape = enumerate_landscape(k3, 3)
        assert scape.n_states == 27
        assert scape.min_energy == pytest.approx(-1.5)
        assert scape.num_global_minima == 6  # the 3! proper colorings
        assert np.all(np.diff(scape.energies) >= 0)

    def test_single_edge(self, single_edge):
        scape = enumerate_landscape(single_edge, 3)
        assert scape.n_states == 9
        assert scape.min_energy == pytest.approx(-0.5)
        assert scape.num_global_minima == 6

    def test_eight_vertex_graph(self):
        graph = random_colorable_graph(8, 11, seed=17)
        scape = enumerate_landscape(graph, 3)
        assert scape.n_states == 6561
        # the three uni-color states sit alone at the maximum energy |E|
        assert scape.energies[-1] == pytest.approx(11.0)
        top = np.count_nonzero(scape.energies >= 11.0 - 1e-9)
        assert top == 3

    def test_local_minima_include_global(self):
        for seed in range(5):
            graph = random_colorable_graph(7, 12, seed=seed)
            scape = enumerate_landscape(graph, 3)
            assert scape.num_local_minima >= scape.num_global_minima

    def test_matches_proper_coloring_count(self):
        for seed in range(8):
            n = 5 + seed % 4
            graph = random_colorable_graph(n, int(1.5 * n), seed=40 + seed)
            scape = enumerate_landscape(graph, 3)
            assert scape.num_global_minima == count_proper_colorings(graph, 3)
            assert scape.min_energy == pytest.approx(-0.5 * graph.num_edges)

    def test_size_guard(self):
        graph = Graph(15, [(0, 1)])
        with pytest.raises(ValueError, match="guard"):
            enumerate_landscape(graph, 3)


class TestCountProperColorings:
    def test_triangle(self, k3):
        assert count_proper_colorings(k3, 3) == 6

    def test_path(self, path3):
        assert count_proper_colorings(path3, 3) == 12

    def test_edgeless(self, edgeless4):
        assert count_proper_colorings(edgeless4, 3) == 81

    def test_k4_has_none(self, k4):
        assert count_proper_colorings(k4, 3) == 0

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            count_proper_colorings(Graph(20, [(0, 1)]), 3)


class TestCrossChecks:
    def test_global_minima_are_proper_colorings(self):
        # sample a few lattice states at the global minimum energy and verify
        # they are exactly the zero-conflict colorings
        graph = random_colorable_graph(6, 10, seed=3)
        scape = enumerate_landscape(graph, 3)
        import itertools

        hits = 0
        for spins in itertools.product(range(3), repeat=6):
            coloring = Coloring(np.array(spins), 3)
            from pottsim.potts import lattice_state, vector_energy

            if abs(vector_energy(graph, lattice_state(coloring)) - scape.min_energy) <= 1e-9:
                hits += 1
                assert accuracy(graph, coloring) == 1.0
        assert hits == scape.num_global_minima
