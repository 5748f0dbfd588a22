from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from pottsim.graph_io import Graph
from pottsim.potts import accuracy, vector_energy
from pottsim.oracle import enumerate_landscape

from conftest import random_colorable_graph
from helpers import count_proper_colorings, lattice_phases

C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


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
        # N = 2 on a bipartite graph: the two proper 2-colorings of the 4-cycle
        scape = enumerate_landscape(C4, 2)
        assert scape.num_global_minima == count_proper_colorings(C4, 2) == 2
        assert scape.min_energy == pytest.approx(-C4.num_edges)

    def test_four_phases_is_a_clock_model(self, k3):
        # for N >= 4 the lattice energy is not the Potts energy: neighbours two
        # colors apart score below adjacent ones, so the global minima and the
        # proper colorings part ways (the gap the README states)
        for graph, minima, proper in ((C4, 4, 84), (k3, 36, 24)):
            assert enumerate_landscape(graph, 4).num_global_minima == minima
            assert count_proper_colorings(graph, 4) == proper

    def test_large_n_on_small_graphs(self):
        # the landscape is one N^V array: a single vertex at N = 10^6 and an
        # edge at N = 1000 each hold 10^6 states
        scape = enumerate_landscape(Graph(1, []), 10**6)
        assert scape.n_states == 10**6
        assert scape.num_global_minima == scape.num_local_minima == 10**6
        assert scape.min_energy == 0.0
        scape = enumerate_landscape(Graph(2, [(0, 1)]), 1000)
        assert scape.n_states == 10**6
        # only the 1000 antipodal pairs: any other pair can move one end there
        assert scape.num_global_minima == scape.num_local_minima == 1000
        assert scape.min_energy == pytest.approx(-1.0)

    def test_n_phases_must_be_an_integer(self, k3):
        # the rule DynamicsParams applies: an integral numpy scalar is
        # accepted, a float is not, even an integral one
        a, b = enumerate_landscape(k3, np.int64(3)), enumerate_landscape(k3, 3)
        assert a.energies.tobytes() == b.energies.tobytes()
        assert (a.n_states, a.num_local_minima) == (b.n_states, b.num_local_minima) == (27, 6)
        assert type(a.n_states) is int
        for bad in (3.0, np.float64(3.0), 2.5, True):
            with pytest.raises(ValueError, match="n_phases must be an integer"):
                enumerate_landscape(k3, bad)

    def test_size_guard(self):
        # 3^700 is beyond a float's range: the message writes the count as a power
        for n in (15, 700):
            with pytest.raises(ValueError, match=rf"3\^{n} states exceeds the enumeration guard"):
                enumerate_landscape(Graph(n, [(0, 1)]), 3)


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
        for n in (20, 700):
            with pytest.raises(ValueError, match=rf"3\^{n} states exceeds the enumeration guard"):
                count_proper_colorings(Graph(n, [(0, 1)]), 3)


class TestCrossChecks:
    def test_global_minima_are_proper_colorings(self):
        # sample a few lattice states at the global minimum energy and verify
        # they are exactly the zero-conflict colorings
        graph = random_colorable_graph(6, 10, seed=3)
        scape = enumerate_landscape(graph, 3)
        hits = 0
        for spins in itertools.product(range(3), repeat=6):
            coloring = np.array(spins)
            if abs(vector_energy(graph, lattice_phases(coloring, 3)) - scape.min_energy) <= 1e-9:
                hits += 1
                assert accuracy(graph, coloring) == 1.0
        assert hits == scape.num_global_minima

    def test_local_minima_counts_are_exact(self, k3, k4):
        # plain-Python reference: a configuration is a local minimum if no
        # single-vertex spin change lowers its energy by more than the tolerance
        graphs = [k3, C4, k4, Graph(4, [(0, 1), (1, 2)]),  # a path and a lone vertex
                  random_colorable_graph(6, 9, seed=5), random_colorable_graph(7, 10, seed=8)]
        for graph in graphs:
            edges = [(int(u), int(v)) for u, v in graph.edges]
            tol = 1e-9 * max(1.0, float(len(edges)))
            for n in range(2, 6):
                energy = {
                    spins: sum(math.cos(2 * math.pi * ((spins[u] - spins[v]) % n) / n)
                               for u, v in edges)
                    for spins in itertools.product(range(n), repeat=graph.num_vertices)
                }
                local = sum(
                    all(energy[spins[:i] + (k,) + spins[i + 1:]] >= e - tol
                        for i in range(graph.num_vertices) for k in range(n))
                    for spins, e in energy.items()
                )
                assert enumerate_landscape(graph, n).num_local_minima == local, (graph, n)
