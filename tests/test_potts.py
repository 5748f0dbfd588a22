from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsim.graph_io import Graph
from pottsim.potts import (
    TWO_PI,
    accuracy,
    delta_energy,
    lattice_deviation,
    lyapunov,
    quantize,
    vector_energy,
    wrap_phases,
)

from conftest import load_benchmark
from helpers import lattice_phases
from strategies import colorings, graphs


def conflict_scan(graph: Graph, spins: np.ndarray) -> int:
    """Independent oracle: count monochromatic edges one by one."""
    return sum(1 for u, v in graph.edges if spins[u] == spins[v])


class TestDeltaEnergy:
    def test_unicolor_k3(self, k3):
        assert delta_energy(k3, np.array([0, 0, 0])) == 3.0

    def test_proper_k3(self, k3):
        assert delta_energy(k3, np.array([0, 1, 2])) == 0.0

    def test_matches_edge_scan_oracle(self):
        rng = np.random.default_rng(42)
        graph = Graph(8, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 6), (4, 7), (5, 6), (5, 7), (6, 7)])
        for _ in range(20):
            coloring = rng.integers(0, 3, 8)
            assert delta_energy(graph, coloring) == conflict_scan(graph, coloring)

    def test_length_mismatch(self, k3):
        with pytest.raises(ValueError):
            delta_energy(k3, np.array([0, 1]))


class TestVectorEnergy:
    def test_aligned_edge(self, single_edge):
        assert vector_energy(single_edge, np.array([0.0, 0.0])) == pytest.approx(1.0)

    def test_k3_at_lattice(self, k3):
        state = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        assert vector_energy(k3, state) == pytest.approx(-1.5)

    def test_antiphase_edge(self, single_edge):
        assert vector_energy(single_edge, np.array([0.0, np.pi])) == pytest.approx(-1.0)

    def test_length_mismatch(self, single_edge):
        with pytest.raises(ValueError):
            vector_energy(single_edge, np.array([0.0]))


class TestQuantize:
    def test_zero(self):
        assert quantize(np.array([0.0]), 3)[0] == 0

    def test_exact_lattice_point(self):
        assert quantize(np.array([2.0944]), 3)[0] == 1

    def test_tie_breaks_down(self):
        # pi sits exactly midway between spins 1 and 2 for N=3
        assert quantize(np.array([np.pi]), 3)[0] == 1

    def test_wraps_across_two_pi(self):
        # 6.20 is 0.083 rad from 0 (through 2*pi) but 2.01 rad from 4*pi/3
        assert quantize(np.array([6.20]), 3)[0] == 0

    @given(n_phases=st.integers(min_value=2, max_value=8), data=st.data())
    def test_round_trip_identity(self, n_phases, data):
        spins = data.draw(st.lists(st.integers(0, n_phases - 1), min_size=1, max_size=12))
        spins = np.array(spins)
        assert np.array_equal(quantize(lattice_phases(spins, n_phases), n_phases), spins)


class TestAccuracy:
    def test_examples(self, k3):
        assert accuracy(k3, np.array([0, 1, 2])) == 1.0
        assert accuracy(k3, np.array([0, 0, 0])) == 0.0
        # one monochromatic edge out of three: edge scan gives 2/3 satisfied
        assert accuracy(k3, np.array([0, 0, 1])) == pytest.approx(2 / 3)

    def test_edgeless_is_perfect(self, edgeless4):
        assert accuracy(edgeless4, np.array([0, 0, 0, 0])) == 1.0
        assert accuracy(edgeless4, np.zeros((2, 4), dtype=int)).tolist() == [1.0, 1.0]

    @settings(max_examples=60)
    @given(data=st.data())
    def test_relates_to_delta_energy(self, data):
        graph = data.draw(graphs())
        coloring = data.draw(colorings(graph))
        if graph.num_edges:
            expect = 1.0 - delta_energy(graph, coloring) / graph.num_edges
            assert accuracy(graph, coloring) == pytest.approx(expect)


class TestLyapunov:
    def test_reduces_to_vector_energy(self, k3):
        state = np.array([0.3, 1.1, 4.0])
        assert lyapunov(k3, state, 1.7, 0.0, 3) == pytest.approx(1.7 * vector_energy(k3, state))

    def test_isolated_vertex_well(self):
        graph = Graph(1, np.empty((0, 2), dtype=int))
        assert lyapunov(graph, np.array([0.0]), 1.0, 0.9, 3) == pytest.approx(-0.3)

    def test_k3_lattice(self, k3):
        state = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        assert lyapunov(k3, state, 1.0, 0.6, 3) == pytest.approx(-2.1)

    def test_fortran_ordered_block_rows_have_their_lone_bits(self):
        # a block built column by column (as integrate_block stores one)
        # still sums and scores each row with the bits of the row alone
        graph = load_benchmark("flat_200_479-1")
        block = np.asfortranarray(np.random.default_rng(3).random((6, graph.num_vertices)) * TWO_PI)
        lyap = lyapunov(graph, block, 1.0, 2.0, 3)
        energy = vector_energy(graph, block)
        spins = quantize(block, 3)
        acc, conflicts = accuracy(graph, spins), delta_energy(graph, spins)
        for r, row in enumerate(block):
            assert lyap[r] == lyapunov(graph, row, 1.0, 2.0, 3)
            assert energy[r] == vector_energy(graph, row)
            lone = quantize(row, 3)
            assert np.array_equal(spins[r], lone)
            assert type(accuracy(graph, lone)) is type(delta_energy(graph, lone)) is float
            assert acc[r].tobytes() == np.float64(accuracy(graph, lone)).tobytes()
            assert conflicts[r].tobytes() == np.float64(delta_energy(graph, lone)).tobytes()

    def test_list_is_read_as_an_array(self, k3):
        # n_phases * a list would repeat the list, not scale its phases
        phases = [0.2, 1.4, 3.3]
        assert lyapunov(k3, phases, 1.0, 1.5, 3) == lyapunov(k3, np.array(phases), 1.0, 1.5, 3)

    def test_negative_gain_rejected(self, k3):
        state = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            lyapunov(k3, state, -1.0, 0.0, 3)
        with pytest.raises(ValueError):
            lyapunov(k3, state, 1.0, -0.5, 3)


class TestInvariants:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_affine_equivalence_three_phases(self, data):
        graph = data.draw(graphs(max_vertices=10))
        coloring = data.draw(colorings(graph, num_phases=3))
        vec = vector_energy(graph, lattice_phases(coloring, 3))
        expect = 1.5 * delta_energy(graph, coloring) - 0.5 * graph.num_edges
        assert vec == pytest.approx(expect, abs=1e-9)

    @settings(max_examples=40)
    @given(data=st.data(), rotation=st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_vector_energy_rotation_invariant(self, data, rotation):
        graph = data.draw(graphs(max_vertices=6))
        state = data.draw(phase_states_for(graph))
        rotated = np.mod(state + rotation, TWO_PI)
        assert vector_energy(graph, rotated) == pytest.approx(vector_energy(graph, state), abs=1e-9)

    def test_lyapunov_symmetry_only_under_lattice_rotation(self, k3):
        state = np.array([0.2, 1.4, 3.3])
        base = lyapunov(k3, state, 1.0, 1.5, 3)
        for k in range(1, 3):
            rotated = np.mod(state + 2 * np.pi * k / 3, TWO_PI)
            assert lyapunov(k3, rotated, 1.0, 1.5, 3) == pytest.approx(base, abs=1e-9)
        generic = lyapunov(k3, np.mod(state + 0.7, TWO_PI), 1.0, 1.5, 3)
        assert abs(generic - base) > 1e-3

    def test_lattice_minimum_is_proper_colorings(self):
        # for a 3-colorable graph the lattice minimum of the vector energy is
        # -0.5*|E|, attained exactly at the proper colorings
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        best = None
        minimizers = []
        for spins in itertools.product(range(3), repeat=5):
            coloring = np.array(spins)
            e = vector_energy(graph, lattice_phases(coloring, 3))
            if best is None or e < best - 1e-9:
                best, minimizers = e, [coloring]
            elif abs(e - best) <= 1e-9:
                minimizers.append(coloring)
        assert best == pytest.approx(-0.5 * graph.num_edges)
        assert all(accuracy(graph, c) == 1.0 for c in minimizers)


def phase_states_for(graph):
    from strategies import phase_states

    return phase_states(graph.num_vertices)


class TestLatticeDeviation:
    def test_zero_at_lattice(self):
        state = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        assert np.allclose(lattice_deviation(state, 3), 0.0, atol=1e-12)

    def test_matches_bruteforce_distance(self):
        rng = np.random.default_rng(5)
        phases = rng.random(50) * 2 * np.pi
        dev = lattice_deviation(phases, 3)
        lattice = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        for i, theta in enumerate(phases):
            dists = np.abs(np.angle(np.exp(1j * (theta - lattice))))
            assert dev[i] == pytest.approx(dists.min(), abs=1e-12)

    def test_max_is_half_sector(self):
        # farthest you can be from the 3-phase lattice is pi/3
        state = np.array([np.pi / 3])
        assert lattice_deviation(state, 3)[0] == pytest.approx(np.pi / 3)


    def test_rotating_lattice_takes_one_offset_per_row(self):
        # row r sits on the lattice rotated by offsets[r], as a sweep row at delta * t does
        spins = np.random.default_rng(7).integers(0, 3, size=(4, 10))
        offsets = np.array([[0.0], [0.7], [-2.5], [40.0]])
        phases = np.mod((TWO_PI * spins + offsets) / 3, TWO_PI)
        assert lattice_deviation(phases, 3, offsets).max() <= 1e-12
        # read against the fixed lattice, the 0.7 row is off by 0.7 / N everywhere
        assert lattice_deviation(phases[1], 3) == pytest.approx(np.full(10, 0.7 / 3), abs=1e-12)
        column = np.full((4, 1), 0.7)
        assert lattice_deviation(phases, 3, 0.7).tobytes() == lattice_deviation(
            phases, 3, column).tobytes()

# np.mod's edge cases at and beyond the ends of the wrap's fast range
WRAP_EDGES = [
    0.0, 1e-300, -1e-300, -1e-17, 3.0, np.nextafter(TWO_PI, 0.0), TWO_PI,
    np.nextafter(TWO_PI, np.inf), np.nextafter(2 * TWO_PI, 0.0), 2 * TWO_PI, 100.0,
    -TWO_PI, np.nextafter(-TWO_PI, 0.0), np.nextafter(-TWO_PI, -np.inf), -100.0,
]


def wrapped(x) -> np.ndarray:
    theta = np.array(x, dtype=np.float64)
    assert wrap_phases(theta)
    return theta


class TestWrapPhases:
    @pytest.mark.parametrize("x", WRAP_EDGES)
    def test_edge_values_match_np_mod(self, x):
        # alone, and beside a phase that keeps the block in the fast range
        for block in ([x], [x, 1.0]):
            assert wrapped(block).tobytes() == np.mod(np.array(block), TWO_PI).tobytes()

    # -0.0 is left out: np.mod maps it to +0.0 and the fast path keeps it,
    # but no phase of a run is -0.0 (see wrap_phases)
    @given(st.lists(st.floats(-TWO_PI, 2 * TWO_PI, exclude_max=True)
                    .filter(lambda x: not (x == 0.0 and np.signbit(x))), min_size=1, max_size=60))
    def test_fast_range_matches_np_mod(self, xs):
        assert wrapped(xs).tobytes() == np.mod(np.array(xs), TWO_PI).tobytes()

    def test_keeps_negative_zero(self):
        assert np.signbit(wrapped([-0.0, 1.0])[0])

    @given(st.lists(st.floats(-4 * TWO_PI, 4 * TWO_PI), min_size=1, max_size=60))
    def test_after_adding_zero_is_np_mod(self, xs):
        # + 0.0 maps -0.0 to +0.0 first (as integrate_block does to its
        # inits), after which the wrap has np.mod's bits everywhere
        assert wrapped(np.add(xs, 0.0)).tobytes() == np.mod(np.array(xs), TWO_PI).tobytes()
        block = np.array([xs, xs[::-1]])
        assert wrapped(block + 0.0).tobytes() == np.mod(block, TWO_PI).tobytes()

    def test_range_is_closed_at_two_pi(self):
        # a phase in (-4.4e-16, 0) wraps to exactly 2*pi, as np.mod gives it,
        # so the phases lie in [0, 2*pi]; 2*pi rounds to spin 0, as 0.0 does
        theta = wrapped([-1e-17, 1.0])
        assert theta[0] == TWO_PI == 6.283185307179586
        assert theta.tobytes() == np.mod(np.array([-1e-17, 1.0]), TWO_PI).tobytes()
        for n_phases in range(2, 6):
            assert quantize(theta, n_phases)[0] == quantize(np.array([0.0]), n_phases)[0] == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_reported(self, bad):
        assert not wrap_phases(np.array([1.0, bad, 2 * TWO_PI]))
