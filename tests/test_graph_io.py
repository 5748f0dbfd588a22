from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from pottsim import gen_planted, parse_dimacs, planted_sidecar, write_dimacs
from pottsim.graph_io import DimacsError, Graph
from pottsim.potts import accuracy

from conftest import BENCH_DIR
from helpers import edge_set
from strategies import graphs

# numpy.ma costs every command about 18 ms of import time; nothing a parse
# and a solve reach should import it
NO_NUMPY_MA = """
import sys
import pottsim.cli
from pottsim import parse_dimacs
parse_dimacs(open(sys.argv[1]).read())
assert pottsim.cli.main(["solve", sys.argv[1], "--iters", "1", "--out", sys.argv[2]]) == 0
print("numpy.ma" in sys.modules)
"""


class TestParse:
    def test_triangle(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3")
        assert g.num_vertices == 3
        assert edge_set(g) == {(0, 1), (1, 2), (0, 2)}

    def test_comments_skipped(self):
        g = parse_dimacs("c hi\np edge 2 1\ne 1 2")
        assert (g.num_vertices, g.num_edges) == (2, 1)

    def test_benchmark_file_sizes(self):
        g = parse_dimacs((BENCH_DIR / "flat_30_60-1.col").read_text())
        assert (g.num_vertices, g.num_edges) == (30, 60)

    def test_out_of_range_index(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p edge 3 1\ne 5 1")

    def test_zero_index(self):
        with pytest.raises(DimacsError, match="out of range"):
            parse_dimacs("p edge 3 1\ne 0 1")

    def test_self_loop(self):
        with pytest.raises(DimacsError, match="self-loop"):
            parse_dimacs("p edge 3 1\ne 2 2")

    def test_non_integer_token(self):
        with pytest.raises(DimacsError, match="non-integer"):
            parse_dimacs("p edge 3 1\ne a 1")

    def test_missing_problem_line(self):
        with pytest.raises(DimacsError, match="problem line"):
            parse_dimacs("e 1 2")
        with pytest.raises(DimacsError, match="missing"):
            parse_dimacs("c nothing here")

    def test_malformed_problem_line(self):
        with pytest.raises(DimacsError, match="line 1"):
            parse_dimacs("p edge\ne 1 2")
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p edge 2 1\np edge 2 1")

    def test_second_problem_line(self):
        with pytest.raises(DimacsError, match="line 3: second problem line"):
            parse_dimacs("p edge 2 1\ne 1 2\np edge 2 1\n")

    def test_duplicate_edges_warn(self):
        text = "p edge 3 2\ne 1 2\ne 2 1\ne 2 3\ne 2 3"
        with pytest.warns(UserWarning, match="2 duplicate"):
            g = parse_dimacs(text)
        assert g.num_edges == 2

    def test_header_count_mismatch_warns(self):
        with pytest.warns(UserWarning, match="declares 5"):
            g = parse_dimacs("p edge 3 5\ne 1 2")
        assert g.num_edges == 1


class TestGraphValidation:
    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="duplicate"):
            Graph(4, [(2, 3), (0, 1), (1, 2), (3, 2)])

    def test_duplicate_check_leaves_numpy_ma_unimported(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", NO_NUMPY_MA, str(BENCH_DIR / "flat_30_60-1.col"),
             str(tmp_path / "report.json")],
            env={**os.environ, "PYTHONPATH": str(BENCH_DIR.parent / "src")},
            capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["False"]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_edge_rows_normalized(self):
        g = Graph(4, [(3, 1), (2, 0)])
        assert g.edges.tolist() == [[1, 3], [0, 2]]

    @pytest.mark.parametrize("num_vertices, edges, shape", [
        (4, [[0, 1, 2, 3]], "(1, 4)"),
        (3, [[0, 1, 2], [0, 2, 1]], "(2, 3)"),
        (3, [0, 1, 1, 2], "(4,)"),
    ])
    def test_rejects_edges_not_m_by_2(self, num_vertices, edges, shape):
        message = f"edges must be an (m, 2) array, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph(num_vertices, edges)

    def test_empty_edges_keep_any_shape(self):
        assert Graph(1, []).edges.shape == Graph(2, np.zeros((0, 3))).edges.shape == (0, 2)

    @pytest.mark.parametrize("num_vertices", [3.5, np.float64(3.0), True, "3"],
                             ids=["float", "numpy-float", "bool", "str"])
    def test_rejects_non_integer_vertex_count(self, num_vertices):
        message = f"num_vertices must be an integer, got {num_vertices!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph(num_vertices, [(0, 1)])

    def test_vertex_count_stored_as_int(self):
        g = Graph(np.int64(3), [(0, 1)])
        assert type(g.num_vertices) is int and g.num_vertices == 3


class TestWrite:
    def test_triangle_text(self, k3):
        text = write_dimacs(k3)
        assert text.startswith("p edge 3 3\n")
        assert text.count("\ne ") == 3

    def test_edgeless(self, edgeless4):
        assert write_dimacs(edgeless4) == "p edge 4 0\n"

    def test_benchmark_round_trip(self):
        g1 = parse_dimacs((BENCH_DIR / "flat_50_115-1.col").read_text())
        g2 = parse_dimacs(write_dimacs(g1))
        assert g2.num_vertices == g1.num_vertices
        assert edge_set(g2) == edge_set(g1)

    def test_round_trip_every_benchmark_file(self):
        for path in sorted(BENCH_DIR.glob("*.col")):
            g1 = parse_dimacs(path.read_text())
            g2 = parse_dimacs(write_dimacs(g1))
            assert g2.num_vertices == g1.num_vertices, path.name
            assert edge_set(g2) == edge_set(g1), path.name

    @settings(max_examples=60)
    @given(graph=graphs())
    def test_round_trip_property(self, graph):
        back = parse_dimacs(write_dimacs(graph))
        assert back.num_vertices == graph.num_vertices
        assert edge_set(back) == edge_set(graph)


class TestGenPlanted:
    def test_deterministic(self):
        a = gen_planted(40, 80, 3, seed=9)
        b = gen_planted(40, 80, 3, seed=9)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        assert np.array_equal(a.planted, b.planted)

    def test_different_seed_differs(self):
        a = gen_planted(40, 80, 3, seed=9)
        b = gen_planted(40, 80, 3, seed=10)
        assert not np.array_equal(a.graph.edges, b.graph.edges)

    def test_planted_is_proper(self):
        inst = gen_planted(1000, 2682, 3, seed=4)
        assert accuracy(inst.graph, inst.planted) == 1.0

    def test_tiny_path(self):
        inst = gen_planted(3, 2, 3, seed=0)
        assert inst.graph.num_edges == 2
        assert accuracy(inst.graph, inst.planted) == 1.0

    def test_midsize_is_three_colorable(self):
        # the planted coloring is the certificate: proper, with 3 colors
        inst = gen_planted(50, 115, 3, seed=21)
        assert inst.k == 3 and set(inst.planted.tolist()) <= {0, 1, 2}
        assert accuracy(inst.graph, inst.planted) == 1.0

    def test_infeasible_edge_count(self):
        # 4 vertices, 2 colors: at most 4 bichromatic pairs exist
        with pytest.raises(ValueError, match="bichromatic"):
            gen_planted(4, 7, 2, seed=1)

    def test_dense_request_uses_pair_enumeration(self):
        # seed 3 plants classes of sizes (6, 1, 3): 27 bichromatic pairs, so
        # asking for 25 goes through the pair-enumeration branch
        a = gen_planted(10, 25, 3, seed=3)
        b = gen_planted(10, 25, 3, seed=3)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        assert accuracy(a.graph, a.planted) == 1.0

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            gen_planted(5, 4, 1, seed=0)
        with pytest.raises(ValueError):
            gen_planted(2, 1, 3, seed=0)

    def test_sidecar_fields(self):
        inst = gen_planted(12, 20, 3, seed=77)
        doc = json.loads(planted_sidecar(inst))
        assert doc["n"] == 12 and doc["m"] == 20 and doc["k"] == 3 and doc["seed"] == 77
        assert doc["planted"] == inst.planted.tolist()
