from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from pottsim import gen_planted, parse_dimacs
from pottsim.graph_io import Graph

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark(name: str) -> Graph:
    return parse_dimacs((BENCH_DIR / f"{name}.col").read_text())


def random_colorable_graph(n: int, m: int, seed: int, k: int = 3) -> Graph:
    # small n can draw a planted coloring with too few bichromatic pairs;
    # walk the seed forward until the request is feasible
    for s in range(seed, seed + 1000):
        try:
            return gen_planted(n, m, k, s).graph
        except ValueError:
            continue
    raise ValueError(f"no feasible ({n}, {m}) instance near seed {seed}")


@pytest.fixture
def k3() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def k4() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def single_edge() -> Graph:
    return Graph(2, [(0, 1)])


@pytest.fixture
def path3() -> Graph:
    return Graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def edgeless4() -> Graph:
    return Graph(4, np.empty((0, 2), dtype=np.int64))
