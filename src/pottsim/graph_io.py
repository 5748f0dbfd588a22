"""DIMACS .col graph parsing/writing and planted K-colorable instance generation.

Every edge is one unit repulsive coupling: a .col edge line carries no weight.
"""
from __future__ import annotations

import json
import numbers
import operator
import warnings
from dataclasses import dataclass

import numpy as np


class DimacsError(ValueError):
    """Raised when a DIMACS .col stream cannot be parsed."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph, 0-based vertex indices.

    edges is a read-only (m, 2) int64 array with each row stored as (min,
    max); row order is preserved from the source (file order or generation
    order) and fixes the summation order of all energy evaluations.  A
    non-empty edge array must have an integer dtype (not bool); it is checked once, here.
    """

    num_vertices: int
    edges: np.ndarray

    def __post_init__(self):
        n = self.num_vertices
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"num_vertices must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("num_vertices must be positive")
        edges = np.asarray(self.edges)
        # an empty edge array may have any shape and dtype
        if edges.size and edges.dtype.kind not in "iu":
            raise ValueError(f"edges must be integers, got dtype {edges.dtype}")
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise ValueError(f"edges must be an (m, 2) array, got shape {edges.shape}")
        edges = np.sort(edges.astype(np.int64).reshape(-1, 2), axis=1)
        edges.flags.writeable = False
        object.__setattr__(self, "num_vertices", operator.index(n))
        object.__setattr__(self, "edges", edges)
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.num_vertices:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loop")
            # rows sorted by (u, v), so a duplicate sits next to its twin
            # (np.unique's axis=0 path would import numpy.ma)
            ranked = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
            if (ranked[1:] == ranked[:-1]).all(axis=1).any():
                raise ValueError("duplicate edge")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) endpoint arrays for vectorized edge sums."""
        return self.edges[:, 0], self.edges[:, 1]


@dataclass(frozen=True)
class PlantedInstance:
    """Randomly generated graph plus the hidden proper coloring it was built
    around: `planted` holds one spin in {0, ..., k - 1} per vertex."""

    graph: Graph
    planted: np.ndarray
    k: int
    seed: int


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col character stream into a Graph.

    Grammar: ``c`` comment lines, one ``p edge <n> <m>`` header, ``e <u> <v>``
    edge lines with 1-based endpoints.  Duplicate edge lines (either
    orientation) are dropped with a warning; a header edge count that
    disagrees with the deduplicated count is also only a warning.  Malformed
    headers, out-of-range endpoints, self-loops and non-integer tokens raise
    DimacsError naming the offending line.
    """
    num_vertices = None
    declared_edges = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    duplicates = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "p":
            if num_vertices is not None:
                raise DimacsError(f"line {lineno}: second problem line")
            if len(tokens) < 4 or tokens[1] not in ("edge", "edges", "col"):
                raise DimacsError(f"line {lineno}: malformed problem line {line!r}")
            try:
                num_vertices = int(tokens[2])
                declared_edges = int(tokens[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer token in problem line") from None
            if num_vertices < 1:
                raise DimacsError(f"line {lineno}: vertex count must be positive")
        elif kind == "e":
            if num_vertices is None:
                raise DimacsError(f"line {lineno}: edge before problem line")
            if len(tokens) != 3:
                raise DimacsError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer vertex index") from None
            if not (1 <= u <= num_vertices) or not (1 <= v <= num_vertices):
                raise DimacsError(f"line {lineno}: vertex index out of range 1..{num_vertices}")
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop on vertex {u}")
            edge = (min(u, v) - 1, max(u, v) - 1)
            if edge in seen:
                duplicates += 1
                continue
            seen.add(edge)
            edges.append(edge)
        # other line kinds (node descriptors etc.) are ignored

    if num_vertices is None:
        raise DimacsError("missing problem line 'p edge <n> <m>'")
    if duplicates:
        warnings.warn(f"dropped {duplicates} duplicate edge line(s)", stacklevel=2)
    if declared_edges is not None and declared_edges != len(edges):
        warnings.warn(
            f"header declares {declared_edges} edges, found {len(edges)} after dedup",
            stacklevel=2,
        )
    return Graph(num_vertices, np.array(edges, dtype=np.int64).reshape(-1, 2))


def write_dimacs(graph: Graph) -> str:
    """Serialize a Graph as DIMACS .col text (1-based endpoints)."""
    out = [f"p edge {graph.num_vertices} {graph.num_edges}"]
    for u, v in graph.edges:
        out.append(f"e {u + 1} {v + 1}")
    return "\n".join(out) + "\n"


def gen_planted(n: int, m: int, k: int, seed: int) -> PlantedInstance:
    """Generate a random K-colorable graph around a hidden proper coloring.

    Every vertex draws a uniform random color, then m distinct edges are
    sampled uniformly without replacement from the pairs of differently
    colored vertices (rejection sampling; direct enumeration of the
    bichromatic pair set when m asks for more than half of it).
    Deterministic for fixed (n, m, k, seed).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError("need n >= k")
    if m < 0:
        raise ValueError("m must be non-negative")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    colors = rng.integers(0, k, size=n)
    counts = np.bincount(colors, minlength=k)
    bichromatic = n * (n - 1) // 2 - int(np.sum(counts * (counts - 1) // 2))
    if m > bichromatic:
        raise ValueError(
            f"m={m} exceeds the {bichromatic} bichromatic pairs of the planted coloring"
        )

    if m > bichromatic // 2:
        # dense request: enumerate eligible pairs once and sample indices
        iu, iv = np.triu_indices(n, k=1)
        mask = colors[iu] != colors[iv]
        pool = np.stack([iu[mask], iv[mask]], axis=1)
        idx = rng.choice(len(pool), size=m, replace=False)
        chosen = {(int(u), int(v)) for u, v in pool[np.sort(idx)]}
    else:
        chosen = set()
        while len(chosen) < m:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v or colors[u] == colors[v]:
                continue
            chosen.add((min(u, v), max(u, v)))

    edges = np.array(sorted(chosen), dtype=np.int64).reshape(-1, 2)
    graph = Graph(n, edges)
    return PlantedInstance(graph, colors, k, seed)


def planted_sidecar(instance: PlantedInstance) -> str:
    """JSON record that makes a generated instance reproducible."""
    return json.dumps(
        {
            "n": instance.graph.num_vertices,
            "m": instance.graph.num_edges,
            "k": instance.k,
            "seed": instance.seed,
            "planted": instance.planted.tolist(),
        }
    )
