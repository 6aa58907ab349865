import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from torusflow import FlowFunction, FlowNetworkProblem, PowerCase, WeightedGraph


def ring_graph(n, weights=None):
    return WeightedGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], weights)


def triangle():
    return WeightedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


def square_with_diagonal():
    return WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])


def complete_graph(n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return WeightedGraph.from_edges(n, edges)


def grid_2x3():
    # two rows of three nodes: 0-1-2 over 3-4-5
    return WeightedGraph.from_edges(
        6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    )


def random_connected_graph(rng, n, extra_edges=None):
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    existing = {(min(a, b), max(a, b)) for a, b in edges}
    if extra_edges is None:
        extra_edges = int(rng.integers(1, n))
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 200:
        attempts += 1
        a, b = sorted(rng.integers(0, n, size=2).tolist())
        if a == b or (a, b) in existing:
            continue
        existing.add((a, b))
        edges.append((a, b))
    weights = rng.uniform(0.5, 2.0, size=len(edges))
    return WeightedGraph.from_edges(n, edges, weights)


def bridged_blocks():
    """Three blocks: a pentagon 0..4, a bridge (4, 5), an 8-ring 5..12 with
    the chord (5, 9), which makes two 5-cycles, and a hexagon 12..17 on the
    cut vertex 12.  k = 4, in blocks of 1, 2 and 1 cycles; at gamma = 1.4
    every cycle has windings -1, 0 and 1."""
    rings = [(0, 1, 2, 3, 4), tuple(range(5, 13)), (12, 13, 14, 15, 16, 17)]
    edges = [(r[i], r[(i + 1) % len(r)]) for r in rings for i in range(len(r))]
    return WeightedGraph.from_edges(18, edges + [(4, 5), (5, 9)])


def sin_problem(graph, p, gamma):
    return FlowNetworkProblem.single_family(graph, FlowFunction.sin_family(), p, gamma)


def balanced_vector(rng, n, scale=0.3):
    p = rng.normal(size=n)
    return scale * (p - p.mean())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def splay_state(n):
    return np.array([2 * np.pi * k / n for k in range(n)])


def lattice_with_detours(side=9):
    """A side x side unit lattice plus two 7-edge detours, 0 -> 2 and
    1 -> 3 along the top row: k = (side - 1)^2 + 2.  The detours close
    9-cycles, free at gamma = 1.4, that share the lattice edge (1, 2)."""
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    n = side * side
    for a, b in ((0, 2), (1, 3)):
        path = [a] + list(range(n, n + 6)) + [b]
        n += 6
        edges += list(zip(path, path[1:]))
    return WeightedGraph.from_edges(n, edges)


def chorded_hexagon_case():
    """Six unit buses on a hexagon with the chords (2, 5) and (0, 4), one
    unit from bus 0 to bus 3.  Against the explicit basis of
    CHORDED_HEXAGON_CYCLES its off-tree block has determinant -2, so some of
    that basis's winding cells have no integer cycle shift."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 5), (0, 4)]
    p = (1.0, 0.0, 0.0, -1.0, 0.0, 0.0)
    return PowerCase(buses=tuple((1.0, x) for x in p), branches=tuple((i, j, 1.0) for i, j in edges))


CHORDED_HEXAGON_CYCLES = [[0, 1, 2, 3, 4, 5], [0, 1, 2, 5, 4], [0, 5, 2, 3, 4]]


def random_tree_case(seed, reverse=False):
    """A seeded radial case of 8-40 buses: each bus hangs from a random
    earlier one by a randomly oriented branch, with random voltages,
    susceptances and a balanced profile; with reverse, every branch is
    turned around."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 41))
    branches = []
    for j in range(1, n):
        i = int(rng.integers(0, j))
        b = float(rng.uniform(1.0, 5.0))
        branches.append((j, i, b) if rng.random() < 0.5 else (i, j, b))
    if reverse:
        branches = [(j, i, b) for i, j, b in branches]
    p = rng.normal(size=n)
    p -= p.mean()
    volts = rng.uniform(0.95, 1.05, size=n)
    return PowerCase(buses=tuple(zip(volts.tolist(), p.tolist())), branches=tuple(branches))
