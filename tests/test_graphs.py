import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    bridged_blocks,
    complete_graph,
    grid_2x3,
    random_connected_graph,
    ring_graph,
    square_with_diagonal,
    triangle,
)
from torusflow import (
    AcyclicGraphError,
    BasisKindError,
    Cycle,
    CycleBasis,
    InputError,
    NonIntegerWindingError,
    RankError,
    SingularityError,
    WeightedGraph,
    WeightError,
    cycle_edge_pinv,
    cycle_projection,
    explicit_cycle_basis,
    fundamental_cycle_basis,
    integer_cycle_shift,
    integer_shift_solve,
    minimum_cycle_basis,
    spanning_tree,
)
import torusflow.graphs as graphs_module
from torusflow.graphs import _tree_path_nodes, _wire_int, deflated_pinv


def _lattice(side, cols=None):
    """Unit side x cols square lattice (cols defaults to side), edges in the
    bench's order."""
    cols = side if cols is None else cols
    edges = []
    for r in range(side):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + cols))
    return WeightedGraph.from_edges(side * cols, edges)


def _seeded_graph(seed):
    rng = np.random.default_rng(seed)
    return random_connected_graph(rng, 5 + seed % 10, extra_edges=2 + seed % 9)


# Minimum-basis fingerprints of _seeded_graph(0..23), recorded with the
# earlier path-intersection implementation of Horton's candidates.
SEEDED_FINGERPRINTS = (
    "db42ee8360355f1e", "a6b19664c18d8832", "7995e1bb411775fb", "1d65c096e11bed20",
    "497c4912454e77a2", "19b256f8fdc80548", "bf98c84d98fb3037", "99000b818bd3119c",
    "d5c4bd2ee2f7cc88", "c9ee169b3db3c2db", "daae3c3768fa167e", "4bcb33defbaae39c",
    "7b84448a6e95840b", "dd297cb39129fea1", "26e51ed7c710c941", "f43457b97430b492",
    "b88410e730815622", "8522ca695b749a12", "80f98160f2f9d5e3", "47428fd62cf9b912",
    "fdc2ccd4eebcd918", "83d7e4e8910d9787", "608f7159f522833b", "3609f38cd32a2ab5",
)


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            WeightedGraph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_undirected_edge(self):
        with pytest.raises(InputError):
            WeightedGraph.from_edges(3, [(0, 1), (1, 0), (1, 2)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(WeightError):
            WeightedGraph.from_edges(2, [(0, 1)], [0.0])

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    def test_rejects_non_finite_weight(self, w):
        with pytest.raises(WeightError, match="finite"):
            WeightedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], [1.0, w, 1.0])

    def test_rejects_disconnected(self):
        with pytest.raises(SingularityError):
            WeightedGraph.from_edges(4, [(0, 1), (2, 3)])

    def test_a_disconnected_size_is_refused_before_anything_is_sized_by_it(self):
        # n > m + 1 nodes cannot be connected: the spanning tree's n-entry
        # union-find and the n-key adjacency are never built.
        tracemalloc.start()
        try:
            with pytest.raises(SingularityError, match="not connected"):
                WeightedGraph.from_dict({"n": 2e6, "edges": [[0, 1]]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    @pytest.mark.parametrize(
        "n, edges", [(3.9, [(0, 1), (1, 2), (2, 0)]), (3, [(0, 1.7), (1, 2), (2, 0)]), (3, [(0, True), (1, 2), (2, 0)])],
        ids=["fractional-n", "fractional-endpoint", "bool-endpoint"],
    )
    def test_constructors_read_node_ids_strictly(self, n, edges):
        # int() would build n = 3 and the edge (0, 1).
        with pytest.raises(InputError, match="is not an int64 integer"):
            WeightedGraph.from_edges(n, edges)
        with pytest.raises(InputError, match="is not an int64 integer"):
            WeightedGraph(n=n, edges=tuple(edges), weights=(1.0, 1.0, 1.0))

    def test_numpy_node_ids_are_read_as_ints(self):
        g = WeightedGraph.from_edges(np.int64(3), [(np.int64(0), np.int64(1)), (1, np.int32(2)), (2.0, 0)])
        assert g == WeightedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert type(g.n) is int and all(type(i) is int for edge in g.edges for i in edge)

    def test_json_round_trip(self):
        g = square_with_diagonal()
        assert WeightedGraph.from_dict(g.to_dict()) == g

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3.9, "edges": [[0, 1], [1, 2], [2, 0]]},
            {"n": 3, "edges": [[0, 1.7], [1, 2], [2, 0]]},
            {"n": True, "edges": []},
            {"n": 3, "edges": [[0, 1], [1, 2], [2, "0"]]},
        ],
        ids=["fractional-n", "fractional-endpoint", "bool-n", "string-endpoint"],
    )
    def test_from_dict_reads_integers_strictly(self, doc):
        # int() would read n = 3.9 as 3 and the endpoint 1.7 as 1.
        with pytest.raises(InputError, match="bad graph document: .* is not an int64 integer"):
            WeightedGraph.from_dict(doc)


@pytest.mark.parametrize("value", [3, 3.0, -2.0, np.int64(3), np.float64(7.0), 2**63 - 1, -(2**63)])
def test_wire_int_takes_integral_numbers(value):
    assert _wire_int(value) == int(value) and type(_wire_int(value)) is int


@pytest.mark.parametrize(
    "value", [0.7, 1.7, math.inf, -math.inf, math.nan, 1e30, 2**63, -(2**63) - 1, True, np.bool_(False), "3", None, [1]]
)
def test_wire_int_rejects_what_int_would_truncate_overflow_or_take(value):
    with pytest.raises(InputError, match="is not an int64 integer"):
        _wire_int(value)


class TestIncidence:
    def test_triangle_columns(self):
        B = triangle().incidence
        expected = np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1]], dtype=float)
        assert np.array_equal(B, expected)

    def test_columns_sum_to_zero(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            assert np.allclose(g.incidence.T @ np.ones(g.n), 0.0)

    def test_path_differences(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (1, 2)])
        x = np.array([0.0, 1.0, 3.0])
        assert np.allclose(g.incidence.T @ x, [-1.0, -2.0])

    def test_edge_index_operators_match_dense_incidence(self, rng):
        single = WeightedGraph.from_edges(1, [])
        assert single.differences([0.5]).shape == (0,)
        assert np.array_equal(single.divergence(np.zeros(0)), [0.0])
        for n in (2, 5, 9, 14):
            g = random_connected_graph(rng, n)
            x = rng.normal(size=g.n)
            f = rng.normal(size=g.m)
            assert np.max(np.abs(g.differences(x) - g.incidence.T @ x), initial=0.0) <= 1e-12
            assert np.max(np.abs(g.divergence(f) - g.incidence @ f)) <= 1e-12

    def test_edge_index_operators_work_row_wise(self, rng):
        # A (B, .) stack gives, row by row, the bits of the one-row call.
        single = WeightedGraph.from_edges(1, [])
        assert single.divergence(np.zeros((3, 0))).shape == (3, 1)
        assert single.tree_phases(np.zeros((3, 0))).shape == (3, 1)
        for n in (2, 5, 9, 14):
            g = random_connected_graph(rng, n)
            X = rng.normal(size=(4, g.n))
            F = rng.normal(size=(4, g.m))
            D = rng.normal(size=(4, g.m))
            for op, rows in ((g.differences, X), (g.divergence, F), (g.tree_phases, D)):
                assert np.array_equal(op(rows), np.array([op(row) for row in rows]))
            assert g.divergence(F[:0]).shape == (0, g.n)


class TestLaplacianPinv:
    """`deflated_pinv` on Laplacians built here from the edge list."""

    def test_unit_triangle_closed_form(self):
        # Independent oracle: eigendecomposition-based pseudoinverse.
        L = oracles.laplacian(triangle())
        expected = (3 * np.eye(3) - np.ones((3, 3))) / 9.0
        assert np.allclose(deflated_pinv(L), expected, atol=1e-12)
        assert np.allclose(np.linalg.pinv(L), expected, atol=1e-12)

    def test_k2_weight_two(self):
        L = oracles.laplacian(WeightedGraph.from_edges(2, [(0, 1)], [2.0]))
        expected = np.array([[1, -1], [-1, 1]]) / 8.0
        assert np.allclose(deflated_pinv(L), expected, atol=1e-12)

    def test_penrose_conditions(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(3, 10)))
            L = oracles.laplacian(g)
            Lp = deflated_pinv(L)
            assert np.allclose(L @ Lp @ L, L, atol=1e-9)
            assert np.allclose(Lp @ L @ Lp, Lp, atol=1e-9)
            assert np.allclose(L @ Lp, (L @ Lp).T, atol=1e-9)
            assert np.allclose(Lp @ L, (Lp @ L).T, atol=1e-9)
            assert np.allclose(Lp @ np.ones(g.n), 0.0, atol=1e-9)

    def test_range_is_orthogonal_complement(self, rng):
        g = random_connected_graph(rng, 7)
        p = rng.normal(size=7)
        p -= p.mean()
        assert abs(np.sum(deflated_pinv(oracles.laplacian(g)) @ p)) < 1e-10


class TestSpanningTree:
    def test_triangle_takes_first_two_edges(self):
        assert spanning_tree(triangle()) == (0, 1)

    def test_tree_returns_all_edges(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        assert spanning_tree(g) == (0, 1, 2)

    def test_ring_omits_last_edge(self):
        assert spanning_tree(ring_graph(5)) == (0, 1, 2, 3)

    def test_deterministic(self, rng):
        g = random_connected_graph(rng, 9)
        assert spanning_tree(g) == spanning_tree(g)

    def test_tree_pinned(self):
        # (parent, parent edge, BFS order); edge (3, 4) is off the lattice tree
        assert _lattice(3).tree == (
            [-1, 0, 1, 0, 1, 2, 3, 4, 5],
            [-1, 0, 2, 1, 3, 4, 6, 8, 9],
            [0, 1, 3, 2, 4, 6, 5, 7, 8],
        )
        assert _seeded_graph(7).tree == (
            [-1, 0, 1, 1, 2, 4, 3, 5, 6, 2, 0, 3],
            [-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            [0, 1, 10, 2, 3, 4, 9, 6, 11, 5, 8, 7],
        )
        assert _seeded_graph(16).tree == (
            [-1, 0, 1, 1, 3, 2, 4, 0, 4, 3, 0],
            [-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            [0, 1, 7, 10, 2, 3, 5, 4, 9, 6, 8],
        )

    def test_tree_flow_and_phases(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(1, 10)))
            tree = list(spanning_tree(g))
            off_tree = [e for e in range(g.m) if e not in tree]
            p = rng.normal(size=g.n)
            p -= p.mean()
            f = g.tree_flow(p)
            assert np.max(np.abs(g.incidence @ f - p)) < 1e-12
            assert not np.any(f[off_tree])
            delta = rng.normal(size=g.m)
            theta = g.tree_phases(delta)
            assert theta[0] == 0.0
            assert np.allclose((g.incidence.T @ theta)[tree], delta[tree], atol=1e-12)


def _basis_invariants(basis: CycleBasis):
    g = basis.graph
    B = g.incidence.astype(np.int64)
    assert basis.size == g.cycle_space_dim
    for c in basis.cycles:
        assert np.all(B @ c.vector == 0)
        # nonzero entries match consecutive node pairs
        closed = list(c.nodes) + [c.nodes[0]]
        pairs = {frozenset(p) for p in zip(closed, closed[1:])}
        support = {frozenset(g.edges[e]) for e in np.nonzero(c.vector)[0]}
        assert pairs == support
    C = basis.matrix
    assert np.linalg.matrix_rank(C) == basis.size
    assert np.allclose(C @ oracles.right_inverse(C), np.eye(basis.size), atol=1e-10)
    assert np.max(np.abs(C @ g.incidence.T)) < 1e-10


class TestFundamentalBasis:
    def test_triangle(self):
        basis = fundamental_cycle_basis(triangle())
        assert basis.size == 1
        assert basis.off_tree[0] == (2,)
        assert np.array_equal(basis.cycles[0].vector, [-1, -1, -1])
        _basis_invariants(basis)

    def test_ring_single_cycle(self):
        for n in (5, 8):
            basis = fundamental_cycle_basis(ring_graph(n))
            assert basis.size == 1
            assert basis.cycles[0].length == n
            _basis_invariants(basis)

    def test_k4_triangles_through_root(self):
        basis = fundamental_cycle_basis(complete_graph(4))
        assert basis.size == 3
        for c in basis.cycles:
            assert c.length == 3
            assert 0 in c.nodes
        _basis_invariants(basis)

    def test_square_with_diagonal(self):
        basis = fundamental_cycle_basis(square_with_diagonal())
        assert basis.size == 2
        # each cycle holds its non-tree edge with coefficient -1 and no other
        for c, e in zip(basis.cycles, basis.off_tree[0]):
            assert c.vector[e] == -1
            others = [x for x in basis.off_tree[0] if x != e]
            assert all(c.vector[o] == 0 for o in others)
        _basis_invariants(basis)

    def test_acyclic_raises(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(AcyclicGraphError):
            fundamental_cycle_basis(g)

    def test_cycles_match_node_walks(self, rng):
        # Vectors read off the tree's parent edges equal the adjacency walk of
        # Cycle.from_nodes along the same node path, bit for bit.
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(3, 16)))
            flip = rng.random(g.m) < 0.5
            g = WeightedGraph.from_edges(g.n, [(j, i) if f else (i, j) for (i, j), f in zip(g.edges, flip)], g.weights)
            if g.cycle_space_dim == 0:
                continue
            basis = fundamental_cycle_basis(g)
            parent = g.tree[0]
            walks = tuple(Cycle.from_nodes(g, _tree_path_nodes(parent, *g.edges[e])) for e in basis.off_tree[0])
            for cycle, walk in zip(basis.cycles, walks):
                assert cycle.nodes == walk.nodes
                assert cycle.vector.dtype == walk.vector.dtype and np.array_equal(cycle.vector, walk.vector)
            assert basis.fingerprint == CycleBasis(graph=g, cycles=walks, kind="fundamental").fingerprint


class TestMinimumBasis:
    def test_k4_total_length(self):
        g = complete_graph(4)
        basis = minimum_cycle_basis(g)
        assert sorted(basis.lengths) == [3, 3, 3]
        assert oracles.exhaustive_minimum_basis_length(g.n, g.edges) == 9
        _basis_invariants(basis)

    def test_ring7(self):
        basis = minimum_cycle_basis(ring_graph(7))
        assert basis.lengths == (7,)

    def test_grid_2x3(self):
        g = grid_2x3()
        basis = minimum_cycle_basis(g)
        assert sorted(basis.lengths) == [4, 4]
        assert oracles.exhaustive_minimum_basis_length(g.n, g.edges) == 8
        _basis_invariants(basis)

    def test_square_with_diagonal_matches_paper_triangles(self):
        basis = minimum_cycle_basis(square_with_diagonal())
        supports = {frozenset(c.nodes) for c in basis.cycles}
        assert supports == {frozenset({0, 1, 3}), frozenset({1, 2, 3})}

    @pytest.mark.parametrize(
        "side, fingerprint", [(6, "c16e039b685655f7"), (14, "9961f2f21fbf5919")]
    )
    def test_lattice_fingerprint_pinned(self, side, fingerprint):
        basis = minimum_cycle_basis(_lattice(side))
        assert basis.lengths == (4,) * (side - 1) ** 2
        assert basis.fingerprint == fingerprint

    def test_seeded_fingerprints_pinned(self):
        for seed, expected in enumerate(SEEDED_FINGERPRINTS):
            assert minimum_cycle_basis(_seeded_graph(seed)).fingerprint == expected, seed

    def test_never_longer_than_fundamental(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng, int(rng.integers(4, 10)))
            if g.cycle_space_dim == 0:
                continue
            total_min = sum(minimum_cycle_basis(g).lengths)
            total_fun = sum(fundamental_cycle_basis(g).lengths)
            assert total_min <= total_fun

    def test_matches_exhaustive_search_small(self, rng):
        for _ in range(4):
            g = random_connected_graph(rng, 6, extra_edges=int(rng.integers(1, 4)))
            if g.cycle_space_dim == 0:
                continue
            expected = oracles.exhaustive_minimum_basis_length(g.n, g.edges)
            assert sum(minimum_cycle_basis(g).lengths) == expected


def _shuffled(rng, g):
    """g with its edges in a random order, each one reversed or not."""
    perm = rng.permutation(g.m)
    flip = rng.random(g.m) < 0.5
    edges = [g.edges[e][::-1] if flip[e] else g.edges[e] for e in perm]
    return WeightedGraph.from_edges(g.n, edges, [g.weights[e] for e in perm])


def _bridged_blocks(rng, sizes):
    """Random connected blocks of the given node counts, chained by one
    bridge between consecutive blocks."""
    edges, offset = [], 0
    for size in sizes:
        block = random_connected_graph(rng, size, extra_edges=int(rng.integers(1, size + 1)))
        if offset:
            edges.append((int(rng.integers(0, offset)), offset + int(rng.integers(0, size))))
        edges.extend((i + offset, j + offset) for i, j in block.edges)
        offset += size
    return WeightedGraph.from_edges(offset, edges)


def _assert_matches_eager_horton(g):
    got, want = minimum_cycle_basis(g), oracles.horton_minimum_basis(g)
    assert [c.nodes for c in got.cycles] == [nodes for nodes, _ in want]
    for c, (_, vector) in zip(got.cycles, want):
        assert c.vector.dtype == vector.dtype == np.int64
        assert np.array_equal(c.vector, vector)
    want_basis = CycleBasis(graph=g, cycles=tuple(Cycle(n, v) for n, v in want), kind="minimum")
    assert got.fingerprint == want_basis.fingerprint


def _with_pendant_trees(rng, g, count):
    """g with `count` new nodes, each hung by one edge from a random earlier
    node, so that trees of leaves grow off it."""
    edges = list(g.edges)
    for v in range(g.n, g.n + count):
        edges.append((int(rng.integers(0, v)), v))
    return WeightedGraph.from_edges(g.n + count, edges)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), extra=st.integers(0, 12), pendant=st.integers(0, 12))
def test_tree_matches_reference_bfs(seed, n, extra, pendant):
    rng = np.random.default_rng(seed)
    g = _shuffled(rng, _with_pendant_trees(rng, random_connected_graph(rng, n, extra_edges=extra), pendant))
    assert g.tree == oracles.tree_bfs(g, spanning_tree(g))
    if g.cycle_space_dim:
        _assert_matches_eager_horton(g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 24), extra=st.integers(1, 30))
def test_minimum_basis_matches_eager_horton_on_random_graphs(seed, n, extra):
    rng = np.random.default_rng(seed)
    _assert_matches_eager_horton(_shuffled(rng, random_connected_graph(rng, n, extra_edges=extra)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(3, 9), min_size=2, max_size=4))
def test_minimum_basis_matches_eager_horton_on_bridged_blocks(seed, sizes):
    rng = np.random.default_rng(seed)
    g = _bridged_blocks(rng, sizes)
    _assert_matches_eager_horton(g)
    _assert_matches_eager_horton(_shuffled(rng, g))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rows=st.integers(2, 10), cols=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
@example(rows=10, cols=10, seed=0)
def test_minimum_basis_matches_eager_horton_on_lattices(rows, cols, seed):
    g = _lattice(rows, cols)
    _assert_matches_eager_horton(g)
    _assert_matches_eager_horton(_shuffled(np.random.default_rng(seed), g))


@pytest.mark.parametrize("n", range(3, 10))
def test_minimum_basis_matches_eager_horton_on_rings_and_complete_graphs(n):
    _assert_matches_eager_horton(ring_graph(n))
    _assert_matches_eager_horton(complete_graph(n))


class TestCycleEdgePinv:
    def test_triangle_all_ones_row(self):
        basis = fundamental_cycle_basis(triangle())
        expected = np.sign(basis.cycles[0].vector[0]) * np.ones((3, 1)) / 3.0
        assert np.allclose(cycle_edge_pinv(basis), expected)

    def test_ring(self):
        basis = fundamental_cycle_basis(ring_graph(6))
        v = basis.cycles[0].vector.astype(float)
        assert np.allclose(cycle_edge_pinv(basis).ravel(), v / 6.0)

    def test_square_with_diagonal_identity(self):
        basis = fundamental_cycle_basis(square_with_diagonal())
        C = basis.matrix
        assert np.allclose(C @ cycle_edge_pinv(basis), np.eye(2), atol=1e-12)

    def test_rank_error_on_dependent_cycles(self):
        g = square_with_diagonal()
        with pytest.raises(RankError):
            explicit_cycle_basis(g, [(0, 1, 3), (0, 1, 3)])

    def test_rank_error_on_distinct_dependent_cycles(self):
        # In K4 the 4-cycle is the oriented sum of two triangles; any three
        # triangles are independent.
        g = complete_graph(4)
        explicit_cycle_basis(g, [(0, 1, 2), (0, 2, 3), (0, 1, 3)])
        with pytest.raises(RankError, match="not linearly independent"):
            explicit_cycle_basis(g, [(0, 1, 2), (0, 2, 3), (0, 1, 2, 3)])

    def test_rank_error_names_a_vector_outside_the_kernel(self):
        # Raw Cycle vectors bypass from_nodes: the second one has a wrong sign.
        g = square_with_diagonal()
        good = Cycle(nodes=(0, 1, 3), vector=[1, 0, 0, 1, 1])
        bad = Cycle(nodes=(1, 2, 3), vector=[0, 1, 1, 0, 1])
        CycleBasis(graph=g, cycles=(good, Cycle.from_nodes(g, (1, 2, 3))), kind="explicit").validate()
        with pytest.raises(RankError, match=r"\(1, 2, 3\) is not in Ker"):
            CycleBasis(graph=g, cycles=(good, bad), kind="explicit").validate()


def _library_bases(seeds=range(12)):
    """Fundamental and minimum bases of seeded random graphs and lattices,
    and an explicit basis on the minimum one's node sequences."""
    graphs = [_seeded_graph(seed) for seed in seeds] + [_lattice(2, 3), _lattice(6), _lattice(5, 9)]
    for g in graphs:
        minimum = minimum_cycle_basis(g)
        yield fundamental_cycle_basis(g)
        yield minimum
        yield explicit_cycle_basis(g, [c.nodes for c in minimum.cycles])


def test_library_built_bases_validate():
    # The builders no longer call validate: their rows lie in Ker(B) and are
    # independent by construction, which this checks on seeded inputs.
    kinds = set()
    for basis in list(_library_bases(range(24))) + [minimum_cycle_basis(_lattice(14)), fundamental_cycle_basis(_lattice(14))]:
        basis.validate()
        kinds.add(basis.kind)
    assert kinds == {"fundamental", "minimum", "explicit"}


class TestCycleSpaceAlgebra:
    @staticmethod
    def _dense_gram(basis, W):
        """The stacked product, row by row: C diag(w) C^T for each row w."""
        C = basis.matrix
        rows = [(C * w) @ C.T for w in W.reshape(-1, basis.graph.m)]
        return np.array(rows).reshape(W.shape[:-1] + (basis.size, basis.size))

    def test_edge_pairs_list_each_shared_edge(self):
        for basis in _library_bases():
            C = basis.matrix
            k = basis.size
            target, edge, coef = basis.edge_pairs
            rows, cols = np.divmod(target, k)
            assert np.array_equal(coef, C[rows, edge] * C[cols, edge]) and np.all(coef != 0)
            per_edge = np.count_nonzero(C, axis=0)
            assert target.size == int(per_edge @ per_edge) == len(set(zip(target.tolist(), edge.tolist())))
            shared = np.zeros((k, k), dtype=bool)
            shared[rows, cols] = True
            assert np.array_equal(shared, np.abs(C) @ np.abs(C).T > 0)

    @pytest.mark.parametrize("ratio", [0, graphs_module.GRAM_PATTERN_RATIO, math.inf])
    def test_gram_matches_the_stacked_product(self, ratio, monkeypatch):
        # ratio 0 assembles every Gram from the pattern, inf none.
        monkeypatch.setattr(graphs_module, "GRAM_PATTERN_RATIO", ratio)
        rng = np.random.default_rng(5)
        bases = list(_library_bases(range(6))) + [minimum_cycle_basis(_lattice(14))]
        for basis in bases:
            m = basis.graph.m
            for shape in [(m,), (1, m), (2, m), (17, m), (256, m), (2, 3, m)]:
                W = rng.uniform(0.01, 100.0, size=shape)
                got = basis.gram(W)
                assert got.shape == shape[:-1] + (basis.size, basis.size)
                assert np.max(np.abs(got - self._dense_gram(basis, W))) <= 1e-12 * np.max(np.abs(got))

    def test_gram_path_follows_the_size_ratio(self, monkeypatch):
        # The pattern serves the lattice's minimum basis (k = 169, each edge
        # in at most two cycles); its dense fundamental basis and the small
        # meshes keep the stacked product.
        cases = [(minimum_cycle_basis(_lattice(14)), True), (fundamental_cycle_basis(_lattice(14)), False)]
        cases += [(fundamental_cycle_basis(_seeded_graph(seed)), False) for seed in range(4)]
        for basis, by_pattern in cases:
            k, m = basis.size, basis.graph.m
            assert (k * k * m >= graphs_module.GRAM_PATTERN_RATIO * basis.edge_pairs[0].size) == by_pattern
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *args: calls.append(1) or bincount(*args))
        for basis, by_pattern in cases:
            calls.clear()
            basis.gram(np.ones((2, basis.graph.m)))
            assert len(calls) == by_pattern

    @pytest.mark.parametrize("seed", range(8))
    def test_disjoint_matches_the_oracle(self, seed):
        # Random meshes chained by bridges and cut vertices.  On odd seeds
        # each mesh has one cycle, so no two basis cycles share an edge.
        rng = np.random.default_rng([seed, 24])
        extra = [1] * 4 if seed % 2 else [2, *rng.integers(1, 6, size=3).tolist()]
        parts = [random_connected_graph(rng, int(rng.integers(4, 10)), e) for e in extra]
        n, edges = 0, []
        for i, part in enumerate(parts):
            base = n - (i % 2)  # odd parts share their node 0 with the last node; even parts hang by a bridge
            if i and i % 2 == 0:
                edges.append((n - 1, n))
            edges += [(a + base, b + base) for a, b in part.edges]
            n = base + part.n
        g = WeightedGraph.from_edges(n, edges)
        for basis in (fundamental_cycle_basis(g), minimum_cycle_basis(g)):
            assert basis.disjoint is (not oracles.cycles_share_an_edge(basis.matrix)) is bool(seed % 2)

    def test_disjoint_reads_the_lengths_first(self, monkeypatch):
        # A 14 x 14 lattice with a pentagon hung on a bridge: k = 170 cycles
        # whose lengths sum past m, so the answer needs no look at C.
        lattice = _lattice(14)
        pentagon = [(196 + i, 196 + (i + 1) % 5) for i in range(5)]
        g = WeightedGraph.from_edges(201, list(lattice.edges) + [(195, 196)] + pentagon)
        bases = (fundamental_cycle_basis(g), minimum_cycle_basis(g))
        monkeypatch.setattr(np, "count_nonzero", None)
        for basis in bases:
            assert basis.size == 170 and not basis.disjoint
        monkeypatch.undo()
        # Here the lengths sum to m, so C is read: two cycles share the chord.
        basis = minimum_cycle_basis(bridged_blocks())
        assert sum(basis.lengths) == basis.graph.m and not basis.disjoint

    def test_weighted_pinv_matches_the_dense_solve(self):
        rng = np.random.default_rng(9)
        bases = list(_library_bases(range(6))) + [minimum_cycle_basis(_lattice(14))]
        # Weights 100x apart, as in the Newton tests.
        apart = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], [1.0, 1.0, 100.0, 100.0, 100.0])
        bases += [fundamental_cycle_basis(apart), minimum_cycle_basis(apart)]
        for basis in bases:
            g = basis.graph
            C, a = basis.matrix, g.weight_vector
            inverse = basis.weighted_gram_inverse
            # G = A^{-1} C^T W^{-1} from the k x k inverse, against the dense solve.
            G = (C / a).T @ inverse
            dense = oracles.right_inverse(C, a)
            assert np.max(np.abs(G - dense)) <= 1e-10 * np.max(np.abs(dense))
            assert np.max(np.abs(C @ G - np.eye(basis.size))) <= 1e-10
            # The solvers apply G to rows x as x G^T = (x W^{-1} C) / a.
            assert np.max(np.abs(G - ((inverse @ C) / a).T)) <= 1e-12 * np.max(np.abs(G))
            p = rng.normal(size=g.n)
            p -= p.mean()
            f = g.tree_flow(p)
            want = f - C.T @ (dense.T @ f)
            assert np.max(np.abs(g.cutset_flow(p, basis) - want)) <= 1e-10 * np.max(np.abs(want))


class TestIntegerShift:
    def test_ring_single_cycle(self):
        basis = fundamental_cycle_basis(ring_graph(5))
        z = integer_shift_solve(basis, [1])
        assert z.dtype == np.int64
        assert np.array_equal(np.nonzero(z)[0], basis.off_tree[0])
        assert np.array_equal(basis.matrix.astype(np.int64) @ z, [1])

    def test_zero(self):
        basis = fundamental_cycle_basis(square_with_diagonal())
        assert np.array_equal(integer_shift_solve(basis, [0, 0]), np.zeros(5))

    def test_square_with_diagonal(self):
        basis = fundamental_cycle_basis(square_with_diagonal())
        z = integer_shift_solve(basis, [1, -1])
        assert set(np.nonzero(z)[0]) <= set(basis.off_tree[0])
        assert np.array_equal(basis.matrix.astype(np.int64) @ z, [1, -1])

    def test_basis_kind_error(self):
        basis = minimum_cycle_basis(square_with_diagonal())
        with pytest.raises(BasisKindError):
            integer_shift_solve(basis, [1, 0])

    def test_routing_through_fundamental(self):
        basis = minimum_cycle_basis(square_with_diagonal())
        z = integer_cycle_shift(basis, [1, -1])
        assert z.dtype == np.int64
        assert np.array_equal(basis.matrix.astype(np.int64) @ z, [1, -1])

    def test_shift_reads_the_basis_own_off_tree_block(self, monkeypatch):
        # A minimum and an explicit basis solve T z = u on their own off-tree
        # block; no fundamental basis is built.  The explicit basis of K4's
        # three Hamiltonian cycles has det T = 2, so half its cells are empty.
        minimum = minimum_cycle_basis(_lattice(5))
        explicit = explicit_cycle_basis(complete_graph(4), [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)])

        def refuse(g):
            raise AssertionError("integer_cycle_shift built a second basis")

        monkeypatch.setattr(graphs_module, "fundamental_cycle_basis", refuse)
        rng = np.random.default_rng(5)
        for basis, u in ((minimum, rng.integers(-3, 4, size=minimum.size)), (explicit, [1, 1, 0])):
            z = integer_cycle_shift(basis, u)
            assert z.dtype == np.int64
            assert np.array_equal(basis.matrix.astype(np.int64) @ z, u)
            assert set(np.nonzero(z)[0]) <= set(basis.off_tree[0])
        assert round(abs(np.linalg.det(explicit.off_tree[1]))) == 2
        with pytest.raises(NonIntegerWindingError):
            integer_cycle_shift(explicit, [1, 0, 0])
        with pytest.raises(InputError):
            integer_cycle_shift(minimum, [1, 0])


class TestCycleProjection:
    def test_tree_projection_is_zero(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], [1.0, 2.0, 0.5])
        P = cycle_projection(g, np.ones(3)).matrix
        assert np.max(np.abs(P)) < 1e-12

    def test_unit_triangle_orthogonal_projector(self):
        g = triangle()
        P = cycle_projection(g, np.ones(3)).matrix
        v = np.ones(3)
        assert np.allclose(P, np.outer(v, v) / 3.0, atol=1e-12)

    def test_weight_error(self):
        with pytest.raises(WeightError):
            cycle_projection(triangle(), [1.0, -1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_error(self, bad):
        # Refused, rather than turned into an all-NaN projection.
        with pytest.raises(WeightError, match="finite"):
            cycle_projection(triangle(), [1.0, bad, 1.0])

    def test_eigenvalues_zero_one(self, rng):
        g = random_connected_graph(rng, 7)
        D = rng.uniform(0.2, 3.0, g.m)
        P = cycle_projection(g, D).matrix
        eig = np.sort(np.linalg.eigvals(P).real)
        ones = int(np.sum(eig > 0.5))
        assert ones == g.cycle_space_dim
        assert np.allclose(eig, np.concatenate([np.zeros(g.m - ones), np.ones(ones)]), atol=1e-8)

    def test_random_graph_invariants(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 13)))
            D = rng.uniform(0.1, 5.0, g.m)
            P = cycle_projection(g, D).matrix
            B = g.incidence
            assert np.max(np.abs(P @ P - P)) < 1e-10
            assert abs(np.trace(P) - g.cycle_space_dim) < 1e-8
            assert np.max(np.abs(B @ P)) < 1e-10
            dab = (D * g.weight_vector)[:, None] * B.T
            assert np.max(np.abs(P @ dab)) < 1e-10


class TestCycleFromNodes:
    def test_requires_edges_between_consecutive_nodes(self):
        with pytest.raises(InputError):
            Cycle.from_nodes(grid_2x3(), (0, 1, 5))

    def test_explicit_paper_basis(self):
        basis = explicit_cycle_basis(square_with_diagonal(), [(0, 1, 3), (1, 2, 3)])
        assert np.array_equal(basis.cycles[0].vector, [1, 0, 0, 1, 1])
        assert np.array_equal(basis.cycles[1].vector, [0, 1, 1, 0, -1])

    def test_node_ids_are_read_strictly(self):
        # A triangle with a pendant edge (2, 3); int() would read 1.7 as 1.
        g = WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        with pytest.raises(InputError, match="1.7 is not an int64 integer"):
            explicit_cycle_basis(g, [[0, 1.7, 2]])
        with pytest.raises(InputError, match="1.5 is not an int64 integer"):
            Cycle((0, 1.5, 2), [1, 1, 1, 0])
        assert Cycle((0, np.int64(1), 2.0), [1, 1, 1, 0]).nodes == (0, 1, 2)
