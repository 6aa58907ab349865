import itertools
import math

import numpy as np
import pytest

import oracles
import torusflow.torus as torus_module
from conftest import (
    complete_graph,
    grid_2x3,
    lattice_with_detours,
    random_connected_graph,
    ring_graph,
    splay_state,
    square_with_diagonal,
    triangle,
)
from torusflow import (
    CycleBasis,
    InputError,
    NonIntegerWindingError,
    WeightedGraph,
    builtin_case,
    case_to_problem,
    PolytopeMembershipError,
    PuncturedTorusError,
    ccw_difference,
    count_feasible_winding_vectors,
    edge_differences,
    explicit_cycle_basis,
    feasible_winding_bounds,
    feasible_winding_vectors,
    fundamental_cycle_basis,
    minimum_cycle_basis,
    phases_equal_mod_rotation,
    polytope_to_torus,
    torus_to_polytope,
    winding_blocks,
    winding_cuts,
    winding_number,
    winding_vector,
    wrap,
)
from torusflow.torus import winding_vector_from_differences

TWO_PI = 2 * math.pi


class TestCcwDifference:
    def test_paper_triangle_step(self):
        assert ccw_difference(math.pi / 3, 0.0) == pytest.approx(math.pi / 3)

    def test_coincident_angles(self):
        for a in (-3.0, 0.0, 0.4, 3.1):
            assert ccw_difference(a, a) == 0.0

    def test_cross_branch(self):
        assert ccw_difference(-3 * math.pi / 4, 3 * math.pi / 4) == pytest.approx(
            math.pi / 2
        )

    def test_matches_arc_oracle(self, rng):
        for _ in range(300):
            a, b = rng.uniform(-math.pi, math.pi, 2)
            got = ccw_difference(a, b)
            want = oracles.arc_difference(a, b)
            assert got == pytest.approx(want, abs=1e-12)
            assert abs(got) <= math.pi


class TestEdgeDifferences:
    def test_zero_phases(self):
        g = square_with_diagonal()
        assert np.array_equal(edge_differences(g, np.zeros(4)), np.zeros(5))

    def test_triangle_paper_values(self):
        delta = edge_differences(triangle(), [0.0, math.pi / 3, 2 * math.pi / 3])
        assert np.allclose(delta, [-math.pi / 3, -math.pi / 3, 2 * math.pi / 3])

    def test_rotation_invariance(self, rng):
        g = random_connected_graph(rng, 6)
        theta = rng.uniform(-2.5, 2.5, 6) * 0.4
        for s in rng.uniform(-math.pi, math.pi, 10):
            assert np.allclose(
                edge_differences(g, wrap(theta + s)),
                edge_differences(g, theta),
                atol=1e-12,
            )

    def test_boundary_rejected(self):
        g = triangle()
        with pytest.raises(PuncturedTorusError):
            edge_differences(g, [0.0, math.pi, 0.3])

    def test_all_strictly_inside(self, rng):
        g = grid_2x3()
        for _ in range(50):
            delta = edge_differences(g, rng.uniform(-math.pi, math.pi, 6))
            assert np.all(np.abs(delta) < math.pi)


class TestWindingNumber:
    def test_paper_triangle_examples(self):
        basis = fundamental_cycle_basis(triangle())
        sigma = basis.cycles[0]
        assert winding_number(sigma, [0, math.pi / 3, 2 * math.pi / 3]) == 0
        assert winding_number(sigma, [0, 2 * math.pi / 3, 4 * math.pi / 3]) == 1

    def test_pentagon_splay(self):
        basis = fundamental_cycle_basis(ring_graph(5))
        assert winding_number(basis.cycles[0], splay_state(5)) == 1

    def test_bound(self, rng):
        for g in (triangle(), square_with_diagonal(), ring_graph(6)):
            basis = fundamental_cycle_basis(g)
            for _ in range(200):
                theta = rng.uniform(-math.pi, math.pi, g.n)
                try:
                    for c in basis.cycles:
                        w = winding_number(c, theta)
                        assert abs(w) <= (c.length + 1) // 2 - 1
                except PuncturedTorusError:
                    pass

    def test_non_integer_raw_rejected(self):
        basis = fundamental_cycle_basis(triangle())
        with pytest.raises(NonIntegerWindingError):
            winding_vector_from_differences(basis, np.array([0.5, 0.5, 0.5]))


class TestWindingVector:
    def test_zero(self):
        basis = fundamental_cycle_basis(square_with_diagonal())
        assert np.array_equal(winding_vector(basis, np.zeros(4)), [0, 0])

    def test_rotation_invariance(self, rng):
        basis = fundamental_cycle_basis(square_with_diagonal())
        theta = np.array([0.1, 1.2, -2.0, 2.8])
        u0 = winding_vector(basis, theta)
        for s in rng.uniform(-math.pi, math.pi, 100):
            assert np.array_equal(winding_vector(basis, wrap(theta + s)), u0)

    def test_integrality_raw_values(self, rng):
        # Kirchhoff angle law: raw windings are integers to 1e-9.
        for g in (triangle(), square_with_diagonal(), ring_graph(5), complete_graph(4)):
            basis = fundamental_cycle_basis(g)
            theta = rng.uniform(-math.pi, math.pi, (1000, g.n))
            idx = np.asarray(g.edges)
            delta = np.mod(
                theta[:, idx[:, 0]] - theta[:, idx[:, 1]] + math.pi, TWO_PI
            ) - math.pi
            ok = np.all(np.abs(delta + math.pi) > 1e-9, axis=1)
            raw = delta[ok] @ basis.matrix.T / TWO_PI
            assert np.max(np.abs(raw - np.rint(raw))) < 1e-9

    def test_square_with_diagonal_exclusion_small_grid(self):
        g = square_with_diagonal()
        basis = explicit_cycle_basis(g, [(0, 1, 3), (1, 2, 3)])
        step = TWO_PI / 24
        vals = -math.pi + step * (np.arange(24) + 0.5)
        t2, t3, t4 = np.meshgrid(vals, vals, vals, indexing="ij")
        theta = np.stack([np.zeros_like(t2), t2, t3, t4], -1).reshape(-1, 4)
        idx = np.asarray(g.edges)
        delta = np.mod(
            theta[:, idx[:, 0]] - theta[:, idx[:, 1]] + math.pi, TWO_PI
        ) - math.pi
        ok = np.all(np.abs(delta + math.pi) > 1e-9, axis=1)
        image = set(
            map(tuple, np.rint(delta[ok] @ basis.matrix.T / TWO_PI).astype(int))
        )
        assert (1, 1) not in image
        assert (-1, -1) not in image
        assert (0, 0) in image

    def test_function_of_theta(self, rng):
        basis = fundamental_cycle_basis(ring_graph(5))
        theta = rng.uniform(-math.pi, math.pi, 5)
        assert np.array_equal(
            winding_vector(basis, theta), winding_vector(basis, theta)
        )


class TestFeasibleWindingVectors:
    def test_pentagon(self):
        basis = fundamental_cycle_basis(ring_graph(5))
        got = [tuple(u) for u in feasible_winding_vectors(basis, 1.4)]
        assert got == [(-1,), (0,), (1,)]

    def test_gamma_zero(self):
        basis = fundamental_cycle_basis(square_with_diagonal())
        assert [tuple(u) for u in feasible_winding_vectors(basis, 0.0)] == [(0, 0)]

    def test_ring12_at_pi_over_2(self):
        basis = fundamental_cycle_basis(ring_graph(12))
        got = [u[0] for u in feasible_winding_vectors(basis, math.pi / 2)]
        assert got == [-3, -2, -1, 0, 1, 2, 3]

    def test_lexicographic_order_and_count(self):
        basis = fundamental_cycle_basis(square_with_diagonal())
        got = [tuple(u) for u in feasible_winding_vectors(basis, 2.5)]
        assert got == sorted(got)
        assert len(got) == count_feasible_winding_vectors(basis, 2.5)
        bounds = feasible_winding_bounds(basis, 2.5)
        assert len(got) == np.prod([2 * b + 1 for b in bounds])


def bench_mesh(rng, max_box=243):
    """A mesh drawn as the benchmark draws them (14-20 nodes, 5-8
    independent cycles, weights in [0.5, 1.5]), redrawn until its
    fundamental box at gamma = 1.4 holds at most max_box cells."""
    while True:
        n = int(rng.integers(14, 21))
        k = int(rng.integers(5, 9))
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        present = {(min(a, b), max(a, b)) for a, b in edges}
        while len(edges) < n - 1 + k:
            a, b = sorted(int(x) for x in rng.integers(0, n, size=2))
            if a != b and (a, b) not in present:
                present.add((a, b))
                edges.append((a, b))
        g = WeightedGraph.from_edges(n, edges, rng.uniform(0.5, 1.5, size=len(edges)))
        if count_feasible_winding_vectors(fundamental_cycle_basis(g), 1.4) <= max_box:
            return g


class TestWindingBlocks:
    def test_rows_are_the_lexicographic_box(self, monkeypatch):
        # The loop version is the reference: one itertools.product tuple per cell.
        monkeypatch.setattr(torus_module, "CHUNK_ROWS", 7)
        mesh = bench_mesh(np.random.default_rng(5))
        cases = [
            (fundamental_cycle_basis(square_with_diagonal()), 2.5),
            (fundamental_cycle_basis(ring_graph(12)), math.pi / 2),
            (fundamental_cycle_basis(mesh), 1.4),
            (minimum_cycle_basis(mesh), math.pi / 2 - 0.01),
            (minimum_cycle_basis(lattice_with_detours()), 1.4),
            (fundamental_cycle_basis(complete_graph(4)), 0.5),
        ]
        for basis, gamma in cases:
            blocks = list(winding_blocks(basis, gamma))
            want = list(itertools.product(*(range(-b, b + 1) for b in feasible_winding_bounds(basis, gamma))))
            assert all(b.dtype == np.int64 and b.shape[1] == basis.size and 1 <= len(b) <= 7 for b in blocks)
            assert [tuple(row) for b in blocks for row in b.tolist()] == want
            assert [tuple(u) for u in feasible_winding_vectors(basis, gamma)] == want
        assert basis.size == 3 and len(want) == 1
        assert cases[4][0].size > 64

    def test_box_beyond_int64_is_refused(self):
        side = 14
        edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
        edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
        basis = minimum_cycle_basis(WeightedGraph.from_edges(side * side, edges))
        assert count_feasible_winding_vectors(basis, 1.6) == 3**169
        with pytest.raises(InputError, match="too many"):
            next(winding_blocks(basis, 1.6))


class TestWindingCuts:
    @staticmethod
    def _brute_force_pool(basis, gamma):
        """Every a in {-1, 0, 1}^k with two or three nonzeros, +1 on its least
        free cycle, its cycles connected through shared edges, that binds;
        none in a box of fewer than CUT_MIN_CELLS cells."""
        bounds = np.array(feasible_winding_bounds(basis, gamma))
        if count_feasible_winding_vectors(basis, gamma) < torus_module.CUT_MIN_CELLS:
            return set()
        C = basis.matrix
        edges = [set(np.flatnonzero(row).tolist()) for row in C]
        pool = set()
        for a in itertools.product((-1, 0, 1), repeat=basis.size):
            a = np.array(a)
            support = np.flatnonzero(a).tolist()
            free = [i for i in support if bounds[i] > 0]
            if len(support) not in (2, 3) or not free or a[free[0]] != 1:
                continue
            reached, todo = {support[0]}, [support[0]]
            while todo:
                i = todo.pop()
                for j in support:
                    if j not in reached and edges[i] & edges[j]:
                        reached.add(j)
                        todo.append(j)
            limit = math.floor(gamma * float(np.abs(a @ C).sum()) / TWO_PI)
            if len(reached) == len(support) and limit < np.abs(a) @ bounds:
                pool.add((tuple(a.tolist()), limit))
        return pool

    def test_pool_matches_brute_force(self):
        rng = np.random.default_rng(8)
        meshes = [bench_mesh(rng) for _ in range(3)] + [complete_graph(5), grid_2x3()]
        sizes = []
        for g in meshes:
            for basis in (fundamental_cycle_basis(g), minimum_cycle_basis(g)):
                for gamma in (1.0, 1.4, math.pi / 2 - 0.01):
                    A, limits = winding_cuts(basis, gamma)
                    assert A.dtype == limits.dtype == np.int64 and A.shape == (len(limits), basis.size)
                    got = {(tuple(a), int(b)) for a, b in zip(A.tolist(), limits)}
                    assert len(got) == len(A)
                    assert got == self._brute_force_pool(basis, gamma)
                    sizes.append(len(A))
        assert max(sizes) > 10 and 0 in sizes

    def test_removed_cells_are_not_realisable(self):
        # Soundness: Bellman-Ford on each cut cell's difference constraints
        # finds a negative cycle, or the cell has no integer shift.
        rng = np.random.default_rng(11)
        removed = kept = 0
        for g in [bench_mesh(rng) for _ in range(4)]:
            for basis in (fundamental_cycle_basis(g), minimum_cycle_basis(g)):
                A, limits = winding_cuts(basis, 1.4)
                for U in winding_blocks(basis, 1.4):
                    cut = (np.abs(U @ A.T) > limits).any(axis=1)
                    for u in U[cut]:
                        assert not oracles.winding_cell_realisable(g, basis.matrix, u, 1.4), u.tolist()
                    removed += int(cut.sum())
                    kept += int((~cut).sum())
        assert removed > kept > 0

    def test_realisability_oracle_accepts_solved_cells(self):
        problem = case_to_problem(builtin_case("expo(2)"), 1.4)
        basis = fundamental_cycle_basis(problem.graph)
        for u in feasible_winding_vectors(basis, 1.4):
            assert oracles.winding_cell_realisable(problem.graph, basis.matrix, u, 1.4)
        assert not oracles.winding_cell_realisable(problem.graph, basis.matrix, [2, 0], 1.4)

    def test_no_pool_for_small_boxes_or_one_cycle(self, monkeypatch):
        side = 14
        edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
        edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
        lattice = minimum_cycle_basis(WeightedGraph.from_edges(side * side, edges))
        ring = fundamental_cycle_basis(ring_graph(12))
        expo = fundamental_cycle_basis(case_to_problem(builtin_case("expo(5)"), 1.4).graph)

        def refuse(self):
            raise AssertionError("a cycle matrix was formed")

        # Two free cycles of 7 and 8 edges sharing six, in a 9-cell box: their
        # difference, a triangle, gives the cut |u_1 - u_2| <= 0, but a box
        # this small is decided whole.
        theta = WeightedGraph.from_edges(8, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (0, 1), (0, 7), (7, 1)])
        small = fundamental_cycle_basis(theta)
        assert count_feasible_winding_vectors(small, 1.4) == 9
        monkeypatch.setattr(torus_module, "CUT_MIN_CELLS", 1)
        A, limits = winding_cuts(small, 1.4)
        assert A.tolist() == [[1, -1]] and limits.tolist() == [0]
        monkeypatch.undo()
        fresh = [CycleBasis(graph=b.graph, cycles=b.cycles, kind=b.kind) for b in (lattice, ring, small)]
        monkeypatch.setattr(CycleBasis, "matrix", property(refuse))
        for basis, gamma in ((fresh[0], 1.4), (fresh[1], math.pi / 2), (fresh[2], 1.4)):
            A, limits = winding_cuts(basis, gamma)
            assert A.shape == (0, basis.size) and limits.shape == (0,)
        monkeypatch.undo()
        # expo(5)'s pentagons share no edge, so no cut can bind.
        A, _ = winding_cuts(expo, 1.4)
        assert A.shape == (0, 5) and count_feasible_winding_vectors(expo, 1.4) == 243


class TestPolytopeCorrespondence:
    def test_zero(self):
        basis = fundamental_cycle_basis(triangle())
        x, u = torus_to_polytope(basis, np.zeros(3))
        assert np.allclose(x, 0.0, atol=1e-12)
        assert np.array_equal(u, [0])
        theta = polytope_to_torus(basis, np.zeros(3), [0])
        assert phases_equal_mod_rotation(theta, np.zeros(3), 1e-12)

    def test_pentagon_splay_is_pure_offset(self):
        basis = fundamental_cycle_basis(ring_graph(5))
        x, u = torus_to_polytope(basis, splay_state(5))
        assert np.array_equal(u, [1])
        assert np.max(np.abs(x)) < 1e-12

    def test_ring5_offset_reconstructs_splay(self):
        basis = fundamental_cycle_basis(ring_graph(5))
        theta = polytope_to_torus(basis, np.zeros(5), [1])
        assert phases_equal_mod_rotation(theta, splay_state(5), 1e-9)

    def test_round_trip_random(self, rng):
        for g in (square_with_diagonal(), ring_graph(6), complete_graph(4)):
            basis = fundamental_cycle_basis(g)
            done = 0
            while done < 60:
                theta = rng.uniform(-math.pi, math.pi, g.n)
                try:
                    x, u = torus_to_polytope(basis, theta)
                except PuncturedTorusError:
                    continue
                done += 1
                assert abs(np.sum(x)) < 1e-9
                back = polytope_to_torus(basis, x, u)
                assert phases_equal_mod_rotation(back, theta, 1e-9)
                assert np.array_equal(winding_vector(basis, back), u)

    def test_round_trip_minimum_basis(self, rng):
        basis = minimum_cycle_basis(square_with_diagonal())
        done = 0
        while done < 40:
            theta = rng.uniform(-math.pi, math.pi, 4)
            try:
                x, u = torus_to_polytope(basis, theta)
            except PuncturedTorusError:
                continue
            done += 1
            back = polytope_to_torus(basis, x, u)
            assert phases_equal_mod_rotation(back, theta, 1e-9)

    def test_membership_error(self):
        basis = fundamental_cycle_basis(triangle())
        big = np.array([2.0, 0.0, -2.0])
        with pytest.raises(PolytopeMembershipError):
            polytope_to_torus(basis, big, [0])
        with pytest.raises(PolytopeMembershipError):
            polytope_to_torus(basis, np.ones(3), [0])

    def test_edge_consistency(self, rng):
        g = square_with_diagonal()
        basis = fundamental_cycle_basis(g)
        theta = rng.uniform(-2.0, 2.0, 4)
        x, u = torus_to_polytope(basis, theta)
        lhs = g.incidence.T @ x + TWO_PI * oracles.right_inverse(basis.matrix) @ u
        assert np.allclose(lhs, edge_differences(g, theta), atol=1e-9)


class TestCanonical:
    def test_canonical_phases_range(self, rng):
        theta = rng.uniform(-10, 10, 8)
        c = wrap(theta)
        assert np.all(c >= -math.pi) and np.all(c < math.pi)
        assert np.allclose(np.mod(c - theta, TWO_PI), 0.0, atol=1e-9)
