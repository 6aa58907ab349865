import dataclasses
import itertools
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import torusflow.flows as flows_module
import torusflow.torus as torus_module
from conftest import (
    balanced_vector,
    complete_graph,
    lattice_with_detours,
    random_connected_graph,
    ring_graph,
    sin_problem,
    splay_state,
    square_with_diagonal,
    triangle,
)
from torusflow import (
    BalanceError,
    ConvergenceBudgetError,
    CyclicGraphError,
    ExtendedFlowFunction,
    FeasibilityError,
    FlowFunction,
    FlowNetworkProblem,
    GammaError,
    InputError,
    NonIntegerWindingError,
    PolytopeMembershipError,
    WeightedGraph,
    acyclic_solve,
    builtin_case,
    canonical_rotation,
    case_to_problem,
    check_feasibility,
    count_feasible_winding_vectors,
    cycle_edge_pinv,
    cycle_projection,
    decompose_flow,
    edge_differences,
    explicit_cycle_basis,
    feasible_winding_vectors,
    fundamental_cycle_basis,
    integer_cycle_shift,
    loop_flow,
    minimum_cycle_basis,
    phases_equal_mod_rotation,
    polytope_to_torus,
    projection_iteration,
    ptc,
    recover_phases,
    solve_all,
    torus_to_polytope,
    verify_solution,
    winding_fixed_point_map,
    winding_vector,
    wrap,
)
from torusflow.flows import FEASIBILITY_SLACK, decide_cell, decide_cells, recover_cells, verify_cells
from torusflow.torus import WINDING_INT_TOL

TWO_PI = 2 * math.pi


class TestFlowFunction:
    def test_sin_certificate(self):
        cert = FlowFunction.sin_family().certify(1.4)
        assert cert.lmin == pytest.approx(math.cos(1.4), abs=1e-9)
        assert cert.lmax == pytest.approx(1.0)
        assert cert.h_gamma == pytest.approx(math.sin(1.4))

    def test_sin_rejects_gamma_at_pi_over_2(self):
        with pytest.raises(GammaError):
            FlowFunction.sin_family().certify(math.pi / 2)

    def test_non_odd_rejected(self):
        bad = FlowFunction(
            evaluate=lambda y: np.asarray(y) + 0.1, derivative=lambda y: np.ones_like(y)
        )
        with pytest.raises(InputError):
            bad.certify(1.0)

    def test_decreasing_rejected_with_hint(self):
        dec = FlowFunction.sin_family().negated()
        with pytest.raises(GammaError, match="decreasing"):
            dec.certify(1.0)

    def test_linear_family(self):
        lin = FlowFunction.linear(2.0)
        cert = lin.certify(2.0)
        assert cert.lmin == cert.lmax == 2.0
        assert float(ExtendedFlowFunction(lin, 2.0).inverse(1.0)) == pytest.approx(0.5)

    def test_fourier_family_monotone_window(self):
        fn = FlowFunction.fourier([1.0, 0.15])
        cert = fn.certify(1.0)
        assert cert.lmin > 0
        assert fn.evaluate(np.array(0.3)) == pytest.approx(
            math.sin(0.3) + 0.15 * math.sin(0.6)
        )

    def test_fourier_slope_bounds_hold_between_grid_points(self):
        # h'(y) = cos y - 0.21 cos 7y has an interior minimum near y* = 0.9836;
        # gamma puts y* halfway between two points of the certificate grid.
        from torusflow.flows import CERT_GRID

        fn = FlowFunction.fourier([1.0, 0, 0, 0, 0, 0, -0.03])
        y = np.linspace(0.97, 1.0, 300001)
        y_star = float(y[np.argmin(fn.derivative(y))])
        gamma = y_star / (1819 / (CERT_GRID - 1) - 1)
        true_min = float(fn.derivative(np.array(y_star)))
        dense = fn.derivative(np.linspace(-gamma, gamma, 400001))
        assert float(np.min(fn.derivative(np.linspace(-gamma, gamma, CERT_GRID)))) > true_min + 1e-6
        cert = fn.certify(gamma)
        assert cert.lmin <= min(true_min, float(np.min(dense)))
        assert cert.lmax >= float(np.max(dense))
        assert cert.lmin > 0.999 * true_min  # widened by sum k^3 |b_k| * spacing^2 / 8 only

    def test_fourier_minimum_at_the_endpoint_is_not_widened_away(self):
        # h' = cos is least at the endpoint gamma, which the grid samples:
        # lmin = sin(0.001) must still clear MIN_SLOPE after the widening.
        gamma = np.pi / 2 - 0.001
        cert = FlowFunction.fourier([1.0]).certify(gamma)
        assert cert.lmin == pytest.approx(np.sin(0.001), rel=1e-2)
        assert cert.lmax == pytest.approx(1.0, abs=1e-5)


class TestExtendedInverse:
    def test_zero(self):
        ext = ExtendedFlowFunction(FlowFunction.sin_family(), 1.0)
        assert float(ext.inverse(0.0)) == 0.0

    def test_interior(self):
        ext = ExtendedFlowFunction(FlowFunction.sin_family(), 1.0)
        assert float(ext.inverse(math.sin(0.5))) == pytest.approx(0.5, abs=1e-12)

    def test_linear_tail(self):
        ext = ExtendedFlowFunction(FlowFunction.sin_family(), 1.0)
        v = math.sin(1.0) + math.cos(1.0) * 0.3
        assert float(ext.inverse(v)) == pytest.approx(1.3, abs=1e-12)

    def test_round_trip_everywhere(self, rng):
        for fn in (
            FlowFunction.sin_family(),
            FlowFunction.fourier([1.0, 0.1]),
            FlowFunction.linear(2.0),
        ):
            ext = ExtendedFlowFunction(fn, 1.2)
            h_gamma = ext.cert.h_gamma
            v = np.concatenate([rng.uniform(-3.0, 3.0, 200), [-h_gamma, h_gamma]])
            y = ext.inverse(v)
            assert np.max(np.abs(ext.evaluate(y) - v)) < 1e-12

    def test_sine_inverse_needs_no_clip_inside_arcsin(self):
        # v is clipped to +-h(gamma) = +-sin(gamma) before arcsin sees it, so
        # also clipping to [-1, 1] there changes no bit, at or beyond the ends.
        for gamma in (0.3, 1.0, 1.4, math.pi / 2 - 1e-6):
            ext = ExtendedFlowFunction(FlowFunction.sin_family(), gamma)
            c = ext.cert
            ends = [c.h_gamma, np.nextafter(c.h_gamma, 2.0), np.nextafter(c.h_gamma, 0.0), 1.0, 1.5, 1e6]
            v = np.concatenate([np.linspace(-2.0, 2.0, 4001), ends, np.negative(ends)])
            inside = v.clip(-c.h_gamma, c.h_gamma)
            clipped = np.arcsin(inside.clip(-1.0, 1.0)).clip(-gamma, gamma) + (v - inside) / c.dh_gamma
            assert np.array_equal(ext.inverse(v), clipped)

    def test_bisection_path_matches_closed_form(self, rng):
        # dual route: generic inverse vs arcsin on the same sine function
        generic = FlowFunction(evaluate=np.sin, derivative=np.cos, name="custom")
        ext_g = ExtendedFlowFunction(generic, 1.3)
        ext_c = ExtendedFlowFunction(FlowFunction.sin_family(), 1.3)
        v = rng.uniform(-0.95, 0.95, 100)
        assert np.max(np.abs(ext_g.inverse(v) - ext_c.inverse(v))) < 1e-11


class TestProblemValidation:
    def test_unbalanced_p_rejected(self):
        with pytest.raises(InputError):
            sin_problem(triangle(), [0.5, 0.0, 0.0], 1.0)

    def test_contraction_rate_below_one(self, rng):
        g = random_connected_graph(rng, 6)
        prob = sin_problem(g, balanced_vector(rng, 6), 1.3)
        assert 0.0 <= prob.contraction_rate < 1.0

    def test_gamma_range(self):
        with pytest.raises(InputError):
            sin_problem(triangle(), np.zeros(3), -0.1)


class TestAcyclicSolve:
    def test_single_edge_example(self):
        path = sin_problem(_path_graph(2), [0.5, -0.5], math.pi / 3)
        sol = acyclic_solve(path)
        assert np.allclose(sol.f, [0.5])
        d = edge_differences(path.graph, sol.theta)
        assert d[0] == pytest.approx(math.asin(0.5), abs=1e-12)

    def test_threshold_is_sharp(self):
        path = sin_problem(_path_graph(2), [0.9, -0.9], math.pi / 3)
        assert acyclic_solve(path) is None

    def test_zero_supply(self):
        path = sin_problem(_path_graph(4), np.zeros(4), 1.0)
        sol = acyclic_solve(path)
        assert np.allclose(sol.f, 0.0)
        assert phases_equal_mod_rotation(sol.theta, np.zeros(4), 1e-12)

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicGraphError):
            acyclic_solve(sin_problem(triangle(), np.zeros(3), 1.0))

    def test_random_trees_satisfy_equations(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 11))
            g = random_connected_graph(rng, n, extra_edges=0)
            p_hat = balanced_vector(rng, n, scale=1.0)
            prob = sin_problem(g, p_hat, 1.2)
            flows = prob.cutset_flow / g.weight_vector
            crit = float(np.min(math.sin(1.2) / np.abs(flows[np.abs(flows) > 1e-12])))
            solvable = prob.with_supply(crit * (1 - 1e-6) * p_hat)
            sol = acyclic_solve(solvable)
            assert sol is not None
            assert sol.report.balance_residual < 1e-9
            assert sol.report.physics_residual < 1e-9
            assert sol.report.constraint_margin >= -1e-9
            unsolvable = prob.with_supply(crit * (1 + 1e-6) * p_hat)
            assert acyclic_solve(unsolvable) is None

    def test_random_trees_match_the_closed_form_bit_for_bit(self, rng):
        # The closed form: f is the cutset flow, and a solution exists iff f
        # is within capacity; theta integrates h^-1(f / a) along the tree.
        def closed_form(problem):
            f = problem.cutset_flow
            if not check_feasibility(problem, f)[0]:
                return None
            return f, canonical_rotation(problem.graph.tree_phases(problem.inverse_differences(f)))

        for _ in range(20):
            n = int(rng.integers(2, 11))
            g = random_connected_graph(rng, n, extra_edges=0)
            p_hat = balanced_vector(rng, n, scale=1.0)
            prob = sin_problem(g, p_hat, 1.2)
            flows = prob.cutset_flow / g.weight_vector
            crit = float(np.min(math.sin(1.2) / np.abs(flows[np.abs(flows) > 1e-12])))
            for side in (1 - 1e-6, 1 + 1e-6):
                problem = prob.with_supply(crit * side * p_hat)
                sol, want = acyclic_solve(problem), closed_form(problem)
                assert (sol is None) == (want is None) == (side > 1)
                if sol is None:
                    continue
                assert np.array_equal(sol.f, want[0]) and np.array_equal(sol.theta, want[1])
                assert sol.u.shape == (0,) and sol.u.dtype == np.int64
                it = sol.iteration
                assert (it.iterations, it.rate, it.final_step, it.error_bound) == (0, 0.0, 0.0, 0.0)
                assert it.feasible and it.contraction_verified and it.weighted_steps == (0.0,)

    def test_single_node(self):
        # No edge: the one cell u = () holds the one solution theta = (0).
        g = WeightedGraph.from_edges(1, [])
        (sol,) = solve_all(sin_problem(g, [0.0], 1.0))
        assert sol.f.shape == (0,) and sol.theta.tolist() == [0.0] and not sol.report.failures()


def _path_graph(n):
    from torusflow import WeightedGraph

    return WeightedGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestFixedPointMap:
    def test_identity_at_origin(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        out = winding_fixed_point_map(prob, basis, [0], np.zeros(5))
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_balance_preserved(self, rng):
        g = square_with_diagonal()
        p = balanced_vector(rng, 4)
        prob = sin_problem(g, p, 1.3)
        basis = fundamental_cycle_basis(g)
        f = prob.cutset_flow
        for u in ([0, 0], [1, -1]):
            out = winding_fixed_point_map(prob, basis, u, f)
            assert np.max(np.abs(g.incidence @ out - p)) < 1e-10

    def test_unbalanced_rejected(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        with pytest.raises(BalanceError):
            winding_fixed_point_map(prob, basis, [0], np.array([1.0, 0, 0, 0, 0]))

    def test_fixed_point_maps_to_itself(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        f_star, _ = projection_iteration(prob, basis, [1], rho=1e-12)
        again = winding_fixed_point_map(prob, basis, [1], f_star)
        assert np.max(np.abs(again - f_star)) < 1e-11


class TestProjectionIteration:
    def test_pentagon_origin(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        f, report = projection_iteration(prob, basis, [0])
        assert np.allclose(f, 0.0, atol=1e-12)
        assert report.rate == pytest.approx(1 - math.cos(1.4))

    def test_pentagon_splay_flow(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        f, _ = projection_iteration(prob, basis, [1], rho=1e-12)
        expected = math.sin(TWO_PI / 5) * basis.cycles[0].vector
        assert np.allclose(f, expected, atol=1e-10)

    def test_pentagon_u3_converges_but_infeasible(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        f, _ = projection_iteration(prob, basis, [3])
        feasible, _ = check_feasibility(prob, f)
        assert not feasible

    def test_contraction_certificate(self, rng):
        g = square_with_diagonal()
        prob = sin_problem(g, balanced_vector(rng, 4), 1.35)
        basis = fundamental_cycle_basis(g)
        for u in ([0, 0], [1, 0], [0, -1]):
            _, report = projection_iteration(prob, basis, u)
            assert report.contraction_verified
            steps = report.weighted_steps
            for a, b in zip(steps, steps[1:]):
                assert b <= report.rate * a + 1e-12

    def test_unique_limit_from_random_starts(self, rng):
        prob = sin_problem(ring_graph(5), balanced_vector(rng, 5, 0.2), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        f_star, _ = projection_iteration(prob, basis, [1], rho=1e-12)
        kernel = basis.cycles[0].vector.astype(float)
        for _ in range(20):
            f = prob.cutset_flow + rng.normal() * kernel
            for _ in range(400):
                f = winding_fixed_point_map(prob, basis, [1], f)
            assert np.max(np.abs(f - f_star)) < 1e-7

    def test_budget_guard_fires_on_corrupted_rate(self, rng):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        prob.__dict__["contraction_rate"] = 1e-6  # force an absurd budget
        with pytest.raises(ConvergenceBudgetError):
            projection_iteration(prob, basis, [1], rho=1e-12)

    def test_rho_validation(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        with pytest.raises(InputError):
            projection_iteration(prob, basis, [0], rho=0.0)


class TestNonFiniteInputs:
    """NaN and inf are refused where a problem, a family or a tolerance is
    built, rather than surfacing as NaN rates or undecided cells."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FlowFunction.linear(math.nan),
            lambda: FlowFunction.linear(math.inf),
            lambda: FlowFunction.fourier([math.nan]),
            lambda: FlowFunction.fourier([1.0, math.inf]),
        ],
        ids=["linear-nan", "linear-inf", "fourier-nan", "fourier-inf"],
    )
    def test_family_parameters(self, make):
        before = len(flows_module._FAMILIES)
        with pytest.raises(InputError, match="finite"):
            make()
        assert len(flows_module._FAMILIES) == before

    def test_certify_refuses_a_nan_slope(self):
        fn = FlowFunction(evaluate=np.sin, derivative=lambda y: np.full_like(y, math.nan))
        with pytest.raises(GammaError):
            fn.certify(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_supply(self, bad):
        with pytest.raises(InputError, match="p must be finite"):
            sin_problem(ring_graph(5), [bad, -bad, 0.0, 0.0, 0.0], 1.0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_rho(self, rho):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        with pytest.raises(InputError, match="rho must be finite and positive"):
            solve_all(prob, rho=rho)
        with pytest.raises(InputError, match="rho must be finite and positive"):
            projection_iteration(prob, basis, [0], rho=rho)
        # A verdict-only solve takes rho = inf; NaN is refused.
        if math.isnan(rho):
            with pytest.raises(InputError, match="rho must be positive"):
                decide_cells(prob, basis, [[0]], rho)
        else:
            assert decide_cells(prob, basis, [[-1], [0], [1], [2]], rho)[1].feasible.tolist() == [True] * 3 + [False]


class TestFeasibility:
    def test_zero_flow_feasible(self):
        prob = sin_problem(triangle(), np.zeros(3), 0.5)
        ok, margins = check_feasibility(prob, np.zeros(3))
        assert ok and np.all(margins > 0)

    def test_ring5_splay_flow_gamma_14(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        f = math.sin(TWO_PI / 5) * np.ones(5)
        ok, _ = check_feasibility(prob, f)
        assert ok  # 0.95106 <= sin(1.4) = 0.98545

    def test_ring5_splay_flow_gamma_12(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.2)
        f = math.sin(TWO_PI / 5) * np.ones(5)
        ok, margins = check_feasibility(prob, f)
        assert not ok  # 0.95106 > sin(1.2) = 0.93204
        assert np.all(margins < 0)


class TestRecoverPhases:
    def test_zero(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        theta = recover_phases(prob, basis, [0], np.zeros(5))
        assert phases_equal_mod_rotation(theta, np.zeros(5), 1e-12)

    def test_pentagon_splay(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        f, _ = projection_iteration(prob, basis, [1], rho=1e-12)
        theta = recover_phases(prob, basis, [1], f)
        assert phases_equal_mod_rotation(theta, splay_state(5), 1e-9)
        assert np.array_equal(winding_vector(basis, theta), [1])

    def test_infeasible_rejected(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.2)
        basis = fundamental_cycle_basis(prob.graph)
        f = math.sin(TWO_PI / 5) * np.ones(5)
        with pytest.raises(FeasibilityError):
            recover_phases(prob, basis, [1], f)


class TestSolveAll:
    def test_pentagon_triple(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        sols = solve_all(prob, rho=1e-10)
        assert [int(s.u[0]) for s in sols] == [-1, 0, 1]
        basis = fundamental_cycle_basis(prob.graph)
        s1 = sols[2]
        assert phases_equal_mod_rotation(s1.theta, splay_state(5), 1e-7)
        assert loop_flow(basis.cycles[0], s1.f) == pytest.approx(
            5 * math.sin(TWO_PI / 5), abs=1e-6
        )

    def test_loop_flows_increase_with_winding(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        sols = solve_all(prob, basis=basis)
        loops = [loop_flow(basis.cycles[0], s.f) for s in sols]
        assert loops == sorted(loops)
        assert all(b - a > 1e-6 for a, b in zip(loops, loops[1:]))

    def test_flow_winding_bijection(self, rng):
        prob = sin_problem(ring_graph(6), balanced_vector(rng, 6, 0.05), 1.45)
        sols = solve_all(prob)
        assert len(sols) == 3
        for i, a in enumerate(sols):
            for b in sols[i + 1 :]:
                assert not np.array_equal(a.u, b.u)
                assert np.max(np.abs(a.f - b.f)) > 1e-6
                assert not phases_equal_mod_rotation(a.theta, b.theta, 1e-6)

    def test_expo2_count(self):
        from torusflow import builtin_case, case_to_problem

        prob = case_to_problem(builtin_case("expo(2)"), 1.4)
        sols = solve_all(prob)
        assert len(sols) == 9
        seen = {tuple(int(x) for x in s.u) for s in sols}
        assert len(seen) == 9

    def test_k4_at_most_one(self, rng):
        g = complete_graph(4)
        for _ in range(5):
            prob = sin_problem(g, balanced_vector(rng, 4, 0.3), 1.0)
            assert len(solve_all(prob)) <= 1

    def test_tree_delegates_to_acyclic(self):
        prob = sin_problem(_path_graph(3), [0.3, 0.0, -0.3], 1.0)
        sols = solve_all(prob)
        assert len(sols) == 1
        assert sols[0].u.size == 0

    def test_solutions_certified(self, rng):
        prob = sin_problem(square_with_diagonal(), balanced_vector(rng, 4, 0.4), 1.4)
        for sol in solve_all(prob):
            assert sol.report.balance_residual < 1e-8
            assert sol.report.physics_residual < 1e-8
            assert sol.report.constraint_margin >= -1e-9
            assert sol.report.winding_deviation < 1e-6
            assert sol.iteration.contraction_verified

    def test_minimum_basis_gives_same_solution_set(self, rng):
        from torusflow import minimum_cycle_basis

        g = square_with_diagonal()
        prob = sin_problem(g, balanced_vector(rng, 4, 0.3), 1.45)
        by_fund = solve_all(prob, basis=fundamental_cycle_basis(g))
        by_min = solve_all(prob, basis=minimum_cycle_basis(g))
        assert len(by_fund) == len(by_min)
        for a in by_fund:
            assert any(
                phases_equal_mod_rotation(a.theta, b.theta, 1e-8) for b in by_min
            )

    def test_chunk_boundaries_do_not_change_solutions(self, monkeypatch):
        # expo(3) has 27 feasible cells; the mesh's 135-cell box holds one solution.
        rng = np.random.default_rng(1)
        mesh = random_connected_graph(rng, 16, extra_edges=4)
        problems = [
            case_to_problem(builtin_case("expo(3)"), 1.4),
            _mixed_problem(rng, mesh, gamma=1.5),
        ]
        default = [solve_all(prob) for prob in problems]
        monkeypatch.setattr(torus_module, "CHUNK_ROWS", 7)
        for prob, want in zip(problems, default):
            got = solve_all(prob)
            assert [s.u.tolist() for s in got] == [s.u.tolist() for s in want]
            for a, b in zip(got, want):
                assert np.max(np.abs(a.f - b.f)) <= 1e-12
                assert a.iteration.iterations == b.iteration.iterations
        assert len(default[0]) == 27 and default[1]

    def test_more_than_64_cycles(self):
        # numpy arrays stop at 64 dimensions; the box must not be one array axis per cycle.
        side = 14
        edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
        edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
        g = WeightedGraph.from_edges(side * side, edges)
        p = balanced_vector(np.random.default_rng(2), g.n, 0.05)
        basis = minimum_cycle_basis(g)
        assert basis.size == 169
        sols = solve_all(sin_problem(g, p, 1.4), basis=basis)
        assert len(sols) == 1 and not sols[0].u.any()

    def test_brute_force_completeness_small(self, rng):
        prob = sin_problem(triangle(), balanced_vector(rng, 3, 0.3), 1.45)
        basis = fundamental_cycle_basis(prob.graph)
        sols = solve_all(prob, basis=basis)
        cells = oracles.grid_cell_minima(prob, basis, steps=200)
        solved = {tuple(int(x) for x in s.u) for s in sols}
        for u, (res, theta) in cells.items():
            if u in solved:
                assert res < 0.05
                sol = next(s for s in sols if tuple(int(x) for x in s.u) == u)
                assert phases_equal_mod_rotation(sol.theta, theta, TWO_PI / 200 * 1.5)
            else:
                assert res > 0.1


class TestDecomposeAndLoopFlow:
    def test_kernel_flow_has_no_cutset_part(self):
        g = ring_graph(5)
        v = fundamental_cycle_basis(g).cycles[0].vector.astype(float)
        f_cut, f_cyc = decompose_flow(g, 2.5 * v)
        assert np.allclose(f_cut, 0.0, atol=1e-12)
        assert np.allclose(f_cyc, 2.5 * v)

    def test_gradient_flow_has_no_cycle_part(self, rng):
        g = square_with_diagonal()
        x = rng.normal(size=4)
        f = g.weight_vector * (g.incidence.T @ x)
        f_cut, f_cyc = decompose_flow(g, f)
        assert np.allclose(f_cyc, 0.0, atol=1e-10)
        assert np.allclose(f_cut, f, atol=1e-10)

    def test_decomposition_properties(self, rng):
        g = random_connected_graph(rng, 8)
        f = rng.normal(size=g.m)
        f_cut, f_cyc = decompose_flow(g, f)
        assert np.allclose(f_cut + f_cyc, f, atol=1e-12)
        assert np.max(np.abs(g.incidence @ f_cyc)) < 1e-10

    def test_matches_dense_laplacian_formula(self, rng):
        # Weights in [0.5, 2]: the cutset part is A-weighted, not orthogonal.
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(2, 12)))
            f = rng.normal(size=g.m)
            B = oracles.incidence(g)
            ref = g.weight_vector * (B.T @ (oracles.laplacian_pinv(g) @ (B @ f)))
            f_cut, f_cyc = decompose_flow(g, f)
            assert np.max(np.abs(f_cut - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(f_cyc - (f - ref))) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_pentagon_splay_is_pure_cycle_flow(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        sols = solve_all(prob)
        s1 = sols[2]
        f_cut, f_cyc = decompose_flow(prob.graph, s1.f)
        assert np.allclose(f_cut, 0.0, atol=1e-10)
        assert np.allclose(f_cyc, s1.f, atol=1e-10)

    def test_loop_flow_values(self):
        basis = fundamental_cycle_basis(ring_graph(5))
        assert loop_flow(basis.cycles[0], np.zeros(5)) == 0.0
        f = math.sin(TWO_PI / 5) * basis.cycles[0].vector
        assert loop_flow(basis.cycles[0], f) == pytest.approx(4.75528, abs=1e-5)


class TestVerifySolution:
    def test_detects_perturbation(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        sol = solve_all(prob)[2]
        good = verify_solution(prob, basis, sol.f, sol.theta, sol.u)
        assert good.within_tolerance()
        bad_f = sol.f.copy()
        bad_f[0] += 1e-3
        bad = verify_solution(prob, basis, bad_f, sol.theta, sol.u)
        assert not bad.within_tolerance()
        wrong_u = verify_solution(prob, basis, sol.f, sol.theta, sol.u - 1)
        assert wrong_u.winding_deviation > 0.5
        assert good.failures() == []
        assert [s.split()[0] for s in bad.failures()] == ["balance", "physics"]
        assert wrong_u.within_tolerance()
        assert [s.split()[0] for s in wrong_u.failures()] == ["winding"]

    def test_nan_is_flagged(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        sol = solve_all(prob)[2]
        nan_f = sol.f.copy()
        nan_f[0] = np.nan
        report = verify_solution(prob, basis, nan_f, sol.theta, sol.u)
        assert not report.within_tolerance()
        assert [s.split()[0] for s in report.failures()] == ["balance", "physics"]
        nan_theta = sol.theta.copy()
        nan_theta[1] = np.nan
        report = verify_solution(prob, basis, sol.f, nan_theta, sol.u)
        assert not report.within_tolerance()
        assert [s.split()[0] for s in report.failures()] == ["physics", "constraint", "winding"]

    @pytest.mark.parametrize("slope, within, past", [(2.0, 3e-10, 7e-10), (0.01, 5e-8, 2e-7)])
    def test_angle_allowance_follows_the_edge_slope(self, slope, within, past):
        # A feasible verdict lets |f_e| pass capacity by FEASIBILITY_SLACK.  On
        # the linear extension that is an angle FEASIBILITY_SLACK / (a h'(gamma))
        # past gamma: 5e-10 for slope 2, tighter than the slack itself, and
        # 1e-7 for slope 0.01.
        g = WeightedGraph.from_edges(2, [(0, 1)])
        for excess, ok in ((within, True), (past, False)):
            theta = np.array([0.0, -(1.0 + excess)])
            f = slope * edge_differences(g, theta)
            prob = FlowNetworkProblem.single_family(g, FlowFunction.linear(slope), [f[0], -f[0]], 1.0)
            report = verify_solution(prob, None, f, theta, [])
            assert report.constraint_margin == pytest.approx(-excess, abs=1e-14)
            assert report.within_allowance == ok
            assert [s.split()[0] for s in report.failures()] == ([] if ok else ["constraint"])


def _mixed_problem(rng, g, gamma=1.3):
    """Per-edge linear flows of mixed slopes with some sine edges: lmin varies."""
    funcs = tuple(
        FlowFunction.sin_family() if rng.random() < 0.3 else FlowFunction.linear(s)
        for s in rng.choice([0.5, 1.0, 2.0], size=g.m)
    )
    return FlowNetworkProblem(graph=g, flow_functions=funcs, p=balanced_vector(rng, g.n, 0.2), gamma=gamma)


def _bases(g):
    return (fundamental_cycle_basis(g), minimum_cycle_basis(g))


class TestCycleSpaceAgainstDenseReference:
    """The k x k cycle-space solve against the dense m x m / n x n formulas."""

    def test_map_matches_dense_projection(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(4, 10)))
            prob = _mixed_problem(rng, g)
            P = cycle_projection(g, prob.lmin).matrix
            la = prob.lmin * g.weight_vector
            for basis in _bases(g):
                C = basis.matrix
                f = prob.cutset_flow + C.T @ rng.normal(scale=0.3, size=basis.size)
                u = rng.integers(-1, 2, size=basis.size)
                offset = TWO_PI * (cycle_edge_pinv(basis) @ u)
                ref = f - P @ (la * (prob.inverse_differences(f) - offset))
                got = winding_fixed_point_map(prob, basis, u, f)
                assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_cutset_flow_matches_laplacian_pinv(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            prob = _mixed_problem(rng, g)
            ref = g.weight_vector * (g.incidence.T @ (oracles.laplacian_pinv(g) @ prob.p))
            assert np.max(np.abs(prob.cutset_flow - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
            if g.cycle_space_dim:
                # A start computed after the map ran on another basis is still
                # taken with the fundamental one: it does not read call history.
                fresh = prob.with_supply(prob.p)
                winding_fixed_point_map(fresh, minimum_cycle_basis(g), [0] * g.cycle_space_dim, g.tree_flow(prob.p))
                assert np.max(np.abs(fresh.cutset_flow - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_recover_phases_matches_polytope_to_torus(self, rng):
        checked = 0
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(4, 9)))
            prob = _mixed_problem(rng, g)
            for basis in _bases(g):
                for sol in solve_all(prob, basis=basis):
                    delta = prob.inverse_differences(sol.f)
                    shifted = delta - TWO_PI * (cycle_edge_pinv(basis) @ sol.u)
                    x = oracles.laplacian_pinv(g) @ (g.incidence @ (g.weight_vector * shifted))
                    ref = polytope_to_torus(basis, x, sol.u)
                    theta = recover_phases(prob, basis, sol.u, sol.f)
                    assert phases_equal_mod_rotation(theta, ref, 1e-10)
                    checked += 1
        assert checked >= 20


class TestEmptyWindingCells:
    """K4 on three 4-cycles: |det| = 2 against the fundamental basis, so some
    feasible fixed points carry a u with no integer cycle shift."""

    def _setup(self):
        g = complete_graph(4)
        basis = explicit_cycle_basis(g, [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)])
        prob = FlowNetworkProblem.single_family(g, FlowFunction.linear(), np.zeros(4), 3.0)
        return g, basis, prob

    def test_recover_phases_raises_on_each_empty_cell(self):
        g, basis, prob = self._setup()
        candidates = list(feasible_winding_vectors(basis, prob.gamma))
        assert len(candidates) == 27
        empty = []
        for u in candidates:
            f, _ = projection_iteration(prob, basis, u)
            if not check_feasibility(prob, f)[0]:
                continue
            try:
                recover_phases(prob, basis, u, f)
            except NonIntegerWindingError:
                empty.append(tuple(u.tolist()))
                with pytest.raises(NonIntegerWindingError):
                    integer_cycle_shift(basis, u)  # the dense reference agrees
        assert len(empty) == 6

    def test_polytope_to_torus_agrees_with_integer_shift(self):
        # At x = 0 the target differences are 2pi C^+ u.  The dense reference
        # checks the open cube, then looks for an integer cycle shift.
        g, basis, _ = self._setup()
        outcomes = Counter()
        for u in itertools.product((-1, 0, 1), repeat=3):
            target = TWO_PI * (cycle_edge_pinv(basis) @ np.array(u))
            want = None
            if np.max(np.abs(target)) >= math.pi:
                want = PolytopeMembershipError
            else:
                try:
                    integer_cycle_shift(basis, u)
                except NonIntegerWindingError:
                    want = NonIntegerWindingError
            outcomes[want] += 1
            if want is not None:
                with pytest.raises(want):
                    polytope_to_torus(basis, np.zeros(4), u)
                continue
            theta = polytope_to_torus(basis, np.zeros(4), u)
            assert np.max(np.abs(edge_differences(g, theta) - target)) < 1e-12
            assert np.array_equal(winding_vector(basis, theta), u)
        assert outcomes == {NonIntegerWindingError: 6, PolytopeMembershipError: 20, None: 1}

    def test_solution_set_matches_fundamental_basis(self):
        g, basis, prob = self._setup()
        by_explicit = solve_all(prob, basis=basis)
        by_fund = solve_all(prob, basis=fundamental_cycle_basis(g))
        assert len(by_explicit) == len(by_fund) >= 1
        for a in by_explicit:
            assert any(phases_equal_mod_rotation(a.theta, b.theta, 1e-10) for b in by_fund)


def _reference_recover(problem, basis, u, f):
    """The one-row phase recovery that `recover_cells` stacks, integrating
    node by node along the tree: canonical phases, and whether u's cell is
    empty."""
    g = problem.graph
    C, a = basis.matrix, g.weight_vector
    # The A-weighted right inverse of C by the dense m-column solve.
    weighted_pinv = (np.linalg.solve((C / a) @ C.T, C) / a).T
    delta = problem.inverse_differences(f)
    delta = delta - weighted_pinv @ (C @ delta - TWO_PI * u)
    parent, parent_edge, order = g.tree
    theta = np.zeros(g.n)
    for v in order[1:]:
        e = parent_edge[v]
        theta[v] = theta[parent[v]] + (delta[e] if g.edges[e][0] == v else -delta[e])
    residue = wrap(g.incidence.T @ theta - delta)
    return wrap(theta - theta[0]), np.max(np.abs(residue)) > TWO_PI * WINDING_INT_TOL


def _reference_verify(problem, basis, f, theta, u):
    """The residuals of one row, from its own f and theta and the dense
    incidence: balance, physics, margin, winding deviation, boundary, and
    whether each edge's angle is within its allowance past gamma."""
    B = problem.graph.incidence
    delta = wrap(B.T @ theta)
    slopes = np.abs([float(h.derivative(np.array(problem.gamma))) for h in problem.flow_functions])
    return (
        np.max(np.abs(B @ f - problem.p)),
        np.max(np.abs(f - problem.edge_flows(delta))),
        problem.gamma - np.max(np.abs(delta)),
        np.max(np.abs(basis.matrix @ delta / TWO_PI - u)),
        np.min(problem.capacity - np.abs(f)) <= FEASIBILITY_SLACK,
        bool(np.all(np.abs(delta) <= problem.gamma + FEASIBILITY_SLACK / (problem.graph.weight_vector * slopes))),
    )


def _check_stacked_rows(problem, basis, U, F, rng):
    """`recover_cells` and `verify_cells` on a stack against one-row calls:
    the reference loops above and the one-row views."""
    thetas, empty = recover_cells(problem, basis, U, F)
    assert thetas.shape == (len(U), problem.graph.n) and empty.shape == (len(U),)
    for u, f, theta, is_empty in zip(U, F, thetas, empty):
        ref_theta, ref_empty = _reference_recover(problem, basis, u, f)
        assert is_empty == ref_empty
        assert np.max(np.abs(wrap(theta - ref_theta))) <= 1e-12
        if is_empty:
            with pytest.raises(NonIntegerWindingError):
                recover_phases(problem, basis, u, f)
        else:
            assert np.max(np.abs(wrap(recover_phases(problem, basis, u, f) - theta))) <= 1e-12
    # The rows of non-empty cells and perturbed copies of them: each row's
    # residuals must come from its own f, theta and u, not from the flow nor
    # from another row.
    F, thetas, U = F[~empty], thetas[~empty], U[~empty]
    F = np.concatenate([F, F + rng.normal(scale=1e-3, size=F.shape)])
    thetas = np.concatenate([thetas, thetas + rng.normal(scale=0.05, size=thetas.shape)])
    U = np.concatenate([U, U + rng.integers(-1, 2, size=U.shape)])
    reports = verify_cells(problem, basis, F, thetas, U)
    assert len(reports) == len(F)
    for f, theta, u, report in zip(F, thetas, U, reports):
        got = dataclasses.astuple(report)
        view = dataclasses.astuple(verify_solution(problem, basis, f, theta, u))
        for want in (_reference_verify(problem, basis, f, theta, u), view):
            assert got[4:] == want[4:]
            assert np.max(np.abs(np.subtract(got[:4], want[:4]))) <= 1e-12
    return empty


def _ring_chain(rng, lengths, chords):
    """Rings of the given lengths, each joined to the next at one node, plus
    random chords, with weights near 1: a mesh whose winding box holds many
    feasible cells."""
    edges, start, n = [], 0, 1
    for length in lengths:
        ring = [start] + list(range(n, n + length - 1))
        n += length - 1
        edges += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
        start = ring[length // 2]
    pairs = {tuple(sorted(e)) for e in edges}
    while chords:
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (a, b) not in pairs:
            pairs.add((a, b))
            edges.append((a, b))
            chords -= 1
    return WeightedGraph.from_edges(n, edges, rng.uniform(0.8, 1.25, size=len(edges)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(6, 10), min_size=2, max_size=3),
    chords=st.integers(0, 1),
    gamma=st.sampled_from([1.0, 1.4, math.pi / 2 - 0.01]),
    scale=st.sampled_from([0.0, 0.1]),
)
def test_stacked_recovery_and_certificates_match_rows(seed, lengths, chords, gamma, scale):
    rng = np.random.default_rng(seed)
    g = _ring_chain(rng, lengths, chords)
    funcs = tuple(
        FlowFunction.sin_family() if rng.random() < 0.5 else FlowFunction.linear(s)
        for s in rng.choice([0.8, 1.0, 1.25], size=g.m)
    )
    problem = FlowNetworkProblem(graph=g, flow_functions=funcs, p=balanced_vector(rng, g.n, scale), gamma=gamma)
    for basis in _bases(g):
        box = np.array(list(feasible_winding_vectors(basis, gamma)))
        flows, verdicts = decide_cells(problem, basis, box)
        rows = verdicts.feasible
        _check_stacked_rows(problem, basis, box[rows], flows[rows], rng)


def test_stacked_recovery_marks_each_empty_cell():
    g = complete_graph(4)
    problem = FlowNetworkProblem.single_family(g, FlowFunction.linear(), np.zeros(4), 3.0)
    explicit = explicit_cycle_basis(g, [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)])
    for basis, empties in ((explicit, 6), (fundamental_cycle_basis(g), 0)):
        box = np.array(list(feasible_winding_vectors(basis, problem.gamma)))
        flows, verdicts = decide_cells(problem, basis, box)
        rows = verdicts.feasible
        empty = _check_stacked_rows(problem, basis, box[rows], flows[rows], np.random.default_rng(3))
        assert int(empty.sum()) == empties
    thetas, empty = recover_cells(problem, explicit, np.empty((0, 3)), np.empty((0, g.m)))
    assert thetas.shape == (0, 4) and empty.shape == (0,)
    assert verify_cells(problem, explicit, np.empty((0, g.m)), thetas, np.empty((0, 3))) == []


def test_an_oversized_box_is_refused_before_any_cut_is_formed(monkeypatch):
    # The 10x10 lattice's fundamental box holds more than int64 cells; its
    # cut pool would be 24,553 rows (126,356 on the 14x14 lattice).
    def refuse(*args):
        raise AssertionError("the cut pool was formed")

    monkeypatch.setattr(flows_module, "winding_cuts", refuse)
    L = 10
    edges = [(r * L + c, r * L + c + 1) for r in range(L) for c in range(L - 1)]
    edges += [(r * L + c, (r + 1) * L + c) for r in range(L - 1) for c in range(L)]
    prob = sin_problem(WeightedGraph.from_edges(L * L, edges), np.zeros(L * L), 1.4)
    with pytest.raises(InputError, match="too many to enumerate"):
        solve_all(prob)


def test_solve_path_forms_no_dense_matrix(monkeypatch, tmp_path):
    """With the dense reference routines stubbed out everywhere and the
    graph's incidence matrix refused, every library path still runs: the
    solves, ptc, decomposition, the polytope maps and the cycle bases."""
    from torusflow import WeightedGraph, cli, serialize

    def refuse(*args, **kwargs):
        raise AssertionError("dense reference routine called on a library path")

    # integer_cycle_shift is not among them: ptc reads it, a k x k solve on
    # the off-tree block, to refuse a cell outside the winding image.
    names = ("deflated_pinv", "cycle_projection", "cycle_edge_pinv", "integer_shift_solve")
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "torusflow" or mod_name.startswith("torusflow."):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setattr(WeightedGraph, "incidence", property(refuse))

    expo = case_to_problem(builtin_case("expo(2)"), 1.4)
    assert len(solve_all(expo, basis=fundamental_cycle_basis(expo.graph))) == 9
    L = 6
    edges = [(r * L + c, r * L + c + 1) for r in range(L) for c in range(L - 1)]
    edges += [(r * L + c, (r + 1) * L + c) for r in range(L - 1) for c in range(L)]
    lattice = WeightedGraph.from_edges(L * L, edges)
    rng = np.random.default_rng(6)
    prob = sin_problem(lattice, balanced_vector(rng, L * L, 0.05), 1.4)
    sols = solve_all(prob, basis=minimum_cycle_basis(lattice))
    assert len(sols) == 1 and not np.any(sols[0].u)
    assert len(solve_all(sin_problem(_path_graph(4), [0.3, 0.0, -0.1, -0.2], 1.0))) == 1
    res = ptc(builtin_case("ring12-asym"), [1], math.pi / 2 - 0.01, tol=1e-4)
    assert res.ptc == pytest.approx(oracles.ring_two_path_ptc(12, 11, 2, 1, math.pi / 2 - 0.01), abs=1e-3)

    f = rng.normal(size=lattice.m)
    f_cut, f_cyc = decompose_flow(lattice, f)
    assert np.max(np.abs(lattice.divergence(f_cyc))) < 1e-10
    assert np.max(np.abs(lattice.divergence(f_cut) - lattice.divergence(f))) < 1e-10
    ring = ring_graph(5)
    for basis, theta in (
        (minimum_cycle_basis(ring), splay_state(5)),
        (minimum_cycle_basis(lattice), rng.uniform(-math.pi, math.pi, L * L)),
    ):
        x, u = torus_to_polytope(basis, theta)
        assert phases_equal_mod_rotation(polytope_to_torus(basis, x, u), theta, 1e-9)
    assert explicit_cycle_basis(square_with_diagonal(), [(0, 1, 3), (1, 2, 3)]).size == 2

    problem_path, sol_path, out = tmp_path / "expo.json", tmp_path / "sol.json", tmp_path / "dec.json"
    problem_path.write_text(serialize.dumps_canonical(serialize.problem_to_dict(expo)))
    sol_path.write_text(serialize.dumps_canonical(serialize.solution_to_dict(solve_all(expo)[0])))
    assert cli.main(["decompose", str(problem_path), str(sol_path), "--basis", "minimum", "--out", str(out)]) == 0


def _exhaustive_solve(problem, basis):
    """`solve_all` with the cut pool patched to be empty: every box cell is decided."""
    def no_cuts(basis, gamma):
        return np.zeros((0, basis.size), dtype=np.int64), np.zeros(0, dtype=np.int64)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows_module, "winding_cuts", no_cuts)
        return solve_all(problem, basis=basis)


def _assert_pruned_solve_is_exhaustive(problem, basis):
    got, want = solve_all(problem, basis=basis), _exhaustive_solve(problem, basis)
    assert [s.u.tolist() for s in got] == [s.u.tolist() for s in want]
    for a, b in zip(got, want):
        assert np.max(np.abs(a.f - b.f), initial=0.0) <= 1e-12
        assert a.u.base is None
    return got


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 14),
    k=st.integers(2, 8),
    gamma=st.sampled_from([1.0, 1.4, math.pi / 2 - 0.01]),
)
def test_pruned_solve_matches_exhaustive(seed, n, k, gamma):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=k)
    problem = _mixed_problem(rng, g, gamma)
    bases = [b for b in _bases(g) if count_feasible_winding_vectors(b, gamma) <= 2000]
    assume(bases)
    for basis in bases:
        _assert_pruned_solve_is_exhaustive(problem, basis)


def test_pruned_solve_matches_exhaustive_on_fixed_boxes():
    rng = np.random.default_rng(4)
    lattice = lattice_with_detours()
    expo = case_to_problem(builtin_case("expo(5)"), 1.4)
    cases = [
        # k = 66: one cut binds, |u_65 - u_66| <= 3 in a 25-cell box.
        (sin_problem(lattice, balanced_vector(rng, lattice.n, 0.05), 1.4), minimum_cycle_basis(lattice)),
        (sin_problem(complete_graph(4), balanced_vector(rng, 4, 0.3), 0.5), fundamental_cycle_basis(complete_graph(4))),
        (expo, fundamental_cycle_basis(expo.graph)),
    ]
    counts = [len(_assert_pruned_solve_is_exhaustive(problem, basis)) for problem, basis in cases]
    assert cases[0][1].size > 64 and counts[2] == 243


class TestBasisOfAnotherGraph:
    # g1 and g2 share four edges and have two independent cycles each: g2's
    # basis on g1's problem must raise, not let solve_all return [].
    g1 = WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    g2 = WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    p = [0.3, -0.1, -0.1, -0.1]

    def problem(self):
        return sin_problem(self.g1, self.p, 1.4)

    def test_own_basis_finds_the_one_solution(self):
        # An equal graph built anew is the same graph: the check is by value.
        twin = WeightedGraph.from_edges(4, list(self.g1.edges))
        solutions = solve_all(self.problem(), basis=fundamental_cycle_basis(twin))
        assert [s.u.tolist() for s in solutions] == [[0, 0]]

    @pytest.mark.parametrize(
        "call",
        [
            lambda problem, basis: solve_all(problem, basis=basis),
            lambda problem, basis: decide_cells(problem, basis, np.zeros((1, 2))),
            lambda problem, basis: decide_cell(problem, basis, [0, 0]),
            lambda problem, basis: projection_iteration(problem, basis, [0, 0]),
            lambda problem, basis: recover_cells(problem, basis, np.zeros((1, 2)), np.zeros((1, 5))),
        ],
        ids=["solve_all", "decide_cells", "decide_cell", "projection_iteration", "recover_cells"],
    )
    def test_another_graphs_basis_raises(self, call):
        with pytest.raises(InputError, match="another graph"):
            call(self.problem(), fundamental_cycle_basis(self.g2))

    def test_ptc_probe_raises(self):
        # The same ring with other weights is another graph.
        case = builtin_case("ring12-sym")
        graph = case_to_problem(case, 1.4).graph
        other = WeightedGraph.from_edges(graph.n, graph.edges, 2.0 * graph.weight_vector)
        with pytest.raises(InputError, match="another graph"):
            ptc(case, [0], 1.4, basis=fundamental_cycle_basis(other))


def test_contraction_rate_on_a_graph_with_no_edge():
    prob = sin_problem(WeightedGraph.from_edges(1, []), [0.0], 1.0)
    assert prob.contraction_rate == 0.0


class TestWindingVectorsReadStrictly:
    """Every entry point that takes a winding vector refuses one that is not
    integral, finite and of the basis's length, which a cast to int64
    would truncate (0.7 to 0) or wrap, instead of answering for another
    cell."""

    case = builtin_case("ring12-sym")
    problem = case_to_problem(case, 1.4)
    basis = fundamental_cycle_basis(problem.graph)
    f = decide_cell(problem, basis, [0])[0]
    calls = {
        "decide_cells": lambda self, u: decide_cells(self.problem, self.basis, [u]),
        "decide_cell": lambda self, u: decide_cell(self.problem, self.basis, u),
        "recover_cells": lambda self, u: recover_cells(self.problem, self.basis, [u], self.f[None]),
        "recover_phases": lambda self, u: recover_phases(self.problem, self.basis, u, self.f),
        "projection_iteration": lambda self, u: projection_iteration(self.problem, self.basis, u),
        "winding_fixed_point_map": lambda self, u: winding_fixed_point_map(self.problem, self.basis, u, self.f),
        "ptc": lambda self, u: ptc(self.case, u, 1.4),
        "integer_cycle_shift": lambda self, u: integer_cycle_shift(self.basis, u),
        "polytope_to_torus": lambda self, u: polytope_to_torus(self.basis, np.zeros(12), u),
    }

    @pytest.mark.parametrize("u", [[0.7], [math.nan], [math.inf], [0, 0]], ids=["0.7", "nan", "inf", "length-2"])
    @pytest.mark.parametrize("name", list(calls))
    def test_refused(self, name, u):
        with pytest.raises(InputError, match="winding vector"):
            self.calls[name](self, u)

    @pytest.mark.parametrize("name", list(calls))
    def test_int64_and_integral_floats_pass(self, name):
        for u in ([np.int64(0)], np.zeros(1, dtype=np.int64), [0.0], np.zeros(1)):
            self.calls[name](self, u)
