"""The certified Newton solve per winding cell, against the projection
iteration it replaced on the solve path, and its three-way verdict."""
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torusflow.flows as flows
from torusflow import serialize
from conftest import (
    balanced_vector,
    bridged_blocks,
    complete_graph,
    lattice_with_detours,
    random_connected_graph,
    ring_graph,
    sin_problem,
    square_with_diagonal,
)
from torusflow import (
    ElasticEnergy,
    FlowFunction,
    FlowNetworkProblem,
    InputError,
    NonIntegerWindingError,
    PowerCase,
    TorusFlowError,
    WeightedGraph,
    builtin_case,
    case_to_problem,
    check_feasibility,
    count_feasible_winding_vectors,
    feasible_winding_vectors,
    fundamental_cycle_basis,
    minimum_cycle_basis,
    projection_iteration,
    ptc,
    recover_phases,
    solve_all,
    solve_elastic,
    winding_fixed_point_map,
)
from torusflow.flows import FEASIBILITY_SLACK, decide_cell, decide_cells

NEAR_LIMIT = math.pi / 2 - 0.01


def _projection_solutions(problem, basis):
    """u -> flow of every feasible, non-empty cell, by the projection iteration."""
    out = {}
    for u in feasible_winding_vectors(basis, problem.gamma):
        f, _ = projection_iteration(problem, basis, u, rho=1e-12)
        if not check_feasibility(problem, f)[0]:
            continue
        try:
            recover_phases(problem, basis, u, f)
        except NonIntegerWindingError:
            continue
        out[tuple(u.tolist())] = f
    return out


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    extra=st.integers(1, 3),
    gamma=st.sampled_from([1.0, 1.4, NEAR_LIMIT]),
    scale=st.sampled_from([0.0, 0.2, 0.6]),
    mixed=st.booleans(),
)
def test_newton_matches_projection_on_random_meshes(seed, n, extra, gamma, scale, mixed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=extra)
    if g.cycle_space_dim == 0:
        return
    if mixed:
        funcs = tuple(
            FlowFunction.sin_family() if rng.random() < 0.5 else FlowFunction.linear(s)
            for s in rng.choice([0.5, 1.0, 2.0], size=g.m)
        )
    else:
        funcs = (FlowFunction.sin_family(),) * g.m
    problem = FlowNetworkProblem(graph=g, flow_functions=funcs, p=balanced_vector(rng, n, scale), gamma=gamma)
    for basis in (fundamental_cycle_basis(g), minimum_cycle_basis(g)):
        ref = _projection_solutions(problem, basis)
        sols = solve_all(problem, basis=basis)
        assert [tuple(s.u.tolist()) for s in sols] == sorted(ref)
        for sol in sols:
            assert np.max(np.abs(sol.f - ref[tuple(sol.u.tolist())])) <= 1e-9


def _near_limit_cases():
    ring = case_to_problem(builtin_case("ring12-asym"), NEAR_LIMIT)
    return [
        sin_problem(ring_graph(5), np.zeros(5), NEAR_LIMIT),
        case_to_problem(builtin_case("expo(3)"), NEAR_LIMIT),
        ring,
        ring.with_supply(1.5 * ring.p),
    ]


@pytest.mark.parametrize("index", range(4))
def test_feasible_verdicts_clear_their_error_bound(index):
    problem = _near_limit_cases()[index]
    basis = fundamental_cycle_basis(problem.graph)
    sols = solve_all(problem, basis=basis)
    assert sols
    for sol in sols:
        it = sol.iteration
        margin = float(np.min(problem.capacity - np.abs(sol.f)))
        assert it.feasible and it.decided
        assert margin - it.error_bound >= -FEASIBILITY_SLACK
        assert 0.0 <= it.error_bound < flows.DEFAULT_RHO
        assert it.contraction_verified
        # The bound holds against the same cell solved to the rounding floor.
        tight, tight_it = decide_cell(problem, basis, sol.u, flows.TIGHT_RHO)
        assert np.max(np.abs(sol.f - tight)) <= it.error_bound + tight_it.error_bound


def test_a_solve_at_the_rounding_floor_bounds_its_rounding():
    # ring12-asym's cell [0] near the limit, solved to the rounding floor,
    # ends on a T_u step that rounds to exactly 0.0.  Its bound is then the
    # rounding term alone, and the default solve lies within the two bounds.
    ring = _near_limit_cases()[2]
    basis = fundamental_cycle_basis(ring.graph)
    tight, tight_it = decide_cell(ring, basis, [0], flows.TIGHT_RHO)
    assert tight_it.feasible and tight_it.final_step == 0.0
    assert 0.0 < tight_it.error_bound < 1e-12
    f, it = decide_cell(ring, basis, [0])
    assert np.max(np.abs(f - tight)) <= it.error_bound + tight_it.error_bound


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 10),
    extra=st.integers(1, 3),
    gamma=st.sampled_from([1.0, 1.4, NEAR_LIMIT]),
    mixed=st.booleans(),
    rho=st.sampled_from([flows.DEFAULT_RHO, flows.TIGHT_RHO]),
)
def test_decided_rows_never_read_a_zero_bound(seed, n, extra, gamma, mixed, rho):
    # With p != 0 no row's flow is exactly 0, so every bound holds a rounding
    # term, also where the last T_u step rounds to 0.0 (as it can on linear
    # edges, where the step is exact).
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=extra)
    if g.cycle_space_dim == 0:
        return
    sine = FlowFunction.sin_family()
    funcs = tuple(sine if not mixed or rng.random() < 0.5 else FlowFunction.linear(2.0) for _ in range(g.m))
    p = balanced_vector(rng, n, 0.6)
    assume(np.any(p != 0.0))
    problem = FlowNetworkProblem(graph=g, flow_functions=funcs, p=p, gamma=gamma)
    for basis in (fundamental_cycle_basis(g), minimum_cycle_basis(g)):
        box = np.array(list(feasible_winding_vectors(basis, gamma)))
        _, verdicts = decide_cells(problem, basis, box, rho)
        decided = verdicts.feasible | verdicts.infeasible.any(axis=1)
        assert decided.any() and np.all(verdicts.error_bound[decided] > 0.0)


def test_linearised_start_saves_newton_steps():
    # From the cutset flow, expo(5)'s 243 cells took 6.97 steps a row.
    expo = case_to_problem(builtin_case("expo(5)"), 1.4)
    basis = fundamental_cycle_basis(expo.graph)
    box = np.array(list(feasible_winding_vectors(basis, 1.4)))
    _, verdicts = decide_cells(expo, basis, box)
    assert len(box) == 243 and verdicts.feasible.all()
    assert verdicts.iterations.mean() <= 5.5
    # Linear flows are their own linearisation: every cell starts at its
    # fixed point, and a feasible one takes no step.
    g = square_with_diagonal()
    p = balanced_vector(np.random.default_rng(5), g.n)
    linear = FlowNetworkProblem.single_family(g, FlowFunction.linear(2.0), p, 1.4)
    basis = fundamental_cycle_basis(g)
    _, verdicts = decide_cells(linear, basis, np.array(list(feasible_winding_vectors(basis, 1.4))))
    assert verdicts.feasible.any() and np.all(verdicts.iterations[verdicts.feasible] == 0)


def _two_cycles_weights_apart():
    """A square with one diagonal: two cycles, weights 100x apart, sine and
    slope-2 linear edges, so Lmin A spans 0.01 to 200."""
    g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], [1.0, 1.0, 100.0, 100.0, 100.0])
    sine, linear = FlowFunction.sin_family(), FlowFunction.linear(2.0)
    p = np.array([-11.1629803, 6.00244749, 11.01571215, -5.85517934])
    return FlowNetworkProblem(graph=g, flow_functions=(sine, sine, linear, linear, sine), p=p, gamma=NEAR_LIMIT)


def test_map_inverse_matches_the_dense_map_factor():
    # K = C^T M^{-1} from the k x k inverse, against the m-column solve.
    rng = np.random.default_rng(4)
    problems = [_two_cycles_weights_apart()] + _near_limit_cases()
    for n, extra in ((12, 6), (16, 9)):
        g = random_connected_graph(rng, n, extra)
        problems.append(sin_problem(g, balanced_vector(rng, n), 1.4))
    # A lattice's minimum basis takes the edge-pair pattern.
    lattice = lattice_with_detours(14)
    lattice = WeightedGraph.from_edges(lattice.n, lattice.edges, rng.uniform(0.5, 2.0, size=lattice.m))
    problems.append(sin_problem(lattice, np.zeros(lattice.n), 1.4))
    # Uniform Lmin other than sine's, and one sine bound from two separate
    # flow-function objects (copies of the shared sine, so two edge groups):
    # each shares the phase fit's inverse, scaled.
    g = random_connected_graph(rng, 10, 5)
    g = WeightedGraph.from_edges(g.n, g.edges, rng.uniform(0.5, 2.0, size=g.m))
    p = balanced_vector(rng, g.n)
    two_sines = tuple(replace(FlowFunction.sin_family()) for _ in range(2))
    problems += [
        FlowNetworkProblem.single_family(g, FlowFunction.linear(2.0), p, 1.4),
        FlowNetworkProblem.single_family(g, FlowFunction.fourier([1.0, 0.05]), p, 1.4),
        FlowNetworkProblem(graph=g, flow_functions=tuple(two_sines[e % 2] for e in range(g.m)), p=p, gamma=1.4),
    ]
    for problem in problems:
        for basis in (fundamental_cycle_basis(problem.graph), minimum_cycle_basis(problem.graph)):
            C = basis.matrix
            dense = np.linalg.solve((C / problem._lmin_a) @ C.T, C).T
            K = C.T @ flows._map_inverse(problem, basis)
            assert np.max(np.abs(K - dense)) <= 1e-10 * np.max(np.abs(dense))


def test_single_family_solve_forms_one_gram_inverse(monkeypatch):
    # With one slope bound l on every edge the map's Gram inverse is l times
    # the phase fit's, which the basis caches; a problem whose Lmin differs
    # between edges inverts both Grams.
    side = 14
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    lattice = WeightedGraph.from_edges(side * side, edges)
    lattice_problem = sin_problem(lattice, balanced_vector(np.random.default_rng(14), lattice.n, 0.05), 1.4)
    cases = [(lattice_problem, minimum_cycle_basis, 1), (_two_cycles_weights_apart(), fundamental_cycle_basis, 2)]
    for name in ("pentagon", "expo(3)"):
        problem = case_to_problem(builtin_case(name), 1.4)
        cases += [(problem, fundamental_cycle_basis, 1), (problem, minimum_cycle_basis, 1)]
    # Equal bounds from separate flow-function objects share too: expo(3)
    # with its edges alternating between two copies of the shared sine.
    two_sines = tuple(replace(FlowFunction.sin_family()) for _ in range(2))
    alternating = tuple(two_sines[e % 2] for e in range(problem.graph.m))
    cases.append((replace(problem, flow_functions=alternating), minimum_cycle_basis, 1))
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
    for problem, make_basis, inverses in cases:
        basis = make_basis(problem.graph)
        calls.clear()
        solve_all(problem, basis=basis)
        assert len(calls) == inverses


def test_map_contracts_in_map_norm_only():
    problem = _two_cycles_weights_apart()
    basis = fundamental_cycle_basis(problem.graph)
    rate = problem.contraction_rate
    la = problem.lmin * problem.graph.weight_vector

    def lmin_a_norm(v):
        return float(np.sqrt(np.sum(la * v**2)))

    rng = np.random.default_rng(0)
    worst_map = worst_weighted = 0.0
    for _ in range(300):
        f, g = (problem.cutset_flow + basis.matrix.T @ (rng.normal(size=2) * s) for s in rng.choice([0.01, 1, 100], 2))
        tf, tg = (winding_fixed_point_map(problem, basis, [0, 0], x) for x in (f, g))
        worst_map = max(worst_map, problem.map_norm(tf - tg) / problem.map_norm(f - g))
        worst_weighted = max(worst_weighted, lmin_a_norm(tf - tg) / lmin_a_norm(f - g))
    assert worst_map <= rate * (1 + 1e-12)
    # In the Lmin A norm T_u is no contraction here: the certificate needs map_norm.
    assert worst_weighted > 1.0


def test_projection_iteration_verifies_its_contraction_in_map_norm():
    # Squares with a diagonal, weights 1 or 100 and sine or slope-2 edges at
    # random: Lmin A is far from uniform, where a step measured in the
    # Lmin A norm can grow (27 of these 150 runs read False that way).
    rng = np.random.default_rng(3)
    sine, linear = FlowFunction.sin_family(), FlowFunction.linear(2.0)
    runs = 0
    for _ in range(75):
        weights = rng.choice([1.0, 100.0], size=5)
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], weights)
        funcs = tuple(sine if rng.random() < 0.5 else linear for _ in range(5))
        p = rng.normal(size=4)
        p = (p - p.mean()) * rng.uniform(0.1, 1.0) * weights.min()
        for gamma in (1.4, NEAR_LIMIT):
            problem = FlowNetworkProblem(graph=g, flow_functions=funcs, p=p, gamma=gamma)
            _, it = projection_iteration(problem, fundamental_cycle_basis(g), [0, 0], 1e-6)
            assert it.contraction_verified
            runs += 1
    assert runs == 150


def test_step_budgets_read_steps_per_edge(monkeypatch):
    # Both budgets count the rate-contractions that take the first map-norm
    # step d0, read per edge through sqrt(max Lmin a) (about 14 here), below
    # the target; a budget taken in the map norm itself would be too small.
    problem = _two_cycles_weights_apart()
    basis = fundamental_cycle_basis(problem.graph)
    u, rho, rate = np.zeros(2), 1e-6, problem.contraction_rate
    to_edge = math.sqrt(float(np.max(problem.lmin * problem.graph.weight_vector)))
    assert to_edge > 10.0
    f0 = problem.cutset_flow
    d0 = problem.map_norm(winding_fixed_point_map(problem, basis, u, f0) - f0)
    ratios = []
    budget = flows._step_budget
    monkeypatch.setattr(flows, "_step_budget", lambda r, ratio: ratios.extend(np.ravel(ratio)) or budget(r, ratio))
    projection_iteration(problem, basis, u, rho)
    decide_cell(problem, basis, u, rho)
    expected = [rho / (d0 * to_edge), flows.TIGHT_RHO * (1.0 - rate) / (d0 * to_edge)]
    assert ratios == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_step_budget_is_the_per_row_count():
    # The stack's budgets against the count for one row at a time, with a
    # ratio of 1 and the inf of a zero distance, and rate 0 (linear flows).
    def one_row(rate, ratio):
        if ratio >= 1.0 or rate == 0.0:
            return 11
        return math.ceil(math.log(ratio) / math.log(rate)) + 10

    ratios = np.append(10.0 ** np.linspace(-25.0, 1.0, 200), [1.0, math.inf])
    for rate in (0.0, 0.3, 0.83, 0.99):
        assert flows._step_budget(rate, ratios).tolist() == [one_row(rate, r) for r in ratios.tolist()]


@pytest.mark.parametrize("rho", [1.0, 1e-2, 1e-4, flows.DEFAULT_RHO])
def test_error_bound_covers_distance_with_weights_apart(rho):
    problem = _two_cycles_weights_apart()
    basis = fundamental_cycle_basis(problem.graph)
    for u in feasible_winding_vectors(basis, problem.gamma):
        f, it = decide_cell(problem, basis, u, rho)
        tight, tight_it = decide_cell(problem, basis, u, flows.TIGHT_RHO)
        assert it.decided and it.contraction_verified
        if it.feasible:
            assert it.error_bound < rho
        else:
            # An infeasible row stops at its certificate: a named edge whose
            # margin lies beyond the slack by more than the bound.
            margins = problem.capacity - np.abs(f)
            assert it.infeasible_edges
            assert all(margins[e] + it.error_bound < -FEASIBILITY_SLACK for e in it.infeasible_edges)
        assert np.max(np.abs(f - tight)) <= it.error_bound + tight_it.error_bound


def test_rounding_floor_ends_the_solve():
    # Linear flows give rate 0: T_u is exact, so one step reaches the fixed
    # point, and the next, which shrinks the step by less than the rate, is
    # at the rounding floor.  The solve stops there instead of crawling on.
    g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], [100.0, 100.0, 100.0, 1.0, 100.0])
    funcs = tuple(FlowFunction.linear(s) for s in (0.5, 0.5, 0.5, 10.0, 2.0))
    p = np.array([-15.17876928, 46.51896682, 22.28365998, -53.62385751])
    problem = FlowNetworkProblem(graph=g, flow_functions=funcs, p=p - p.mean(), gamma=1.0)
    basis = fundamental_cycle_basis(g)
    for rho in (flows.DEFAULT_RHO, flows.TIGHT_RHO):
        _, it = decide_cell(problem, basis, [0, 0], rho)
        assert it.rate == 0.0 and it.iterations == 1 and it.decided
        assert it.error_bound < flows.DEFAULT_RHO


@pytest.mark.parametrize("index", [0, 3])
def test_newton_takes_few_steps_near_the_limit(index):
    # The pentagon's splay cell starts in the linear tail: its linearised
    # loop flow, 2pi/5 on every edge, passes the capacity sin(gamma).
    problem = _near_limit_cases()[index]
    basis = fundamental_cycle_basis(problem.graph)
    f, it = decide_cell(problem, basis, [1])
    ref, ref_it = projection_iteration(problem, basis, [1])
    assert it.iterations <= 15 < ref_it.iterations
    assert it.rate == pytest.approx(0.99, abs=1e-3)
    for a, b in zip(it.weighted_steps, it.weighted_steps[1:]):
        assert b <= it.rate * a + 1e-12
    assert np.max(np.abs(f - ref)) <= it.error_bound + 1e-8


def test_three_way_verdict():
    problem = sin_problem(ring_graph(5), np.zeros(5), 1.4)
    basis = fundamental_cycle_basis(problem.graph)
    _, it = decide_cell(problem, basis, [1])
    assert it.feasible and it.decided and it.infeasible_edges == ()
    _, it = decide_cell(problem, basis, [3])
    assert not it.feasible and it.decided and it.infeasible_edges == (0, 1, 2, 3, 4)


def test_undecided_cell_keeps_iterating_past_rho():
    problem = sin_problem(ring_graph(5), np.zeros(5), 1.4)
    basis = fundamental_cycle_basis(problem.graph)
    f, it = decide_cell(problem, basis, [1], 0.3)
    margin = float(np.min(problem.capacity - np.abs(f)))  # 0.034
    bounds = np.array(it.weighted_steps) * (it.error_bound / it.weighted_steps[-1])
    # The first bound below rho is above the margin, so the cell is not yet
    # decided there; the solve goes on from that point until it is.
    assert margin < bounds[bounds < 0.3][0]
    assert it.feasible and it.error_bound <= margin


def _with_error_bound(monkeypatch, bound):
    """Make every Newton solve stop at the given certified error bound, by
    flooring the T_u step it measures at bound / (error bound per unit step)."""
    original = FlowNetworkProblem.map_norm

    def floored(self, v):
        per_step = math.sqrt(float(np.max(self.lmin * self.graph.weight_vector))) / (1.0 - self.contraction_rate)
        return np.maximum(original(self, v), bound / per_step)

    monkeypatch.setattr(FlowNetworkProblem, "map_norm", floored)


def test_undecided_cell_is_reported(monkeypatch):
    problem = sin_problem(ring_graph(5), np.zeros(5), 1.4)
    basis = fundamental_cycle_basis(problem.graph)
    # The splay flow sin(2pi/5) is 0.034 under capacity sin(1.4).
    _with_error_bound(monkeypatch, 0.05)
    _, it = decide_cell(problem, basis, [1])
    assert not it.feasible and not it.infeasible_edges and not it.decided
    with pytest.raises(TorusFlowError, match=r"winding vector \[-1\] is undecided"):
        solve_all(problem, basis=basis)
    assert decide_cell(problem, basis, [1], 1e-10)[1].feasible is False
    # At gamma = 1.2 the same flow is 0.019 over capacity: within the bound.
    over = sin_problem(ring_graph(5), np.zeros(5), 1.2)
    _, it = decide_cell(over, basis, [1])
    assert not it.feasible and not it.infeasible_edges


def test_ptc_counts_undecided_probes_as_infeasible(monkeypatch):
    exact = ptc(builtin_case("ring12-asym"), [1], NEAR_LIMIT, tol=1e-6).ptc
    _with_error_bound(monkeypatch, 1e-3)
    loose = ptc(builtin_case("ring12-asym"), [1], NEAR_LIMIT, tol=1e-6).ptc
    assert loose < exact - 1e-4


def test_solve_path_never_calls_projection_iteration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("projection_iteration called on the solve path")

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "torusflow" or mod_name.startswith("torusflow.")) and hasattr(mod, "projection_iteration"):
            monkeypatch.setattr(mod, "projection_iteration", refuse)

    assert len(solve_all(sin_problem(ring_graph(5), np.zeros(5), 1.4))) == 3
    expo = case_to_problem(builtin_case("expo(2)"), 1.4)
    assert len(solve_all(expo, basis=minimum_cycle_basis(expo.graph))) == 9
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 8, extra_edges=3)
    solve_all(sin_problem(g, balanced_vector(rng, 8), 1.4))
    assert len(solve_elastic(ring_graph(5), ElasticEnergy.spacing_potential(), np.zeros(5), 1.4)) == 3
    res = ptc(builtin_case("ring12-asym"), [1], NEAR_LIMIT, tol=1e-6)
    assert res.ptc is not None and res.curve[0].exists


def _steps_contract(rate, steps):
    """The contraction check of one run, step pair by step pair."""
    return not any(b > rate * a + 1e-12 for a, b in zip(steps, steps[1:]))


def _reference_decide_cell(problem, basis, u, rho=flows.DEFAULT_RHO, polish=False):
    """The per-cell Newton loop that `decide_cells` stacks, written for one
    cell with scalar bookkeeping: the reference its rows must reproduce.
    With `polish`, an infeasible cell too runs on until its bound is below
    rho: the full-accuracy solve that an early infeasible verdict must
    agree with."""
    u = np.asarray(u, dtype=float)
    rate = problem.contraction_rate
    C = basis.matrix
    k, a, lmin_a = basis.size, problem.graph.weight_vector, problem._lmin_a
    # The map factor K = C^T M^{-1}, M = C (Lmin A)^{-1} C^T, by the dense
    # m-column solve.
    K = np.linalg.solve((C / lmin_a) @ C.T, C).T
    to_bound = problem.map_norm_to_edge / (1.0 - rate)
    # The rounding term: a loop residual sums at most L differences and
    # 2pi u_i (gamma_{L+3}, with the two roundings of 2pi u_i), each
    # difference within INVERSE_ULPS ulps of its own size plus as many of
    # f_e / a_e through the inverse's slope, at most 1 / Lmin_e; the
    # residual's error reaches the step's map norm through ||M^{-1}||^{1/2}.
    ulp = 2.0**-53
    L = max(basis.lengths)
    sums = (L + 3) * ulp / (1.0 - (L + 3) * ulp)
    through = to_bound * math.sqrt(np.linalg.norm(np.linalg.inv((C / lmin_a) @ C.T), np.inf))

    def rounding(f, delta):
        per_edge = sums * np.abs(delta) + flows.INVERSE_ULPS * ulp * (np.abs(delta) + np.abs(f) / lmin_a)
        return through * (math.sqrt(k) * L * np.max(per_edge) + sums * np.linalg.norm(flows.TWO_PI * u))

    def at(f):
        delta = problem.inverse_differences(f)
        grad = C @ delta - flows.TWO_PI * u
        step = K @ grad
        return delta, grad, step, problem.map_norm(step)

    # A cell u != 0 starts at its loop flow linearised at delta = 0, with
    # the problem's largest slope bound.
    f = problem.graph.cutset_flow(problem.p, basis)
    if u.any():
        f = f + C.T @ np.linalg.solve((C / a) @ C.T, np.max(problem.lmax) * flows.TWO_PI * u)
    delta, grad, step, d = at(f)
    budget = flows._step_budget(rate, flows.TIGHT_RHO / (d * to_bound) if d > 0.0 else math.inf)
    steps, floor = [d], False
    while True:
        bound = d * to_bound + rounding(f, delta)
        margins = check_feasibility(problem, f)[1]
        feasible = bool(np.all(margins - bound >= -FEASIBILITY_SLACK))
        infeasible = np.flatnonzero(margins + bound < -FEASIBILITY_SLACK)
        if floor or (infeasible.size and not polish) or (bound < rho and (feasible or infeasible.size)):
            break
        assert len(steps) <= 2 * budget
        newton = C.T @ np.linalg.solve((C * problem.inverse_slopes(delta)) @ C.T, grad)
        t = 1.0
        while True:
            trial = f - t * newton
            state = at(trial)
            if state[3] <= rate * d:
                break
            t /= 2.0
            if t < 1.0 - rate:
                trial = f - step
                state = at(trial)
                break
        if not state[3] < d:
            break
        floor = state[3] > rate * d
        f, (delta, grad, step, d) = trial, state
        steps.append(d)
    return f, flows.IterationReport(
        iterations=len(steps) - 1,
        final_step=float(np.max(np.abs(step))),
        rate=rate,
        feasible=feasible,
        infeasible_edges=tuple(int(e) for e in infeasible),
        contraction_verified=_steps_contract(rate, steps),
        weighted_steps=tuple(steps),
        error_bound=bound,
    )


# Edge families shared across examples, so that equal entries form one group.
_FAMILIES = (
    FlowFunction.sin_family(),
    FlowFunction.linear(0.5),
    FlowFunction.linear(2.0),
    FlowFunction.fourier([1.0, -0.1]),
    # No inner_inverse: inverted by bisection.
    FlowFunction(evaluate=np.sin, derivative=np.cos, name="custom"),
)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 14),
    chords=st.integers(1, 3),
    gamma=st.sampled_from([1.0, 1.4, NEAR_LIMIT]),
    scale=st.sampled_from([0.0, 0.3, 0.8]),
    bisect=st.booleans(),
)
def test_stacked_cells_match_single_cells(seed, n, chords, gamma, scale, bisect):
    # A ring with chords has long cycles, so its winding box holds many cells.
    rng = np.random.default_rng(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    while len(edges) < n + chords:
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
    g = WeightedGraph.from_edges(n, sorted(edges), rng.uniform(0.5, 2.0, size=len(edges)))
    families = _FAMILIES if bisect else _FAMILIES[:-1]
    funcs = tuple(families[i] for i in rng.integers(len(families), size=g.m))
    problem = FlowNetworkProblem(graph=g, flow_functions=funcs, p=balanced_vector(rng, n, scale), gamma=gamma)
    for basis in (fundamental_cycle_basis(g), minimum_cycle_basis(g)):
        box = np.array(list(feasible_winding_vectors(basis, gamma)))
        stacked, verdicts = decide_cells(problem, basis, box)
        assert stacked.shape == (len(box), g.m) and len(verdicts) == len(box)
        # Feasible, infeasible on some edge and undecided partition the rows.
        infeasible = verdicts.infeasible.any(axis=1)
        undecided = ~(verdicts.feasible | infeasible)
        assert np.all(verdicts.feasible.astype(int) + infeasible + undecided == 1)
        for u, f, it in zip(box, stacked, verdicts):
            for single, ref in (decide_cell(problem, basis, u), _reference_decide_cell(problem, basis, u)):
                assert (it.feasible, it.infeasible_edges, it.iterations, it.contraction_verified) == (
                    ref.feasible, ref.infeasible_edges, ref.iterations, ref.contraction_verified
                )
                assert np.max(np.abs(f - single)) <= 1e-12
                assert abs(it.error_bound - ref.error_bound) <= 1e-12
                assert abs(it.final_step - ref.final_step) <= 1e-12
                assert np.max(np.abs(np.subtract(it.weighted_steps, ref.weighted_steps))) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 10),
    extra=st.integers(1, 3),
    gamma=st.sampled_from([1.0, 1.4, NEAR_LIMIT]),
    scale=st.sampled_from([0.2, 0.6, 1.2]),
)
def test_early_infeasible_verdicts_hold_at_the_rounding_floor(seed, n, extra, gamma, scale):
    # A row leaves as soon as an edge proves its cell infeasible.  The same
    # cell solved on to the rounding floor, infeasible rows included, must
    # not find it feasible, and the two flows lie within their bounds.
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=extra)
    problem = sin_problem(g, balanced_vector(rng, n, scale), gamma)
    for basis in (fundamental_cycle_basis(g), minimum_cycle_basis(g)):
        box = np.array(list(feasible_winding_vectors(basis, gamma)))
        stacked, verdicts = decide_cells(problem, basis, box)
        for r in verdicts.infeasible.any(axis=1).nonzero()[0]:
            it = verdicts[r]
            tight, tight_it = _reference_decide_cell(problem, basis, box[r], flows.TIGHT_RHO, polish=True)
            assert it.iterations <= tight_it.iterations
            if tight_it.decided:
                assert not tight_it.feasible and tight_it.infeasible_edges
            assert np.max(np.abs(stacked[r] - tight)) <= it.error_bound + tight_it.error_bound + 1e-12


def test_map_norm_is_row_wise():
    problem = _two_cycles_weights_apart()
    rows = np.random.default_rng(5).normal(size=(4, problem.graph.m))
    norms = problem.map_norm(rows)
    assert norms.shape == (4,)
    for row, norm in zip(rows, norms):
        single = problem.map_norm(row)
        assert isinstance(single, float) and single == pytest.approx(norm, rel=1e-15)


def test_stacked_solve_raises_on_a_row_over_budget(monkeypatch):
    problem = sin_problem(ring_graph(5), np.zeros(5), 1.4)
    basis = fundamental_cycle_basis(problem.graph)
    monkeypatch.setattr(flows, "_step_budget", lambda rate, ratio: np.zeros(np.shape(ratio), dtype=int))
    with pytest.raises(flows.ConvergenceBudgetError, match="budget of 0 steps"):
        decide_cells(problem, basis, np.array([[-1], [0], [1]]))


def test_empty_stack_gives_an_empty_record():
    problem = sin_problem(ring_graph(5), np.zeros(5), 1.4)
    stacked, verdicts = decide_cells(problem, fundamental_cycle_basis(problem.graph), np.empty((0, 1)))
    assert stacked.shape == (0, 5) and len(verdicts) == 0 and list(verdicts) == []


def test_row_views_hold_the_record_rows_as_python_scalars():
    # The pentagon's cells u = -1, 0, 1 are feasible; u = +-2 would need
    # |delta| = 4 pi / 5 > gamma on every edge.
    problem = sin_problem(ring_graph(5), np.zeros(5), 1.4)
    _, verdicts = decide_cells(problem, fundamental_cycle_basis(problem.graph), np.arange(-2, 3)[:, None])
    assert verdicts.feasible.tolist() == [False, True, True, True, False]
    for r, it in enumerate(verdicts):
        taken = int(verdicts.iterations[r])
        assert it == flows.IterationReport(
            iterations=taken,
            final_step=float(verdicts.final_step[r]),
            rate=verdicts.rate,
            feasible=bool(verdicts.feasible[r]),
            infeasible_edges=tuple(np.flatnonzero(verdicts.infeasible[r]).tolist()),
            contraction_verified=bool(verdicts.contraction_verified[r]),
            weighted_steps=tuple(verdicts.steps[r, : taken + 1].tolist()),
            error_bound=float(verdicts.error_bound[r]),
        )
        assert [type(x) for x in (it.iterations, it.final_step, it.feasible, it.error_bound)] == [int, float, bool, float]
        assert all(type(x) is float for x in it.weighted_steps)
        assert (it.infeasible_edges == ()) == (r in (1, 2, 3))


def test_solve_all_builds_reports_for_feasible_rows_only(monkeypatch):
    # A seeded mesh whose 81-cell box holds one feasible cell.
    rng = np.random.default_rng(0)
    while True:
        g = random_connected_graph(rng, int(rng.integers(14, 21)), extra_edges=int(rng.integers(5, 9)))
        basis = fundamental_cycle_basis(g)
        if count_feasible_winding_vectors(basis, 1.4) == 81:
            break
    problem = sin_problem(g, balanced_vector(rng, g.n), 1.4)
    _, verdicts = decide_cells(problem, basis, np.array(list(feasible_winding_vectors(basis, 1.4))))
    calls = []
    view = flows.CellVerdicts.__getitem__
    monkeypatch.setattr(flows.CellVerdicts, "__getitem__", lambda self, r: calls.append(r) or view(self, r))
    solve_all(problem, basis=basis)
    assert 0 < len(calls) == int(verdicts.feasible.sum()) < len(verdicts)


def _same_verdicts(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name), equal_nan=name == "steps")
        for name in ("feasible", "infeasible", "error_bound", "final_step", "iterations", "steps")
    )


@pytest.mark.parametrize("seed", range(6))
def test_decisions_do_not_depend_on_call_history(seed):
    # A problem's cached state reads no basis: a box decided on one basis
    # right after a solve on the other gives the bits of a fresh problem.
    rng = np.random.default_rng([seed, 12])
    g = random_connected_graph(rng, 12, extra_edges=4)
    p = balanced_vector(rng, g.n)
    bases = fundamental_cycle_basis(g), minimum_cycle_basis(g)
    for first, second in (bases, bases[::-1]):
        box = np.array(list(feasible_winding_vectors(second, 1.4)))
        used = sin_problem(g, p, 1.4)
        solve_all(used, basis=first)
        got = decide_cells(used, second, box)
        fresh = decide_cells(sin_problem(g, p, 1.4), second, box)
        assert np.array_equal(got[0], fresh[0]) and _same_verdicts(got[1], fresh[1])


def test_each_distinct_flow_function_is_certified_once(monkeypatch):
    calls = []
    certify = FlowFunction.certify
    monkeypatch.setattr(FlowFunction, "certify", lambda self, gamma: calls.append(self) or certify(self, gamma))
    g = square_with_diagonal()
    sine, linear = FlowFunction.sin_family(), FlowFunction.linear(2.0)
    funcs = tuple(sine if e % 2 else linear for e in range(g.m))
    p = balanced_vector(np.random.default_rng(4), g.n)
    problem = FlowNetworkProblem(graph=g, flow_functions=funcs, p=p, gamma=1.4)
    assert solve_all(problem)
    assert len(calls) == 2 and set(map(id, calls)) == {id(sine), id(linear)}


@pytest.mark.parametrize(
    "make", [FlowFunction.sin_family, lambda: FlowFunction.linear(2.0), lambda: FlowFunction.fourier([1, 0.05])]
)
def test_per_edge_family_calls_make_one_edge_group(make):
    # One family call per edge gives the single-family twin: one edge group,
    # the same solution bits and one family document.
    expo = case_to_problem(builtin_case("expo(5)"), 1.4)
    g, p = expo.graph, expo.p
    per_edge = FlowNetworkProblem(graph=g, flow_functions=tuple(make() for _ in range(g.m)), p=p, gamma=1.4)
    twin = FlowNetworkProblem.single_family(g, make(), p, 1.4)
    assert len(per_edge._edge_groups) == 1
    basis = fundamental_cycle_basis(g)
    docs = [
        serialize.dumps_canonical([serialize.solution_to_dict(s, basis) for s in solve_all(problem, basis=basis)])
        for problem in (per_edge, twin)
    ]
    assert len(json.loads(docs[0])) > 0 and docs[0] == docs[1]
    assert serialize.problem_to_dict(per_edge) == serialize.problem_to_dict(twin)
    assert serialize.problem_to_dict(per_edge)["flow"] == serialize.flow_family_to_dict(make())


def _ring_problems():
    """The 4-bus ring with one source and one sink, and the 12-bus rings."""
    four = PowerCase(
        buses=((1.0, 1.0), (1.0, 0.0), (1.0, -1.0), (1.0, 0.0)),
        branches=tuple((i, (i + 1) % 4, 1.0) for i in range(4)),
    )
    cases = (four, builtin_case("ring12-sym"), builtin_case("ring12-asym"))
    return [case_to_problem(case, gamma) for case in cases for gamma in (1.4, NEAR_LIMIT)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    ring=st.sampled_from([None, *range(6)]),
    n=st.integers(4, 12),
    extra=st.integers(1, 4),
    gamma=st.sampled_from([1.0, 1.4, NEAR_LIMIT]),
)
def test_scaled_stack_matches_problems_with_scaled_supply(seed, ring, n, extra, gamma):
    # Row r of a scaled stack decides its cell of the problem whose supply is
    # scales[r] p, as a fresh problem with that supply does.
    rng = np.random.default_rng(seed)
    if ring is None:
        g = random_connected_graph(rng, n, extra_edges=extra)
        base = sin_problem(g, balanced_vector(rng, n, 0.6), gamma)
    else:
        base = _ring_problems()[ring]
    for basis in (fundamental_cycle_basis(base.graph), minimum_cycle_basis(base.graph)):
        box = np.array(list(feasible_winding_vectors(basis, base.gamma)))
        U = box[rng.integers(len(box), size=12)]
        scales = np.concatenate([[0.0], rng.uniform(0.0, 2.5, size=11)])
        stacked, verdicts = decide_cells(base, basis, U, scales=scales)
        for r, (u, scale) in enumerate(zip(U, scales)):
            f, it = decide_cell(base.with_supply(scale * base.p), basis, u)
            assert verdicts.feasible[r] == it.feasible
            assert tuple(verdicts.infeasible[r].nonzero()[0]) == it.infeasible_edges
            assert np.max(np.abs(stacked[r] - f)) <= 1e-12


def test_scales_need_one_entry_per_cell():
    problem = sin_problem(ring_graph(5), np.zeros(5), 1.4)
    basis = fundamental_cycle_basis(problem.graph)
    with pytest.raises(InputError, match="one scale per cell"):
        decide_cells(problem, basis, np.array([[0], [1]]), scales=[1.0])


def test_winding_vectors_need_the_basis_width():
    # ring12's basis has k = 1: u = [1, 0] is no cell, not the two cells [1]
    # and [0], and a bare [1, 0] is no stack of one-entry rows.
    problem = case_to_problem(builtin_case("ring12-sym"), 1.4)
    basis = fundamental_cycle_basis(problem.graph)
    for u in ([1, 0], [[1]], 1):
        with pytest.raises(InputError, match="winding vector"):
            decide_cell(problem, basis, u)
    for U in (np.array([1, 0]), np.array([[1, 0]]), np.zeros((1, 1, 1))):
        with pytest.raises(InputError, match="winding vectors"):
            decide_cells(problem, basis, U)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 12), extra=st.integers(1, 4))
def test_stacked_contraction_flag_matches_step_pairs(seed, n, extra):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=extra)
    problem = sin_problem(g, balanced_vector(rng, n, 0.6), NEAR_LIMIT)
    basis = fundamental_cycle_basis(g)
    box = np.array(list(feasible_winding_vectors(basis, NEAR_LIMIT)))
    # Every cell of the box may leave at step 0, infeasible at its start.  The
    # row of cell e_1 at zero supply starts at f = 0, inside every capacity,
    # with a T_u step far above rho, so it takes a second step.
    unit = np.eye(basis.size, dtype=box.dtype)[:1]
    scales = np.append(np.ones(len(box)), 0.0)
    _, verdicts = decide_cells(problem, basis, np.concatenate([box, unit]), scales=scales)
    # A copy of the record in which one row's second step does not shrink.
    r = int(verdicts.iterations.argmax())
    assert verdicts.iterations[r] >= 1 and verdicts.steps[r, 0] > 1e-9
    steps = verdicts.steps.copy()
    steps[r, 1] = steps[r, 0]
    tampered = replace(verdicts, steps=steps)
    assert not tampered[r].contraction_verified
    for record in (verdicts, tampered):
        flags = [it.contraction_verified for it in record]
        assert flags == [_steps_contract(record.rate, it.weighted_steps) for it in record]


def _disjoint_cases():
    """expo(3) on both bases (three pentagons that share no edge), the
    bridged mesh (two of its four cycles share the chord) and K5."""
    expo = case_to_problem(builtin_case("expo(3)"), 1.4)
    bridged = sin_problem(bridged_blocks(), balanced_vector(np.random.default_rng(3), 18, 0.1), 1.4)
    one = sin_problem(complete_graph(5), balanced_vector(np.random.default_rng(4), 5, 0.1), 1.4)
    return {
        "expo3-fundamental": (expo, fundamental_cycle_basis(expo.graph)),
        "expo3-minimum": (expo, minimum_cycle_basis(expo.graph)),
        "bridged": (bridged, fundamental_cycle_basis(bridged.graph)),
        "one-block": (one, fundamental_cycle_basis(one.graph)),
    }


@pytest.mark.parametrize("height", [1, 2, 7, 64, 256])
@pytest.mark.parametrize("case", ["expo3-fundamental", "expo3-minimum", "bridged", "one-block"])
def test_newton_steps_match_the_dense_solve(case, height, monkeypatch):
    problem, basis = _disjoint_cases()[case]
    assert basis.disjoint is case.startswith("expo")
    C = basis.matrix
    rng = np.random.default_rng([height, 24])
    w = problem.inverse_slopes(rng.uniform(-problem.gamma, problem.gamma, size=(height, basis.graph.m)))
    G = rng.normal(size=(height, basis.size))
    dense = np.linalg.solve((C * w[:, None, :]) @ C.T, G[:, :, None])[:, :, 0] @ C
    steps = flows._newton_coordinates(basis, w, G) @ C
    assert np.max(np.abs(steps - dense)) <= 1e-12 * max(1.0, np.max(np.abs(dense)))
    # Every step of a stacked solve at any height, with the division where
    # the basis allows it, and with the dense solve.
    box = np.array(list(feasible_winding_vectors(basis, problem.gamma)))
    U = box[np.arange(height) % len(box)]
    f_on, on = decide_cells(problem, basis, U)
    monkeypatch.setitem(vars(basis), "disjoint", False)
    f_off, off = decide_cells(problem, basis, U)
    assert np.max(np.abs(f_on - f_off)) <= 1e-12
    assert np.array_equal(on.feasible, off.feasible) and np.array_equal(on.iterations, off.iterations)
    assert np.allclose(on.steps, off.steps, rtol=0.0, atol=1e-12, equal_nan=True)


@pytest.mark.parametrize("case", ["expo3-fundamental", "expo3-minimum"])
def test_diagonal_newton_keeps_the_solution_bytes(case, monkeypatch):
    problem, basis = _disjoint_cases()[case]
    docs = []
    for disjoint in (True, False):  # the division, then the dense solve
        monkeypatch.setitem(vars(basis), "disjoint", disjoint)
        solutions = solve_all(problem, basis=basis)
        docs.append(serialize.dumps_canonical([serialize.solution_to_dict(s, basis) for s in solutions]))
    assert len(json.loads(docs[0])) > 1 and docs[0] == docs[1]
