import json
import math

import numpy as np
import pytest

import oracles
import torusflow.powerflow as powerflow
from conftest import CHORDED_HEXAGON_CYCLES, chorded_hexagon_case, random_tree_case
from torusflow import (
    GammaError,
    InputError,
    MissingDataError,
    NonIntegerWindingError,
    PowerCase,
    PuncturedTorusError,
    UnknownCaseError,
    builtin_case,
    case_to_problem,
    congestion,
    explicit_cycle_basis,
    feasible_winding_vectors,
    fundamental_cycle_basis,
    integer_cycle_shift,
    ptc,
    solve_all,
    verify_solution,
)
from torusflow.flows import decide_cells, recover_cells

TWO_PI = 2 * math.pi
GAMMA = math.pi / 2 - 0.01


class TestPowerCase:
    def test_unit_case_gives_unit_weights(self):
        case = builtin_case("pentagon")
        prob = case_to_problem(case, 1.4)
        assert np.allclose(prob.graph.weight_vector, 1.0)
        assert prob.flow_functions[0].name == "sin"

    def test_voltage_scaling(self):
        case = PowerCase(
            buses=((2.0, 0.5), (1.0, -0.25), (0.5, -0.25)),
            branches=((0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)),
        )
        prob = case_to_problem(case, 1.0)
        assert np.allclose(prob.graph.weight_vector, [2.0, 1.0, 3.0])

    def test_mw_units_normalized(self):
        case = PowerCase(
            buses=((1.0, 50.0), (1.0, -50.0)),
            branches=((0, 1, 1.0),),
            base_mva=100.0,
        )
        assert np.allclose(case.supply, [0.5, -0.5])

    def test_small_imbalance_rebalanced(self):
        case = PowerCase(
            buses=((1.0, 1.001), (1.0, -1.0)), branches=((0, 1, 1.0),)
        )
        assert case.rebalance_correction == pytest.approx(0.0005)
        assert abs(float(np.sum(case.supply))) < 1e-12

    def test_rebalance_correction_is_not_an_argument(self):
        # It is computed from the buses; an argument would be overwritten.
        with pytest.raises(TypeError, match="rebalance_correction"):
            PowerCase(buses=((1.0, 1.001), (1.0, -1.0)), branches=((0, 1, 1.0),), rebalance_correction=0.5)

    def test_large_imbalance_rejected(self):
        with pytest.raises(InputError, match="imbalance"):
            PowerCase(buses=((1.0, 1.1), (1.0, -1.0)), branches=((0, 1, 1.0),))

    @pytest.mark.parametrize(
        "buses, branches",
        [
            (((math.nan, 1.0), (1.0, -1.0)), ((0, 1, 1.0),)),
            (((math.inf, 1.0), (1.0, -1.0)), ((0, 1, 1.0),)),
            (((1.0, math.nan), (1.0, -1.0)), ((0, 1, 1.0),)),
            (((1.0, math.inf), (1.0, -math.inf)), ((0, 1, 1.0),)),
            (((1.0, 1.0), (1.0, -1.0)), ((0, 1, math.nan),)),
            (((1.0, 1.0), (1.0, -1.0)), ((0, 1, math.inf),)),
        ],
        ids=["v-nan", "v-inf", "p-nan", "p-inf", "b-nan", "b-inf"],
    )
    def test_non_finite_entries_rejected(self, buses, branches):
        with pytest.raises(InputError, match="finite"):
            PowerCase(buses=buses, branches=branches)

    @pytest.mark.parametrize("base_mva", [math.nan, math.inf, 0.0, -100.0, "abc"])
    def test_bad_base_mva_rejected(self, base_mva):
        # Each would mislead without an error: NaN makes the supply NaN, inf
        # zeroes it, 0 reads as per-unit and a negative base flips every sign.
        # from_dict builds through the same check.
        with pytest.raises(InputError, match="base_mva"):
            PowerCase(buses=((1.0, 50.0), (1.0, -50.0)), branches=((0, 1, 1.0),), base_mva=base_mva)
        doc = {"buses": [{"v": 1.0, "p": 50.0}, {"v": 1.0, "p": -50.0}], "branches": [[0, 1, 1.0]], "base_mva": base_mva}
        with pytest.raises(InputError, match="base_mva"):
            PowerCase.from_dict(doc)

    def test_bad_voltage_rejected(self):
        with pytest.raises(InputError):
            PowerCase(buses=((0.0, 0.0), (1.0, 0.0)), branches=((0, 1, 1.0),))

    def test_gamma_limit(self):
        with pytest.raises(GammaError):
            case_to_problem(builtin_case("pentagon"), math.pi / 2)

    @pytest.mark.parametrize("endpoint", [1.5, 1e30, True])
    def test_from_dict_reads_branch_endpoints_strictly(self, endpoint):
        doc = {"buses": [{"v": 1.0, "p": 0.0}] * 3, "branches": [[0, endpoint, 1.0], [1, 2, 1.0], [2, 0, 1.0]]}
        with pytest.raises(InputError, match="bad power case document: .* is not an int64 integer"):
            PowerCase.from_dict(doc)

    @pytest.mark.parametrize("endpoint", [1.5, math.nan, True])
    def test_branch_endpoints_are_read_strictly(self, endpoint):
        # int() would build the branch (0, 1) from 1.5.
        with pytest.raises(InputError, match="is not an int64 integer"):
            PowerCase(buses=((1.0, 0.0),) * 3, branches=((0, endpoint, 1.0), (1, 2, 1.0), (2, 0, 1.0)))

    def test_numpy_branch_endpoints_are_read_as_ints(self):
        case = PowerCase(buses=((1.0, 0.0),) * 3, branches=((np.int64(0), np.int64(1), 1.0), (1, 2, 1.0), (2.0, 0, 1.0)))
        assert case.branches == ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0))
        assert all(type(i) is int and type(j) is int for i, j, _ in case.branches)

    def test_json_round_trip(self):
        case = builtin_case("ring12-asym")
        again = PowerCase.from_dict(case.to_dict())
        assert again.buses == case.buses
        assert again.branches == case.branches


class TestBuiltinCases:
    def test_ring12_sym_profile(self):
        case = builtin_case("ring12-sym")
        p = case.supply
        assert p[11] == 1.0 and p[5] == -1.0
        assert np.count_nonzero(p) == 2

    def test_ring12_asym_profile(self):
        case = builtin_case("ring12-asym")
        p = case.supply
        assert p[11] == 1.0 and p[2] == -1.0

    def test_expo_shape(self):
        case = builtin_case("expo(2)")
        assert case.n == 9
        assert len(case.branches) == 10
        prob = case_to_problem(case, 1.4)
        assert fundamental_cycle_basis(prob.graph).size == 2
        assert builtin_case("expo(3)").n == 13

    def test_pentagon(self):
        case = builtin_case("pentagon")
        assert case.n == 5
        assert np.allclose(case.supply, 0.0)

    def test_unknown(self):
        with pytest.raises(UnknownCaseError):
            builtin_case("ring13")

    def test_rts24_requires_data(self):
        with pytest.raises(MissingDataError):
            builtin_case("rts24-mod")

    def test_rts24_profile_balances(self, tmp_path):
        doc = {
            "buses": [{"v": 1.0} for _ in range(24)],
            "branches": [[i, i + 1, 1.0] for i in range(23)] + [[23, 0, 1.0]],
        }
        path = tmp_path / "rts.json"
        path.write_text(json.dumps(doc))
        case = builtin_case("rts24-mod", data_path=path)
        assert case.n == 24
        assert abs(float(np.sum(case.supply))) < 1e-12
        assert case.supply[2] == pytest.approx(-268.48 / 100.0)

    @pytest.mark.parametrize("endpoint", [22.5, math.nan])
    def test_rts24_reads_branch_endpoints_strictly(self, tmp_path, endpoint):
        doc = {
            "buses": [{"v": 1.0} for _ in range(24)],
            "branches": [[i, i + 1, 1.0] for i in range(22)] + [[endpoint, 23, 1.0], [23, 0, 1.0]],
        }
        path = tmp_path / "rts.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="bad rts24 data file: .* is not an int64 integer"):
            builtin_case("rts24-mod", data_path=path)


class TestCongestion:
    def test_zero_flow(self):
        prob = case_to_problem(builtin_case("pentagon"), 1.4)
        sols = solve_all(prob)
        sync = next(s for s in sols if s.u[0] == 0)
        assert congestion(sync, prob) == 0.0

    def test_pentagon_splay(self):
        prob = case_to_problem(builtin_case("pentagon"), 1.4)
        sols = solve_all(prob)
        splay = next(s for s in sols if s.u[0] == 1)
        assert congestion(splay, prob) == pytest.approx(math.sin(TWO_PI / 5), abs=1e-9)

    def test_bounded_by_sin_gamma(self):
        prob = case_to_problem(builtin_case("ring12-sym"), GAMMA)
        prob = prob.with_supply(0.5 * prob.p)
        for sol in solve_all(prob):
            assert congestion(sol, prob) <= math.sin(GAMMA) + 1e-9


class TestPtc:
    def test_symmetric_u0_matches_two_sin_gamma(self):
        res = ptc(builtin_case("ring12-sym"), [0], GAMMA, tol=1e-7)
        oracle = oracles.ring_two_path_ptc(12, 11, 5, 0, GAMMA)
        assert oracle == pytest.approx(2 * math.sin(GAMMA), abs=1e-12)
        assert res.ptc == pytest.approx(oracle, abs=1e-4)

    def test_symmetric_mirror(self):
        r_plus = ptc(builtin_case("ring12-sym"), [1], GAMMA, tol=1e-7)
        r_minus = ptc(builtin_case("ring12-sym"), [-1], GAMMA, tol=1e-7)
        assert r_plus.ptc == pytest.approx(r_minus.ptc, abs=1e-5)

    def test_asymmetric_matches_oracle(self):
        for u in (-1, 0, 1):
            res = ptc(builtin_case("ring12-asym"), [u], GAMMA, tol=1e-7)
            oracle = oracles.ring_two_path_ptc(12, 11, 2, u, GAMMA)
            assert res.ptc == pytest.approx(oracle, abs=1e-4)

    def test_bracket_certified(self):
        from torusflow.flows import FEASIBILITY_SLACK, decide_cell

        case = builtin_case("ring12-sym")
        tol = 1e-5
        res = ptc(case, [1], GAMMA, tol=tol)
        base = case_to_problem(case, GAMMA)
        basis = fundamental_cycle_basis(base.graph)
        ok_lo = decide_cell(base.with_supply(res.ptc * base.p), basis, [1], 1e-10)[1].feasible
        ok_hi = decide_cell(
            base.with_supply((res.ptc + 2 * tol) * base.p), basis, [1], 1e-10
        )[1].feasible
        assert ok_lo and not ok_hi
        # lo is feasible at the certified error bound of its Newton solve.
        f, it = decide_cell(base.with_supply(res.ptc * base.p), basis, [1])
        margin = float(np.min(base.capacity - np.abs(f)))
        assert it.feasible and margin - it.error_bound >= -FEASIBILITY_SLACK

    def test_ceiling_accounts_for_the_slack(self):
        # Against capacities of 0.01 the slack is large: the ceiling 2 sin 1.4
        # without it reads feasible, so a bracket must start above it.
        from torusflow.flows import decide_cell

        case = PowerCase(
            buses=((1.0, 0.01), (1.0, 0.0), (1.0, -0.01), (1.0, 0.0)),
            branches=tuple((i, (i + 1) % 4, 0.01) for i in range(4)),
        )
        tol = 1e-10
        res = ptc(case, [0], 1.4, tol=tol)
        # The PTC that bisecting from the doubled ceiling gave.
        assert res.ptc == pytest.approx(1.970899659942317, abs=tol)
        base = case_to_problem(case, 1.4)
        basis = fundamental_cycle_basis(base.graph)
        assert not decide_cell(base.with_supply(res.curve[-1].scale * base.p), basis, [0])[1].feasible

    def test_curve_shape(self):
        res = ptc(builtin_case("ring12-sym"), [0], GAMMA, tol=1e-5, curve_points=5)
        assert res.curve[0].scale == 0.0
        assert res.curve[0].exists
        assert not res.curve[-1].exists
        feasible = [s for s in res.curve if s.exists]
        assert all(0.0 <= s.congestion <= 1.0 for s in feasible)
        assert all(len(s.loop_flows) == 1 for s in feasible)

    # The PTC of each winding at tol 1e-7 as bisection from the node-capacity
    # ceiling found it, before the bracket was probed in stacks.
    BISECTION_PTC = {
        "ring12-sym": {
            -2: 0.4913149634978983,
            -1: 1.4912649563128464,
            0: 1.9998999856298956,
            1: 1.4912649563128464,
            2: 0.4913149634978983,
        },
        "ring12-asym": {
            -2: 0.2317671640948865,
            -1: 0.8230201178791559,
            0: 1.4970605032734916,
            1: 1.9384973343705632,
            2: 1.473748383795396,
        },
    }

    @pytest.mark.parametrize("name", ["ring12-sym", "ring12-asym"])
    def test_every_winding_bracket_is_certified(self, name):
        from torusflow.flows import decide_cell

        tol = 1e-7
        case = builtin_case(name)
        base = case_to_problem(case, GAMMA)
        basis = fundamental_cycle_basis(base.graph)
        windings = [int(u[0]) for u in feasible_winding_vectors(basis, GAMMA)]
        assert windings == sorted(self.BISECTION_PTC[name])
        for u in windings:
            res = ptc(case, [u], GAMMA, tol=tol, basis=basis)
            assert res.ptc == pytest.approx(self.BISECTION_PTC[name][u], abs=tol)
            hi = res.curve[-1]
            assert not hi.exists and 0.0 < hi.scale - res.ptc <= tol
            assert decide_cell(base.with_supply(res.ptc * base.p), basis, [u], 1e-10)[1].feasible
            assert not decide_cell(base.with_supply((res.ptc + 2 * tol) * base.p), basis, [u], 1e-10)[1].feasible

    @pytest.mark.parametrize("tol", [1e-5, 1e-7, 1e-10])
    def test_decide_calls_per_sweep(self, monkeypatch, tol):
        from torusflow.flows import decide_cell

        calls = []
        decide = powerflow.decide_cells
        monkeypatch.setattr(
            powerflow, "decide_cells", lambda *a, **kw: calls.append((a[3], kw["scales"])) or decide(*a, **kw)
        )
        rho = 1e-10
        case = builtin_case("ring12-asym")
        res = ptc(case, [1], GAMMA, tol=tol, rho=rho)
        # The prediction certifies: one call at rho, whose rows are the
        # curve's 9 scales, from 0 to lo, and hi.
        [(r, scales)] = calls
        assert r == rho and scales.tolist() == [s.scale for s in res.curve]
        assert res.curve[-1].scale - res.ptc <= tol
        # Each emitted loop flow is the cell's, solved alone to rho, within
        # the stated accuracy rho plus that solve's bound, per cycle edge.
        base = case_to_problem(case, GAMMA)
        basis = fundamental_cycle_basis(base.graph)
        lengths = np.abs(basis.matrix).sum(axis=1)
        feasible = [s for s in res.curve if s.exists]
        assert len(feasible) == 9
        for sample in feasible:
            f, it = decide_cell(base.with_supply(sample.scale * base.p), basis, [1], rho)
            assert it.feasible
            gap = np.abs(np.subtract(sample.loop_flows, basis.matrix @ f))
            assert np.all(gap <= lengths * (rho + it.error_bound))

    def test_multisection_calls_per_sweep(self, monkeypatch):
        # Without a prediction: one probe at zero, SECTIONS - 1 per round at
        # rho = inf, and the curve at rho.
        calls = []
        decide = powerflow.decide_cells
        monkeypatch.setattr(
            powerflow, "decide_cells", lambda *a, **kw: calls.append((a[3], kw["scales"])) or decide(*a, **kw)
        )
        monkeypatch.setattr(powerflow, "_predict_ptc", lambda *a: None)
        tol = 1e-7
        res = ptc(builtin_case("ring12-asym"), [1], GAMMA, tol=tol)
        # The bracket starts at the node-capacity ceiling, 2 sin(gamma) plus slack.
        hi0 = 2.0 * math.sin(GAMMA) + 1e-6
        assert len(calls) <= 2 + math.ceil(math.log(hi0 / tol) / math.log(powerflow.SECTIONS))
        assert [len(scales) for _, scales in calls] == [1] + [powerflow.SECTIONS - 1] * (len(calls) - 2) + [9]
        assert [r for r, _ in calls] == [math.inf] * (len(calls) - 1) + [1e-10]
        assert res.curve[-1].scale - res.ptc <= tol

    def test_an_infeasible_zero_scale_ends_an_unpredicted_search(self, monkeypatch):
        # With no prediction the first stack is the zero scale alone, decided
        # at rho = inf; u = [3] needs differences of pi/2 > gamma there.
        decide, calls = powerflow.decide_cells, []
        monkeypatch.setattr(powerflow, "_predict_ptc", lambda *a: None)
        monkeypatch.setattr(powerflow, "decide_cells", lambda *a, **kw: calls.append((a, kw)) or decide(*a, **kw))
        res = ptc(builtin_case("ring12-asym"), [3], GAMMA)
        assert res.ptc is None and res.curve == ()
        assert len(calls) == 1
        (_, _, U, rho), kw = calls[0]
        assert U.tolist() == [[3]] and rho == math.inf and kw["scales"].tolist() == [0.0]

    def test_bracket_ends_at_the_first_probe_that_is_not_feasible(self, monkeypatch):
        # A row of the certifying call reads not feasible, as an undecided
        # row may: the multisection takes over, and the bracket stays below
        # that row (rows 5 and 8 are curve samples, 8 is also lo), or there
        # is no PTC (row 0 is the zero scale).
        decide = powerflow.decide_cells
        for row in (5, 8, 0):
            calls, flagged = [], []

            def flag_one(*args, **kw):
                flows, verdicts = decide(*args, **kw)
                calls.append(kw["scales"])
                if len(calls) == 1:
                    assert verdicts.feasible[:-1].all() and not verdicts.feasible[-1]
                    verdicts.feasible[row] = False
                    flagged.append(float(kw["scales"][row]))
                return flows, verdicts

            with monkeypatch.context() as patch:
                patch.setattr(powerflow, "decide_cells", flag_one)
                res = ptc(builtin_case("ring12-asym"), [1], GAMMA, tol=1e-7)
            if row == 0:
                assert res.ptc is None and res.curve == () and len(calls) == 1
                continue
            assert len(calls) > 2
            assert res.ptc < res.curve[-1].scale <= flagged[0]
            assert res.curve[-1].scale - res.ptc <= 1e-7

    @pytest.mark.parametrize("points", [0, 1])
    def test_short_curves(self, points):
        res = ptc(builtin_case("ring12-sym"), [0], GAMMA, tol=1e-5, curve_points=points)
        assert len(res.curve) == points + 1
        assert not res.curve[-1].exists and res.curve[-1].scale > res.ptc
        if points:
            assert res.curve[0].scale == 0.0 and res.curve[0].exists
            assert res.curve[0].congestion == 0.0 and res.curve[0].loop_flows == (0.0,)

    @pytest.mark.parametrize("name", ["ring12-sym", "ring12-asym"])
    def test_solve_at_each_ptc_finds_its_winding(self, name):
        # Near pi/2 the slack that a feasible verdict allows on a flow is an
        # angle 1 / cos(gamma) ~ 100 times wider, and the certificate of the
        # solution at a certified PTC must allow the same.
        case = builtin_case(name)
        problem = case_to_problem(case, GAMMA)
        basis = fundamental_cycle_basis(problem.graph)
        for u in feasible_winding_vectors(basis, GAMMA):
            res = ptc(case, u, GAMMA, tol=1e-9, basis=basis)
            solutions = solve_all(problem.with_supply(res.ptc * problem.p), basis=basis)
            assert u.tolist() in [s.u.tolist() for s in solutions]

    @pytest.mark.parametrize("bad", [{"tol": math.nan}, {"tol": math.inf}, {"rho": math.nan}, {"rho": math.inf}])
    def test_non_finite_tol_or_rho_rejected(self, bad):
        with pytest.raises(InputError, match="tol and rho must be finite and positive"):
            ptc(builtin_case("ring12-sym"), [0], GAMMA, **bad)

    @pytest.mark.parametrize("points", [-1, 2.5])
    def test_bad_curve_points_rejected_before_any_solve(self, monkeypatch, points):
        def fail(*args, **kw):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(powerflow, "_predict_ptc", fail)
        monkeypatch.setattr(powerflow, "decide_cells", fail)
        with pytest.raises(InputError, match="curve_points must be a non-negative integer"):
            ptc(builtin_case("ring12-sym"), [0], GAMMA, curve_points=points)

    def test_zero_profile_rejected(self):
        with pytest.raises(InputError):
            ptc(builtin_case("pentagon"), [0], 1.4)

    def test_winding_vector_of_the_wrong_length_rejected(self):
        # ring12's basis has one cycle.
        for u in ([1, 0], [], [[1]]):
            with pytest.raises(InputError, match="winding vector"):
                ptc(builtin_case("ring12-sym"), u, GAMMA)

    def _chorded_hexagon(self):
        case = chorded_hexagon_case()
        problem = case_to_problem(case, 1.56)
        basis = explicit_cycle_basis(problem.graph, CHORDED_HEXAGON_CYCLES)
        assert round(np.linalg.det(basis.off_tree[1])) == -2
        return case, problem, basis

    def test_a_cell_outside_the_winding_image_has_no_ptc(self):
        # T^-1 u is not integral for u = (-1, 0, 0): no phases wind by u at
        # any scale, yet its feasible fixed points once certified a PTC.
        case, problem, basis = self._chorded_hexagon()
        res = ptc(case, [-1, 0, 0], 1.56, basis=basis)
        assert res.ptc is None and res.curve == ()
        for scale in (0.0, 0.0645, 0.129):
            solutions = solve_all(problem.with_supply(scale * problem.p), basis=basis)
            assert [s.u.tolist() for s in solutions] == [[0, 0, 0]]

    def test_empty_cells_are_the_cells_without_an_integer_shift(self):
        # At scale 0 the feasible rows whose recovered phases fail their
        # certificate are exactly those whose u has no integer cycle shift.
        _, problem, basis = self._chorded_hexagon()
        U = np.array(list(feasible_winding_vectors(basis, 1.56)))
        flows, verdicts = decide_cells(problem, basis, U, scales=np.zeros(len(U)))
        rows = verdicts.feasible.nonzero()[0]
        thetas = recover_cells(problem, basis, U[rows], flows[rows])
        zero = problem.with_supply(0.0 * problem.p)

        def fails(f, theta, u):
            # A half-integral shift puts an off-tree difference at pi.
            try:
                return bool(verify_solution(zero, basis, f, theta, u).failures())
            except PuncturedTorusError:
                return True

        empty = [fails(*row) for row in zip(flows[rows], thetas, U[rows])]

        def no_shift(u):
            try:
                integer_cycle_shift(basis, u)
            except NonIntegerWindingError:
                return True
            return False

        assert empty == [no_shift(u) for u in U[rows]]
        assert any(empty) and not all(empty)

    def test_tol_below_the_float_spacing_is_rejected(self):
        # Its cut points would round onto the bracket's ends: at tol 1e-17 the
        # multisection used to stop at a zero-width bracket.
        with pytest.raises(InputError, match="ulps"):
            ptc(builtin_case("ring12-asym"), [1], GAMMA, tol=1e-17)
        res = ptc(builtin_case("ring12-asym"), [1], GAMMA, tol=2e-14)
        assert 0.0 < res.curve[-1].scale - res.ptc <= 2e-14
        assert res.ptc == pytest.approx(oracles.ring_two_path_ptc(12, 11, 2, 1, GAMMA), abs=1e-6)


def _ring4_case(rng) -> PowerCase:
    """A unit 4-bus ring with adjacent supply and demand, its branches
    oriented and ordered at random."""
    supply = int(rng.integers(4))
    demand = (supply + int(rng.choice([1, -1]))) % 4
    buses = [[1.0, 0.0] for _ in range(4)]
    buses[supply][1], buses[demand][1] = 1.0, -1.0
    branches = [(i, (i + 1) % 4, 1.0) if rng.random() < 0.5 else ((i + 1) % 4, i, 1.0) for i in range(4)]
    return PowerCase(
        buses=tuple((v, p) for v, p in buses), branches=tuple(branches[i] for i in rng.permutation(4))
    )


def _mesh_case(seed) -> PowerCase:
    """A random mesh of 8-13 buses and 2-4 independent cycles, with
    voltages, susceptances and a nonzero balanced profile drawn from seed."""
    from conftest import random_connected_graph

    rng = np.random.default_rng([seed, 7])
    n = int(rng.integers(8, 14))
    graph = random_connected_graph(rng, n, extra_edges=int(rng.integers(2, 5)))
    p = rng.normal(size=n)
    volts = rng.uniform(0.9, 1.1, n)
    return PowerCase(
        buses=tuple(zip(volts.tolist(), (p - p.mean()).tolist())),
        branches=tuple(zip(*graph.ends, graph.weight_vector)),
    )


class TestTreePtc:
    """A tree's basis is empty and its one cell u = () holds the cutset flow
    P f, so its PTC has the closed form min_e a_e sin(gamma) / |f_e|
    (Dorfler, Chertkov & Bullo, PNAS 2013), widened only by the slack that
    a feasible verdict allows."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["as-drawn", "reversed"])
    @pytest.mark.parametrize("seed", range(6))
    def test_ptc_is_the_closed_form(self, seed, reverse):
        from torusflow.flows import FEASIBILITY_SLACK

        case = random_tree_case(seed, reverse)
        problem = case_to_problem(case, GAMMA)
        f = np.abs(problem.graph.tree_flow(problem.p))
        closed = float(np.min(problem.capacity / f))
        widened = float(np.min((problem.capacity + FEASIBILITY_SLACK) / f))
        for tol in (1e-6, 1e-9):
            res = ptc(case, [], GAMMA, tol=tol)
            assert res.u.shape == (0,)
            assert closed - tol <= res.ptc <= widened * (1 + 1e-12)
            *curve, last = res.curve
            assert last.scale - res.ptc <= tol and not last.exists
            assert all(s.exists and s.loop_flows == () for s in curve)
            assert curve[-1].scale == res.ptc


class TestPtcPrediction:
    """`ptc` against itself with the prediction turned off, so that the
    certified multisection alone decides; and with wrong predictions."""

    TOL = 1e-7

    @staticmethod
    def assert_certified(res, problem, basis, tol):
        from torusflow.flows import decide_cell

        hi = res.curve[-1]
        assert not hi.exists and 0.0 < hi.scale - res.ptc <= tol
        assert decide_cell(problem.with_supply(res.ptc * problem.p), basis, res.u)[1].feasible
        for scale in (hi.scale, res.ptc + 2 * tol):
            assert not decide_cell(problem.with_supply(scale * problem.p), basis, res.u)[1].feasible

    def compare(self, monkeypatch, case, gamma, tol=TOL):
        """ptc of every winding of the case, predicted and not: (windings
        with a PTC, how many of those one call decided)."""
        problem = case_to_problem(case, gamma)
        basis = fundamental_cycle_basis(problem.graph)
        decide, calls = powerflow.decide_cells, []
        found = single = 0
        for u in feasible_winding_vectors(basis, gamma):
            with monkeypatch.context() as patch:
                patch.setattr(powerflow, "decide_cells", lambda *a, **kw: calls.append(1) or decide(*a, **kw))
                calls.clear()
                res = ptc(case, u, gamma, tol=tol, basis=basis)
                one_call = len(calls) == 1
            with monkeypatch.context() as patch:
                patch.setattr(powerflow, "_predict_ptc", lambda *a: None)
                ref = ptc(case, u, gamma, tol=tol, basis=basis)
            assert (res.ptc is None) == (ref.ptc is None), (u, res.ptc, ref.ptc)
            if res.ptc is None:
                assert res.curve == () and one_call
                continue
            assert res.ptc == pytest.approx(ref.ptc, abs=tol)
            self.assert_certified(res, problem, basis, tol)
            self.assert_certified(ref, problem, basis, tol)
            found += 1
            single += one_call
        return found, single

    @pytest.mark.parametrize("gamma", [1.4, GAMMA])
    @pytest.mark.parametrize("name", ["ring12-sym", "ring12-asym"])
    def test_ring12_matches_the_multisection(self, monkeypatch, name, gamma):
        # Every winding is certified by the first call.
        assert self.compare(monkeypatch, builtin_case(name), gamma) == (5, 5)

    def test_bench_rings_take_one_call(self, monkeypatch, tmp_path):
        # The CLI sweep of a 4-bus ring near the angle limit makes exactly one
        # decide_cells call, and matches the multisection.
        from torusflow import cli

        rng = np.random.default_rng(2)
        decide, calls = powerflow.decide_cells, []
        for j in range(8):
            case = _ring4_case(rng)
            path, out = tmp_path / f"ring-{j}.json", tmp_path / f"sweep-{j}.json"
            path.write_text(json.dumps(case.to_dict()))
            with monkeypatch.context() as patch:
                patch.setattr(powerflow, "decide_cells", lambda *a, **kw: calls.append(1) or decide(*a, **kw))
                calls.clear()
                assert cli.main(["sweep", str(path), "--tol", repr(self.TOL), "--out", str(out)]) == 0
            assert len(calls) == 1
            [result] = json.loads(out.read_text())["results"]
            supply, demand = (int(np.argmax(case.supply)), int(np.argmin(case.supply)))
            oracle = oracles.ring_two_path_ptc(4, supply, demand, 0, powerflow.SWEEP_GAMMA)
            assert result["ptc"] == pytest.approx(oracle, abs=1e-4)
            assert self.compare(monkeypatch, case, powerflow.SWEEP_GAMMA) == (1, 1)

    @pytest.mark.parametrize("gamma", [1.4, GAMMA])
    def test_random_meshes_match_the_multisection(self, monkeypatch, gamma):
        found = single = 0
        for seed in range(25):
            a, b = self.compare(monkeypatch, _mesh_case(seed), gamma)
            found, single = found + a, single + b
        assert found >= 20 and single >= found - 2

    @pytest.mark.parametrize(
        "wrong",
        [lambda s, tol: s + 10 * tol, lambda s, tol: s - 10 * tol, lambda s, tol: math.nan, lambda s, tol: 0.0],
        ids=["above", "below", "nan", "zero"],
    )
    @pytest.mark.parametrize("case", ["ring12-asym", "mesh"])
    def test_wrong_predictions_still_certify(self, monkeypatch, wrong, case):
        case = builtin_case(case) if case != "mesh" else _mesh_case(3)
        problem = case_to_problem(case, GAMMA)
        basis = fundamental_cycle_basis(problem.graph)
        predict = powerflow._predict_ptc
        checked = 0
        for u in feasible_winding_vectors(basis, GAMMA):
            want = ptc(case, u, GAMMA, tol=self.TOL, basis=basis).ptc
            with monkeypatch.context() as patch:
                patch.setattr(powerflow, "_predict_ptc", lambda *a: wrong(predict(*a) or 0.0, self.TOL))
                res = ptc(case, u, GAMMA, tol=self.TOL, basis=basis)
            assert (res.ptc is None) == (want is None)
            if want is not None:
                assert res.ptc == pytest.approx(want, abs=self.TOL)
                self.assert_certified(res, problem, basis, self.TOL)
                checked += 1
        assert checked

    @pytest.mark.parametrize("u, give_up", [([1], "one step"), ([0], "scale solve"), ([1], "ceiling")])
    def test_prediction_gives_up(self, monkeypatch, u, give_up):
        # One step of the single loop is too few for u = [1], and for u = [0],
        # whose start at s = 0 already solves its loop equation, so that only
        # its scale is left to solve.  A ceiling below the PTC stops the loop
        # once s passes it.
        # Each gives None, and the multisection certifies the same PTC.
        case = builtin_case("ring12-asym")
        problem = case_to_problem(case, GAMMA)
        basis = fundamental_cycle_basis(problem.graph)
        want = ptc(case, u, GAMMA, tol=self.TOL, basis=basis).ptc
        predict, guesses = powerflow._predict_ptc, []

        def patched(problem, basis, u, ceiling):
            guesses.append(predict(problem, basis, u, want / 2 if give_up == "ceiling" else ceiling))
            return guesses[-1]

        monkeypatch.setattr(powerflow, "_predict_ptc", patched)
        if give_up != "ceiling":
            monkeypatch.setattr(powerflow, "PREDICT_STEPS", 1)
        res = ptc(case, u, GAMMA, tol=self.TOL, basis=basis)
        assert guesses == [None]
        assert res.ptc == pytest.approx(want, abs=self.TOL)
        self.assert_certified(res, problem, basis, self.TOL)

    @pytest.mark.parametrize("gamma, want", [(1.4, 0.0172), (GAMMA, 0.0413)])
    def test_scale_may_dip_below_zero(self, monkeypatch, gamma, want):
        # The linearised start of u = [1, -1] on this mesh exceeds a capacity
        # at s = 0, so the loop's scale goes below 0 before it settles; a
        # prediction that gives up there leaves the PTC to the multisection.
        case = _mesh_case(79)
        problem = case_to_problem(case, gamma)
        basis = fundamental_cycle_basis(problem.graph)
        decide, calls = powerflow.decide_cells, []
        monkeypatch.setattr(powerflow, "decide_cells", lambda *a, **kw: calls.append(1) or decide(*a, **kw))
        res = ptc(case, [1, -1], gamma, tol=self.TOL, basis=basis)
        assert len(calls) == 1
        assert res.ptc == pytest.approx(want, abs=1e-4)
        self.assert_certified(res, problem, basis, self.TOL)

    @pytest.mark.parametrize("points", [0, 1, 2])
    def test_short_curves_certify_in_one_call(self, monkeypatch, points):
        calls, decide = [], powerflow.decide_cells
        monkeypatch.setattr(powerflow, "decide_cells", lambda *a, **kw: calls.append(kw["scales"]) or decide(*a, **kw))
        case = builtin_case("ring12-asym")
        problem = case_to_problem(case, GAMMA)
        basis = fundamental_cycle_basis(problem.graph)
        res = ptc(case, [-1], GAMMA, tol=self.TOL, basis=basis, curve_points=points)
        # The zero, lo and hi rows, with no row repeated.
        [scales] = calls
        assert scales.tolist() == [0.0, res.ptc, res.curve[-1].scale]
        assert len(res.curve) == points + 1
        self.assert_certified(res, problem, basis, self.TOL)

    @pytest.mark.parametrize("name, demand", [("ring12-sym", 5), ("ring12-asym", 2)])
    def test_prediction_is_the_closed_form(self, name, demand):
        # The uncertified prediction alone: where the first edge reaches
        # capacity.  Near the angle limit the slack of 1e-9 on a flow moves
        # its angle by 1e-9 / cos(gamma), and the scale by up to ~1e-7.
        problem = case_to_problem(builtin_case(name), GAMMA)
        basis = fundamental_cycle_basis(problem.graph)
        for u in feasible_winding_vectors(basis, GAMMA):
            guess = powerflow._predict_ptc(problem, basis, u, 2.0)
            assert guess == pytest.approx(oracles.ring_two_path_ptc(12, 11, demand, int(u[0]), GAMMA), abs=1e-6)
