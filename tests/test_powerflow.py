import json
import math

import numpy as np
import pytest

import oracles
import torusflow.powerflow as powerflow
from torusflow import (
    GammaError,
    InputError,
    MissingDataError,
    PowerCase,
    UnknownCaseError,
    builtin_case,
    case_to_problem,
    congestion,
    feasible_winding_vectors,
    fundamental_cycle_basis,
    matpower_branch_to_edge,
    ptc,
    solve_all,
)

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

    def test_large_imbalance_rejected(self):
        with pytest.raises(InputError, match="imbalance"):
            PowerCase(buses=((1.0, 1.1), (1.0, -1.0)), branches=((0, 1, 1.0),))

    def test_bad_voltage_rejected(self):
        with pytest.raises(InputError):
            PowerCase(buses=((0.0, 0.0), (1.0, 0.0)), branches=((0, 1, 1.0),))

    def test_gamma_limit(self):
        with pytest.raises(GammaError):
            case_to_problem(builtin_case("pentagon"), math.pi / 2)

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

    def test_matpower_stub(self):
        i, j, b = matpower_branch_to_edge([1, 3, 0.01, 0.2, 0.0])
        assert (i, j, b) == (0, 2, 5.0)
        with pytest.raises(InputError):
            matpower_branch_to_edge([1, 2, 0.0, -1.0, 0.0])


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
        # The bracket starts at the node-capacity ceiling, 2 sin(gamma) plus slack.
        hi0 = 2.0 * math.sin(GAMMA) + 1e-6
        assert len(calls) <= 2 + math.ceil(math.log(hi0 / tol) / math.log(powerflow.SECTIONS))
        # One probe at zero, SECTIONS - 1 per round, and the curve.
        assert [len(scales) for _, scales in calls] == [1] + [powerflow.SECTIONS - 1] * (len(calls) - 2) + [9]
        # The probes keep only their verdicts; the curve's flows are emitted.
        assert [r for r, _ in calls] == [math.inf] * (len(calls) - 1) + [rho]
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

    def test_bracket_ends_at_the_first_probe_that_is_not_feasible(self, monkeypatch):
        # A probe of the first round reads not feasible between feasible
        # ones, as an undecided probe may: the bracket stays below it.
        calls, flagged = [], []
        decide = powerflow.decide_cells

        def flag_one(*args, **kw):
            flows, verdicts = decide(*args, **kw)
            calls.append(kw["scales"])
            if len(calls) == 2:
                assert verdicts.feasible[4:8].all()
                verdicts.feasible[5] = False
                flagged.append(float(kw["scales"][5]))
            return flows, verdicts

        monkeypatch.setattr(powerflow, "decide_cells", flag_one)
        res = ptc(builtin_case("ring12-asym"), [1], GAMMA, tol=1e-7)
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

    def test_zero_profile_rejected(self):
        with pytest.raises(InputError):
            ptc(builtin_case("pentagon"), [0], 1.4)
