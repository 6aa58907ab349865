import json
import math

import numpy as np
import pytest

from conftest import ring_graph, sin_problem, square_with_diagonal
from torusflow import (
    FlowFunction,
    InputError,
    fundamental_cycle_basis,
    solve_all,
)
from torusflow.serialize import (
    csv_line,
    dumps_canonical,
    flow_family_from_dict,
    flow_family_to_dict,
    problem_from_dict,
    problem_to_dict,
    solution_from_dict,
    solution_to_dict,
    solutions_csv,
)


class TestCanonicalJson:
    def test_fixed_precision_floats(self):
        # Python's shortest round-trip text, not a fixed 17 digits.
        text = dumps_canonical({"x": 1.0 / 3.0, "y": 2.0, "gamma": 1.4})
        assert '"x": 0.3333333333333333,' in text
        assert '"y": 2.0' in text
        assert '"gamma": 1.4\n' in text
        assert csv_line([1.0 / 3.0, 1.4, 2.0]) == "0.3333333333333333,1.4,2.0"

    def test_layout(self):
        doc = {
            "a": [1, 2.5],
            "empty_list": [],
            "empty_dict": {},
            "nested": {"u": np.array([-1, 0])},
            "bad": [float("nan"), float("inf"), -float("inf")],
            "none": None,
        }
        assert dumps_canonical(doc) == (
            "{\n"
            '  "a": [\n'
            "    1,\n"
            "    2.5\n"
            "  ],\n"
            '  "empty_list": [],\n'
            '  "empty_dict": {},\n'
            '  "nested": {\n'
            '    "u": [\n'
            "      -1,\n"
            "      0\n"
            "    ]\n"
            "  },\n"
            '  "bad": [\n'
            "    NaN,\n"
            "    Infinity,\n"
            "    -Infinity\n"
            "  ],\n"
            '  "none": null\n'
            "}\n"
        )
        assert dumps_canonical([]) == "[]\n"
        assert csv_line([float("nan"), np.float64("inf"), -float("inf"), -0.0]) == (
            "NaN,Infinity,-Infinity,-0.0"
        )

    def test_parseable_and_exact(self):
        doc = {"values": [math.pi, 1e-17, -2.5e300, 7]}
        parsed = json.loads(dumps_canonical(doc))
        assert parsed["values"][0] == math.pi
        assert parsed["values"][1] == 1e-17
        assert parsed["values"][2] == -2.5e300
        assert parsed["values"][3] == 7

    def test_deterministic(self):
        doc = {"a": [0.1, {"b": (1, 2.5)}], "c": None, "d": True}
        assert dumps_canonical(doc) == dumps_canonical(doc)

    def test_numpy_types(self):
        doc = {"u": np.array([1, -2]), "f": np.array([0.5]), "flag": np.bool_(True)}
        parsed = json.loads(dumps_canonical(doc))
        assert parsed == {"u": [1, -2], "f": [0.5], "flag": True}

    def test_csv_line(self):
        assert csv_line([1, 0.5, True, None, "x"]) == "1,0.5,true,,x"


class TestFlowFamilies:
    def test_sin_round_trip(self):
        fn = flow_family_from_dict({"family": "sin"})
        assert flow_family_to_dict(fn) == {"family": "sin"}

    def test_linear_round_trip(self):
        fn = flow_family_from_dict({"family": "linear", "slope": 2.5})
        assert flow_family_to_dict(fn) == {"family": "linear", "slope": 2.5}
        assert fn.evaluate(np.array(2.0)) == 5.0

    def test_custom_fourier(self):
        fn = flow_family_from_dict({"family": "custom", "fourier": [1.0, 0.1]})
        assert flow_family_to_dict(fn)["fourier"] == [1.0, 0.1]

    def test_unknown_family(self):
        with pytest.raises(InputError):
            flow_family_from_dict({"family": "tanh"})
        with pytest.raises(InputError):
            flow_family_from_dict({"family": "custom"})

    def test_callable_has_no_wire_format(self):
        fn = FlowFunction(evaluate=np.sin, derivative=np.cos)
        with pytest.raises(InputError):
            flow_family_to_dict(fn)


class TestProblemDocuments:
    def test_round_trip(self):
        prob = sin_problem(square_with_diagonal(), [0.2, -0.1, 0.0, -0.1], 1.3)
        doc = problem_to_dict(prob)
        again = problem_from_dict(doc)
        assert again.graph == prob.graph
        assert np.allclose(again.p, prob.p)
        assert again.gamma == prob.gamma

    def test_per_edge_families(self):
        g = ring_graph(3)
        doc = {
            "graph": g.to_dict(),
            "flow": [
                {"family": "sin"},
                {"family": "linear", "slope": 2.0},
                {"family": "sin"},
            ],
            "p": [0.0, 0.0, 0.0],
            "gamma": 1.0,
        }
        prob = problem_from_dict(doc)
        assert prob.flow_functions[1].name == "linear"
        assert prob.flow_functions[0] is prob.flow_functions[2]

    def test_missing_field(self):
        with pytest.raises(InputError):
            problem_from_dict({"graph": ring_graph(3).to_dict(), "p": [0, 0, 0]})

    def test_wrong_flow_count(self):
        doc = {
            "graph": ring_graph(3).to_dict(),
            "flow": [{"family": "sin"}],
            "p": [0, 0, 0],
            "gamma": 1.0,
        }
        with pytest.raises(InputError):
            problem_from_dict(doc)


class TestSolutionDocuments:
    def test_round_trip(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        sol = solve_all(prob)[2]
        doc = solution_to_dict(sol, basis)
        u, f, theta = solution_from_dict(doc)
        assert np.array_equal(u, sol.u)
        assert np.array_equal(f, sol.f)
        assert np.array_equal(theta, sol.theta)
        assert doc["basis_fingerprint"] == basis.fingerprint
        assert doc["report"]["iterations"] >= 1

    def test_solutions_csv_shape(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        sols = solve_all(prob, basis=basis)
        text = solutions_csv(sols, prob, basis)
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(sols)
        header = lines[0].split(",")
        assert header[0] == "u_0"
        assert len(lines[1].split(",")) == len(header)
