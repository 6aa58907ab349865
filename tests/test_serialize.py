import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import ring_graph, sin_problem, square_with_diagonal
from torusflow import (
    FlowFunction,
    FlowNetworkProblem,
    InputError,
    WeightedGraph,
    cli,
    fundamental_cycle_basis,
    serialize,
    solve_all,
)
from torusflow.flows import IterationReport, Solution, SolutionReport
from torusflow.serialize import (
    _numpy_to_python,
    csv_line,
    dumps_canonical,
    flow_family_from_dict,
    flow_family_to_dict,
    problem_from_dict,
    problem_to_dict,
    solution_from_dict,
    solution_rows,
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


def _standard(obj) -> str:
    """The standard encoder's text, which dumps_canonical must equal byte for byte."""
    return json.dumps(obj, indent=2, default=_numpy_to_python) + "\n"


_texts = st.text(max_size=8) | st.sampled_from(
    ["", "ascii", "caf\u00e9", "\u2028\u00ff\U0001f600", '"\\/', "\n\r\t\b\f", "\x00\x1f\x7f"]
)
_ints = st.integers() | st.sampled_from([0, -1, 2**63, -(2**64) - 1, 10**40])
_floats = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, -1e16, 1e-7, 1.4]
)
_shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
_arrays = st.one_of(
    hnp.arrays(np.float64, _shapes, elements=_floats),
    hnp.arrays(np.int64, _shapes),
    hnp.arrays(np.bool_, _shapes),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    _floats,
    _texts,
    _floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
# Flat lists of scalars reach the writer's joined path, whatever their mix
# of kinds; lists holding numpy values other than np.float64 reach its walk.
_leaves = _scalars | _arrays | st.lists(_floats, min_size=1) | st.lists(_ints, min_size=1) | st.lists(
    st.booleans() | st.integers(-3, 3), min_size=1
)
_documents = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_texts, children, max_size=5),
    ),
    max_leaves=30,
)


class TestStandardEncoderBytes:
    @given(_documents)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_documents(self, doc):
        assert dumps_canonical(doc) == _standard(doc)

    def test_edge_values(self):
        doc = {
            "floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1],
            "after_nan": [1.0, math.nan],
            "mixed": [1.5, 2, True, None, "x"],
            "bools": [True, False, 1, 0],
            "ints": [0, -(2**70), 2**63],
            "numpy": [np.float64(0.5), np.int64(-3), np.bool_(False), np.zeros((2, 0)), np.eye(2)],
            "numpy_floats": [np.float64(0.5), np.float64(math.nan), 1.5, np.float64(-math.inf)],
            "tuple": (1, (2.5, ()), {}),
            "numpy_str": np.str_("s"),
            "\u00e9\n\"": "\u2028\\",
        }
        assert dumps_canonical(doc) == _standard(doc)
        for leaf in (1.5, math.nan, -7, True, None, "s", np.float64(math.inf), np.int64(2)):
            assert dumps_canonical(leaf) == _standard(leaf)

    def test_keys_must_be_strings(self):
        for doc in ({1: "a"}, {None: 0}, {"x": {2.5: 0}}):
            with pytest.raises(TypeError):
                dumps_canonical(doc)
        with pytest.raises(TypeError):
            dumps_canonical({"x": object()})

    @pytest.mark.parametrize("case", ["pentagon", "expo(3)", "ring12-asym"])
    def test_every_cli_document(self, case, tmp_path, monkeypatch):
        """Every document a CLI subcommand writes equals the standard encoder's
        text of the same object."""
        real = serialize.dumps_canonical
        emitted = []

        def checked(obj):
            text = real(obj)
            assert text == _standard(obj)
            emitted.append(command)
            return text

        monkeypatch.setattr(serialize, "dumps_canonical", checked)
        source = ["--case", case, "--gamma", "1.4"]
        sol = tmp_path / "sol.json"
        one = tmp_path / "one.json"
        runs = [
            ["solve", *source, "--out", sol],
            ["windings", *source],
            ["basis", *source, "--basis", "minimum"],
            ["sweep", "--case", case, "--tol", "1e-3"],
            ["decompose", *source, one],
            ["check", *source, one],
            ["gen", "--gen-case", case],
        ]
        for argv in runs:
            command = argv[0]
            if command == "decompose":
                one.write_text(json.dumps(json.loads(sol.read_text())["solutions"][0]))
            cli.main([str(a) for a in argv])
        expected = {argv[0] for argv in runs}
        if case != "ring12-asym":
            expected.discard("sweep")  # its supply profile is zero: nothing to sweep
        assert set(emitted) == expected


def _rows_text(solutions, basis) -> str:
    """dumps_canonical of a solve-like document holding the rows value,
    checked against the standard encoder's text of the same document."""
    doc = {"solution_count": len(solutions), "solutions": solution_rows(solutions, basis)}
    text = dumps_canonical(doc)
    assert text == _standard(doc)
    return text


def _solution(u, f, theta, residuals=(0.0, 1e-15, 0.1, 0.0)) -> Solution:
    return Solution(
        f=np.asarray(f, dtype=float),
        theta=np.asarray(theta, dtype=float),
        u=np.asarray(u, dtype=np.int64),
        report=SolutionReport(*residuals, boundary=False, within_allowance=True),
        iteration=IterationReport(iterations=7, final_step=4.8e-15, rate=0.83),
    )


def _pentagon():
    prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
    basis = fundamental_cycle_basis(prob.graph)
    return solve_all(prob, basis=basis), basis


_fingerprints = st.sampled_from(["0123abcd", "%", "%s%%d", "100%", "caf\u00e9 %(x)s"]) | _texts
_int64s = st.integers(-(2**63), 2**63 - 1)


@st.composite
def _stacks(draw):
    """A list of solutions that mostly share one layout, and a basis or None."""
    sizes = st.lists(st.integers(0, 4), min_size=3, max_size=3)
    stack_sizes = draw(sizes)
    # True three times in four: most rows take the stack's sizes and an iteration record.
    often = st.booleans().flatmap(lambda a: st.just(True) if a else st.booleans())
    solutions = []
    for _ in range(draw(st.integers(0, 4))):
        k, m, n = stack_sizes if draw(often) else draw(sizes)
        residuals = [draw(_floats) for _ in range(4)]
        it = None
        if draw(often):
            it = IterationReport(iterations=draw(st.integers(0, 10**6)), final_step=draw(_floats), rate=draw(_floats))
        solutions.append(
            Solution(
                f=np.array(draw(st.lists(_floats, min_size=m, max_size=m)), dtype=float),
                theta=np.array(draw(st.lists(_floats, min_size=n, max_size=n)), dtype=float),
                u=np.array(draw(st.lists(_int64s, min_size=k, max_size=k)), dtype=np.int64),
                report=SolutionReport(*residuals, boundary=draw(st.booleans()), within_allowance=True),
                iteration=it,
            )
        )
    basis = draw(st.none() | _fingerprints.map(lambda text: SimpleNamespace(fingerprint=text)))
    return solutions, basis


class TestSolutionRows:
    """The rows value of a solve document, written one template per solution,
    must give the standard encoder's bytes for the expanded solution documents."""

    def test_solved_rows(self):
        solutions, basis = _pentagon()
        assert len(solutions) == 3
        text = _rows_text(solutions, basis)
        assert text.count(basis.fingerprint) == 3
        assert _rows_text(solutions[1:2], basis).count(basis.fingerprint) == 1

    def test_zero_solutions(self):
        _, basis = _pentagon()
        assert _rows_text([], basis).endswith('"solutions": []\n}\n')
        assert _rows_text([], None).endswith('"solutions": []\n}\n')

    def test_tree(self):
        tree = WeightedGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        solutions = solve_all(sin_problem(tree, [0.1, -0.2, 0.05, 0.05], 1.4))
        assert len(solutions) == 1 and solutions[0].u.size == 0
        text = _rows_text(solutions * 2, None)
        assert '"u": [],' in text and "basis_fingerprint" not in text

    def test_no_iteration_record(self):
        solutions, basis = _pentagon()
        bare = [replace(s, iteration=None) for s in solutions]
        text = _rows_text(bare, basis)
        assert "iterations" not in text
        # A stack whose first solution has a record and whose second has none.
        _rows_text([solutions[0], bare[1], solutions[2]], basis)

    def test_boundary_true(self):
        solutions, basis = _pentagon()
        marked = [replace(s, report=replace(s.report, boundary=True)) for s in solutions]
        assert _rows_text(marked, basis).count('"boundary": true') == 3
        assert _rows_text([solutions[0], marked[1]], basis).count('"boundary": true') == 1

    def test_edge_values(self):
        values = [-0.0, 5e-324, 1e-05, 1e16, 0.0001, 1e-16, -1e16, 123456789012345.6, 0.1]
        row = _solution([0, -3], values, values[::-1], residuals=(-0.0, 5e-324, 1e16, 1e-05))
        text = _rows_text([row, row], SimpleNamespace(fingerprint="f0"))
        for token in ("-0.0", "5e-324", "1e-05", "1e+16", "0.0001"):
            assert token in text

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values(self, bad):
        solutions, basis = _pentagon()
        in_flow = _solution([1], [0.5, bad, 0.5, 0.5, 0.5], np.zeros(5))
        in_report = _solution([1], np.full(5, 0.5), np.zeros(5), residuals=(0.0, bad, 0.1, 0.0))
        text = _rows_text([solutions[0], in_flow, solutions[1], in_report], basis)
        assert text.count({"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(bad)]) == 2

    def test_percent_in_literal_text(self):
        solutions, _ = _pentagon()
        for fingerprint in ("%s", "%%", "100%", "%(u)s %d"):
            assert fingerprint in json.loads(_rows_text(solutions, SimpleNamespace(fingerprint=fingerprint)))["solutions"][2]["basis_fingerprint"]

    def test_lattice_row(self):
        # A 30x30 lattice: k = 841 winding numbers, m = 1740 flows, n = 900 phases.
        side = 30
        edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
        edges += [(r * side + c, r * side + c + side) for r in range(side - 1) for c in range(side)]
        basis = fundamental_cycle_basis(WeightedGraph.from_edges(side * side, edges))
        assert basis.size == 841
        rng = np.random.default_rng(30)
        rows = [
            _solution(rng.integers(-2, 3, 841), rng.normal(size=1740), rng.uniform(-math.pi, math.pi, 900))
            for _ in range(2)
        ]
        doc = json.loads(_rows_text(rows, basis))
        assert len(doc["solutions"][1]["u"]) == 841

    def test_standard_encoder_expands_rows(self):
        solutions, basis = _pentagon()
        assert _numpy_to_python(solution_rows(solutions, basis)) == [solution_to_dict(s, basis) for s in solutions]

    @given(_stacks())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_stacks(self, stack):
        solutions, basis = stack
        _rows_text(solutions, basis)


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

    def test_per_edge_families_round_trip(self):
        funcs = (FlowFunction.sin_family(), FlowFunction.linear(2.0), FlowFunction.fourier([1.0, 0.1]))
        prob = FlowNetworkProblem(graph=ring_graph(3), flow_functions=funcs, p=[0.1, -0.1, 0.0], gamma=1.0)
        doc = problem_to_dict(prob)
        assert doc["flow"] == [
            {"family": "sin"},
            {"family": "linear", "slope": 2.0},
            {"family": "custom", "fourier": [1.0, 0.1]},
        ]
        again = problem_from_dict(json.loads(dumps_canonical(doc)))
        assert again.flow_functions == funcs
        assert problem_to_dict(again) == doc

    def test_non_finite_numbers_rejected(self):
        # json parses NaN and Infinity.
        for text in ('{"family": "linear", "slope": NaN}', '{"family": "custom", "fourier": [1.0, Infinity]}'):
            with pytest.raises(InputError, match="finite"):
                flow_family_from_dict(json.loads(text))

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

    @pytest.mark.parametrize("flow", [None, 5, "sin", [1, 2, 3], [{"family": "sin"}, {"family": "sin"}, "sin"]])
    def test_flow_must_be_an_object_or_a_list_of_objects(self, flow):
        # On a triangle "sin" and [1, 2, 3] have one entry per edge.
        doc = {"graph": ring_graph(3).to_dict(), "flow": flow, "p": [0, 0, 0], "gamma": 1.0}
        with pytest.raises(InputError, match='"flow" must be an object or a list of objects'):
            problem_from_dict(doc)


class TestSolutionDocuments:
    def test_round_trip(self):
        prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
        basis = fundamental_cycle_basis(prob.graph)
        sol = solve_all(prob)[2]
        doc = solution_to_dict(sol, basis)
        assert doc["u"] == [1] and type(doc["u"][0]) is int
        u, f, theta = solution_from_dict(doc)
        assert np.array_equal(u, sol.u)
        assert np.array_equal(f, sol.f)
        assert np.array_equal(theta, sol.theta)
        assert doc["basis_fingerprint"] == basis.fingerprint
        assert doc["report"]["iterations"] >= 1

    @pytest.mark.parametrize("u", [[0.7], [1e30], [math.nan], [False]])
    def test_winding_vector_is_read_strictly(self, u):
        with pytest.raises(InputError, match="bad solution document: .* is not an int64 integer"):
            solution_from_dict({"u": u, "f": [0.0], "theta": [0.0]})

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
