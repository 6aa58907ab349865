import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import ring_graph, sin_problem
from torusflow import WeightedGraph, cli, fundamental_cycle_basis
from torusflow.cli import main
from torusflow.serialize import dumps_canonical, problem_to_dict


@pytest.fixture
def pentagon_file(tmp_path):
    prob = sin_problem(ring_graph(5), np.zeros(5), 1.4)
    path = tmp_path / "pentagon.json"
    path.write_text(dumps_canonical(problem_to_dict(prob)))
    return path


def run(args):
    return main([str(a) for a in args])


class TestSolve:
    def test_pentagon_three_solutions(self, pentagon_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert run(["solve", pentagon_file, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["solution_count"] == 3
        assert [s["u"] for s in doc["solutions"]] == [[-1], [0], [1]]

    def test_no_solution_exit_3(self, tmp_path):
        prob = sin_problem(ring_graph(5), [0.4, 0.0, 0.0, 0.0, -0.4], 0.1)
        path = tmp_path / "hard.json"
        path.write_text(dumps_canonical(problem_to_dict(prob)))
        assert run(["solve", path]) == 3

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["solve", path]) == 1
        assert "input error" in capsys.readouterr().err

    def test_missing_input_exit_1(self):
        assert run(["solve"]) == 1

    def test_case_requires_gamma(self):
        assert run(["solve", "--case", "pentagon"]) == 1

    def test_builtin_case(self, tmp_path):
        out = tmp_path / "out.json"
        assert run(["solve", "--case", "pentagon", "--gamma", 1.4, "--out", out]) == 0
        assert json.loads(out.read_text())["solution_count"] == 3

    def test_rts24_with_case_data(self, tmp_path, capsys):
        data = tmp_path / "rts.json"
        data.write_text(json.dumps({
            "buses": [{"v": 1.0} for _ in range(24)],
            "branches": [[i, i + 1, 1.0] for i in range(23)] + [[23, 0, 1.0]],
        }))
        out = tmp_path / "out.json"
        argv = ["--case", "rts24-mod", "--case-data", data, "--gamma", 1.4]
        assert run(["solve", *argv, "--scale", 0.1, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["problem"]["graph"]["n"] == 24 and doc["solution_count"] >= 1
        assert run(["gen", "--gen-case", "rts24-mod", "--case-data", data, "--out", out]) == 0
        assert json.loads(out.read_text())["graph"]["n"] == 24
        assert run(["solve", out, "--case-data", data]) == 1
        assert "--case-data" in capsys.readouterr().err

    def test_gamma_replaces_the_files_gamma_before_the_build(self, tmp_path, capsys):
        # The sine's certificate fails at 1.6 > pi/2: only --gamma's value builds.
        doc = problem_to_dict(sin_problem(ring_graph(3), [0.1, 0.0, -0.1], 1.4))
        at_14, at_16 = tmp_path / "at-1.4.json", tmp_path / "at-1.6.json"
        at_14.write_text(json.dumps(doc))
        at_16.write_text(json.dumps(dict(doc, gamma=1.6)))
        assert run(["solve", at_16]) == 1
        assert "input error:" in capsys.readouterr().err
        overridden, rewritten = tmp_path / "overridden.json", tmp_path / "rewritten.json"
        assert run(["solve", at_16, "--gamma", 1.4, "--out", overridden]) == 0
        assert run(["solve", at_14, "--out", rewritten]) == 0
        assert overridden.read_bytes() == rewritten.read_bytes()

    _TRIANGLE = problem_to_dict(sin_problem(ring_graph(3), [0.1, 0.0, -0.1], 1.4))

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["solve"], dict(_TRIANGLE, graph={"n": 3.9, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0]]})),
            (["solve"], dict(_TRIANGLE, graph={"n": 3, "edges": [[0, 1.7, 1.0], [1, 2, 1.0], [2, 0, 1.0]]})),
            (["solve"], dict(_TRIANGLE, flow=None)),
            (["solve"], dict(_TRIANGLE, flow=5)),
            (["solve"], dict(_TRIANGLE, flow="sin")),
            (["solve"], dict(_TRIANGLE, flow=[1, 2, 3])),
            (["sweep"], {"buses": [{"v": 1.0, "p": 0.0}] * 3, "branches": [[0, 1.5, 1.0], [1, 2, 1.0], [2, 0, 1.0]]}),
            (
                ["solve", "--case", "rts24-mod", "--gamma", 1.4, "--case-data"],
                {
                    "buses": [{"v": 1.0}] * 24,
                    "branches": [[i, i + 1, 1.0] for i in range(22)] + [[22.5, 23, 1.0], [23, 0, 1.0]],
                },
            ),
        ],
        ids=[
            "fractional-n", "fractional-endpoint", "flow-null", "flow-5", "flow-sin", "flow-ints",
            "case-fractional-endpoint", "rts24-fractional-endpoint",
        ],
    )
    def test_malformed_document_is_one_input_error_line(self, argv, doc, tmp_path, capsys):
        # The document's path is the last argument: a problem file, a case
        # file or an rts24 data file.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run([*argv, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1

    def test_csv_format(self, pentagon_file, tmp_path):
        out = tmp_path / "sol.csv"
        assert run(["solve", pentagon_file, "--format", "csv", "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4

    def test_jobs_byte_identical(self, pentagon_file, tmp_path):
        out1, out8 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["solve", pentagon_file, "--jobs", 1, "--out", out1]) == 0
        assert run(["solve", pentagon_file, "--jobs", 8, "--out", out8]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_scale_flag(self, tmp_path):
        out = tmp_path / "out.json"
        code = run(
            ["solve", "--case", "ring12-sym", "--gamma", 1.4, "--scale", 3.0, "--out", out]
        )
        assert code == 3  # 3.0 > PTC at gamma=1.4 for every winding


class TestWindings:
    def test_ring12(self, tmp_path):
        out = tmp_path / "w.json"
        gamma = math.pi / 2 - 0.01
        assert run(["windings", "--case", "ring12-sym", "--gamma", gamma, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["candidates"] == 5
        assert doc["cycles"][0]["bound"] == 2

    def test_expo3(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["windings", "--case", "expo(3)", "--gamma", 1.4, "--out", out]) == 0
        assert json.loads(out.read_text())["candidates"] == 27

    def test_tree_message(self, tmp_path):
        from torusflow import WeightedGraph
        from torusflow.serialize import problem_to_dict as p2d

        prob = sin_problem(
            WeightedGraph.from_edges(3, [(0, 1), (1, 2)]), [0.1, 0.0, -0.1], 1.0
        )
        path = tmp_path / "tree.json"
        path.write_text(dumps_canonical(p2d(prob)))
        out = tmp_path / "w.json"
        assert run(["windings", path, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["acyclic"] is True
        assert "unique-solution regime" in doc["note"]
        assert doc["candidates"] == 1

    def test_tree_csv_format(self, tmp_path):
        prob = sin_problem(WeightedGraph.from_edges(3, [(0, 1), (1, 2)]), [0.1, 0.0, -0.1], 1.0)
        path = tmp_path / "tree.json"
        path.write_text(dumps_canonical(problem_to_dict(prob)))
        out = tmp_path / "w.csv"
        assert run(["windings", path, "--format", "csv", "--out", out]) == 0
        assert out.read_text() == "cycle,length,bound\ncandidates,1,\n"

    def test_csv_format(self, tmp_path):
        out = tmp_path / "w.csv"
        gamma = math.pi / 2 - 0.01
        assert run(["windings", "--case", "ring12-sym", "--gamma", gamma, "--format", "csv", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "cycle,length,bound"
        assert len(lines) == 3 and lines[1].split(",")[1:] == ["12", "2"]
        assert lines[1].split(",")[0] == "-".join(map(str, fundamental_cycle_basis(ring_graph(12)).cycles[0].nodes))
        assert lines[2] == "candidates,5,"


class TestBasis:
    def test_fundamental_and_minimum(self, tmp_path):
        out = tmp_path / "b.json"
        assert run(["basis", "--case", "expo(2)", "--gamma", 1.4, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "fundamental"
        assert doc["lengths"] == [5, 5]
        assert (
            run(
                ["basis", "--case", "expo(2)", "--gamma", 1.4, "--basis", "minimum", "--out", out]
            )
            == 0
        )
        assert json.loads(out.read_text())["kind"] == "minimum"


class TestSweep:
    def test_needs_a_case_or_a_file_exit_1(self, capsys):
        assert run(["sweep"]) == 1
        assert "sweep needs --case NAME or a case JSON file" in capsys.readouterr().err

    def test_gamma_zero_only_u0(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(
            ["sweep", "--case", "ring12-sym", "--gamma", 0.0, "--format", "csv",
             "--tol", 1e-3, "--out", out]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        u_values = {line.split(",")[0] for line in lines[1:]}
        assert u_values == {"0"}

    def test_symmetric_profile_symmetry(self, tmp_path):
        out = tmp_path / "s.json"
        gamma = math.pi / 2 - 0.01
        code = run(
            ["sweep", "--case", "ring12-sym", "--gamma", gamma, "--tol", 1e-6, "--out", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        by_u = {tuple(r["u"]): r["ptc"] for r in doc["results"]}
        assert set(by_u) == {(-2,), (-1,), (0,), (1,), (2,)}
        for u in (1, 2):
            assert by_u[(u,)] == pytest.approx(by_u[(-u,)], abs=1e-5)
        assert by_u[(0,)] == max(by_u.values())

    def test_tol_below_the_float_spacing_exits_input(self, tmp_path):
        # In its own process under a timeout: a bracket that stops narrowing
        # would spin, not fail.
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "torusflow.cli", "sweep", "--case", "ring12-asym", "--tol", "1e-17"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == cli.EXIT_INPUT, proc.stderr
        assert "ulps" in proc.stderr

    def test_asymmetric_argmax_winding(self, tmp_path):
        out = tmp_path / "s.json"
        gamma = math.pi / 2 - 0.01
        code = run(
            ["sweep", "--case", "ring12-asym", "--gamma", gamma, "--tol", 1e-6, "--out", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        by_u = {tuple(r["u"]): r["ptc"] for r in doc["results"]}
        best = max(by_u, key=by_u.get)
        # the paper's plot mirrors this under its opposite orientation
        assert best == (1,)
        assert by_u[(1,)] > by_u[(0,)]


class TestCheckAndDecompose:
    def _solve_to_files(self, pentagon_file, tmp_path):
        out = tmp_path / "sols.json"
        assert run(["solve", pentagon_file, "--out", out]) == 0
        doc = json.loads(out.read_text())
        sol_path = tmp_path / "one.json"
        sol_path.write_text(json.dumps(doc["solutions"][2]))
        return sol_path, doc

    def test_check_good_solution(self, pentagon_file, tmp_path):
        sol_path, _ = self._solve_to_files(pentagon_file, tmp_path)
        assert run(["check", pentagon_file, sol_path]) == 0

    def test_check_keys_are_the_solve_report_keys(self, pentagon_file, tmp_path):
        # check writes "ok", then a solve document's report keys in their
        # order, all but the iteration keys that trail them.
        sol_path, doc = self._solve_to_files(pentagon_file, tmp_path)
        out = tmp_path / "check.json"
        assert run(["check", pentagon_file, sol_path, "--out", out]) == 0
        keys, report = list(json.loads(out.read_text())), list(doc["solutions"][2]["report"])
        assert keys[0] == "ok" and keys[1:] == report[: len(keys) - 1]
        assert report[len(keys) - 1 :] == ["iterations", "contraction_rate", "final_step"]

    def test_check_perturbed_flow(self, pentagon_file, tmp_path, capsys):
        sol_path, doc = self._solve_to_files(pentagon_file, tmp_path)
        sol = doc["solutions"][2]
        sol["f"][0] += 1e-3
        sol_path.write_text(json.dumps(sol))
        assert run(["check", pentagon_file, sol_path]) == 4
        assert "balance residual" in capsys.readouterr().err

    def test_check_wrong_winding(self, pentagon_file, tmp_path, capsys):
        sol_path, doc = self._solve_to_files(pentagon_file, tmp_path)
        sol = doc["solutions"][2]
        sol["u"] = [0]
        sol_path.write_text(json.dumps(sol))
        assert run(["check", pentagon_file, sol_path]) == 4
        assert "winding mismatch" in capsys.readouterr().err

    def test_check_nan_flow(self, pentagon_file, tmp_path, capsys):
        sol_path, doc = self._solve_to_files(pentagon_file, tmp_path)
        sol = doc["solutions"][2]
        sol["f"][0] = float("nan")
        sol_path.write_text(json.dumps(sol))
        assert run(["check", pentagon_file, sol_path]) == 4
        assert "balance residual nan" in capsys.readouterr().err

    @pytest.mark.parametrize("u", [[0.7], [1e30]])
    def test_check_non_integer_winding_vector_exit_1(self, u, pentagon_file, tmp_path, capsys):
        # int() would read 0.7 as 0, which passes check, and overflow on 1e30.
        sol_path, doc = self._solve_to_files(pentagon_file, tmp_path)
        sol_path.write_text(json.dumps(dict(doc["solutions"][1], u=u)))
        assert run(["check", pentagon_file, sol_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: bad solution document: ") and "is not an int64 integer" in err
        assert err.count("\n") == 1

    def test_check_winding_vector_of_the_wrong_length_exit_1(self, pentagon_file, tmp_path, capsys):
        sol_path, doc = self._solve_to_files(pentagon_file, tmp_path)
        sol = doc["solutions"][2]
        sol["u"] = [0, 0]
        sol_path.write_text(json.dumps(sol))
        assert run(["check", pentagon_file, sol_path]) == 1
        assert "winding vector length does not match the basis" in capsys.readouterr().err

    def test_check_flow_of_the_wrong_length_exit_1(self, tmp_path, capsys):
        problem = tmp_path / "mesh.json"
        assert run(["gen", "--nodes", 6, "--extra-edges", 2, "--seed", 1, "--out", problem]) == 0
        out = tmp_path / "sols.json"
        assert run(["solve", problem, "--out", out]) == 0
        sol = json.loads(out.read_text())["solutions"][0]
        assert len(sol["f"]) == 7
        sol["f"] = sol["f"][:-1]
        sol_path = tmp_path / "one.json"
        sol_path.write_text(json.dumps(sol))
        assert run(["check", problem, sol_path]) == 1
        assert "flow length does not match the graph" in capsys.readouterr().err

    def test_check_winding_vector_on_a_tree_exit_1(self, tmp_path, capsys):
        problem = tmp_path / "tree.json"
        argv = ["gen", "--nodes", 5, "--extra-edges", 0, "--seed", 3, "--p-scale", 0.05, "--out", problem]
        assert run(argv) == 0
        out = tmp_path / "sols.json"
        assert run(["solve", problem, "--out", out]) == 0
        sol = json.loads(out.read_text())["solutions"][0]
        assert sol["u"] == []
        sol_path = tmp_path / "one.json"
        sol_path.write_text(json.dumps(sol))
        assert run(["check", problem, sol_path]) == 0
        sol["u"] = [3]
        sol_path.write_text(json.dumps(sol))
        assert run(["check", problem, sol_path]) == 1
        assert "winding vector must be empty" in capsys.readouterr().err

    def test_decompose_flow_of_the_wrong_length_exit_1(self, pentagon_file, tmp_path, capsys):
        sol_path, doc = self._solve_to_files(pentagon_file, tmp_path)
        sol = doc["solutions"][2]
        sol["f"] = sol["f"][:-1]
        sol_path.write_text(json.dumps(sol))
        assert run(["decompose", pentagon_file, sol_path]) == 1
        assert "flow length does not match the graph" in capsys.readouterr().err

    def test_decompose(self, pentagon_file, tmp_path):
        sol_path, _ = self._solve_to_files(pentagon_file, tmp_path)
        out = tmp_path / "dec.json"
        assert run(["decompose", pentagon_file, sol_path, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert np.allclose(doc["f_cut"], 0.0, atol=1e-9)
        assert doc["loop_flows"][0] == pytest.approx(5 * math.sin(2 * math.pi / 5), abs=1e-6)


class TestGen:
    def test_random_problem_solvable(self, tmp_path):
        path = tmp_path / "gen.json"
        assert run(["gen", "--seed", 7, "--nodes", 6, "--p-scale", 0.1, "--out", path]) == 0
        assert run(["solve", path]) in (0, 3)

    def test_deterministic_for_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", "--seed", 3, "--out", a])
        run(["gen", "--seed", 3, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_case(self, tmp_path):
        path = tmp_path / "pent.json"
        assert run(["gen", "--gen-case", "pentagon", "--gamma", 1.4, "--out", path]) == 0
        assert run(["solve", path]) == 0

    def test_unknown_case_exit_1(self):
        assert run(["gen", "--gen-case", "nonsense"]) == 1


class TestNonFiniteInputs:
    """NaN and inf are refused as input errors (exit 1), from flags and from
    JSON, which parses NaN and Infinity."""

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_sweep_tol(self, tol, tmp_path, capsys):
        assert run(["sweep", "--case", "ring12-sym", "--tol", tol, "--out", tmp_path / "s.json"]) == 1
        assert "tol and rho must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--rho", "inf"], ["--rho", "nan"], ["--scale", "nan"], ["--scale", "inf"]])
    def test_solve_flags(self, flags, tmp_path):
        assert run(["solve", "--case", "pentagon", "--gamma", 1.4, *flags, "--out", tmp_path / "s.json"]) == 1

    @pytest.mark.parametrize("scale", ["inf", "nan"])
    def test_solve_scale_stderr_is_one_line(self, scale):
        # In its own process, so that a numpy warning would reach stderr: the
        # scale is refused before it multiplies p, whose zeros inf turns to NaN.
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "torusflow.cli", "solve", "--case", "pentagon", "--gamma", "1.4", "--scale", scale],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"input error: --scale must be finite, not {float(scale)!r}\n"

    @pytest.mark.parametrize("field", ["weight", "p"])
    def test_json_document(self, field, pentagon_file, tmp_path, capsys):
        doc = json.loads(pentagon_file.read_text())
        if field == "weight":
            doc["graph"]["edges"][0][2] = math.nan
        else:
            doc["p"][0], doc["p"][1] = math.inf, -math.inf
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert run(["solve", path, "--out", tmp_path / "s.json"]) == 1
        assert "must be finite" in capsys.readouterr().err


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the attributes read from it."""

    def __init__(self):
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


class TestFlags:
    """Each subcommand registers exactly the flags its handler reads."""

    @pytest.fixture
    def runs(self, pentagon_file, tmp_path):
        sols = tmp_path / "sols.json"
        assert run(["solve", pentagon_file, "--out", sols]) == 0
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(json.loads(sols.read_text())["solutions"][0]))
        ring = tmp_path / "ring.json"
        ring.write_text(json.dumps({
            "buses": [{"v": 1.0, "p": p} for p in (1.0, -1.0, 0.0, 0.0)],
            "branches": [[i, (i + 1) % 4, 1.0] for i in range(4)],
        }))
        # Between them the runs of a subcommand take every branch that reads a flag.
        return {
            "solve": [[pentagon_file]],
            "windings": [[pentagon_file]],
            "basis": [[pentagon_file]],
            "sweep": [[ring, "--tol", 1e-3], ["--case", "ring12-sym", "--gamma", 0.0, "--tol", 1e-3]],
            "decompose": [[pentagon_file, sol]],
            "check": [[pentagon_file, sol]],
            "gen": [["--nodes", 4]],
        }

    def test_registered_flags_are_read(self, runs, tmp_path):
        out = tmp_path / "out"
        parser = cli._build_parser()
        assert set(runs) == set(cli._DISPATCH)
        registered_total = 0
        for command, argvs in runs.items():
            read = set()
            for argv in argvs:
                args = parser.parse_args(
                    [command, *map(str, argv), "--out", str(out)], namespace=_ReadRecorder()
                )
                registered = set(vars(args)) - {"command", "_reads"}
                args._reads.clear()
                assert cli._DISPATCH[command](args) == 0
                read |= args._reads
            ignored = {"jobs"} if command == "solve" else set()
            assert registered == read | ignored, command
            registered_total += len(registered)
        assert registered_total == 54

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "--case", "pentagon", "--gamma", "1.4", "--format", "csv"],
            ["windings", "--case", "pentagon", "--gamma", "1.4", "--rho", "1e-6"],
            ["sweep", "--case", "ring12-sym", "--jobs", "2"],
            ["gen", "--basis", "minimum"],
        ],
    )
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
