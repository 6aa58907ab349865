"""Command-line front end.

Subcommands: solve | windings | basis | sweep | decompose | check | gen.
Exit codes: 0 solutions found / success, 1 input error, 2 internal or
numerical error (and, from argparse, a usage error such as a flag the
subcommand does not take), 3 no solution, 4 verification failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .errors import (
    AcyclicGraphError,
    CyclicGraphError,
    GammaError,
    InputError,
    MissingDataError,
    SingularityError,
    TorusFlowError,
    UnknownCaseError,
    WeightError,
)
from .flows import (
    DEFAULT_RHO,
    FlowFunction,
    FlowNetworkProblem,
    Solution,
    decompose_flow,
    solve_all,
    verify_solution,
)
from .graphs import WeightedGraph, fundamental_cycle_basis, minimum_cycle_basis
from .powerflow import PTC_TOL, SWEEP_GAMMA, PowerCase, _winding_ptc, builtin_case, case_to_problem
from .torus import (
    count_feasible_winding_vectors,
    feasible_winding_bounds,
    feasible_winding_vectors,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_NO_SOLUTION = 3
EXIT_VERIFY = 4

GEN_GAMMA = 1.4  # the angle bound `gen` writes by default

_INPUT_ERRORS = (
    InputError,
    UnknownCaseError,
    MissingDataError,
    GammaError,
    SingularityError,
    WeightError,
    AcyclicGraphError,
    CyclicGraphError,
    json.JSONDecodeError,
    OSError,
    KeyError,
    ValueError,
)


def _problem_source(p, gamma_help: str = "angle bound") -> None:
    p.add_argument("input", nargs="?", help="problem JSON file")
    p.add_argument("--case", help="built-in case name instead of a file")
    p.add_argument("--gamma", type=float, default=None, help=gamma_help)
    p.add_argument("--case-data", help="external data file for rts24-mod")


def _rho(p) -> None:
    p.add_argument(
        "--rho", type=float, default=DEFAULT_RHO, help="certified flow tolerance per edge"
    )


def _basis(p) -> None:
    p.add_argument(
        "--basis",
        choices=("fundamental", "minimum"),
        default="fundamental",
        help="cycle basis kind",
    )


def _format(p) -> None:
    p.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand registers exactly the flags its handler reads, and
    solve also --jobs, which it accepts and ignores.  Built once: every
    parse_args call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="torusflow",
        description="Compute, localize, and certify all solutions of flow "
        "network problems on the n-torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            flag(p)
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    p_solve = add(
        "solve", "compute all solutions with certificates", _problem_source, _rho, _basis, _format
    )
    p_solve.add_argument("--scale", type=float, default=1.0, help="scale the supply vector")
    p_solve.add_argument("--jobs", type=int, default=1, help="accepted and ignored")

    add("windings", "list feasible winding vectors", _problem_source, _basis, _format)
    add("basis", "emit the cycle basis", _problem_source, _basis)

    p_sweep = add(
        "sweep",
        "PTC/congestion sweep over windings",
        functools.partial(_problem_source, gamma_help=f"maximum power angle (default {SWEEP_GAMMA!r})"),
        _rho,
        _basis,
        _format,
    )
    p_sweep.add_argument("--tol", type=float, default=PTC_TOL, help="width of the certified PTC bracket")

    p_dec = add("decompose", "cutset/cycle decomposition of a flow", _problem_source, _basis)
    p_dec.add_argument("solution", help="solution JSON file")

    p_check = add("check", "re-verify a solution file", _problem_source, _basis)
    p_check.add_argument("solution", help="solution JSON file")

    p_gen = add("gen", "generate a problem JSON file")
    p_gen.add_argument("--gamma", type=float, default=GEN_GAMMA, help=f"angle bound (default {GEN_GAMMA!r})")
    p_gen.add_argument("--gen-case", help="built-in case to convert to a problem")
    p_gen.add_argument("--case-data", help="external data file for rts24-mod")
    p_gen.add_argument("--nodes", type=int, default=6, help="random graph size")
    p_gen.add_argument("--extra-edges", type=int, default=2, help="edges beyond a tree")
    p_gen.add_argument("--seed", type=int, default=0, help="generation seed")
    p_gen.add_argument("--p-scale", type=float, default=0.3, help="supply magnitude")
    return parser


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _builtin_case(name: str | None, data_path: str | None) -> PowerCase | None:
    """The named built-in case, or None without a name; a data file needs a name."""
    if name:
        return builtin_case(name, data_path=data_path)
    if data_path is not None:
        raise InputError("--case-data is read only with a built-in case name")
    return None


def _load_problem(args) -> FlowNetworkProblem:
    gamma = args.gamma
    case = _builtin_case(args.case, args.case_data)
    if case is not None:
        if gamma is None:
            raise InputError("--gamma is required with --case")
        return case_to_problem(case, gamma)
    if not args.input:
        raise InputError("give a problem file or --case NAME")
    doc = json.loads(Path(args.input).read_text())
    if gamma is not None and isinstance(doc, dict):
        doc["gamma"] = gamma
    return serialize.problem_from_dict(doc)


def _load_solution(args):
    """The problem, its basis (None on a tree) and the solution file's (u, f, theta)."""
    problem = _load_problem(args)
    u, f, theta = serialize.solution_from_dict(json.loads(Path(args.solution).read_text()))
    if f.shape != (problem.graph.m,):
        raise InputError("flow length does not match the graph")
    basis = _make_basis(problem.graph, args.basis) if problem.graph.cycle_space_dim else None
    return problem, basis, u, f, theta


def _make_basis(graph: WeightedGraph, kind: str):
    if kind == "minimum":
        return minimum_cycle_basis(graph)
    return fundamental_cycle_basis(graph)


def _cmd_solve(args) -> int:
    problem = _load_problem(args)
    if not np.isfinite(args.scale):
        raise InputError(f"--scale must be finite, not {args.scale!r}")
    if args.scale != 1.0:
        problem = problem.with_supply(args.scale * problem.p)
    basis = _make_basis(problem.graph, args.basis) if problem.graph.cycle_space_dim else None
    solutions = solve_all(problem, rho=args.rho, basis=basis)
    if args.format == "csv":
        if basis is None:
            raise InputError("CSV solve output needs a cyclic graph")
        text = serialize.solutions_csv(solutions, problem, basis)
    else:
        doc = {
            "problem": serialize.problem_to_dict(problem),
            "rho": args.rho,
            "basis": serialize.basis_to_dict(basis) if basis is not None else None,
            "solution_count": len(solutions),
            "solutions": serialize.solution_rows(solutions, basis),
        }
        text = serialize.dumps_canonical(doc)
    _write(text, args.out)
    return EXIT_OK if solutions else EXIT_NO_SOLUTION


def _cmd_windings(args) -> int:
    problem = _load_problem(args)
    g = problem.graph
    if g.cycle_space_dim == 0:
        rows = []
        doc = {"acyclic": True, "note": "acyclic: unique-solution regime", "candidates": 1}
    else:
        basis = _make_basis(g, args.basis)
        bounds = feasible_winding_bounds(basis, problem.gamma)
        rows = [
            {"nodes": list(c.nodes), "length": c.length, "bound": b}
            for c, b in zip(basis.cycles, bounds)
        ]
        doc = {
            "basis": serialize.basis_to_dict(basis),
            "gamma": problem.gamma,
            "cycles": rows,
            "candidates": count_feasible_winding_vectors(basis, problem.gamma),
        }
    if args.format == "csv":
        lines = [serialize.csv_line(["cycle", "length", "bound"])]
        for row in rows:
            lines.append(
                serialize.csv_line(
                    ["-".join(map(str, row["nodes"])), row["length"], row["bound"]]
                )
            )
        lines.append(serialize.csv_line(["candidates", doc["candidates"], ""]))
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(serialize.dumps_canonical(doc), args.out)
    return EXIT_OK


def _cmd_basis(args) -> int:
    problem = _load_problem(args)
    basis = _make_basis(problem.graph, args.basis)
    doc = serialize.basis_to_dict(basis)
    doc["vectors"] = [c.vector.tolist() for c in basis.cycles]
    doc["lengths"] = list(basis.lengths)
    _write(serialize.dumps_canonical(doc), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if not args.case and not args.input:
        raise InputError("sweep needs --case NAME or a case JSON file")
    case = _builtin_case(args.case, args.case_data)
    if case is None:
        case = PowerCase.from_dict(json.loads(Path(args.input).read_text()))
    gamma = SWEEP_GAMMA if args.gamma is None else args.gamma
    problem = case_to_problem(case, gamma)
    basis = _make_basis(problem.graph, args.basis)
    results = [
        _winding_ptc(problem, basis, u, args.tol, args.rho)
        for u in feasible_winding_vectors(basis, gamma)
    ]
    k = basis.size
    if args.format == "csv":
        header = [f"u_{i}" for i in range(k)] + ["P", "exists", "congestion"] + [
            f"loop_flow_{i}" for i in range(k)
        ]
        lines = [serialize.csv_line(header)]
        for res in results:
            for sample in res.curve:
                loops = list(sample.loop_flows) or [None] * k
                lines.append(
                    serialize.csv_line(
                        [int(x) for x in res.u]
                        + [sample.scale, sample.exists, sample.congestion]
                        + loops
                    )
                )
        _write("\n".join(lines) + "\n", args.out)
    else:
        doc = {
            "case": case.name or "file",
            "gamma": gamma,
            "basis": serialize.basis_to_dict(basis),
            "results": [
                {
                    "u": [int(x) for x in res.u],
                    "ptc": res.ptc,
                    "curve": [
                        {
                            "P": s.scale,
                            "exists": s.exists,
                            "congestion": s.congestion,
                            "loop_flows": list(s.loop_flows),
                        }
                        for s in res.curve
                    ],
                }
                for res in results
            ],
        }
        _write(serialize.dumps_canonical(doc), args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    problem, basis, _, f, _ = _load_solution(args)
    f_cut, f_cyc = decompose_flow(problem.graph, f)
    doc = {
        "f": f.tolist(),
        "f_cut": f_cut.tolist(),
        "f_cyc": f_cyc.tolist(),
        "balance_residual": float(
            np.max(np.abs(problem.graph.divergence(f) - problem.p))
        ),
    }
    if basis is not None:
        doc["basis_fingerprint"] = basis.fingerprint
        doc["loop_flows"] = basis.matrix @ f
    _write(serialize.dumps_canonical(doc), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    problem, basis, u, f, theta = _load_solution(args)
    if basis is not None:
        if u.shape != (basis.size,):
            raise InputError("winding vector length does not match the basis")
    elif u.size:
        raise InputError("an acyclic graph has no cycles: its winding vector must be empty")
    report = verify_solution(problem, basis, f, theta, u)
    flagged = report.failures()
    doc = {"ok": not flagged, **serialize.solution_to_dict(Solution(f, theta, u, report))["report"]}
    _write(serialize.dumps_canonical(doc), args.out)
    if flagged:
        print("verification failed: " + "; ".join(flagged), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_gen(args) -> int:
    case = _builtin_case(args.gen_case, args.case_data)
    if case is not None:
        problem = case_to_problem(case, args.gamma)
    else:
        rng = np.random.default_rng(args.seed)
        n = max(2, args.nodes)
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        existing = {(min(a, b), max(a, b)) for a, b in edges}
        attempts = 0
        while len(edges) < n - 1 + args.extra_edges and attempts < 1000:
            attempts += 1
            a, b = sorted(rng.integers(0, n, size=2).tolist())
            if a == b or (a, b) in existing:
                continue
            existing.add((a, b))
            edges.append((a, b))
        weights = rng.uniform(0.5, 1.5, size=len(edges))
        graph = WeightedGraph.from_edges(n, edges, weights)
        p = rng.normal(size=n)
        p = args.p_scale * (p - p.mean())
        problem = FlowNetworkProblem.single_family(graph, FlowFunction.sin_family(), p, args.gamma)
    _write(serialize.dumps_canonical(serialize.problem_to_dict(problem)), args.out)
    return EXIT_OK


_DISPATCH = {
    "solve": _cmd_solve,
    "windings": _cmd_windings,
    "basis": _cmd_basis,
    "sweep": _cmd_sweep,
    "decompose": _cmd_decompose,
    "check": _cmd_check,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TorusFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
