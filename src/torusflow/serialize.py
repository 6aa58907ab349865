"""JSON/CSV emission and the problem/solution wire formats.

Documents are written by the standard JSON encoder with two-space indent.
Floats, in JSON and CSV alike, are Python's shortest round-trip text, so
they read back to the same double and identical inputs produce
byte-identical reports; non-finite floats are spelled NaN, Infinity and
-Infinity.
"""
from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import InputError
from .flows import FlowFunction, FlowNetworkProblem, Solution, check_feasibility
from .graphs import CycleBasis, WeightedGraph


def _numpy_to_python(obj: Any) -> Any:
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON, numpy arrays and scalars included."""
    return json.dumps(obj, indent=2, default=_numpy_to_python) + "\n"


def csv_line(fields) -> str:
    cells = []
    for f in fields:
        if isinstance(f, (float, np.floating)):
            cells.append(json.dumps(float(f)))
        elif isinstance(f, (bool, np.bool_)):
            cells.append("true" if f else "false")
        elif f is None:
            cells.append("")
        else:
            cells.append(str(f))
    return ",".join(cells)


def flow_family_to_dict(fn: FlowFunction) -> dict:
    if fn.name == "sin":
        return {"family": "sin"}
    if fn.name == "linear":
        return {"family": "linear", "slope": fn.params["slope"]}
    if fn.name == "custom" and "fourier" in fn.params:
        return {"family": "custom", "fourier": list(fn.params["fourier"])}
    raise InputError(
        f"flow function {fn.name!r} has no wire format; use the library API"
    )


def flow_family_from_dict(doc: dict) -> FlowFunction:
    family = doc.get("family")
    if family == "sin":
        return FlowFunction.sin_family()
    if family == "linear":
        return FlowFunction.linear(float(doc.get("slope", 1.0)))
    if family == "custom":
        coeffs = doc.get("fourier")
        if not coeffs:
            raise InputError('custom flow family needs a "fourier" coefficient list')
        return FlowFunction.fourier([float(c) for c in coeffs])
    raise InputError(f"unknown flow family {family!r}")


def problem_to_dict(problem: FlowNetworkProblem) -> dict:
    fams = {id(f): f for f in problem.flow_functions}
    if len(fams) == 1:
        flow_doc: Any = flow_family_to_dict(problem.flow_functions[0])
    else:
        flow_doc = [flow_family_to_dict(f) for f in problem.flow_functions]
    return {
        "graph": problem.graph.to_dict(),
        "flow": flow_doc,
        "p": list(problem.p),
        "gamma": problem.gamma,
    }


def problem_from_dict(doc: dict) -> FlowNetworkProblem:
    try:
        graph = WeightedGraph.from_dict(doc["graph"])
        flow_doc = doc["flow"]
        gamma = float(doc["gamma"])
        p = [float(x) for x in doc["p"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad problem document: {exc}") from exc
    if isinstance(flow_doc, dict):
        functions = (flow_family_from_dict(flow_doc),) * graph.m
    else:
        if len(flow_doc) != graph.m:
            raise InputError("per-edge flow list must match the edge count")
        # Equal entries share one function, so the solver groups their edges.
        made: dict[str, FlowFunction] = {}
        functions = tuple(
            made.setdefault(repr(flow_family_to_dict(fn)), fn)
            for fn in map(flow_family_from_dict, flow_doc)
        )
    return FlowNetworkProblem(graph=graph, flow_functions=functions, p=p, gamma=gamma)


def basis_to_dict(basis: CycleBasis) -> dict:
    return {
        "kind": basis.kind,
        "fingerprint": basis.fingerprint,
        "cycles": [list(c.nodes) for c in basis.cycles],
    }


def solution_to_dict(sol: Solution, basis: CycleBasis | None = None) -> dict:
    report = {
        "balance_residual": sol.report.balance_residual,
        "physics_residual": sol.report.physics_residual,
        "constraint_margin": sol.report.constraint_margin,
        "winding_deviation": sol.report.winding_deviation,
        "boundary": sol.report.boundary,
    }
    if sol.iteration is not None:
        report["iterations"] = sol.iteration.iterations
        report["contraction_rate"] = sol.iteration.rate
        report["final_step"] = sol.iteration.final_step
    doc = {
        "u": [int(x) for x in sol.u],
        "f": list(sol.f),
        "theta": list(sol.theta),
        "report": report,
    }
    if basis is not None:
        doc["basis_fingerprint"] = basis.fingerprint
    return doc


def solution_from_dict(doc: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, f, theta) parsed from a solution document."""
    try:
        u = np.array([int(x) for x in doc["u"]], dtype=np.int64)
        f = np.array([float(x) for x in doc["f"]])
        theta = np.array([float(x) for x in doc["theta"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad solution document: {exc}") from exc
    return u, f, theta


def solutions_csv(
    solutions: list[Solution], problem: FlowNetworkProblem, basis: CycleBasis
) -> str:
    """One row per solution: u, f, theta, loop flows, feasibility margins."""
    k, m, n = basis.size, problem.graph.m, problem.graph.n
    header = (
        [f"u_{i}" for i in range(k)]
        + [f"f_{e}" for e in range(m)]
        + [f"theta_{i}" for i in range(n)]
        + [f"loop_flow_{i}" for i in range(k)]
        + [f"margin_{e}" for e in range(m)]
    )
    lines = [csv_line(header)]
    for sol in solutions:
        row = (
            [int(x) for x in sol.u]
            + list(sol.f)
            + list(sol.theta)
            + list(basis.matrix @ sol.f)
            + list(check_feasibility(problem, sol.f)[1])
        )
        lines.append(csv_line(row))
    return "\n".join(lines) + "\n"
