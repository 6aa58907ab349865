"""Canonical JSON/CSV emission and the problem/solution wire formats.

All floats are written with 17 significant digits so identical inputs
produce byte-identical reports regardless of parallelism.
"""
from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import InputError
from .flows import FlowFunction, FlowNetworkProblem, Solution
from .graphs import CycleBasis, WeightedGraph

FLOAT_FMT = ".17g"


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    out = format(float(x), FLOAT_FMT)
    # Keep integral floats recognizably floats.
    if "e" not in out and "." not in out and "n" not in out and "N" not in out:
        out += ".0"
    return out


def dumps_canonical(obj: Any, indent: int = 2) -> str:
    """Deterministic JSON with fixed-precision floats."""
    pieces: list[str] = []
    _emit(obj, pieces, indent, 0)
    return "".join(pieces) + "\n"


def _emit(obj: Any, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, val) in enumerate(obj.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _emit(val, out, indent, level + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for k, val in enumerate(items):
            out.append(pad)
            _emit(val, out, indent, level + 1)
            out.append(",\n" if k < len(items) - 1 else "\n")
        out.append(closing + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif obj is None:
        out.append("null")
    else:
        out.append(json.dumps(str(obj)))


def csv_line(fields) -> str:
    cells = []
    for f in fields:
        if isinstance(f, (float, np.floating)):
            cells.append(_fmt_float(float(f)))
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
        loops = [float(c.vector @ sol.f) for c in basis.cycles]
        margins = list(problem.capacity - np.abs(sol.f))
        row = (
            [int(x) for x in sol.u]
            + list(sol.f)
            + list(sol.theta)
            + loops
            + margins
        )
        lines.append(csv_line(row))
    return "\n".join(lines) + "\n"
