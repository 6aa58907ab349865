"""JSON/CSV emission and the problem/solution wire formats.

Documents are written by a small recursive writer whose bytes equal the
standard encoder's, `json.dumps(obj, indent=2)`, plus a newline: it writes
each flat list of JSON scalars, an edge row as much as a flow, with one
`str.join` of their texts.  The solutions of a solve document go in as one
`solution_rows` value, written with one %-template per solution instead of
one recursive walk per solution.  Floats, in JSON and CSV alike, are
Python's shortest round-trip text, so they read back to the same double and
identical inputs produce byte-identical reports; non-finite floats are
spelled NaN, Infinity and -Infinity.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from operator import attrgetter
from typing import Any

import numpy as np

from .errors import InputError
from .flows import FlowFunction, FlowNetworkProblem, Solution, check_feasibility
from .graphs import CycleBasis, WeightedGraph, _wire_int


def _numpy_to_python(obj: Any) -> Any:
    """The plain value of a numpy array or scalar, or the list of solution
    documents of a `solution_rows` value: the standard encoder's `default`."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, _SolutionRows):
        return [solution_to_dict(s, obj.basis) for s in obj.solutions]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_encode_str = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    """JSON text of a float: its shortest round-trip repr, non-finite spelled out."""
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# The text of each scalar type, looked up by exact type; np.float64 is a
# float.  Other numpy scalars go through `_numpy_to_python` to the equal
# Python scalar, whose text the standard encoder also writes.
_SCALARS = {
    str: _encode_str,
    float: _float_text,
    np.float64: _float_text,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _leaf_text(items: list | tuple, sep: str) -> str | None:
    """A flat list of JSON scalars as one join of their `_SCALARS` texts, or
    None when some item is a list, a dict or a numpy value, for `_write` to walk."""
    try:
        return sep.join([_SCALARS[type(x)](x) for x in items])
    except KeyError:
        return None


def _write(obj: Any, indent: str) -> str:
    """JSON text of obj nested at `indent`, laid out as by json.dumps(indent=2)."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        body = _leaf_text(obj, sep)
        if body is None:
            body = sep.join([_write(x, inner) for x in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join([_encode_str(k) + ": " + _write(v, inner) for k, v in obj.items()])
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(obj, _SolutionRows):
        return _write_rows(obj, indent)
    return _write(_numpy_to_python(obj), indent)


def _template(obj: Any, indent: str) -> str:
    """The text of a solution document obj nested at `indent`, as `_write`
    lays it out, with a %s slot for each scalar and for each item of a flat
    list; strings, keys among them, are literal text with % escaped."""
    if isinstance(obj, str):
        return _encode_str(obj).replace("%", "%%")
    inner = indent + "  "
    if isinstance(obj, list):
        if not obj:
            return "[]"
        return "[\n" + inner + (",\n" + inner).join(["%s"] * len(obj)) + "\n" + indent + "]"
    if isinstance(obj, dict):
        body = (",\n" + inner).join(
            [_template(k, inner) + ": " + _template(v, inner) for k, v in obj.items()]
        )
        return "{\n" + inner + body + "\n" + indent + "}"
    return "%s"


def _write_rows(rows: _SolutionRows, indent: str) -> str:
    """`_write` of `solution_to_dict(s, rows.basis)` for each solution s, as
    one list: each solution fills the slots of one template, made from the
    first solution's document, with its u, f, theta and report values.  A
    solution whose document has another layout, or that holds a NaN or an
    infinity (a %s slot spells those with an "n"), is walked by `_write`,
    and so is a lone solution, for which making the template costs more
    than the walk."""
    if len(rows.solutions) < 2:
        return _write([solution_to_dict(s, rows.basis) for s in rows.solutions], indent)
    inner = indent + "  "
    first = rows.solutions[0]
    template = _template(solution_to_dict(first, rows.basis), inner)
    letters_n = template.count("n")
    keys, report_values = _report_layout(first.iteration is not None)
    at_boundary = keys.index("boundary")
    layout = (first.u.shape, first.f.shape, first.theta.shape, first.iteration is None)
    texts = []
    for s in rows.solutions:
        if (s.u.shape, s.f.shape, s.theta.shape, s.iteration is None) == layout:
            report = report_values(s)
            text = template % (
                *s.u.tolist(),
                *s.f.tolist(),
                *s.theta.tolist(),
                *report[:at_boundary],
                _SCALARS[bool](report[at_boundary]),
                *report[at_boundary + 1 :],
            )
            if text.count("n") == letters_n:
                texts.append(text)
                continue
        texts.append(_write(solution_to_dict(s, rows.basis), inner))
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON, numpy arrays and scalars included: the bytes of
    `json.dumps(obj, indent=2, default=_numpy_to_python) + "\n"` for a
    document of str-keyed dicts, lists, tuples, str, int, float, bool, None,
    numpy values and `solution_rows` values, which that hook expands to
    their lists of solution documents.  Any other key or value raises
    TypeError."""
    return _write(obj, "") + "\n"


def csv_line(fields) -> str:
    cells = []
    for f in fields:
        if isinstance(f, (float, np.floating)):
            cells.append(_float_text(float(f)))
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
    if len(problem._edge_groups) == 1:
        flow_doc: Any = flow_family_to_dict(problem.flow_functions[0])
    else:
        flow_doc = [flow_family_to_dict(f) for f in problem.flow_functions]
    return {
        "graph": problem.graph.to_dict(),
        "flow": flow_doc,
        "p": problem.p.tolist(),
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
        if not (isinstance(flow_doc, list) and all(isinstance(d, dict) for d in flow_doc)):
            raise InputError(f'"flow" must be an object or a list of objects, not {flow_doc!r}')
        if len(flow_doc) != graph.m:
            raise InputError("per-edge flow list must match the edge count")
        functions = tuple(map(flow_family_from_dict, flow_doc))
    return FlowNetworkProblem(graph=graph, flow_functions=functions, p=p, gamma=gamma)


def basis_to_dict(basis: CycleBasis) -> dict:
    return {
        "kind": basis.kind,
        "fingerprint": basis.fingerprint,
        "cycles": [list(c.nodes) for c in basis.cycles],
    }


# The report of a solution document, in order: each key and the `Solution`
# attribute it holds.  The iteration keys are written when there is an
# iteration record.
_REPORT_FIELDS = (
    ("balance_residual", "report.balance_residual"),
    ("physics_residual", "report.physics_residual"),
    ("constraint_margin", "report.constraint_margin"),
    ("winding_deviation", "report.winding_deviation"),
    ("boundary", "report.boundary"),
)
_ITERATION_FIELDS = (
    ("iterations", "iteration.iterations"),
    ("contraction_rate", "iteration.rate"),
    ("final_step", "iteration.final_step"),
)


@functools.cache
def _report_layout(has_iteration: bool) -> tuple[tuple[str, ...], attrgetter]:
    """The report's keys, and the getter of its values from a `Solution`."""
    keys, attributes = zip(*(_REPORT_FIELDS + _ITERATION_FIELDS if has_iteration else _REPORT_FIELDS))
    return keys, attrgetter(*attributes)


@dataclass(frozen=True, eq=False)
class _SolutionRows:
    """The "solutions" list of a solve document, unwritten: the solutions of
    one problem and the basis that tags them.  See `solution_rows`."""

    solutions: list[Solution]
    basis: CycleBasis | None


def solution_rows(solutions: list[Solution], basis: CycleBasis | None = None) -> _SolutionRows:
    """A document value that `dumps_canonical` writes as
    `[solution_to_dict(s, basis) for s in solutions]`, filling one template
    per solution; `_numpy_to_python` expands it to that list for the
    standard encoder.  The solutions of one problem, as `solve_all` returns
    them, share one template."""
    return _SolutionRows(solutions, basis)


def solution_to_dict(sol: Solution, basis: CycleBasis | None = None) -> dict:
    keys, report_values = _report_layout(sol.iteration is not None)
    doc = {
        "u": sol.u.tolist(),
        "f": sol.f.tolist(),
        "theta": sol.theta.tolist(),
        "report": dict(zip(keys, report_values(sol))),
    }
    if basis is not None:
        doc["basis_fingerprint"] = basis.fingerprint
    return doc


def solution_from_dict(doc: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, f, theta) parsed from a solution document."""
    try:
        u = np.array([_wire_int(x) for x in doc["u"]], dtype=np.int64)
        f = np.array([float(x) for x in doc["f"]])
        theta = np.array([float(x) for x in doc["theta"]])
    except (KeyError, TypeError, ValueError, InputError) as exc:
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
            + sol.f.tolist()
            + sol.theta.tolist()
            + (basis.matrix @ sol.f).tolist()
            + check_feasibility(problem, sol.f)[1].tolist()
        )
        lines.append(csv_line(row))
    return "\n".join(lines) + "\n"
