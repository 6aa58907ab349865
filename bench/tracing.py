"""Per-layer tracing for the benchmark, kept outside the library.

The tracer replaces each listed public function with a timing wrapper in
every ``torusflow.*`` module namespace that binds it, so calls between
library modules are caught without touching library source.  Each call
becomes a span ``(id, name, start, end, parent, op, info)`` kept in memory
and written out when the run ends.  A span's self time is its duration
minus the durations of its direct child spans.

Per-layer metrics (all per traced op, i.e. totals over the traced ops
divided by their number) and the end-to-end metric each should move:

==========================  ===========================================
metric                      should move
==========================  ===========================================
graphs.basis_s, .calls      op_s.p50 on lattice-one-cell
graphs.pinv_s               op_s.p50 and peak_rss_mb on lattice-one-cell
graphs.projection_s         op_s.p50 and peak_rss_mb on lattice-one-cell
graphs.shift_s              op_s.p50 on lattice-one-cell
torus.candidates            cells_per_s on mesh-sparse (cells listed)
torus.enumerate_s           cells_per_s on mesh-sparse
torus.polytope_s            op_s.p50 on expo-feasible
flows.solve_self_s          cells_per_s on mesh-sparse (per-cell glue)
flows.iterate_s, .calls     op_s.p50 on ptc-near-limit and expo-feasible
flows.iterations            op_s.p50 on ptc-near-limit and expo-feasible
flows.iterations_per_cell   op_s.p50 on ptc-near-limit and expo-feasible
flows.observed_rate         (against flows.certified_rate) ptc-near-limit
flows.recover_s, verify_s   op_s.p50 on expo-feasible
flows.cells_feasible        mesh-sparse: solutions found
flows.cells_infeasible      mesh-sparse: cells rejected by capacity
flows.cells_empty           mesh-sparse: cells with no integer shift
flows.cell_yield            mesh-sparse (<5%) vs expo-feasible (=1)
powerflow.ptc_s             op_s.p50 on ptc-near-limit
powerflow.probes            op_s.p50 on ptc-near-limit
powerflow.probe_iterations  op_s.p50 on ptc-near-limit
serialize.emit_s, .bytes    op_s.p50 on expo-feasible; ~0 on ptc
elastic.solve_self_s        op_s.p50 on mesh-elastic
elastic.gradient_s          mesh-elastic (timed in the correctness check)
cli.self_s                  every CLI workload: argument parsing, problem
                            loading, document assembly and the write
trace.overhead_s            traced minus untraced op_s.p50 in this run
==========================  ===========================================

``flows.iterations_per_cell`` divides iterations by the candidate cells
the op decides (the count used for cells_per_s), so on ptc-near-limit it
counts every bisection probe of the winding; ``powerflow.probe_iterations``
is the per-probe figure.  ``flows.cells_*`` count the cells of
``solve_all`` only: a cell is feasible when it yields a solution, empty
when ``recover_phases`` raised ``NonIntegerWindingError``, and infeasible
when the fixed-point flow exceeded a capacity.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

# span name -> (defining module, function name, layer metric)
TARGETS = {
    "graphs.fundamental_cycle_basis": ("graphs", "fundamental_cycle_basis", "graphs.basis_s"),
    "graphs.minimum_cycle_basis": ("graphs", "minimum_cycle_basis", "graphs.basis_s"),
    "graphs.deflated_pinv": ("graphs", "deflated_pinv", "graphs.pinv_s"),
    "graphs.cycle_edge_pinv": ("graphs", "cycle_edge_pinv", "graphs.pinv_s"),
    "graphs.cycle_projection": ("graphs", "cycle_projection", "graphs.projection_s"),
    "graphs.integer_cycle_shift": ("graphs", "integer_cycle_shift", "graphs.shift_s"),
    "graphs.integer_shift_solve": ("graphs", "integer_shift_solve", "graphs.shift_s"),
    "torus.feasible_winding_vectors": ("torus", "feasible_winding_vectors", "torus.enumerate_s"),
    "torus.polytope_to_torus": ("torus", "polytope_to_torus", "torus.polytope_s"),
    "flows.solve_all": ("flows", "solve_all", "flows.solve_self_s"),
    "flows.projection_iteration": ("flows", "projection_iteration", "flows.iterate_s"),
    "flows.recover_phases": ("flows", "recover_phases", "flows.recover_s"),
    "flows.verify_solution": ("flows", "verify_solution", "flows.verify_s"),
    "powerflow.ptc": ("powerflow", "ptc", "powerflow.ptc_s"),
    "serialize.dumps_canonical": ("serialize", "dumps_canonical", "serialize.emit_s"),
    "elastic.solve_elastic": ("elastic", "solve_elastic", "elastic.solve_self_s"),
    "elastic.gradient": ("elastic", "gradient", "elastic.gradient_s"),
    "cli.main": ("cli", "main", "cli.self_s"),
}

GENERATORS = {"torus.feasible_winding_vectors"}

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "graphs.basis_s": "s",
    "graphs.basis.calls": "count",
    "graphs.pinv_s": "s",
    "graphs.projection_s": "s",
    "graphs.shift_s": "s",
    "torus.candidates": "count",
    "torus.enumerate_s": "s",
    "torus.polytope_s": "s",
    "flows.solve_self_s": "s",
    "flows.iterate_s": "s",
    "flows.iterate.calls": "count",
    "flows.iterations": "count",
    "flows.iterations_per_cell": "count",
    "flows.observed_rate": "ratio",
    "flows.certified_rate": "ratio",
    "flows.recover_s": "s",
    "flows.verify_s": "s",
    "flows.cells_feasible": "count",
    "flows.cells_infeasible": "count",
    "flows.cells_empty": "count",
    "flows.cell_yield": "ratio",
    "powerflow.ptc_s": "s",
    "powerflow.probes": "count",
    "powerflow.probe_iterations": "count",
    "serialize.emit_s": "s",
    "serialize.bytes": "count",
    "elastic.solve_self_s": "s",
    "elastic.gradient_s": "s",
    "cli.self_s": "s",
    "trace.ops": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Wraps the TARGETS functions and records their spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._closed = 0
        self.op: int | None = None
        self._patches: list[tuple[object, str, object, object]] = []
        self._wrapped: dict[str, object] = {}
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "torusflow" or name.startswith("torusflow.")
        }
        for span, (mod_name, attr, _) in TARGETS.items():
            original = getattr(modules[f"torusflow.{mod_name}"], attr)
            wrapper = (self._wrap_generator if span in GENERATORS else self._wrap)(span, original)
            self._wrapped[span] = wrapper
            for mod in modules.values():
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def install(self) -> None:
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original, _ in self._patches:
            setattr(mod, key, original)

    def call(self, span: str, *args, **kwargs):
        """Call one target through its wrapper without installing the rest."""
        return self._wrapped[span](*args, **kwargs)

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = {"error": type(exc).__name__}
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append([sid, name, start, end, parent, self.op, info])
            if name == "flows.projection_iteration":
                # solve_all sets report.feasible after the call returns, so
                # keep the report and read it when the op has ended.
                self.spans[-1][6] = result[1]
            elif name == "serialize.dumps_canonical":
                self.spans[-1][6] = {"bytes": len(result)}
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid, parent = self._open()
                info = None
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    info = {"exhausted": True}
                    return
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans.append([sid, name, start, end, parent, self.op, info])
                yield item

        return wrapper

    def close_op(self) -> None:
        """Replace kept IterationReports by the numbers the metrics need."""
        for span in self.spans[self._closed:]:
            report = span[6]
            if span[1] == "flows.projection_iteration" and not isinstance(report, dict):
                steps = report.weighted_steps
                ratios = [b / a for a, b in zip(steps, steps[1:]) if a > 0.0]
                span[6] = {
                    "iterations": report.iterations,
                    "feasible": bool(report.feasible),
                    "rate": report.rate,
                    "observed_rate": statistics.median(ratios) if ratios else 0.0,
                }
        self._closed = len(self.spans)
        self.op = None

    def layer_metrics(self, traced_ops: int, cells: int, overhead_s: float, scale: float) -> dict:
        """Per-layer metrics over the traced ops (see the module docstring).

        Span times are multiplied by `scale`, the run's wall-to-reference
        seconds factor."""
        names = {sid: name for sid, name, *_ in self.spans}
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        total = {metric: 0.0 for _, _, metric in TARGETS.values()}
        basis_calls = iterate_calls = iterations = probes = probe_iterations = 0
        candidates = decided = feasible = empty = emitted = 0
        observed, certified = [], []
        for sid, name, start, end, parent, op, info in self.spans:
            total[TARGETS[name][2]] += (end - start) - child_time.get(sid, 0.0)
            parent_name = names.get(parent)
            if name in ("graphs.fundamental_cycle_basis", "graphs.minimum_cycle_basis"):
                basis_calls += 1
            elif name == "torus.feasible_winding_vectors":
                candidates += info is None
            elif name == "serialize.dumps_canonical":
                emitted += info["bytes"]
            elif name == "flows.recover_phases":
                if info and info.get("error") == "NonIntegerWindingError":
                    empty += 1
            elif name == "flows.projection_iteration":
                iterate_calls += 1
                if "error" in info:
                    continue
                iterations += info["iterations"]
                observed.append(info["observed_rate"])
                certified.append(info["rate"])
                if parent_name == "powerflow.ptc":
                    probes += 1
                    probe_iterations += info["iterations"]
                elif parent_name == "flows.solve_all":
                    decided += 1
                    feasible += info["feasible"]
        ops = max(traced_ops, 1)
        out = {metric: value * scale / ops for metric, value in total.items()}
        out.update({
            "graphs.basis.calls": basis_calls / ops,
            "torus.candidates": candidates / ops,
            "flows.iterate.calls": iterate_calls / ops,
            "flows.iterations": iterations / ops,
            "flows.iterations_per_cell": iterations / cells if cells else 0.0,
            "flows.observed_rate": statistics.median(observed) if observed else 0.0,
            "flows.certified_rate": statistics.median(certified) if certified else 0.0,
            "flows.cells_feasible": (feasible - empty) / ops,
            "flows.cells_infeasible": (decided - feasible) / ops,
            "flows.cells_empty": empty / ops,
            "flows.cell_yield": (feasible - empty) / decided if decided else 0.0,
            "powerflow.probes": probes / ops,
            "powerflow.probe_iterations": probe_iterations / probes if probes else 0.0,
            "serialize.bytes": emitted / ops,
            "trace.ops": float(traced_ops),
            "trace.overhead_s": overhead_s,
        })
        return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_METRICS.items()}

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: id, name, start, end, parent, op, info."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
