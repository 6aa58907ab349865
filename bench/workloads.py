"""Benchmark workloads: seeded inputs, one op, and the correctness gate.

Every workload draws its inputs from the benchmark seed only, cycles
through them one op at a time (closed loop, one client, jobs=1), and
checks each op's output outside the timed region.  Ops within a workload
are sized to cost about the same, so the per-op median and tail describe
one kind of work.  Why each workload exists:

expo-feasible
    ``solve`` of expo(5), a chain of five pentagons with p = 0, its nodes
    and edges relabelled by the seed.  All 3^5 = 243 cells are feasible,
    so every cell runs iterate, recover, verify and emit.  Enumeration
    pruning has nothing to cut here: it is the "no change" side for
    pruned enumeration, and the per-cell throughput side for the solver.
ptc-near-limit
    ``sweep`` of a four-bus unit ring with adjacent supply and demand at
    gamma = pi/2 - 0.01 and ``--tol 1e-7``.  The certified rate is 0.99,
    so each of the ~36 bisection probes runs hundreds of projection
    iterations; iteration count is nearly the whole cost, graphs and
    serialisation are negligible.  The seed rotates and mirrors the ring.
    A ring of four has exactly one candidate winding, which keeps one op
    near 0.6 s; the twelve-bus rings sweep five windings in 3-4 s an op,
    too few ops a run for a tail percentile.
mesh-sparse
    ``solve`` of seeded random meshes (14-20 nodes, 5-8 independent
    cycles, gamma = 1.4, fundamental basis) whose candidate box holds
    exactly 81 cells; about one cell in a hundred holds a solution.
    Enumeration and the infeasible-cell path dominate; recover, verify
    and emit barely run.  Forty meshes (3240 cells) per seed, so every
    seed draws the same amount of work and a run sees most of them.
mesh-elastic
    ``solve_elastic`` (spacing potential, tau = p) on seeded meshes drawn
    the same way but with 17 nodes, 6 independent cycles and a 9-cell box,
    forty per seed; the fixed size keeps one seed's ops as costly as
    another's.  The elastic path
    costs about ten times the flow path per cell, so it has its own
    workload: mixed into mesh-sparse it would make the op-time distribution
    bimodal.  Its critical points are checked against the flow solve and
    the gradient.
lattice-one-cell
    ``solve --basis minimum`` on a 14x14 square lattice (m = 364, k = 169)
    with small seeded p.  Every minimum-basis cycle is a 4-cycle with
    bound 0, so there is exactly one cell and the weight falls on the
    graph layer (Horton basis, pseudoinverses, integer shift) and memory.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from torusflow import cli, elastic, serialize
from torusflow.elastic import ElasticEnergy, ElasticNetworkProblem
from torusflow.flows import (
    FlowFunction,
    FlowNetworkProblem,
    solve_all,
    verify_solution,
)
from torusflow.graphs import WeightedGraph, fundamental_cycle_basis, minimum_cycle_basis
from torusflow.torus import (
    count_feasible_winding_vectors,
    feasible_winding_bounds,
    phases_equal_mod_rotation,
)

GAMMA = 1.4
PTC_GAMMA = math.pi / 2 - 0.01
PTC_TOL = 1e-7
PTC_ORACLE_TOL = 1e-4
WINDING_TOL = 1e-6
PHASE_TOL = 1e-9
GRADIENT_TOL = 1e-8


@dataclass
class Op:
    """One input of a workload: CLI arguments or a library call, plus facts
    the correctness check needs."""

    name: str
    cells: int
    argv: list[str] | None = None
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    failures: list[str]
    solutions: int
    digest: str


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_problem(path: Path, problem: FlowNetworkProblem) -> None:
    path.write_text(serialize.dumps_canonical(serialize.problem_to_dict(problem)))


def _sin_problem(graph: WeightedGraph, p, gamma: float) -> FlowNetworkProblem:
    return FlowNetworkProblem.single_family(graph, FlowFunction.sin_family(), p, gamma)


def ring_two_path_ptc(n: int, supply: int, demand: int, u: int, gamma: float):
    """Closed-form PTC of a unit-weight sine ring with one source/sink pair.

    A solution puts flow sin(a) on the k1 edges of the ascending path from
    supply to demand and sin(b) on the other k2 edges, with
    k1 a - k2 b = -2 pi u; the transfer sin(a) + sin(b) is largest at the
    largest feasible b.
    """
    k1 = (demand - supply) % n
    k2 = n - k1
    top = min(gamma, (gamma * k1 + 2 * math.pi * u) / k2)
    bot = max(-gamma, (-gamma * k1 + 2 * math.pi * u) / k2)
    if top < bot:
        return None
    phi = (-2 * math.pi * u + k2 * top) / k1
    if phi < -gamma - 1e-12:
        return None
    return math.sin(phi) + math.sin(top)


class Workload:
    """Base: an op is one CLI call that writes its document to `out`.

    Library workloads override `run` and `output_bytes`."""

    name = ""
    ops_per_seed = 4

    def inputs(self, seed: int, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, out: Path):
        return cli.main(op.argv + ["--out", str(out)])

    def output_bytes(self, op: Op, result, out: Path) -> bytes:
        return out.read_bytes()

    def check(self, op: Op, result, data: bytes, cache: dict, call) -> Outcome:
        raise NotImplementedError

    def _solution_failures(self, op, result, data, problem, basis) -> tuple[list[str], list]:
        """Exit code, basis tag and independent re-verification of a solve."""
        doc = json.loads(data)
        sols = doc["solutions"]
        failures = []
        want_code = cli.EXIT_OK if sols else cli.EXIT_NO_SOLUTION
        if result != want_code:
            failures.append(f"{op.name}: exit code {result}, expected {want_code}")
        if doc["solution_count"] != len(sols):
            failures.append(f"{op.name}: solution_count disagrees with the list")
        if doc["basis"]["fingerprint"] != basis.fingerprint:
            failures.append(f"{op.name}: output basis differs from the {basis.kind} basis")
        parsed = []
        for sol in sols:
            u, f, theta = serialize.solution_from_dict(sol)
            report = verify_solution(problem, basis, f, theta, u)
            if not report.within_tolerance() or report.winding_deviation > WINDING_TOL:
                failures.append(f"{op.name}: u={u.tolist()} fails verification: {report}")
            parsed.append((u, f, theta))
        return failures, parsed


def _problem_cache(cache: dict, op: Op, kind: str):
    key = (op.data["path"], kind)
    if key not in cache:
        problem = serialize.problem_from_dict(json.loads(Path(op.data["path"]).read_text()))
        graph_key = (problem.graph.n, problem.graph.edges, kind)
        if graph_key not in cache:
            make = minimum_cycle_basis if kind == "minimum" else fundamental_cycle_basis
            cache[graph_key] = make(problem.graph)
        cache[key] = (problem, cache[graph_key])
    return cache[key]


class ExpoFeasible(Workload):
    name = "expo-feasible"
    rings = 5

    def inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        s = self.rings
        n = 4 * s + 1
        base = []
        for k in range(s):
            ring = list(range(4 * k, 4 * k + 5))
            base += list(zip(ring, ring[1:])) + [(ring[-1], ring[0])]
        ops = []
        for j in range(self.ops_per_seed):
            perm = rng.permutation(n)
            edges = [
                (int(perm[a]), int(perm[b])) if rng.random() < 0.5 else (int(perm[b]), int(perm[a]))
                for a, b in base
            ]
            edges = [edges[i] for i in rng.permutation(len(edges))]
            graph = WeightedGraph.from_edges(n, edges)
            path = workdir / f"expo-{j}.json"
            _write_problem(path, _sin_problem(graph, np.zeros(n), GAMMA))
            ops.append(Op(
                name=f"expo{s}-{j}",
                cells=3 ** s,
                argv=["solve", str(path), "--gamma", repr(GAMMA)],
                data={"path": str(path)},
            ))
        return ops

    def check(self, op, result, data, cache, call):
        problem, basis = _problem_cache(cache, op, "fundamental")
        failures, sols = self._solution_failures(op, result, data, problem, basis)
        box = set(itertools.product((-1, 0, 1), repeat=self.rings))
        got = {tuple(int(x) for x in u) for u, _, _ in sols}
        if len(sols) != len(box) or got != box:
            failures.append(f"{op.name}: {len(got)} distinct winding vectors, expected the {len(box)} of the box")
        return Outcome(failures, len(sols), _sha(data))


class PtcNearLimit(Workload):
    name = "ptc-near-limit"
    ring = 4

    def inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        n = self.ring
        ops = []
        for j in range(self.ops_per_seed):
            supply = int(rng.integers(n))
            demand = (supply + int(rng.choice([1, -1]))) % n
            buses = [{"v": 1.0, "p": 0.0} for _ in range(n)]
            buses[supply]["p"] = 1.0
            buses[demand]["p"] = -1.0
            branches = [
                [i, (i + 1) % n, 1.0] if rng.random() < 0.5 else [(i + 1) % n, i, 1.0]
                for i in range(n)
            ]
            branches = [branches[i] for i in rng.permutation(n)]
            path = workdir / f"ring-{j}.json"
            path.write_text(json.dumps({"buses": buses, "branches": branches}))
            ops.append(Op(
                name=f"ring{n}-{supply}-{demand}-{j}",
                cells=1,
                argv=["sweep", str(path), "--gamma", repr(PTC_GAMMA), "--tol", repr(PTC_TOL)],
                data={"oracle": ring_two_path_ptc(n, supply, demand, 0, PTC_GAMMA)},
            ))
        return ops

    def check(self, op, result, data, cache, call):
        failures = []
        if result != cli.EXIT_OK:
            failures.append(f"{op.name}: exit code {result}")
        doc = json.loads(data)
        results = doc["results"]
        if [r["u"] for r in results] != [[0]]:
            failures.append(f"{op.name}: windings {[r['u'] for r in results]}, expected [[0]]")
        else:
            got, want = results[0]["ptc"], op.data["oracle"]
            if got is None or abs(got - want) > PTC_ORACLE_TOL:
                failures.append(f"{op.name}: PTC {got} differs from closed form {want}")
        return Outcome(failures, len(results), _sha(data))


def random_mesh(rng, box: int, nodes=(14, 20), cycles=(5, 8)) -> tuple[WeightedGraph, np.ndarray]:
    """Random connected mesh (node and independent-cycle counts drawn from
    the inclusive ranges) whose fundamental-basis candidate box at GAMMA
    holds exactly `box` cells."""
    while True:
        n = int(rng.integers(nodes[0], nodes[1] + 1))
        k = int(rng.integers(cycles[0], cycles[1] + 1))
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        present = {(min(a, b), max(a, b)) for a, b in edges}
        while len(edges) < n - 1 + k:
            a, b = sorted(int(x) for x in rng.integers(0, n, size=2))
            if a != b and (a, b) not in present:
                present.add((a, b))
                edges.append((a, b))
        graph = WeightedGraph.from_edges(n, edges, rng.uniform(0.5, 1.5, size=len(edges)))
        p = rng.normal(size=n)
        p = 0.3 * (p - p.mean())
        if count_feasible_winding_vectors(fundamental_cycle_basis(graph), GAMMA) == box:
            return graph, p


class MeshSparse(Workload):
    name = "mesh-sparse"
    box = 81
    ops_per_seed = 40

    def inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        ops = []
        for j in range(self.ops_per_seed):
            graph, p = random_mesh(rng, self.box)
            path = workdir / f"mesh-{j}.json"
            _write_problem(path, _sin_problem(graph, p, GAMMA))
            ops.append(Op(
                name=f"mesh-{j}",
                cells=self.box,
                argv=["solve", str(path), "--gamma", repr(GAMMA)],
                data={"path": str(path)},
            ))
        return ops

    def check(self, op, result, data, cache, call):
        problem, basis = _problem_cache(cache, op, "fundamental")
        failures, sols = self._solution_failures(op, result, data, problem, basis)
        bounds = np.array(feasible_winding_bounds(basis, GAMMA))
        for u, _, _ in sols:
            if np.any(np.abs(u) > bounds):
                failures.append(f"{op.name}: u={u.tolist()} outside the candidate box")
        return Outcome(failures, len(sols), _sha(data))


class MeshElastic(Workload):
    name = "mesh-elastic"
    box = 9
    ops_per_seed = 40

    def inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        ops = []
        for j in range(self.ops_per_seed):
            graph, p = random_mesh(rng, self.box, nodes=(17, 17), cycles=(6, 6))
            ops.append(Op(name=f"elastic-{j}", cells=self.box, data={"graph": graph, "p": p}))
        return ops

    def run(self, op, out):
        return elastic.solve_elastic(
            op.data["graph"], ElasticEnergy.spacing_potential(), op.data["p"], GAMMA
        )

    def output_bytes(self, op, result, out):
        return serialize.dumps_canonical([list(theta) for theta in result]).encode()

    def check(self, op, result, data, cache, call):
        graph, p = op.data["graph"], op.data["p"]
        if op.name not in cache:
            flow = solve_all(_sin_problem(graph, p, GAMMA))
            cache[op.name] = [s.theta for s in flow]
        expected = cache[op.name]
        failures = []
        if len(result) != len(expected):
            failures.append(f"{op.name}: {len(result)} critical points, flow solve has {len(expected)}")
        for theta in result:
            if not any(phases_equal_mod_rotation(theta, t, PHASE_TOL) for t in expected):
                failures.append(f"{op.name}: critical point not among the flow-solve phases")
        problem = ElasticNetworkProblem.single_energy(
            graph, ElasticEnergy.spacing_potential(), p, GAMMA
        )
        for theta in result:
            torque = call("elastic.gradient", elastic.gradient, problem, theta)
            if float(np.max(np.abs(torque - p))) > GRADIENT_TOL:
                failures.append(f"{op.name}: gradient differs from tau by {np.max(np.abs(torque - p)):.3e}")
        return Outcome(failures, len(result), _sha(data))


class LatticeOneCell(Workload):
    name = "lattice-one-cell"
    side = 14

    def inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 5])
        L = self.side
        edges = []
        for r in range(L):
            for c in range(L):
                v = r * L + c
                if c + 1 < L:
                    edges.append((v, v + 1))
                if r + 1 < L:
                    edges.append((v, v + L))
        graph = WeightedGraph.from_edges(L * L, edges)
        ops = []
        for j in range(self.ops_per_seed):
            p = rng.normal(size=L * L)
            p = 0.05 * (p - p.mean())
            path = workdir / f"lattice-{j}.json"
            _write_problem(path, _sin_problem(graph, p, GAMMA))
            ops.append(Op(
                name=f"lattice{L}-{j}",
                cells=1,
                argv=["solve", str(path), "--gamma", repr(GAMMA), "--basis", "minimum"],
                data={"path": str(path)},
            ))
        return ops

    def check(self, op, result, data, cache, call):
        problem, basis = _problem_cache(cache, op, "minimum")
        failures, sols = self._solution_failures(op, result, data, problem, basis)
        if len(sols) != 1 or np.any(sols[0][0] != 0):
            failures.append(f"{op.name}: expected the single solution u = 0, got {[u.tolist() for u, _, _ in sols]}")
        return Outcome(failures, len(sols), _sha(data))


WORKLOADS = {
    w.name: w
    for w in (ExpoFeasible(), PtcNearLimit(), MeshSparse(), MeshElastic(), LatticeOneCell())
}
