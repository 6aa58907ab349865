"""End-to-end runs of the command line on large and edge-case inputs.

Every run but one calls `torusflow.cli.main` in-process, on files under
tmp_path, through `cli`: it asserts the exit code, bounds the wall time
of the large solves, and requires each document the CLI writes to be the
standard encoder's text of what it parses to.  The solve documents'
solutions are written one template per solution, so any byte that writer
gets wrong shows there.  The oversized-box run is a `python -m
torusflow.cli` child process, whose own peak RSS is bounded.  A numpy
RuntimeWarning fails every test here, as it fails the demos.
"""
import filecmp
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import chorded_hexagon_case
from torusflow import case_to_problem, minimum_cycle_basis, serialize
from torusflow.cli import main
from torusflow.graphs import Cycle, CycleBasis

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NEAR_LIMIT = "1.5607963267948966"  # pi/2 - 0.01: the contraction rate is 0.99


def cli(*argv, code=0, within=None):
    """Run `torusflow argv` in-process and assert its exit code, and, when
    `within` is given, that it took less than `within` seconds.  With
    --out, assert that the file's text is the standard encoder's text of
    what it parses to, and return the parsed document."""
    argv = [str(a) for a in argv]
    start = time.perf_counter()
    got = main(argv)
    wall = time.perf_counter() - start
    assert got == code, (argv, got)
    assert within is None or wall < within, (argv, wall)
    if "--out" not in argv:
        return None
    text = Path(argv[argv.index("--out") + 1]).read_text()
    doc = json.loads(text)
    if text != json.dumps(doc, indent=2) + "\n":  # not an assert: pytest would diff the texts
        pytest.fail(f"{argv}: the text differs from the standard encoder's")
    return doc


def lattice(L, p=None):
    """The L x L unit lattice at gamma = 1.4 as a sine problem document,
    with supply p (zero by default)."""
    edges = [[r * L + c, r * L + c + 1, 1.0] for r in range(L) for c in range(L - 1)]
    edges += [[r * L + c, (r + 1) * L + c, 1.0] for r in range(L - 1) for c in range(L)]
    return {
        "graph": {"n": L * L, "edges": edges},
        "flow": {"family": "sin"},
        "p": [0.0] * (L * L) if p is None else p,
        "gamma": 1.4,
    }


def write(path, doc):
    path.write_text(json.dumps(doc))
    return path


def check_each(tmp_path, solutions, *source, within=None):
    """`check` passes every solution of a solve document, one file each."""
    for solution in solutions:
        path = write(tmp_path / "solution.json", solution)
        assert cli("check", *source, path, "--out", tmp_path / "check.json", within=within)["ok"], solution["u"]


@pytest.mark.parametrize(
    "nodes, extra_edges, seed, box, within",
    [(40, 10, 4, 18_225, 120), (48, 12, 2, 295_245, 60)],
    ids=["40-nodes", "48-nodes"],
)
def test_large_box_holds_one_solution_on_both_bases(tmp_path, nodes, extra_edges, seed, box, within):
    # The 40-node box holds one solution in 18,225 cells (6,561 on the
    # minimum basis). Nearly every cell is infeasible, so this runs the
    # Newton solve's early exit at scale, through many chunks. The cuts skip
    # all but a few percent of the 48-node box (177,147 on the minimum
    # basis) before any Newton solve. Both bases must find the one
    # solution, with phases equal modulo a common rotation.
    problem = tmp_path / "mesh.json"
    cli("gen", "--nodes", nodes, "--extra-edges", extra_edges, "--seed", seed, "--out", problem)
    assert cli("windings", problem, "--out", tmp_path / "windings.json")["candidates"] == box
    docs = [
        cli("solve", problem, "--basis", kind, "--out", tmp_path / f"{kind}.json", within=within)
        for kind in ("fundamental", "minimum")
    ]
    assert [d["solution_count"] for d in docs] == [1, 1]
    a, b = (d["solutions"][0]["theta"] for d in docs)
    gap = max(abs(math.remainder(x - y - (a[0] - b[0]), 2 * math.pi)) for x, y in zip(a, b))
    assert gap <= 1e-9


def test_every_cell_of_expo8_holds_a_solution(tmp_path):
    # Phase recovery, certification and emission run 6,561 times.
    doc = cli("solve", "--case", "expo(8)", "--gamma", 1.4, "--out", tmp_path / "expo8.json", within=120)
    assert doc["solution_count"] == 6561


@pytest.mark.parametrize(
    "case, gamma, demand", [("ring12-asym", [], 2), ("ring12-sym", ["--gamma", 1.4], 5)]
)
def test_sweep_matches_the_closed_form(tmp_path, case, gamma, demand):
    # Every winding's PTC at tol 1e-7, against the closed form to 1e-4; each
    # curve ends at the bracket's upper end: no solution, at most tol above.
    doc = cli("sweep", "--case", case, *gamma, "--tol", 1e-7, "--out", tmp_path / "sweep.json", within=120)
    assert len(doc["results"]) == 5
    for r in doc["results"]:
        want = oracles.ring_two_path_ptc(12, 11, demand, r["u"][0], doc["gamma"])
        assert abs(r["ptc"] - want) <= 1e-4, (r["u"], r["ptc"], want)
        last = r["curve"][-1]
        assert not last["exists"] and last["P"] - r["ptc"] <= 1e-7, (r["u"], last, r["ptc"])


@pytest.mark.parametrize(
    "case, basis, windings, with_ptc",
    [
        ("ring12-asym", "fundamental", 5, 5),
        ("chorded-hexagon", "fundamental", 9, 1),
        ("chorded-hexagon", "minimum", 1, 1),
    ],
)
def test_each_ptc_agrees_with_solve(tmp_path, case, basis, windings, with_ptc):
    # A winding with a PTC is listed by a solve at that scale; one without is
    # not listed at scale 0. The solve lets each edge's angle pass gamma by
    # the flow slack over a|h'(gamma)|, so near pi/2 the solutions that the
    # verdict allows certify.
    if case == "ring12-asym":
        sweep_source = solve_source = ["--case", case]
    else:
        power_case = chorded_hexagon_case()
        sweep_source = [write(tmp_path / "case.json", power_case.to_dict()), "--gamma", 1.56]
        problem = serialize.problem_to_dict(case_to_problem(power_case, 1.56))
        solve_source = [write(tmp_path / "problem.json", problem)]
    doc = cli("sweep", *sweep_source, "--basis", basis, "--tol", 1e-7, "--out", tmp_path / "sweep.json", within=120)
    results = doc["results"]
    assert (len(results), sum(r["ptc"] is not None for r in results)) == (windings, with_ptc)
    for r in results:
        scale = 0.0 if r["ptc"] is None else r["ptc"]
        argv = ["solve", *solve_source, "--gamma", doc["gamma"], "--basis", basis, "--scale", scale]
        found = [s["u"] for s in cli(*argv, "--out", tmp_path / "solve.json")["solutions"]]
        assert (r["u"] in found) == (r["ptc"] is not None), (r["u"], r["ptc"], found)


@pytest.mark.parametrize("case", ["ring12-asym", "expo(3)"])
def test_every_near_limit_solution_passes_check(tmp_path, case):
    # A tight flow's last T_u step can round to exactly 0.0 here, so each
    # certified bound rests on its rounding term.
    doc = cli("solve", "--case", case, "--gamma", NEAR_LIMIT, "--out", tmp_path / "near.json", within=120)
    assert doc["solution_count"] == len(doc["solutions"]) > 0
    check_each(tmp_path, doc["solutions"], "--case", case, "--gamma", NEAR_LIMIT)


@pytest.fixture(scope="module")
def lattice30(tmp_path_factory):
    """The 30x30 lattice's problem file with p = 0, and the document with a
    small seeded p."""
    tmp_path = tmp_path_factory.mktemp("lattice30")
    p = np.random.default_rng(30).normal(size=900)
    return write(tmp_path / "lattice30.json", lattice(30)), lattice(30, p=(0.05 * (p - p.mean())).tolist())


def test_minimum_basis_of_the_30x30_lattice(tmp_path, lattice30):
    # 841 cycles, all of length 4, so each root's search stops two levels
    # deep: checked against the eager Horton construction.
    path, _ = lattice30
    doc = cli("basis", path, "--basis", "minimum", "--out", tmp_path / "basis.json", within=120)
    assert len(doc["cycles"]) == 841 and set(doc["lengths"]) == {4}
    graph = serialize.problem_from_dict(json.loads(path.read_text())).graph
    eager = oracles.horton_minimum_basis(graph)
    cycles = tuple(Cycle(nodes, vector) for nodes, vector in eager)
    assert doc["fingerprint"] == CycleBasis(graph=graph, cycles=cycles, kind="minimum").fingerprint
    # The fingerprint hashes node sequences only: check every signed vector too.
    bad = [r for r, (vector, (_, want)) in enumerate(zip(doc["vectors"], eager)) if vector != want.tolist()]
    assert len(doc["vectors"]) == len(eager) and not bad, bad[:5]


def test_30x30_lattice_solves_on_its_minimum_basis(tmp_path, lattice30):
    # Its one cell, u = 0, holds the one solution, and `check` passes it.
    # Each edge lies in at most two cycles, so the solve's Grams and
    # Hessians come from the basis's edge-pair pattern. With the flows
    # alternating sin and slope-2 linear, Lmin differs between edges, and the
    # solve inverts the map's Gram and the phase fit's separately. A per-edge
    # list of sines is one shared family: its solve is the single-family
    # solve byte for byte.
    _, doc = lattice30
    m = len(doc["graph"]["edges"])
    mixed = [{"family": "sin"} if e % 2 == 0 else {"family": "linear", "slope": 2.0} for e in range(m)]
    for name, flow in (("single", doc["flow"]), ("mixed", mixed), ("per-edge", [doc["flow"]] * m)):
        problem = write(tmp_path / f"{name}.json", dict(doc, flow=flow))
        out = tmp_path / f"{name}-solutions.json"
        solved = cli("solve", problem, "--basis", "minimum", "--out", out, within=120)
        if name == "per-edge":
            assert filecmp.cmp(out, tmp_path / "single-solutions.json", shallow=False)
            continue
        assert solved["solution_count"] == 1 == len(solved["solutions"])
        assert solved["solutions"][0]["u"] == [0] * 841
        check_each(tmp_path, solved["solutions"], "--basis", "minimum", problem, within=120)


def test_chained_blocks_hold_one_solution(tmp_path):
    # Three seeded 16-node meshes (5 independent cycles each) chained at cut
    # vertices: 46 nodes, 60 edges, a minimum basis of three blocks of five
    # cycles.
    docs = [
        cli("gen", "--nodes", 16, "--extra-edges", 5, "--seed", s, "--out", tmp_path / f"chain-{s}.json")
        for s in (1, 2, 3)
    ]
    edges, p = [], [0.0] * 46
    for i, doc in enumerate(docs):
        # Node 0 of mesh i is node 15 of mesh i - 1.
        edges += [[a + 15 * i, b + 15 * i, w] for a, b, w in doc["graph"]["edges"]]
        for v, x in enumerate(doc["p"]):
            p[v + 15 * i] += x
    chain = dict(docs[0], graph={"n": 46, "edges": edges}, p=p)
    graph = serialize.problem_from_dict(chain).graph
    assert (graph.n, graph.m) == (46, 60)
    basis = minimum_cycle_basis(graph)
    assert basis.size == 15 and not basis.disjoint
    problem = write(tmp_path / "chain.json", chain)
    solved = cli("solve", problem, "--basis", "minimum", "--out", tmp_path / "solutions.json", within=120)
    assert solved["solution_count"] == 1 == len(solved["solutions"])
    check_each(tmp_path, solved["solutions"], "--basis", "minimum", problem, within=120)


def test_tree_solve_reads_a_zero_rate(tmp_path):
    # A tree's one cell u = () is decided by the same pipeline as any cell,
    # with no basis. Its map is constant: rate 0.0 and no step.
    problem = tmp_path / "tree.json"
    cli("gen", "--nodes", 8, "--extra-edges", 0, "--seed", 3, "--p-scale", 0.05, "--out", problem)
    doc = cli("solve", problem, "--out", tmp_path / "solutions.json")
    assert doc["basis"] is None and doc["solution_count"] == len(doc["solutions"]) == 1
    for solution in doc["solutions"]:
        report = solution["report"]
        assert (report["iterations"], report["contraction_rate"], report["final_step"]) == (0, 0.0, 0.0)
    check_each(tmp_path, doc["solutions"], problem)


# A child of this process would report this process's peak RSS as its own:
# Linux keeps the peak of the memory that exec replaces. So a fresh
# interpreter starts the command and prints its exit code and its own
# peak RSS in KB, read by wait4.
_PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss)
"""


def test_oversized_box_is_refused_in_bounded_memory(tmp_path):
    # The 14x14 lattice's fundamental box holds more than int64 cells: one
    # input error line, refused before any cut is formed (forming its
    # 126,356-row cut pool first took about 1.5 GB). Run as `python -m
    # torusflow.cli`, which also covers the module entry point.
    path = write(tmp_path / "lattice14.json", lattice(14))
    src = Path(__file__).resolve().parent.parent / "src"
    argv = [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "torusflow.cli", "solve", str(path)]
    run = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    code, peak_kb = map(int, run.stdout.split())
    lines = run.stderr.splitlines()
    assert code == 1, run.stderr
    assert len(lines) == 1 and lines[0].startswith("input error:") and "too many to enumerate" in lines[0], run.stderr
    assert "Traceback" not in run.stderr
    assert peak_kb / 1024 < 300
