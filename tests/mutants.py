"""Mutation smoke: each row of MUTANTS breaks one fast path or check of the
library, and the row's pytest selection must then fail.

    python tests/mutants.py [NAME ...]

copies src/ into a temporary directory for each row (or each named row),
replaces the row's text, which must occur exactly once in its file, and
runs `python -m pytest -x -q` on the row's selection against that copy.
It prints one line per row and exits 1 when some row's selection passed
or its text did not occur exactly once.  It needs only the standard
library and pytest; tests/test_mutants.py checks the texts in Tier-1.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "torusflow"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/torusflow
    text: str
    replacement: str
    selection: tuple[str, ...]  # pytest arguments, test paths relative to the repository


MUTANTS = (
    Mutant(
        "diagonal-newton-on-every-basis", "flows.py",
        "    if basis.disjoint:\n        C = basis.matrix",
        "    if basis.size:\n        C = basis.matrix",
        ("tests/test_newton.py", "-k", "newton_steps_match_the_dense_solve"),
    ),
    Mutant(
        "pattern-gram-unsigned", "graphs.py",
        "values = w.reshape(count, m)[:, edge] * coef",
        "values = w.reshape(count, m)[:, edge] * np.abs(coef)",
        ("tests/test_graphs.py", "-k", "gram_matches_the_stacked_product"),
    ),
    Mutant(
        "leaf-text-drops-an-item", "serialize.py",
        "return sep.join([_SCALARS[type(x)](x) for x in items])",
        "return sep.join([_SCALARS[type(x)](x) for x in items[1:]])",
        ("tests/test_serialize.py",),
    ),
    Mutant(
        "cut-bound-one-smaller", "torus.py",
        "U = U[(dots <= limits).all(axis=1)]",
        "U = U[(dots < limits).all(axis=1)]",
        ("tests/test_flows.py", "-k", "pruned_solve_matches_exhaustive"),
    ),
    Mutant(
        "no-linearised-start", "flows.py",
        "F[loops] += _linear_loop_flow(problem, basis, twopi_u[loops])",
        "F[loops] += 0.0",
        ("tests/test_newton.py", "-k", "linearised_start"),
    ),
    Mutant(
        "ptc-bracket-off-centre", "powerflow.py",
        "lo = max(guess - 0.5 * tol, 0.0)",
        "lo = max(guess - 1.5 * tol, 0.0)",
        ("tests/test_powerflow.py",),
    ),
    Mutant(
        "horton-children-reversed", "graphs.py",
        "for e, w in adjacency[order[i]]:",
        "for e, w in reversed(adjacency[order[i]]):",
        ("tests/test_graphs.py", "-k", "eager_horton"),
    ),
    Mutant(
        "horton-turn-flip-dropped", "graphs.py",
        "np.where(g.ends[0][outs] == tails, 1, -1) * np.array(turns)[rows]",
        "np.where(g.ends[0][outs] == tails, 1, -1)",
        ("tests/test_graphs.py", "-k", "eager_horton"),
    ),
    Mutant(
        "horton-later-root-of-a-repeated-edge-set", "graphs.py",
        "                        if key not in first:\n",
        "                        if True:\n",
        ("tests/test_graphs.py", "-k", "eager_horton"),
    ),
    Mutant(
        "wire-int-fast-path-unbounded", "graphs.py",
        "if type(x) is int and -(2**63) <= x < 2**63:",
        "if type(x) is int:",
        ("tests/test_graphs.py", "-k", "wire_int"),
    ),
    Mutant(
        "certify-cache-ignores-gamma", "flows.py",
        "        if gamma in cache:\n",
        "        if cache:\n",
        ("tests/test_flows.py", "tests/test_newton.py"),
    ),
    Mutant(
        "elastic-check-cache-ignores-gamma", "elastic.py",
        "        if gamma in passed:\n",
        "        if passed:\n",
        ("tests/test_elastic.py",),
    ),
    Mutant(
        "verify-without-slack", "flows.py",
        "within = (angle <= problem.gamma + allowance).all(axis=-1)",
        "within = (angle <= problem.gamma).all(axis=-1)",
        ("tests/test_flows.py", "-k", "allowance"),
    ),
    Mutant(
        "error-bound-without-rounding", "flows.py",
        "bound = d * to_bound + (edge_round * size.max(axis=1, initial=0.0) + loop_round)",
        "bound = d * to_bound",
        ("tests/test_newton.py", "-k", "never_read_a_zero_bound"),
    ),
    Mutant(
        "every-row-in-the-winding-image", "graphs.py",
        "return Z.astype(np.int64), np.abs(W - Z).max(axis=1, initial=0.0) <= 1e-9",
        "return Z.astype(np.int64), np.ones(len(U), dtype=bool)",
        ("tests/test_flows.py::TestEmptyWindingCells::test_only_cells_in_the_winding_image_reach_the_solve",),
    ),
    Mutant(
        "verify-without-the-u-check", "flows.py",
        "    U = _winding_ints(U, basis.size, 2)\n    delta = edge_differences(g, Theta)",
        "    delta = edge_differences(g, Theta)",
        ("tests/test_flows.py::TestVerifyShapes",),
    ),
    Mutant(
        "corpus-one-u-changed", "serialize.py",
        "                *s.u.tolist(),",
        "                *(s.u + (s is rows.solutions[-1])).tolist(),",
        ("tests/test_corpus.py::test_the_corpus_matches_its_expected_file",),
    ),
    Mutant(
        "corpus-one-solution-dropped", "serialize.py",
        '"[\\n" + inner + (",\\n" + inner).join(texts) + "\\n"',
        '"[\\n" + inner + (",\\n" + inner).join(texts[:-1]) + "\\n"',
        ("tests/test_corpus.py::test_the_corpus_matches_its_expected_file",),
    ),
)


def run(mutant: Mutant) -> tuple[bool, str]:
    """Whether the mutant's selection failed, as it must, and the first
    failed test or else what is wrong."""
    count = (SRC / mutant.file).read_text().count(mutant.text)
    if count != 1:
        return False, f"its text occurs {count} times in {mutant.file}"
    with tempfile.TemporaryDirectory(prefix="torusflow-mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / "torusflow" / mutant.file
        target.write_text(target.read_text().replace(mutant.text, mutant.replacement))
        args = [str(ROOT / a) if a.startswith("tests/") else a for a in mutant.selection]
        # Run from the temporary directory, so that the mutant's failing
        # examples stay out of the checkout's hypothesis database.
        env = {**os.environ, "PYTHONPATH": str(copy)}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    if proc.returncode == 1:  # tests ran and one failed, not a usage or collection error
        failed = next((line.split(" - ")[0] for line in lines if line.startswith("FAILED ")), "FAILED tests/")
        return True, failed[failed.find("tests/"):]
    return False, f"pytest exited {proc.returncode}: {' '.join(lines[-1:])}"


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        killed, detail = run(mutant)
        survived += not killed
        verdict = f"killed, {detail}" if killed else f"NOT KILLED: {detail}"
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
