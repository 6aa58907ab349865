"""The regression corpus: one fixed list of command-line calls, and what
their documents must hold.

    python tests/corpus.py --against REV

extracts REV's src/ with `git archive` into a temporary directory, runs
the calls as `python -m torusflow.cli` against it and against this
checkout's src/, and prints one line per document: "byte-identical",
or else max |Δf|, max |Δθ|, any changed u-set and any changed exit code.
The last line is a summary.  The exit status is 0 when every document is
byte-identical with the same exit code, and 1 otherwise.

    python tests/corpus.py --write

runs the calls in-process against this checkout's src/ and writes
tests/corpus/expected.json: per document its exit code and, for a solve,
the solution count, the basis fingerprint and per solution its u and
seeded weighted means of f and theta; for a sweep, each u and its PTC;
any other document whole.  tests/test_corpus.py runs the calls in-process
and compares them with that file: the f and theta means and every other
float within VALUE_TOL, each PTC within the sweep's tolerance, and
everything else exactly.

The calls: the built-in cases at gamma = 1.4 and pi/2 - 0.01 on both
bases; the ring12 sweeps; `gen` meshes of seeds 1, 2 and 9, solved on both
bases; and one `gen --extra-edges 0` tree with its solve, check,
decompose and windings documents.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NEAR_LIMIT = repr(math.pi / 2 - 0.01)
CASES = ("pentagon", "ring12-sym", "ring12-asym", "expo(3)", "expo(5)")
MESH_SEEDS = (1, 2, 9)
EXPECTED = ROOT / "tests" / "corpus" / "expected.json"
VALUE_TOL = 1e-9


def calls() -> list[tuple[str, list[str]]]:
    """(document name, CLI arguments) in run order; "{dir}" in an argument
    names the run directory, and "{dir}/tree-solution.json" is the first
    solution of the tree's solve document."""
    out = []
    for case in CASES:
        for gamma in ("1.4", NEAR_LIMIT):
            for basis in ("fundamental", "minimum"):
                out.append((f"solve-{case}-{gamma}-{basis}.json", ["solve", "--case", case, "--gamma", gamma, "--basis", basis]))
    for case in ("ring12-sym", "ring12-asym"):
        out.append((f"sweep-{case}.json", ["sweep", "--case", case]))
    for seed in MESH_SEEDS:
        mesh = f"{{dir}}/mesh-{seed}.json"
        out.append((f"mesh-{seed}.json", ["gen", "--seed", str(seed), "--nodes", "10", "--extra-edges", "4"]))
        for basis in ("fundamental", "minimum"):
            out.append((f"solve-mesh-{seed}-{basis}.json", ["solve", mesh, "--basis", basis]))
    tree, solution = "{dir}/tree.json", "{dir}/tree-solution.json"
    out += [
        ("tree.json", ["gen", "--seed", "3", "--nodes", "8", "--extra-edges", "0", "--p-scale", "0.05"]),
        ("solve-tree.json", ["solve", tree]),
        ("check-tree.json", ["check", tree, solution]),
        ("decompose-tree.json", ["decompose", tree, solution]),
        ("windings-tree.json", ["windings", tree]),
    ]
    return out


def run_calls(workdir: Path, invoke) -> dict[str, tuple[int, bytes | None]]:
    """Run every call by invoke(argv) -> exit code, writing into workdir:
    document name -> (exit code, the document's bytes or None)."""
    results = {}
    for name, argv in calls():
        out = workdir / name
        argv = [a.replace("{dir}", str(workdir)) for a in argv]
        results[name] = (invoke([*argv, "--out", str(out)]), out.read_bytes() if out.exists() else None)
        if name == "solve-tree.json" and out.exists():
            first = json.loads(out.read_bytes())["solutions"][:1]
            (workdir / "tree-solution.json").write_text(json.dumps(first[0] if first else {}))
    return results


def run_tree(src: Path, workdir: Path) -> dict[str, tuple[int, bytes | None]]:
    """`run_calls` through `python -m torusflow.cli` on the package in src."""
    env = {**os.environ, "PYTHONPATH": str(src)}

    def invoke(argv):
        cmd = [sys.executable, "-m", "torusflow.cli", *argv]
        return subprocess.run(cmd, env=env, cwd=workdir, capture_output=True).returncode

    return run_calls(workdir, invoke)


def run_here(workdir: Path) -> dict[str, tuple[int, bytes | None]]:
    """`run_calls` in this process, on the torusflow that it imports."""
    from torusflow import cli

    def invoke(argv):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    return run_calls(workdir, invoke)


def _mean(values: list) -> float:
    """A weighted mean of a number list, with weights in [1, 2] seeded by
    its length: a change of at most VALUE_TOL per entry moves it by at most
    VALUE_TOL."""
    rng = random.Random(len(values))
    weights = [1.0 + rng.random() for _ in values]
    return math.fsum(w * x for w, x in zip(weights, values)) / math.fsum(weights)


def summarise(code: int, data: bytes | None) -> dict:
    """The expected-file entry of one document (see the module docstring)."""
    entry = {"exit": code}
    doc = json.loads(data) if data is not None else None
    if isinstance(doc, dict) and "solutions" in doc:
        entry["count"] = doc["solution_count"]
        entry["fingerprint"] = (doc["basis"] or {}).get("fingerprint")
        entry["solutions"] = [[r["u"], _mean(r["f"]), _mean(r["theta"])] for r in doc["solutions"]]
    elif isinstance(doc, dict) and "results" in doc:
        entry["fingerprint"] = doc["basis"]["fingerprint"]
        entry["results"] = [{"u": r["u"], "ptc": r["ptc"]} for r in doc["results"]]
    elif doc is not None:
        entry["document"] = doc
    return entry


def _differences(want, got, tols: dict, path: str, tol: float) -> list[str]:
    """Where got departs from want: floats beyond tol (tols[key] under a
    dict key), anything else unequal."""
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        return [d for key in want for d in _differences(want[key], got[key], tols, f"{path}.{key}", tols.get(key, tol))]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [d for i, (a, b) in enumerate(zip(want, got)) for d in _differences(a, b, tols, f"{path}[{i}]", tol)]
    if type(want) is float and type(got) is float and abs(want - got) <= tol:
        return []
    return [] if type(want) is type(got) and want == got else [f"{path}: {want!r} -> {got!r}"]


def check_expected(results: dict, expected: dict) -> list[str]:
    """One line per departure of `run_here` results from the expected file."""
    got = {name: summarise(code, data) for name, (code, data) in results.items()}
    tols = dict(expected["tolerances"])
    return _differences(expected["documents"], got, tols, "", tols.pop("value"))


def write_expected() -> None:
    """Run the calls in-process and write the expected file."""
    sys.path.insert(0, str(ROOT / "src"))
    from torusflow.powerflow import PTC_TOL

    with tempfile.TemporaryDirectory(prefix="torusflow-corpus-") as tmp:
        results = run_here(Path(tmp))
    documents = {name: summarise(code, data) for name, (code, data) in results.items()}
    lines = [f"  {json.dumps(name)}: {json.dumps(entry)}" for name, entry in documents.items()]
    tolerances = json.dumps({"value": VALUE_TOL, "ptc": PTC_TOL})
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(f'{{"tolerances": {tolerances},\n "documents": {{\n' + ",\n".join(lines) + "\n}}\n")


def _rows(doc) -> dict[tuple, object] | None:
    """A solve or sweep document's rows by winding vector, or None."""
    rows = doc.get("solutions", doc.get("results")) if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        return None
    return {tuple(r["u"]): r for r in rows}


def _max_delta(a, b, key: str):
    """max |a[key] - b[key]| over two rows' equal-length number lists, or
    None when either row lacks them."""
    x, y = a.get(key), b.get(key)
    if not (isinstance(x, list) and isinstance(y, list) and len(x) == len(y)):
        return None
    return max((abs(p - q) for p, q in zip(x, y)), default=0.0)


def compare_document(old: bytes, new: bytes) -> str:
    """What differs between two documents that are not byte-identical."""
    try:
        a, b = json.loads(old), json.loads(new)
    except ValueError:
        return "differs (not JSON)"
    ra, rb = _rows(a), _rows(b)
    if ra is None or rb is None:
        return "differs"
    parts = []
    shared = [u for u in ra if u in rb]
    for key, label in (("f", "Δf"), ("theta", "Δθ")):
        deltas = [_max_delta(ra[u], rb[u], key) for u in shared]
        deltas = [d for d in deltas if d is not None]
        if deltas:
            parts.append(f"max |{label}| {max(deltas):.1e}")
    if set(ra) != set(rb):
        lost = sorted(set(ra) - set(rb))
        gained = sorted(set(rb) - set(ra))
        parts.append(f"u-set changed: -{[list(u) for u in lost]} +{[list(u) for u in gained]}")
    return ", ".join(parts) if parts else "differs"


def compare_runs(old: dict, new: dict, label: str = "REV") -> tuple[list[str], bool]:
    """One line per document of two `run_tree` results, then the summary;
    and whether every document and exit code is the same."""
    lines, identical, codes = [], 0, 0
    for name in dict.fromkeys([*old, *new]):
        (code_a, doc_a), (code_b, doc_b) = old.get(name, (None, None)), new.get(name, (None, None))
        if doc_a == doc_b:
            report = "byte-identical" if doc_a is not None else "no document"
        elif doc_a is None or doc_b is None:
            report = f"written only {'here' if doc_a is None else 'at ' + label}"
        else:
            report = compare_document(doc_a, doc_b)
        identical += doc_a == doc_b
        if code_a != code_b:
            codes += 1
            report += f"; exit code {code_a} -> {code_b}"
        lines.append(f"{name}: {report}")
    same = identical == len(lines) and not codes
    changed = f"{codes} exit codes changed" if codes else "no exit code changed"
    lines.append(f"corpus against {label}: {identical} of {len(lines)} documents byte-identical, {changed}")
    return lines, same


def extract(rev: str, into: Path) -> Path:
    """REV's src/ under into, by `git archive`; returns that src/."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return into / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", help="git revision to compare this checkout with")
    mode.add_argument("--write", action="store_true", help="rewrite tests/corpus/expected.json")
    args = parser.parse_args(argv)
    if args.write:
        write_expected()
        return 0
    with tempfile.TemporaryDirectory(prefix="torusflow-corpus-") as tmp:
        tmp = Path(tmp)
        runs = []
        for src, name in ((extract(args.against, tmp / "rev"), "rev-run"), (ROOT / "src", "here-run")):
            (tmp / name).mkdir()
            runs.append(run_tree(src, tmp / name))
    lines, same = compare_runs(*runs, label=args.against)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
