"""Compare the documents the command line writes at two source trees.

    python tests/corpus.py --against REV

extracts REV's src/ with `git archive` into a temporary directory, runs
one fixed list of `python -m torusflow.cli` calls against it and against
this checkout's src/, and prints one line per document: "byte-identical",
or else max |Δf|, max |Δθ|, any changed u-set and any changed exit code.
The last line is a summary.  The exit status is 0 when every document is
byte-identical with the same exit code, and 1 otherwise.

The calls: the built-in cases at gamma = 1.4 and pi/2 - 0.01 on both
bases; the ring12 sweeps; `gen` meshes of seeds 1, 2 and 9, solved on both
bases; and one `gen --extra-edges 0` tree with its solve, check,
decompose and windings documents.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NEAR_LIMIT = repr(math.pi / 2 - 0.01)
CASES = ("pentagon", "ring12-sym", "ring12-asym", "expo(3)", "expo(5)")
MESH_SEEDS = (1, 2, 9)


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


def run_tree(src: Path, workdir: Path) -> dict[str, tuple[int, bytes | None]]:
    """Run every call against the package in src, writing into workdir:
    document name -> (exit code, the document's bytes or None)."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    results = {}
    for name, argv in calls():
        out = workdir / name
        argv = [a.replace("{dir}", str(workdir)) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "torusflow.cli", *argv, "--out", str(out)],
            env=env, cwd=workdir, capture_output=True,
        )
        results[name] = (proc.returncode, out.read_bytes() if out.exists() else None)
        if name == "solve-tree.json" and out.exists():
            first = json.loads(out.read_bytes())["solutions"][:1]
            (workdir / "tree-solution.json").write_text(json.dumps(first[0] if first else {}))
    return results


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
    parser.add_argument("--against", required=True, help="git revision to compare this checkout with")
    args = parser.parse_args(argv)
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
