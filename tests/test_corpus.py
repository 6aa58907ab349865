"""The comparison half of tests/corpus.py, on in-memory documents: no git
and no command-line runs."""
import json

import corpus


def _solve_doc(rows):
    return json.dumps({"solution_count": len(rows), "solutions": rows}).encode()


ROWS = [
    {"u": [-1], "f": [0.5, -0.25], "theta": [0.0, 1.0]},
    {"u": [0], "f": [0.0, 0.0], "theta": [0.0, 0.0]},
]


def test_identical_documents_and_codes():
    doc = _solve_doc(ROWS)
    lines, same = corpus.compare_runs({"a.json": (0, doc)}, {"a.json": (0, doc)}, "parent")
    assert lines == ["a.json: byte-identical", "corpus against parent: 1 of 1 documents byte-identical, no exit code changed"]
    assert same


def test_a_changed_u_is_reported():
    moved = [dict(ROWS[0], u=[1]), ROWS[1]]
    lines, same = corpus.compare_runs({"a.json": (0, _solve_doc(ROWS))}, {"a.json": (0, _solve_doc(moved))})
    assert lines[0] == "a.json: max |Δf| 0.0e+00, max |Δθ| 0.0e+00, u-set changed: -[[-1]] +[[1]]"
    assert lines[1].endswith("0 of 1 documents byte-identical, no exit code changed") and not same


def test_a_perturbed_f_is_reported():
    nudged = [dict(ROWS[0], f=[0.5, -0.25 + 3e-12]), ROWS[1]]
    lines, same = corpus.compare_runs({"a.json": (0, _solve_doc(ROWS))}, {"a.json": (0, _solve_doc(nudged))})
    assert lines[0] == "a.json: max |Δf| 3.0e-12, max |Δθ| 0.0e+00"
    assert not same


def test_a_changed_exit_code_and_a_missing_document_are_reported():
    doc = _solve_doc(ROWS)
    old = {"a.json": (0, doc), "b.json": (1, None)}
    new = {"a.json": (3, doc), "b.json": (0, doc)}
    lines, same = corpus.compare_runs(old, new, "parent")
    assert lines[:2] == ["a.json: byte-identical; exit code 0 -> 3", "b.json: written only here; exit code 1 -> 0"]
    assert lines[2] == "corpus against parent: 1 of 2 documents byte-identical, 2 exit codes changed"
    assert not same


def test_the_call_list_covers_the_tree_documents():
    names = [name for name, _ in corpus.calls()]
    assert len(names) == len(set(names))
    for name in ("solve-tree.json", "check-tree.json", "decompose-tree.json", "windings-tree.json"):
        assert name in names
    assert sum(name.startswith("solve-mesh-") for name in names) == 2 * len(corpus.MESH_SEEDS)
