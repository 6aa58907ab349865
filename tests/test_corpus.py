"""tests/corpus.py: its comparison on in-memory documents, with no git and
no command-line runs, and the checked-in corpus run in-process against
tests/corpus/expected.json."""
import json

import pytest

import corpus


def _solve_doc(rows):
    return json.dumps({"basis": None, "solution_count": len(rows), "solutions": rows}).encode()


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


def test_the_corpus_matches_its_expected_file(tmp_path):
    expected = json.loads(corpus.EXPECTED.read_text())
    assert list(expected["documents"]) == [name for name, _ in corpus.calls()]
    assert corpus.EXPECTED.stat().st_size < 200_000
    assert corpus.check_expected(corpus.run_here(tmp_path), expected) == []


def _expected(rows):
    return {"tolerances": {"value": 1e-9, "ptc": 1e-6}, "documents": {"a.json": corpus.summarise(0, _solve_doc(rows))}}


@pytest.mark.parametrize(
    "change, where",
    [
        (lambda rows: [dict(rows[0], u=[1]), rows[1]], ".a.json.solutions[0][0][0]: -1 -> 1"),
        (lambda rows: rows[:1], ".a.json.count: 2 -> 1"),
        (lambda rows: [dict(rows[0], f=[0.5, -0.25 + 3e-8]), rows[1]], ".a.json.solutions[0][1]"),
    ],
    ids=["changed-u", "dropped-solution", "moved-f"],
)
def test_expected_file_departures_are_reported(change, where):
    got = {"a.json": (0, _solve_doc(change(ROWS)))}
    lines = corpus.check_expected(got, _expected(ROWS))
    assert lines and lines[0].startswith(where)


def test_drift_within_the_tolerances_passes():
    sweep = {"basis": {"fingerprint": "x"}, "results": [{"u": [0], "ptc": 0.5, "curve": []}]}
    expected = _expected(ROWS)
    expected["documents"]["b.json"] = corpus.summarise(0, json.dumps(sweep).encode())
    sweep["results"][0]["ptc"] += 5e-7
    nudged = [dict(ROWS[0], f=[0.5 + 5e-10, -0.25]), ROWS[1]]
    got = {"a.json": (0, _solve_doc(nudged)), "b.json": (0, json.dumps(sweep).encode())}
    assert corpus.check_expected(got, expected) == []
    sweep["results"][0]["ptc"] += 1e-6
    got["b.json"] = (0, json.dumps(sweep).encode())
    assert corpus.check_expected(got, expected) == [".b.json.results[0].ptc: 0.5 -> 0.5000015"]
