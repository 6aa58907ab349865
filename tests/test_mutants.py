"""The mutation table of tests/mutants.py stays in step with the library:
each row's text occurs exactly once, and its selection names test files
that exist.  Running the mutants themselves is `python tests/mutants.py`."""
import pytest

import mutants


def test_rows_have_distinct_names():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 12


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_text_occurs_exactly_once(mutant):
    assert (mutants.SRC / mutant.file).read_text().count(mutant.text) == 1
    assert mutant.replacement != mutant.text
    paths = [a.split("::")[0] for a in mutant.selection if a.startswith("tests/")]
    assert paths and all((mutants.ROOT / path).is_file() for path in paths)
