"""``benchmarks/mutants.py``'s table stays live: every row plants.

The mutant runner takes minutes (CI's ``mutants`` job); this check takes
milliseconds.  A row whose snippet no longer occurs exactly once in its
file would be reported stale only there, so a refactor that moves or
duplicates a snippet fails here, in tier-1, and updates the table with
the code.
"""

from __future__ import annotations

import pytest

from benchmarks.mutants import MUTANTS, ROOT, plant


def test_the_table_is_large_and_named():
    assert len(MUTANTS) >= 25
    assert len({mutant.id for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_every_row_plants_exactly_once(mutant):
    text = (ROOT / mutant.file).read_text()
    assert text.count(mutant.snippet) == 1, f"stale row: {mutant.id}"
    assert plant(text, mutant) != text
    assert mutant.tests and all((ROOT / path).is_file() for path in mutant.tests)
    assert mutant.pr > 0
