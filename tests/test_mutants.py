"""The mutation panel (``tests/mutants.py``) still applies to the source.

Running the panel takes seconds a mutant, so the tier-1 suite only checks
that every mutant's text is still there to replace, exactly once, and that
the test files it names exist.
"""
from mutants import MUTANTS, REPO


def test_every_mutant_text_occurs_once_in_its_file():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        text = (REPO / "src" / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.text) == 1, mutant.name
        for test in mutant.tests:
            assert (REPO / test.partition("::")[0]).is_file(), (mutant.name, test)
