"""The mutation probe's list stays in step with the code it mutates."""

import mutants


def test_every_mutant_applies_exactly_once_to_the_current_tree():
    for m in mutants.MUTANTS:
        text = (mutants.ROOT / m.path).read_text("utf-8")
        assert mutants.mutated(m, text) != text


def test_names_are_unique_and_every_equivalent_is_a_listed_mutant():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert set(mutants.EQUIVALENT) <= set(names)
    assert all(reason.strip() for reason in mutants.EQUIVALENT.values())
