"""Property-based checks of the exact row spaces behind every rank and dimension."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperweyl.scalars import RowSpace, reduce_mod_p

# small labels and entries, so that random rows are often dependent
LABELS = st.integers(0, 3)
SETTINGS = settings(max_examples=60, deadline=None)


def rows_over(entries):
    return st.lists(st.dictionaries(LABELS, entries, max_size=4), max_size=7)


def space_of(rows, char=0):
    space = RowSpace(char=char)
    for row in rows:
        space.insert(row)
    return space


@SETTINGS
@given(st.data())
def test_rank_does_not_depend_on_insertion_order(data):
    char = data.draw(st.sampled_from((0, 2, 3, 5)), label="char")
    rows = data.draw(rows_over(st.integers(-6, 6)), label="rows")
    shuffled = data.draw(st.permutations(rows), label="shuffled")
    first, second = space_of(rows, char), space_of(shuffled, char)
    assert first.rank == second.rank
    assert all(first.contains(row) and second.contains(row) for row in rows)


@st.composite
def p_integral_rows(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)), label="p")
    den = st.integers(1, 12).filter(lambda d: d % p)
    entries = st.builds(Fraction, st.integers(-6, 6), den)
    return p, draw(rows_over(entries), label="rows")


@SETTINGS
@given(p_integral_rows())
def test_char_p_rank_of_rationals_matches_reduced_rows(case):
    p, rows = case
    fed_rationals = space_of(rows, p)
    fed_residues = space_of([reduce_mod_p(row, p) for row in rows], p)
    assert fed_rationals.rank == fed_residues.rank
