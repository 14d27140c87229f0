"""Property-based checks of the exact row spaces behind every rank and dimension,
and of the integer-numerator envelope elements everything else is built on."""
from __future__ import annotations

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperweyl.coeffalg import CoeffAlgebra
from hyperweyl.hyper import (
    E_DP,
    F_DP,
    H_BINOM,
    L_GEN,
    NotInZFormError,
    collect,
    expand_monomial,
    ordered_monomial,
)
from hyperweyl.oracle import CARTAN, LOWER, RAISE, OracleElt, get_oracle
from hyperweyl.rootdata import build_root_datum
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


def assert_residues(vec, p):
    assert all(type(c) is int and 1 <= c < p for c in vec.values()), (p, vec)


@SETTINGS
@given(p_integral_rows(), st.dictionaries(LABELS, st.integers(-20, 20), max_size=4))
def test_char_p_entries_are_int_residues(case, probe):
    p, rows = case
    space = RowSpace(char=p)
    for row in rows:
        assert_residues(reduce_mod_p(row, p), p)
        assert_residues(space.insert(row), p)
        for pivot, stored in space.rows.items():
            assert_residues(stored, p)
            assert stored[pivot] == 1
    assert_residues(space.reduce(probe), p)


# -- envelope elements: integer numerators over one denominator ----------------

ORACLES = (get_oracle(build_root_datum("A", 1), CoeffAlgebra("poly", 1)),
           get_oracle(build_root_datum("A", 2), CoeffAlgebra("poly", 2)))
RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


def as_fractions(e):
    """The plain reference form of an element: word -> nonzero Fraction."""
    return {w: Fraction(c, e.den) for w, c in e.terms.items()}


def ref_add(x, y, scale=1):
    out = dict(x)
    for w, c in y.items():
        out[w] = out.get(w, 0) + scale * c
    return {w: c for w, c in out.items() if c}


def ref_nf(o, word):
    """Normal form by plain rewriting, sharing no code or cache with the oracle:
    the leftmost pair x y with x > y becomes y x + [x, y] until all words sort."""
    done, todo = {}, {tuple(word): 1}
    while todo:
        w, c = todo.popitem()
        i = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
        if i is None:
            done = ref_add(done, {w: c})
            continue
        head, x, y, tail = w[:i], w[i], w[i + 1], w[i + 2:]
        todo = ref_add(todo, {head + (y, x) + tail: c})
        for z, cz in o.bracket_letters(x, y):
            todo = ref_add(todo, {head + (z,) + tail: c * cz})
    return done


def ref_mul(o, x, y):
    """Product through the integer normal form of each concatenated word."""
    out = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            out = ref_add(out, {w: c1 * c2 * c for w, c in o.nf_word(w1 + w2).terms.items()})
    return out


def assert_lowest_terms(e):
    assert isinstance(e.den, int) and e.den >= 1
    assert all(isinstance(c, int) and c for c in e.terms.values())
    assert math.gcd(e.den, *e.terms.values()) == 1
    if not e.terms:
        assert e.den == 1


def letters_of(o):
    mons = o.algebra.monomials_up_to_deg(1)
    return [o.letter(block, idx, b) for b in mons
            for block, count in ((LOWER, len(o.datum.pos_roots)), (CARTAN, o.datum.rank),
                                 (RAISE, len(o.datum.pos_roots)))
            for idx in range(count)]


@st.composite
def elements(draw, o):
    """A small element built from a reference dict of normal words."""
    words = st.lists(st.sampled_from(letters_of(o)), max_size=3).map(lambda ls: tuple(sorted(ls)))
    ref = {w: c for w, c in draw(st.dictionaries(words, RATIONALS, max_size=4)).items() if c}
    den = math.lcm(*(c.denominator for c in ref.values()))
    e = OracleElt(o, {w: int(c * den) for w, c in ref.items()}, den)
    assert as_fractions(e) == ref
    return e


@st.composite
def monomials(draw, o):
    """An ordered basis monomial with small exponents and coefficient degrees."""
    A, d = o.algebra, o.datum
    mons = A.monomials_up_to_deg(1)
    nonunit = [b for b in mons if b != A.unit()]
    roots, nodes = range(len(d.pos_roots)), range(d.rank)
    gens = st.one_of(
        st.tuples(st.sampled_from((F_DP, E_DP)), st.sampled_from(roots), st.sampled_from(mons)),
        st.tuples(st.just(H_BINOM), st.sampled_from(nodes), st.just(A.unit())),
        st.tuples(st.just(L_GEN), st.sampled_from(nodes), st.sampled_from(nonunit)))
    labelled = draw(st.dictionaries(gens, st.integers(1, 3), max_size=3))
    by_label = {}
    for (kind, idx, exps), k in labelled.items():
        by_label[(kind, idx) if kind == H_BINOM else (kind, idx, exps)] = (kind, idx, exps, k)
    return ordered_monomial(by_label.values())


ORACLE_IDS = ("sl2-poly1", "A2-poly2")


def expand(o, h):
    return sum((c * expand_monomial(o, m) for m, c in h.items()), o.zero())


@pytest.mark.parametrize("o", ORACLES, ids=ORACLE_IDS)
@SETTINGS
@given(data=st.data())
def test_ring_operations_match_fraction_reference(o, data):
    x, y = data.draw(elements(o), label="x"), data.draw(elements(o), label="y")
    rx, ry = as_fractions(x), as_fractions(y)
    n = data.draw(st.integers(-3, 3), label="n")
    q = data.draw(RATIONALS, label="q")
    cases = [
        (x + y, ref_add(rx, ry)),
        (x - y, ref_add(rx, ry, -1)),
        (-x, {w: -c for w, c in rx.items()}),
        (x * y, ref_mul(o, rx, ry)),
        (n * x, {w: n * c for w, c in rx.items() if n}),
        (x * q, {w: q * c for w, c in rx.items() if q}),
    ]
    for got, want in cases:
        assert_lowest_terms(got)
        assert as_fractions(got) == want


@pytest.mark.parametrize("o", ORACLES, ids=ORACLE_IDS)
@SETTINGS
@given(data=st.data())
def test_normal_form_matches_plain_rewriting(o, data):
    word = data.draw(st.lists(st.sampled_from(letters_of(o)), max_size=4), label="word")
    nf = o.nf_word(word)
    assert nf.den == 1 and nf.terms == ref_nf(o, word)


@pytest.mark.parametrize("o", ORACLES, ids=ORACLE_IDS)
@SETTINGS
@given(data=st.data())
def test_collect_round_trips_integer_combinations(o, data):
    mons = data.draw(st.lists(monomials(o), max_size=3, unique=True), label="monomials")
    h = {m: data.draw(st.integers(-3, 3).filter(bool)) for m in mons}
    e = expand(o, h)
    assert_lowest_terms(e)
    assert collect(o, e) == h
    # integer combinations of words lie in the integral form and re-expand exactly
    x = data.draw(elements(o), label="x")
    x = x.den * x
    assert expand(o, collect(o, x)) == x
    # a fraction of it collects exactly when every basis coefficient is divisible
    q = data.draw(st.integers(2, 4), label="q")
    if all(c % q == 0 for c in h.values()):
        assert collect(o, Fraction(1, q) * e) == {m: c // q for m, c in h.items()}
    else:
        with pytest.raises(NotInZFormError):
            collect(o, Fraction(1, q) * e)


def drop_raising(e):
    """The raising-free part of e: normal words with a raising letter end in one."""
    return OracleElt(e.oracle, {w: c for w, c in e.terms.items()
                                if not w or w[-1][0] != RAISE}, e.den)


@pytest.mark.parametrize("o", ORACLES, ids=ORACLE_IDS)
@SETTINGS
@given(data=st.data())
def test_product_modulo_raising_ideal_drops_raising_words(o, data):
    letters = letters_of(o)
    raising = [l for l in letters if l[0] == RAISE]
    lowering_cartan = [l for l in letters if l[0] != RAISE]
    x = data.draw(elements(o), label="e1")
    # e2 always has a word ending in a raising letter, among any others
    head = data.draw(st.lists(st.sampled_from(letters), max_size=2), label="head")
    y = data.draw(elements(o), label="e2") + o.nf_word(
        head + [data.draw(st.sampled_from(raising), label="tail")])
    assert o.mul_mod_raising(x, y) == drop_raising(x * y)
    # lowering and Cartan letters keep a raising-free word raising-free
    word = tuple(sorted(data.draw(st.lists(st.sampled_from(lowering_cartan), max_size=3),
                                  label="word")))
    z = data.draw(st.sampled_from(lowering_cartan), label="letter")
    assert all(l[0] != RAISE for w in o._insert(z, word) for l in w)


PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failure(n):
    assert n < 10


def test_after_the_failure():
    pass
'''


def test_failing_property_reports_its_example(tmp_path):
    # a failing property must print its falsifying example under the repo's
    # warnings-as-errors settings and let the session go on to the next test
    (tmp_path / "test_planted.py").write_text(PLANTED)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-v", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "test_after_the_failure PASSED" in out
