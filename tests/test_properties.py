"""Property-based checks of the exact row spaces behind every rank and dimension,
and of the integer-numerator envelope elements everything else is built on."""
from __future__ import annotations

import itertools
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
    format_monomial,
    lower_dp,
    monomial_weight_drop,
    ordered_monomial,
    random_gen_word,
    straighten_roundtrip_failure,
)
from hyperweyl.oracle import CARTAN, LOWER, RAISE, OracleElt, get_oracle
from hyperweyl.rootdata import build_root_datum
from hyperweyl.scalars import RowSpace, reduce_mod_p
from hyperweyl.weyl import (
    EvalData,
    _inside,
    _lowering_monomials,
    default_window,
    relation_closure,
)

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


def letters_of(o, max_deg=1):
    mons = o.algebra.monomials_up_to_deg(max_deg)
    return [o.letter(block, idx, b) for b in mons
            for block, count in ((LOWER, len(o.datum.pos_roots)), (CARTAN, o.datum.rank),
                                 (RAISE, len(o.datum.pos_roots)))
            for idx in range(count)]


@st.composite
def elements(draw, o, max_deg=1, max_len=3):
    """A small element built from a reference dict of normal words."""
    words = st.lists(st.sampled_from(letters_of(o, max_deg)),
                     max_size=max_len).map(lambda ls: tuple(sorted(ls)))
    ref = {w: c for w, c in draw(st.dictionaries(words, RATIONALS, max_size=4)).items() if c}
    den = math.lcm(*(c.denominator for c in ref.values()))
    e = OracleElt(o, {w: int(c * den) for w, c in ref.items()}, den)
    assert as_fractions(e) == ref
    return e


@st.composite
def monomials(draw, o, max_deg=1):
    """An ordered basis monomial with small exponents and coefficient degrees."""
    A, d = o.algebra, o.datum
    mons = A.monomials_up_to_deg(max_deg)
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


def product_draws(o):
    """Letter degree and word length for the product properties.  On A2 poly:2
    they reach degree-2 letters, where PBW order (degree first) differs from
    exponent-tuple order: t1 sorts before t2^2 though (0, 2) < (1, 0)."""
    return (2, 4) if o.algebra.nvars == 2 else (1, 3)


def expand(o, h):
    return sum((c * expand_monomial(o, m) for m, c in h.items()), o.zero())


@pytest.mark.parametrize("o", ORACLES, ids=ORACLE_IDS)
@SETTINGS
@given(data=st.data())
def test_ring_operations_match_fraction_reference(o, data):
    max_deg, max_len = product_draws(o)
    x = data.draw(elements(o, max_deg, max_len), label="x")
    y = data.draw(elements(o, max_deg, max_len), label="y")
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
                                if not w or e.oracle.letter_fields(w[-1])[0] != RAISE}, e.den)


@pytest.mark.parametrize("o", ORACLES, ids=ORACLE_IDS)
@SETTINGS
@given(data=st.data())
def test_product_modulo_raising_ideal_drops_raising_words(o, data):
    max_deg, max_len = product_draws(o)
    letters = letters_of(o, max_deg)
    raising = [l for l in letters if o.letter_fields(l)[0] == RAISE]
    lowering_cartan = [l for l in letters if o.letter_fields(l)[0] != RAISE]
    x = data.draw(elements(o, max_deg, max_len), label="e1")
    # e2 always has a word ending in a raising letter, among any others
    head = data.draw(st.lists(st.sampled_from(letters), max_size=max_len - 1), label="head")
    y = data.draw(elements(o, max_deg, max_len), label="e2") + o.nf_word(
        head + [data.draw(st.sampled_from(raising), label="tail")])
    assert o.mul_mod_raising(x, y) == drop_raising(x * y)
    # lowering and Cartan letters keep a raising-free word raising-free
    word = tuple(sorted(data.draw(st.lists(st.sampled_from(lowering_cartan), max_size=3),
                                  label="word")))
    z = data.draw(st.sampled_from(lowering_cartan), label="letter")
    assert all(o.letter_fields(l)[0] != RAISE for w in o._insert(z, word) for l in w)


# -- straightening: collect then re-expand is exact on random gensym words ------

STRAIGHTEN_ORACLES = (get_oracle(build_root_datum("A", 2), CoeffAlgebra("poly", 2)),
                      get_oracle(build_root_datum("D", 4), CoeffAlgebra("poly", 1)))


@pytest.mark.parametrize("o", STRAIGHTEN_ORACLES, ids=("A2-poly2", "D4-poly1"))
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_straighten_round_trips_random_words(o, rng):
    gens = random_gen_word(o, rng, max_k=3, max_deg=2, max_len=3)
    assert straighten_roundtrip_failure(o, gens) is None, gens


def neighbours(o, g):
    """The gensyms that differ from g in exactly one of index, coefficient and order."""
    kind, idx, exps, k = g
    A = o.algebra
    if kind == H_BINOM:
        idxs, coeffs = range(o.datum.rank), []
    else:
        idxs = range(o.datum.rank if kind == L_GEN else len(o.datum.pos_roots))
        coeffs = [b for b in A.monomials_up_to_deg(2) if kind != L_GEN or b != A.unit()]
    yield from ((kind, j, exps, k) for j in idxs if j != idx)
    yield from ((kind, idx, b, k) for b in coeffs if b != exps)
    yield from ((kind, idx, exps, j) for j in range(1, 4) if j != k)


@pytest.mark.parametrize("o", STRAIGHTEN_ORACLES, ids=("A2-poly2", "D4-poly1"))
@SETTINGS
@given(data=st.data())
def test_distinct_monomials_format_to_distinct_text(o, data):
    # the basis text is output-only, so no parser notices two monomials named
    # alike; monomials one field apart are the likeliest to collide
    mons = data.draw(st.lists(monomials(o, max_deg=2), max_size=10, unique=True),
                     label="monomials")
    assert len({format_monomial(o, m) for m in mons}) == len(mons)
    for m in mons:
        for pos, g in enumerate(m):
            for h in neighbours(o, g):
                try:
                    other = ordered_monomial(m[:pos] + (h,) + m[pos + 1:])
                except ValueError:
                    continue  # h repeats the label of another factor
                assert format_monomial(o, other) != format_monomial(o, m), (m, other)


# -- window enumeration against a brute force -----------------------------------

@st.composite
def small_windows(draw):
    rank = draw(st.integers(1, 3))
    o = get_oracle(build_root_datum("A", rank), CoeffAlgebra("poly", draw(st.integers(0, 2))))
    nroots = len(o.datum.pos_roots)
    caps = draw(st.lists(st.integers(-1, 2), min_size=nroots, max_size=nroots))
    drop = draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank)
                .filter(lambda d: sum(d) <= 3))
    return o, tuple(caps), tuple(drop)


def brute_force_window(o, caps, drop):
    """Products over the positive roots, in root order, of every per-root factor
    (a multiset of at most max(drop) coefficients within the root's cap, in
    increasing order), kept when the weight drop is within the drop cap; a
    product is cut as soon as its drop leaves the cap, since drops only grow."""
    def fits(m):
        return all(a <= c for a, c in zip(monomial_weight_drop(o, m), drop))

    out = {()}
    for ri, cap in enumerate(caps):
        opts = sorted(o.algebra.monomials_with_exp_le(cap))
        factors = [tuple(lower_dp(ri, b, len(list(g))) for b, g in itertools.groupby(ms))
                   for size in range(max(drop) + 1)
                   for ms in itertools.combinations_with_replacement(opts, size)]
        out = {m + f for m in out for f in factors if fits(m + f)}
    return out


@SETTINGS
@given(small_windows())
def test_window_enumeration_matches_brute_force(window):
    o, caps, drop = window
    mons = _lowering_monomials(o, caps, drop)
    assert len(mons) == len(set(mons))
    assert set(mons) == brute_force_window(o, caps, drop)


def check_window_is_its_bounds(o, caps, drop, smaller_drop):
    """The closure never builds its extension window: a monomial is in it when
    its factors pass the exponent caps and its drop is within the drop cap, and
    enumerating at a smaller drop cap gives the filtered window, in order."""
    def within(m, cap):
        return all(a <= c for a, c in zip(monomial_weight_drop(o, m), cap))

    window = _lowering_monomials(o, caps, drop)
    members = set(window)
    wider = _lowering_monomials(o, tuple(c + 1 for c in caps), tuple(d + 1 for d in drop))
    for m in wider:
        assert (_inside(caps, {m: 1}) and within(m, drop)) == (m in members), m
    smaller = _lowering_monomials(o, caps, smaller_drop)
    assert smaller == [m for m in window if within(m, smaller_drop)]
    return len(smaller), len(window)


@SETTINGS
@given(small_windows(), st.data())
def test_window_is_its_bounds(window, data):
    o, caps, drop = window
    smaller = tuple(data.draw(st.integers(0, d), label="smaller drop") for d in drop)
    check_window_is_its_bounds(o, caps, drop, smaller)


# the extension windows of seven closures, with how many of their monomials
# lie within the base drop cap, where phase 2 takes its left factors
@pytest.mark.parametrize("typ, rank, lam, nvars, slack, sizes", [
    ("A", 1, (3,), 1, 3, (84, 924)),
    ("A", 2, (1, 1), 1, 2, (174, 4180)),
    ("D", 4, (1, 0, 0, 0), 0, 2, (131, 9057)),
    ("A", 1, (2,), 2, 1, (55, 220)),
    ("A", 2, (2, 0), 1, 2, (160, 3685)),
    ("A", 2, (1, 1), 0, 2, (14, 55)),
    ("A", 3, (1, 0, 1), 1, 1, (420, 3226)),
])
def test_extension_windows_are_their_bounds(typ, rank, lam, nvars, slack, sizes):
    datum = build_root_datum(typ, rank)
    w = default_window(datum, lam, slack)
    o = get_oracle(datum, CoeffAlgebra("poly", nvars))
    assert check_window_is_its_bounds(o, tuple(c + slack for c in w.exp_caps),
                                      tuple(d + slack for d in w.drop_cap),
                                      w.drop_cap) == sizes


# -- the closure: a wider extension window never adds dimensions ----------------

A1, POLY1 = build_root_datum("A", 1), CoeffAlgebra("poly", 1)


@SETTINGS
@given(m=st.integers(0, 3), char=st.sampled_from((0, 2, 3, 5)))
def test_graded_dimension_never_grows_with_slack(m, char):
    # each pass at slack s runs alone (max_slack = s); the extension window at
    # s + 1 contains the one at s, so it can only add relations
    dims = []
    for slack in range(4):
        w = default_window(A1, (m,), slack=slack)
        r = relation_closure(A1, (m,), POLY1, EvalData(lam=(m,), char=char),
                             window=w, max_slack=slack)
        dims.append(r.dimension)
    assert dims == sorted(dims, reverse=True), (m, char, dims)


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
