from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hyperweyl.coeffalg import TRIVIAL, CoeffAlgebra
from hyperweyl.hyper import collect, lower_dp, monomial_adeg, monomial_weight_drop, raise_dp
from hyperweyl.oracle import CARTAN, LOWER, RAISE, ChevalleyTable, Oracle, OracleElt, get_oracle
from hyperweyl.rootdata import build_root_datum

POLY1 = CoeffAlgebra("poly", 1)
LAUR = CoeffAlgebra("laurent", 1)


def _sl2():
    return get_oracle(build_root_datum("A", 1), POLY1)


def test_sl2_triple():
    o = _sl2()
    one = (0,)
    e, f, h = o.x_plus(0, one), o.x_minus(0, one), o.h(0, one)
    assert o.lie_bracket(e, f) == h
    assert o.lie_bracket(h, e) == 2 * e
    assert o.lie_bracket(h, f) == (-2) * f
    assert not o.lie_bracket(h, h)


def test_bracket_multiplies_coefficients():
    o = _sl2()
    e_t = o.x_plus(0, (1,))
    f_t2 = o.x_minus(0, (2,))
    assert o.lie_bracket(e_t, f_t2) == o.h(0, (3,))


def test_loop_algebra_exponents_cancel():
    o = get_oracle(build_root_datum("A", 1), LAUR)
    assert o.lie_bracket(o.x_plus(0, (2,)), o.x_minus(0, (-2,))) == o.h(0, (0,))


def test_letter_order_is_pbw_order():
    o = get_oracle(build_root_datum("A", 2), POLY1)
    one = (0,)
    lowers = [o.letter(LOWER, i, one) for i in range(3)]
    cartans = [o.letter(CARTAN, i, one) for i in range(2)]
    raises_ = [o.letter(RAISE, i, one) for i in range(3)]
    seq = lowers + cartans + raises_
    assert seq == sorted(seq)
    # within a block: by root index, then by coefficient degree
    assert o.letter(LOWER, 0, one) < o.letter(LOWER, 0, (1,)) < o.letter(LOWER, 1, one)


@pytest.mark.parametrize("typ, algebra, max_deg", [
    ("A2", CoeffAlgebra("poly", 2), 2), ("A1", LAUR, 3), ("D4", POLY1, 2)])
def test_letter_codes_keep_the_field_order_and_decode(typ, algebra, max_deg):
    o = get_oracle(build_root_datum(typ[0], int(typ[1:])), algebra)
    roots, nodes = len(o.datum.pos_roots), o.datum.rank
    letters = {(block, idx, algebra.deg(b), b): o.letter(block, idx, b)
               for b in algebra.monomials_up_to_deg(max_deg)
               for block, count in ((LOWER, roots), (CARTAN, nodes), (RAISE, roots))
               for idx in range(count)}
    assert [letters[f] for f in sorted(letters)] == sorted(letters.values())
    assert all(o.letter_fields(code) == f for f, code in letters.items())
    # the block thresholds: a letter is Cartan or raising exactly when it reaches them
    assert all((code >= o.first_cartan) == (f[0] >= CARTAN)
               and (code >= o.first_raising) == (f[0] == RAISE) for f, code in letters.items())
    if algebra == LAUR:  # negative exponents below positive ones of equal degree
        assert o.letter(LOWER, 0, (-2,)) < o.letter(LOWER, 0, (2,)) < o.letter(LOWER, 0, (-3,))
    if algebra.nvars == 2:  # degree first: t1 before t2^2, though (0, 2) < (1, 0)
        assert o.letter(LOWER, 0, (1, 0)) < o.letter(LOWER, 0, (0, 2))


def test_bad_letters_fail_at_construction():
    o = _sl2()
    o.letter(LOWER, 0, (0,))  # a float index fails even when its int letter is made
    bad = [(lambda: o.letter(7, 0, (0,)), "unknown letter block 7"),
           (lambda: o.letter(LOWER, -1, (0,)), "root index -1 is outside 0..0"),
           (lambda: o.letter(LOWER, 0.5, (0,)), "root index 0.5 is outside 0..0"),
           (lambda: o.letter(LOWER, 0.0, (0,)), "root index 0.0 is outside 0..0"),
           (lambda: o.letter(CARTAN, 3, (0,)), "node index 3 is outside 0..0"),
           (lambda: o.h(2, (1,)), "node index 2 is outside 0..0"),
           (lambda: o.x_minus(3, (1,)), "root index 3 is outside 0..0"),
           (lambda: o.x_plus(0, (2 ** 64,)), "does not fit the 64-bit letter fields")]
    p2 = get_oracle(build_root_datum("A", 1), CoeffAlgebra("poly", 2))
    laurent = get_oracle(build_root_datum("A", 1), LAUR)
    bad += [(lambda: p2.x_plus(0, (2 ** 63, 2 ** 63)), "does not fit"),  # the degree field
            (lambda: laurent.x_plus(0, (2 ** 63,)), "does not fit"),
            (lambda: laurent.x_plus(0, (-2 ** 63 - 1,)), "does not fit")]
    for make, message in bad:
        with pytest.raises(ValueError, match=message):
            make()
    # the widest exponents that fit still round-trip
    top = (2 ** 64 - 1,)
    assert o.letter_fields(o.letter(RAISE, 0, top)) == (RAISE, 0, 2 ** 64 - 1, top)
    for e in (2 ** 63 - 1, -2 ** 63):
        assert laurent.letter_fields(laurent.letter(LOWER, 0, (e,)))[3] == (e,)


def test_normal_form_fixes_sorted_words():
    o = _sl2()
    w = (o.letter(LOWER, 0, (0,)), o.letter(LOWER, 0, (1,)), o.letter(CARTAN, 0, (0,)))
    nf = o.nf_word(w)
    assert (nf.den, nf.terms) == (1, {w: 1})


def test_ef_swap():
    o = _sl2()
    one = (0,)
    e, f, h = o.x_plus(0, one), o.x_minus(0, one), o.h(0, one)
    assert e * f == f * e + h
    # e f^2 = f^2 e + 2 f h - 2 f
    lhs = e * f * f
    rhs = f * f * e + 2 * (f * h) - 2 * f
    assert lhs == rhs


def _symbols(d):
    return ([(LOWER, i) for i in range(len(d.pos_roots))] + [(CARTAN, i) for i in range(d.rank)]
            + [(RAISE, i) for i in range(len(d.pos_roots))])


def _datum(typ):
    return build_root_datum(typ[0], int(typ[1:]))


def matrix_unit_brackets(d):
    """The type-A reference: brackets of Chevalley symbols through matrix units.

    x^+ of the root alpha_i + ... + alpha_{j-1} is E_{ij}, its negative is
    E_{ji}, and h_i = E_{ii} - E_{i+1,i+1}; each commutator is written back in
    the Chevalley basis, root vectors first, then Cartan terms by node.
    """
    n = d.rank
    mats = {(CARTAN, i): {(i, i): 1, (i + 1, i + 1): -1} for i in range(n)}
    for idx, beta in enumerate(d.pos_roots):
        i = beta.index(1)
        j = i + sum(beta)
        mats[(RAISE, idx)], mats[(LOWER, idx)] = {(i, j): 1}, {(j, i): 1}

    def mul(a, b):
        out = {}
        for (i, k), va in a.items():
            for (k2, j), vb in b.items():
                if k == k2:
                    out[(i, j)] = out.get((i, j), 0) + va * vb
        return out

    def decompose(mat):
        terms, diag = [], [0] * (n + 1)
        for (i, j), v in mat.items():
            if i == j:
                diag[i] = v
            elif v:
                coords = tuple(int(min(i, j) <= k < max(i, j)) for k in range(n))
                terms.append(((RAISE if i < j else LOWER, d.root_index[coords]), v))
        assert sum(diag) == 0
        for k in range(n):
            if sum(diag[:k + 1]):
                terms.append(((CARTAN, k), sum(diag[:k + 1])))
        return tuple(terms)

    out = {}
    for g1, m1 in mats.items():
        for g2, m2 in mats.items():
            comm = mul(m1, m2)
            for key, v in mul(m2, m1).items():
                comm[key] = comm.get(key, 0) - v
            out[(g1, g2)] = decompose(comm)
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_table_equals_matrix_unit_reference(n):
    d = build_root_datum("A", n)
    ref = matrix_unit_brackets(d)
    table = ChevalleyTable(d)
    syms = _symbols(d)
    assert set(ref) == {(g1, g2) for g1 in syms for g2 in syms}
    assert {key: table.bracket(*key) for key in ref} == ref


@pytest.mark.parametrize("typ", ["B2", "C3", "F4", "G2"])
def test_table_rejects_non_simply_laced_types(typ):
    with pytest.raises(ValueError, match=f"simply-laced types only, got {typ}"):
        ChevalleyTable(_datum(typ))


SIMPLY_LACED = ["A1", "A2", "A3", "A4", "D4", "E6"]


@pytest.mark.parametrize("typ", SIMPLY_LACED)
def test_integer_structure_constants(typ):
    # brackets of Chevalley vectors have nonzero integer coefficients
    table = ChevalleyTable(_datum(typ))
    syms = _symbols(table.datum)
    for g1 in syms:
        for g2 in syms:
            for _g, c in table.bracket(g1, g2):
                assert type(c) is int and c != 0


@pytest.mark.parametrize("typ", SIMPLY_LACED)
def test_bracket_antisymmetry_and_jacobi(typ):
    # on all basis triples: [x, [y, z]] = [[x, y], z] + [y, [x, z]]
    table = ChevalleyTable(_datum(typ))
    syms = _symbols(table.datum)
    pair = {(x, y): dict(table.bracket(x, y)) for x in syms for y in syms}
    for (x, y), v in pair.items():
        assert v == {g: -c for g, c in pair[(y, x)].items()}, (x, y)

    def bracket(u, v):
        """[u, v] for sparse combinations of symbols."""
        out = {}
        for g1, c1 in u.items():
            for g2, c2 in v.items():
                for g, c in pair[(g1, g2)].items():
                    out[g] = out.get(g, 0) + c1 * c2 * c
        return {g: c for g, c in out.items() if c}

    for x in syms:
        for y in syms:
            for z in syms:
                rhs = bracket(pair[(x, y)], {z: 1})
                for g, c in bracket({y: 1}, pair[(x, z)]).items():
                    rhs[g] = rhs.get(g, 0) + c
                assert bracket({x: 1}, pair[(y, z)]) == {g: c for g, c in rhs.items() if c}, \
                    (x, y, z)

    # the same through Oracle.lie_bracket on random elements of g ⊗ F[t]
    o = get_oracle(table.datum, POLY1)
    rng = random.Random(7)

    def rand_elt():
        block = rng.randrange(3)
        idx = rng.randrange(o.datum.rank if block == CARTAN else len(o.datum.pos_roots))
        exps = (rng.randrange(3),)
        c = Fraction(rng.randint(-2, 2))
        return c * [o.x_minus, o.h, o.x_plus][block](idx, exps)

    for _ in range(40):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert o.lie_bracket(x, y) == (-1) * o.lie_bracket(y, x)
        lhs = o.lie_bracket(x, o.lie_bracket(y, z))
        assert lhs == o.lie_bracket(o.lie_bracket(x, y), z) + o.lie_bracket(y, o.lie_bracket(x, z))


def test_a2_chevalley_signs():
    o = get_oracle(build_root_datum("A", 2), TRIVIAL)
    d = o.datum
    one = ()
    th = d.root_index[(1, 1)]
    assert o.lie_bracket(o.x_plus(0, one), o.x_plus(1, one)) == o.x_plus(th, one)
    assert o.lie_bracket(o.x_minus(0, one), o.x_minus(1, one)) == (-1) * o.x_minus(th, one)
    assert o.lie_bracket(o.x_plus(th, one), o.x_minus(th, one)) == o.h(0, one) + o.h(1, one)


def test_mul_associative_random():
    """Normal-form multiplication is associative: the rewriting is consistent."""
    o = get_oracle(build_root_datum("A", 2), POLY1)
    rng = random.Random(23)
    d = o.datum

    def rand_word(n):
        out = []
        for _ in range(n):
            block = rng.randrange(3)
            idx = rng.randrange(d.rank if block == CARTAN else len(d.pos_roots))
            out.append(o.letter(block, idx, (rng.randrange(2),)))
        return tuple(out)

    for _ in range(25):
        a = o.nf_word(rand_word(rng.randint(1, 2)))
        b = o.nf_word(rand_word(rng.randint(1, 2)))
        c = o.nf_word(rand_word(rng.randint(1, 2)))
        assert (a * b) * c == a * (b * c)


def test_mul_respects_weight_and_degree():
    o = get_oracle(build_root_datum("A", 2), POLY1)
    e, f = (raise_dp(0, (1,), 1),), (lower_dp(2, (2,), 1),)
    prod = collect(o, o.x_plus(0, (1,)) * o.x_minus(2, (2,)))
    want = tuple(a + b for a, b in zip(monomial_weight_drop(o, e), monomial_weight_drop(o, f)))
    assert len(prod) == 2  # f * e and the bracket term
    for m in prod:
        assert monomial_weight_drop(o, m) == want
        assert monomial_adeg(o, m) == 3


def test_elt_arithmetic_and_errors():
    o = _sl2()
    o2 = get_oracle(build_root_datum("A", 2), POLY1)
    e = o.x_plus(0, (0,))
    assert e - e == o.zero()
    assert o.one() * e == e
    assert (Fraction(1, 2) * e) + (Fraction(1, 2) * e) == e
    with pytest.raises(ValueError):
        e + o2.x_plus(0, (0,))
    assert e * True == e and False * e == o.zero()
    # anything but an int, a Fraction or an element is a TypeError
    for bad in (lambda: e * 0.5, lambda: 0.5 * e, lambda: e * "x", lambda: e + 1,
                lambda: 1 + e, lambda: e - 1, lambda: e + 0.5):
        with pytest.raises(TypeError):
            bad()


def test_format_elt():
    o = _sl2()
    s = o.format_elt(o.x_minus(0, (2,)) + o.h(0, (0,)))
    assert "f(a1,t^2)" in s and "h1(1)" in s
    assert o.format_elt(o.zero()) == "0"


# -- products of words already in PBW order -------------------------------------


def test_equal_letters_concatenate_into_one_word():
    # w1[-1] == w2[0]: the product is the one word w1 + w2, coefficients multiplied
    o = _sl2()
    f1, ft, h = o.letter(LOWER, 0, (0,)), o.letter(LOWER, 0, (1,)), o.letter(CARTAN, 0, (0,))
    x = OracleElt(o, {(f1, ft): 2}, 3)
    y = OracleElt(o, {(ft, h): 5})
    assert ((x * y).terms, (x * y).den) == ({(f1, ft, ft, h): 10}, 3)
    f = o.x_minus(0, (1,))
    assert (f * f).terms == {(ft, ft): 1}
    assert ((2 * f) * (f * f)).terms == {(ft, ft, ft): 2}


def test_concatenation_follows_pbw_order_not_exponent_order():
    # t1 sorts before t2^2 (degree first) though (0, 2) < (1, 0) as tuples
    o = get_oracle(build_root_datum("A", 2), CoeffAlgebra("poly", 2))
    for block, idx in ((LOWER, 2), (CARTAN, 1), (RAISE, 0)):
        lo, hi = o.letter(block, idx, (1, 0)), o.letter(block, idx, (0, 2))
        x, y = OracleElt(o, {(lo,): 1}), OracleElt(o, {(hi,): 1})
        assert (x * y).terms == {(lo, hi): 1}
        assert y * x == o.nf_word((hi, lo))
        assert (y * x).terms[(lo, hi)] == 1


def test_empty_right_word_still_drops_a_raising_left_word():
    # e * 1 ends in a raising letter and lies in U·n+: only h survives
    o = _sl2()
    e, h = o.x_plus(0, (0,)), o.h(0, (0,))
    assert o.mul_mod_raising(e + h, o.one()) == h
    # e (2 + f_t) = 2 e + f_t e + h_t, and only h_t is raising-free
    assert o.mul_mod_raising(e, 2 * o.one() + o.x_minus(0, (1,))) == o.h(0, (1,))
    assert (e + h) * o.one() == e + h


def test_descending_pair_keeps_its_cartan_term():
    o = _sl2()
    e, f, h = o.x_plus(0, (1,)), o.x_minus(0, (2,)), o.h(0, (3,))
    ew, fw = o.letter(RAISE, 0, (1,)), o.letter(LOWER, 0, (2,))
    assert (e * f).terms == {(fw, ew): 1, (o.letter(CARTAN, 0, (3,)),): 1}
    assert e * f == f * e + h
    assert (f * e).terms == {(fw, ew): 1}


def test_mixed_right_factor_is_the_sum_of_its_word_products():
    # left words against right words that concatenate, fold, or are empty
    o = get_oracle(build_root_datum("A", 2), POLY1)
    f0, h1, e1 = o.letter(LOWER, 0, (1,)), o.letter(CARTAN, 1, (0,)), o.letter(RAISE, 1, (1,))
    f2 = o.letter(LOWER, 2, (0,))
    left = OracleElt(o, {(f0, h1): 3, (f2,): -1, (): 2}, 5)
    words = [(), (f0,), (f2, h1), (h1, e1), (f0, f2, e1), (e1,)]
    right = OracleElt(o, {w: i + 1 for i, w in enumerate(words)}, 7)
    for mul in (Oracle.mul, Oracle.mul_mod_raising):
        want = sum((Fraction(i + 1, 7) * mul(o, left, OracleElt(o, {w: 1}))
                    for i, w in enumerate(words)), o.zero())
        assert mul(o, left, right) == want, mul
    # each one-word product is the normal form of the concatenation
    for w1 in left.terms:
        for w2 in words:
            assert OracleElt(o, {w1: 1}) * OracleElt(o, {w2: 1}) == o.nf_word(w1 + w2)


def test_product_leaves_its_factors_and_the_insert_cache_alone():
    o = Oracle(build_root_datum("A", 2), POLY1)
    f, h, e = o.letter(LOWER, 1, (0,)), o.letter(CARTAN, 0, (1,)), o.letter(RAISE, 0, (0,))
    x = OracleElt(o, {(e,): 2, (h, e): -1, (f,): 1})
    y = OracleElt(o, {(f,): 1, (f, h): 3, (e,): 1, (): -2})
    first = x * y
    y_terms = dict(y.terms)
    cache = {k: dict(v) for k, v in o._insert_cache.items()}
    assert cache  # the product went through cached insertions
    assert x * y == first
    # new insertions that start from cached ones leave those as they were:
    # e into (f0, f, h) commutes past f0 and folds f0 into the cached e (f, h)
    f0 = OracleElt(o, {(o.letter(LOWER, 0, (0,)),): 1})
    x * (f0 * y)
    o.mul_mod_raising(x, f0 * y)
    assert y.terms == y_terms
    assert {k: o._insert_cache[k] for k in cache} == cache
