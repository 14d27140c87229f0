from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hyperweyl.coeffalg import TRIVIAL, CoeffAlgebra
from hyperweyl.hyper import collect, lower_dp, monomial_adeg, monomial_weight_drop, raise_dp
from hyperweyl.oracle import CARTAN, LOWER, RAISE, get_oracle
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


def test_integer_structure_constants():
    # brackets of Chevalley vectors have integer coefficients
    o = get_oracle(build_root_datum("A", 3), POLY1)
    d = o.datum
    syms = [(LOWER, i) for i in range(len(d.pos_roots))] + [(CARTAN, i) for i in range(d.rank)] + [(RAISE, i) for i in range(len(d.pos_roots))]
    for g1 in syms:
        for g2 in syms:
            for _g, c in o.table.bracket(g1, g2):
                assert isinstance(c, int) and c != 0


def test_bracket_antisymmetry_and_jacobi():
    o = get_oracle(build_root_datum("A", 2), POLY1)
    rng = random.Random(7)
    d = o.datum

    def rand_elt():
        block = rng.randrange(3)
        idx = rng.randrange(d.rank if block == CARTAN else len(d.pos_roots))
        exps = (rng.randrange(3),)
        c = Fraction(rng.randint(-2, 2))
        make = [o.x_minus, o.h, o.x_plus][block]
        return c * make(idx, exps)

    for _ in range(40):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert o.lie_bracket(x, y) == (-1) * o.lie_bracket(y, x)
        lhs = o.lie_bracket(x, o.lie_bracket(y, z))
        rhs = o.lie_bracket(o.lie_bracket(x, y), z) + o.lie_bracket(y, o.lie_bracket(x, z))
        assert lhs == rhs


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
