from __future__ import annotations

import math

import pytest

from hyperweyl.coeffalg import TRIVIAL, CoeffAlgebra


def test_construction_rules():
    CoeffAlgebra("poly", 0)
    CoeffAlgebra("poly", 3)
    CoeffAlgebra("laurent", 1)
    with pytest.raises(ValueError):
        CoeffAlgebra("laurent", 2)
    with pytest.raises(ValueError):
        CoeffAlgebra("poly", -1)
    with pytest.raises(ValueError):
        CoeffAlgebra("group", 1)


def test_trivial_algebra():
    assert TRIVIAL.nvars == 0
    assert TRIVIAL.unit() == ()
    assert TRIVIAL.mul((), ()) == ()
    assert TRIVIAL.deg(()) == 0
    assert list(TRIVIAL.monomials_up_to_deg(4)) == [()]


def test_mul_pow_deg():
    A = CoeffAlgebra("poly", 2)
    assert A.mul((1, 0), (2, 3)) == (3, 3)
    assert A.pow((1, 2), 3) == (3, 6)
    assert A.deg((1, 2)) == 3
    L = CoeffAlgebra("laurent", 1)
    assert L.mul((2,), (-3,)) == (-1,)
    assert L.deg((-4,)) == 4
    assert L.deg((4,)) == 4


def test_validate():
    A = CoeffAlgebra("poly", 2)
    A.validate((0, 0))
    with pytest.raises(ValueError):
        A.validate((1,))
    with pytest.raises(ValueError):
        A.validate((-1, 0))
    L = CoeffAlgebra("laurent", 1)
    L.validate((-5,))


def test_format_parse_roundtrip():
    A1 = CoeffAlgebra("poly", 1)
    assert A1.format((0,)) == "1"
    assert A1.format((1,)) == "t"
    assert A1.format((3,)) == "t^3"
    A2 = CoeffAlgebra("poly", 2)
    assert A2.format((2, 1)) == "t1^2*t2"
    assert A2.format((0, 0)) == "1"
    L = CoeffAlgebra("laurent", 1)
    assert L.format((-2,)) == "t^-2"
    for A in (A1, A2, L):
        for b in A.monomials_up_to_deg(3):
            assert A.parse(A.format(b)) == b
    assert L.parse("t^-7") == (-7,)
    with pytest.raises(ValueError):
        A1.parse("t^-1")
    with pytest.raises(ValueError):
        A2.parse("t3")
    with pytest.raises(ValueError):
        A1.parse("x")


def test_spec_string_roundtrip():
    for A in (TRIVIAL, CoeffAlgebra("poly", 2), CoeffAlgebra("laurent", 1)):
        assert CoeffAlgebra.from_spec_string(A.spec_string()) == A
    assert CoeffAlgebra.from_spec_string("poly:1").kind == "poly"
    with pytest.raises(ValueError):
        CoeffAlgebra.from_spec_string("poly")


def test_monomials_of_deg_counts():
    # stars and bars: C(d + n - 1, n - 1) monomials of degree d in n variables
    def of_deg(A, d):
        return [b for b in A.monomials_up_to_deg(d) if A.deg(b) == d]

    for n in (1, 2, 3):
        A = CoeffAlgebra("poly", n)
        for d in range(5):
            mons = of_deg(A, d)
            assert len(mons) == math.comb(d + n - 1, n - 1)
            assert len(set(mons)) == len(mons)
    L = CoeffAlgebra("laurent", 1)
    assert sorted(of_deg(L, 2)) == [(-2,), (2,)]
    assert of_deg(L, 0) == [(0,)]


def test_monomials_up_to_deg_sorted_by_key():
    A = CoeffAlgebra("poly", 2)
    mons = list(A.monomials_up_to_deg(2))
    assert mons == sorted(mons, key=A.key)
    assert len(mons) == 6


def test_monomials_with_exp_le():
    A = CoeffAlgebra("poly", 2)
    mons = list(A.monomials_with_exp_le(2))
    assert len(mons) == 9
    L = CoeffAlgebra("laurent", 1)
    assert sorted(L.monomials_with_exp_le(1)) == [(-1,), (0,), (1,)]


def test_key_is_graded():
    A = CoeffAlgebra("poly", 2)
    mons = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    degs = [A.deg(b) for b in sorted(mons, key=A.key)]
    assert degs == sorted(degs)
