from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hyperweyl.scalars import (
    NotPIntegralError,
    RowSpace,
    reduce_mod_p,
    vec_add_scaled,
)


def test_reduce_mod_p():
    vec = {"x": Fraction(3), "y": Fraction(7), "z": Fraction(1, 2)}
    out = reduce_mod_p(vec, 7)
    # the entry 7 = 0 mod 7 is dropped
    assert out == {"x": 3, "z": 4}
    assert all(type(r) is int for r in out.values())
    with pytest.raises(ValueError):
        reduce_mod_p(vec, 6)


def test_scalar_mod_p():
    # a single scalar reduces as a one-entry vector, to an int residue
    assert reduce_mod_p({0: 10}, 7) == {0: 3}
    assert reduce_mod_p({0: Fraction(1, 2)}, 7) == {0: 4}
    assert reduce_mod_p({0: Fraction(-1, 3)}, 5) == {0: 3}
    assert type(reduce_mod_p({0: Fraction(1, 2)}, 7)[0]) is int
    with pytest.raises(NotPIntegralError):
        reduce_mod_p({0: Fraction(1, 7)}, 7)


def test_vec_add_scaled_cancels():
    acc = {"a": Fraction(1), "b": Fraction(2)}
    vec_add_scaled(acc, {"b": Fraction(1), "c": Fraction(3)}, Fraction(-2))
    assert acc == {"a": Fraction(1), "c": Fraction(-6)}


def _dense_rank(vectors, labels, p=0):
    """Plain Gaussian elimination, used as an independent rank check."""
    rows = [[Fraction(v.get(l, 0)) for l in labels] for v in vectors]
    if p:
        rows = [[int(x) % p for x in r] for r in rows]
    rank = 0
    for col in range(len(labels)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = (1 / rows[rank][col]) if not p else pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p if p else x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % p if p else x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_rowspace_rank_matches_dense():
    rng = random.Random(11)
    labels = list(range(8))
    for char in (0, 5):
        vectors = []
        space = RowSpace(char=char)
        for _ in range(12):
            v = {l: Fraction(rng.randint(-3, 3)) for l in labels if rng.random() < 0.5}
            v = {l: c for l, c in v.items() if c}
            vectors.append(v)
            space.insert(v)
            assert space.rank == _dense_rank(vectors, labels, p=char)
        for v in vectors:
            assert space.contains(v)


def test_rowspace_reduce_is_stable():
    space = RowSpace()
    space.insert({0: 1, 1: 2})
    space.insert({1: 1, 2: 1})
    red = space.reduce({0: 2, 1: 1, 2: 5})
    # residue must be untouched by a second reduction
    assert space.reduce(red) == red
    assert not space.reduce({0: 1, 1: 3, 2: 1})


def test_rowspace_insert_returns_residue():
    space = RowSpace()
    r1 = space.insert({0: 2, 1: 4})
    assert r1 and r1[0] == 1  # normalized pivot
    assert space.insert({0: 1, 1: 2}) == {}
    r2 = space.insert({1: 5})
    assert r2 == {1: 1}
    # existing rows were cleaned against the new pivot
    assert space.rows[0] == {0: 1}


def test_rowspace_custom_key_order():
    # pivots are chosen by key, not by raw label order
    space = RowSpace(key=lambda l: -l)
    space.insert({0: 1, 5: 1})
    assert list(space.rows) == [5]


def test_rowspace_char_p_coercion():
    space = RowSpace(char=3)
    assert space.insert({0: 3, 1: 3}) == {}
    space.insert({0: Fraction(1, 2), 1: 1})
    assert space.rank == 1
    # 1/2 = 4 and 10 = 3 mod 7, then the pivot 4 is scaled by 4^-1 = 2
    assert RowSpace(char=7).insert({0: Fraction(1, 2), 1: 10}) == {0: 1, 1: 6}
    for char in (0, 3):
        with pytest.raises(TypeError):
            RowSpace(char=char).insert({0: 0.5})
    with pytest.raises(NotPIntegralError):
        space.insert({0: Fraction(1, 3)})
