from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from hyperweyl.rootdata import build_root_datum, parse_type_string


def test_parse_type_string():
    assert parse_type_string("A2") == ("A", 2)
    assert parse_type_string(" G2 ") == ("G", 2)
    with pytest.raises(ValueError):
        parse_type_string("H3")


def test_cartan_matrices():
    assert build_root_datum("A", 2).cartan == ((2, -1), (-1, 2))
    assert build_root_datum("B", 2).cartan == ((2, -1), (-2, 2))
    assert build_root_datum("G", 2).cartan == ((2, -3), (-1, 2))
    f4 = build_root_datum("F", 4).cartan
    assert f4[1][2] == -1 and f4[2][1] == -2
    d4 = build_root_datum("D", 4).cartan
    assert sum(row.count(-1) for row in d4) == 6


def test_positive_root_counts():
    # numbers of positive roots of the simple types
    counts = {
        ("A", 1): 1, ("A", 2): 3, ("A", 3): 6,
        ("B", 2): 4, ("B", 3): 9, ("C", 3): 9,
        ("D", 4): 12, ("G", 2): 6, ("F", 4): 24, ("E", 6): 36,
    }
    for (series, rank), n in counts.items():
        d = build_root_datum(series, rank)
        assert len(d.pos_roots) == n
        assert all(all(c >= 0 for c in beta) for beta in d.pos_roots)


def test_roots_sorted_by_height():
    d = build_root_datum("A", 3)
    heights = [sum(beta) for beta in d.pos_roots]
    assert heights == sorted(heights)
    assert d.pos_roots[0] == (1, 0, 0)
    assert d.pos_roots[-1] == (1, 1, 1)


def test_coroots_b2():
    d = build_root_datum("B", 2)
    # alpha1 long, alpha2 short
    by_root = {beta: d.coroots[i] for i, beta in enumerate(d.pos_roots)}
    assert by_root[(1, 0)] == (1, 0)
    assert by_root[(0, 1)] == (0, 1)
    assert by_root[(1, 1)] == (2, 1)
    assert by_root[(1, 2)] == (1, 1)


@pytest.mark.parametrize("typ", "A1 A2 A5 B2 B3 B5 C2 C3 C4 D4 D6 E6 E7 E8 F4 G2".split())
def test_coroots_pair_to_two(typ):
    d = build_root_datum(*parse_type_string(typ))
    simply_laced = typ[0] in "ADE"
    for idx, (beta, h) in enumerate(zip(d.pos_roots, d.coroots)):
        assert sum(h[i] * d.root_pairing(beta, i) for i in range(d.rank)) == 2
        if idx < d.rank:
            assert h == beta == tuple(int(j == idx) for j in range(d.rank))
        if simply_laced:
            assert h == beta


def test_pairing_nonsimple_root():
    d = build_root_datum("B", 2)
    lam = (3, 4)
    idx = d.root_index[(1, 1)]
    assert d.pairing(lam, idx) == 2 * 3 + 4
    assert d.pairing(lam, 0) == 3


def test_root_pairing_values():
    d = build_root_datum("A", 2)
    theta = d.root_index[(1, 1)]
    # theta(h_i) = 1 for both nodes of A2
    assert d.root_pairing(d.pos_roots[theta], 0) == 1
    assert d.root_pairing(d.pos_roots[theta], 1) == 1


def test_simple_reflection_involution():
    d = build_root_datum("G", 2)
    mu = (2, -5)
    for i in range(2):
        assert d.simple_reflection(i, d.simple_reflection(i, mu)) == mu
    # alpha1 of G2 has weight coordinates (2, -1)
    assert d.simple_reflection(0, (1, 0)) == (-1, 1)


def test_weyl_orbit_sizes():
    a2 = build_root_datum("A", 2)
    assert len(a2.weyl_orbit((1, 0))) == 3
    assert len(a2.weyl_orbit((1, 1))) == 6
    assert len(a2.weyl_orbit((0, 0))) == 1
    b2 = build_root_datum("B", 2)
    assert len(b2.weyl_orbit((1, 0))) == 4
    assert len(b2.weyl_orbit((0, 1))) == 4
    assert len(b2.weyl_orbit((1, 1))) == 8


def test_dominant_representative():
    d = build_root_datum("A", 2)
    for mu in d.weyl_orbit((3, 1)):
        assert d.dominant_representative(mu) == (3, 1)


def test_weight_to_root_coords():
    d = build_root_datum("A", 2)
    assert d.weight_to_root_coords((1, 1)) == (Fraction(1), Fraction(1))
    assert d.weight_to_root_coords((1, 0)) == (Fraction(2, 3), Fraction(1, 3))
    # converting a root's weight coordinates recovers the root
    cart = d.cartan
    alpha1_wt = tuple(cart[i][0] for i in range(2))
    assert d.weight_to_root_coords(alpha1_wt) == (Fraction(1), Fraction(0))
    for bad in ((1, 1, 7), (1,)):
        with pytest.raises(ValueError, match="not an integral weight"):
            d.weight_to_root_coords(bad)
    with pytest.raises(ValueError, match="not an integral weight"):
        d.dominance_leq((0,), (1, 1))


@pytest.mark.parametrize("typ", "A1 A2 A3 A5 B2 B3 B5 C2 C3 C4 D4 D6 E6 E7 E8 F4 G2".split())
def test_root_coords_recombine_to_the_weight(typ):
    # alpha_j has weight coordinates cartan[i][j], so the check needs no solver
    d = build_root_datum(*parse_type_string(typ))
    r = 2 if d.rank <= 4 else 1
    for mu in itertools.product(range(-r, r + 1), repeat=d.rank):
        x = d.weight_to_root_coords(mu)
        assert all(isinstance(c, Fraction) for c in x)
        assert tuple(sum(x[j] * d.cartan[i][j] for j in range(d.rank))
                     for i in range(d.rank)) == mu


@pytest.mark.parametrize("typ", ["A2", "B2", "G2"])
def test_dominance_matches_bounded_search(typ):
    d = build_root_datum(*parse_type_string(typ))
    # differences of weights in [-2,2]^2 have simple-root coordinates of
    # absolute value at most 20 (G2: omega_1 = 2a1+a2, omega_2 = 3a1+2a2)
    below = {tuple(sum(n[j] * d.cartan[i][j] for j in range(2)) for i in range(2))
             for n in itertools.product(range(25), repeat=2)}
    box = list(itertools.product(range(-2, 3), repeat=2))
    for mu in box:
        for lam in box:
            diff = tuple(l - m for l, m in zip(lam, mu))
            assert d.dominance_leq(mu, lam) == (diff in below), (mu, lam)


def test_dominance_order():
    d = build_root_datum("A", 2)
    assert d.dominance_leq((0, 0), (1, 1))
    assert d.dominance_leq((1, 1), (1, 1))
    assert not d.dominance_leq((1, 0), (0, 1))
    assert not d.dominance_leq((3, 0), (1, 1))


def test_lambda_minus_w0_lambda():
    a2 = build_root_datum("A", 2)
    # w0 of A2 swaps the two fundamental weights
    assert a2.lambda_minus_w0_lambda((1, 0)) == (1, 1)
    assert a2.lambda_minus_w0_lambda((2, 1)) == (3, 3)
    a1 = build_root_datum("A", 1)
    assert a1.lambda_minus_w0_lambda((3,)) == (3,)
    b2 = build_root_datum("B", 2)
    # -1 is in the Weyl group of B2: lambda - w0(lambda) = 2 lambda in root coords
    lam = (1, 1)
    twice = tuple(2 * c for c in b2.weight_to_root_coords(lam))
    assert b2.lambda_minus_w0_lambda(lam) == twice


def test_weyl_dimension():
    a1 = build_root_datum("A", 1)
    for m in range(6):
        assert a1.weyl_dimension((m,)) == m + 1
    a2 = build_root_datum("A", 2)
    assert a2.weyl_dimension((0, 0)) == 1
    assert a2.weyl_dimension((1, 0)) == 3
    assert a2.weyl_dimension((0, 1)) == 3
    assert a2.weyl_dimension((1, 1)) == 8
    assert a2.weyl_dimension((2, 0)) == 6
    a3 = build_root_datum("A", 3)
    assert a3.weyl_dimension((1, 0, 0)) == 4
    assert a3.weyl_dimension((0, 1, 0)) == 6
    b2 = build_root_datum("B", 2)
    assert b2.weyl_dimension((1, 0)) == 5
    assert b2.weyl_dimension((0, 1)) == 4
    assert b2.weyl_dimension((1, 1)) == 16
    g2 = build_root_datum("G", 2)
    assert g2.weyl_dimension((1, 0)) == 7
    assert g2.weyl_dimension((0, 1)) == 14


def test_weyl_dimension_matches_orbit_counting():
    """Weyl dimension of a minuscule-like weight vs direct orbit size."""
    a3 = build_root_datum("A", 3)
    assert a3.weyl_dimension((1, 0, 0)) == len(a3.weyl_orbit((1, 0, 0)))
    assert a3.weyl_dimension((0, 1, 0)) == len(a3.weyl_orbit((0, 1, 0)))


def test_format_root_is_injective():
    # the basis text is output-only, so no parser notices two roots named alike
    for typ in "A1 A2 A3 A4 B2 B3 B4 C2 C3 C4 D3 D4 F4 G2 E6".split():
        d = build_root_datum(*parse_type_string(typ))
        names = [d.format_root(i) for i in range(len(d.pos_roots))]
        assert len(set(names)) == len(names), typ
    d = build_root_datum("B", 2)
    assert d.format_root(d.root_index[(1, 2)]) == "a1+2a2"
