from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from hyperweyl import hyper
from hyperweyl.coeffalg import CoeffAlgebra
from hyperweyl.oracle import CARTAN, LOWER, Oracle, OracleElt, get_oracle
from hyperweyl.rootdata import build_root_datum
from hyperweyl.hyper import (
    IDENTITY_IDS,
    NotInZFormError,
    SweepLimits,
    _report,
    _series_dp,
    cartan_binom,
    collect,
    expand_gen,
    expand_monomial,
    expand_word,
    format_hyper,
    format_monomial,
    hyper_mul,
    hyper_to_json,
    identity_cases,
    lambda_gen,
    lambda_poly,
    lambda_poly_root,
    lambda_power_reduction,
    lower_dp,
    monomial_adeg,
    monomial_degree,
    monomial_weight_drop,
    ordered_monomial,
    quotient_drop_raising,
    raise_dp,
    random_gen_word,
    straighten,
    straighten_roundtrip_failure,
    verify_identity,
    xminus_series_dp_coeff,
)

POLY1 = CoeffAlgebra("poly", 1)
POLY2 = CoeffAlgebra("poly", 2)


def sl2_oracle():
    return get_oracle(build_root_datum("A", 1), POLY1)


def a2_oracle():
    return get_oracle(build_root_datum("A", 2), POLY2)


# -- gensym and monomial plumbing ---------------------------------------------


def test_gensym_validation():
    with pytest.raises(ValueError):
        lower_dp(0, (1,), 0)
    with pytest.raises(ValueError):
        lambda_gen(0, (0,), 1, (0,))  # unit coefficient belongs to H
    with pytest.raises(ValueError):
        ordered_monomial([lower_dp(0, (1,), 1), lower_dp(0, (1,), 2)])
    m = ordered_monomial([raise_dp(0, (0,), 1), lower_dp(0, (1,), 2)])
    assert m[0][0] == 0 and m[1][0] == 3  # lowering block sorts first


def test_monomial_gradings():
    o = sl2_oracle()
    m = ordered_monomial([
        lower_dp(0, (2,), 3),
        cartan_binom(0, 2, (0,)),
        lambda_gen(0, (1,), 2, (0,)),
        raise_dp(0, (1,), 1),
    ])
    assert monomial_degree(m) == 4
    assert monomial_adeg(o, m) == 3 * 2 + 0 + 2 * 1 + 1
    assert monomial_weight_drop(o, m) == (3 - 1,)


# -- lambda series ---------------------------------------------------------------


def test_lambda_poly_small_orders():
    o = sl2_oracle()
    t = (1,)
    assert lambda_poly(o, 0, t, 0) == o.one()
    assert lambda_poly(o, 0, t, 1) == -o.h(0, t)
    want = Fraction(1, 2) * (o.h(0, t) * o.h(0, t)) - Fraction(1, 2) * o.h(0, (2,))
    assert lambda_poly(o, 0, t, 2) == want


def test_lambda_poly_root_uses_coroot():
    o = a2_oracle()
    theta = o.datum.root_index[(1, 1)]
    b = (1, 1)
    assert lambda_poly_root(o, theta, b, 1) == -(o.h(0, b) + o.h(1, b))


def test_out_of_range_indices_fail_loudly():
    o = sl2_oracle()
    for bad in (3, -1):
        with pytest.raises(ValueError, match=f"node index {bad} "):
            lambda_poly(o, bad, (1,), 1)
        with pytest.raises(ValueError, match=f"root index {bad} "):
            lambda_poly_root(o, bad, (1,), 1)
        with pytest.raises(ValueError, match=f"root index {bad} "):
            straighten(o, (lower_dp(bad, (1,), 1),))
        with pytest.raises(ValueError, match=f"root index {bad} "):
            expand_gen(o, raise_dp(bad, (0,), 2))
        for which, p in (("commutrels4", {"a": (1,), "k": 1, "l": 1}),
                         ("commutrels2", {"k": 1, "l": 1}),
                         ("basicrel", {"a": (1,), "b": (1,), "r": 1, "s": 1})):
            with pytest.raises(ValueError, match=f"root index {bad} "):
                verify_identity(o, which, {"alpha": bad, **p})
    with pytest.raises(ValueError, match="node index 4 "):
        straighten(o, (cartan_binom(4, 1, (0,)),))
    with pytest.raises(ValueError, match="node index 1 "):
        expand_gen(o, lambda_gen(1, (1,), 1, (0,)))
    with pytest.raises(ValueError, match="node index 7 "):
        lambda_power_reduction(o, 7, (1,), 2, 1)
    with pytest.raises(ValueError, match="node index -2 "):
        verify_identity(o, "commutrels3", {"i": -2, "alpha": 0, "a": (1,), "k": 1, "l": 1})


def test_xminus_series_checks_its_root():
    # a bad index used to build an element whose letters no root formats
    o = sl2_oracle()
    for bad in (1, -1):
        with pytest.raises(ValueError, match=f"root index {bad} is outside 0..0$"):
            xminus_series_dp_coeff(o, bad, (1,), (1,), 1, 1)


def test_wrong_length_exponents_fail_loudly():
    # CoeffAlgebra.mul and pow validate their arguments: zip would truncate
    # a wrong-length tuple silently
    o = sl2_oracle()
    with pytest.raises(ValueError, match="not a basis element"):
        lambda_poly(o, 0, (1, 2), 1)
    with pytest.raises(ValueError, match="not a basis element"):
        xminus_series_dp_coeff(o, 0, (1, 2), (1,), 1, 2)


def test_lambda_series_takes_one_basis_element():
    # a linear combination of basis elements is not a series argument
    o = a2_oracle()
    combo = {(1, 0): 1, (0, 1): 1}
    for r in (0, 1):
        with pytest.raises(ValueError, match="not a basis element"):
            lambda_poly(o, 0, combo, r)
        with pytest.raises(ValueError, match="not a basis element"):
            lambda_poly_root(o, 2, combo, r)


def test_lambda_power_reduction_identity_at_k1():
    o = sl2_oracle()
    assert lambda_power_reduction(o, 0, (1,), 1, 2) == {(2,): 1}


def test_lambda_power_reduction_frozen_case():
    o = sl2_oracle()
    assert lambda_power_reduction(o, 0, (1,), 2, 1) == {(2,): 2, (1, 1): -1}


def test_lambda_power_reduction_is_the_symmetric_function_identity():
    # exp(-sum p_s u^s / s) = prod (1 - x u): at numbers x with power sums p_s,
    # L(a, m) is (-1)^m e_m(x) and L(a^k, r) is (-1)^r e_r(x^k)
    o = sl2_oracle()
    xs = (2, -3, 5, 7, -1, 4)

    def e(m, vals):
        return sum(math.prod(c) for c in itertools.combinations(vals, m))

    for k in range(1, 4):
        for r in range(1, 4):
            red = lambda_power_reduction(o, 0, (1,), k, r)
            got = sum(c * math.prod((-1) ** s * e(s, xs) for s in parts)
                      for parts, c in red.items())
            assert got == (-1) ** r * e(r, [x ** k for x in xs])
    assert lambda_power_reduction(o, 0, (1,), 3, 2) == {
        (6,): 3, (1, 5): -3, (2, 4): -3, (3, 3): 3, (1, 1, 4): 3, (1, 2, 3): -3,
        (2, 2, 2): 1}


def test_lambda_power_reduction_structure():
    o = a2_oracle()
    for (k, r) in [(2, 2), (3, 1), (2, 3)]:
        red = lambda_power_reduction(o, 1, (1, 1), k, r)
        assert red[(r * k,)] == k
        assert all(sum(parts) == r * k for parts in red)
        assert all(isinstance(c, int) for c in red.values())


# -- lowering series -------------------------------------------------------------


def test_xminus_series_dp_coeff():
    o = sl2_oracle()
    t, unit = (1,), (0,)
    assert xminus_series_dp_coeff(o, 0, t, unit, 0, 0) == o.one()
    assert not xminus_series_dp_coeff(o, 0, t, unit, 0, 2)
    assert xminus_series_dp_coeff(o, 0, t, unit, 1, 1) == o.x_minus(0, unit)
    # dp=2, n=3: cross term (x⊗b)(x⊗ab^2) with coefficient 1
    got = xminus_series_dp_coeff(o, 0, t, (1,), 2, 3)
    assert got == o.x_minus(0, (1,)) * o.x_minus(0, (3,))
    # dp=2, n=2: the divided square (x⊗b)^{(2)}
    got2 = xminus_series_dp_coeff(o, 0, t, (1,), 2, 2)
    assert got2 == Fraction(1, 2) * (o.x_minus(0, (1,)) * o.x_minus(0, (1,)))


# -- series memo -------------------------------------------------------------------


def _series_values(o):
    """Series coefficients served by the memo, keyed by the call that made them."""
    t1, t2, t12, unit = (1, 0), (0, 1), (1, 1), (0, 0)
    vals = {}
    for i in range(o.datum.rank):
        for r in range(4):
            vals["lambda", i, r] = lambda_poly(o, i, t1, r)
            vals["lambda_t12", i, r] = lambda_poly(o, i, t12, r)
    for alpha in range(len(o.datum.pos_roots)):
        for a in (t2, t12):
            for r in range(4):
                vals["root", alpha, a, r] = lambda_poly_root(o, alpha, a, r)
        for a, b in ((t1, unit), (t2, t1), (unit, t12)):
            for dp in range(4):
                for n in range(4):
                    vals["xminus", alpha, a, b, dp, n] = xminus_series_dp_coeff(
                        o, alpha, a, b, dp, n)
    return vals


def _fields(e):
    """Numerators and denominator of an element, detached from its oracle."""
    return e.den, dict(e.terms)


def test_series_memo_is_exact_and_unaliased():
    o = a2_oracle()
    cached = _series_values(o)
    snapshot = {key: _fields(e) for key, e in cached.items()}
    # a fresh oracle shares no memo key with the shared one
    other = Oracle(o.datum, o.algebra)
    fresh = _series_values(other)
    assert all(e.oracle is other for e in fresh.values())
    assert snapshot == {key: _fields(e) for key, e in fresh.items()}
    lim = SweepLimits(rmax=2, smax=2, kmax=2, lmax=2, adeg=1)
    for which in ("basicrel", "commutrels5", "a_k_reduction"):
        for p in identity_cases(o, which, lim):
            assert verify_identity(o, which, p)["pass"], (which, p)
    again = _series_values(o)
    # only the Λ-series is memoized; x⁻ divided powers are rebuilt per call
    assert all(again[key] is cached[key] for key in cached if key[0] != "xminus")
    assert {key: _fields(e) for key, e in cached.items()} == snapshot


def test_series_dp_lists_every_coefficient():
    # a truncated divided power does not depend on where it is cut
    o = a2_oracle()
    t1, t2, t12 = (1, 0), (0, 1), (1, 1)
    terms = [(1, t12), (2, t1), (0, t2), (-1, (0, 0))]
    for dp in range(4):
        for n in range(4):
            got = _series_dp(o, 2, terms[:n + 1], dp)
            assert len(got) == n + 1
            for j in range(n + 1):
                assert got[:j + 1] == _series_dp(o, 2, terms[:j + 1], dp), (dp, n, j)


def _series_dp_by_products(o, alpha, terms, dp):
    """u^0..u^n of (sum_j c_j (x^-_alpha ⊗ b_j) u^j)^dp / dp!, multiplied out
    with envelope products: the reference for the multinomial closed form."""
    n = len(terms) - 1
    s = [c * o.x_minus(alpha, b) for c, b in terms]
    pw = [o.one()] + [o.zero()] * n
    for _ in range(dp):
        nxt = [o.zero()] * (n + 1)
        for i, x in enumerate(pw):
            for j, y in enumerate(s[:n + 1 - i]):
                nxt[i + j] = nxt[i + j] + x * y
        pw = nxt
    return [Fraction(1, math.factorial(dp)) * c for c in pw]


@pytest.mark.parametrize("rank, alg", [(1, POLY1), (2, POLY2), (1, CoeffAlgebra("laurent", 1))])
def test_series_dp_matches_envelope_products(rank, alg):
    o = Oracle(build_root_datum("A", rank), alg)
    mons = sorted(alg.monomials_up_to_deg(2), key=lambda b: (alg.deg(b), b))
    unit, top = alg.unit(), mons[-1]
    series = [
        # c_0 != 0, a zero c_j, a repeated letter, letters against j order
        [(2, top), (0, mons[1]), (1, unit), (-3, mons[1]), (1, top)],
        # one letter at several orders: a = b = 1
        [(0, unit)] + [(1, unit)] * 4,
        # basicrel's and commutrels5's series at a = t, b = t
        [(0, unit)] + [(1, alg.mul(alg.pow(mons[1], j), alg.pow(mons[1], j + 1)))
                       for j in range(4)],
        [(j + 1, alg.mul(alg.pow(mons[1], j), mons[1])) for j in range(5)],
    ]
    for alpha in range(len(o.datum.pos_roots)):
        for terms in series:
            for dp in range(4):
                for n in range(5):
                    want = _series_dp_by_products(o, alpha, terms[:n + 1], dp)
                    assert _series_dp(o, alpha, terms[:n + 1], dp) == want, (alpha, terms, dp, n)


def _series_dp_by_all_multisets(o, alpha, terms, dp):
    """The closed form over every size-dp multiset of nonzero orders, dropping
    those whose orders sum past n: the reference for the budgeted enumeration."""
    n = len(terms) - 1
    letters = [(j, c, o.letter(LOWER, alpha, b)) for j, (c, b) in enumerate(terms) if c]
    nums = [{} for _ in range(n + 1)]
    for pick in itertools.combinations_with_replacement(letters, dp):
        m = sum(j for j, _c, _x in pick)
        if m > n:
            continue
        word = tuple(sorted(x for _j, _c, x in pick))
        mult = math.factorial(dp) // math.prod(
            math.factorial(len(tuple(grp))) for _key, grp in itertools.groupby(pick))
        nums[m][word] = nums[m].get(word, 0) + mult * math.prod(c for _j, c, _x in pick)
    return [OracleElt(o, {w: c for w, c in num.items() if c}, math.factorial(dp))
            for num in nums]


@pytest.mark.parametrize("rank, alg", [(1, POLY1), (2, POLY2), (1, CoeffAlgebra("laurent", 1))])
def test_series_dp_builds_the_multisets_of_the_full_loop(rank, alg):
    o = Oracle(build_root_datum("A", rank), alg)
    mons = sorted(alg.monomials_up_to_deg(2), key=lambda b: (alg.deg(b), b))
    rng = random.Random(5)
    series = [
        # c_0 != 0 and zero c_j between nonzero ones
        [(3, mons[1]), (0, mons[0]), (2, mons[-1]), (0, mons[1]), (-1, mons[0]), (0, mons[-1]),
         (1, mons[1])],
        # c_0 = 0, every later order present (basicrel's shape)
        [(0, mons[0])] + [(1, mons[j % len(mons)]) for j in range(6)],
        # only the top order is nonzero: every kept multiset meets the budget exactly
        [(0, mons[0])] * 6 + [(5, mons[-1])],
    ] + [[(rng.choice((0, 0, 1, -2, 3)), rng.choice(mons)) for _ in range(7)] for _ in range(4)]
    for alpha in range(len(o.datum.pos_roots)):
        for terms in series:
            for dp in range(5):
                for n in range(7):
                    got = _series_dp(o, alpha, terms[:n + 1], dp)
                    want = _series_dp_by_all_multisets(o, alpha, terms[:n + 1], dp)
                    assert ([(e.den, list(e.terms.items())) for e in got]
                            == [(e.den, list(e.terms.items())) for e in want]), (terms, dp, n)


def test_identity_sweeps_build_one_series_per_case(monkeypatch):
    o = Oracle(a2_oracle().datum, POLY2)
    calls = []

    def counting(*args):
        calls.append(args)
        return _series_dp(*args)

    monkeypatch.setattr(hyper, "_series_dp", counting)
    for which, count in (("basicrel", 1800), ("commutrels5", 2700)):
        calls.clear()
        cases = identity_cases(o, which, SweepLimits())
        assert len(cases) == count
        for p in cases:
            assert verify_identity(o, which, p)["pass"], (which, p)
        assert len(calls) == count, which
    assert not hasattr(hyper, "_SERIES_CACHE")
    # the oracle keeps only Λ lists: one per (coroot, coefficient), Cartan words only
    assert o._lambda_series
    for (hvec, b), lam in o._lambda_series.items():
        assert hvec in o.datum.coroots and b in POLY2.monomials_up_to_deg(6)
        assert all(o.letter_fields(letter)[0] == CARTAN
                   for e in lam for w in e.terms for letter in w)


def _series_exp_reference(o, hvec, b, order):
    """u^0..u^order of exp(-sum_s (h ⊗ b^s) u^s / s): the logarithm, then exp."""

    def mul(s1, s2):
        out = [o.zero()] * (order + 1)
        for i, x in enumerate(s1):
            for j, y in enumerate(s2[:order + 1 - i]):
                out[i + j] = out[i + j] + x * y
        return out

    log = [o.zero()]
    for s in range(1, order + 1):
        term = o.zero()
        for i, hc in enumerate(hvec):
            term = term + Fraction(-hc, s) * o.h(i, o.algebra.pow(b, s))
        log.append(term)
    out = [o.one()] + [o.zero()] * order
    power = list(out)
    for n in range(1, order + 1):
        power = mul(power, log)
        out = [e + Fraction(1, math.factorial(n)) * x for e, x in zip(out, power)]
    return out


def test_lambda_series_matches_log_exp_reference():
    o = Oracle(a2_oracle().datum, POLY2)
    t1, t2, t12 = (1, 0), (0, 1), (1, 1)
    for i in range(o.datum.rank):
        hvec = tuple(int(j == i) for j in range(o.datum.rank))
        for a in (t1, t12):
            want = _series_exp_reference(o, hvec, a, 5)
            assert [lambda_poly(o, i, a, r) for r in range(6)] == want, (i, a)
    for alpha in range(len(o.datum.pos_roots)):
        want = _series_exp_reference(o, o.datum.coroots[alpha], t2, 5)
        assert [lambda_poly_root(o, alpha, t2, r) for r in range(6)] == want, alpha


def test_series_memo_grows_in_place():
    datum = a2_oracle().datum
    t1, t2, t12 = (1, 0), (0, 1), (1, 1)
    o, direct = Oracle(datum, POLY2), Oracle(datum, POLY2)
    calls = [
        (True, lambda o, r: lambda_poly(o, 1, t12, r)),
        (True, lambda o, r: lambda_poly_root(o, 2, t2, r)),
        # x⁻ divided powers are rebuilt per call, not memoized
        (False, lambda o, r: xminus_series_dp_coeff(o, 2, t1, t12, 2, r)),
        (False, lambda o, r: xminus_series_dp_coeff(o, 0, t2, (0, 0), 3, r)),
    ]
    for memoized, call in calls:
        low = [call(o, r) for r in range(3)]
        top = call(o, 5)
        assert not memoized or all(call(o, r) is low[r] for r in range(3))
        # elements of different oracles never compare equal, so compare fields
        assert _fields(top) == _fields(call(direct, 5))
        assert all(_fields(call(o, r)) == _fields(call(direct, r)) for r in range(6))


# -- collect and straighten -------------------------------------------------------


def test_collect_divided_square():
    o = sl2_oracle()
    f = o.x_minus(0, (0,))
    assert collect(o, Fraction(1, 2) * (f * f)) == {(lower_dp(0, (0,), 2),): 1}


def test_collect_cartan_square_frozen():
    o = sl2_oracle()
    got = collect(o, o.h(0, (1,)) * o.h(0, (1,)))
    assert got == {
        (lambda_gen(0, (1,), 2, (0,)),): 2,
        (lambda_gen(0, (2,), 1, (0,)),): -1,
    }


def test_collect_rejects_non_integral():
    o = sl2_oracle()
    f, h = o.x_minus(0, (0,)), o.h(0, (1,))
    # the message names the rational basis coefficient, with its sign
    for e, message in (
            (Fraction(1, 3) * (f * f), "coefficient 2/3 at F(a1,1)^(2)"),
            (Fraction(1, 5) * (h * h * h), "coefficient -6/5 at L(1,t,3)"),
            (Fraction(1, 4) * (h * h * f * f * f), "coefficient -3/2 at F(a1,1)^(3) L(1,t^2,1)")):
        with pytest.raises(NotInZFormError) as err:
            collect(o, e)
        assert str(err.value) == message + " is not an integer"


def test_straighten_sl2_swap():
    o = sl2_oracle()
    unit = (0,)
    got = straighten(o, (raise_dp(0, unit, 1), lower_dp(0, unit, 1)))
    assert got == {
        ordered_monomial([lower_dp(0, unit, 1), raise_dp(0, unit, 1)]): 1,
        (cartan_binom(0, 1, unit),): 1,
    }


def test_straighten_merges_divided_powers():
    o = sl2_oracle()
    t = (1,)
    got = straighten(o, (lower_dp(0, t, 1), lower_dp(0, t, 2)))
    assert got == {(lower_dp(0, t, 3),): 3}


def test_straighten_mixed_tensor_weights():
    o = sl2_oracle()
    got = straighten(o, (raise_dp(0, (1,), 1), lower_dp(0, (2,), 1)))
    assert got == {
        ordered_monomial([lower_dp(0, (2,), 1), raise_dp(0, (1,), 1)]): 1,
        (lambda_gen(0, (3,), 1, (0,)),): -1,
    }


def test_straighten_idempotent_on_basis():
    o = a2_oracle()
    rng = random.Random(3)
    for _ in range(10):
        word = random_gen_word(o, rng, max_k=2, max_deg=1, max_len=2)
        for m in straighten(o, word):
            assert straighten(o, m) == {m: 1}


def test_straighten_roundtrip_random():
    for o, seed, count in [(sl2_oracle(), 17, 30), (a2_oracle(), 18, 15)]:
        rng = random.Random(seed)
        for _ in range(count):
            word = random_gen_word(o, rng, max_k=2, max_deg=2, max_len=3)
            assert straighten_roundtrip_failure(o, word) is None


def test_straighten_preserves_bidegree():
    o = a2_oracle()
    rng = random.Random(29)
    for _ in range(10):
        word = random_gen_word(o, rng, max_k=2, max_deg=1, max_len=3)
        drop = tuple(map(sum, zip(*(monomial_weight_drop(o, (g,)) for g in word))))
        adeg = sum(monomial_adeg(o, (g,)) for g in word)
        for m in straighten(o, word):
            assert monomial_weight_drop(o, m) == drop
            assert monomial_adeg(o, m) == adeg


def test_hyper_mul_matches_word_product_and_associates():
    o = sl2_oracle()
    rng = random.Random(31)
    for _ in range(6):
        w1 = random_gen_word(o, rng, max_k=2, max_deg=1, max_len=2)
        w2 = random_gen_word(o, rng, max_k=2, max_deg=1, max_len=2)
        w3 = random_gen_word(o, rng, max_k=1, max_deg=1, max_len=1)
        h1, h2, h3 = straighten(o, w1), straighten(o, w2), straighten(o, w3)
        assert hyper_mul(o, h1, h2) == straighten(o, w1 + w2)
        assert hyper_mul(o, hyper_mul(o, h1, h2), h3) == hyper_mul(o, h1, hyper_mul(o, h2, h3))


def test_quotient_drop_raising():
    o = sl2_oracle()
    unit = (0,)
    h = straighten(o, (raise_dp(0, (1,), 1), lower_dp(0, (2,), 1)))
    assert quotient_drop_raising(h) == {(lambda_gen(0, (3,), 1, unit),): -1}
    lam = {(lambda_gen(0, (1,), 1, unit),): 1}
    assert quotient_drop_raising(lam) == lam
    assert quotient_drop_raising({(): 4}) == {(): 4}


# -- expansion sanity --------------------------------------------------------------


def test_expand_cartan_binom():
    o = sl2_oracle()
    h = o.h(0, (0,))
    want = Fraction(1, 2) * (h * h - h)
    assert expand_gen(o, cartan_binom(0, 2, (0,))) == want


def test_expand_monomial_is_product():
    o = a2_oracle()
    m = ordered_monomial([lower_dp(1, (1, 0), 2), raise_dp(0, (0, 0), 1)])
    assert expand_monomial(o, m) == expand_word(o, m)


# -- text and JSON -----------------------------------------------------------------


def test_format_monomial():
    o = a2_oracle()
    m = ordered_monomial([
        lower_dp(2, (1, 1), 3),
        cartan_binom(0, 2, (0, 0)),
        lambda_gen(0, (1, 0), 2, (0, 0)),
        raise_dp(0, (0, 0), 1),
    ])
    s = format_monomial(o, m)
    assert s == "F(a1+a2,t1*t2)^(3) H(1)^[2] L(1,t1,2) E(a1,1)^(1)"
    assert format_monomial(o, ()) == "1"


def test_hyper_json_roundtrip():
    o = a2_oracle()
    h = {(): -2, (lower_dp(0, (1, 0), 2),): 7}
    js = hyper_to_json(o, h)
    assert js == [["1", "-2"], ["F(a1,t1)^(2)", "7"]]
    assert format_hyper(o, {}) == "0"


def test_format_hyper_omits_unit_coefficients():
    o = sl2_oracle()
    f, e = (lower_dp(0, (1,), 2),), (raise_dp(0, (0,), 1),)
    fe = ordered_monomial(f + e)
    assert format_hyper(o, {(): -3, f: 1, e: -1, fe: 5}) == (
        "-3 + F(a1,t)^(2) + 5*F(a1,t)^(2) E(a1,1)^(1) + -E(a1,1)^(1)")
    assert format_hyper(o, {(): 1}) == "1"
    assert format_hyper(o, {}) == "0"


# -- identity reports ---------------------------------------------------------------


def test_verify_identity_reports():
    o = sl2_oracle()
    rep = verify_identity(o, "basicrel", {"alpha": 0, "a": (1,), "b": (1,), "r": 1, "s": 1})
    assert rep["pass"] and rep["id"] == "basicrel"
    assert rep["residual"] == "0"
    with pytest.raises(ValueError):
        verify_identity(o, "nonsense", {})
    with pytest.raises(ValueError):
        verify_identity(o, "basicrel", {"alpha": 0, "a": (1,), "b": (1,), "r": 2, "s": 1})
    with pytest.raises(ValueError):
        verify_identity(o, "commutrels1", {
            "alpha": 0, "beta": 0, "sign1": "+", "sign2": "-",
            "a": (0,), "b": (0,), "k": 1, "l": 1})


def test_failing_report_formats_both_sides():
    o = sl2_oracle()
    lhs = o.x_minus(0, (1,)) * o.h(0, (0,))
    rhs = Fraction(1, 2) * o.h(0, (1,))
    rep = _report(o, {"k": 1}, lhs, rhs)
    assert rep["pass"] is False and rep["params"] == {"k": 1}
    assert rep["lhs"] == o.format_elt(lhs)
    assert rep["rhs"] == o.format_elt(rhs)
    assert rep["residual"] == o.format_elt(lhs - rhs)


@pytest.mark.parametrize("which, params", [
    ("basicrel", {"alpha": 0, "a": (1,), "b": (0,), "r": 1, "s": 2}),
    ("commutrels1", {"alpha": 0, "beta": 0, "sign1": "-", "sign2": "-",
                     "a": (0,), "b": (1,), "k": 1, "l": 2}),
    ("a_k_reduction", {"i": 0, "a": (1,), "k": 2, "r": 1}),
    ("gAforms_integrality", {"count": 3, "seed": 1}),
])
def test_passing_report_has_no_sides(which, params):
    rep = verify_identity(sl2_oracle(), which, params)
    assert rep["pass"] is True
    assert "lhs" not in rep and "rhs" not in rep
    assert rep["residual"] in ("0", "")


def test_verify_identity_small_sweep_sl2():
    o = sl2_oracle()
    t = (1,)
    for r in (1, 2):
        for s in (r, r + 1):
            rep = verify_identity(o, "basicrel", {"alpha": 0, "a": t, "b": (2,), "r": r, "s": s})
            assert rep["pass"], (r, s)
    for k in (1, 2):
        for l in (1, 2):
            assert verify_identity(o, "commutrels2", {"alpha": 0, "k": k, "l": l})["pass"]
            assert verify_identity(o, "commutrels3", {
                "i": 0, "alpha": 0, "sign": "-", "a": t, "k": k, "l": l})["pass"]
            assert verify_identity(o, "commutrels4", {
                "alpha": 0, "a": t, "k": k, "l": l})["pass"]
    for r in (1, 2):
        for k in (1, 2):
            assert verify_identity(o, "commutrels5", {
                "alpha": 0, "a": t, "b": (0,), "r": r, "k": k})["pass"]
    assert verify_identity(o, "a_k_reduction", {"i": 0, "a": t, "k": 2, "r": 2})["pass"]


def test_verify_identity_a2_cases():
    o = a2_oracle()
    theta = o.datum.root_index[(1, 1)]
    assert verify_identity(o, "basicrel", {
        "alpha": theta, "a": (1, 0), "b": (1, 1), "r": 2, "s": 2})["pass"]
    assert verify_identity(o, "commutrels1", {
        "alpha": 0, "beta": 1, "a": (1, 0), "b": (0, 1), "k": 2, "l": 2})["pass"]
    assert verify_identity(o, "commutrels5", {
        "alpha": theta, "a": (1, 1), "b": (1, 0), "r": 2, "k": 2})["pass"]


def test_identity_case_lists_are_pinned():
    # every sweep's case list, in order, for five oracles and four limit sets
    limits = [SweepLimits(),
              SweepLimits(rmax=2, smax=3, kmax=2, lmax=1, adeg=1, count=7, seed=3),
              SweepLimits(rmax=1, smax=2, kmax=1, lmax=3, adeg=2, count=5, seed=9),
              SweepLimits(0, 0, 0, 0, 0, 0, 0)]
    rows = []
    for typ, coeff in (("A1", "poly:1"), ("A2", "poly:2"), ("A1", "laurent:1"),
                       ("D4", "poly:1"), ("A2", "poly:0")):
        o = get_oracle(build_root_datum(typ[0], int(typ[1:])), CoeffAlgebra.from_spec_string(coeff))
        for index, lim in enumerate(limits):
            for which in IDENTITY_IDS:
                rows.append([typ, coeff, index, which, identity_cases(o, which, lim)])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert sum(len(row[-1]) for row in rows) == 79325
    assert digest == "a7c2b00ad6b40acaa7e0c2581bff648ac43799a2827d4d8193d3ca99ebd32dd1"


def test_gAforms_integrality_check():
    o = a2_oracle()
    rep = verify_identity(o, "gAforms_integrality", {"count": 10, "seed": 2})
    assert rep["pass"]
