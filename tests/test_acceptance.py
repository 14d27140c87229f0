"""Acceptance gate: one test per shipped guarantee, exact checks, timed budgets.

Run with `pytest -v tests/test_acceptance.py`; the PASSED/FAILED line of each
test_criterion_N is the per-criterion verdict.
"""
import math
import random
import time

from hyperweyl.coeffalg import CoeffAlgebra
from hyperweyl.hyper import (
    lambda_power_reduction,
    lower_dp,
    random_gen_word,
    straighten_roundtrip_failure,
    verify_identity,
)
from hyperweyl.oracle import get_oracle
from hyperweyl.rootdata import build_root_datum
from hyperweyl.weyl import (
    EvalData,
    character_check,
    default_window,
    relation_closure,
    spanning_set,
    weyl_module_g,
)

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
P1 = CoeffAlgebra("poly", 1)
P2 = CoeffAlgebra("poly", 2)

CHARS = (0, 2, 3, 5)


def w0_weight(datum, lam):
    drop = datum.lambda_minus_w0_lambda(lam)
    return tuple(lam[i] - sum(drop[j] * datum.cartan[i][j]
                              for j in range(datum.rank))
                 for i in range(datum.rank))


def test_criterion_1_basicrel_identity():
    t0 = time.monotonic()
    cases = 0
    for datum in (A1, A2):
        for algebra, coeffs in ((P1, [(0,), (1,), (2,)]),
                                (P2, [(0, 0), (1, 0), (2, 0), (1, 1)])):
            o = get_oracle(datum, algebra)
            for alpha in range(len(datum.pos_roots)):
                for a in coeffs:
                    for b in coeffs:
                        for s in range(1, 4):
                            for r in range(1, s + 1):
                                rep = verify_identity(o, "basicrel", {
                                    "alpha": alpha, "a": a, "b": b,
                                    "r": r, "s": s})
                                assert rep["pass"], rep
                                cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"CRITERION 1: PASS ({cases} cases, {elapsed:.1f}s)")


def test_criterion_2_commutation_identities():
    from hyperweyl.cli import SweepLimits, identity_cases
    t0 = time.monotonic()
    lim = SweepLimits(rmax=3, smax=3, kmax=3, lmax=3, adeg=3)
    cases = 0
    for datum in (A1, A2):
        o = get_oracle(datum, P1)
        for which in ("commutrels1", "commutrels2", "commutrels3",
                      "commutrels4", "commutrels5"):
            for params in identity_cases(o, which, lim):
                rep = verify_identity(o, which, params)
                assert rep["pass"], rep
                cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"CRITERION 2: PASS ({cases} cases, {elapsed:.1f}s)")


def test_criterion_3_series_power_reduction():
    t0 = time.monotonic()
    cases = 0
    for algebra, a in ((P1, (1,)), (P2, (1, 1))):
        o = get_oracle(A1, algebra)
        for k in range(1, 4):
            for r in range(1, 4):
                red = lambda_power_reduction(o, 0, a, k, r)
                assert all(isinstance(c, int) for c in red.values())
                assert red[(r * k,)] == k
                rep = verify_identity(o, "a_k_reduction",
                                      {"i": 0, "a": a, "k": k, "r": r})
                assert rep["pass"], rep
                cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"CRITERION 3: PASS ({cases} cases, {elapsed:.1f}s)")


def test_criterion_4_integral_form_roundtrip():
    t0 = time.monotonic()
    checked = 0
    for datum, algebra, seed in ((A1, P2, 20260815), (A2, P1, 20260816)):
        o = get_oracle(datum, algebra)
        rng = random.Random(seed)
        for _ in range(250):
            gens = random_gen_word(o, rng, max_k=3, max_deg=2, max_len=3)
            failure = straighten_roundtrip_failure(o, gens)
            assert failure is None, (gens, failure)
            checked += 1
    assert checked == 500
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"CRITERION 4: PASS ({checked} products, {elapsed:.1f}s)")


def test_criterion_5_weyl_modules_match_weyl_dimension():
    t0 = time.monotonic()
    targets = [(A1, (m,)) for m in range(6)]
    targets += [(A2, lam) for lam in [(1, 0), (0, 1), (1, 1), (2, 0)]]
    runs = 0
    for datum, lam in targets:
        expect = datum.weyl_dimension(lam)
        lo = w0_weight(datum, lam)
        for p in CHARS:
            res = weyl_module_g(datum, lam, char=p)
            assert res.dimension == expect, (lam, p, res.dimension)
            assert res.stabilized
            assert character_check(res, datum)
            for mu in res.character:
                assert datum.dominance_leq(mu, lam)
                assert datum.dominance_leq(lo, mu)
            runs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"CRITERION 5: PASS ({runs} modules, {elapsed:.1f}s)")


# criterion 6 closures are reused by criterion 7, so compute them once
_LOCAL = {}


def local_module(m, p):
    key = (m, p)
    if key not in _LOCAL:
        res = relation_closure(A1, (m,), P1, EvalData(lam=(m,), char=p))
        # brute-force check two slacks past convergence; slack 6 windows on
        # these weights exhaust memory, so deep converged runs get one step
        anchor_slack = min(res.window.slack + 2, max(res.window.slack + 1, 5))
        anchor = relation_closure(
            A1, (m,), P1, EvalData(lam=(m,), char=p),
            window=default_window(A1, (m,), slack=anchor_slack),
            max_slack=anchor_slack)
        _LOCAL[key] = (res, anchor)
    return _LOCAL[key]


def test_criterion_6_graded_local_weyl_modules():
    t0 = time.monotonic()
    derived = {1: 2, 2: 4}
    lines = []
    for m in (1, 2, 3):
        bound = len(spanning_set(A1, (m,), P1))
        for p in CHARS:
            res, anchor = local_module(m, p)
            assert res.stabilized, (m, p)
            assert res.dimension == anchor.dimension, (m, p)
            assert res.character.get((m,)) == 1, (m, p)
            for mu in res.character:
                assert A1.dominance_leq(mu, (m,)), (m, p, mu)
            assert res.dimension <= bound, (m, p)
            if m in derived:
                assert res.dimension == derived[m], (m, p)
            lines.append(f"m={m} p={p}: dim {res.dimension} "
                         f"(2^m {'agrees' if res.dimension == 2 ** m else 'differs'})")
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    for line in lines:
        print(f"  {line}")
    print(f"CRITERION 6: PASS (12 modules, {elapsed:.1f}s)")


def test_criterion_7_high_loop_modes_reduce():
    t0 = time.monotonic()
    checked = 0
    for m in (1, 2, 3):
        allowed = {(lower_dp(0, (j,), 1),) for j in range(m)}
        for p in CHARS:
            _res, anchor = local_module(m, p)
            for s in range(m, m + 3):
                vec = {(lower_dp(0, (s,), 1),): 1}
                residue = anchor.state.reduce(vec)
                assert set(residue) <= allowed, (m, p, s, residue)
                checked += 1
    elapsed = time.monotonic() - t0
    print(f"CRITERION 7: PASS ({checked}/36 memberships, {elapsed:.1f}s)")


def chari_loktev_dimension(datum, lam):
    r = datum.rank
    return math.prod(math.comb(r + 1, i + 1) ** lam[i] for i in range(r))


def test_criterion_8_chari_loktev_dimensions():
    # graded local Weyl modules of sl_{r+1} (x) F[t] have dimension
    # prod_i C(r+1, i)^lam_i in every characteristic (Chari-Loktev 2006,
    # Jakelic-Moura 2007), a formula that does not come from the closure
    t0 = time.monotonic()
    runs = 0
    for m in (1, 2, 3):
        for p in CHARS:
            res, _anchor = local_module(m, p)
            assert res.dimension == chari_loktev_dimension(A1, (m,)), (m, p)
            runs += 1
    for lam in ((1, 0), (0, 1)):
        for p in CHARS:
            res = relation_closure(A2, lam, P1, EvalData(lam=lam, char=p))
            assert res.stabilized, (lam, p)
            assert res.dimension == chari_loktev_dimension(A2, lam), (lam, p)
            runs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"CRITERION 8: PASS ({runs} modules, {elapsed:.1f}s)")


def test_criterion_9_d4_minuscule_weyl_modules():
    # the three minuscule weights of D4, exchanged by triality, each in one
    # characteristic: Weyl modules keep the Weyl character in every
    # characteristic (Jantzen, Representations of Algebraic Groups, II), so
    # the dimension is the Weyl dimension 8, a number not from the closure
    t0 = time.monotonic()
    d4 = build_root_datum("D", 4)
    for lam, p in (((1, 0, 0, 0), 0), ((0, 0, 1, 0), 2), ((0, 0, 0, 1), 3)):
        res = weyl_module_g(d4, lam, char=p, window=default_window(d4, lam, slack=1),
                            max_slack=2)
        assert res.stabilized, (lam, p)
        assert res.dimension == d4.weyl_dimension(lam) == 8, (lam, p, res.dimension)
        assert character_check(res, d4), (lam, p)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"CRITERION 9: PASS (3 modules, {elapsed:.1f}s)")


def test_criterion_10_chari_loktev_rank_two():
    # the rank-2 case of criterion 8's formula: graded local Weyl modules of
    # sl_3 (x) F[t] at lam = (1,1) and (2,0) have dimension C(3,1)^2 = 9 in
    # every characteristic (Chari-Loktev 2006, Jakelic-Moura 2007)
    t0 = time.monotonic()
    runs = 0
    for lam in ((1, 1), (2, 0)):
        for p in CHARS:
            res = relation_closure(A2, lam, P1, EvalData(lam=lam, char=p))
            assert res.stabilized, (lam, p)
            assert res.dimension == chari_loktev_dimension(A2, lam) == 9, (lam, p)
            assert character_check(res, A2), (lam, p)
            runs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"CRITERION 10: PASS ({runs} modules, {elapsed:.1f}s)")
