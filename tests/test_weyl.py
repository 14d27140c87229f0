"""Highest-weight quotient engine: windows, relations, dimensions, characters."""
import hashlib
from fractions import Fraction

import pytest

from hyperweyl.coeffalg import CoeffAlgebra, TRIVIAL
from hyperweyl.hyper import (
    E_DP,
    F_DP,
    H_BINOM,
    cartan_binom,
    collect,
    expand_gen,
    expand_monomial,
    lower_dp,
    monomial_weight_drop,
    quotient_drop_raising,
    raise_dp,
)
from hyperweyl.oracle import CARTAN, RAISE, Oracle, OracleElt, get_oracle
from hyperweyl.rootdata import build_root_datum
from hyperweyl.scalars import vec_add_scaled
from hyperweyl.weyl import (
    ClosureState,
    EvalData,
    Window,
    WeylModuleResult,
    _Phase1,
    _lowering_monomials,
    apply_relations,
    character_check,
    default_window,
    evaluation_table,
    relation_closure,
    result_to_json,
    spanning_set,
    weyl_module_g,
)

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
D4 = build_root_datum("D", 4)
P1 = CoeffAlgebra("poly", 1)
P2 = CoeffAlgebra("poly", 2)


def graded(lam, char=0):
    return EvalData(lam=lam, char=char)


# -- windows and spanning sets --------------------------------------------------

def test_default_window_values():
    w = default_window(A1, (3,))
    assert w.exp_caps == (2,) and w.drop_cap == (3,) and w.slack == 2
    w = default_window(A2, (1, 1))
    # per-root caps follow the pairing with the coroot, drop cap is 2rho
    assert w.exp_caps == (0, 0, 1)
    assert w.drop_cap == (2, 2)


def test_spanning_set_sizes():
    assert len(spanning_set(A1, (1,), P1)) == 2
    assert len(spanning_set(A1, (0,), P1)) == 1
    assert len(spanning_set(A1, (2,), P1)) == 6
    assert len(spanning_set(A2, (1, 1), TRIVIAL)) == 14


def test_spanning_set_contains_empty_and_is_sorted():
    mons = spanning_set(A1, (2,), P1)
    assert () in mons
    assert mons == sorted(mons)


def test_spanning_set_rejects_bad_input():
    with pytest.raises(ValueError):
        spanning_set(A1, (-1,), P1)
    with pytest.raises(ValueError):
        spanning_set(A1, (1,), CoeffAlgebra("laurent", 1))


def test_window_rejects_negative_slack():
    with pytest.raises(ValueError, match="slack must be >= 0"):
        relation_closure(A1, (2,), P1, window=Window((1,), (2,), -1))


@pytest.mark.parametrize("caps, drop", [
    ((1,), (-1,)),          # negative drop cap
    ((2,), (3, -2)),
    ((-2,), (2,)),          # exponent cap below -1
    ((0, -3, 0), (1, 1)),
])
def test_window_rejects_bad_caps(caps, drop):
    datum, lam = (A2, (1, 0)) if len(caps) == 3 else (A1, (2,))
    with pytest.raises(ValueError, match="cap"):
        spanning_set(datum, lam, P1, Window(caps, drop))


def test_window_allows_exponent_cap_minus_one():
    # a root with pairing 0 gets cap -1: no coefficient at all
    assert default_window(A2, (1, 0)).exp_caps == (0, -1, 0)


@pytest.mark.parametrize("window", [Window((1, 1), (2,)), Window((1,), (2, 2)),
                                    Window((), (2,))])
def test_closure_rejects_window_of_wrong_length(window):
    with pytest.raises(ValueError, match="entries"):
        relation_closure(A1, (2,), P1, window=window)


@pytest.mark.parametrize("window", [Window((0, 0, 1), (2, 2, 5)), Window((0, 0, 1, 7), (2, 2))])
def test_spanning_set_rejects_window_of_wrong_length(window):
    with pytest.raises(ValueError, match="entries"):
        spanning_set(A2, (1, 1), P1, window)


def test_narrowed_window_is_rejected_and_widened_window_is_kept():
    # slack widens only the extension window, so a base below the default
    # loses spanning monomials: this one gave dimension 6, called stabilized
    with pytest.raises(ValueError, match=r"drop cap \(2, 1\) narrower than the default \(2, 2\)"):
        weyl_module_g(A2, (1, 1), window=Window((0, 0, 1), (2, 1)))
    with pytest.raises(ValueError, match=r"exponent caps \(0, 0, 0\) narrower"):
        spanning_set(A2, (1, 1), TRIVIAL, Window((0, 0, 0), (2, 2)))
    r = weyl_module_g(A2, (1, 1), window=Window((1, 1, 2), (3, 3)))
    assert (r.dimension, r.stabilized) == (8, True)


@pytest.mark.parametrize("datum, lam, nvars, slack, digest", [
    (A2, (1, 1), 1, 2, "d4ebb297e4f1ca41d992d3bb6951516d20f1477c60ddef744c654373ebc5886e"),
    (A1, (2,), 2, 1, "6847c391b51f932bea3efd077d7712161effbe318ba353f35a48b8b742d5d215"),
    (build_root_datum("D", 4), (1, 0, 0, 0), 0, 1,
     "958de3a78f52bec09d19e0c0bd889107e58a0a31267ee74fd306af5309c8f4f8"),
])
def test_extension_window_keeps_its_order(datum, lam, nvars, slack, digest):
    # the enumeration order fixes the order rows enter the row spaces in
    w = default_window(datum, lam)
    mons = _lowering_monomials(get_oracle(datum, CoeffAlgebra("poly", nvars)),
                               tuple(c + slack for c in w.exp_caps),
                               tuple(c + slack for c in w.drop_cap))
    assert hashlib.sha256(repr(mons).encode()).hexdigest() == digest


def test_closure_rejects_max_slack_below_slack():
    w = default_window(A1, (1,), slack=3)
    with pytest.raises(ValueError, match="max_slack"):
        relation_closure(A1, (1,), P1, window=w, max_slack=2)
    assert relation_closure(A1, (1,), P1, window=w, max_slack=3).dimension == 2


def test_max_slack_equal_to_window_slack_runs_one_pass():
    # the slack 1 and slack 2 passes disagree here (dimensions 11 and 10), so
    # a pass above max_slack would show up as a deeper window
    w = default_window(A1, (3,), slack=1)
    r = relation_closure(A1, (3,), P1, EvalData(lam=(3,), char=3), window=w, max_slack=1)
    assert r.window.slack == 1 and r.stabilized is False


def test_closure_rejects_a_non_int_max_slack():
    # a max_slack of 2.5 would let the probe pass run at slack 3, above it
    with pytest.raises(ValueError, match=r"max_slack 2\.5 is not an int"):
        relation_closure(A1, (2,), P1, max_slack=2.5)


def test_stabilized_needs_the_whole_character_to_agree(monkeypatch):
    # the first two passes agree on the dimension but not on the character,
    # so the first pass must not be reported as stabilized
    first, later = {(1,): 1, (-1,): 1}, {(0,): 2}
    passes = []

    def fake(self, datum, lam):
        passes.append(self)
        return 2, (first if len(passes) == 1 else later)

    monkeypatch.setattr(ClosureState, "dimension_and_character", fake)
    w = default_window(A1, (1,), slack=1)
    r = relation_closure(A1, (1,), P1, window=w, max_slack=3)
    assert (r.window.slack, r.stabilized, r.character) == (2, True, later)
    passes.clear()
    r = relation_closure(A1, (1,), P1, window=w, max_slack=2)
    assert (r.window.slack, r.stabilized, r.character) == (2, False, later)


# -- eval data ----------------------------------------------------------------------

def test_eval_data_validation():
    ev = EvalData(lam=(2,), c={(0, (1,), 2): 7})
    ev.validate(A1, P1)
    with pytest.raises(ValueError):
        EvalData(lam=(1,), c={(0, (1,), 2): 1}).validate(A1, P1)  # order above pairing
    with pytest.raises(ValueError):
        EvalData(lam=(1,), c={(0, (0,), 1): 1}).validate(A1, P1)  # unit coefficient
    with pytest.raises(ValueError):
        EvalData(lam=(1,), c={(1, (1,), 1): 1}).validate(A1, P1)  # node out of range
    with pytest.raises(ValueError):
        EvalData(lam=(1,), char=6)


@pytest.mark.parametrize("val", [Fraction(1, 2), 1.5, "3"])
def test_eval_data_rejects_non_int_scalars(val):
    # these ended in NotInZFormError or a bare TypeError deep inside phase 1
    with pytest.raises(ValueError, match=r"at \(0, \(1,\), 1\) is not an int"):
        relation_closure(A1, (2,), P1, EvalData(lam=(2,), c={(0, (1,), 1): val}))


def test_eval_data_rejects_a_non_int_order():
    # an order of 1.5 is inside 1..2, but no series coefficient reads it
    with pytest.raises(ValueError, match=r"order 1\.5 at \(0, \(1,\), 1\.5\) must be ints"):
        relation_closure(A1, (2,), P1, EvalData(lam=(2,), c={(0, (1,), 1.5): 3}))


def test_eval_data_rejects_a_non_int_node():
    # a node of 0.5 is inside the node range, but cannot index the weight
    with pytest.raises(ValueError, match=r"node 0\.5 and order 1 at \(0\.5, \(1,\), 1\)"):
        relation_closure(A1, (2,), P1, EvalData(lam=(2,), c={(0.5, (1,), 1): 3}))


def test_eval_data_names():
    assert EvalData(lam=(1,)).name == "graded"
    assert EvalData(lam=(1,), c={(0, (1,), 1): 1}).name == "table"


# -- apply_relations -------------------------------------------------------------

def test_apply_relations_raising_kills_highest_weight():
    o = get_oracle(A1, P1)
    out = apply_relations(o, (lower_dp(0, (0,), 1),), raise_dp(0, (1,), 1), graded((1,)))
    assert out == {}


def test_apply_relations_cartan_scalar():
    # e f w = h w = lam(h) w: the Cartan scalar arises from [e, f] = h
    o = get_oracle(A1, P1)
    f, e = (lower_dp(0, (0,), 1),), raise_dp(0, (0,), 1)
    for lam in (1, 4):
        assert apply_relations(o, f, e, graded((lam,))) == {(): lam}


def test_apply_relations_ef_squared_identity():
    # e f^(2) w = (lam(h)-1) f w: an identity, not a relation
    o = get_oracle(A1, P1)
    out = apply_relations(o, (lower_dp(0, (0,), 2),), raise_dp(0, (0,), 1), graded((2,)))
    assert out == {(lower_dp(0, (0,), 1),): 1}


def test_apply_relations_cartan_shift_through_lowering():
    # e^(2) f^(2) w = binom(h, 2) w: the Cartan binomial is shifted past f
    o = get_oracle(A1, P1)
    f2, e2 = (lower_dp(0, (0,), 2),), raise_dp(0, (0,), 2)
    for lam, want in ((2, 1), (3, 3), (5, 10)):
        assert apply_relations(o, f2, e2, graded((lam,))) == {(): want}


def test_apply_relations_annihilator_only_rightmost():
    # f1^(2) f2 w != 0 in the A2 adjoint even though f1^(2) w = 0
    o = get_oracle(A2, TRIVIAL)
    ev = graded((1, 1))
    m = (lower_dp(0, (), 2), lower_dp(1, (), 1))
    out = apply_relations(o, m, raise_dp(0, (), 1), ev)
    assert out == {(lower_dp(0, (), 1), lower_dp(1, (), 1)): 1}, \
        "mid-monomial lowering power must not annihilate"
    out = apply_relations(o, m, raise_dp(1, (), 1), ev)
    assert out == {}, "rightmost over-cap lowering power annihilates"


def test_apply_relations_rejects_non_raising_gensyms():
    o = get_oracle(A1, P1)
    for g in (cartan_binom(0, 1, (0,)), lower_dp(0, (0,), 1)):
        with pytest.raises(ValueError, match="takes raising powers"):
            apply_relations(o, (), g, graded((1,)))


@pytest.mark.parametrize("datum, lam", [(A1, (1,)), (A2, (1, 1))])
def test_apply_relations_rejects_bad_root_indices(datum, lam):
    # checked when a chain is first built: without it an empty v gave {} and
    # v = f_alpha1 a KeyError from the bracket table
    o, unit = get_oracle(datum, P1), P1.unit()
    top = len(datum.pos_roots) - 1
    for bad in (-1, top + 1):
        for v in ((), (lower_dp(0, unit, 1),)):
            with pytest.raises(ValueError, match=f"root index {bad} is outside 0..{top}$"):
                apply_relations(o, v, raise_dp(bad, unit, 1), graded(lam))


def evaluate_on_highest(o, ev, m):
    """Value of a collected basis monomial on w: (lowering monomial, scalar) or None.

    The collect-then-evaluate reference for `apply_relations`.  Factors act
    right to left: raising factors annihilate, Cartan factors give scalars,
    and a rightmost unit-coefficient lowering power beyond the weight pairing
    annihilates.  Lowering factors that are not rightmost never drop.
    """
    scalar = 1
    fpart = []
    for g in m:
        kind, idx, exps, k = g
        if kind == F_DP:
            fpart.append(g)
        elif kind == E_DP:
            return None
        elif kind == H_BINOM:
            scalar *= ev.chi_binom(idx, k)
        else:
            scalar *= ev.chi_series(idx, exps, k)
        if not scalar:
            return None
    fmon = tuple(fpart)
    if fmon:
        _kind, idx, exps, k = fmon[-1]
        if exps == o.algebra.unit() and k > o.datum.pairing(ev.lam, idx):
            return None
    return fmon, scalar


def shortcut_tables(lam, alg):
    """Three eval tables for lam: a point evaluation with nonzero series
    scalars (one variable) or a table on each variable (two), an
    inconsistent table, and the graded case."""
    nodes = [i for i, li in enumerate(lam) if li]
    if alg.nvars == 1:
        points = evaluation_table(lam, [list(range(2, 2 + li)) for li in lam], 8)
        bad = {(i, (s,), 1): v for i in nodes for s, v in ((1, 3), (2, 5))}
    else:
        points = {(i, b, r): 2 * r + sum(b) for i in nodes for r in range(1, lam[i] + 1)
                  for b in ((1, 0), (0, 1), (1, 1))}
        bad = {(i, b, 1): v for i in nodes for b, v in (((1, 0), 3), ((0, 2), 5))}
    return points, bad, {}


def check_raising_shortcuts(datum, lam, alg):
    # phase 1 straightens modulo the left ideal of raising letters, chains
    # each raising power from the one below it, evaluates without collecting
    # the whole product, and skips E(i,b)^(rho) on targets whose drop in
    # coordinate i is below rho; all of it must match collect-then-evaluate
    # for every table, in chars 0 and 5.  The oracle is fresh, so the first
    # table meets each chain cold and the later ones reuse it
    o = Oracle(datum, alg)
    evs = [EvalData(lam=lam, char=p, c=c) for c in shortcut_tables(lam, alg) for p in (0, 5)]
    memos = [_Phase1(o, ev) for ev in evs]
    base = default_window(datum, lam)
    window = Window(tuple(c + 1 for c in base.exp_caps),
                    tuple(c + 1 for c in base.drop_cap))
    mons = spanning_set(datum, lam, alg, window)
    # rho descending, so a chain is first asked for its longest power
    gens = [raise_dp(i, b, rho) for i in range(datum.rank)
            for b in sorted(alg.monomials_up_to_deg(3)) for rho in range(3, 0, -1)]
    pruned = 0
    for v in mons:
        drop = monomial_weight_drop(o, v)
        for g in gens:
            prod = expand_gen(o, g) * expand_monomial(o, v)
            full = collect(o, prod)
            kept = OracleElt(o, {w: c for w, c in prod.terms.items()
                                 if not w or o.letter_fields(w[-1])[0] != RAISE}, prod.den)
            assert o.mul_mod_raising(expand_gen(o, g), expand_monomial(o, v)) == kept
            assert collect(o, kept) == quotient_drop_raising(full)
            for ev, memo in zip(evs, memos):
                on_w = {}
                for m, c in full.items():
                    got = evaluate_on_highest(o, ev, m)
                    if got is not None:
                        vec_add_scaled(on_w, {got[0]: 1}, c * got[1])
                assert apply_relations(o, v, g, ev, memo) == on_w, (g, v, ev)
                if not ev.char:  # a throwaway memo gives the same answer
                    assert apply_relations(o, v, g, ev) == on_w, (g, v, ev)
                if g[3] > drop[g[1]]:
                    assert on_w == {}, (g, v)
            pruned += g[3] > drop[g[1]]
    assert pruned


@pytest.mark.parametrize("datum,lam", [(A1, (2,)), (A2, (1, 1))])
def test_raising_shortcuts_are_exact(datum, lam):
    check_raising_shortcuts(datum, lam, P1)


def test_raising_shortcuts_are_exact_over_two_variables():
    check_raising_shortcuts(A1, (1,), P2)


@pytest.mark.parametrize("datum,lam,alg", [(A1, (3,), P1), (A1, (2,), P2), (A2, (1, 1), P1)],
                         ids=["A1-3", "A1-2-poly2", "A2-11"])
def test_graded_chains_keep_exactly_the_unit_tails(datum, lam, alg):
    # a graded chain is the table chain for the same (i, b, v) cut to the
    # terms whose Cartan tail has only unit letters h_j ⊗ 1, term for term,
    # over the slack-1 window; both kinds live side by side on one oracle
    o = Oracle(datum, alg)
    table = _Phase1(o, EvalData(lam=lam, c={(0, (1,) + (0,) * (alg.nvars - 1), 1): 1}))
    cut = _Phase1(o, graded(lam))
    units = {o.letter(CARTAN, j, alg.unit()) for j in range(datum.rank)}
    base = default_window(datum, lam)
    window = Window(tuple(c + 1 for c in base.exp_caps),
                    tuple(c + 1 for c in base.drop_cap))
    dropped = unit_tails = 0
    for v in spanning_set(datum, lam, alg, window):
        for i in range(datum.rank):
            for b in sorted(alg.monomials_up_to_deg(3)):
                for rho in range(4):
                    terms, den = table.raising_product(i, b, rho, v)
                    kept = {key: c for key, c in terms.items() if units.issuperset(key[1])}
                    assert cut.raising_product(i, b, rho, v) == (kept, den), (i, b, rho, v)
                    dropped += len(terms) - len(kept)
                    unit_tails += sum(1 for _head, tail in kept if tail)
    assert dropped and unit_tails
    assert {key[3] for key in o._chains} == {False, True}


# -- graded local closures -----------------------------------------------------------

def test_local_weyl_a1_dim_and_character():
    r = relation_closure(A1, (1,), P1)
    assert r.dimension == 2 and r.stabilized
    assert r.character == {(1,): 1, (-1,): 1}
    r = relation_closure(A1, (2,), P1)
    assert r.dimension == 4 and r.stabilized
    assert r.character == {(2,): 1, (0,): 2, (-2,): 1}


def test_local_weyl_trivial_weight():
    r = relation_closure(A1, (0,), P1)
    assert r.dimension == 1 and r.character == {(0,): 1} and r.stabilized


def test_local_weyl_char_p_small():
    for p in (2, 3, 5):
        r = relation_closure(A1, (2,), P1, graded((2,), char=p))
        assert r.dimension == 4 and r.stabilized, (p, r.dimension)


def test_result_json_schema():
    r = relation_closure(A1, (2,), P1)
    j = result_to_json(r)
    assert j["type"] == "A1" and j["lambda"] == [2] and j["coeff"] == "poly:1"
    assert j["char"] == 0 and j["eval"] == "graded"
    assert j["dimension"] == 4 and j["stabilized"] is True
    assert j["character"][0] == {"weight": [2], "mult": 1}
    assert j["window"]["slack"] >= 2
    assert sum(e["mult"] for e in j["character"]) == j["dimension"]


# -- the closure's row spaces and memos ------------------------------------------------

def deepening_a1_char3():
    # the slack 1, 2 and 3 passes disagree, so all three run
    w = default_window(A1, (3,), slack=1)
    return relation_closure(A1, (3,), P1, graded((3,), char=3), window=w, max_slack=3)


def row_space_digest(res):
    # pivots in insertion order, each row's entries sorted by label: the order
    # of the keys inside a row dict is not part of the answer
    spaces = {dr: [(pivot, sorted(row.items())) for pivot, row in sp.rows.items()]
              for dr, sp in sorted(res.state.spaces.items())}
    return hashlib.sha256(repr(spaces).encode()).hexdigest()


# digests of every relation row, pivots in insertion order, recorded from the
# unbucketed phase-2 loop that paired each core row with every window monomial
# and from the phase 1 that collected each whole raising product
@pytest.mark.parametrize("run,digest", [
    (deepening_a1_char3,
     "da273a8c666158b508fd9feb48c7e5235d873bbf78ca3e637644c527a6581ad1"),
    (lambda: relation_closure(A2, (1, 0), P1),
     "25d558f22ca4e46464c0df767790a447226638706f915daee91ece9649f2445b"),
    (lambda: relation_closure(A1, (2,), P1, EvalData(
        lam=(2,), char=5, c=evaluation_table((2,), [[1, 2]], 64))),
     "8684d5fea3ff4991d0796e4bc0009ddf19022ea364637d065b19ac2b5ff22bfa"),
    (lambda: weyl_module_g(A2, (1, 1), char=3),
     "b095e19e3f97e3f3786aacee845b6d886a62e0348825d424d5182c271c713c06"),
    # the seed bound binds: D4's highest root has a coefficient 2
    (lambda: weyl_module_g(D4, (1, 0, 0, 0), window=default_window(D4, (1, 0, 0, 0), slack=1),
                           max_slack=2),
     "688b44799bdd0005b052c6dce5dc489b30ea9da46e46a988f0cb0fe2d77ed1a1"),
], ids=["A1-3-char3", "A2-10", "A1-2-points-char5", "g-A2-11-char3", "g-D4-1000"])
def test_row_spaces_match_the_all_pairs_loop(run, digest):
    assert row_space_digest(run()) == digest


_ROW_SPACE_CASES = test_row_spaces_match_the_all_pairs_loop.pytestmark[0]


@pytest.mark.parametrize(*_ROW_SPACE_CASES.args, **_ROW_SPACE_CASES.kwargs)
def test_row_spaces_do_not_depend_on_earlier_closures(monkeypatch, run, digest):
    # the oracle keeps chains, Cartan-word collects and left products across
    # closures: the same rows after other closures on it, and on a fresh one
    relation_closure(A1, (3,), P1, graded((3,), char=5))
    relation_closure(A1, (2,), P1, EvalData(lam=(2,), c=evaluation_table((2,), [[3, 7]], 64)))
    assert row_space_digest(run()) == digest
    monkeypatch.setattr("hyperweyl.oracle._ORACLE_CACHE", {})
    assert row_space_digest(run()) == digest


def test_a_second_closure_adds_no_oracle_products(monkeypatch):
    # chains and Cartan-word collects depend on the oracle alone, and a chain
    # on whether the table is empty: a table closure at the same weight with
    # another table, or a graded one in another characteristic, finds every
    # one it needs already built, while a graded closure after a table
    # closure builds its own chains, which keep only the unit Cartan tails
    monkeypatch.setattr("hyperweyl.oracle._ORACLE_CACHE", {})
    o = get_oracle(A1, P1)

    def built(ev):
        """The chain keys and the number of Cartan-word collects a closure adds."""
        before = set(o._chains), len(o._cartan_collects)
        relation_closure(A1, (2,), P1, ev)
        return set(o._chains) - before[0], len(o._cartan_collects) - before[1]

    new, _ = built(EvalData(lam=(2,), c=evaluation_table((2,), [[1, 2]], 64)))
    assert new and not any(key[3] for key in new)
    assert built(EvalData(lam=(2,), char=5, c=evaluation_table((2,), [[3, 7]], 64))) == (set(), 0)
    new, _ = built(graded((2,), char=5))
    assert new and all(key[3] for key in new)
    assert built(graded((2,), char=3)) == (set(), 0)


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("datum,lam", [(A1, (2,)), (A1, (3,)), (A2, (1, 0)), (A2, (1, 1))],
                         ids=["A1-2", "A1-3", "A2-10", "A2-11"])
def test_a_zero_table_matches_the_graded_path(datum, lam, char):
    # a table of one explicit zero takes the table path, whose chains keep
    # every Cartan tail; the graded path drops the tails that value 0 on w
    zero = EvalData(lam=lam, char=char, c={(0, (1,), 1): 0})
    on_table = relation_closure(datum, lam, P1, zero)
    on_graded = relation_closure(datum, lam, P1, graded(lam, char))
    assert on_table.eval_name == "table" and on_graded.eval_name == "graded"
    assert on_table.dimension == on_graded.dimension
    assert on_table.character == on_graded.character
    assert row_space_digest(on_table) == row_space_digest(on_graded)


def test_a_pass_enumerates_only_its_left_factors(monkeypatch):
    # one enumeration of the base window, one of each pass's left factors at
    # the base drop cap, and the extension window only when ext_set is read
    calls = []

    def counting(o, caps, drop_cap):
        calls.append((tuple(caps), tuple(drop_cap)))
        return _lowering_monomials(o, caps, drop_cap)

    monkeypatch.setattr("hyperweyl.weyl._lowering_monomials", counting)
    r = deepening_a1_char3()
    w = default_window(A1, (3,))
    ext_caps = [tuple(c + s for c in w.exp_caps) for s in (1, 2, 3)]
    assert calls == [(w.exp_caps, w.drop_cap)] + [(c, w.drop_cap) for c in ext_caps]
    ext_drop = tuple(d + 3 for d in w.drop_cap)
    assert len(r.state.ext_set) == len(r.state.ext_set) == 924
    assert calls[4:] == [(ext_caps[2], ext_drop)]


def test_phase_memos_live_for_the_whole_closure(monkeypatch):
    seen = []

    def counting(o, v, g, *args):
        seen.append((g, v))
        return apply_relations(o, v, g, *args)

    monkeypatch.setattr("hyperweyl.weyl.apply_relations", counting)
    r = deepening_a1_char3()
    assert r.window.slack == 3 and seen
    assert len(seen) == len(set(seen)), "a (generator, monomial) pair ran twice"


# -- Weyl modules of the simple algebra ----------------------------------------------

def test_weyl_module_g_matches_weyl_dimension():
    for lam in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        r = weyl_module_g(A2, lam)
        assert r.dimension == A2.weyl_dimension(lam), lam
        assert r.stabilized and character_check(r, A2)
    for m in range(4):
        r = weyl_module_g(A1, (m,))
        assert r.dimension == m + 1 and r.stabilized


def test_weyl_module_g_char_p():
    for p in (2, 3):
        r = weyl_module_g(A2, (1, 1), char=p)
        assert r.dimension == 8 and r.stabilized and character_check(r, A2)
    r = weyl_module_g(A1, (3,), char=2)
    assert r.dimension == 4
    assert r.character == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}


def test_adjoint_character():
    r = weyl_module_g(A2, (1, 1))
    assert r.character[(1, 1)] == 1
    assert r.character[(0, 0)] == 2
    assert all(mult == 1 for mu, mult in r.character.items() if mu != (0, 0))


# -- result invariants -----------------------------------------------------------------

def test_invariants_dim_bound_and_dominance():
    for lam, alg in [((2,), P1), ((3,), P1)]:
        r = relation_closure(A1, lam, alg)
        assert r.dimension <= len(spanning_set(A1, lam, alg))
        assert r.character.get(lam) == 1
        assert all(A1.dominance_leq(mu, lam) for mu in r.character)
        assert sum(r.character.values()) == r.dimension


def test_dimension_nonincreasing_in_slack():
    dims = []
    for slack in (0, 1, 2, 3):
        w = default_window(A1, (2,), slack=slack)
        r = relation_closure(A1, (2,), P1, window=w, max_slack=slack)
        dims.append(r.dimension)
    assert dims == sorted(dims, reverse=True)
    assert dims[-1] == 4


@pytest.mark.parametrize("call", [
    lambda: default_window(A2, (1,)),
    lambda: spanning_set(A2, (1,), P1),
    lambda: relation_closure(A2, (1,), P1),
    lambda: weyl_module_g(A2, (1,)),
], ids=["default_window", "spanning_set", "relation_closure", "weyl_module_g"])
def test_short_weight_is_a_value_error(call):
    # the window's pairings read past the end of a short weight
    with pytest.raises(ValueError, match=r"\(1,\) is not an integral weight of A2"):
        call()


def test_eval_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        relation_closure(A1, (2,), P1, graded((1,)))


# -- evaluation tables ------------------------------------------------------------------

def test_point_evaluation_two_points():
    c = evaluation_table((2,), [[1, 2]], 64)
    r = relation_closure(A1, (2,), P1, EvalData(lam=(2,), c=c))
    assert r.dimension == 4 and r.stabilized
    assert r.character == {(2,): 1, (0,): 2, (-2,): 1}


def test_point_evaluation_single_point():
    c = evaluation_table((1,), [[5]], 64)
    r = relation_closure(A1, (1,), P1, EvalData(lam=(1,), c=c))
    assert r.dimension == 2 and r.character == {(1,): 1, (-1,): 1}


def test_evaluation_table_shape_errors():
    with pytest.raises(ValueError):
        evaluation_table((2,), [[1]], 8)
    # a missing point group made its node act as evaluation at 0
    for lam, points in (((1, 1), [[2]]), ((1, 1), [[2], [3], [4]]), ((1,), [[2], [3]])):
        n = len(lam)
        with pytest.raises(ValueError, match=f"{n} nodes need {n} point groups, got {len(points)}"):
            evaluation_table(lam, points, 8)


@pytest.mark.parametrize("degree", [0, -1])
def test_evaluation_table_rejects_degree_below_one(degree):
    # an empty table silently made the closure compute the graded module
    with pytest.raises(ValueError, match="degree must be >= 1"):
        evaluation_table((2,), [[1, 2]], degree)


def test_inconsistent_table_shrinks_quietly():
    bad = EvalData(lam=(2,), c={(0, (1,), 1): 3, (0, (2,), 1): 5})
    r = relation_closure(A1, (2,), P1, bad)
    assert r.dimension < 4  # reported smaller, no exception


# -- reduction interface ------------------------------------------------------------------

def test_reduction_into_low_exponent_span():
    m = 2
    w = default_window(A1, (m,), slack=4)
    r = relation_closure(A1, (m,), P1, graded((m,)), window=w,
                         max_slack=w.slack)
    allowed = {(lower_dp(0, (j,), 1),) for j in range(m)}
    for s in range(m, m + 3):
        red = r.state.reduce({(lower_dp(0, (s,), 1),): 1})
        assert set(red) <= allowed, (s, red)


def test_reduce_rejects_mixed_weight_vector():
    r = relation_closure(A1, (1,), P1)
    vec = {(lower_dp(0, (0,), 1),): 1, (lower_dp(0, (0,), 2),): 1}
    with pytest.raises(ValueError):
        r.state.reduce(vec)


def test_character_check_rejects_asymmetric():
    r = WeylModuleResult(type_string="A1", lam=(2,), coeff="poly:1", char=0,
                         eval_name="graded", dimension=2,
                         character={(2,): 1, (0,): 1}, stabilized=True,
                         window=Window((1,), (2,), 2), state=None)
    assert not character_check(r, A1)
