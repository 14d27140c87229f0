"""Highest-weight quotient engine: windows, relations, dimensions, characters."""
import pytest

from hyperweyl.coeffalg import CoeffAlgebra, TRIVIAL
from hyperweyl.hyper import (
    cartan_binom,
    collect,
    expand_gen,
    expand_monomial,
    lower_dp,
    monomial_weight_drop,
    oracle_drop_raising,
    quotient_drop_raising,
    raise_dp,
)
from hyperweyl.oracle import get_oracle
from hyperweyl.rootdata import build_root_datum
from hyperweyl.scalars import vec_add_scaled
from hyperweyl.weyl import (
    ClosureState,
    EvalData,
    Window,
    WeylModuleResult,
    _evaluate_on_highest,
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
P1 = CoeffAlgebra("poly", 1)


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
    with pytest.raises(ValueError):
        Window((1,), (2,), -1)


@pytest.mark.parametrize("caps, drop", [
    ((1,), (-1,)),          # negative drop cap
    ((2,), (3, -2)),
    ((-2,), (2,)),          # exponent cap below -1
    ((0, -3, 0), (1, 1)),
])
def test_window_rejects_bad_caps(caps, drop):
    with pytest.raises(ValueError, match="cap"):
        Window(caps, drop)


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


def test_eval_data_names():
    assert EvalData(lam=(1,)).name == "graded"
    assert EvalData(lam=(1,), c={(0, (1,), 1): 1}).name == "table"


# -- apply_relations -------------------------------------------------------------

def test_apply_relations_raising_kills_highest_weight():
    o = get_oracle(A1, P1)
    out = apply_relations(o, (lower_dp(0, (0,), 1),), raise_dp(0, (1,), 1), graded((1,)))
    assert out == {}


def test_apply_relations_cartan_scalar():
    o = get_oracle(A1, P1)
    out = apply_relations(o, (), cartan_binom(0, 1, (0,)), graded((1,)))
    assert out == {(): 1}
    out = apply_relations(o, (), cartan_binom(0, 1, (0,)), graded((4,)))
    assert out == {(): 4}


def test_apply_relations_ef_squared_identity():
    # e f^(2) w = (lam(h)-1) f w: an identity, not a relation
    o = get_oracle(A1, P1)
    out = apply_relations(o, (lower_dp(0, (0,), 2),), raise_dp(0, (0,), 1), graded((2,)))
    assert out == {(lower_dp(0, (0,), 1),): 1}


def test_apply_relations_cartan_shift_through_lowering():
    # h f w = f (h - 2) w in A1
    o = get_oracle(A1, P1)
    out = apply_relations(o, (lower_dp(0, (0,), 1),), cartan_binom(0, 1, (0,)), graded((1,)))
    assert out == {(lower_dp(0, (0,), 1),): -1}


def test_apply_relations_annihilator_only_rightmost():
    # f1^(2) f2 w != 0 in the A2 adjoint even though f1^(2) w = 0
    o = get_oracle(A2, TRIVIAL)
    ev = graded((1, 1))
    m = (lower_dp(0, (), 2), lower_dp(1, (), 1))
    out = apply_relations(o, m, cartan_binom(0, 1, ()), ev)
    assert out, "mid-monomial lowering power must not annihilate"
    out = apply_relations(o, (lower_dp(0, (), 2),), cartan_binom(0, 1, ()), ev)
    assert out == {}, "rightmost over-cap lowering power annihilates"


@pytest.mark.parametrize("datum,lam", [(A1, (2,)), (A2, (1, 1))])
def test_raising_shortcuts_are_exact(datum, lam):
    # phase 1 drops raising words before collect and skips E(i,b)^(rho) on
    # targets whose drop in coordinate i is below rho; both must be exact
    o = get_oracle(datum, P1)
    ev = graded(lam)
    base = default_window(datum, lam)
    window = Window(tuple(c + 1 for c in base.exp_caps),
                    tuple(c + 1 for c in base.drop_cap))
    mons = spanning_set(datum, lam, P1, window)
    gens = [raise_dp(i, b, rho) for i in range(datum.rank)
            for b in sorted(P1.monomials_up_to_deg(3)) for rho in range(1, 4)]
    pruned = 0
    for v in mons:
        drop = monomial_weight_drop(o, v)
        for g in gens:
            prod = expand_gen(o, g) * expand_monomial(o, v)
            full = collect(o, prod)
            assert collect(o, oracle_drop_raising(prod)) == quotient_drop_raising(full)
            on_w = {}
            for m, c in full.items():
                got = _evaluate_on_highest(o, ev, m)
                if got is not None:
                    vec_add_scaled(on_w, {got[0]: 1}, c * got[1])
            assert apply_relations(o, v, g, ev) == on_w, (g, v)
            if g[3] > drop[g[1]]:
                pruned += 1
                assert on_w == {}, (g, v)
    assert pruned


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
