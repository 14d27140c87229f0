"""Finite-dimensional highest-weight quotients for current-algebra hyperalgebras.

A module is presented by a highest-weight vector w killed by all raising
divided powers, scaled by the Cartan data (binomials through the weight,
series coefficients through a user table), and killed by (x^-_beta ⊗ 1)^(s)
for s beyond the weight pairing.  The engine spans the quotient by pure
lowering monomials inside a finite window, saturates the relation ideal by
exact linear algebra, and reads off dimension and character.  Raising powers
are only applied where their result can lie at or below the weight, and each
product is straightened modulo the left ideal U·n+ that kills w, dropping a
word as soon as it ends in a raising letter (such normal words span U·n+).

All vectors here are dicts mapping pure-lowering monomials to scalars.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .coeffalg import TRIVIAL
from .hyper import (
    E_DP,
    F_DP,
    H_BINOM,
    collect,
    expand_gen,
    expand_monomial,
    lower_dp,
    monomial_weight_drop,
    raise_dp,
)
from .oracle import get_oracle
from .scalars import RowSpace, is_prime, vec_add_scaled

__all__ = [
    "EvalData",
    "Window",
    "WeylModuleResult",
    "apply_relations",
    "character_check",
    "default_window",
    "evaluation_table",
    "relation_closure",
    "result_to_json",
    "spanning_set",
    "weyl_module_g",
]


@dataclass(frozen=True)
class Window:
    """Per-root coefficient-exponent caps, weight-drop cap, and extension slack."""

    exp_caps: tuple
    drop_cap: tuple
    slack: int = 2

    def __post_init__(self):
        if self.slack < 0:
            raise ValueError("slack must be >= 0")
        if any(c < 0 for c in self.drop_cap):
            raise ValueError(f"drop cap must be >= 0 in every coordinate, got {self.drop_cap}")
        # -1 is the cap of a root whose pairing with the weight is 0
        if any(c < -1 for c in self.exp_caps):
            raise ValueError(f"exponent caps must be >= -1, got {self.exp_caps}")


def _checked_window(datum, lam, algebra, window):
    """The window, or the default one for lam; ValueError unless lam is
    dominant, the coefficients are polynomial, and the window has one
    exponent cap per positive root and one drop cap per simple root."""
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    if algebra.kind != "poly":
        raise ValueError("windows require polynomial coefficients")
    if window is None:
        return default_window(datum, lam)
    if len(window.exp_caps) != len(datum.pos_roots):
        raise ValueError(f"exponent caps need {len(datum.pos_roots)} entries, "
                         f"got {len(window.exp_caps)}")
    if len(window.drop_cap) != datum.rank:
        raise ValueError(f"drop cap needs {datum.rank} entries, got {len(window.drop_cap)}")
    return window


def default_window(datum, lam, slack=2):
    caps = tuple(datum.pairing(lam, idx) - 1 for idx in range(len(datum.pos_roots)))
    drop = datum.lambda_minus_w0_lambda(lam)
    return Window(caps, drop, slack)


@dataclass
class EvalData:
    """Highest weight, field characteristic, and the Cartan-series scalar table.

    The table maps (node, coefficient basis element, order r) to the scalar of
    the order-r series coefficient on the highest-weight vector; orders above
    the weight pairing act as zero and may not appear in the table.  An empty
    table is the graded case.
    """

    lam: tuple
    char: int = 0
    c: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lam = tuple(self.lam)
        if self.char != 0 and not is_prime(self.char):
            raise ValueError(f"characteristic must be 0 or prime, got {self.char}")

    @property
    def name(self):
        """The table's name in results: "graded" when it is empty, else "table"."""
        return "table" if self.c else "graded"

    def validate(self, datum, algebra):
        if len(self.lam) != datum.rank or any(x < 0 for x in self.lam):
            raise ValueError("highest weight must be dominant for the given type")
        for (i, exps, r), _val in self.c.items():
            if not 0 <= i < datum.rank:
                raise ValueError(f"node {i} out of range")
            algebra.validate(exps)
            if exps == algebra.unit():
                raise ValueError("unit-coefficient series scalars are fixed by the weight")
            if not 1 <= r <= self.lam[i]:
                raise ValueError(
                    f"series order {r} outside 1..{self.lam[i]} at node {i}")

    def chi_series(self, i, exps, r):
        if r > self.lam[i]:
            return 0
        return self.c.get((i, exps, r), 0)

    def chi_binom(self, i, k):
        return math.comb(self.lam[i], k)


# -- evaluation on the highest-weight vector -----------------------------------

def _evaluate_on_highest(o, ev, m):
    """Value of a collected basis monomial on w: (lowering monomial, scalar) or None.

    Factors act right to left: raising factors annihilate, Cartan factors give
    scalars, and a rightmost unit-coefficient lowering power beyond the weight
    pairing annihilates.  Lowering factors that are not rightmost never drop.
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


def apply_relations(o, v, g, ev):
    """Value on w of g acting on the lowering monomial v, as a sparse vector.

    The product is formed modulo the left ideal U·n+ (`Oracle.mul_mod_raising`):
    normal words with a raising letter are exactly those ending in one, they
    span U·n+ and die on w, so each is dropped as soon as it appears and never
    straightened further.  `collect` never mixes them with the raising-free
    words, so it still certifies every kept coefficient as an integer.
    """
    prod = collect(o, o.mul_mod_raising(expand_gen(o, g), expand_monomial(o, v)))
    out = {}
    for m, c in prod.items():
        got = _evaluate_on_highest(o, ev, m)
        if got is not None:
            fmon, s = got
            vec_add_scaled(out, {fmon: 1}, c * s)
    return out


# -- window enumeration -----------------------------------------------------------

def _lowering_monomials(o, caps, drop_cap):
    """All pure-lowering monomials within the exponent caps and the drop cap."""
    d, A = o.datum, o.algebra
    nroots = len(d.pos_roots)
    out = []

    def at_root(ri, acc, rem):
        if ri == nroots:
            out.append(tuple(acc))
            return
        beta = d.pos_roots[ri]
        opts = sorted(A.monomials_with_exp_le(caps[ri])) if caps[ri] >= 0 else []

        def pick(bi, rem2):
            at_root(ri + 1, acc, rem2)
            for j in range(bi, len(opts)):
                b = opts[j]
                kmax = min(rem2[t] // beta[t] for t in range(len(beta)) if beta[t])
                for k in range(1, kmax + 1):
                    acc.append(lower_dp(ri, b, k))
                    pick(j + 1, tuple(r - k * c for r, c in zip(rem2, beta)))
                    acc.pop()

        pick(0, rem)

    at_root(0, [], tuple(drop_cap))
    return out


def spanning_set(datum, lam, algebra, window=None):
    """Pure-lowering monomials spanning the quotient (the base window)."""
    window = _checked_window(datum, lam, algebra, window)
    o = get_oracle(datum, algebra)
    return sorted(_lowering_monomials(o, window.exp_caps, window.drop_cap))


# -- relation closure ---------------------------------------------------------------

class ClosureState:
    """One closure pass: window contents and the saturated relation row spaces."""

    def __init__(self, oracle, base, ext, spaces):
        self.oracle = oracle
        self.base = base
        self.base_set = frozenset(base)
        self.ext_set = frozenset(ext)
        self.spaces = spaces

    def _drop_of(self, vec):
        drops = {monomial_weight_drop(self.oracle, m) for m in vec}
        if len(drops) != 1:
            raise ValueError("vector is not weight-homogeneous")
        return drops.pop()

    def reduce(self, vec):
        """Reduce a lowering-monomial vector against the relation space."""
        if not vec:
            return {}
        sp = self.spaces.get(self._drop_of(vec))
        return dict(vec) if sp is None else sp.reduce(vec)

    def dimension_and_character(self, datum, lam):
        bcount = {}
        for m in self.base:
            dr = monomial_weight_drop(self.oracle, m)
            bcount[dr] = bcount.get(dr, 0) + 1
        char_map = {}
        dim = 0
        for dr, n in sorted(bcount.items()):
            sp = self.spaces.get(dr)
            cuts = sum(1 for piv in sp.rows if piv in self.base_set) if sp else 0
            mult = n - cuts
            if mult:
                mu = tuple(lam[i] - sum(dr[j] * datum.cartan[i][j] for j in range(datum.rank))
                           for i in range(datum.rank))
                char_map[mu] = char_map.get(mu, 0) + mult
                dim += mult
        return dim, char_map


def _closure_pass(datum, lam, algebra, ev, window, slack):
    o = get_oracle(datum, algebra)
    ext_caps = tuple(c + slack for c in window.exp_caps)
    ext_drop = tuple(c + slack for c in window.drop_cap)
    base = _lowering_monomials(o, window.exp_caps, window.drop_cap)
    ext = _lowering_monomials(o, ext_caps, ext_drop)
    ext_set = set(ext)
    base_set = set(base)

    def new_space():
        return RowSpace(char=ev.char, key=lambda mon: (mon in base_set, mon))

    # seeds: unit-coefficient lowering powers just beyond the weight pairing
    work = []
    for bidx in range(len(datum.pos_roots)):
        lb = datum.pairing(lam, bidx)
        for s in range(lb + 1, lb + slack + 1):
            m = (lower_dp(bidx, algebra.unit(), s),)
            if m in ext_set:
                work.append({m: 1})

    # raising sweep generators along simple roots
    gens = []
    for i in range(datum.rank):
        cap = datum.pairing(lam, i) + slack
        for b in sorted(algebra.monomials_with_exp_le(cap)):
            for rho in range(1, cap + 1):
                gens.append(raise_dp(i, b, rho))

    @functools.cache
    def ev_gm(g, m):
        return apply_relations(o, m, g, ev)

    # phase 1: saturate the seed span under the raising sweep
    core_spaces = {}
    core_rows = []
    while work:
        v = work.pop()
        dr = monomial_weight_drop(o, next(iter(v)))
        sp = core_spaces.get(dr)
        if sp is None:
            sp = RowSpace(char=ev.char)
            core_spaces[dr] = sp
        if not sp.insert(v):
            continue
        core_rows.append((dr, v))
        for g in gens:
            # E(i,b)^(rho) on a vector of drop dr lands above lam unless rho <= dr[i]
            if g[3] > dr[g[1]]:
                continue
            w = {}
            for m, c in v.items():
                vec_add_scaled(w, ev_gm(g, m), c)
            if w and all(mon in ext_set for mon in w):
                work.append(w)

    # phase 2: close under left multiplication by window lowering monomials.
    # Products of lowering monomials stay pure lowering, and the raw collected
    # product is itself a vector that dies on w, so no evaluation happens here;
    # in particular the bare seeds enter through the empty left factor.
    spaces = {}

    @functools.cache
    def left_product(lmon, m):
        return collect(o, expand_monomial(o, lmon) * expand_monomial(o, m))

    # only blocks inside the base drop cap can cut base monomials, and left
    # multiplication never lowers the drop, so deeper rows are dead weight
    for dr, v in core_rows:
        if any(a > cap for a, cap in zip(dr, window.drop_cap)):
            continue
        for lmon in ext:
            ldrop = monomial_weight_drop(o, lmon)
            tot = tuple(a + b for a, b in zip(ldrop, dr))
            if any(t > cap for t, cap in zip(tot, window.drop_cap)):
                continue
            w = {}
            for m, c in v.items():
                vec_add_scaled(w, left_product(lmon, m), c)
            if not w or any(mon not in ext_set for mon in w):
                continue
            sp = spaces.get(tot)
            if sp is None:
                sp = new_space()
                spaces[tot] = sp
            sp.insert(w)

    return ClosureState(o, base, ext, spaces)


@dataclass
class WeylModuleResult:
    type_string: str
    lam: tuple
    coeff: str
    char: int
    eval_name: str
    dimension: int
    character: dict
    stabilized: bool
    window: Window
    state: ClosureState


def result_to_json(r):
    return {
        "type": r.type_string,
        "lambda": list(r.lam),
        "coeff": r.coeff,
        "char": r.char,
        "eval": r.eval_name,
        "dimension": r.dimension,
        "character": [{"weight": list(mu), "mult": r.character[mu]}
                      for mu in sorted(r.character, reverse=True)],
        "stabilized": r.stabilized,
        "window": {
            "exp_caps": list(r.window.exp_caps),
            "drop_cap": list(r.window.drop_cap),
            "slack": r.window.slack,
        },
    }


def relation_closure(datum, lam, algebra, eval_data=None, window=None, max_slack=8):
    """Dimension and character of the windowed highest-weight quotient.

    The pass at the window's slack is confirmed by a pass at slack + 1, and
    the slack grows until two consecutive passes agree on the dimension and
    the whole character, so the default call self-stabilizes.  No pass runs
    above max_slack: with max_slack equal to the window's slack only that one
    pass runs, and the result is not stabilized.
    """
    lam = tuple(lam)
    window = _checked_window(datum, lam, algebra, window)
    if eval_data is None:
        eval_data = EvalData(lam=lam)
    if tuple(eval_data.lam) != lam:
        raise ValueError("eval table weight differs from the module weight")
    eval_data.validate(datum, algebra)
    if max_slack < window.slack:
        raise ValueError(f"max_slack {max_slack} is below the window slack {window.slack}")

    slack = window.slack
    state = _closure_pass(datum, lam, algebra, eval_data, window, slack)
    dim, char_map = state.dimension_and_character(datum, lam)
    stabilized = False
    while slack < max_slack:
        probe = _closure_pass(datum, lam, algebra, eval_data, window, slack + 1)
        dim1, ch1 = probe.dimension_and_character(datum, lam)
        if (dim1, ch1) == (dim, char_map):
            stabilized = True
            break
        slack += 1
        state, dim, char_map = probe, dim1, ch1
    return WeylModuleResult(
        type_string=datum.type_string(),
        lam=lam,
        coeff=algebra.spec_string(),
        char=eval_data.char,
        eval_name=eval_data.name,
        dimension=dim,
        character=char_map,
        stabilized=stabilized,
        window=Window(window.exp_caps, window.drop_cap, slack),
        state=state,
    )


def weyl_module_g(datum, lam, char=0, window=None, **kw):
    """The simple-Lie-algebra Weyl module: trivial coefficient algebra."""
    ev = EvalData(lam=tuple(lam), char=char)
    return relation_closure(datum, lam, TRIVIAL, ev, window=window, **kw)


def evaluation_table(lam, points, degree):
    """Series scalar table for evaluation modules over F[t] at integer points.

    points[i] lists the lam[i] evaluation parameters of node i (repeats
    allowed); entries cover coefficient exponents 1..degree.  The order-r
    scalar at t^s is (-1)^r times the elementary symmetric polynomial e_r of
    the s-th powers of the parameters.  Exponents beyond `degree` fall back
    to the zero default, so pick `degree` well above the window the closure
    will explore.
    """
    c = {}
    for i, pts in enumerate(points):
        if len(pts) != lam[i]:
            raise ValueError(f"node {i} needs {lam[i]} evaluation points, got {len(pts)}")
        n = len(pts)
        for s in range(1, degree + 1):
            pw = [a ** s for a in pts]
            e = [1] + [0] * n
            for x in pw:
                for r in range(n, 0, -1):
                    e[r] += e[r - 1] * x
            for r in range(1, n + 1):
                val = (-1) ** r * e[r]
                if val:
                    c[(i, (s,), r)] = val
    return c


def character_check(result, datum):
    """Character is Weyl-orbit constant and the full orbit stays below the weight."""
    ch = result.character
    lam = result.lam
    for mu, mult in ch.items():
        for nu in datum.weyl_orbit(mu):
            if ch.get(nu, 0) != mult:
                return False
            if not datum.dominance_leq(nu, lam):
                return False
    return True
