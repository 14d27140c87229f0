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
Each raising power is one letter times the power below it, and is valued on
w word by word: only the Cartan tail of a word is ever collected.  In the
graded case (empty table) the Cartan currents act on w by a ring character
that kills h_i ⊗ b for b != 1, so a word whose tail holds such a letter is
dropped as soon as a fold makes it.

All vectors here are dicts mapping pure-lowering monomials to scalars.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

from .coeffalg import TRIVIAL
from .hyper import (
    E_DP,
    H_BINOM,
    NotInZFormError,
    _monomial_of_word,
    collect,
    expand_monomial,
    format_gensym,
    lower_dp,
    monomial_weight_drop,
    raise_dp,
)
from .oracle import CARTAN, RAISE, OracleElt, get_oracle
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


def _checked_window(datum, lam, algebra, window):
    """The window, or the default one for lam; ValueError unless lam is
    dominant, the coefficients are polynomial, and the window has one
    exponent cap per positive root and one drop cap per simple root, none
    below the default's, and slack >= 0: slack widens only the extension
    window, so a narrower base loses spanning monomials and gives a wrong
    module."""
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    if algebra.kind != "poly":
        raise ValueError("windows require polynomial coefficients")
    default = default_window(datum, lam)
    if window is None:
        return default
    if len(window.exp_caps) != len(datum.pos_roots):
        raise ValueError(f"exponent caps need {len(datum.pos_roots)} entries, "
                         f"got {len(window.exp_caps)}")
    if len(window.drop_cap) != datum.rank:
        raise ValueError(f"drop cap needs {datum.rank} entries, got {len(window.drop_cap)}")
    for name, caps, least in (("exponent caps", window.exp_caps, default.exp_caps),
                              ("drop cap", window.drop_cap, default.drop_cap)):
        if any(c < m for c, m in zip(caps, least)):
            raise ValueError(f"{name} {caps} narrower than the default {least}")
    if window.slack < 0:
        raise ValueError("slack must be >= 0")
    return window


def default_window(datum, lam, slack=2):
    lam = datum.validate_weight(lam)
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
        for (i, exps, r), val in self.c.items():
            if not isinstance(val, int):
                raise ValueError(f"series scalar {val!r} at {(i, exps, r)} is not an int")
            if not (isinstance(i, int) and isinstance(r, int)):
                raise ValueError(f"node {i!r} and order {r!r} at {(i, exps, r)} must be ints")
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


# -- phase 1: raising powers evaluated on the highest-weight vector ---------------

def _split(o, w):
    """A raising-free normal word as (lowering head, Cartan tail)."""
    j = bisect.bisect_left(w, o.first_cartan)
    return w[:j], w[j:]


class _Phase1:
    """Memos of `apply_relations` for one eval data, kept for a closure: the
    lowering parts, whose death test reads λ, and the Cartan-word values.

    What depends only on the oracle outlives the closure in the oracle's
    stores, so even a fresh `_Phase1` reuses them: `o._chains` maps (node,
    coefficient, v, graded) to the raising letter, the denominator of v and
    the split numerators of E^rho * v for rho = 0, 1, ... so far, and
    `o._cartan_collects` maps a Cartan word to its collect.  A graded chain
    (empty table) keeps only the terms whose Cartan tail has unit letters:
    the Cartan currents then act on w by the ring character h_i ⊗ 1 -> λ_i,
    h_i ⊗ b -> 0 (b != 1), as `chi_binom` and `chi_series` do, so any other
    tail values 0, and stays dead, since tails only grow along a chain.
    Graded chains read neither λ nor the characteristic."""

    def __init__(self, o, ev):
        self.o, self.ev = o, ev
        self.lowering, self.cartan = {}, {}
        self.units = None if ev.c else frozenset(
            o.letter(CARTAN, i, o.algebra.unit()) for i in range(o.datum.rank))

    def raising_product(self, i, b, rho, v):
        """(split numerators, denominator) of E(i,b)^(rho) * v modulo U·n+,
        without the terms whose tail values 0 on w when the table is empty."""
        o, units = self.o, self.units
        slot = (i, b, v, units is not None)
        chain = o._chains.get(slot)
        if chain is None:
            start = expand_monomial(o, v)  # pure lowering: already raising-free
            chain = o._chains[slot] = (
                o.letter(RAISE, i, b), start.den,
                [{_split(o, w): c for w, c in start.terms.items()}])
        x, den, folds = chain
        while len(folds) <= rho:
            nxt = {}
            for (head, tail), c in folds[-1].items():
                for u, cu in o._insert_mod(x, head).items():
                    uh, ut = _split(o, u)
                    if units is not None and not units.issuperset(ut):
                        continue
                    key = (uh, tuple(sorted(ut + tail)) if ut and tail else ut or tail)
                    nxt[key] = nxt.get(key, 0) + c * cu
            folds.append({key: c for key, c in nxt.items() if c})
        return folds[rho], math.factorial(rho) * den

    def lowering_part(self, wf):
        """(m_F, prod k!) of a lowering word, prod k! = 0 when m_F kills w."""
        if wf not in self.lowering:
            m = _monomial_of_word(self.o, wf)
            dies = m and m[-1][2] == self.o.algebra.unit() and (
                m[-1][3] > self.o.datum.pairing(self.ev.lam, m[-1][1]))
            self.lowering[wf] = (m, 0 if dies else math.prod(math.factorial(g[3]) for g in m))
        return self.lowering[wf]

    def cartan_value(self, wc):
        """Value on w of collect(wc), each monomial the product of its scalars."""
        if wc not in self.cartan:
            o, ev = self.o, self.ev
            col = o._cartan_collects.get(wc)
            if col is None:
                col = o._cartan_collects[wc] = collect(o, OracleElt(o, {wc: 1}))
            self.cartan[wc] = sum(c * math.prod(
                ev.chi_binom(i, k) if kind == H_BINOM else ev.chi_series(i, exps, k)
                for kind, i, exps, k in m) for m, c in col.items())
        return self.cartan[wc]


def apply_relations(o, v, g, ev, memo=None):
    """Value on w of the raising power g = E(i,b)^(rho) acting on the lowering
    monomial v, as a sparse vector; any other gensym, or a root index outside
    the positive roots, raises ValueError.

    Works modulo the left ideal U·n+, which dies on w; E(i,b)^(rho) * v is e
    times E^(rho-1) * v, e = x+_i ⊗ b, memoized in `memo` (a fresh `_Phase1`
    when None, which still reuses the oracle's chains).  A raising-free normal
    word is a lowering word w_F times a Cartan word w_C, and e meets only w_F:
    U·n+ is stable under right multiplication by the commuting Cartan
    letters.  By PBW uniqueness w_F·w_C collects to (prod k!) m_F ⊗
    collect(w_C), so m_F gets c (prod k!) times the `chi_binom`/`chi_series`
    value of collect(w_C), for any table, unless m_F ends in a
    unit-coefficient power beyond the weight pairing.  A value the
    denominator does not divide raises NotInZFormError.
    """
    if g[0] != E_DP:
        raise ValueError(f"apply_relations takes raising powers, got {format_gensym(o, g)}")
    if memo is None:
        memo = _Phase1(o, ev)
    terms, den = memo.raising_product(g[1], g[2], g[3], v)
    acc = {}
    for (head, tail), c in terms.items():
        m, fact = memo.lowering_part(head)
        if fact:
            acc[m] = acc.get(m, 0) + c * fact * memo.cartan_value(tail)
    if any(n % den for n in acc.values()):
        raise NotInZFormError(f"a value on w is not an integer over {den}")
    return {m: n // den for m, n in acc.items() if n}


# -- window enumeration -----------------------------------------------------------

def _lowering_monomials(o, caps, drop_cap):
    """All pure-lowering monomials within the exponent caps and the drop cap."""
    roots = o.datum.pos_roots
    opts = [sorted(o.algebra.monomials_with_exp_le(c)) if c >= 0 else [] for c in caps]
    out = []

    def at(ri, bi, mon, rem):
        """mon, extended by root ri's factors from its bi-th option on, then later roots'."""
        if ri == len(roots):
            out.append(mon)
            return
        at(ri + 1, 0, mon, rem)
        beta = roots[ri]
        kmax = min(rem[t] // beta[t] for t in range(len(beta)) if beta[t])
        for j in range(bi, len(opts[ri])):
            for k in range(1, kmax + 1):
                at(ri, j + 1, mon + (lower_dp(ri, opts[ri][j], k),),
                   tuple(r - k * c for r, c in zip(rem, beta)))

    at(0, 0, (), tuple(drop_cap))
    return out


def _inside(caps, vec):
    """Whether every factor of every monomial of vec is within the exponent caps."""
    return all(max(b, default=0) <= caps[ri] for m in vec for _f, ri, b, _k in m)


def spanning_set(datum, lam, algebra, window=None):
    """Pure-lowering monomials spanning the quotient (the base window)."""
    window = _checked_window(datum, lam, algebra, window)
    o = get_oracle(datum, algebra)
    return sorted(_lowering_monomials(o, window.exp_caps, window.drop_cap))


# -- relation closure ---------------------------------------------------------------

class ClosureState:
    """One closure pass: the base window, the extension window's (caps, drop)
    bounds and the saturated relation row spaces; `ext_set` is enumerated on read."""

    def __init__(self, oracle, base_set, ext_bounds, spaces):
        self.oracle = oracle
        self.base_set = base_set
        self.ext_bounds = ext_bounds
        self.spaces = spaces

    @functools.cached_property
    def ext_set(self):
        return frozenset(_lowering_monomials(self.oracle, *self.ext_bounds))

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
        for m in self.base_set:
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


def _left_product(o, lmon, m):
    """collect(lmon * m) for lowering monomials, kept in the oracle's store."""
    got = o._left_products.get((lmon, m))
    if got is None:
        got = o._left_products[(lmon, m)] = collect(
            o, expand_monomial(o, lmon) * expand_monomial(o, m))
    return got


def _closure_pass(o, lam, ev, window, slack, base_set, ev_gm):
    """One pass at `slack`; `o`, `base_set` and `ev_gm` are the closure's."""
    datum, algebra = o.datum, o.algebra
    ext_caps = tuple(c + slack for c in window.exp_caps)
    ext_drop = tuple(c + slack for c in window.drop_cap)

    def new_space():
        return RowSpace(char=ev.char, key=lambda mon: (mon in base_set, mon))

    # seeds: unit-coefficient lowering powers just beyond the weight pairing, in
    # the extension drop cap; raising only lowers drops, so phase 1 tests caps only
    work = []
    for bidx, beta in enumerate(datum.pos_roots):
        lb = datum.pairing(lam, bidx)
        top = min(lb + slack, *(d // c for d, c in zip(ext_drop, beta) if c))
        work += [{(lower_dp(bidx, algebra.unit(), s),): 1} for s in range(lb + 1, top + 1)]

    # raising sweep generators along simple roots
    gens = []
    for i in range(datum.rank):
        cap = datum.pairing(lam, i) + slack
        for b in sorted(algebra.monomials_with_exp_le(cap)):
            for rho in range(1, cap + 1):
                gens.append(raise_dp(i, b, rho))

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
            if w and _inside(ext_caps, w):
                work.append(w)

    # phase 2: close under left multiplication by window lowering monomials.
    # Products of lowering monomials stay pure lowering, and the raw collected
    # product is itself a vector that dies on w, so no evaluation happens here;
    # in particular the bare seeds enter through the empty left factor.
    # Only blocks inside the base drop cap can cut base monomials, and left
    # multiplication never lowers the drop, so the left factors are the extension
    # caps' monomials in the base drop cap, bucketed by drop; a core row meets the
    # buckets keeping its total in the cap, each space in (row, window) order.
    buckets = {}
    for lmon in _lowering_monomials(o, ext_caps, window.drop_cap):
        buckets.setdefault(monomial_weight_drop(o, lmon), []).append(lmon)
    spaces = {}
    for dr, v in core_rows:
        for ldrop, lmons in buckets.items():
            tot = tuple(a + b for a, b in zip(ldrop, dr))
            if any(t > cap for t, cap in zip(tot, window.drop_cap)):
                continue
            for lmon in lmons:
                w = {}
                for m, c in v.items():
                    vec_add_scaled(w, _left_product(o, lmon, m), c)
                if not w or not _inside(ext_caps, w):
                    continue
                sp = spaces.get(tot)
                if sp is None:
                    sp = new_space()
                    spaces[tot] = sp
                sp.insert(w)

    return ClosureState(o, base_set, (ext_caps, ext_drop), spaces)


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
    if not isinstance(max_slack, int):
        raise ValueError(f"max_slack {max_slack!r} is not an int")
    if max_slack < window.slack:
        raise ValueError(f"max_slack {max_slack} is below the window slack {window.slack}")

    # the base window and the phase 1 values depend only on this call's arguments
    o = get_oracle(datum, algebra)
    phase1 = _Phase1(o, eval_data)
    memos = (frozenset(_lowering_monomials(o, window.exp_caps, window.drop_cap)),
             functools.cache(lambda g, m: apply_relations(o, m, g, eval_data, phase1)))
    slack = window.slack
    state = _closure_pass(o, lam, eval_data, window, slack, *memos)
    dim, char_map = state.dimension_and_character(datum, lam)
    stabilized = False
    while slack < max_slack:
        probe = _closure_pass(o, lam, eval_data, window, slack + 1, *memos)
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
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if len(points) != len(lam):
        raise ValueError(f"{len(lam)} nodes need {len(lam)} point groups, got {len(points)}")
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
