"""Divided-power monomial basis and straightening for hyperalgebras of map algebras.

Generators are divided powers (x^±_alpha ⊗ b)^(k), Cartan binomials
binom(h_i ⊗ 1, k), and the degree-r coefficients L(i,c,r) of the series
exp(-sum_{s>=1} (h_i ⊗ c^s)/s u^s).  Ordered products of these, one factor
per generator label, form a basis of the integral form; every element of the
envelope that lies in the integral form collects into that basis with integer
coefficients, and `collect` certifies this on the fly.

Monomials are tuples of gensym tuples (kind, idx, exps, k) with kind
F_DP < H_BINOM < L_GEN < E_DP; plain tuple sorting is the basis order.
A HyperElt is a dict mapping monomials to integer coefficients.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .oracle import LOWER, RAISE, OracleElt
from .scalars import vec_add_scaled

F_DP, H_BINOM, L_GEN, E_DP = 0, 1, 2, 3


class NotInZFormError(ValueError):
    """Raised when an element fails to collect with integer coefficients."""


# -- gensym and monomial construction ----------------------------------------

def lower_dp(alpha, b, k):
    if k < 1:
        raise ValueError("divided-power exponent must be >= 1")
    return (F_DP, alpha, tuple(b), k)


def raise_dp(alpha, b, k):
    if k < 1:
        raise ValueError("divided-power exponent must be >= 1")
    return (E_DP, alpha, tuple(b), k)


def cartan_binom(i, k, unit):
    if k < 1:
        raise ValueError("binomial order must be >= 1")
    return (H_BINOM, i, tuple(unit), k)


def lambda_gen(i, c, r, unit):
    if r < 1:
        raise ValueError("series order must be >= 1")
    if tuple(c) == tuple(unit):
        raise ValueError("the unit coefficient is carried by Cartan binomials")
    return (L_GEN, i, tuple(c), r)


def ordered_monomial(gens):
    """Sort gensyms into the basis order; reject duplicate generator labels."""
    m = tuple(sorted(gens))
    seen = set()
    for kind, idx, exps, k in m:
        if k < 1:
            raise ValueError("trivial factors are omitted, not stored")
        label = (kind, idx) if kind == H_BINOM else (kind, idx, exps)
        if label in seen:
            raise ValueError(f"repeated generator label {label} in monomial")
        seen.add(label)
    return m


def monomial_degree(m):
    """Total divided-power degree over the root-vector factors."""
    return sum(k for kind, _i, _e, k in m if kind in (F_DP, E_DP))


def monomial_adeg(o, m):
    return sum(k * o.algebra.deg(exps) for _kind, _i, exps, k in m)


def monomial_weight_drop(o, m):
    """Root-lattice weight lowered by the monomial (lowering counts positive)."""
    drop = [0] * o.datum.rank
    for kind, idx, _exps, k in m:
        if kind not in (F_DP, E_DP):
            continue
        sign = k if kind == F_DP else -k
        for i, c in enumerate(o.datum.pos_roots[idx]):
            drop[i] += sign * c
    return tuple(drop)


# -- Cartan series coefficients ------------------------------------------------

def _hvec_elt(o, hvec, b):
    out = o.zero()
    for i, c in enumerate(hvec):
        if c:
            out = out + c * o.h(i, b)
    return out


def _binom_elt(o, hvec, shift, m):
    """binom(h + shift, m) for h = sum hvec[i] h_i ⊗ 1, as an envelope element."""
    x = _hvec_elt(o, hvec, o.algebra.unit()) + shift * o.one()
    acc = o.one()
    for j in range(m):
        acc = acc * (x - j * o.one())
    return Fraction(1, math.factorial(m)) * acc


def _simple_coroot(o, i):
    """The unit coroot vector of h_i (simple roots come first); checks the node."""
    if not 0 <= i < o.datum.rank:
        raise ValueError(f"node index {i} is outside 0..{o.datum.rank - 1}")
    return o.datum.coroots[i]


def _check_root(o, alpha):
    """Raise ValueError unless alpha indexes a positive root."""
    if not 0 <= alpha < len(o.datum.pos_roots):
        raise ValueError(f"root index {alpha} is outside 0..{len(o.datum.pos_roots) - 1}")


def _lambda_series_coeff(o, hvec, b, r):
    """One coefficient list per (hvec, b) in `o._lambda_series`; a longer
    request extends it, since a coefficient does not depend on where the
    series is cut."""
    if r < 0:
        raise ValueError("series order must be >= 0")
    o.algebra.validate(b)
    lam = o._lambda_series.setdefault((tuple(hvec), b), [o.one()])
    if len(lam) <= r:
        # Newton's identity m Λ_m = -sum_{s=1..m} x_s Λ_{m-s} with x_s = h ⊗ b^s;
        # the x_s are Cartan elements, so they commute with every Λ_j
        xs = [None] + [_hvec_elt(o, hvec, o.algebra.pow(b, s)) for s in range(1, r + 1)]
        for m in range(len(lam), r + 1):
            terms = (xs[s] * lam[m - s] for s in range(1, m + 1))
            lam.append(Fraction(-1, m) * sum(terms, o.zero()))
    return lam[r]


def lambda_poly(o, i, a, r):
    """Coefficient of u^r in exp(-sum_{s>=1} (h_i ⊗ a^s)/s u^s).

    a is one coefficient-algebra basis element; anything else raises
    ValueError.  The result is memoized per oracle and shared between
    callers: do not mutate it.
    """
    return _lambda_series_coeff(o, _simple_coroot(o, i), a, r)


def lambda_poly_root(o, alpha, a, r):
    """Same series for the coroot of an arbitrary positive root."""
    _check_root(o, alpha)
    return _lambda_series_coeff(o, o.datum.coroots[alpha], a, r)


def lambda_power_reduction(o, i, a, k, r):
    """Rewrite the order-r series coefficient at a^k through those at a.

    Returns a dict mapping ascending tuples (s_1, ..., s_l) to integers m so
    that the series coefficient L(i, a^k, r) equals
    sum m * L(i,a,s_1) ... L(i,a,s_l); the total weight sum(s_j) of every
    tuple is r*k and the single-part tuple (r*k,) carries coefficient k.
    The polynomial does not depend on the node or the algebra; a weight that
    is not an integer raises NotInZFormError.
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    _simple_coroot(o, i)
    o.algebra.validate(tuple(a))
    # Newton's identity m L_m = -sum_{s=1..m} P_s L_{m-s}, P_m = h_i ⊗ a^m, solved
    # for the P_m in the L(i,a,s), then run at a^k, whose power sums are the P_{ks}
    P = [None]
    for m in range(1, r * k + 1):
        P.append({(m,): -m})
        for s in range(1, m):
            vec_add_scaled(P[m], {tuple(sorted(p + (m - s,))): c for p, c in P[s].items()}, -1)
    lam = [{(): 1}]
    for j in range(1, r + 1):
        acc = {}
        for s in range(1, j + 1):
            for p, c in P[k * s].items():
                vec_add_scaled(acc, {tuple(sorted(p + q)): d for q, d in lam[j - s].items()}, -c)
        lam.append({})
        for parts, c in acc.items():
            lam[j][parts], rem = divmod(c, j)
            if rem:
                raise NotInZFormError(
                    f"series reduction produced non-integer weight {Fraction(c, j)}")
    return lam[r]


# -- lowering series --------------------------------------------------------

def _series_dp(o, alpha, terms, dp):
    """Coefficients of u^0..u^n in the dp-th divided power of
    sum_j c_j (x^-_alpha ⊗ b_j) u^j, where terms[j] = (c_j, b_j) for j = 0..n.

    The letters of one root commute (2 alpha is never a root), so by the
    multinomial theorem a multiset j_1 <= ... <= j_dp of orders with sum m
    adds (dp! / prod of multiplicities!) * prod c_j over dp! times the sorted
    word of its letters to u^m: integer numerators over dp!, and no envelope
    product.
    """
    n = len(terms) - 1
    letters = [(j, c, o.letter(LOWER, alpha, b)) for j, (c, b) in enumerate(terms) if c]
    nums = [{} for _ in range(n + 1)]

    def extend(pick, start, budget):
        if len(pick) == dp:
            word = tuple(sorted(x for _j, _c, x in pick))
            mult = math.factorial(dp) // math.prod(
                math.factorial(len(tuple(grp))) for _key, grp in itertools.groupby(pick))
            num = nums[n - budget]
            num[word] = num.get(word, 0) + mult * math.prod(c for _j, c, _x in pick)
            return
        for i in range(start, len(letters)):  # letters ascend in order j
            if letters[i][0] * (dp - len(pick)) > budget:
                break  # no multiset with this letter or a later one fits
            extend(pick + (letters[i],), i, budget - letters[i][0])

    extend((), 0, n)
    return [OracleElt(o, {w: c for w, c in num.items() if c}, math.factorial(dp))
            for num in nums]


def xminus_series_dp_coeff(o, alpha, a, b, dp, n):
    """Coefficient of u^n in the dp-th divided power of
    sum_{j>=0} (x^-_alpha ⊗ a^j b^{j+1}) u^{j+1}."""
    _check_root(o, alpha)
    A, a, b = o.algebra, tuple(a), tuple(b)
    terms = [(0, A.unit())] + [(1, A.mul(A.pow(a, j), A.pow(b, j + 1))) for j in range(n)]
    return _series_dp(o, alpha, terms, dp)[n]


# -- expansion into the envelope ----------------------------------------------

_GEN_CACHE = {}
_MON_CACHE = {}


def expand_gen(o, g):
    """The gensym as an envelope element."""
    key = (o, g)
    got = _GEN_CACHE.get(key)
    if got is not None:
        return got
    kind, idx, exps, k = g
    if kind in (F_DP, E_DP):  # the letter checks the root index
        letter = o.letter(LOWER if kind == F_DP else RAISE, idx, exps)
        out = OracleElt(o, {(letter,) * k: 1}, math.factorial(k))
    elif kind == H_BINOM:
        out = _binom_elt(o, _simple_coroot(o, idx), 0, k)
    else:
        out = _lambda_series_coeff(o, _simple_coroot(o, idx), exps, k)
    _GEN_CACHE[key] = out
    return out


def expand_monomial(o, m):
    key = (o, m)
    got = _MON_CACHE.get(key)
    if got is None:
        got = expand_word(o, m)
        _MON_CACHE[key] = got
    return got


def expand_word(o, gens):
    out = o.one()
    for g in gens:
        out = out * expand_gen(o, g)
    return out


# -- collection into the ordered basis ----------------------------------------

def _monomial_of_word(o, w):
    unit = o.algebra.unit()
    gens = []
    for letter, grp in itertools.groupby(w):
        k = len(tuple(grp))
        block, idx, _deg, exps = o.letter_fields(letter)
        if block == LOWER:
            gens.append((F_DP, idx, exps, k))
        elif block == RAISE:
            gens.append((E_DP, idx, exps, k))
        elif exps == unit:
            gens.append((H_BINOM, idx, exps, k))
        else:
            gens.append((L_GEN, idx, exps, k))
    return tuple(sorted(gens))


_LEAD_CACHE = {}


def _leading_coeff(m):
    """(sign, L): the longest word of expand_monomial(m) has coefficient sign/L,
    and L, the product of the exponents' factorials, is the expansion's den."""
    got = _LEAD_CACHE.get(m)
    if got is None:
        sign, den = 1, 1
        for kind, _i, _e, k in m:
            den *= math.factorial(k)
            if kind == L_GEN and k % 2:
                sign = -sign
        got = _LEAD_CACHE[m] = (sign, den)
    return got


def collect(o, e):
    """Express an envelope element in the ordered divided-power basis.

    Greedy elimination of the longest remaining word; the subtracted basis
    expansions only produce strictly shorter corrections, so words of one
    length can be eliminated in a single descending sweep per length bucket.
    Works on the integer numerators n over e.den = D: the expansion of the
    basis monomial m of a word w is M/L with L the product of its factorials
    and M[w] = sign = ±1, so the collected coefficient n[w]·L·sign/D is an
    integer exactly when D divides n[w]·L, and subtracting it leaves the
    numerators n - sign·n[w]·M over the same D.
    Raises NotInZFormError when a collected coefficient is not an integer.
    """
    den = e.den
    by_len = {}
    for w, c in e.terms.items():
        by_len.setdefault(len(w), {})[w] = c
    out = {}
    while by_len:
        length = max(by_len)
        bucket = by_len.pop(length)
        for w in sorted(bucket, reverse=True):
            m = _monomial_of_word(o, w)
            sign, lead = _leading_coeff(m)
            sc = sign * bucket[w]
            out[m], rem = divmod(sc * lead, den)
            if rem:
                raise NotInZFormError(f"coefficient {Fraction(sc * lead, den)} at "
                                      f"{format_monomial(o, m)} is not an integer")
            for w2, c2 in expand_monomial(o, m).terms.items():
                if len(w2) == length:
                    continue  # the leading word itself; cancels exactly
                b2 = by_len.setdefault(len(w2), {})
                nc = b2.get(w2, 0) - sc * c2
                if nc:
                    b2[w2] = nc
                else:
                    b2.pop(w2, None)
    return out


def straighten(o, gens):
    """Ordered-basis form of a product of gensyms, with certified integer weights."""
    return collect(o, expand_word(o, gens))


def hyper_mul(o, h1, h2):
    """Product of two basis-form elements, restraightened."""
    out = {}
    for m1, c1 in h1.items():
        e1 = expand_monomial(o, m1)
        for m2, c2 in h2.items():
            vec_add_scaled(out, collect(o, e1 * expand_monomial(o, m2)), c1 * c2)
    return out


def quotient_drop_raising(h):
    """Project a basis-form element modulo the left ideal U·n+ of raisings.

    Basis order puts E_DP factors last, and the monomials ending in one span
    U·n+, so only the last factor is tested.
    """
    return {m: c for m, c in h.items() if not m or m[-1][0] != E_DP}


# -- textual and JSON forms -----------------------------------------------------

def format_gensym(o, g):
    kind, idx, exps, k = g
    b = o.algebra.format(exps)
    if kind == H_BINOM:
        return f"H({idx + 1})^[{k}]"
    if kind == L_GEN:
        return f"L({idx + 1},{b},{k})"
    return f"{'F' if kind == F_DP else 'E'}({o.datum.format_root(idx)},{b})^({k})"


def format_monomial(o, m):
    if not m:
        return "1"
    return " ".join(format_gensym(o, g) for g in m)


def format_hyper(o, h):
    """Basis-form text: ±1 coefficients are omitted, a constant term is bare."""
    if not h:
        return "0"
    bits = []
    for m in sorted(h):
        c, ms = h[m], format_monomial(o, m)
        if not m:
            bits.append(str(c))
        elif c == 1:
            bits.append(ms)
        elif c == -1:
            bits.append(f"-{ms}")
        else:
            bits.append(f"{c}*{ms}")
    return " + ".join(bits)


def hyper_to_json(o, h):
    return [[format_monomial(o, m), str(h[m])] for m in sorted(h)]


# -- identity verification -------------------------------------------------------

def _report(o, params, lhs, rhs):
    """Pass flag and residual; the formatted sides only when the case fails."""
    residual = lhs - rhs
    rep = {"params": dict(params), "pass": not residual, "residual": o.format_elt(residual)}
    if residual:
        rep["lhs"], rep["rhs"] = o.format_elt(lhs), o.format_elt(rhs)
    return rep


def _check_basicrel(o, p):
    alpha, a, b = p["alpha"], tuple(p["a"]), tuple(p["b"])
    r, s = p["r"], p["s"]
    if not 1 <= r <= s:
        raise ValueError("requires 1 <= r <= s")
    A = o.algebra
    lhs = o.mul_mod_raising(expand_gen(o, raise_dp(alpha, a, r)),
                            expand_gen(o, lower_dp(alpha, b, s)))
    ab = A.mul(a, b)
    terms = [(0, A.unit())] + [(1, A.mul(A.pow(a, j), A.pow(b, j + 1))) for j in range(s)]
    dp = _series_dp(o, alpha, terms, s - r)
    rhs = o.zero()
    for j in range(r + 1):
        rhs = rhs + dp[s - r + j] * lambda_poly_root(o, alpha, ab, r - j)
    if r % 2:
        rhs = -rhs
    return _report(o, p, lhs, rhs)


def _check_commutrels1(o, p):
    alpha, beta = p["alpha"], p["beta"]
    s1, s2 = p.get("sign1", "+"), p.get("sign2", "-")
    a, b, k, l = tuple(p["a"]), tuple(p["b"]), p["k"], p["l"]
    if alpha == beta and s1 != s2:
        raise ValueError("opposite powers along one root form the rank-one case")
    g1 = raise_dp(alpha, a, k) if s1 == "+" else lower_dp(alpha, a, k)
    g2 = raise_dp(beta, b, l) if s2 == "+" else lower_dp(beta, b, l)
    comm = expand_gen(o, g1) * expand_gen(o, g2) - expand_gen(o, g2) * expand_gen(o, g1)
    collected = collect(o, comm)
    bad = {m: c for m, c in collected.items() if monomial_degree(m) >= k + l}
    rep = {"params": dict(p), "pass": not bad, "residual": format_hyper(o, bad)}
    if bad:
        rep["lhs"], rep["rhs"] = format_hyper(o, collected), f"(root-vector degree < {k + l})"
    return rep


def _check_commutrels2(o, p):
    alpha, k, l = p["alpha"], p["k"], p["l"]
    unit = o.algebra.unit()
    lhs = expand_gen(o, raise_dp(alpha, unit, l)) * expand_gen(o, lower_dp(alpha, unit, k))
    hvec = o.datum.coroots[alpha]
    rhs = o.zero()
    for m in range(min(k, l) + 1):
        term = o.one()
        if m < k:
            term = term * expand_gen(o, lower_dp(alpha, unit, k - m))
        term = term * _binom_elt(o, hvec, 2 * m - k - l, m)
        if m < l:
            term = term * expand_gen(o, raise_dp(alpha, unit, l - m))
        rhs = rhs + term
    return _report(o, p, lhs, rhs)


def _check_commutrels3(o, p):
    i, alpha, sign = p["i"], p["alpha"], p.get("sign", "+")
    a, k, l = tuple(p["a"]), p["k"], p["l"]
    hvec = _simple_coroot(o, i)
    g = raise_dp(alpha, a, k) if sign == "+" else lower_dp(alpha, a, k)
    dp = expand_gen(o, g)
    pai = o.datum.root_pairing(o.datum.pos_roots[alpha], i)
    shift = k * pai if sign == "+" else -k * pai
    lhs = _binom_elt(o, hvec, 0, l) * dp
    rhs = dp * _binom_elt(o, hvec, shift, l)
    return _report(o, p, lhs, rhs)


def _check_commutrels4(o, p):
    alpha, sign, a, k, l = p["alpha"], p.get("sign", "-"), tuple(p["a"]), p["k"], p["l"]
    mk = raise_dp if sign == "+" else lower_dp
    lhs = expand_gen(o, mk(alpha, a, k)) * expand_gen(o, mk(alpha, a, l))
    rhs = math.comb(k + l, k) * expand_gen(o, mk(alpha, a, k + l))
    return _report(o, p, lhs, rhs)


def _check_commutrels5(o, p):
    alpha, a, b = p["alpha"], tuple(p["a"]), tuple(p["b"])
    r, k = p["r"], p["k"]
    A = o.algebra
    lhs = lambda_poly_root(o, alpha, a, r) * expand_gen(o, lower_dp(alpha, b, k))
    dp = _series_dp(o, alpha, [(j + 1, A.mul(A.pow(a, j), b)) for j in range(r + 1)], k)
    rhs = o.zero()
    for s in range(r + 1):
        rhs = rhs + dp[r - s] * lambda_poly_root(o, alpha, a, s)
    return _report(o, p, lhs, rhs)


def _check_a_k_reduction(o, p):
    i, a, k, r = p["i"], tuple(p["a"]), p["k"], p["r"]
    red = lambda_power_reduction(o, i, a, k, r)
    lhs = lambda_poly(o, i, o.algebra.pow(a, k), r)
    rhs = o.zero()
    for parts, c in red.items():
        term = o.one()
        for s in parts:
            term = term * lambda_poly(o, i, a, s)
        rhs = rhs + c * term
    rep = _report(o, p, lhs, rhs)
    rep["reduction"] = {",".join(map(str, parts)): c for parts, c in sorted(red.items())}
    return rep


def random_gen_word(o, rng, max_k=3, max_deg=2, max_len=3):
    """A random short product of gensyms within the given size window."""
    for name, val, least in (("max_k", max_k, 1), ("max_deg", max_deg, 0),
                             ("max_len", max_len, 1)):
        if val < least:
            raise ValueError(f"{name} must be >= {least}, got {val}")
    A, d = o.algebra, o.datum
    mons = A.monomials_up_to_deg(max_deg)
    nonunit = [b for b in mons if b != A.unit()]
    gens = []
    for _ in range(rng.randint(1, max_len)):
        kind = rng.choice((F_DP, H_BINOM, L_GEN, E_DP) if nonunit else (F_DP, H_BINOM, E_DP))
        k = rng.randint(1, max_k)
        if kind == H_BINOM:
            gens.append(cartan_binom(rng.randrange(d.rank), k, A.unit()))
        elif kind == L_GEN:
            gens.append(lambda_gen(rng.randrange(d.rank), rng.choice(nonunit), k, A.unit()))
        else:
            g = (kind, rng.randrange(len(d.pos_roots)), rng.choice(mons), k)
            gens.append(g)
    return tuple(gens)


def straighten_roundtrip_failure(o, gens):
    """None when collect(expand(gens)) re-expands to the envelope value, else a message."""
    direct = expand_word(o, gens)
    try:
        h = straighten(o, gens)
    except NotInZFormError as err:
        return f"non-integral collection: {err}"
    back = o.zero()
    for m, c in h.items():
        back = back + c * expand_monomial(o, m)
    if back != direct:
        return "re-expansion differs from the envelope normal form"
    return None


def _check_gAforms_integrality(o, p):
    count = p.get("count", 50)
    rng = random.Random(p.get("seed", 0))
    failure = ""
    for _ in range(count):
        gens = random_gen_word(o, rng, p.get("max_k", 3), p.get("max_deg", 2), p.get("max_len", 3))
        failure = straighten_roundtrip_failure(o, gens) or ""
        if failure:
            failure = f"{failure} at {' '.join(format_gensym(o, g) for g in gens)}"
            break
    rep = {"params": dict(p), "pass": not failure, "residual": failure}
    if failure:
        rep["lhs"] = f"{count} random generator products"
        rep["rhs"] = "integer coefficients and exact round-trip"
    return rep


# id -> (checker, sweep axes with the last varying fastest, axis filters or None);
# the filter of an axis sees the limits, the case so far (the earlier axes) and
# one value of its axis, so a rejected prefix is never extended
_IDENTITIES = {
    "basicrel": (_check_basicrel, ("alpha", "a", "b", "s", "r"),
                 {"r": lambda lim, c, r: r <= c["s"]}),
    # [g2,g1] = -[g1,g2], so ordered pairs of sides (alpha, sign1, a, k) <=
    # (beta, sign2, b, l) suffice for the degree bound, each filter the pair
    # order cut at its axis; the rank-one opposite pair is basicrel territory
    "commutrels1": (_check_commutrels1, ("alpha", "sign1", "a", "k", "beta", "sign2", "b", "l"),
                    {"beta": lambda lim, c, beta: beta >= c["alpha"],
                     "sign2": lambda lim, c, s2: c["beta"] != c["alpha"] or s2 == c["sign1"],
                     "b": lambda lim, c, b: c["beta"] != c["alpha"] or b >= c["a"],
                     "l": lambda lim, c, l: l <= lim.kmax and (
                         c["beta"] != c["alpha"] or c["b"] != c["a"] or l >= c["k"])}),
    "commutrels2": (_check_commutrels2, ("alpha", "k", "l"), None),
    "commutrels3": (_check_commutrels3, ("i", "alpha", "sign", "a", "k", "l"), None),
    "commutrels4": (_check_commutrels4, ("alpha", "sign", "a", "k", "l"), None),
    "commutrels5": (_check_commutrels5, ("alpha", "a", "b", "r", "k"), None),
    # a unit coefficient has no series of its own
    "a_k_reduction": (_check_a_k_reduction, ("i", "a", "k", "r"), {"a": lambda lim, c, a: any(a)}),
    "gAforms_integrality": (_check_gAforms_integrality, (), None),
}

IDENTITY_IDS = tuple(sorted(_IDENTITIES))


def _identity(which):
    """The table entry of a named identity; ValueError for an unknown id."""
    entry = _IDENTITIES.get(which)
    if entry is None:
        raise ValueError(f"unknown identity id {which!r}; known: {', '.join(IDENTITY_IDS)}")
    return entry


def verify_identity(o, which, params):
    """Build both sides of a named straightening identity; report the residual."""
    rep = _identity(which)[0](o, params)
    rep["id"] = which
    return rep


@dataclass(frozen=True)
class SweepLimits:
    """Parameter bounds of an identity sweep."""

    rmax: int = 3
    smax: int = 3
    kmax: int = 3
    lmax: int = 3
    adeg: int = 3
    count: int = 100
    seed: int = 0


def identity_cases(o, which, lim):
    """Deterministic parameter sweep for one identity id over one oracle.

    Cases run over the identity's axes in table order, the last varying
    fastest, so reruns print in the same order; each case lists its keys in
    axis order.
    """
    _checker, axes, filters = _identity(which)
    if not axes:  # gAforms_integrality: one seeded batch of random products
        return [{"count": lim.count, "seed": lim.seed, "max_k": min(lim.kmax, 3),
                 "max_deg": min(lim.adeg, 2), "max_len": 3}]
    roots, mons = range(len(o.datum.pos_roots)), sorted(o.algebra.monomials_up_to_deg(lim.adeg))
    values = {"alpha": roots, "beta": roots, "i": range(o.datum.rank), "a": mons, "b": mons,
              "sign": "+-", "sign1": "+-", "sign2": "+-",
              "k": range(1, lim.kmax + 1), "l": range(1, lim.lmax + 1),
              "r": range(1, lim.rmax + 1), "s": range(1, lim.smax + 1)}
    cases = [{}]
    for x in axes:
        keep = (filters or {}).get(x)
        cases = [{**c, x: v} for c in cases for v in values[x] if keep is None or keep(lim, c, v)]
    return cases
