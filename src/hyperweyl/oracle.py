"""Rational PBW oracle for the universal envelope of g tensor a coefficient algebra.

Basis vectors of g are Chevalley generators realized as matrix units (A series
only); a Lie word is a tuple of letters

    letter = (block, idx, deg, exps)

with block 0 = lowering x^-_alpha, 1 = Cartan h_i, 2 = raising x^+_alpha,
idx the positive-root (or node) index, and exps the coefficient-algebra basis
element tensored on.  Tuple comparison of letters is exactly the PBW order:
lowering, then Cartan, then raising, each block by (index, graded basis order).

Normal form is the naive rewriting x y -> y x + [x, y] applied until every
word is weakly increasing.  One fold does all of it: `Oracle._fold` inserts
the letters of a word right to left into a sparse combination of normal
words, and the memoized `_insert` of one letter into a normal word is itself
a one-letter fold plus bracket terms.  `mul_mod_raising` folds modulo the
left ideal U·n+ of raising letters: the normal words ending in a raising
letter span it, so dropping them after every letter is exact.  Every other
sparse sum goes through `scalars.vec_add_scaled`.  All structure constants are
integers, so words carry integer coefficients and rationals enter only through
divided powers.  An element therefore stores integer numerators over one
positive common denominator, kept in lowest terms, and every product and sum
stays in integers.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .scalars import vec_add_scaled

LOWER, CARTAN, RAISE = 0, 1, 2


def _mat_mul(a, b):
    out = {}
    for (i, k), va in a.items():
        vec_add_scaled(out, {(i, j): vb for (k2, j), vb in b.items() if k2 == k}, va)
    return out


def _mat_commutator(a, b):
    return vec_add_scaled(_mat_mul(a, b), _mat_mul(b, a), -1)


class ChevalleyTable:
    """Integer structure constants of the Chevalley basis, A series.

    Realized through (rank+1) x (rank+1) matrix units: x^+ of the root
    alpha_i + ... + alpha_{j-1} is E_{ij}, its negative is E_{ji}, and
    h_i = E_{ii} - E_{i+1,i+1}.  This fixes the sign convention
    [x^+_{a1}, x^+_{a2}] = +x^+_{a1+a2}.
    """

    def __init__(self, datum):
        if datum.series != "A":
            raise ValueError(f"structure constants implemented for type A only, got {datum.type_string()}")
        self.datum = datum
        gmat = {(CARTAN, i): {(i, i): 1, (i + 1, i + 1): -1} for i in range(datum.rank)}
        for idx, beta in enumerate(datum.pos_roots):
            i = beta.index(1)
            j = i + sum(beta)
            gmat[(RAISE, idx)] = {(i, j): 1}
            gmat[(LOWER, idx)] = {(j, i): 1}
        self._brackets = {(g1, g2): self._decompose(_mat_commutator(m1, m2))
                          for g1, m1 in gmat.items() for g2, m2 in gmat.items()}

    def _decompose(self, mat):
        """Write an sl-matrix in the Chevalley basis; returns ((gsym, int), ...)."""
        n = self.datum.rank
        out = []
        diag = [0] * (n + 1)
        for (i, j), v in mat.items():
            if i == j:
                diag[i] = v
            else:
                coords = tuple(1 if min(i, j) <= k < max(i, j) else 0 for k in range(n))
                idx = self.datum.root_index[coords]
                out.append(((RAISE if i < j else LOWER, idx), v))
        assert sum(diag) == 0
        acc = 0
        for k in range(n):
            acc += diag[k]
            if acc:
                out.append((((CARTAN, k)), acc))
        return tuple(out)

    def bracket(self, g1, g2):
        """[g1, g2] as an integer combination of Chevalley symbols."""
        return self._brackets[(g1, g2)]


class OracleElt:
    """A rational linear combination of normal-ordered Lie words.

    `terms` maps words to nonzero integer numerators over the positive
    denominator `den`, in lowest terms: the gcd of `den` and every numerator
    is 1, and the zero element has `den == 1`.  The constructor takes nonzero
    numerators over any positive `den`, reduces them and keeps the dict it
    was given.  Equal elements have equal fields.
    """

    __slots__ = ("oracle", "terms", "den")

    def __init__(self, oracle, terms, den=1):
        self.oracle = oracle
        g = math.gcd(den, *terms.values()) if den != 1 else 1
        self.terms = {w: c // g for w, c in terms.items()} if g != 1 else terms
        self.den = den // g

    def _check(self, other):
        if self.oracle is not other.oracle:
            raise ValueError("elements of different envelopes")

    def __add__(self, other):
        if not isinstance(other, OracleElt):
            return NotImplemented
        self._check(other)
        d1, d2 = self.den, other.den
        den = d1 * d2 // math.gcd(d1, d2)
        a = den // d1
        out = vec_add_scaled({w: a * c for w, c in self.terms.items()}, other.terms, den // d2)
        return OracleElt(self.oracle, out, den)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, OracleElt):
            self._check(other)
            return self.oracle.mul(self, other)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        # an int has numerator itself and denominator 1
        num = other.numerator
        if not num:
            return self.oracle.zero()
        return OracleElt(self.oracle, {w: c * num for w, c in self.terms.items()},
                         self.den * other.denominator)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (isinstance(other, OracleElt) and self.oracle is other.oracle
                and self.den == other.den and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"OracleElt({self.oracle.format_elt(self)})"


class Oracle:
    """Envelope of g tensor A with exact normal form; g of type A, A a monomial algebra."""

    def __init__(self, datum, algebra):
        self.datum = datum
        self.algebra = algebra
        self.table = ChevalleyTable(datum)
        self._insert_cache = {}
        self._insert_mod_cache = {}
        self._bracket_cache = {}

    # -- letters and constructors -------------------------------------------

    def letter(self, block, idx, exps):
        self.algebra.validate(exps)
        return (block, idx, self.algebra.deg(exps), exps)

    def zero(self):
        return OracleElt(self, {})

    def one(self):
        return OracleElt(self, {(): 1})

    def x_plus(self, root_idx, exps):
        return OracleElt(self, {(self.letter(RAISE, root_idx, exps),): 1})

    def x_minus(self, root_idx, exps):
        return OracleElt(self, {(self.letter(LOWER, root_idx, exps),): 1})

    def h(self, node, exps):
        return OracleElt(self, {(self.letter(CARTAN, node, exps),): 1})

    # -- Lie bracket ----------------------------------------------------------

    def bracket_letters(self, l1, l2):
        """[l1, l2] as a tuple of (letter, int)."""
        key = (l1, l2)
        got = self._bracket_cache.get(key)
        if got is None:
            exps = self.algebra.mul(l1[3], l2[3])
            got = tuple((self.letter(g[0], g[1], exps), c)
                        for g, c in self.table.bracket((l1[0], l1[1]), (l2[0], l2[1])))
            self._bracket_cache[key] = got
        return got

    def lie_bracket(self, e1, e2):
        """Bracket of two degree-one elements (single-letter combinations)."""
        out = {}
        for w1, c1 in e1.terms.items():
            for w2, c2 in e2.terms.items():
                if len(w1) != 1 or len(w2) != 1:
                    raise ValueError("lie_bracket takes Lie elements, not envelope products")
                vec_add_scaled(out, {(z,): cz for z, cz in self.bracket_letters(w1[0], w2[0])},
                               c1 * c2)
        return OracleElt(self, out, e1.den * e2.den)

    # -- normal form ----------------------------------------------------------

    def _fold(self, insert, word, part):
        """Normal form of word * part, part a dict normal word -> int.

        Folds the letters of word into part right to left with insert (an
        `_insert*` method).  Never writes into part or into a cached value; an
        empty word returns part itself, so callers only read the result.
        """
        for x in reversed(word):
            nxt = {}
            for w, c in part.items():
                # the hottest loop of the package, kept inline: a vec_add_scaled
                # call per word made local_weyl 0.3% slower in 7 of 8 bench pairs
                # and identity_sweep no faster
                for wz, cz in insert(x, w).items():
                    s = nxt.get(wz, 0) + c * cz
                    if s:
                        nxt[wz] = s
                    else:
                        del nxt[wz]
            part = nxt
        return part

    def _insert(self, x, word):
        """Normal form of x * word (word already normal); dict word -> int."""
        if not word or x <= word[0]:
            return {(x,) + word: 1}
        got = self._insert_cache.get((x, word))
        if got is None:
            got = self._commute(self._insert, self._insert_cache, x, word)
        return got

    def _insert_mod(self, x, word):
        """Normal form of x * word modulo U·n+, word normal and raising-free."""
        if x[0] != RAISE:
            return self._insert(x, word)  # stays raising-free
        if not word:
            return {}
        got = self._insert_mod_cache.get((x, word))
        if got is None:
            got = self._commute(self._insert_mod, self._insert_mod_cache, x, word)
        return got

    def _commute(self, insert, cache, x, word):
        """Memoize x y rest = y (x rest) + [x, y] rest, x > y = word[0] not raising."""
        y, rest = word[0], word[1:]
        out = self._fold(self._insert, (y,), insert(x, rest))
        for z, cz in self.bracket_letters(x, y):
            vec_add_scaled(out, insert(z, rest), cz)
        cache[(x, word)] = out
        return out

    def nf_word(self, word):
        """Normal form of an arbitrary word as an OracleElt."""
        return OracleElt(self, self._fold(self._insert, tuple(word), {(): 1}))

    def mul(self, e1, e2):
        return self._product(self._insert, e1, e2.terms, e2.den)

    def mul_mod_raising(self, e1, e2):
        """e1 * e2 modulo the left ideal U·n+: the raising-free part of e1 * e2."""
        part = {w: c for w, c in e2.terms.items() if not w or w[-1][0] != RAISE}
        return self._product(self._insert_mod, e1, part, e2.den)

    def _product(self, insert, e1, part, den):
        # the fold is linear: each left word goes into the whole right factor
        out = {}
        for w1, c1 in e1.terms.items():
            vec_add_scaled(out, self._fold(insert, w1, part), c1)
        return OracleElt(self, out, e1.den * den)

    # -- formatting -----------------------------------------------------------

    def format_letter(self, l):
        block, idx, _deg, exps = l
        b = self.algebra.format(exps)
        if block == CARTAN:
            return f"h{idx + 1}({b})"
        name = "f" if block == LOWER else "e"
        return f"{name}({self.datum.format_root(idx)},{b})"

    def format_elt(self, e):
        if not e.terms:
            return "0"
        bits = []
        for w in sorted(e.terms, key=lambda w: (len(w), w)):
            c = Fraction(e.terms[w], e.den)
            body = "*".join(self.format_letter(l) for l in w) if w else "1"
            bits.append(f"{c}*{body}" if w else f"{c}")
        return " + ".join(bits)


_ORACLE_CACHE = {}


def get_oracle(datum, algebra):
    """Shared Oracle instance per (type, coefficient algebra): memo caches persist."""
    key = (datum.series, datum.rank, algebra.kind, algebra.nvars)
    if key not in _ORACLE_CACHE:
        _ORACLE_CACHE[key] = Oracle(datum, algebra)
    return _ORACLE_CACHE[key]
