"""Rational PBW oracle for the universal envelope of g tensor a coefficient algebra.

Basis vectors of g are Chevalley generators of a simply-laced type (A, D, E),
with structure constants read off the root datum; a Lie word is a tuple of
letters, each one int (`Oracle.letter`, decoded by `Oracle.letter_fields`)
packing FIELD_BITS-wide fields, most significant first,

    block, idx, deg, exps

with block 0 = lowering x^-_alpha, 1 = Cartan h_i, 2 = raising x^+_alpha,
idx the positive-root (or node) index, deg the grading degree and exps the
coefficient-algebra basis element tensored on (Laurent exponents offset by
2^63).  Integer order of letters is exactly the PBW order: lowering, then
Cartan, then raising, each block by (index, graded basis order).

Normal form is the naive rewriting x y -> y x + [x, y] applied until every
word is weakly increasing.  One fold does all of it: `Oracle._fold` inserts
the letters of a word right to left into a sparse combination of normal
words, and the memoized `_insert` of one letter into a normal word is itself
a one-letter fold plus bracket terms.  Pairs already in order are not
folded: a product concatenates normal words w1, w2 with w1[-1] <= w2[0], and
the fold prepends x <= w[0] in place.  `mul_mod_raising` folds modulo the
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
FIELD_BITS = 64  # width of each letter field


class ChevalleyTable:
    """Integer structure constants of the Chevalley basis, types A, D and E.

    Read off the root datum with one sign rule (Kac, Infinite-dimensional Lie
    algebras, 7.8; Frenkel-Kac 1980).  With x^+_b = E_b and x^-_b = -E_{-b},

        [E_a, E_b] = eps(a, b) E_{a+b} when a + b is a root,
        [E_a, E_{-a}] = -h_a,  [E_a, h_i] = -a(h_i) E_a,  [h, h] = 0,

    where h_a is the coroot of a (h_{-a} = -h_a), so [x^+_b, x^-_b] = h_b.  The
    sign eps is bimultiplicative, with eps(alpha_i, alpha_i) = -1,
    eps(alpha_i, alpha_j) = -1 for adjacent nodes i > j, and +1 otherwise.  On
    type A this is the matrix-unit realization x^+ = E_{ij} (i < j),
    x^- = E_{ji}, h_i = E_{ii} - E_{i+1,i+1}.
    """

    def __init__(self, datum):
        if datum.series not in ("A", "D", "E"):
            raise ValueError("structure constants implemented for simply-laced types only, "
                             f"got {datum.type_string()}")
        self.datum = datum
        n = datum.rank
        odd = [(i, j) for i in range(n) for j in range(i + 1) if datum.cartan[i][j]]
        cartans = [(CARTAN, i) for i in range(n)]
        # each root generator as s * E_a: generator -> (s, a), and a -> (generator, s)
        signed = {}
        for idx, beta in enumerate(datum.pos_roots):
            signed[(RAISE, idx)] = (1, beta)
            signed[(LOWER, idx)] = (-1, tuple(-c for c in beta))
        gen_of = {a: (g, s) for g, (s, a) in signed.items()}
        self._brackets = {(g1, g2): () for g1 in cartans for g2 in cartans}
        for g1, (s1, a) in signed.items():
            for i, h in enumerate(cartans):
                c = datum.root_pairing(a, i)
                self._brackets[(g1, h)] = ((g1, -c),) if c else ()
                self._brackets[(h, g1)] = ((g1, c),) if c else ()
            for g2, (s2, b) in signed.items():
                ab = tuple(x + y for x, y in zip(a, b))
                if not any(ab):  # -s1 s2 h_a = s1 h_beta, beta the positive root of g1
                    got = tuple(((CARTAN, k), s1 * c)
                                for k, c in enumerate(datum.coroots[g1[1]]) if c)
                elif ab in gen_of:
                    g3, s3 = gen_of[ab]
                    # parity, never (-1) ** n: negative roots give negative exponents
                    eps = -1 if sum(a[i] * b[j] for i, j in odd) % 2 else 1
                    got = ((g3, s1 * s2 * s3 * eps),)
                else:
                    got = ()
                self._brackets[(g1, g2)] = got

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
        return self._add_scaled(other, 1)

    def __sub__(self, other):
        return self._add_scaled(other, -1)

    def _add_scaled(self, other, sign):
        if not isinstance(other, OracleElt):
            return NotImplemented
        self._check(other)
        d1, d2 = self.den, other.den
        den = d1 * d2 // math.gcd(d1, d2)
        a, b = den // d1, sign * den // d2  # d2 divides den exactly
        out = vec_add_scaled({w: a * c for w, c in self.terms.items()}, other.terms, b)
        return OracleElt(self.oracle, out, den)

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
    """Envelope of g tensor A with exact normal form; g of type A, D or E, A a monomial algebra."""

    def __init__(self, datum, algebra):
        self.datum = datum
        self.algebra = algebra
        self.table = ChevalleyTable(datum)
        self._insert_cache = {}
        self._insert_mod_cache = {}
        self._bracket_cache = {}
        # closure products that depend only on this envelope, filled by `weyl`
        # and kept across closures: raising chains on lowering monomials,
        # collected Cartan words, collected products of two lowering monomials
        self._chains, self._cartan_collects, self._left_products = {}, {}, {}
        self._lambda_series = {}  # hyper's Λ-series coefficient lists per (coroot, coefficient)
        self._fields, self._codes = {}, {}  # letter -> (block, idx, deg, exps), and back
        # the first Cartan and the first raising letter: block tests are compares
        shift = FIELD_BITS * (2 + algebra.nvars)
        self.first_cartan, self.first_raising = CARTAN << shift, RAISE << shift
        self._offset = 1 << (FIELD_BITS - 1) if algebra.kind == "laurent" else 0

    # -- letters and constructors -------------------------------------------

    def letter(self, block, idx, exps):
        """The letter of block at root (node) idx tensor exps, one int in PBW order;
        ValueError for a bad block or index or a field wider than FIELD_BITS."""
        self.algebra.validate(exps)
        code = self._codes.get((block, idx, exps)) if isinstance(idx, int) else None
        if code is None:
            if block not in (LOWER, CARTAN, RAISE):
                raise ValueError(f"unknown letter block {block!r}")
            n = self.datum.rank if block == CARTAN else len(self.datum.pos_roots)
            if not (isinstance(idx, int) and 0 <= idx < n):
                raise ValueError(f"{'node' if block == CARTAN else 'root'} index {idx} "
                                 f"is outside 0..{n - 1}")
            deg = self.algebra.deg(exps)
            fields = (deg, *(e + self._offset for e in exps))
            if min(fields) < 0 or max(fields) >> FIELD_BITS:
                raise ValueError(f"coefficient {self.algebra.format(exps)} does not fit "
                                 f"the {FIELD_BITS}-bit letter fields")
            code = block << FIELD_BITS | idx
            for f in fields:
                code = code << FIELD_BITS | f
            self._fields[code] = (block, idx, deg, exps)
            self._codes[(block, idx, exps)] = code
        return code

    def letter_fields(self, code):
        """(block, idx, deg, exps) of a letter made by `letter`."""
        return self._fields[code]

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
            (b1, i1, _, e1), (b2, i2, _, e2) = self._fields[l1], self._fields[l2]
            exps = self.algebra.mul(e1, e2)
            got = tuple((self.letter(g[0], g[1], exps), c)
                        for g, c in self.table.bracket((b1, i1), (b2, i2)))
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
                # and identity_sweep no faster.  With int letters Oracle.mul took 1.14-1.20
                # of 3.24-3.43 cProfile s in an identity_sweep child (seed 1; 2 vCPUs,
                # Python 3.11.7), against 1.28-1.42 of 3.46-3.78 with tuple letters
                if w and x <= w[0]:
                    wz = (x,) + w
                    s = nxt.get(wz, 0) + c
                    if s:
                        nxt[wz] = s
                    else:
                        del nxt[wz]
                    continue
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
        if x < self.first_raising:
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
        part = {w: c for w, c in e2.terms.items() if not w or w[-1] < self.first_raising}
        return self._product(self._insert_mod, e1, part, e2.den)

    def _product(self, insert, e1, part, den):
        # the fold is linear: each left word goes into the whole right factor.
        # w1 + w2 is already normal when w1[-1] <= w2[0]; an empty w1 reads as
        # -1, below every letter.  An empty w2 behind a nonempty w1 is folded,
        # since modulo U·n+ that drops a w1 ending in a raising letter
        out = {}
        for w1, c1 in e1.terms.items():
            last, rest = w1[-1] if w1 else -1, {}
            for w2, c2 in part.items():
                if (w2[0] if w2 else -1) >= last:
                    w = w1 + w2
                    s = out.get(w, 0) + c1 * c2
                    if s:
                        out[w] = s
                    else:
                        del out[w]
                else:
                    rest[w2] = c2
            if rest:
                vec_add_scaled(out, self._fold(insert, w1, rest), c1)
        return OracleElt(self, out, e1.den * den)

    # -- formatting -----------------------------------------------------------

    def format_letter(self, l):
        block, idx, _deg, exps = self._fields[l]
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
