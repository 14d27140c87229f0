"""Exact scalars and sparse linear algebra over Q and prime fields.

Scalars are plain Python ints (arbitrary precision), `fractions.Fraction`,
or `FpElt` residues.  No floating point anywhere: every rank, dimension and
coefficient in this package is computed exactly.
"""
from __future__ import annotations

import math
from fractions import Fraction


class FieldMismatchError(ValueError):
    """Raised when scalars from different prime fields (or Q and F_p) are mixed."""


class NotPIntegralError(ValueError):
    """Raised when a rational with denominator divisible by p is reduced mod p."""


def is_prime(n):
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10**24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElt:
    """An element of F_p.  Arithmetic checks that both operands share one p."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _match(self, other):
        if isinstance(other, FpElt):
            if other.p != self.p:
                raise FieldMismatchError(f"mixed prime fields p={self.p} and p={other.p}")
            return other.val
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            return _frac_mod_p(other, self.p)
        raise FieldMismatchError(f"cannot mix F_{self.p} with {type(other).__name__}")

    def __add__(self, other):
        return FpElt(self.val + self._match(other), self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return FpElt(self.val - self._match(other), self.p)

    def __rsub__(self, other):
        return FpElt(self._match(other) - self.val, self.p)

    def __mul__(self, other):
        return FpElt(self.val * self._match(other), self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._match(other)
        if v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElt(self.val * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        if self.val == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElt(self._match(other) * pow(self.val, -1, self.p), self.p)

    def __neg__(self):
        return FpElt(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElt):
            return self.p == other.p and self.val == other.val
        if isinstance(other, (int, Fraction)):
            return self.val == self._match(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"{self.val} (mod {self.p})"


def _frac_mod_p(q, p):
    if q.denominator % p == 0:
        raise NotPIntegralError(f"{q} is not p-integral at p={p}")
    return q.numerator * pow(q.denominator % p, -1, p) % p


def scalar_mod_p(c, p):
    """Reduce an int or Fraction (or FpElt of the same p) into F_p."""
    if isinstance(c, FpElt):
        if c.p != p:
            raise FieldMismatchError(f"element of F_{c.p} reduced mod {p}")
        return c
    if isinstance(c, int):
        return FpElt(c, p)
    if isinstance(c, Fraction):
        return FpElt(_frac_mod_p(c, p), p)
    raise TypeError(f"cannot reduce {type(c).__name__} mod p")


def reduce_mod_p(vec, p):
    """Entrywise reduction of a sparse vector into F_p, dropping zeros.

    Raises NotPIntegralError if any denominator is divisible by p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = {}
    for label, c in vec.items():
        r = scalar_mod_p(c, p)
        if r:
            out[label] = r
    return out


def rational_binomial(n, k):
    """binomial(n, k) = n(n-1)...(n-k+1)/k! for any integer n, k >= 0.

    The result is always an integer (returned as int).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    num = 1
    for j in range(k):
        num *= n - j
    q, rem = divmod(num, math.factorial(k))
    assert rem == 0
    return q


def vec_add_scaled(acc, vec, c):
    """acc += c * vec, in place, dropping entries that cancel to zero."""
    for label, v in vec.items():
        s = acc.get(label)
        s = c * v if s is None else s + c * v
        if s:
            acc[label] = s
        else:
            acc.pop(label, None)
    return acc


class RowSpace:
    """Sparse reduced row-echelon span over Q (char 0) or F_p (char p).

    Rows are dicts label -> scalar.  Labels are ordered by the `key`
    callable; the pivot of each row is its minimal label and every stored
    row has pivot coefficient 1 with support only at labels >= the pivot.
    """

    def __init__(self, char=0, key=None):
        if char != 0 and not is_prime(char):
            raise ValueError(f"characteristic must be 0 or prime, got {char}")
        self.char = char
        self.key = key if key is not None else lambda label: label
        self.rows = {}  # pivot label -> row dict

    def _coerce(self, c):
        if self.char:
            return scalar_mod_p(c, self.char)
        if isinstance(c, int):
            return Fraction(c)
        if isinstance(c, Fraction):
            return c
        if isinstance(c, FpElt):
            raise FieldMismatchError(f"F_{c.p} element inserted into a char-0 space")
        raise TypeError(f"unsupported scalar {type(c).__name__}")

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Return vec reduced against the current rows (no insertion)."""
        v = {}
        for label, c in vec.items():
            c = self._coerce(c)
            if c:
                v[label] = c
        for label in sorted(v, key=self.key):
            c = v.get(label)
            if c and label in self.rows:
                vec_add_scaled(v, self.rows[label], -c)
        return v

    def insert(self, vec):
        """Reduce vec against the span; adjoin the residue if nonzero.

        Returns the residue (empty dict when vec was already in the span).
        """
        v = self.reduce(vec)
        if not v:
            return v
        pivot = min(v, key=self.key)
        inv = 1 / v[pivot]
        v = {label: inv * c for label, c in v.items()}
        for row in self.rows.values():
            c = row.get(pivot)
            if c:
                vec_add_scaled(row, v, -c)
        self.rows[pivot] = v
        return v

    def contains(self, vec):
        return not self.reduce(vec)


def solve_exact(columns, target):
    """Solve sum_j x_j columns[j] = target over Q; the unique solution as Fractions.

    Columns and target are sparse dicts over mutually comparable row labels.
    Each column carries an indicator label sorted after every row label: a
    pivot on an indicator exposes a dependent column, a residue of the target
    on a row label means no solution, and otherwise the indicator
    coefficients of the reduced target are the negated unknowns.
    """
    space = RowSpace()
    for j, col in enumerate(columns):
        row = {(0, label): c for label, c in col.items()}
        row[(1, j)] = 1
        if min(space.insert(row))[0]:
            raise ValueError("reduction system is underdetermined")
    residue = space.reduce({(0, label): c for label, c in target.items()})
    if any(kind == 0 for kind, _label in residue):
        raise ValueError("reduction system is inconsistent")
    return [-residue.get((1, j), Fraction(0)) for j in range(len(columns))]
