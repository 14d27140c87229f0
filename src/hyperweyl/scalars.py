"""Exact scalars and sparse linear algebra over Q and prime fields.

Scalars are plain Python ints (arbitrary precision) and `fractions.Fraction`.
A `RowSpace` over Q holds `Fraction` entries; one over F_p holds each entry
as its residue, a plain int in [1, p).  No floating point anywhere: every
rank, dimension and coefficient in this package is computed exactly.
"""
from __future__ import annotations

from fractions import Fraction


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


def _frac_mod_p(q, p):
    if q.denominator % p == 0:
        raise NotPIntegralError(f"{q} is not p-integral at p={p}")
    return q.numerator * pow(q.denominator % p, -1, p) % p


def _coerce(c, p):
    """An int or Fraction as a Fraction (p = 0) or as its residue in [0, p)."""
    if isinstance(c, int):
        return c % p if p else Fraction(c)
    if isinstance(c, Fraction):
        return _frac_mod_p(c, p) if p else c
    raise TypeError(f"unsupported scalar {type(c).__name__}")


def reduce_mod_p(vec, p):
    """Entrywise residues in [1, p) of a sparse vector, dropping zeros.

    Raises NotPIntegralError if any denominator is divisible by p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return {label: r for label, c in vec.items() if (r := _coerce(c, p))}


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


def _vec_add_scaled_mod(acc, vec, c, p):
    """acc += c * vec over F_p, in place, keeping residues in [1, p)."""
    for label, v in vec.items():
        s = (acc.get(label, 0) + c * v) % p
        if s:
            acc[label] = s
        else:
            acc.pop(label, None)


class RowSpace:
    """Sparse reduced row-echelon span over Q (char 0) or F_p (char p).

    Rows are dicts label -> scalar: a `Fraction` over Q, a residue int in
    [1, p) over F_p.  Labels are ordered by the `key` callable; the pivot of
    each row is its minimal label and every stored row has pivot coefficient
    1 with support only at labels >= the pivot.
    """

    def __init__(self, char=0, key=None):
        if char != 0 and not is_prime(char):
            raise ValueError(f"characteristic must be 0 or prime, got {char}")
        self.char = char
        self.key = key if key is not None else lambda label: label
        self.rows = {}  # pivot label -> row dict

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Return vec reduced against the current rows (no insertion)."""
        p = self.char
        v = {}
        for label, c in vec.items():
            c = _coerce(c, p)
            if c:
                v[label] = c
        for label in sorted(v, key=self.key):
            c = v.get(label)
            if c and label in self.rows:
                if p:
                    _vec_add_scaled_mod(v, self.rows[label], -c, p)
                else:
                    vec_add_scaled(v, self.rows[label], -c)
        return v

    def insert(self, vec):
        """Reduce vec against the span; adjoin the residue if nonzero.

        Returns the residue (empty dict when vec was already in the span).
        """
        v = self.reduce(vec)
        if not v:
            return v
        p = self.char
        pivot = min(v, key=self.key)
        if p:
            inv = pow(v[pivot], -1, p)
            v = {label: inv * c % p for label, c in v.items()}
        else:
            inv = 1 / v[pivot]
            v = {label: inv * c for label, c in v.items()}
        for row in self.rows.values():
            c = row.get(pivot)
            if c:
                if p:
                    _vec_add_scaled_mod(row, v, -c, p)
                else:
                    vec_add_scaled(row, v, -c)
        self.rows[pivot] = v
        return v

    def contains(self, vec):
        return not self.reduce(vec)
