"""Monomial bases of polynomial and Laurent coefficient algebras.

A basis element of F[t_1..t_m] (or F[t, t^-1] when m = 1) is stored as a bare
exponent tuple of length m; products add exponents.  The algebra object owns
validation, the total order used everywhere for sorting generators, and the
textual syntax "1", "t^3", "t1^2*t2".
"""
from __future__ import annotations

import itertools
import re


class CoeffAlgebra:
    """Monomial basis of F[t_1..t_m] ("poly") or F[t, t^-1] ("laurent").

    m = 0 with kind "poly" is the trivial algebra with basis {1}.
    """

    def __init__(self, kind, nvars):
        if kind not in ("poly", "laurent"):
            raise ValueError(f"unknown coefficient algebra kind {kind!r}")
        if kind == "laurent" and nvars != 1:
            raise ValueError("Laurent coefficients require exactly one variable")
        if nvars < 0:
            raise ValueError("number of variables must be >= 0")
        self.kind = kind
        self.nvars = nvars

    def __eq__(self, other):
        return (isinstance(other, CoeffAlgebra)
                and (self.kind, self.nvars) == (other.kind, other.nvars))

    def __hash__(self):
        return hash((self.kind, self.nvars))

    def __repr__(self):
        return f"CoeffAlgebra({self.kind!r}, {self.nvars})"

    def spec_string(self):
        return f"{self.kind}:{self.nvars}"

    @staticmethod
    def from_spec_string(s):
        m = re.fullmatch(r"(poly|laurent):(\d+)", s)
        if not m:
            raise ValueError(f"bad coefficient algebra spec {s!r}")
        return CoeffAlgebra(m.group(1), int(m.group(2)))

    def unit(self):
        return (0,) * self.nvars

    def validate(self, b):
        if not isinstance(b, tuple) or len(b) != self.nvars:
            raise ValueError(f"{b!r} is not a basis element of {self}")
        negative = False  # reported only once every exponent is an integer
        for e in b:
            if not isinstance(e, int):
                raise ValueError(f"{b!r} has non-integer exponents")
            negative = negative or e < 0
        if negative and self.kind == "poly":
            raise ValueError(f"{b!r} has negative exponents in a polynomial algebra")
        return b

    def mul(self, b1, b2):
        """Product of basis elements (exponent addition)."""
        self.validate(b1)
        self.validate(b2)
        return tuple(x + y for x, y in zip(b1, b2))

    def pow(self, b, k):
        """k-th power of a basis element; k >= 0 (any k for Laurent)."""
        self.validate(b)
        if self.kind == "poly" and k < 0:
            raise ValueError("negative powers leave the polynomial algebra")
        return tuple(k * e for e in b)

    def deg(self, b):
        """Total degree used for grading (|sum of exponents| for Laurent)."""
        s = sum(b)
        return abs(s) if self.kind == "laurent" else s

    def key(self, b):
        """Sort key realizing the graded-lexicographic total order; unit is minimal."""
        return (self.deg(b), b)

    def format(self, b):
        self.validate(b)
        parts = []
        for i, e in enumerate(b):
            if e == 0:
                continue
            name = "t" if self.nvars == 1 else f"t{i + 1}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def parse(self, s):
        s = s.strip()
        if s == "1":
            return self.unit()
        exps = [0] * self.nvars
        for factor in s.split("*"):
            m = re.fullmatch(r"t(\d*)(?:\^(-?\d+))?", factor.strip())
            if not m:
                raise ValueError(f"bad monomial syntax {s!r}")
            idx = int(m.group(1)) - 1 if m.group(1) else 0
            if m.group(1) and self.nvars == 1:
                raise ValueError(f"indexed variable in one-variable algebra: {s!r}")
            if not m.group(1) and self.nvars > 1:
                raise ValueError(f"unindexed variable in {self.nvars}-variable algebra: {s!r}")
            if not 0 <= idx < self.nvars:
                raise ValueError(f"variable index out of range in {s!r}")
            exps[idx] += int(m.group(2)) if m.group(2) else 1
        return self.validate(tuple(exps))

    def monomials_up_to_deg(self, d):
        """All basis elements of total degree at most d, in key order."""
        return [b for b in self.monomials_with_exp_le(d) if self.deg(b) <= d]

    def monomials_with_exp_le(self, cap):
        """All basis elements whose exponents are bounded by cap in absolute value."""
        if cap < 0:
            return []
        if self.kind == "laurent":
            return sorted(((k,) for k in range(-cap, cap + 1)), key=self.key)
        return sorted(itertools.product(range(cap + 1), repeat=self.nvars), key=self.key)


TRIVIAL = CoeffAlgebra("poly", 0)
