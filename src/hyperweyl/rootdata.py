"""Root systems of the finite simple types: roots, coroots, weights, Weyl orbits.

Conventions.  The Cartan matrix is stored as a[i][j] = <alpha_j, alpha_i^vee>,
i.e. the value of the simple root alpha_j on the simple coroot h_i.  Weights
are tuples of integers in fundamental-weight coordinates (mu[i] = mu(h_i));
roots are tuples of integers in simple-root coordinates.  Everything is exact.
"""
from __future__ import annotations

import re
from fractions import Fraction


def _cartan_matrix(series, rank):
    n = rank
    if n < 1:
        raise ValueError("rank must be >= 1")
    lower = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
    if series not in lower:
        raise ValueError(f"unknown series {series!r}")
    if series in ("E", "F", "G"):
        allowed = {"E": (6, 7, 8), "F": (4,), "G": (2,)}[series]
        if n not in allowed:
            raise ValueError(f"{series}{n} is not a simple type")
    elif n < lower[series]:
        raise ValueError(f"{series}{n} is not a simple type (rank too small)")

    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if series in ("A", "B", "C"):
        for i in range(n - 1):
            link(i, i + 1)
        if series == "B" and n >= 2:
            link(n - 2, n - 1, -1, -2)  # alpha_n short
        if series == "C" and n >= 2:
            link(n - 2, n - 1, -2, -1)  # alpha_n long
    elif series == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif series == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))[: n - 2]:
            link(i, j)
        link(1, 3)
    elif series == "F":
        link(0, 1)
        link(1, 2, -1, -2)  # alpha_3, alpha_4 short
        link(2, 3)
    elif series == "G":
        link(0, 1, -3, -1)  # alpha_1 short
    return tuple(tuple(row) for row in a)


class RootDatum:
    """Positive roots, coroots and weight operations of one simple type."""

    def __init__(self, series, rank):
        self.series = series
        self.rank = rank
        self.cartan = _cartan_matrix(series, rank)
        self.pos_roots, self.coroots = self._positive_roots_and_coroots()
        self.root_index = {r: i for i, r in enumerate(self.pos_roots)}

    def __repr__(self):
        return f"RootDatum({self.series}{self.rank})"

    def type_string(self):
        return f"{self.series}{self.rank}"

    # -- construction ------------------------------------------------------

    def root_pairing(self, beta, i):
        """beta(h_i) for beta in root coordinates."""
        return sum(self.cartan[i][j] * beta[j] for j in range(self.rank))

    def _positive_roots_and_coroots(self):
        # s_i maps beta to beta - beta(h_i) alpha_i and h to h - alpha_i(h) h_i,
        # alpha_i(h) = sum_j h_j cartan[j][i]; s_i h_beta = h_{s_i beta}
        n = self.rank
        roots = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        coroot = dict(zip(roots, roots))  # simple roots and coroots are unit vectors
        for beta in roots:  # the list grows while it is walked
            h = coroot[beta]
            for i in range(n):
                refl = list(beta)
                refl[i] -= self.root_pairing(beta, i)
                refl = tuple(refl)
                if refl not in coroot:
                    hr = list(h)
                    hr[i] -= sum(h[j] * self.cartan[j][i] for j in range(n))
                    coroot[refl] = tuple(hr)
                    roots.append(refl)
        pos = [r for r in coroot if all(c >= 0 for c in r)]
        pos.sort(key=lambda r: (sum(r), tuple(-c for c in r)))
        return tuple(pos), tuple(coroot[r] for r in pos)

    # -- weights -----------------------------------------------------------

    def validate_weight(self, mu):
        if len(mu) != self.rank or not all(isinstance(c, int) for c in mu):
            raise ValueError(f"{mu!r} is not an integral weight of {self.type_string()}")
        return tuple(mu)

    def is_dominant(self, mu):
        return all(c >= 0 for c in mu)

    def pairing(self, mu, idx):
        """mu(h_beta) for a weight mu and the positive root beta of index idx."""
        c = self.coroots[idx]
        return sum(c[i] * mu[i] for i in range(self.rank))

    def simple_reflection(self, i, mu):
        """s_i(mu) = mu - mu(h_i) alpha_i in fundamental-weight coordinates."""
        return tuple(mu[j] - mu[i] * self.cartan[j][i] for j in range(self.rank))

    def weyl_orbit(self, mu):
        """The full Weyl orbit of mu, sorted descending."""
        mu = self.validate_weight(mu)
        seen = {mu}
        frontier = [mu]
        while frontier:
            nxt = []
            for nu in frontier:
                for i in range(self.rank):
                    r = self.simple_reflection(i, nu)
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        return sorted(seen, reverse=True)

    def dominant_representative(self, mu):
        mu = self.validate_weight(mu)
        while True:
            for i in range(self.rank):
                if mu[i] < 0:
                    mu = self.simple_reflection(i, mu)
                    break
            else:
                return mu

    def weight_to_root_coords(self, mu):
        """The x_j of mu = sum x_j alpha_j, as Fractions.

        W acts irreducibly on the Cartan subalgebra, so sum_{beta in Phi}
        beta(v) h_beta = 2 h v with h = 2|Phi+|/rank the Coxeter number; at the
        fundamental coweights this reads h x_j = sum_{beta>0} beta_j mu(h_beta).
        """
        mu = self.validate_weight(mu)
        h = 2 * len(self.pos_roots) // self.rank
        pairs = [self.pairing(mu, idx) for idx in range(len(self.pos_roots))]
        return tuple(Fraction(sum(beta[j] * c for beta, c in zip(self.pos_roots, pairs)), h)
                     for j in range(self.rank))

    def dominance_leq(self, mu, lam):
        """True iff lam - mu is a nonnegative integer combination of simple roots."""
        diff = tuple(l - m for l, m in zip(lam, mu))
        coords = self.weight_to_root_coords(diff)
        return all(c.denominator == 1 and c >= 0 for c in coords)

    def lambda_minus_w0_lambda(self, lam):
        """lam - w0(lam) in simple-root coordinates (integer tuple)."""
        lam = self.validate_weight(lam)
        if not self.is_dominant(lam):
            raise ValueError(f"{lam!r} is not dominant")
        neg_w0 = self.dominant_representative(tuple(-c for c in lam))
        total = tuple(a + b for a, b in zip(lam, neg_w0))
        coords = self.weight_to_root_coords(total)
        assert all(c.denominator == 1 and c >= 0 for c in coords)
        return tuple(int(c) for c in coords)

    def weyl_dimension(self, lam):
        """dim of the irreducible highest-weight module in characteristic 0."""
        lam = self.validate_weight(lam)
        if not self.is_dominant(lam):
            raise ValueError(f"{lam!r} is not dominant")
        num, den = 1, 1
        rho = (1,) * self.rank
        for idx in range(len(self.pos_roots)):
            num *= self.pairing(tuple(l + 1 for l in lam), idx)
            den *= self.pairing(rho, idx)
        q = Fraction(num, den)
        assert q.denominator == 1
        return int(q)

    # -- root formatting (used by the divided-power monomial syntax) --------

    def format_root(self, idx):
        coords = self.pos_roots[idx]
        parts = []
        for i, c in enumerate(coords):
            if c == 0:
                continue
            parts.append(f"a{i + 1}" if c == 1 else f"{c}a{i + 1}")
        return "+".join(parts)


def build_root_datum(series, rank):
    """Root datum for a simple type, e.g. build_root_datum("A", 2)."""
    return RootDatum(series, rank)


def parse_type_string(s):
    m = re.fullmatch(r"([A-G])(\d+)", s.strip())
    if not m:
        raise ValueError(f"bad type string {s!r}")
    return m.group(1), int(m.group(2))
