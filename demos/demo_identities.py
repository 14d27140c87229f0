"""Verifying the straightening identities against the enveloping-algebra oracle.

Each identity states that two differently-built expressions agree inside the
enveloping algebra of g tensor A.  The oracle multiplies words letter by letter
with exact rational arithmetic and knows nothing about divided-power bases, so
agreement is strong evidence the symbolic side is right.
"""
from hyperweyl import CoeffAlgebra, build_root_datum, get_oracle, verify_identity
from hyperweyl.hyper import SweepLimits, identity_cases

datum = build_root_datum("A", 2)
algebra = CoeffAlgebra("poly", 1)
o = get_oracle(datum, algebra)

print("== One raising-past-lowering case in detail ==")
rep = verify_identity(o, "basicrel", {"alpha": 2, "a": algebra.parse("t"),
                                      "b": algebra.parse("1"), "r": 1, "s": 2})
print(f"parameters: {rep['params']}")
print(f"residual = {rep['residual']}   pass = {rep['pass']}")
# both sides are formatted only for a failing case
assert rep["pass"] and "lhs" not in rep

print()
print("== Power reduction of the series coefficients at t^k ==")
rep = verify_identity(o, "a_k_reduction",
                      {"i": 0, "a": algebra.parse("t"), "k": 2, "r": 2})
print("L(1,t^2,2) rewrites through L(1,t,s) with integer weights:")
for parts, c in sorted(rep["reduction"].items()):
    print(f"  orders ({parts}): coefficient {c}")
assert rep["pass"]

print()
print("== Full default sweep, A2 over F[t] ==")
lim = SweepLimits()
total = 0
for which in ("basicrel", "commutrels1", "commutrels2", "commutrels3",
              "commutrels4", "commutrels5", "a_k_reduction"):
    cases = identity_cases(o, which, lim)
    bad = sum(not verify_identity(o, which, p)["pass"] for p in cases)
    print(f"{which:15s} {len(cases):5d} cases  {bad} failures")
    assert bad == 0
    total += len(cases)
print(f"total: {total} cases, all pass")
