"""Command-line frontend: identity sweeps, series expansion, module dimensions.

Exit codes: 0 success / all checks pass, 1 at least one verification failure,
2 usage or input error, 3 result not stabilized and --allow-unstable absent.
"""
from __future__ import annotations

import argparse
import json
import sys

from .coeffalg import CoeffAlgebra
from .hyper import (
    IDENTITY_IDS,
    SweepLimits,
    collect,
    format_monomial,
    hyper_to_json,
    identity_cases,
    lambda_poly,
    verify_identity,
)
from .oracle import get_oracle
from .rootdata import build_root_datum, parse_type_string
from .weyl import (
    EvalData,
    Window,
    default_window,
    evaluation_table,
    relation_closure,
    result_to_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSTABLE = 3


class UsageError(ValueError):
    pass


# -- shared argument plumbing ---------------------------------------------------

def _datum(type_string):
    return build_root_datum(*parse_type_string(type_string))


def _algebra(spec):
    return CoeffAlgebra.from_spec_string(spec)


def _int_tuple(text, n, what):
    try:
        vals = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated integer list")
    if len(vals) != n:
        raise UsageError(f"{what} needs {n} entries, got {len(vals)}")
    return vals


def _require_at_least(args, least, *names):
    for name in names:
        val = getattr(args, name)
        if val is not None and val < least:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {least}")


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


# -- identity sweeps ----------------------------------------------------------------

def _jsonable_params(params):
    return {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()}


def cmd_verify(args):
    _require_at_least(args, 0, "rmax", "smax", "kmax", "lmax", "adeg", "count")
    datum = _datum(args.type)
    algebra = _algebra(args.coeff)
    o = get_oracle(datum, algebra)
    lim = SweepLimits(rmax=args.rmax, smax=args.smax, kmax=args.kmax,
                      lmax=args.lmax, adeg=args.adeg,
                      count=args.count, seed=args.seed)
    ids = list(IDENTITY_IDS) if args.id == "all" else [args.id]
    blocks = []
    total = failures = 0
    for which in ids:
        reports = [verify_identity(o, which, p)
                   for p in identity_cases(o, which, lim)]
        bad = [r for r in reports if not r["pass"]]
        total += len(reports)
        failures += len(bad)
        blocks.append((which, len(reports), bad))
    if args.json:
        _emit({
            "type": datum.type_string(),
            "coeff": algebra.spec_string(),
            "cases": total,
            "pass": failures == 0,
            "identities": [{
                "id": which,
                "cases": n,
                "failures": [{"params": _jsonable_params(r["params"]),
                              "lhs": r["lhs"], "rhs": r["rhs"],
                              "residual": r["residual"]} for r in bad],
            } for which, n, bad in blocks],
        })
    else:
        for which, n, bad in blocks:
            for r in bad:
                print(f"FAIL {which} {r['params']}")
                print(f"  residual: {r['residual']}")
            if len(blocks) > 1:
                word = "all pass" if not bad else f"{len(bad)} failures"
                print(f"{which}: {n} cases, {word}")
        if failures:
            print(f"{total} cases, {failures} failures")
        else:
            print(f"{total} cases, all pass")
    return EXIT_OK if failures == 0 else EXIT_FAIL


# -- series expansion --------------------------------------------------------------

def _fmt_basis_elt(o, h):
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


def cmd_lambda(args):
    datum = _datum(args.type)
    algebra = _algebra(args.coeff)
    o = get_oracle(datum, algebra)
    if not 1 <= args.i <= datum.rank:
        raise UsageError(f"node index must be in 1..{datum.rank}")
    _require_at_least(args, 0, "upto", "r")
    a = algebra.parse(args.a)
    orders = range(args.upto + 1) if args.upto is not None else [args.r]
    rows = [(r, collect(o, lambda_poly(o, args.i - 1, a, r))) for r in orders]
    if args.json:
        _emit({
            "type": datum.type_string(),
            "coeff": algebra.spec_string(),
            "i": args.i,
            "a": algebra.format(a),
            "orders": [{"r": r, "element": hyper_to_json(o, h)}
                       for r, h in rows],
        })
    else:
        for r, h in rows:
            text = _fmt_basis_elt(o, h)
            if len(rows) > 1:
                print(f"r={r}: {text}")
            else:
                print(text)
    return EXIT_OK


# -- module computations ----------------------------------------------------------

def load_eval_table(path, algebra):
    """EvalData from a JSON table file.

    Shape: {"lambda": [2], "c": [{"i": 1, "b": "t^2", "r": 1, "value": "3"}],
    "field": {"char": 5}}.  Node index i is 1-based, b parses through the
    coefficient algebra, value is an integer (string or number).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read eval table: {err}")
    except json.JSONDecodeError as err:
        raise UsageError(f"malformed eval table JSON: {err}")
    try:
        lam = tuple(int(x) for x in data["lambda"])
        field = data.get("field", {})
        if not isinstance(field, dict):
            raise TypeError("field must be an object")
        char = int(field.get("char", 0))
        c = {}
        for entry in data.get("c", []):
            i = int(entry["i"]) - 1
            b = algebra.parse(str(entry["b"]))
            r = int(entry["r"])
            val = int(str(entry["value"]))
            if val:
                c[(i, b, r)] = val
    except (KeyError, TypeError, ValueError) as err:
        raise UsageError(f"bad eval table entry: {err}")
    return EvalData(lam=lam, char=char, c=c)


def _parse_points(text, rank):
    groups = text.split("/")
    if len(groups) != rank:
        raise UsageError(f"points preset needs {rank} node group(s) "
                         "separated by '/'")
    points = []
    for g in groups:
        try:
            points.append([int(x) for x in g.split(",")] if g else [])
        except ValueError:
            raise UsageError("points must be integers")
    return points


def _resolve_window(datum, lam, args):
    base = default_window(datum, lam, slack=args.slack)
    caps = base.exp_caps
    drop = base.drop_cap
    if getattr(args, "exp_caps", None):
        caps = _int_tuple(args.exp_caps, len(datum.pos_roots), "--exp-caps")
    if getattr(args, "drop_cap", None):
        drop = _int_tuple(args.drop_cap, datum.rank, "--drop-cap")
    return Window(caps, drop, args.slack)


def _print_result(res, args):
    if args.json:
        _emit(result_to_json(res))
    else:
        w = res.window
        print(f"type: {res.type_string}")
        print(f"lambda: {','.join(map(str, res.lam))}")
        print(f"coeff: {res.coeff}  char: {res.char}  eval: {res.eval_name}")
        print(f"dimension: {res.dimension}")
        print(f"stabilized: {str(res.stabilized).lower()}  (slack {w.slack})")
        print("character:")
        for mu in sorted(res.character, reverse=True):
            print(f"  {','.join(map(str, mu))}: {res.character[mu]}")
    if not res.stabilized and not args.allow_unstable:
        print("result did not stabilize; rerun with a larger --max-slack "
              "or pass --allow-unstable", file=sys.stderr)
        return EXIT_UNSTABLE
    return EXIT_OK


def cmd_weyl(args):
    datum = _datum(args.type)
    lam = _int_tuple(args.lam, datum.rank, "--lambda")
    window = _resolve_window(datum, lam, args)
    ev = EvalData(lam=lam, char=args.char)
    res = relation_closure(datum, lam, CoeffAlgebra("poly", 0), ev,
                           window=window, max_slack=args.max_slack)
    return _print_result(res, args)


def cmd_local_weyl(args):
    datum = _datum(args.type)
    algebra = _algebra(args.coeff)
    if args.eval_table:
        ev = load_eval_table(args.eval_table, algebra)
        lam = ev.lam
        if args.lam is not None and _int_tuple(args.lam, datum.rank, "--lambda") != lam:
            raise UsageError("--lambda disagrees with the eval table")
        if args.char is not None and args.char != ev.char:
            raise UsageError("--char disagrees with the eval table")
    else:
        if args.lam is None:
            raise UsageError("--lambda is required without --eval-table")
        lam = _int_tuple(args.lam, datum.rank, "--lambda")
        char = args.char if args.char is not None else 0
        if args.eval == "graded":
            ev = EvalData(lam=lam, char=char)
        elif args.eval.startswith("points:"):
            if algebra.spec_string() != "poly:1":
                raise UsageError("points preset needs --coeff poly:1")
            window = _resolve_window(datum, lam, args)
            degree = 64 + 8 * (max(window.exp_caps, default=0) + args.max_slack)
            points = _parse_points(args.eval[len("points:"):], datum.rank)
            ev = EvalData(lam=lam, char=char,
                          c=evaluation_table(lam, points, degree))
        else:
            raise UsageError("--eval must be 'graded' or 'points:...'")
    window = _resolve_window(datum, lam, args)
    res = relation_closure(datum, lam, algebra, ev, window=window,
                           max_slack=args.max_slack)
    return _print_result(res, args)


def cmd_basis_check(args):
    _require_at_least(args, 0, "count", "max_deg")
    _require_at_least(args, 1, "max_k", "max_len")
    datum = _datum(args.type)
    algebra = _algebra(args.coeff)
    o = get_oracle(datum, algebra)
    params = {"count": args.count, "seed": args.seed, "max_k": args.max_k,
              "max_deg": args.max_deg, "max_len": args.max_len}
    rep = verify_identity(o, "gAforms_integrality", params)
    if args.json:
        _emit({
            "type": datum.type_string(),
            "coeff": algebra.spec_string(),
            "count": args.count,
            "seed": args.seed,
            "pass": rep["pass"],
            "failure": rep["residual"],
        })
    elif rep["pass"]:
        print(f"{args.count} random products: integer coefficients, "
              "exact round-trip")
    else:
        print(f"FAIL: {rep['residual']}")
    return EXIT_OK if rep["pass"] else EXIT_FAIL


# -- parser ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--type", default="A1", help="simple type, e.g. A1, A2")
    sp.add_argument("--json", action="store_true", help="emit JSON")


def _add_window(sp):
    sp.add_argument("--slack", type=int, default=2,
                    help="initial window slack (default 2)")
    sp.add_argument("--max-slack", type=int, default=8,
                    help="largest slack any pass uses, at least --slack; "
                    "equal to --slack runs one unconfirmed pass (default 8)")
    sp.add_argument("--exp-caps", help="per-root coefficient exponent caps, "
                    "comma list")
    sp.add_argument("--drop-cap", help="weight-drop cap in simple-root "
                    "coordinates, comma list")
    sp.add_argument("--allow-unstable", action="store_true",
                    help="exit 0 even when the result did not stabilize")


def build_parser():
    p = argparse.ArgumentParser(
        prog="hyperweyl",
        description="Exact hyperalgebra computations for map algebras: "
                    "straightening identities, Garland series, Weyl modules.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="sweep a straightening identity")
    _add_common(v)
    v.add_argument("--id", default="all",
                   help=f"identity id or 'all' ({', '.join(IDENTITY_IDS)})")
    v.add_argument("--coeff", default="poly:1",
                   help="coefficient algebra spec (default poly:1)")
    v.add_argument("--rmax", type=int, default=3)
    v.add_argument("--smax", type=int, default=3)
    v.add_argument("--kmax", type=int, default=3)
    v.add_argument("--lmax", type=int, default=3)
    v.add_argument("--adeg", type=int, default=3,
                   help="coefficient degree bound (default 3)")
    v.add_argument("--count", type=int, default=100,
                   help="random products for the integrality check")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify)

    l = sub.add_parser("lambda", help="expand a Garland series coefficient")
    _add_common(l)
    l.add_argument("--coeff", default="poly:1")
    l.add_argument("--i", type=int, default=1, help="node index, 1-based")
    l.add_argument("--a", default="t", help="coefficient basis element")
    l.add_argument("--r", type=int, default=1, help="series order")
    l.add_argument("--upto", type=int, help="print all orders 0..UPTO instead")
    l.set_defaults(fn=cmd_lambda)

    w = sub.add_parser("weyl", help="Weyl module of the simple algebra")
    _add_common(w)
    w.add_argument("--lambda", dest="lam", required=True,
                   help="dominant weight, comma list")
    w.add_argument("--char", type=int, default=0)
    _add_window(w)
    w.set_defaults(fn=cmd_weyl)

    lw = sub.add_parser("local-weyl", help="local Weyl module of a map algebra")
    _add_common(lw)
    lw.add_argument("--coeff", default="poly:1")
    lw.add_argument("--lambda", dest="lam",
                    help="dominant weight, comma list")
    lw.add_argument("--char", type=int)
    lw.add_argument("--eval", default="graded",
                    help="'graded' or 'points:a,b/...' per node")
    lw.add_argument("--eval-table", help="JSON series-scalar table file")
    _add_window(lw)
    lw.set_defaults(fn=cmd_local_weyl)

    b = sub.add_parser("basis-check",
                       help="random straighten/round-trip integrality sweep")
    _add_common(b)
    b.add_argument("--coeff", default="poly:1")
    b.add_argument("--count", type=int, default=100)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--max-k", type=int, default=3)
    b.add_argument("--max-deg", type=int, default=2)
    b.add_argument("--max-len", type=int, default=3)
    b.set_defaults(fn=cmd_basis_check)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    try:
        return args.fn(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
