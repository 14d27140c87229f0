"""One cold benchmark child: a workload's op list, run once in a fresh process.

    python3 bench/child.py --workload local_weyl --seed 7 [--trace] [--setup-only]

The child imports hyperweyl from the checkout's `src/`, builds the workload's
inputs from the seed, runs every op once, checks each result against theory
that does not depend on the closure and against a committed reference digest,
and prints a JSON report as its last stdout line.  It drives the program only
through `hyperweyl.__all__` and `cli.main`; cache sizes are read, never
written.  `run.py` spawns it; running it alone is for debugging.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import sys
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
REFERENCE = os.path.join(BENCH, "reference.json")

# Boundaries each workload must reach in a traced run, and ones it must not.
EXPECTED_SPANS = {
    "local_weyl": ("weyl.relation_closure", "weyl.apply_relations", "hyper.collect",
                   "hyper.expand_monomial", "hyper.monomial_weight_drop", "oracle.mul",
                   "scalars.rowspace.insert", "coeffalg.mul", "rootdata.build_root_datum"),
    "weyl_g": ("weyl.relation_closure", "weyl.apply_relations", "hyper.collect",
               "hyper.expand_monomial", "hyper.monomial_weight_drop", "oracle.mul",
               "scalars.rowspace.insert", "rootdata.build_root_datum"),
    "identity_sweep": ("cli.main", "hyper.verify_identity", "hyper.collect",
                       "hyper.expand_monomial", "oracle.mul", "coeffalg.mul",
                       "rootdata.build_root_datum"),
}
FORBIDDEN_SPANS = {
    "local_weyl": ("cli.main", "hyper.verify_identity"),
    "weyl_g": ("cli.main", "hyper.verify_identity"),
    "identity_sweep": ("weyl.relation_closure", "weyl.apply_relations"),
}


# -- independent dimension formulas -------------------------------------------

def chari_loktev_dim(lam):
    """dim of the graded local Weyl module of sl_{r+1} ⊗ F[t] at weight lam.

    prod_i C(r+1, i)^lam_i (Chari-Loktev, Adv. Math. 207, 2006); it holds for
    hyperalgebras in every characteristic (Jakelic-Moura, Pacific J. Math.
    233, 2007).
    """
    r = len(lam)
    return math.prod(math.comb(r + 1, i + 1) ** m for i, m in enumerate(lam))


def evaluation_dim(points, char):
    """dim of the evaluation module: the product of local dimensions over points.

    Points are grouped by value in the field (mod char); the local module at
    a point carries the weight counting each node's parameters there.
    """
    at = Counter()
    for i, pts in enumerate(points):
        for a in pts:
            at[(a % char if char else a, i)] += 1
    values = {a for a, _i in at}
    return math.prod(chari_loktev_dim([at[(a, i)] for i in range(len(points))])
                     for a in values)


# -- ops --------------------------------------------------------------------------

class Op:
    """One op: `run` is the timed call; `finish(result)` gives (JSON text, check ok)."""

    def __init__(self, name, run, finish, slack=2):
        self.name = name
        self.run = run
        self.finish = finish
        self.slack = slack  # initial window slack of a closure op


def _canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _closure_op(hw, name, datum, lam, algebra, ev, expect, slack=2, max_slack=8):
    """A relation_closure op checked against an independent dimension.

    A window that did not stabilize has found only part of the relations, so
    its dimension bounds the true one from above.
    """
    def run():
        window = hw.default_window(datum, lam, slack=slack)
        return hw.relation_closure(datum, lam, algebra, ev, window=window,
                                   max_slack=max_slack)

    def finish(res):
        ok = res.dimension == expect if res.stabilized else res.dimension >= expect
        return _canonical(hw.result_to_json(res)), ok
    return Op(name, run, finish, slack)


def local_weyl_ops(hw, seed):
    A1, A2 = hw.build_root_datum("A", 1), hw.build_root_datum("A", 2)
    P1, P2 = hw.CoeffAlgebra("poly", 1), hw.CoeffAlgebra("poly", 2)
    points = [random.Random(seed).sample(range(1, 10), 2)]
    # the CLI's degree rule for points presets: far beyond any window explored
    table = hw.evaluation_table((2,), points, 64 + 8 * (1 + 8))
    ops = [
        _closure_op(hw, "A1_3_graded_c5", A1, (3,), P1,
                    hw.EvalData(lam=(3,), char=5), chari_loktev_dim((3,))),
        _closure_op(hw, "A1_2_graded_c5", A1, (2,), P1,
                    hw.EvalData(lam=(2,), char=5), chari_loktev_dim((2,))),
        # weight 1 of sl_2 is minuscule: over any polynomial algebra each
        # (x^- ⊗ a)w with a in the augmentation ideal is a highest-weight
        # vector of weight -1, hence zero, so the module is V(1) of dim 2.
        _closure_op(hw, "A1_1_poly2_c0", A1, (1,), P2,
                    hw.EvalData(lam=(1,)), A1.weyl_dimension((1,)), slack=1),
        # slack 1: at slack 2 the window loop, not the envelope, takes a
        # quarter of this op, which is weyl_g's concern, not this workload's
        _closure_op(hw, "A2_10_graded_c0", A2, (1, 0), P1,
                    hw.EvalData(lam=(1, 0)), chari_loktev_dim((1, 0)), slack=1),
    ]
    for char in (0, 5):
        ops.append(_closure_op(hw, f"A1_2_eval_c{char}", A1, (2,), P1,
                               hw.EvalData(lam=(2,), char=char, c=table),
                               evaluation_dim(points, char)))
    # the deepening op: in char 3 consecutive slacks 1, 2, 3 all disagree
    # (dims 10 at slack 2, 9 at slack 3, 8 from slack 4 on), so the closure
    # deepens to the 924-monomial window and stops unstable at max_slack
    ops.append(_closure_op(hw, "A1_3_graded_c3_deepen", A1, (3,), P1,
                           hw.EvalData(lam=(3,), char=3), chari_loktev_dim((3,)),
                           slack=1, max_slack=3))
    return ops


def weyl_g_ops(hw, seed):
    A2, A3 = hw.build_root_datum("A", 2), hw.build_root_datum("A", 3)
    targets = [(A2, (a, b)) for a in range(3) for b in range(3) if a or b]
    targets += [(A2, (1, 3)), (A2, (3, 1)), (A3, (1, 0, 1))]
    ops = []
    for datum, lam in targets:
        def finish(res, datum=datum, lam=lam):
            ok = (res.dimension == datum.weyl_dimension(lam)
                  and hw.character_check(res, datum))
            return _canonical(hw.result_to_json(res)), ok
        for char in (0, 2, 3, 5):
            def run(datum=datum, lam=lam, char=char):
                return hw.weyl_module_g(datum, lam, char=char)
            name = f"{datum.type_string()}_{''.join(map(str, lam))}_c{char}"
            ops.append(Op(name, run, finish))
    return ops


def identity_sweep_ops(hw, seed):
    cli = sys.modules["hyperweyl.cli"]
    argvs = []
    for type_string, coeff in (("A2", "poly:2"), ("A1", "poly:1")):
        for ident in hw.IDENTITY_IDS:
            argvs.append((f"verify_{ident}_{type_string}_{coeff}",
                          ["verify", "--id", ident, "--type", type_string,
                           "--coeff", coeff, "--json"]))
    for type_string, coeff in (("A2", "poly:1"), ("A1", "poly:2")):
        argvs.append((f"basis_check_{type_string}_{coeff}",
                      ["basis-check", "--type", type_string, "--coeff", coeff,
                       "--count", "500", "--seed", str(seed), "--json"]))
    def finish(res):
        rc, text = res
        out = json.loads(text)
        ok = rc == 0 and out.get("pass") is True
        if "seed" in out:
            out["seed"] = "<seed>"  # the echoed seed is the only seeded field
        return _canonical(out), ok

    ops = []
    for name, argv in argvs:
        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)  # looked up per call, so a traced main is seen
            return rc, buf.getvalue()
        ops.append(Op(name, run, finish))
    return ops


WORKLOADS = {
    "local_weyl": local_weyl_ops,
    "weyl_g": weyl_g_ops,
    "identity_sweep": identity_sweep_ops,
}


# -- read-only working-set counters ------------------------------------------

def _sizes(module, *names):
    """Summed lengths of the named module-level dicts, or None if one is gone."""
    total = 0
    for name in names:
        d = getattr(module, name, None)
        if not isinstance(d, dict):
            return None
        total += len(d)
    return total


def working_set():
    """Cache sizes now; a counter whose internal is gone reads None (absent)."""
    hyper = sys.modules["hyperweyl.hyper"]
    oracles = getattr(sys.modules["hyperweyl.oracle"], "_ORACLE_CACHE", None)
    counts = {}
    for attr, key in (("_insert_cache", "oracle.insert_cache.entries"),
                      ("_bracket_cache", "oracle.bracket_cache.entries")):
        try:
            counts[key] = sum(len(getattr(o, attr)) for o in oracles.values())
        except (AttributeError, TypeError):
            counts[key] = None
    counts["hyper.mon_cache.entries"] = _sizes(hyper, "_MON_CACHE")
    counts["hyper.memo.entries"] = _sizes(hyper, "_GEN_CACHE", "_MON_CACHE", "_LEAD_CACHE")
    return counts


def closure_counters(res, slack):
    """Pass count and extension-window size, read off a relation_closure result."""
    try:
        # two passes (slack, slack + 1) plus one per deepening step; an
        # unstable result reports the last probe's slack
        passes = res.window.slack - slack + (2 if res.stabilized else 1)
        return {"passes": passes, "ext": len(res.state.ext_set)}
    except AttributeError:
        return {}


def run_op(op, reference):
    """Run and check one op; an op that raises is a failed op, not a dead child."""
    row = {"name": op.name, "check_ok": False, "digest": None, "digest_ok": False}
    t0 = time.perf_counter()
    try:
        res = op.run()
        row["s"] = time.perf_counter() - t0
        text, row["check_ok"] = op.finish(res)
    except Exception as err:  # noqa: BLE001  (counted in `failed`, reported by run.py)
        row.setdefault("s", time.perf_counter() - t0)
        row["error"] = f"{type(err).__name__}: {err}"
    else:
        row["digest"] = hashlib.sha256(text.encode()).hexdigest()
        row["digest_ok"] = reference.get(op.name) == row["digest"]
        row.update(closure_counters(res, op.slack))
    row["ok"] = row["check_ok"] and row["digest_ok"]
    return row


# -- main ---------------------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--reference", default=REFERENCE)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import hyperweyl as hw
    import hyperweyl.cli  # noqa: F401  (cli.main is driven directly)
    if not os.path.abspath(hw.__file__).startswith(src + os.sep):
        sys.exit(f"hyperweyl was imported from {hw.__file__}, not from {src}")

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    ops = WORKLOADS[args.workload](hw, args.seed)
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload, {})
    t_first = time.monotonic()
    report = {"workload": args.workload, "seed": args.seed, "traced": args.trace,
              "t_first_op": t_first, "ops": []}
    if not args.setup_only:
        mon_before = working_set()["hyper.mon_cache.entries"]
        for op in ops:
            row = run_op(op, reference)
            row["working_set"] = working_set()
            report["ops"].append(row)
        report["wall_s"] = sum(row["s"] for row in report["ops"])
        mon_after = working_set()["hyper.mon_cache.entries"]
        report["mon_cache_growth"] = (None if None in (mon_before, mon_after)
                                      else mon_after - mon_before)
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.rows()
        report["missing_spans"] = tracer.missing
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
