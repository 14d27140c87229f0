"""Cold-process benchmark of hyperweyl: exact answers, timed from a fresh process.

    python3 bench/run.py --workload local_weyl --seed 7 --seconds 30 --trace 0

Every op list runs in a fresh single-threaded child (`child.py`), because a
user pays the cold-cache cost on every CLI call.  Within `--seconds` the run
first starts a few set-up-only children, then repeats the whole op list in
new children while another one fits.  Each op's time is its median over those
children: `wall_s` is their sum, `op_geomean_ms` their geometric mean.

Workloads (seeded inputs; every op's output is checked, see child.py):
  local_weyl      cold relation_closure over F[t] and F[t1,t2], ending in a
                  deepening op; envelope normal form and collect dominate
  identity_sweep  `hyperweyl verify --id <id> --json` and seeded
                  `basis-check` through cli.main; runs no weyl code
  weyl_g          weyl_module_g sweep over A2/A3 weights in chars 0,2,3,5 on
                  one warm oracle; window loop, weight drops and RowSpace.
                  Not listed in BENCHMARK.json, so that the listed
                  workloads' runs can be long enough to be steady;
                  test_bench.py runs it, so its digests stay checked.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced and
traced children and prints the per-layer metrics of the traced ones, with
`trace.overhead_ratio` = traced wall_s / untraced wall_s - 1.  The last stdout
line is the JSON result; the line before it records the machine and source.
The exit code is 0 only when every op passed its checks.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
sys.path.insert(0, BENCH)

from child import EXPECTED_SPANS, FORBIDDEN_SPANS, REFERENCE, WORKLOADS  # noqa: E402

SETUP_PROBES = 6      # set-up-only children before each op child
HARD_LIMIT_S = 170    # the whole run ends well inside three minutes


class ChildFailed(RuntimeError):
    pass


def child_env():
    """The caller's environment without HYPERWEYL_* and PYTHON* settings.

    HYPERWEYL_THREADS would move sweeps onto a thread pool; a fixed hash
    seed keeps set iteration order, and with it the work done, identical
    from child to child.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("HYPERWEYL_", "PYTHON"))}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONNOUSERSITE"] = "1"
    return env


def run_child(args, *flags, deadline):
    """Spawn one child; its report, with set-up time measured from the spawn."""
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--seed", str(args.seed), "--reference", args.reference, *flags]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise ChildFailed("child exceeded the run's time limit")
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["t_first_op"] - t_spawn
    report["child_s"] = time.monotonic() - t_spawn
    return report


def measure(args):
    """Op children, each after a few set-up probes, while the next fits in --seconds."""
    deadline = time.monotonic() + HARD_LIMIT_S
    run_child(args, "--setup-only", deadline=deadline)  # warm bytecode and page caches
    t0 = time.monotonic()
    kinds = [False, True] if args.trace else [False]
    probes, children = [], []
    while True:
        traced = kinds[len(children) % len(kinds)]
        done = [c["child_s"] + SETUP_PROBES * c["setup_s"]
                for c in children if c["traced"] == traced]
        if len(children) >= len(kinds) and (
                time.monotonic() - t0 + max(done) > args.seconds):
            break
        probes += [run_child(args, "--setup-only", deadline=deadline)
                   for _ in range(SETUP_PROBES)]
        children.append(run_child(args, *(["--trace"] if traced else []),
                                  deadline=deadline))
    return probes, children


# -- metrics -------------------------------------------------------------------

def op_medians(children):
    """Each op's median seconds over the children.

    Each op is timed once per child, at a different moment of the run, so a
    per-op median drops the ops that fell into a slow phase of a shared host.
    """
    times = {}
    for c in children:
        for op in c["ops"]:
            times.setdefault(op["name"], []).append(op["s"])
    return [statistics.median(v) for v in times.values()]


def end_to_end(probes, plain):
    ops = op_medians(plain)
    return {
        "setup_s": (statistics.median(c["setup_s"] for c in probes + plain), "s"),
        "wall_s": (sum(ops), "s"),
        # every op weighs the same; a median over a few ops of very different
        # sizes jumps from one op to the next from run to run
        "op_geomean_ms": (1000 * statistics.geometric_mean(ops), "ms"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in plain), "MB"),
    }


def per_layer(report):
    """Per-layer metrics of one traced child; absent internals are left out."""
    calls, total, self_s, empty = {}, {}, {}, {}
    phase2 = [0, 0.0]
    for name, parent, n, tot, slf, emp in report["spans"]:
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + tot
        self_s[name] = self_s.get(name, 0.0) + slf
        empty[name] = empty.get(name, 0) + emp
        if name == "hyper.collect" and parent == "weyl.relation_closure":
            phase2[0] += n
            phase2[1] += tot

    out = {}
    missing = set(report["missing_spans"])
    for span, key, value, unit in (
            ("oracle.mul", "calls", calls, "count"),
            ("oracle.mul", "self_s", self_s, "s"),
            ("hyper.collect", "calls", calls, "count"),
            ("hyper.collect", "self_s", self_s, "s"),
            ("hyper.expand_monomial", "calls", calls, "count"),
            ("hyper.monomial_weight_drop", "calls", calls, "count"),
            ("hyper.monomial_weight_drop", "self_s", self_s, "s"),
            ("hyper.verify_identity", "calls", calls, "count"),
            ("hyper.verify_identity", "self_s", self_s, "s"),
            ("weyl.relation_closure", "calls", calls, "count"),
            ("weyl.apply_relations", "calls", calls, "count"),
            ("weyl.apply_relations", "s", total, "s"),
            ("weyl.apply_relations", "empty_calls", empty, "count"),
            ("scalars.rowspace.insert", "calls", calls, "count"),
            ("scalars.rowspace.insert", "self_s", self_s, "s"),
            ("scalars.rowspace.insert", "redundant_calls", empty, "count"),
            ("coeffalg.mul", "calls", calls, "count"),
            ("coeffalg.mul", "self_s", self_s, "s"),
            ("rootdata.build_root_datum", "s", total, "s"),
            ("cli.main", "s", total, "s")):
        if span not in missing:
            out[f"{span}.{key}"] = (value.get(span, 0), unit)
    if "hyper.collect" not in missing and "weyl.relation_closure" not in missing:
        out["weyl.phase2.collect.calls"] = (phase2[0], "count")
        out["weyl.phase2.collect.s"] = (phase2[1], "s")
    # a ratio over a boundary that never fired has no value and is left out
    growth = report["mon_cache_growth"]
    n = calls.get("hyper.expand_monomial", 0)
    if growth is not None and n:
        out["hyper.expand_monomial.hit_ratio"] = ((n - growth) / n, "ratio")
    last = report["ops"][-1]["working_set"]
    for key in ("oracle.insert_cache.entries", "oracle.bracket_cache.entries",
                "hyper.memo.entries"):
        if last.get(key) is not None:
            out[key] = (last[key], "count")
    closures = [op for op in report["ops"] if "passes" in op]
    out["weyl.closure.passes"] = (sum(op["passes"] for op in closures), "count")
    out["weyl.window.ext_max"] = (max((op["ext"] for op in closures), default=0), "count")
    return out


def trace_faults(workload, report):
    """Expected boundaries that never fired, and forbidden ones that did."""
    fired = {name for name, _parent, n, *_rest in report["spans"] if n}
    faults = [f"{name} never fired" for name in EXPECTED_SPANS[workload]
              if name not in fired and name not in report["missing_spans"]]
    faults += [f"{name} fired" for name in FORBIDDEN_SPANS[workload] if name in fired]
    return faults


def source_loc():
    out = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hyperweyl", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            out[os.path.basename(path)[:-3]] = sum(1 for _ in fh)
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=REFERENCE,
                   help="reference digests (default: bench/reference.json)")
    args = p.parse_args(argv)

    try:
        probes, children = measure(args)
    except (ChildFailed, ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    op_rows = [op for c in children for op in c["ops"]]
    failures = [f"{c['workload']}/{op['name']}: " + (
                    f"raised {op['error']}" if "error" in op
                    else f"{'check' if not op['check_ok'] else 'digest'} failed")
                for c in children for op in c["ops"] if not op["ok"]]
    if len({tuple(op["digest"] for op in c["ops"]) for c in children}) > 1:
        failures.append("op digests differ between children (traced or not)")
    if args.trace:
        for c in traced:
            failures += trace_faults(args.workload, c)
        layers = [per_layer(c) for c in traced]
        metrics = {key: (statistics.median(m[key][0] for m in layers), unit)
                   for key, (_v, unit) in layers[0].items()
                   if all(key in m for m in layers)}
        metrics["trace.overhead_ratio"] = (
            sum(op_medians(traced)) / sum(op_medians(plain)) - 1, "ratio")
    else:
        metrics = end_to_end(probes, plain)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)

    meta = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "source_loc": source_loc(),
        "workload": args.workload,
        "seed": args.seed,
        "children": len(children),
        "setup_samples": len(probes) + len(plain),
        "op_samples": sum(len(c["ops"]) for c in plain),
        "ops_per_child": len(children[0]["ops"]),
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(op_rows),
        "failed": sum(1 for op in op_rows if not op["ok"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
