"""Tests of the benchmark itself:  python3 -m pytest -q bench/test_bench.py"""
from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, package_modules  # noqa: E402


def _namespaces():
    import hyperweyl.cli  # noqa: F401  (with the package, loads every module)
    from hyperweyl.coeffalg import CoeffAlgebra
    from hyperweyl.oracle import Oracle
    from hyperweyl.scalars import RowSpace
    spaces = {m.__name__: vars(m) for m in package_modules()}
    for cls in (Oracle, RowSpace, CoeffAlgebra):
        spaces[cls.__qualname__] = cls.__dict__
    return {name: dict(ns) for name, ns in spaces.items()}


def test_tracer_restores_every_attribute():
    before = _namespaces()
    import hyperweyl
    import hyperweyl.cli as cli
    import hyperweyl.hyper as hyper
    import hyperweyl.weyl as weyl

    collect = hyper.collect
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for ns in (hyper, weyl, cli, hyperweyl):
            assert ns.collect is not collect and ns.collect.__wrapped__ is collect
        datum = hyperweyl.build_root_datum("A", 1)
        res = hyperweyl.weyl_module_g(datum, (1,))
        assert res.dimension == 2
    finally:
        tracer.uninstall()
    fired = {name for name, _parent, n, *_rest in tracer.rows() if n}
    assert {"weyl.relation_closure", "weyl.apply_relations", "hyper.collect",
            "oracle.mul", "rootdata.build_root_datum"} <= fired
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, ns in before.items():
        assert after[name].keys() == ns.keys(), name
        changed = [k for k, v in ns.items() if after[name][k] is not v]
        assert changed == [], (name, changed)


def test_independent_dimension_formulas():
    assert [child.chari_loktev_dim((m,)) for m in (1, 2, 3)] == [2, 4, 8]
    assert child.chari_loktev_dim((1, 0)) == 3
    assert child.chari_loktev_dim((1, 1)) == 9
    assert child.chari_loktev_dim((2, 0)) == 9
    assert child.evaluation_dim([[2, 7]], 0) == 4
    assert child.evaluation_dim([[2, 7]], 5) == 4  # one point of multiplicity 2
    assert child.evaluation_dim([[1, 2], [3]], 0) == 3 * 3 * 3


def test_child_env_drops_hyperweyl_settings(monkeypatch):
    monkeypatch.setenv("HYPERWEYL_THREADS", "4")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    env = run.child_env()
    assert not any(k.startswith("HYPERWEYL_") for k in env)
    assert "PYTHONPATH" not in env
    assert env["PYTHONHASHSEED"] == "0"


def test_planted_wrong_digest_fails(tmp_path):
    with open(child.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    victim = sorted(ref["identity_sweep"])[0]
    ref["identity_sweep"][victim] = "0" * 64
    planted = tmp_path / "reference.json"
    planted.write_text(json.dumps(ref))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "identity_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--reference", str(planted)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert f"{victim}: digest failed" in proc.stderr


def test_raising_op_is_a_failed_op():
    def run_op():
        raise ZeroDivisionError("planted")
    row = child.run_op(child.Op("boom", run_op, None), {"boom": "0" * 64})
    assert row["ok"] is False and row["digest"] is None
    assert row["error"] == "ZeroDivisionError: planted"


def test_unfired_boundaries_read_zero_but_hit_ratio_is_absent():
    report = {"spans": [["hyper.collect", None, 3, 0.3, 0.2, 0]],
              "missing_spans": [], "mon_cache_growth": 0,
              "ops": [{"working_set": {}}]}
    metrics = run.per_layer(report)
    for count in ("weyl.apply_relations.calls", "weyl.apply_relations.empty_calls",
                  "scalars.rowspace.insert.redundant_calls"):
        assert metrics[count] == (0, "count")
    assert "hyper.expand_monomial.hit_ratio" not in metrics


def test_per_layer_covers_the_manifest():
    """A traced run of a workload that never reaches weyl still reports every metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    report = {"spans": [["hyper.expand_monomial", None, 4, 0.1, 0.1, 0]],
              "missing_spans": [], "mon_cache_growth": 1,
              "ops": [{"working_set": {"oracle.insert_cache.entries": 5,
                                       "oracle.bracket_cache.entries": 2,
                                       "hyper.memo.entries": 7}}]}
    names = set(run.per_layer(report)) | {"trace.overhead_ratio"}
    assert names == {m["name"] for m in manifest["per_layer"]}


def test_weyl_g_workload_passes_traced():
    """weyl_g is not in BENCHMARK.json; this keeps its checks and digests live."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "--workload", "weyl_g",
         "--seed", "1", "--trace"],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [op["name"] for op in report["ops"] if not op["ok"]] == []
    assert run.trace_faults("weyl_g", report) == []
    drop = run.per_layer(report)["hyper.monomial_weight_drop.self_s"][0]
    assert drop > 0.03 * report["wall_s"]
