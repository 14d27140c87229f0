"""Outside-in span tracing of hyperweyl's layer boundaries.

The tracer wraps public functions and methods of the package from the outside:
each wrapped function is rebound in every hyperweyl namespace that holds it
(`collect` lives in `hyper`, `weyl`, `cli` and the package itself, and `hyper`'s
own calls resolve through `hyper`'s globals), and each wrapped method is
replaced on its class.  No source file of the package changes.

Spans are aggregated in memory per (span, parent) as calls, inclusive seconds,
self seconds (inclusive minus the time covered by child spans) and empty
results; `Oracle.mul` alone fires hundreds of thousands of times in one
closure, so nothing is recorded per call.
"""
from __future__ import annotations

import importlib
import sys
import time

# (span name, module, attribute); "Class.method" names a method.
BOUNDARIES = (
    ("oracle.mul", "hyperweyl.oracle", "Oracle.mul"),
    ("hyper.collect", "hyperweyl.hyper", "collect"),
    ("hyper.expand_monomial", "hyperweyl.hyper", "expand_monomial"),
    ("hyper.monomial_weight_drop", "hyperweyl.hyper", "monomial_weight_drop"),
    ("hyper.verify_identity", "hyperweyl.hyper", "verify_identity"),
    ("weyl.relation_closure", "hyperweyl.weyl", "relation_closure"),
    ("weyl.apply_relations", "hyperweyl.weyl", "apply_relations"),
    ("scalars.rowspace.insert", "hyperweyl.scalars", "RowSpace.insert"),
    ("coeffalg.mul", "hyperweyl.coeffalg", "CoeffAlgebra.mul"),
    ("rootdata.build_root_datum", "hyperweyl.rootdata", "build_root_datum"),
    ("cli.main", "hyperweyl.cli", "main"),
)


def package_modules():
    """Every loaded hyperweyl module, the package namespace included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hyperweyl" or name.startswith("hyperweyl."))]


class Tracer:
    def __init__(self):
        self.spans = {}      # (name, parent name or None) -> [calls, total_s, self_s, empty]
        self.missing = []    # boundaries whose target no longer exists
        self._stack = []     # [name, seconds covered by child spans]
        self._undo = []      # (namespace object, attribute, original)

    def _wrap(self, name, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent is not None else None)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if not out:
                rec[3] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = package_modules()
        for name, modname, attr in BOUNDARIES:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(name)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                fn = getattr(cls, "__dict__", {}).get(meth)
                if fn is None:
                    self.missing.append(name)
                    continue
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, fn)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._undo.append((m, key, fn))
                        setattr(m, key, wrapped)

    def uninstall(self):
        while self._undo:
            target, key, orig = self._undo.pop()
            setattr(target, key, orig)

    def rows(self):
        """[name, parent, calls, total_s, self_s, empty] per (span, parent)."""
        return [[name, parent, *rec] for (name, parent), rec in sorted(
            self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]
