"""Run one leastchange CLI invocation with spans around the benchmark's layers.

Usage: python trace_op.py SPANS.json -- <leastchange argv...>

Each function in TRACED is wrapped, and every module-level name bound to it
in any ``leastchange`` module (``cli.count_pertinent``, ``valuesets.determinant``
and so on) is rebound to the wrapper.  Spans (function, start ns, end ns,
parent span) stay in memory and are written to SPANS.json when ``main``
returns, together with the work counters (see ``Tracer.count_scans`` for
the value-set scans).  The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (module, qualified name); the order fixes the function ids in the span file.
TRACED = (
    ("cli", "main"),
    ("enumeration", "count_pertinent"),
    ("enumeration", "has_perfect_matching"),
    ("dags", "is_acyclic"),
    ("dags", "count_dags_by_edges"),
    ("genfunc", "gf_edge_table"),
    ("probability", "family_tables"),
    ("probability", "emit_curve"),
    ("probability", "find_order_violation"),
    ("probability", "ProbabilityPolynomial.evaluate"),
    ("valuesets", "least_determinant"),
    ("valuesets", "least_determinant_binary"),
    ("valuesets", "attaining_matrices"),
    ("valuesets", "attaining_patterns"),
    ("valuesets", "AttainingSet.partition"),
    ("valuesets", "counterexample_report"),
    ("matrices", "determinant"),
    ("matrices", "RationalMatrix.from_rows"),
    ("matrices", "TypeSpec.matrix_from_bits"),
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.seen_tables: set = set()

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fid: int, fn, probe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        signature = inspect.signature(fn) if probe else None

        def traced(*args, **kwargs):
            before = probe.before(self, signature.bind(*args, **kwargs).arguments) if probe else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent)
            if probe:
                probe.after(self, before, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == "leastchange" or name.startswith("leastchange.")
        ]
        for fid, (module, qualname) in enumerate(TRACED):
            owner = getattr(self.package, module)
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            probe = PROBES.get(f"{module}.{qualname}")
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(fid, raw.__func__, probe)))
                continue
            wrapped = self.wrap(fid, raw, probe)
            setattr(owner, attr, wrapped)
            if not outer:
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, name, wrapped)

    def count_scans(self) -> None:
        """Count the work of the cached value-set scans where it is done.

        ``_discrete_scan`` (|X|^m assignments, behind ``least_determinant`` and
        ``attaining_matrices``) and ``_pattern_scan`` (2^m patterns, behind
        ``least_determinant_binary`` and ``attaining_patterns``) are rebound
        to new caches around counting copies, so a scan adds its size each
        time it really runs and a cache hit adds nothing.
        """
        valuesets = self.package.valuesets
        for attr, counter, size in (
            ("_discrete_scan", "valuesets.least_determinant.assignments",
             lambda spec, xset: len(xset.values) ** spec.m),
            ("_pattern_scan", "valuesets.least_determinant_binary.patterns",
             lambda spec: 1 << spec.m),
        ):
            cached = getattr(valuesets, attr)
            setattr(valuesets, attr, functools.lru_cache(**cached.cache_parameters())(
                self._counted(cached.__wrapped__, counter, size)
            ))

    def _counted(self, scan, counter: str, size):
        def counted(*args):
            result = scan(*args)
            self.add(counter, size(*args))
            return result

        return counted

    def dump(self, path: str) -> None:
        payload = {
            "names": [f"{m}.{q}" for m, q in TRACED],
            "spans": [s for s in self.spans if s is not None],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _Probe:
    """Work counters recorded at one function's boundary."""

    def before(self, tracer, args):
        return args

    def after(self, tracer, args, result):
        pass


class _CountPertinent(_Probe):
    name = "enumeration.count_pertinent"

    def before(self, tracer, args):
        spec = args["spec"]
        key = (spec.family, spec.n)
        cached = args.get("use_cache", True) and key in tracer.package.enumeration._table_cache
        if key in tracer.seen_tables:
            tracer.add(self.name + ".repeat_calls", 1)
        tracer.seen_tables.add(key)
        return spec, cached

    def after(self, tracer, before, result):
        spec, cached = before
        if not cached:
            tracer.add(self.name + ".assignments", 1 << spec.m)
            tracer.add(self.name + ".pertinent", result.total)


class _DagMasks(_Probe):
    def after(self, tracer, args, result):
        n = args["n"]
        tracer.add("dags.count_dags_by_edges.masks", 1 << (n * n - n))


class _CurvePoints(_Probe):
    def after(self, tracer, args, result):
        tracer.add("probability.emit_curve.points", len(result))


class _ChainPoints(_Probe):
    def after(self, tracer, args, result):
        points = result.holding_count + result.failing_count
        tracer.add("probability.find_order_violation.points", points)


PROBES = {
    "enumeration.count_pertinent": _CountPertinent(),
    "dags.count_dags_by_edges": _DagMasks(),
    "probability.emit_curve": _CurvePoints(),
    "probability.find_order_violation": _ChainPoints(),
}


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_op.py SPANS.json -- <leastchange argv...>")
    import leastchange
    import leastchange.cli

    tracer = Tracer(leastchange)
    tracer.install()
    tracer.count_scans()
    try:
        return leastchange.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
