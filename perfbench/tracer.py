"""Spans and counts around the calls into each module of the package.

Probes are installed from outside the package, at the name each caller
looks up: ``engine`` and ``cli`` import some functions by name, so those
module attributes are wrapped, and methods are wrapped on their class.
Probes record only while :attr:`Tracer.active` is set, which run.py
sets around each op, so generators and output checks are never counted.

Each span is ``[name, start_ns, end_ns, parent_index, op_id]``; spans
stay in memory until :meth:`Tracer.write`. A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

# Span names whose self time is reported.
SELF_TIMED = ("engine.degenerate", "cli.main")


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans: list = []
        self.counts: Counter = Counter()
        self.max_poly_degree = 0
        self.max_coeff_bits = 0
        self._stack: list = []
        self._patches: list = []

    # -- probes ------------------------------------------------------------

    def spanned(self, name, fn):
        """Wrap ``fn`` in a span; ``name`` may be a function of the args."""
        tracer = self

        def probe(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name(*args) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [label, perf_counter_ns(), 0, parent, tracer.op_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                tracer._stack.pop()

        return probe

    def counted(self, name: str, fn):
        tracer = self

        def probe(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return probe

    def _ratfunc_init(self, fn):
        tracer = self

        def probe(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            if tracer.active:
                tracer.counts["field.ratfunc_new"] += 1
                coeffs = obj.numerator + obj.denominator
                degree = max(len(obj.numerator), len(obj.denominator)) - 1
                bits = max(max(abs(c.numerator).bit_length(),
                               c.denominator.bit_length()) for c in coeffs)
                tracer.max_poly_degree = max(tracer.max_poly_degree, degree)
                tracer.max_coeff_bits = max(tracer.max_coeff_bits, bits)

        return probe

    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap the public entry points of field, dvrlinalg, curve, engine
        and cli."""
        from stackydeg import cli, curve, dvrlinalg, engine, field

        span = lambda name: (lambda fn: self.spanned(name, fn))  # noqa: E731
        count = lambda name: (lambda fn: self.counted(name, fn))  # noqa: E731
        rf = field.RatFunc
        self._patch(rf, "__init__", self._ratfunc_init)
        for attr in ("__add__", "__radd__"):
            self._patch(rf, attr, count("field.add_calls"))
        for attr in ("__mul__", "__rmul__"):
            self._patch(rf, attr, count("field.mul_calls"))
        self._patch(rf, "inv", count("field.inv_calls"))
        self._patch(dvrlinalg, "parse_ratfunc", span("field.parse"))
        self._patch(dvrlinalg.Mat, "det", span("dvrlinalg.det"))
        self._patch(dvrlinalg.Mat, "inverse", span("dvrlinalg.inverse"))
        self._patch(engine, "smith_normal_form",
                    span(lambda a: f"dvrlinalg.snf.n{a.rows}"))
        self._patch(cli, "smith_normal_form", span("dvrlinalg.snf_cli"))
        for cls in (curve.TwistedCurve, curve.MultiDegree, curve.GradingSpec):
            self._patch(cls, "from_json_dict", span("curve.from_json"))
        self._patch(curve.TwistedCurve, "to_dot", span("curve.to_dot"))
        self._patch(engine, "validate_twisted_map", span("curve.validate"))
        for mod in (engine, cli):
            self._patch(mod, "degeneration_input_from_json", span("engine.parse"))
            self._patch(mod, "degenerate", span("engine.degenerate"))
        self._patch(engine.DegenerationInput, "validate", span("engine.validate_input"))
        self._patch(engine, "insert_exceptional_chain", span("engine.insert"))
        self._patch(engine, "contract_torsion_components", span("engine.contract"))
        self._patch(engine.DegenerationOutput, "to_json_dict", span("engine.to_json"))
        self._patch(cli, "_dumps", span("cli.dumps"))
        self._patch(cli, "main", span("cli.main"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------

    def span_totals(self) -> tuple:
        """(calls, total ns, self ns) per span name."""
        calls, total, child = Counter(), Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = Counter()
        for ix, (name, start, end, _, _) in enumerate(self.spans):
            if name in SELF_TIMED:
                own[name] += end - start - child[ix]
        return calls, total, own

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": names,
                       "spans": [[index[s[0]], *s[1:]] for s in self.spans]}, fh)
