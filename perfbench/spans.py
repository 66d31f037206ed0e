"""Spans and counters around leibniz_lab's public functions.

The tracer replaces each traced function wherever a leibniz_lab module (or
sympy, for factor_list) holds a reference to it, so calls between modules
are seen under the name their caller looks up.  Spans hold a name, start,
end and parent index and stay in memory until write() at the end of the run.
Self time is a span's duration minus the durations of its direct children.
Scalar arithmetic gets exact call counts only.  Nothing is recorded while
`on` is false, which keeps input generation and answer checking out.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

SPANS = (
    ("classify", "verify_nilpotent_entry"),
    ("classify", "match_paper_table"),
    ("classify", "distinctness_report"),
    ("classify", "nilpotent_table"),
    ("cli", "main"),
    ("formats", "store_table"),
    ("formats", "load_table"),
    ("algebra", "verify_leibniz"),
    ("algebra", "change_of_basis"),
    ("algebra", "derived_subalgebra"),
    ("algebra", "lower_central_series"),
    ("algebra", "substitute_algebra"),
    ("blocks", "form_from_algebra"),
    ("blocks", "algebra_from_blocks"),
    ("pencil", "canonical_decomposition"),  # outermost pencil call of a query
    ("pencil", "pencil_invariants"),
    ("pencil", "decomposition_from_invariants"),
    ("iso", "isomorphic_dim1_nilpotent"),
    ("iso", "iso_invariants"),
    ("linalg", "rref"),
    ("linalg", "inverse"),
)
COUNTED = (("scalars.mul", "__mul__"), ("scalars.add", "__add__"), ("scalars.inverse", "inverse"))

# The per-layer metrics, in BENCHMARK.json order.
PER_LAYER_NAMES = (
    "classify.verify_nilpotent_entry.s",
    "classify.match_paper_table.s",
    "classify.distinctness_report.s",
    "classify.nilpotent_table.s",
    "cli.main.s",
    "formats.store_table.s",
    "formats.load_table.s",
    "algebra.verify_leibniz.calls",
    "algebra.verify_leibniz.s",
    "algebra.change_of_basis.s",
    "algebra.derived_subalgebra.s",
    "algebra.lower_central_series.s",
    "algebra.substitute_algebra.s",
    "blocks.form_from_algebra.s",
    "blocks.algebra_from_blocks.s",
    "pencil.pencil_invariants.calls",
    "pencil.pencil_invariants.s",
    "pencil.decomposition_from_invariants.s",
    "pencil.singular_p50_ms",
    "pencil.regular_p50_ms",
    "iso.isomorphic_dim1_nilpotent.s",
    "iso.iso_invariants.s",
    "sympy.factor_list.calls",
    "sympy.factor_list.s",
    "linalg.rref.calls",
    "linalg.rref.s",
    "linalg.inverse.s",
    "scalars.mul.calls",
    "scalars.add.calls",
    "scalars.inverse.calls",
)
_UNIT_OF_SUFFIX = {".s": "s/op", ".calls": "calls/op", "_ms": "ms"}
PER_LAYER = tuple(
    (name, next(u for suf, u in _UNIT_OF_SUFFIX.items() if name.endswith(suf)))
    for name in PER_LAYER_NAMES
)


class Tracer:
    def __init__(self):
        self.on = False
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = []  # [span index, seconds covered by direct children]
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        # Outermost pencil calls: (query id, singular flag, seconds, None)
        # inside a query, (None, None, seconds, matrix argument) outside one.
        self.units = []
        self.query = None  # (id, singular) of the query running now
        self._pencil_depth = 0

    # -- spans ---------------------------------------------------------------
    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append([idx, 0.0])
        self.span_start.append(perf_counter())
        return idx

    def _close(self, name):
        end = perf_counter()
        idx, children = self.stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.calls[name] += 1
        self.self_s[name] += dur - children
        if self.stack:
            self.stack[-1][1] += dur
        return dur

    def span(self, fn, name):
        tracer = self
        nid = self._name_id(name)
        pencil = name.startswith("pencil.")

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            unit = pencil and tracer._pencil_depth == 0
            if pencil:
                tracer._pencil_depth += 1
            tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = tracer._close(name)
                if pencil:
                    tracer._pencil_depth -= 1
                if unit:
                    q = tracer.query
                    arg = args[0] if args and isinstance(args[0], tuple) else None
                    tracer.units.append(
                        (None, None, dur, arg) if q is None else (q[0], q[1], dur, None)
                    )

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, name):
        tracer = self

        def counted(*args):
            if tracer.on:
                tracer.counts[name] += 1
            return fn(*args)

        return counted

    # -- install -------------------------------------------------------------
    def install(self, lab):
        """Wrap the traced functions everywhere leibniz_lab refers to them."""
        import sympy

        modules = [m for n, m in sys.modules.items() if n.startswith("leibniz_lab")]
        for mod_name, fn_name in SPANS:
            orig = getattr(lab[mod_name], fn_name)
            wrapped = self.span(orig, f"{mod_name}.{fn_name}")
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
        sympy.factor_list = self.span(sympy.factor_list, "sympy.factor_list")
        Scalar = lab["scalars"].Scalar
        for name, method in COUNTED:
            setattr(Scalar, method, self.count(getattr(Scalar, method), name))

    # -- results -------------------------------------------------------------
    def pencil_seconds_by_query(self):
        """[(singular flag, seconds in pencil)] per query: the outermost
        pencil calls of a query summed, sided by the generator's flag."""
        per_query = {}
        for qid, flag, dur, _ in self.units:
            if qid is not None:
                per_query.setdefault(qid, [flag, 0.0])[1] += dur
        return [tuple(v) for v in per_query.values()]

    def layer_totals(self):
        """{metric name: total} for the span and count metrics."""
        out = {}
        for mod_name, fn_name in SPANS:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        out["sympy.factor_list.s"] = self.self_s["sympy.factor_list"]
        out["sympy.factor_list.calls"] = self.calls["sympy.factor_list"]
        for name, _ in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        return out

    def write(self, path):
        """Spans as tab-separated name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            names = self.names
            for nid, s, e, p in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            ):
                fh.write(f"{names[nid]}\t{s:.9f}\t{e:.9f}\t{p}\n")


def per_layer_metrics(totals, ops, singular_s, regular_s):
    """The PER_LAYER metrics from summed totals over `ops` operations."""
    out = {}
    for name, unit in PER_LAYER:
        if name == "pencil.singular_p50_ms":
            value = statistics.median(singular_s) * 1000 if singular_s else 0.0
        elif name == "pencil.regular_p50_ms":
            value = statistics.median(regular_s) * 1000 if regular_s else 0.0
        else:
            value = totals.get(name, 0) / max(ops, 1)
        out[name] = {"value": value, "unit": unit}
    return out
