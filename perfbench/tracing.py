"""In-memory span and counter recording around docweave's module functions.

Tracing works from the outside: while a :class:`Tracer` is installed, the
module attributes that docweave's callers look up (for example
``docweave.pipeline.correct_headers_footers`` or ``docweave.metrics.levenshtein``)
are replaced by wrappers that record a span or bump a counter, and the
originals are restored when it is removed. Nothing under ``src/`` changes and
an untraced run executes the original functions.

A span is ``[name, start, end, parent span index, op id]``; counters are kept
per op. Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[self.op][name] += amount

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one benchmark op; yields the span index."""
        self.op = op_id
        index = self.begin("op")
        try:
            yield index
        finally:
            self.end(index)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, total self time by span name."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, op) in enumerate(self.spans):
            totals[op][name] += (end - start) - child_time[index]
        return totals

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans
            ],
            "counters": {str(op): dict(c) for op, c in self.counts.items()},
        }

    # -- wrappers ----------------------------------------------------------

    def spanned(self, name, fn, after=None, skip_under=None):
        """Wrap ``fn`` in a span. ``name`` may be a function of the call args.

        ``after(args, result)`` records counters once the span has closed.
        A call made directly inside a span named ``skip_under`` records no
        span of its own (``teds_s`` calls ``teds`` on blanked trees).
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if skip_under is not None and stack and tracer.spans[stack[-1]][0] == skip_under:
                return fn(*args, **kwargs)
            index = tracer.begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name, fn, weight=None):
        """Wrap ``fn`` to add 1, or ``weight(*args)``, to counter ``name`` per call."""
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            counts[tracer.op][name] += 1 if weight is None else weight(*args)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, clients=None):
        """Replace the traced module attributes for the duration of the block."""
        import docweave.assembly as assembly
        import docweave.export as export
        import docweave.metrics as metrics
        import docweave.pipeline as pipeline

        def relabels(args, result):
            before = {eid: e.type for page in args[0] for eid, e in page.elements.items()}
            self.add(
                "assembly.correct_headers_footers.relabels",
                sum(1 for page in result for eid, e in page.elements.items() if before.get(eid) != e.type),
            )

        def cells(a, b):
            return len(a) * len(b)

        patches = [
            (pipeline, "load_detections", self.spanned("ingest.load_detections", pipeline.load_detections)),
            (pipeline, "build_entities", self.spanned("ingest.build_entities", pipeline.build_entities)),
            (pipeline, "gate_images", self.spanned("ingest.gate_images", pipeline.gate_images)),
            (pipeline, "enrich_entities", self.spanned("ingest.enrich_entities", pipeline.enrich_entities)),
            (pipeline, "classify_document",
             self.spanned("ingest.classify_document", pipeline.classify_document)),
            (pipeline, "assemble_page", self.spanned("assembly.assemble_page", pipeline.assemble_page)),
            (pipeline, "correct_headers_footers",
             self.spanned("assembly.correct_headers_footers", pipeline.correct_headers_footers,
                          after=relabels)),
            (pipeline, "render_format",
             self.spanned(lambda args: f"export.{args[1]}", pipeline.render_format)),
            (pipeline, "write_atomic",
             self.spanned("pipeline.write_atomic", pipeline.write_atomic,
                          after=lambda args, _: self.add("pipeline.write_atomic.bytes",
                                                         len(args[1].encode("utf-8"))))),
            (assembly, "dedupe_page",
             self.spanned("assembly.dedupe_page", assembly.dedupe_page,
                          after=lambda args, result: self.add("assembly.dedupe_page.dropped",
                                                              len(args[0]) - len(result)))),
            (assembly, "assign_groups", self.spanned("assembly.assign_groups", assembly.assign_groups)),
            (assembly, "dbscan",
             self.spanned("assembly.dbscan", assembly.dbscan,
                          after=lambda args, _: self.add("assembly.dbscan.points", len(args[0])))),
            (assembly, "order_page_elements",
             self.spanned("assembly.order_page_elements", assembly.order_page_elements)),
            (assembly, "fuzzy_ratio", self.counted("assembly.fuzzy_ratio.calls", assembly.fuzzy_ratio)),
            (assembly, "indel_distance",
             self.counted("assembly.indel_distance.cells", assembly.indel_distance, cells)),
            (export, "fnv1a_64", self.counted("export.fnv1a_64.calls", export.fnv1a_64)),
            (metrics, "parse_table_html",
             self.spanned("metrics.parse_table_html", metrics.parse_table_html)),
            (metrics, "teds", self.spanned("metrics.teds", metrics.teds, skip_under="metrics.teds_s")),
            (metrics, "teds_s", self.spanned("metrics.teds_s", metrics.teds_s)),
            (metrics, "nid", self.spanned("metrics.nid", metrics.nid)),
            (metrics, "relabel_cost", self.counted("metrics.relabel_cost.calls", metrics.relabel_cost)),
            (metrics, "levenshtein", self.counted("metrics.levenshtein.calls", metrics.levenshtein)),
            (metrics, "indel_distance",
             self.counted("metrics.indel_distance.cells", metrics.indel_distance, cells)),
        ]
        if clients is not None:
            patches += [
                (clients.usefulness, "classify",
                 self.counted("ingest.gate_images.calls", clients.usefulness.classify)),
                (clients.enrichment, "enrich",
                 self.counted("ingest.enrich_entities.calls", clients.enrichment.enrich)),
            ]
        # Client methods live on the class; restoring deletes the instance attribute.
        originals = [(target, attr, vars(target).get(attr)) for target, attr, _ in patches]
        try:
            for target, attr, wrapper in patches:
                setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in originals:
                if original is None:
                    delattr(target, attr)
                else:
                    setattr(target, attr, original)
