"""docweave benchmark: parse and eval end to end, one op at a time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report|dense|eval --seed N --seconds S --trace 0|1 [--smoke]

The benchmark generates seeded inputs (``gen.py``), builds docweave from
``src/`` of the checkout it sits in, and drives it from this single process as
a closed loop with one client and ``workers=1``. An op is one detection file
through ``docweave.pipeline.process_document`` writing all five formats
(``report``, ``dense``), or one reference/prediction pair through
``docweave.metrics.evaluate`` in ``table`` then ``layout`` mode (``eval``).
Every op's output is checked outside the timed region (``checks.py``); an op
fails if it raises, reports a failed page or document, or fails its check.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half traced (``tracing.py``) on the same input sequence, and
reports per-layer self times and counters, the tracing overhead and the
number of distinct output digests for one input.

Human-readable lines come first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
including machine facts and sample counts, goes to
``.perfbench_work/results/``, and spans to ``.perfbench_work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("report", "dense", "eval")
FORMATS = ("json", "markdown", "chunks", "graph", "dpbench")
# Longest suffix first, so "x.graph.json" is not taken for "x.json".
SUFFIXES = (
    (".chunks.jsonl", "chunks"),
    (".dpbench.json", "dpbench"),
    (".graph.json", "graph"),
    (".md", "markdown"),
    (".json", "json"),
)
SETUP_SPAWNS = 25
UUID4 = re.compile(r"[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}")

# Pool size (inputs cycled through) and shape per workload, full and smoke.
SIZES = {
    "report": {"full": (3, gen.ReportShape()),
               "smoke": (1, gen.ReportShape(pages=3, elements_per_page=12))},
    "dense": {"full": (2, gen.DenseShape()),
              "smoke": (1, gen.DenseShape(per_column=20, row_members=10, group_members=10))},
    "eval": {"full": (None, gen.EvalShape()),
             "smoke": (None, gen.EvalShape(pairs=2, rows=3, body_chars=1200, move_span=1))},
}

SPAN_LAYERS = (
    "ingest.load_detections", "ingest.build_entities", "ingest.gate_images",
    "ingest.enrich_entities", "ingest.classify_document",
    "assembly.correct_headers_footers", "assembly.assemble_page", "assembly.dedupe_page",
    "assembly.assign_groups", "assembly.dbscan", "assembly.order_page_elements",
    "export.json", "export.markdown", "export.chunks", "export.graph", "export.dpbench",
    "pipeline.write_atomic",
    "metrics.parse_table_html", "metrics.teds", "metrics.teds_s", "metrics.nid",
)
COUNTER_LAYERS = (
    "ingest.gate_images.calls", "ingest.enrich_entities.calls",
    "assembly.correct_headers_footers.relabels", "assembly.fuzzy_ratio.calls",
    "assembly.indel_distance.cells", "assembly.dedupe_page.dropped", "assembly.dbscan.points",
    "export.fnv1a_64.calls", "pipeline.write_atomic.bytes",
    "metrics.relabel_cost.calls", "metrics.levenshtein.calls", "metrics.indel_distance.cells",
)


@dataclass
class Op:
    item: int
    seconds: float
    elements: int
    failure: str | None
    digest: str = ""
    canonical: str = ""  # digest with random entity ids replaced by first-seen order


def digests(text: str) -> tuple[str, str]:
    seen: dict[str, str] = {}
    canonical = UUID4.sub(lambda m: seen.setdefault(m.group(0), f"<id{len(seen)}>"), text)
    return (hashlib.sha256(text.encode("utf-8")).hexdigest(),
            hashlib.sha256(canonical.encode("utf-8")).hexdigest())


class ParseWorkload:
    def __init__(self, name: str, pool: gen.ParsePool, out_dir: Path):
        from docweave.pipeline import _Clients, config_from_mapping, process_document

        self.check_fn = checks.check_report if name == "report" else checks.check_dense
        self.items = pool.inputs
        self.config_raw = {"inputs": [], "output_dir": str(out_dir), "workers": 1}
        if pool.usefulness_fixture is not None:
            # Image gate and insights both on, replaying the generated fixtures.
            self.config_raw.update(skip_insights=False,
                                   usefulness_fixture=str(pool.usefulness_fixture),
                                   enrichment_fixture=str(pool.enrichment_fixture))
        self.config = config_from_mapping(self.config_raw)
        self.clients = _Clients(self.config)
        self.process_document = process_document

    def run(self, item):
        return self.process_document(item.path, self.config, self.clients)

    def check(self, item, outcome) -> tuple[str | None, str]:
        if outcome.failed:
            return f"document failed: {outcome.error}", ""
        if outcome.error is not None:
            return outcome.error, ""
        texts = {}
        for path in outcome.written:
            fmt = next(f for suffix, f in SUFFIXES if path.name.endswith(suffix))
            texts[fmt] = path.read_text(encoding="utf-8")
        if sorted(texts) != sorted(FORMATS):
            return f"wrote formats {sorted(texts)}", ""
        joined = "".join(f"{fmt}\0{texts[fmt]}\0" for fmt in FORMATS)
        return self.check_fn(item.expected, texts), joined


class EvalWorkload:
    def __init__(self, items: list[gen.EvalInput], out_dir: Path):
        from docweave.metrics import evaluate

        self.items = items
        self.config_raw = {"inputs": [], "output_dir": str(out_dir), "workers": 1}
        self.evaluate = evaluate

    def run(self, item):
        return (self.evaluate(item.reference, item.prediction, "table"),
                self.evaluate(item.reference, item.prediction, "layout"))

    def check(self, item, reports) -> tuple[str | None, str]:
        table, layout = (r.to_dict() for r in reports)
        return checks.check_eval(item.expected, table, layout), json.dumps([table, layout], sort_keys=True)


def drive(workload, budget: float, tracer=None, first_op: int = 0) -> list[Op]:
    """Closed loop over the input pool until the next op would overrun ``budget``."""
    ops: list[Op] = []
    started = time.perf_counter()
    while True:
        index = len(ops) % len(workload.items)
        item = workload.items[index]
        failure = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(item)
            else:
                with tracer.op_span(first_op + len(ops)):
                    result = workload.run(item)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            failure = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        op = Op(index, seconds, item.elements, failure)
        if failure is None:
            try:
                op.failure, text = workload.check(item, result)
                op.digest, op.canonical = digests(text)
            except Exception as exc:  # malformed output
                op.failure = f"output check raised {type(exc).__name__}: {exc}"
        ops.append(op)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(ops) > budget:
            return ops


def measure_setup(config_raw: dict, spawns: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to docweave being ready."""
    command = [sys.executable, str(BENCH_DIR / "ready.py"), str(SRC), json.dumps(config_raw)]
    times = []
    for attempt in range(spawns + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        if attempt:  # the first spawn writes the bytecode cache
            times.append(elapsed)
    return times


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond).

    With ten samples or fewer no such percentile exists and the maximum is
    reported with zero samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def machine_facts() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "docweave").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "commit": commit or "unavailable (not a git checkout)",
        "src_sha256": source.hexdigest(),
    }


def build_workload(name: str, seed: int, smoke: bool, run_dir: Path):
    docs, shape = SIZES[name]["smoke" if smoke else "full"]
    inputs_dir, out_dir = run_dir / "inputs", run_dir / "out"
    if name == "eval":
        return EvalWorkload(gen.generate_eval(seed, inputs_dir, shape), out_dir)
    generate = gen.generate_report if name == "report" else gen.generate_dense
    return ParseWorkload(name, generate(seed, inputs_dir, docs, shape), out_dir)


def run_untraced(workload, seconds: float, record: dict) -> tuple[list[Op], dict, list[str]]:
    """End-to-end metrics: set-up time, op latency, throughput, peak RSS.

    The tail's percentile depends on the op count, so ``record`` gets it too:
    compare ``op_s.tail`` only between runs at the same percentile.
    """
    setup = measure_setup(workload.config_raw, SETUP_SPAWNS)
    ops = drive(workload, seconds)
    times = [op.seconds for op in ops]
    elements = sum(op.elements for op in ops)
    tail_value, tail_pct, beyond = tail(times)
    record["op_s.tail"] = {"percentile": tail_pct, "beyond": beyond, "n": len(times)}
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "op_s.p50": (statistics.median(times), "s", f"n={len(times)}"),
        "op_s.tail": (tail_value, "s", f"p{tail_pct:.1f}, {beyond} samples beyond, n={len(times)}"),
        "elements_per_s": (elements / sum(times), "1/s",
                           f"{elements} input elements over {sum(times):.3f} s of ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of this process"),
    }
    return ops, metrics, []


def run_traced(workload, seconds: float, trace_path: Path) -> tuple[list[Op], dict, list[str]]:
    """Per-layer metrics: half the time untraced, then half traced on the same inputs."""
    from tracing import Tracer

    untraced = drive(workload, seconds / 2)
    tracer = Tracer()
    with tracer.installed(getattr(workload, "clients", None)):
        traced = drive(workload, seconds / 2, tracer, first_op=len(untraced))
    reference = {}
    for op in untraced:
        reference.setdefault(op.item, op.canonical)
    for op in traced:
        if op.failure is None and op.item in reference and op.canonical != reference[op.item]:
            op.failure = "traced output differs from the untraced output of the same input"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(tracer.to_dict()) + "\n", encoding="utf-8")

    op_ids = range(len(untraced), len(untraced) + len(traced))
    self_times = tracer.self_times()
    n = len(traced)
    op_time = sum(op.seconds for op in traced) / n
    metrics = {}
    for name in SPAN_LAYERS:
        value = sum(self_times[op].get(name, 0.0) for op in op_ids) / n
        metrics[f"{name}.s"] = (value, "s", f"mean self time per op, {100 * value / op_time:.1f}% of op")
    for name in COUNTER_LAYERS:
        value = sum(tracer.counts[op][name] for op in op_ids) / n
        metrics[name] = (value, "count", "mean per op")
    ops = untraced + traced
    first_input = [op for op in ops if op.item == 0]
    metrics["pipeline.distinct_output_digests"] = (
        len({op.digest for op in first_input if op.digest}), "count",
        f"over {len(first_input)} ops on input 0")
    k = min(len(untraced), n)
    metrics["trace.overhead_ratio"] = (
        sum(op.seconds for op in traced[:k]) / sum(op.seconds for op in untraced[:k]), "ratio",
        f"traced / untraced over the first {k} ops of each")
    outside = sum(self_times[op].get("op", 0.0) for op in op_ids) / n
    notes = [f"op self time outside traced spans: {outside:.4f} s ({100 * outside / op_time:.1f}%)",
             f"spans written to {trace_path.relative_to(ROOT)}"]
    return ops, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "docweave" / "__init__.py").is_file():
        print(f"error: no docweave sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import docweave

    if Path(docweave.__file__).resolve().parent != (SRC / "docweave").resolve():
        print(f"error: imported docweave from {docweave.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        workload = build_workload(args.workload, args.seed, args.smoke, run_dir)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke, "pool": len(workload.items),
                  "facts": machine_facts()}
        if args.trace:
            trace_path = WORK / "traces" / f"{args.workload}-s{args.seed}.json"
            ops, metrics, notes = run_traced(workload, args.seconds, trace_path)
        else:
            ops, metrics, notes = run_untraced(workload, args.seconds, record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failures = [op.failure for op in ops if op.failure]
    attempted = len(ops)

    facts = record["facts"]
    print(f"# docweave benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} pool={record['pool']} smoke={args.smoke}")
    print(f"# machine: cores={facts['cores']} python={facts['python']} platform={facts['platform']}")
    print(f"# source: commit={facts['commit']} src_sha256={facts['src_sha256'][:16]}")
    print(f"# ops: attempted={attempted} failed={len(failures)} "
          f"error_rate={len(failures) / attempted:.4f}")
    for reason in sorted(set(failures)):
        print(f"# failure: {reason}")
    for name, (value, unit, detail) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit:<6} ({detail})")
    for note in notes:
        print(f"# {note}")

    record.update(attempted=attempted, failed=len(failures), failures=failures,
                  metrics={k: {"value": v, "unit": u, "detail": d} for k, (v, u, d) in metrics.items()},
                  op_seconds=[op.seconds for op in ops])
    results = WORK / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
