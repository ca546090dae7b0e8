"""Self-test of the benchmark at smoke sizes: ``python3 -m pytest perfbench -q``.

Runs every workload, traced and untraced, for about a second each, checks the
result line against BENCHMARK.json, and checks the generators, the tracer's
clean-up, the bounds of the eval check and the refusal to run without
docweave's sources.
"""

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = run.WORK / "selftest"


def invoke(*args, cwd=run.ROOT):
    return subprocess.run(
        [*BENCHMARK["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_is_correct(workload, trace):
    proc = invoke("--workload", workload, "--seed", "7",
                  "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_generators_are_byte_identical_per_seed():
    left, right = SCRATCH / "gen-a", SCRATCH / "gen-b"
    for directory in (left, right):
        shutil.rmtree(directory, ignore_errors=True)
        gen.generate_report(5, directory / "report", 1, gen.ReportShape(pages=3, elements_per_page=12))
        gen.generate_dense(5, directory / "dense", 1, gen.DenseShape(per_column=10, row_members=5,
                                                                      group_members=5))
        gen.generate_eval(5, directory / "eval", gen.EvalShape(pairs=2, rows=3, body_chars=1200,
                                                               move_span=1))
    files = sorted(p.relative_to(left) for p in left.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(right) for p in right.rglob("*") if p.is_file())
    match, mismatch, errors = filecmp.cmpfiles(left, right, [str(f) for f in files], shallow=False)
    assert not mismatch and not errors
    shutil.rmtree(SCRATCH, ignore_errors=True)


EVAL_EXPECTED = {"identity": False, "teds_s": 0.9, "teds_min": 0.7, "nid_min": 0.8}


def eval_reports(teds, teds_s, nid):
    return ({"evaluated": 1, "samples": [{"teds": teds, "teds_s": teds_s}]},
            {"evaluated": 1, "samples": [{"nid": nid}]})


@pytest.mark.parametrize("teds, teds_s, nid", [
    (0.6, 0.9, 0.9),   # TEDS below its lower bound
    (0.9, 0.9, 0.9),   # TEDS not below TEDS-S despite reworded cells
    (1.0, 0.9, 0.9),
    (0.8, 0.95, 0.9),  # TEDS-S off its closed form
    (0.8, 0.9, 0.7),   # NID below its lower bound
    (0.8, 0.9, 1.0),   # NID of 1.0 for texts that differ
])
def test_eval_check_rejects_scores_outside_the_bounds(teds, teds_s, nid):
    assert checks.check_eval(EVAL_EXPECTED, *eval_reports(0.8, 0.9, 0.9)) is None
    assert checks.check_eval(EVAL_EXPECTED, *eval_reports(teds, teds_s, nid)) is not None


def test_tracer_restores_module_attributes():
    sys.path.insert(0, str(run.SRC))
    import docweave.assembly
    import docweave.pipeline
    from tracing import Tracer

    originals = (docweave.pipeline.correct_headers_footers, docweave.assembly.dbscan)
    with Tracer().installed():
        assert docweave.assembly.dbscan is not originals[1]
    assert (docweave.pipeline.correct_headers_footers, docweave.assembly.dbscan) == originals


def test_refuses_to_run_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = invoke("--workload", "report", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
