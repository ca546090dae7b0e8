"""Every JSON file docweave reads goes through one checked reader.

A file that is not UTF-8, nests too deeply to parse, holds NaN, Infinity or
a lone surrogate escape, or has no object at the top level fails on its own: the library raises the entry point's own error
class naming the file, and the CLI exits with a one-line message and no
traceback.
"""

import json

import pytest
from click.testing import CliRunner

from conftest import FIXTURE_DIR
from docweave.cli import main
from docweave.clients import CategoryTable, FixtureEnrichmentClient, UsefulnessTable
from docweave.errors import DetectionInputError, EvaluationError, ValidationError
from docweave.ingest import load_detections
from docweave.metrics import evaluate
from docweave.model import document_from_json, read_json_object

GOOD_DPBENCH = FIXTURE_DIR / "golden" / "report.dpbench.json"

#: Bad file contents and the message each one must give.
BAD_FILES = {
    "not-utf8": (b'{"filename": "\xff"}', "invalid JSON: byte 14 is not UTF-8"),
    "too-deep": (
        b"[" * 100_000 + b"]" * 100_000,
        "invalid JSON: nested deeper than the parser's recursion limit",
    ),
    "array": (b"[]", "invalid JSON: top level must be an object, got list"),
    "huge-int": (
        b'{"filename": "a", "x": ' + b"1" * 5000 + b"}",
        "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion",
    ),
    "nan": (b'{"assembly": {"cluster": {"eps": NaN}}}', "invalid JSON: NaN is not a JSON value"),
    "infinity": (b'{"x": [-Infinity]}', "invalid JSON: -Infinity is not a JSON value"),
    "lone-surrogate": (
        b'{"filename": "a.pdf", "text": "bad \\ud800 text"}',
        "invalid JSON: a string holds the lone surrogate U+D800, which UTF-8 cannot encode",
    ),
    "lone-low-surrogate-key": (
        b'{"\\uDC00": 1}',
        "invalid JSON: a string holds the lone surrogate U+DC00, which UTF-8 cannot encode",
    ),
}

#: Library entry points that read a JSON file, with the error class each raises.
LOADERS = {
    "detections": (load_detections, DetectionInputError),
    "usefulness-fixture": (UsefulnessTable.from_fixture, ValidationError),
    "enrichment-fixture": (FixtureEnrichmentClient, ValidationError),
    "category-fixture": (CategoryTable.from_fixture, ValidationError),
    "dpbench-reference": (lambda path: evaluate(path, GOOD_DPBENCH, "layout"), EvaluationError),
    "dpbench-prediction": (lambda path: evaluate(GOOD_DPBENCH, path, "table"), EvaluationError),
}

#: CLI arguments that make docweave read ``bad``, with the expected exit code.
COMMANDS = {
    "detections": (lambda bad, out: ["parse", bad, "-o", out], 1),
    "fixture": (
        lambda bad, out: ["parse", str(FIXTURE_DIR / "report.json"), "-o", out,
                          "--category-fixture", bad],
        2,
    ),
    "config": (
        lambda bad, out: ["parse", str(FIXTURE_DIR / "report.json"), "-o", out, "--config", bad],
        2,
    ),
    "dpbench": (lambda bad, out: ["eval", bad, str(GOOD_DPBENCH), "--mode", "layout"], 1),
    "result-json": (lambda bad, out: ["export", bad, "-o", out], 1),
}


@pytest.fixture(params=sorted(BAD_FILES))
def bad_file(request, tmp_path):
    content, message = BAD_FILES[request.param]
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    return path, message


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loader_raises_its_own_error(bad_file, loader):
    path, message = bad_file
    load, error = LOADERS[loader]
    with pytest.raises(error) as excinfo:
        load(path)
    assert f"{path}: {message}" in str(excinfo.value)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_reports_bad_file_without_traceback(bad_file, command, tmp_path):
    path, message = bad_file
    args, exit_code = COMMANDS[command]
    result = CliRunner().invoke(main, args(str(path), str(tmp_path / "out")))
    assert result.exit_code == exit_code, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"{path}: {message}" in result.output
    assert "Traceback" not in result.output


def test_read_json_object_names_missing_file(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(EvaluationError, match=f"{missing}: cannot read file"):
        read_json_object(missing, EvaluationError)


def test_document_from_json_maps_deep_nesting():
    with pytest.raises(ValidationError, match="invalid document JSON: nested deeper"):
        document_from_json("[" * 100_000 + "]" * 100_000)


def test_escaped_surrogate_pair_and_escaped_backslash_are_accepted(tmp_path):
    path = tmp_path / "ok.json"
    path.write_bytes(b'{"pair": "\\ud834\\udd1e", "literal": "\\\\ud800"}')
    assert read_json_object(path, ValidationError) == {"pair": "\U0001d11e", "literal": "\\ud800"}



#: DP-Bench element contents the eval loader rejects, and the field each names.
#: ``null`` and a missing key are accepted and score as an empty string.
BAD_DPBENCH_CONTENT = {
    "text-object": ({"text": {"a": 1}}, "content.text"),
    "text-number": ({"text": 5}, "content.text"),
    "html-number": ({"html": 5}, "content.html"),
    "html-list": ({"html": ["<table></table>"]}, "content.html"),
}


@pytest.fixture(params=sorted(BAD_DPBENCH_CONTENT))
def bad_dpbench(request, tmp_path):
    content, field = BAD_DPBENCH_CONTENT[request.param]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": [{"category": "Paragraph", "content": content}]}),
                    encoding="utf-8")
    return path, f"{path}: elements[0].{field} must be a string or null"


@pytest.mark.parametrize("mode", ["layout", "table"])
def test_eval_rejects_non_string_content(bad_dpbench, mode):
    path, message = bad_dpbench
    with pytest.raises(EvaluationError) as excinfo:
        evaluate(GOOD_DPBENCH, path, mode)
    assert message in str(excinfo.value)


@pytest.mark.parametrize("mode", ["layout", "table"])
def test_cli_eval_rejects_non_string_content(bad_dpbench, mode):
    path, message = bad_dpbench
    result = CliRunner().invoke(main, ["eval", str(GOOD_DPBENCH), str(path), "--mode", mode])
    assert result.exit_code == 1, result.output
    assert message in result.output
    assert "Traceback" not in result.output


def test_eval_null_or_missing_content_scores_as_empty(tmp_path):
    elements = [{"category": "Paragraph", "content": {"text": None, "html": None}},
                {"category": "Paragraph", "content": {}},
                {"category": "Table", "content": {"html": None}}]
    path = tmp_path / "nulls.json"
    path.write_text(json.dumps({"elements": elements}), encoding="utf-8")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"elements": [{"category": "Paragraph"}] * 2}), encoding="utf-8")
    assert evaluate(empty, path, "layout").mean_nid == 1.0
    report = evaluate(path, path, "table")
    assert (report.evaluated, report.skipped) == (0, 1)


SHAPE = " must be four [x, y] number pairs or null"

#: DP-Bench ``coordinates`` the eval loader rejects, and how the message each
#: gives goes on after the field name.
#: Numbers are never coerced. ``null`` and a missing key are accepted: the
#: element has no box and matches no table.
BAD_DPBENCH_COORDINATES = {
    "xy-objects": ([{"x": 0, "y": 0}, {"x": 10, "y": 0}, {"x": 10, "y": 10}, {"x": 0, "y": 10}], SHAPE),
    "strings": ([["0", "0"], ["10", "0"], ["10", "10"], ["0", "10"]], SHAPE),
    "bools": ([[False, False], [True, False], [True, True], [False, True]], SHAPE),
    "string-in-unused-point": ([[0, 0], ["10", 0], [10, 10], [0, 10]], SHAPE),
    "three-points": ([[0, 0], [10, 0], [10, 10]], SHAPE),
    "three-values": ([[0, 0, 0], [10, 0], [10, 10], [0, 10]], SHAPE),
    "flat-box": ([0, 0, 10, 10], SHAPE),
    "string": ("abcd", SHAPE),
    "negative": (
        [[0, -1], [10, -1], [10, 10], [0, 10]],
        ": box coordinates must be non-negative, got (0.0, -1.0, 10.0, 10.0)",
    ),
    "inverted": (
        [[10, 10], [0, 10], [0, 0], [10, 0]],
        ": box must satisfy left <= right and top <= bottom, got (10.0, 10.0, 0.0, 0.0)",
    ),
}


@pytest.fixture(params=sorted(BAD_DPBENCH_COORDINATES))
def bad_coordinates(request, tmp_path):
    coordinates, message = BAD_DPBENCH_COORDINATES[request.param]
    elements = [
        {"category": "Paragraph", "coordinates": [[0, 0], [10, 0], [10, 10], [0, 10]], "page": 1,
         "content": {"text": "abc"}},
        {"category": "Table", "coordinates": coordinates, "id": 0, "page": 1,
         "content": {"html": "<table><tr><td>a</td></tr></table>"}},
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": elements}), encoding="utf-8")
    return path, f"{path}: elements[1].coordinates{message}"


@pytest.mark.parametrize("mode", ["layout", "table"])
def test_eval_rejects_bad_coordinates(bad_coordinates, mode):
    path, message = bad_coordinates
    with pytest.raises(EvaluationError) as excinfo:
        evaluate(path, path, mode)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("mode", ["layout", "table"])
def test_cli_eval_rejects_bad_coordinates(bad_coordinates, mode):
    path, message = bad_coordinates
    result = CliRunner().invoke(main, ["eval", str(path), str(path), "--mode", mode])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert "Traceback" not in result.output
