import json
import math
import os
import re
import stat
import threading
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import FIXTURE_DIR, write_detection_file
from docweave.cli import main
from docweave.clients import UsefulnessVerdict
from docweave.errors import ValidationError
from docweave.model import document_from_json
from docweave.pipeline import (
    FORMATS,
    MAX_WORKERS,
    PipelineConfig,
    _Clients,
    config_from_mapping,
    process_document,
    run_pipeline,
    write_atomic,
    write_files,
)


def minimal_input(tmp_path, name="doc.json", pages=None):
    payload = {
        "filename": "doc.pdf",
        "metadata": {},
        "pages": pages
        if pages is not None
        else [
            {
                "page_number": 1,
                "element_detections": [
                    {
                        "id": "t1",
                        "label": "text",
                        "confidence": 0.9,
                        "bbox": [0, 100, 200, 150],
                        "text": "first paragraph",
                    },
                    {
                        "id": "t2",
                        "label": "title",
                        "confidence": 0.95,
                        "bbox": [0, 10, 200, 60],
                        "text": "A Title",
                    },
                ],
                "layout_detections": [],
            }
        ],
    }
    return write_detection_file(tmp_path / name, payload)


class TestRunPipeline:
    def test_single_format_single_file(self, tmp_path):
        path = minimal_input(tmp_path)
        config = PipelineConfig(inputs=(path,), output_dir=tmp_path / "out", formats=("json",))
        (outcome,) = run_pipeline(config)
        assert outcome.error is None
        assert [p.name for p in outcome.written] == ["doc.json"]

    def test_skip_insights_means_zero_calls(self, tmp_path):
        config = PipelineConfig(
            inputs=(FIXTURE_DIR / "report.json",),
            output_dir=tmp_path / "out",
            skip_insights=True,
            usefulness_fixture=FIXTURE_DIR / "usefulness.json",
        )
        (outcome,) = run_pipeline(config)
        assert outcome.result.total_llm_calls == 0

    def test_gate_off_keeps_decorative_image(self, tmp_path):
        config = PipelineConfig(
            inputs=(FIXTURE_DIR / "report.json",),
            output_dir=tmp_path / "out",
            skip_images=False,
        )
        (outcome,) = run_pipeline(config)
        page2 = outcome.result.pages[1]
        assert "p2-decor" in page2.elements
        assert page2.skipped_images == ()

    def test_unreadable_input_isolated(self, tmp_path):
        good = minimal_input(tmp_path, "good.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        config = PipelineConfig(inputs=(bad, good), output_dir=tmp_path / "out", formats=("json",))
        outcomes = run_pipeline(config)
        assert outcomes[0].failed and outcomes[0].error
        assert not outcomes[1].failed

    @pytest.mark.parametrize("field", ["pages", "element_detections", "layout_detections"])
    @pytest.mark.parametrize("value", [5, None, "x", {"id": "t1"}])
    def test_non_array_field_fails_only_its_file(self, tmp_path, field, value):
        page = {"page_number": 1, "element_detections": [], "layout_detections": [], field: value}
        payload = {"filename": "bad.pdf", "pages": value if field == "pages" else [page]}
        bad = write_detection_file(tmp_path / "bad.json", payload)
        good = minimal_input(tmp_path, "good.json")
        out = tmp_path / "out"
        config = PipelineConfig(inputs=(bad, good), output_dir=out, formats=("json", "markdown"))
        first, second = run_pipeline(config)
        assert first.failed and f"{field}: must be an array" in first.error
        assert first.written == []
        assert second.error is None
        assert second.written == [out / "good.json", out / "good.md"]
        assert all(path.exists() for path in second.written)

    def test_counter_consistency(self, tmp_path):
        config = PipelineConfig(
            inputs=(FIXTURE_DIR / "report.json",), output_dir=tmp_path / "out", formats=("json",)
        )
        (outcome,) = run_pipeline(config)
        doc = outcome.result
        assert doc.total_processed_pages + doc.total_failed_pages == doc.total_pages

    def test_worker_counts_give_identical_outputs(self, tmp_path):
        results = {}
        for workers in (1, 8):
            out = tmp_path / f"w{workers}"
            config = PipelineConfig(
                inputs=(FIXTURE_DIR / "report.json",),
                output_dir=out,
                skip_insights=False,
                usefulness_fixture=FIXTURE_DIR / "usefulness.json",
                enrichment_fixture=FIXTURE_DIR / "enrichment.json",
                workers=workers,
            )
            run_pipeline(config)
            results[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert results[1] == results[8]

    def test_worker_counts_agree_on_a_single_image(self, tmp_path):
        # One image per page: fewer than two client calls, so every worker
        # count calls the clients inline.
        pages = [
            {
                "page_number": 1,
                "element_detections": [
                    {"id": "img", "label": "image", "confidence": 0.9,
                     "bbox": [0, 100, 200, 300], "image_payload": "png:img"},
                    {"id": "t1", "label": "text", "confidence": 0.9,
                     "bbox": [0, 400, 200, 450], "text": "caption below"},
                ],
                "layout_detections": [],
            }
        ]
        path = minimal_input(tmp_path, "image.json", pages=pages)
        usefulness = tmp_path / "usefulness.json"
        usefulness.write_text(json.dumps({"verdicts": {"img": "useful"}}), encoding="utf-8")
        enrichment = tmp_path / "enrichment.json"
        enrichment.write_text(
            json.dumps({"responses": {"img": {"title": "Chart", "text": "a bar chart"}}}),
            encoding="utf-8",
        )
        results = {}
        for workers in (1, 4):
            out = tmp_path / f"w{workers}"
            config = PipelineConfig(
                inputs=(path,),
                output_dir=out,
                skip_insights=False,
                usefulness_fixture=usefulness,
                enrichment_fixture=enrichment,
                workers=workers,
            )
            (outcome,) = run_pipeline(config)
            assert outcome.result.total_llm_calls == 1
            results[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(results[1]) == len(FORMATS)
        assert b"a bar chart" in results[1]["image.json"]
        assert results[1] == results[4]

    def test_missing_ids_give_identical_outputs(self, tmp_path):
        payload = json.loads((FIXTURE_DIR / "report.json").read_text(encoding="utf-8"))
        for page in payload["pages"]:
            for det in page["element_detections"]:
                del det["id"]
        path = write_detection_file(tmp_path / "noids.json", payload)
        runs = []
        for run in ("a", "b"):
            out = tmp_path / run
            run_pipeline(PipelineConfig(inputs=(path,), output_dir=out))
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(runs[0]) == len(FORMATS)
        assert runs[0] == runs[1]

    def test_thread_count_bounded_by_workers(self, tmp_path):
        workers = 4
        pages = [
            {
                "page_number": n,
                "element_detections": [
                    {"id": f"p{n}-i{i}", "label": "image", "confidence": 0.9,
                     "bbox": [0, 100 * i, 100, 100 * i + 80]}
                    for i in range(4)
                ],
                "layout_detections": [],
            }
            for n in (1, 2, 3, 4)
        ]
        path = minimal_input(tmp_path, "images.json", pages=pages)
        config = PipelineConfig(
            inputs=(path,), output_dir=tmp_path / "out", formats=("json",), workers=workers
        )
        baseline = threading.active_count()
        lock = threading.Lock()
        peak = [0]

        class SlowClassifier:
            def classify(self, entity):
                time.sleep(0.05)
                with lock:
                    peak[0] = max(peak[0], threading.active_count() - baseline)
                return UsefulnessVerdict.USEFUL

        clients = _Clients(config)
        clients.usefulness = SlowClassifier()
        outcome = process_document(path, config, clients)
        assert outcome.result.total_processed_pages == 4
        assert 0 < peak[0] <= workers

    def test_header_footer_correction_applied(self, tmp_path):
        pages = []
        for n in (1, 2, 3):
            detections = [
                {
                    "id": f"b{n}",
                    "label": "text",
                    "confidence": 0.9,
                    "bbox": [0, 300, 400, 360],
                    "text": f"body of page {n}",
                }
            ]
            label = "page_header" if n < 3 else "text"
            detections.append(
                {
                    "id": f"h{n}",
                    "label": label,
                    "confidence": 0.9,
                    "bbox": [100, 10, 500, 40],
                    "text": "Repeated Running Header",
                }
            )
            pages.append(
                {"page_number": n, "element_detections": detections, "layout_detections": []}
            )
        path = minimal_input(tmp_path, "hf.json", pages=pages)
        config = PipelineConfig(inputs=(path,), output_dir=tmp_path / "out", formats=("json",))
        (outcome,) = run_pipeline(config)
        page3 = outcome.result.pages[2]
        assert page3.elements["h3"].type.value == "page_header"

    def test_document_category_from_fixture(self, tmp_path):
        from docweave.clients import text_digest

        path = minimal_input(tmp_path)
        doc_text = "A Title\nfirst paragraph"
        fixture = tmp_path / "cat.json"
        fixture.write_text(
            json.dumps({"categories": {text_digest(doc_text): "technical"}}), encoding="utf-8"
        )
        config = PipelineConfig(
            inputs=(path,),
            output_dir=tmp_path / "out",
            formats=("json",),
            category_fixture=fixture,
        )
        (outcome,) = run_pipeline(config)
        assert outcome.result.document_category == "technical"

    def test_input_page_order_changes_no_output(self, tmp_path):
        from docweave.clients import text_digest

        raw = json.loads((FIXTURE_DIR / "report.json").read_text(encoding="utf-8"))
        in_order = write_detection_file(tmp_path / "in_order.json", raw)
        reversed_pages = write_detection_file(
            tmp_path / "reversed.json", {**raw, "pages": raw["pages"][::-1]}
        )
        (probe,) = run_pipeline(
            PipelineConfig(inputs=(in_order,), output_dir=tmp_path / "probe", formats=("json",))
        )
        doc_text = "\n\n".join(
            "\n".join(e.value.text for e in page.elements.values() if e.value.text)
            for page in probe.result.pages
        )
        fixture = tmp_path / "cat.json"
        fixture.write_text(
            json.dumps({"categories": {text_digest(doc_text): "financial"}}), encoding="utf-8"
        )
        outputs = []
        for path in (in_order, reversed_pages):
            out = tmp_path / path.stem
            (outcome,) = run_pipeline(
                PipelineConfig(inputs=(path,), output_dir=out, category_fixture=fixture)
            )
            assert outcome.result.document_category == "financial"
            outputs.append({f.name[len(path.stem):]: f.read_bytes() for f in outcome.written})
        assert len(outputs[0]) == len(FORMATS)
        assert outputs[0] == outputs[1]

    def test_detection_order_changes_no_output(self, tmp_path):
        import random

        raw = json.loads((FIXTURE_DIR / "report.json").read_text(encoding="utf-8"))
        page = raw["pages"][1]
        # Two regions tied on label, confidence, area and top-left corner,
        # each with one member of its own and one shared member.
        page["layout_detections"] = [
            {"label": "group", "confidence": 0.9, "bbox": [100, 600, 200, 650]},
            {"label": "group", "confidence": 0.9, "bbox": [100, 600, 150, 700]},
        ]
        page["element_detections"] += [
            {"id": eid, "label": "text", "confidence": 0.9, "bbox": box, "text": f"cell {eid}"}
            for eid, box in (
                ("p2-shared", [110, 610, 130, 630]),
                ("p2-wide", [160, 610, 190, 630]),
                ("p2-tall", [110, 660, 130, 690]),
            )
        ]
        variants = [raw]
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            pages = []
            for original in raw["pages"]:
                shuffled = json.loads(json.dumps(original))
                for key in ("element_detections", "layout_detections"):
                    rng.shuffle(shuffled[key])
                pages.append(shuffled)
            rng.shuffle(pages)
            variants.append({**raw, "pages": pages})
        variants.append(
            {
                **raw,
                "pages": [
                    {**p, "element_detections": p["element_detections"][::-1],
                     "layout_detections": p["layout_detections"][::-1]}
                    for p in raw["pages"]
                ],
            }
        )
        outputs = []
        for i, payload in enumerate(variants):
            path = write_detection_file(tmp_path / f"v{i}.json", payload)
            (outcome,) = run_pipeline(PipelineConfig(inputs=(path,), output_dir=tmp_path / f"out{i}"))
            assert not outcome.failed
            outputs.append({f.name[len(path.stem):]: f.read_bytes() for f in outcome.written})
        assert len(outputs[0]) == len(FORMATS)
        assert all(output == outputs[0] for output in outputs[1:])

    def test_failed_page_isolated(self, tmp_path, monkeypatch):
        pages = [
            {
                "page_number": n,
                "element_detections": [
                    {
                        "id": f"t{n}",
                        "label": "text",
                        "confidence": 0.9,
                        "bbox": [0, 100, 200, 150],
                        "text": f"page {n} body",
                    }
                ],
                "layout_detections": [],
            }
            for n in (1, 2, 3)
        ]
        path = minimal_input(tmp_path, "multi.json", pages=pages)

        import docweave.pipeline as pipeline_mod

        real_assemble = pipeline_mod.assemble_page

        def flaky(page_number, *args, **kwargs):
            if page_number == 2:
                raise RuntimeError("synthetic page failure")
            return real_assemble(page_number, *args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "assemble_page", flaky)
        config = PipelineConfig(inputs=(path,), output_dir=tmp_path / "out", formats=("json",))
        (outcome,) = run_pipeline(config)
        doc = outcome.result
        assert doc.total_pages == 3
        assert doc.total_failed_pages == 1
        assert doc.total_processed_pages == 2
        assert [p.page_number for p in doc.pages] == [1, 3]
        assert not outcome.failed
        assert outcome.failed_pages == {2: "RuntimeError: synthetic page failure"}

    def test_full_page_text_feeds_category(self, tmp_path):
        from docweave.clients import text_digest

        payload = {
            "filename": "doc.pdf",
            "metadata": {},
            "pages": [
                {
                    "page_number": 1,
                    "element_detections": [
                        {
                            "id": "t1",
                            "label": "text",
                            "confidence": 0.9,
                            "bbox": [0, 0, 10, 10],
                            "text": "entity text",
                        }
                    ],
                    "layout_detections": [],
                    "full_page_text": "the raw page text",
                }
            ],
        }
        path = write_detection_file(tmp_path / "doc.json", payload)
        fixture = tmp_path / "cat.json"
        fixture.write_text(
            json.dumps({"categories": {text_digest("the raw page text"): "legal"}}),
            encoding="utf-8",
        )
        config = PipelineConfig(
            inputs=(path,),
            output_dir=tmp_path / "out",
            formats=("json",),
            category_fixture=fixture,
        )
        (outcome,) = run_pipeline(config)
        assert outcome.result.document_category == "legal"

    def test_output_json_round_trips(self, tmp_path):
        path = minimal_input(tmp_path)
        config = PipelineConfig(inputs=(path,), output_dir=tmp_path / "out", formats=("json",))
        (outcome,) = run_pipeline(config)
        text = (tmp_path / "out" / "doc.json").read_text(encoding="utf-8")
        assert document_from_json(text) == outcome.result

    @pytest.mark.parametrize("page_height", ["0", "-5", "nan", "inf"])
    def test_unusable_page_height_is_ignored(self, tmp_path, caplog, page_height):
        # A header at the bottom and a footer at the top of a 1000 px page.
        detections = [
            {"id": "head", "label": "page_header", "confidence": 0.9,
             "bbox": [0, 950, 300, 980], "text": "Running head"},
            {"id": "foot", "label": "page_footer", "confidence": 0.9,
             "bbox": [0, 10, 300, 30], "text": "Page footer"},
            {"id": "body", "label": "text", "confidence": 0.9,
             "bbox": [0, 200, 300, 400], "text": "Body paragraph"},
        ]

        def labels(height):
            path = write_detection_file(
                tmp_path / f"h{height}.json",
                {"filename": "doc.pdf",
                 "metadata": {} if height is None else {"page_height": height},
                 "pages": [{"page_number": 1, "element_detections": detections,
                            "layout_detections": []}]},
            )
            config = PipelineConfig(inputs=(), output_dir=tmp_path / "out", formats=("json",))
            page = process_document(path, config).result.pages[0]
            return {eid: entity.type.value for eid, entity in page.elements.items()}

        assert labels(None) == {"foot": "page_header", "body": "text", "head": "page_footer"}
        assert labels(page_height) == labels(None)
        assert f"ignoring page_height metadata '{page_height}'" in caplog.text


class TestExportFailureIsolation:
    def test_export_error_marks_document_failed(self, tmp_path, monkeypatch):
        path = minimal_input(tmp_path)

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("docweave.pipeline.write_atomic", explode)
        config = PipelineConfig(inputs=(path,), output_dir=tmp_path / "out", formats=("json",))
        (outcome,) = run_pipeline(config)
        assert outcome.failed
        assert "export failed" in outcome.error


class TestAtomicWrites:
    def test_write_atomic_leaves_no_temp(self, tmp_path):
        target = tmp_path / "file.txt"
        write_atomic(target, "hello")
        assert target.read_text(encoding="utf-8") == "hello"
        assert list(tmp_path.iterdir()) == [target]

    def test_interrupted_write_leaves_no_final_file(self, tmp_path, monkeypatch):
        import os as os_mod

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("docweave.pipeline.os.replace", explode)
        with pytest.raises(OSError):
            write_atomic(tmp_path / "file.txt", "hello")
        assert list(tmp_path.iterdir()) == []

    def test_write_files_checks_every_target_before_the_first_write(self, tmp_path):
        (tmp_path / "b.txt").mkdir()
        with pytest.raises(IsADirectoryError, match=re.escape(str(tmp_path / "b.txt"))):
            write_files([(tmp_path / "a.txt", "a"), (tmp_path / "b.txt", "b")])
        assert [p.name for p in tmp_path.iterdir()] == ["b.txt"]


#: Config-file contents that must be usage errors, with the expected message.
MALFORMED_CONFIGS = [
    ([], "config must be an object"),
    ({"assembly": []}, "'assembly' must be an object"),
    ({"assembly": {"cluster": 5}}, "section 'cluster' must be an object"),
    ({"assembly": {"row": None}}, "section 'row' must be an object"),
    ({"assembly": {"header_foter": {"fuzzy_threshold": 90}}}, r"sections: \['header_foter'\]"),
]

#: Config-file values of the wrong type, which are rejected rather than coerced.
MISTYPED_CONFIGS = [
    ({"skip_insights": "false"}, "skip_insights must be true or false, got 'false'"),
    ({"skip_images": 1}, "skip_images must be true or false"),
    ({"skip_headers_footers": None}, "skip_headers_footers must be true or false"),
    ({"workers": 2.5}, "worker count must be an integer"),
    ({"workers": True}, "worker count must be an integer"),
    ({"layout_threshold": "0.5"}, "layout_threshold must be a number"),
    ({"element_threshold": False}, "element_threshold must be a number"),
    ({"formats": "json"}, "formats must be a list"),
    ({"usefulness_fixture": 5}, "usefulness_fixture must be a path string"),
    ({"assembly": {"cluster": {"eps": True}}}, "eps must be a number, got True"),
    ({"assembly": {"cluster": {"min_samples": 2.5}}}, "min_samples must be an integer, got 2.5"),
    ({"assembly": {"row": {"angle_threshold_degrees": "50"}}}, "angle_threshold_degrees must be a number"),
    ({"assembly": {"header_footer": {"fuzzy_threshold": 94.5}}}, "fuzzy_threshold must be an integer, got 94.5"),
    ({"assembly": {"header_footer": {"header_top_limit": "100"}}}, "header_top_limit must be a number"),
    # Weights come from the labels: a weight_overrides key is unknown whatever its
    # value, even a well-formed or empty map (three rows, so later ids stay put).
    ({"weight_overrides": [1]}, r"unknown config keys: \['weight_overrides'\]"),
    ({"weight_overrides": {"text": 2}}, r"unknown config keys: \['weight_overrides'\]"),
    ({"weight_overrides": {}}, r"unknown config keys: \['weight_overrides'\]"),
]


#: Config values that Python's own constructors would reject with TypeError;
#: they must fail as ValidationError like every other config error.
MISSHAPED_CONFIGS = [
    ({"assembly": {"cluster": {"epss": 1}}},
     r"unknown keys in assembly config section 'cluster': \['epss'\]"),
    ({"assembly": {"header_footer": {"top_limit": 1}}},
     r"section 'header_footer': \['top_limit'\]"),
    ({"output_dir": 5}, "output_dir must be a path string, got 5"),
    ({"inputs": [5]}, "inputs must be a path string, got 5"),
    ({"formats": [["json"]]}, r"unknown output formats: \[\['json'\]\]"),
]


class TestConfig:
    def test_threshold_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            PipelineConfig(inputs=(), output_dir=tmp_path, layout_threshold=1.5)

    def test_repeated_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match=r"repeated output formats: \['json'\]"):
            PipelineConfig(inputs=(), output_dir=tmp_path, formats=("json", "markdown", "json"))

    def test_inputs_sharing_a_stem_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="inputs share a file stem"):
            PipelineConfig(inputs=("a/report.json", "b/report.txt"), output_dir=tmp_path)
        PipelineConfig(inputs=("a/report.json", "b/report2.json"), output_dir=tmp_path)

    def test_input_among_output_targets_rejected(self, tmp_path):
        report = tmp_path / "report.json"
        with pytest.raises(ValidationError, match="output files would overwrite inputs"):
            PipelineConfig(inputs=(report,), output_dir=tmp_path)
        # Another input's graph file, and a path that resolves to the target.
        graph = tmp_path / "report.graph.json"
        with pytest.raises(ValidationError, match=re.escape(str(graph))):
            PipelineConfig(inputs=(report.with_name("other.json"), graph), output_dir=tmp_path / "x" / "..")
        PipelineConfig(inputs=(report,), output_dir=tmp_path, formats=("markdown",))
        PipelineConfig(inputs=(report,), output_dir=tmp_path / "out")

    def test_formats_non_empty(self, tmp_path):
        with pytest.raises(ValidationError):
            PipelineConfig(inputs=(), output_dir=tmp_path, formats=())

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            PipelineConfig(inputs=(), output_dir=tmp_path, formats=("pdf",))

    def test_workers_validated(self, tmp_path):
        with pytest.raises(ValidationError):
            PipelineConfig(inputs=(), output_dir=tmp_path, workers=0)

    def test_workers_above_cap_rejected(self, tmp_path):
        # Only the rejection is tested: a run with this many workers is never started.
        with pytest.raises(ValidationError, match=rf"\[1, {MAX_WORKERS}\], got {MAX_WORKERS + 1}"):
            PipelineConfig(inputs=(), output_dir=tmp_path, workers=MAX_WORKERS + 1)
        PipelineConfig(inputs=(), output_dir=tmp_path, workers=MAX_WORKERS)

    def test_config_from_mapping_overrides(self, tmp_path):
        config = config_from_mapping(
            {"layout_threshold": 0.5, "workers": 4, "assembly": {"cluster": {"eps": 0.2}}},
            inputs=(tmp_path / "x.json",),
            output_dir=tmp_path / "out",
            workers=2,
        )
        assert config.layout_threshold == 0.5
        assert config.workers == 2  # flag wins
        assert config.assembly.cluster.eps == 0.2

    def test_assembly_override_merges_by_section(self, tmp_path):
        config = config_from_mapping(
            {"assembly": {"cluster": {"eps": 0.2, "min_samples": 3}, "row": {"angle_threshold_degrees": 40}}},
            inputs=(),
            output_dir=tmp_path,
            assembly={
                "cluster": {"eps": None, "min_samples": 5},
                "header_footer": {"fuzzy_threshold": 90, "header_top_limit": None},
            },
        )
        assert (config.assembly.cluster.eps, config.assembly.cluster.min_samples) == (0.2, 5)
        assert config.assembly.row.angle_threshold_degrees == 40
        assert config.assembly.header_footer.fuzzy_threshold == 90
        assert config.assembly.header_footer.header_top_limit == 100

    def test_unknown_config_key_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown config keys"):
            config_from_mapping({"worker": 2}, inputs=(), output_dir=tmp_path)

    @pytest.mark.parametrize("raw, message", MALFORMED_CONFIGS)
    def test_malformed_assembly_config_rejected(self, tmp_path, raw, message):
        with pytest.raises(ValidationError, match=message):
            config_from_mapping(raw, inputs=(), output_dir=tmp_path)

    @pytest.mark.parametrize(
        "raw, message", MISTYPED_CONFIGS + [({"inputs": "ab"}, "inputs must be a list")]
    )
    def test_mistyped_config_rejected(self, tmp_path, raw, message):
        with pytest.raises(ValidationError, match=message):
            config_from_mapping({"output_dir": str(tmp_path), "inputs": [], **raw})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "section, name",
        [("cluster", "eps"), ("row", "angle_threshold_degrees"), ("header_footer", "header_top_limit")],
    )
    def test_non_finite_assembly_number_rejected(self, tmp_path, section, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be finite, got {value!r}"):
            config_from_mapping({"assembly": {section: {name: value}}}, inputs=(), output_dir=tmp_path)

    @pytest.mark.parametrize("raw, message", MISSHAPED_CONFIGS)
    def test_misshaped_config_is_validation_error(self, tmp_path, raw, message):
        with pytest.raises(ValidationError, match=message):
            config_from_mapping({"output_dir": str(tmp_path), "inputs": [], **raw})

    def test_string_paths_and_list_inputs_accepted(self, tmp_path):
        config = config_from_mapping(
            {"inputs": ["a.json"], "output_dir": str(tmp_path), "workers": 1,
             "usefulness_fixture": "gate.json", "skip_insights": False}
        )
        assert config.inputs == (Path("a.json"),)
        assert config.usefulness_fixture == Path("gate.json")


class TestCli:
    def test_parse_writes_selected_formats(self, tmp_path):
        path = minimal_input(tmp_path)
        out = tmp_path / "out"
        runner = CliRunner()
        result = runner.invoke(
            main, ["parse", str(path), "-o", str(out), "--formats", "json,markdown"]
        )
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out.iterdir()) == ["doc.json", "doc.md"]

    def test_parse_partial_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        good = minimal_input(tmp_path, "good.json")
        result = CliRunner().invoke(
            main, ["parse", str(bad), str(good), "-o", str(tmp_path / "out")]
        )
        assert result.exit_code == 1

    def test_parse_prints_failed_page_cause(self, tmp_path, monkeypatch):
        import docweave.pipeline as pipeline_mod

        pages = [
            {
                "page_number": n,
                "element_detections": [
                    {"id": f"t{n}", "label": "text", "confidence": 0.9,
                     "bbox": [0, 100, 200, 150], "text": f"page {n} body"}
                ],
                "layout_detections": [],
            }
            for n in (1, 2)
        ]
        path = minimal_input(tmp_path, "multi.json", pages=pages)
        real_assemble = pipeline_mod.assemble_page

        def flaky(page_number, *args, **kwargs):
            if page_number == 2:
                raise RuntimeError("synthetic page failure")
            return real_assemble(page_number, *args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "assemble_page", flaky)
        result = CliRunner().invoke(
            main, ["parse", str(path), "-o", str(tmp_path / "out"), "--formats", "json"]
        )
        assert result.exit_code == 0
        assert result.stderr.splitlines() == [
            f"{path}: page 2 failed: RuntimeError: synthetic page failure"
        ]

    def test_parse_usage_error_exit_code(self, tmp_path):
        result = CliRunner().invoke(main, ["parse"])
        assert result.exit_code == 2

    def test_parse_workers_above_cap_usage_error(self, tmp_path, monkeypatch):
        import docweave.pipeline as pipeline_mod

        def never(*args, **kwargs):
            raise AssertionError("no document may be processed")

        monkeypatch.setattr(pipeline_mod, "process_document", never)
        path = minimal_input(tmp_path)
        result = CliRunner().invoke(
            main, ["parse", str(path), "-o", str(tmp_path / "out"), "-w", str(MAX_WORKERS + 1)]
        )
        assert result.exit_code == 2, result.output
        assert f"worker count must be an integer in [1, {MAX_WORKERS}]" in result.output

    def test_parse_unknown_format_usage_error(self, tmp_path):
        path = minimal_input(tmp_path)
        result = CliRunner().invoke(main, ["parse", str(path), "--formats", "pdf"])
        assert result.exit_code == 2

    def test_parse_assembly_flags_reach_config(self, tmp_path):
        # fuzzy threshold 90 lets a ratio-95 string relabel (strict >)
        pages = []
        for n in (1, 2):
            label = "page_header" if n == 1 else "text"
            text = "a" * 20 if n == 1 else "a" * 19 + "b"
            pages.append(
                {
                    "page_number": n,
                    "element_detections": [
                        {"id": f"h{n}", "label": label, "confidence": 0.9,
                         "bbox": [0, 10, 100, 40], "text": text},
                        {"id": f"b{n}", "label": "text", "confidence": 0.9,
                         "bbox": [0, 200, 100, 260], "text": f"body {n} text"},
                    ],
                    "layout_detections": [],
                }
            )
        path = minimal_input(tmp_path, "flags.json", pages=pages)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["parse", str(path), "-o", str(out), "--formats", "json", "--fuzzy-threshold", "90"],
        )
        assert result.exit_code == 0, result.output
        doc = document_from_json((out / "flags.json").read_text(encoding="utf-8"))
        assert doc.pages[1].elements["h2"].type.value == "page_header"

    def test_parse_skip_headers_footers_flag(self, tmp_path):
        pages = [
            {
                "page_number": 1,
                "element_detections": [
                    {"id": "h", "label": "page_header", "confidence": 0.9,
                     "bbox": [0, 10, 100, 40], "text": "Head text"},
                    {"id": "b", "label": "text", "confidence": 0.9,
                     "bbox": [0, 200, 100, 260], "text": "Body text"},
                ],
                "layout_detections": [],
            }
        ]
        path = minimal_input(tmp_path, "skip.json", pages=pages)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["parse", str(path), "-o", str(out), "--formats", "markdown", "--skip-headers-footers"],
        )
        assert result.exit_code == 0, result.output
        md = (out / "skip.md").read_text(encoding="utf-8")
        assert "Head text" not in md and "Body text" in md

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("usefulness", "{oops", "invalid JSON at line 1 column 2"),
            ("usefulness", '{"verdicts": {"a": "maybe"}}',
             r"verdicts\['a'\] must be 'useful' or 'useless', got 'maybe'"),
            ("usefulness", '{"verdicts": ["a"]}', "verdicts must be an object, got list"),
            ("enrichment", '{"responses": [{"title": "T"}]}', "responses must be an object, got list"),
            ("enrichment", '{"responses": {"t1": {"title": 5, "data": [{"a": null}]}}}',
             r"responses\['t1'\].title must be a string or null, got 5"),
            ("enrichment", '{"responses": {"t1": {"data": [{"a": null}]}}}',
             r"responses\['t1'\].data must be an array of objects with string values"),
            ("enrichment", '{"responses": {"t1": {"data": [{"a": "1"}, {"b": "2"}]}}}',
             r"responses\['t1'\].data must be .* the same keys"),
            ("category", '{"categories": [1]}', "categories must be an object, got list"),
            ("category", '{"default": null}', "default must be a string, got None"),
        ],
        ids=["bad-json", "verdict-value", "verdicts-list", "responses-list", "title-number",
             "data-null-cell", "data-row-keys", "categories-list", "default-null"],
    )
    def test_parse_malformed_fixture_is_usage_error(self, tmp_path, flag, text, message):
        path = minimal_input(tmp_path)
        bad_fixture = tmp_path / "fixture.json"
        bad_fixture.write_text(text, encoding="utf-8")
        result = CliRunner().invoke(
            main,
            ["parse", str(path), "-o", str(tmp_path / "out"), "--insights",
             f"--{flag}-fixture", str(bad_fixture)],
        )
        assert result.exit_code == 2, result.output
        assert re.search(f"fixture.json: {message}", result.output)

    @pytest.mark.parametrize(
        "raw, message",
        [([], "invalid JSON: top level must be an object, got list")]
        + MALFORMED_CONFIGS[1:]
        + MISTYPED_CONFIGS
        + [MISSHAPED_CONFIGS[0], MISSHAPED_CONFIGS[-1]],
    )
    def test_parse_malformed_config_is_usage_error(self, tmp_path, raw, message):
        path = minimal_input(tmp_path)
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(raw), encoding="utf-8")
        result = CliRunner().invoke(
            main, ["parse", str(path), "-o", str(tmp_path / "out"), "--config", str(config_file)]
        )
        assert result.exit_code == 2, result.output
        assert re.search(message, result.output)
        assert not (tmp_path / "out").exists()

    def test_parse_bad_file_fails_alone(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"filename": "\xff"}')
        ok = minimal_input(tmp_path, "ok.json")
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["parse", str(bad), str(ok), "-o", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"FAILED {bad}: invalid JSON: byte 14 is not UTF-8" in result.output
        assert sorted(p.name for p in out.iterdir()) == sorted(f"ok{s}" for s in FORMATS.values())

    def test_parse_load_failure_is_one_line_naming_the_path_once(self, tmp_path, caplog):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"filename": "", "pages": []}), encoding="utf-8")
        result = CliRunner().invoke(main, ["parse", str(bad), "-o", str(tmp_path / "out")])
        assert result.exit_code == 1, result.output
        assert result.stderr.splitlines() == [f"FAILED {bad}: filename: must be a non-empty string"]
        assert not caplog.records

    def test_parse_inputs_sharing_a_stem_usage_error(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = minimal_input(tmp_path / "a", "report.json")
        second = minimal_input(tmp_path / "b", "report.json")
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["parse", str(first), str(second), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert "inputs share a file stem" in result.output
        assert str(first) in result.output and str(second) in result.output
        assert not out.exists()

    def test_parse_into_the_input_directory_keeps_the_input(self, tmp_path):
        path = minimal_input(tmp_path, "report.json")
        before = path.read_bytes()
        result = CliRunner().invoke(main, ["parse", str(path), "-o", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "output files would overwrite inputs" in result.output
        assert str(path) in result.output
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_parse_repeated_format_usage_error(self, tmp_path):
        path = minimal_input(tmp_path)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["parse", str(path), "-o", str(out), "--formats", "json,json,markdown"])
        assert result.exit_code == 2, result.output
        assert "repeated formats: json" in result.output
        assert not out.exists()

    def test_parse_directory_in_the_way_writes_no_file(self, tmp_path):
        path = minimal_input(tmp_path)
        out = tmp_path / "out"
        (out / "doc.md").mkdir(parents=True)
        result = CliRunner().invoke(main, ["parse", str(path), "-o", str(out)])
        assert result.exit_code == 1, result.output
        assert [p.name for p in out.iterdir()] == ["doc.md"]
        assert not any((out / "doc.md").iterdir())
        assert f"Is a directory: '{out / 'doc.md'}'" in result.output

    def test_parse_with_config_file(self, tmp_path):
        path = minimal_input(tmp_path)
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"formats": ["json"], "workers": 2}), encoding="utf-8")
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["parse", str(path), "-o", str(out), "--config", str(config_file)]
        )
        assert result.exit_code == 0, result.output
        assert [p.name for p in out.iterdir()] == ["doc.json"]

    def test_export_command(self, tmp_path):
        golden = FIXTURE_DIR / "golden" / "report.json"
        out = tmp_path / "exported"
        result = CliRunner().invoke(
            main, ["export", str(golden), "-o", str(out), "--formats", "markdown,dpbench"]
        )
        assert result.exit_code == 0, result.output
        produced = (out / "report.md").read_bytes()
        assert produced == (FIXTURE_DIR / "golden" / "report.md").read_bytes()

    def test_export_skipped_images_absent(self, tmp_path):
        golden = FIXTURE_DIR / "golden" / "report.json"
        out = tmp_path / "exported"
        CliRunner().invoke(main, ["export", str(golden), "-o", str(out)])
        for path in out.iterdir():
            assert "p2-decor" not in path.read_text(encoding="utf-8")

    def test_export_repeated_format_usage_error(self, tmp_path):
        golden = FIXTURE_DIR / "golden" / "report.json"
        out = tmp_path / "exported"
        result = CliRunner().invoke(main, ["export", str(golden), "-o", str(out), "--formats", "markdown,markdown"])
        assert result.exit_code == 2, result.output
        assert "repeated formats: markdown" in result.output
        assert not out.exists()

    def test_export_directory_in_the_way_writes_no_file(self, tmp_path):
        golden = FIXTURE_DIR / "golden" / "report.json"
        out = tmp_path / "exported"
        (out / "report.md").mkdir(parents=True)
        result = CliRunner().invoke(main, ["export", str(golden), "-o", str(out)])
        assert result.exit_code == 1, result.output
        assert [p.name for p in out.iterdir()] == ["report.md"]
        assert f"{out}: cannot write: [Errno 21] Is a directory: '{out / 'report.md'}'" in result.output

    def test_export_malformed_json_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"filename": "x"}', encoding="utf-8")
        result = CliRunner().invoke(main, ["export", str(bad), "-o", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "schema error" in result.output

    def test_export_non_array_pages_fails(self, tmp_path):
        raw = json.loads((FIXTURE_DIR / "golden" / "report.json").read_text(encoding="utf-8"))
        raw["pages"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        result = CliRunner().invoke(main, ["export", str(bad), "-o", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "schema error" in result.output and "pages: expected an array" in result.output

    def test_export_rejects_edited_weight(self, tmp_path):
        raw = json.loads((FIXTURE_DIR / "golden" / "report.json").read_text(encoding="utf-8"))
        entity = next(iter(raw["pages"][0]["elements"].values()))
        entity["weight"] += 1
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["export", str(edited), "-o", str(out)])
        assert result.exit_code == 1, result.output
        expected = f"weight must be a positive integer, {entity['weight'] - 1} for type {entity['type']!r}"
        assert f"elements[{entity['id']!r}]: {expected}, got {entity['weight']}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["parse", "export"])
    def test_empty_format_list_is_usage_error(self, tmp_path, command):
        source = minimal_input(tmp_path) if command == "parse" else FIXTURE_DIR / "golden" / "report.json"
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [command, str(source), "-o", str(out), "--formats", " , "])
        assert result.exit_code == 2, result.output
        assert "at least one output format is required" in result.output
        assert not out.exists()

    def test_parse_rejects_a_result_json(self, tmp_path):
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["parse", str(FIXTURE_DIR / "golden" / "report.json"), "-o", str(out)])
        assert result.exit_code == 1, result.output
        assert "pages[0].element_detections: missing required array" in result.output
        assert not out.exists()

    def test_eval_self_consistency(self, tmp_path):
        golden = FIXTURE_DIR / "golden" / "report.dpbench.json"
        result = CliRunner().invoke(main, ["eval", str(golden), str(golden), "--mode", "layout"])
        assert result.exit_code == 0, result.output
        assert "NID    1.00" in result.output

    def test_eval_table_mode_self(self, tmp_path):
        golden = FIXTURE_DIR / "golden" / "report.dpbench.json"
        report_path = tmp_path / "report.eval.json"
        result = CliRunner().invoke(
            main,
            ["eval", str(golden), str(golden), "--mode", "table", "--report", str(report_path)],
        )
        assert result.exit_code == 0, result.output
        assert "TEDS   1.00" in result.output
        # The report is the one file written wholly by ``json_text``.
        for name in ("report.eval.json", "report.eval.txt"):
            assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / "golden" / name).read_bytes()

    def test_eval_table_mode_golden(self, tmp_path):
        # A 10x10 table with one row deleted and cells reworded, and a spanned
        # table: scores below 1 whose floats depend on the order of additions.
        report_path = tmp_path / "tables.eval.json"
        result = CliRunner().invoke(main, [
            "eval", str(FIXTURE_DIR / "tables.reference.json"), str(FIXTURE_DIR / "tables.prediction.json"),
            "--mode", "table", "--report", str(report_path),
        ])
        assert result.exit_code == 0, result.output
        for name in ("tables.eval.json", "tables.eval.txt"):
            assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / "golden" / name).read_bytes()

    def test_eval_table_mode_sections_golden(self, tmp_path):
        # Tables with thead/tbody/tfoot and spans: one loses a body row in the
        # middle and has cells reworded, one is identical, one loses its
        # first body row and a span. The goldens come from filling the root
        # table in full, so they pin the banded table's floats.
        report_path = tmp_path / "sections.eval.json"
        result = CliRunner().invoke(main, [
            "eval", str(FIXTURE_DIR / "sections.reference.json"), str(FIXTURE_DIR / "sections.prediction.json"),
            "--mode", "table", "--report", str(report_path),
        ])
        assert result.exit_code == 0, result.output
        for name in ("sections.eval.json", "sections.eval.txt"):
            assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / "golden" / name).read_bytes()

    def test_eval_table_mode_small_golden(self, tmp_path):
        # Tables of under 400 root cells: a 3x3 table with a span that loses
        # one cell and has one reworded, a 2x2 table with a ``thead`` and an
        # empty cell, and a one-cell table against two cells. The goldens
        # come from filling these root tables in full, so they pin the
        # banded table's floats on small tables.
        report_path = tmp_path / "small.eval.json"
        result = CliRunner().invoke(main, [
            "eval", str(FIXTURE_DIR / "small.reference.json"), str(FIXTURE_DIR / "small.prediction.json"),
            "--mode", "table", "--report", str(report_path),
        ])
        assert result.exit_code == 0, result.output
        for name in ("small.eval.json", "small.eval.txt"):
            assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / "golden" / name).read_bytes()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
    def test_outputs_honour_the_umask(self, tmp_path, umask, mode):
        path = minimal_input(tmp_path)
        golden = str(FIXTURE_DIR / "golden" / "report.dpbench.json")
        report_path = tmp_path / "report.eval.json"
        previous = os.umask(umask)
        try:
            parse = CliRunner().invoke(main, ["parse", str(path), "-o", str(tmp_path / "out")])
            evaluation = CliRunner().invoke(
                main, ["eval", golden, golden, "--mode", "layout", "--report", str(report_path)]
            )
        finally:
            os.umask(previous)
        assert parse.exit_code == 0, parse.output
        assert evaluation.exit_code == 0, evaluation.output
        written = [*(tmp_path / "out").iterdir(), report_path, report_path.with_suffix(".txt")]
        assert len(written) == 7
        assert {stat.S_IMODE(p.stat().st_mode) for p in written} == {mode}

    def test_eval_rejects_txt_report_path(self, tmp_path):
        golden = FIXTURE_DIR / "golden" / "report.dpbench.json"
        report_path = tmp_path / "out.txt"
        result = CliRunner().invoke(
            main,
            ["eval", str(golden), str(golden), "--mode", "table", "--report", str(report_path)],
        )
        assert result.exit_code == 2
        assert "give the report another suffix" in result.output
        assert "TEDS" not in result.output
        assert not report_path.exists()

    @pytest.mark.parametrize("under_file", [False, True])
    def test_export_unwritable_output_fails_with_message(self, tmp_path, under_file):
        golden = FIXTURE_DIR / "golden" / "report.json"
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out" if under_file else blocker
        result = CliRunner().invoke(main, ["export", str(golden), "-o", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"{out}: cannot write: " in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("blocked", ["parent", "summary"])
    def test_eval_unwritable_report_fails_with_message(self, tmp_path, blocked):
        golden = FIXTURE_DIR / "golden" / "report.dpbench.json"
        if blocked == "parent":
            (tmp_path / "blocker").write_text("", encoding="utf-8")
            report_path = failing = tmp_path / "blocker" / "report.json"
        else:
            report_path = tmp_path / "report.json"
            failing = tmp_path / "report.txt"
            failing.mkdir()
        result = CliRunner().invoke(
            main, ["eval", str(golden), str(golden), "--mode", "layout", "--report", str(report_path)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"{failing}: cannot write: " in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("existing", [False, True])
    def test_eval_unwritable_summary_leaves_report_as_it_was(self, tmp_path, existing):
        golden = FIXTURE_DIR / "golden" / "report.dpbench.json"
        report_path = tmp_path / "report.json"
        if existing:
            report_path.write_text("earlier report\n", encoding="utf-8")
        (tmp_path / "report.txt").mkdir()
        result = CliRunner().invoke(
            main, ["eval", str(golden), str(golden), "--mode", "layout", "--report", str(report_path)]
        )
        assert result.exit_code == 1
        assert f"{tmp_path / 'report.txt'}: cannot write: " in result.output
        # Nothing else is left behind, not even a temp file.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"] * existing + ["report.txt"]
        if existing:
            assert report_path.read_text(encoding="utf-8") == "earlier report\n"

    def test_eval_report_directory_in_the_way_writes_no_summary(self, tmp_path):
        golden = FIXTURE_DIR / "golden" / "report.dpbench.json"
        report_path = tmp_path / "report.json"
        report_path.mkdir()
        result = CliRunner().invoke(
            main, ["eval", str(golden), str(golden), "--mode", "layout", "--report", str(report_path)]
        )
        assert result.exit_code == 1
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert f"{report_path}: cannot write: " in result.output

    def test_eval_missing_file(self, tmp_path):
        golden = FIXTURE_DIR / "golden" / "report.dpbench.json"
        result = CliRunner().invoke(
            main, ["eval", str(golden), str(tmp_path / "nope.json"), "--mode", "layout"]
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("element", [5, {"category": "Paragraph", "content": "abc"}])
    def test_eval_malformed_element_fails_with_message(self, tmp_path, element):
        golden = FIXTURE_DIR / "golden" / "report.dpbench.json"
        raw = json.loads(golden.read_text(encoding="utf-8"))
        raw["elements"].insert(1, element)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        result = CliRunner().invoke(main, ["eval", str(golden), str(bad), "--mode", "layout"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "bad.json: elements[1]" in result.output

    def test_eval_table_mode_on_layout_only_reports_skip(self, tmp_path):
        doc = tmp_path / "layout_only.json"
        doc.write_text(
            json.dumps(
                {
                    "elements": [
                        {
                            "category": "Paragraph",
                            "coordinates": [[0, 0], [1, 0], [1, 1], [0, 1]],
                            "id": 0,
                            "page": 1,
                            "content": {"text": "abc"},
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        result = CliRunner().invoke(main, ["eval", str(doc), str(doc), "--mode", "table"])
        assert result.exit_code == 0
        assert "TEDS   n/a" in result.output
        assert "skipped: 1" in result.output


def test_perfbench_tracer_installs_on_current_names(tmp_path, monkeypatch):
    """perfbench/tracing.py wraps module functions and the client methods by
    name; renaming or deleting one must fail here, not only in its self-test."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    import docweave.pipeline as pipeline_mod

    config = PipelineConfig(
        inputs=(),
        output_dir=tmp_path / "out",
        skip_insights=False,
        usefulness_fixture=FIXTURE_DIR / "usefulness.json",
        enrichment_fixture=FIXTURE_DIR / "enrichment.json",
    )
    clients = _Clients(config)
    original = pipeline_mod.assemble_page
    tracer = Tracer()
    with tracer.installed(clients):
        assert pipeline_mod.assemble_page is not original
        outcome = process_document(FIXTURE_DIR / "report.json", config, clients)
    assert not outcome.failed
    assert pipeline_mod.assemble_page is original
    assert "classify" not in vars(clients.usefulness) and "enrich" not in vars(clients.enrichment)
    counts = tracer.counts[tracer.op]
    assert counts["ingest.gate_images.calls"] == 2 and counts["ingest.enrich_entities.calls"] == 2
