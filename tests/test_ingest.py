import json
import re
import threading

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_entity, write_detection_file
from docweave.clients import (
    CategoryTable,
    EnrichmentResult,
    FixtureEnrichmentClient,
    StubEnrichmentClient,
    UsefulnessTable,
    UsefulnessVerdict,
    text_digest,
)
from docweave.errors import DetectionInputError, ValidationError
from docweave.geometry import BBox
from docweave.model import ElementLabel
from docweave.ingest import (
    _normalize_body,
    _normalize_title,
    _run_per_entity,
    build_entities,
    classify_document,
    enrich_entities,
    gate_images,
    load_detections,
    normalize_body,
    normalize_title,
    RawDetection,
)


def detection(label, confidence, bbox=(0, 0, 10, 10), text="some text", **kwargs):
    return {"label": label, "confidence": confidence, "bbox": list(bbox), "text": text, **kwargs}


def input_payload(element_detections=(), layout_detections=(), page_number=1, **extra):
    return {
        "filename": "doc.pdf",
        "metadata": {},
        "pages": [
            {
                "page_number": page_number,
                "element_detections": list(element_detections),
                "layout_detections": list(layout_detections),
            }
        ],
        **extra,
    }


def bad_fields(label, kind):
    """One (detection, field, message) per field check; every message is literal text.

    Each field is checked before the confidence threshold, so a detection far
    below it is still rejected.
    """
    return [
        ({"confidence": 0.9, "bbox": [0, 0, 10, 10]}, ".label", "label must be a non-empty string"),
        (detection("", 0.9), ".label", "label must be a non-empty string"),
        (detection(7, 0.9), ".label", "label must be a non-empty string"),
        (detection("heading", 0.9), ".label", f"unknown {kind} label 'heading'"),
        (detection(label, True), ".confidence", "confidence must be a number"),
        (detection(label, "0.9"), ".confidence", "confidence must be a number"),
        (detection(label, None), ".confidence", "confidence must be a number"),
        (detection(label, 1.5), ".confidence", "confidence must be in [0,1], got 1.5"),
        (detection(label, -0.25), ".confidence", "confidence must be in [0,1], got -0.25"),
        (detection(label, 0.01, text=5), ".text", "text must be a string"),
        (detection(label, 0.01, id=5), ".id", "id must be a non-empty string when present"),
        (detection(label, 0.01, id=""), ".id", "id must be a non-empty string when present"),
        (detection(label, 0.01, image_payload=5), ".image_payload",
         "image_payload must be a string when present"),
        (detection(label, 0.01, image_payload=["a.png"]), ".image_payload",
         "image_payload must be a string when present"),
        (detection(label, 0.01, bbox=(10, 0, 0, 10)), ".bbox",
         "box must satisfy left <= right and top <= bottom, got (10.0, 0.0, 0.0, 10.0)"),
        (detection(label, 0.01, bbox=(0, -1, 10, 10)), ".bbox",
         "box coordinates must be non-negative, got (0.0, -1.0, 10.0, 10.0)"),
        # coordinates are numbers, never coerced from strings or bools
        (detection(label, 0.01, bbox=("0", "0", "10", "10")), ".bbox", "left must be a number, got '0'"),
        (detection(label, 0.01, bbox=(0, True, 10, 10)), ".bbox", "top must be a number, got True"),
        (detection(label, 0.01, bbox=(0, 0, None, 10)), ".bbox", "right must be a number, got None"),
        (detection(label, 0.01, bbox=(0, 0, 10, 10**400)), ".bbox", "bottom is too large for a float"),
    ]


class TestLoadDetections:
    @pytest.mark.parametrize("key", ["pages", "element_detections", "layout_detections"])
    def test_missing_array_rejected(self, tmp_path, key):
        payload = input_payload()
        del (payload if key == "pages" else payload["pages"][0])[key]
        path = write_detection_file(tmp_path / "in.json", payload)
        where = "pages" if key == "pages" else f"pages\\[0\\]\\.{key}"
        with pytest.raises(DetectionInputError, match=rf"in\.json: {where}: missing required array"):
            load_detections(path)

    def test_unknown_keys_rejected(self, tmp_path):
        payload = input_payload(total_pages=1)
        path = write_detection_file(tmp_path / "in.json", payload)
        with pytest.raises(DetectionInputError, match=r"in\.json: unknown keys \['total_pages'\]$"):
            load_detections(path)
        # A page's unknown keys are named first, with the page.
        payload["pages"][0].update(full_page_txt="body", elements=[])
        path = write_detection_file(tmp_path / "in.json", payload)
        with pytest.raises(DetectionInputError,
                           match=r"in\.json: pages\[0\]: unknown keys \['elements', 'full_page_txt'\]$"):
            load_detections(path)

    def test_layout_below_threshold_dropped(self, tmp_path):
        path = write_detection_file(
            tmp_path / "in.json",
            input_payload(layout_detections=[detection("multi_column", 0.19)]),
        )
        result = load_detections(path)
        assert result.pages[0].layout_detections == ()

    def test_element_threshold_inclusive(self, tmp_path):
        path = write_detection_file(
            tmp_path / "in.json",
            input_payload(element_detections=[detection("text", 0.30)]),
        )
        result = load_detections(path)
        assert len(result.pages[0].element_detections) == 1

    def test_element_below_threshold_dropped(self, tmp_path):
        path = write_detection_file(
            tmp_path / "in.json",
            input_payload(element_detections=[detection("text", 0.29)]),
        )
        assert load_detections(path).pages[0].element_detections == ()

    def test_empty_pages_valid(self, tmp_path):
        payload = {"filename": "doc.pdf", "metadata": {}, "pages": []}
        path = write_detection_file(tmp_path / "in.json", payload)
        assert load_detections(path).pages == ()

    def test_unknown_label_rejected(self, tmp_path):
        path = write_detection_file(
            tmp_path / "in.json",
            input_payload(element_detections=[detection("paragraph", 0.9)]),
        )
        with pytest.raises(DetectionInputError, match="unknown element label 'paragraph'"):
            load_detections(path)

    def test_unknown_layout_label_rejected_even_below_threshold(self, tmp_path):
        path = write_detection_file(
            tmp_path / "in.json",
            input_payload(layout_detections=[detection("columns", 0.01)]),
        )
        with pytest.raises(DetectionInputError, match="unknown layout label 'columns'"):
            load_detections(path)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"filename": "x",\n  "pages": [}', encoding="utf-8")
        with pytest.raises(DetectionInputError, match="line 2"):
            load_detections(path)

    def test_field_context_in_errors(self, tmp_path):
        path = write_detection_file(
            tmp_path / "in.json",
            input_payload(element_detections=[detection("text", 1.4)]),
        )
        with pytest.raises(DetectionInputError, match=r"element_detections\[0\].confidence"):
            load_detections(path)

    @pytest.mark.parametrize(
        "raw, field, message",
        [
            ("text", "", "detection must be an object"),
            ([["label", "text"]], "", "detection must be an object"),
            ({**detection("text", 0.9), "bbox": "abcd"}, ".bbox",
             r"bbox must be a \[left, top, right, bottom\] array"),
            (detection("text", 0.9, bbox=(0, 0, 10)), ".bbox",
             r"bbox must be a \[left, top, right, bottom\] array"),
            ({**detection("text", 0.9), "bbox": {"0": 0, "1": 0, "2": 1, "3": 1}}, ".bbox",
             r"bbox must be a \[left, top, right, bottom\] array"),
            *[(raw, field, re.escape(message)) for raw, field, message in bad_fields("text", "element")],
        ],
    )
    def test_bad_detection_names_its_field(self, tmp_path, raw, field, message):
        path = write_detection_file(tmp_path / "in.json", input_payload(element_detections=[raw]))
        with pytest.raises(DetectionInputError, match=rf"element_detections\[0\]{field}: {message}"):
            load_detections(path)

    @pytest.mark.parametrize(
        "raw, field, message",
        [
            ("group", "", "detection must be an object"),
            ({**detection("group", 0.9), "bbox": "abcd"}, ".bbox",
             "bbox must be a [left, top, right, bottom] array"),
            *bad_fields("group", "layout"),
        ],
    )
    def test_bad_layout_detection_names_its_field(self, tmp_path, raw, field, message):
        path = write_detection_file(tmp_path / "in.json", input_payload(layout_detections=[raw]))
        expected = re.escape(f"layout_detections[0]{field}: {message}")
        with pytest.raises(DetectionInputError, match=expected):
            load_detections(path)

    @pytest.mark.parametrize(
        "payload, context, message",
        [
            ({"filename": "doc.pdf", "metadata": [["k", "v"]]}, "metadata", "must be a string-to-string map"),
            ({"filename": "doc.pdf", "pages": [[1]]}, r"pages\[0\]", "page must be an object"),
        ],
    )
    def test_bad_container_names_its_field(self, tmp_path, payload, context, message):
        path = write_detection_file(tmp_path / "in.json", payload)
        with pytest.raises(DetectionInputError, match=rf"in\.json: {context}: {message}"):
            load_detections(path)

    def test_duplicate_page_numbers_rejected(self, tmp_path):
        payload = input_payload()
        payload["pages"].append(dict(payload["pages"][0]))
        path = write_detection_file(tmp_path / "in.json", payload)
        with pytest.raises(DetectionInputError, match="duplicate page number"):
            load_detections(path)

    def test_duplicate_entity_ids_rejected(self, tmp_path):
        path = write_detection_file(
            tmp_path / "in.json",
            input_payload(
                element_detections=[
                    detection("text", 0.9, id="same"),
                    detection("title", 0.9, id="same"),
                ]
            ),
        )
        with pytest.raises(DetectionInputError, match="duplicate entity id 'same'"):
            load_detections(path)

    def test_missing_ids_derived_from_position(self, tmp_path):
        payload = input_payload(
            element_detections=[
                detection("text", 0.1),
                detection("text", 0.9),
                detection("title", 0.9, id="given"),
                detection("text", 0.9),
            ]
        )
        path = write_detection_file(tmp_path / "in.json", payload)
        ids = [d.id for d in load_detections(path).pages[0].element_detections]
        assert ids[1] == "given" and len(set(ids)) == 3
        assert ids == [d.id for d in load_detections(path).pages[0].element_detections]
        # the index counts dropped detections, so a lower threshold keeps each id
        low = load_detections(path, element_threshold=0.0).pages[0].element_detections
        assert [d.id for d in low[1:]] == ids
        moved = input_payload(payload["pages"][0]["element_detections"], page_number=2)
        other_page = write_detection_file(tmp_path / "p2.json", moved)
        assert load_detections(other_page).pages[0].element_detections[0].id != ids[0]

    def test_derived_id_checked_for_duplicates(self, tmp_path):
        path = write_detection_file(
            tmp_path / "in.json", input_payload(element_detections=[detection("text", 0.9)])
        )
        derived = load_detections(path).pages[0].element_detections[0].id
        path = write_detection_file(
            tmp_path / "in.json",
            input_payload(
                element_detections=[detection("text", 0.9), detection("title", 0.9, id=derived)]
            ),
        )
        with pytest.raises(DetectionInputError, match=f"duplicate entity id '{derived}'"):
            load_detections(path)

    def test_threshold_monotone(self, tmp_path):
        confidences = [0.21, 0.35, 0.6, 0.95]
        path = write_detection_file(
            tmp_path / "in.json",
            input_payload(
                element_detections=[detection("text", c) for c in confidences]
            ),
        )
        kept = [
            len(load_detections(path, element_threshold=t).pages[0].element_detections)
            for t in (0.1, 0.3, 0.5, 0.9, 1.0)
        ]
        assert kept == sorted(kept, reverse=True)


class TestNormalizeTitle:
    def test_punctuation_run_collapsed(self):
        assert normalize_title("Results!!!") == "Results!"

    def test_identity_on_clean_input(self):
        assert normalize_title("Title") == "Title"

    def test_control_chars_stripped_and_trimmed(self):
        assert normalize_title("  A\u0007B  ") == "AB"

    def test_two_marks_kept(self):
        assert normalize_title("Intro\u0000duction!!") == "Introduction!!"

    def test_letter_runs_untouched(self):
        assert normalize_title("Balloon") == "Balloon"

    @given(st.text(max_size=40))
    def test_idempotent(self, s):
        once = normalize_title(s)
        assert normalize_title(once) == once


class TestNormalizeBody:
    def test_nfkc_ligature(self):
        assert normalize_body("ﬁle") == "file"

    def test_bullet_standardized(self):
        assert normalize_body("• item") == "- item"

    def test_whitespace_collapsed(self):
        assert normalize_body("a   b") == "a b"

    def test_line_structure_preserved(self):
        assert normalize_body("• one\n● two") == "- one\n- two"

    @given(st.text(max_size=60))
    def test_idempotent(self, s):
        once = normalize_body(s)
        assert normalize_body(once) == once


#: Pieces that steer the normalizers' fast paths on and off: ASCII words and
#: punctuation runs, tabs, line ends, double spaces, bullets, control and
#: format characters, and non-ASCII letters NFKC changes or keeps.
_PIECES = st.sampled_from(
    ["Title", "a b", " ", "  ", "\t", "\r\n", "\r", "\n", "!!", "!!!", "...", "--", "$$$", "~~~~",
     "\u2022 ", "\u25cf", "\x00", "\x07", "\x7f", "\u200b", "\u00e9", "\ufb01", "\uff41", "\u00a0"]
)
_MIXED_TEXT = st.lists(_PIECES | st.text(max_size=3), max_size=12).map("".join)


class TestNormalizerFastPaths:
    @settings(max_examples=400)
    @given(_MIXED_TEXT)
    def test_body_fast_path_equals_full_rules(self, s):
        assert normalize_body(s) == _normalize_body(s)

    @settings(max_examples=400)
    @given(_MIXED_TEXT)
    def test_title_fast_path_equals_full_rules(self, s):
        assert normalize_title(s) == _normalize_title(s)

    @pytest.mark.parametrize("s", ["  Annual report  ", "Q1 -- 2025!!", "a\tb", "x\r\ny", "a  b", "caf\u00e9"])
    def test_examples_agree(self, s):
        assert normalize_body(s) == _normalize_body(s)
        assert normalize_title(s) == _normalize_title(s)


class TestRunPerEntity:
    @pytest.mark.parametrize("workers, targets", [(1, [1, 2, 3]), (4, [1])])
    def test_runs_inline_without_a_pool(self, workers, targets):
        threads = []

        def call(target):
            threads.append(threading.current_thread())
            if target == 2:
                raise RuntimeError("boom")
            return target * 10

        results = _run_per_entity(targets, call, workers)
        assert [r for r, _ in results] == [t * 10 if t != 2 else None for t in targets]
        assert [type(e).__name__ if e else None for _, e in results] == [
            "RuntimeError" if t == 2 else None for t in targets
        ]
        assert threads == [threading.current_thread()] * len(targets)

    def test_pool_keeps_target_order(self):
        results = _run_per_entity(list(range(8)), lambda t: -t, 4)
        assert results == [(-t, None) for t in range(8)]


def raw(label, text, box=(0, 0, 10, 10), entity_id="e", **kwargs):
    return RawDetection(entity_id, ElementLabel(label), 0.9, BBox(*box), text, **kwargs)


class TestBuildEntities:
    def test_geometry_and_weight(self):
        (entity,) = build_entities([raw("text", "hello")])
        assert entity.pixel_coordinates.x_center == 5 and entity.pixel_coordinates.y_center == 5
        assert entity.weight == 6

    def test_title_normalized(self):
        (entity,) = build_entities([raw("title", "Intro\u0000duction!!")])
        assert entity.value.text == "Introduction!!"

    def test_table_with_empty_text_retained(self):
        assert len(build_entities([raw("table", "")])) == 1

    def test_supplied_id_preserved(self):
        (entity,) = build_entities([raw("text", "hello", entity_id="keep-me")])
        assert entity.id == "keep-me"

    def test_equals_checked_constructor(self):
        det = raw("image", "", image_payload="map.png")
        expected = build_entity("e", "image", (0, 0, 10, 10), image_payload="map.png")
        assert build_entities([det]) == [expected]


class TestFilterSmallText:
    """``build_entities`` drops entities whose normalized text is under 3 characters."""

    def test_two_chars_removed(self):
        assert build_entities([raw("text", "ab")]) == []

    def test_empty_image_kept(self):
        assert len(build_entities([raw("image", "")])) == 1

    def test_three_chars_kept(self):
        assert len(build_entities([raw("text", "abc")])) == 1

    def test_empty_caption_removed(self):
        assert build_entities([raw("image_caption", "")]) == []

    def test_length_counted_after_normalizing(self):
        assert build_entities([raw("title", "a\u0007b  ")]) == []


class _FailingClassifier:
    def classify(self, entity):
        raise RuntimeError("boom")


class _FailingEnricher:
    def enrich(self, entity):
        raise RuntimeError("boom")


class TestGateImages:
    def test_useless_image_skipped(self):
        image = build_entity("img", "image", (0, 0, 10, 10))
        classifier = UsefulnessTable({"img": UsefulnessVerdict.USELESS})
        kept, skipped = gate_images([image], classifier)
        assert kept == [] and skipped == ["img"]

    def test_table_never_classified(self):
        calls = []

        class Recorder:
            def classify(self, entity):
                calls.append(entity.id)
                return UsefulnessVerdict.USEFUL

        table = build_entity("tbl", "table", (0, 0, 10, 10), text="data")
        kept, skipped = gate_images([table], Recorder())
        assert kept == [table] and skipped == [] and calls == []

    def test_no_images_vacuous(self):
        text = build_entity("t", "text", (0, 0, 10, 10), text="abc")
        kept, skipped = gate_images([text], UsefulnessTable())
        assert kept == [text] and skipped == []

    def test_fail_open(self):
        image = build_entity("img", "image", (0, 0, 10, 10))
        kept, skipped = gate_images([image], _FailingClassifier())
        assert kept == [image] and skipped == []

    def test_partition_property(self):
        images = [
            build_entity(f"img{i}", "image", (i, 0, i + 5, 5)) for i in range(6)
        ]
        overrides = {"img1": UsefulnessVerdict.USELESS, "img4": UsefulnessVerdict.USELESS}
        kept, skipped = gate_images(images, UsefulnessTable(overrides))
        kept_ids = {e.id for e in kept}
        assert kept_ids | set(skipped) == {e.id for e in images}
        assert kept_ids & set(skipped) == set()

    def test_parallel_matches_serial(self):
        images = [
            build_entity(f"img{i}", "image", (i, 0, i + 5, 5)) for i in range(8)
        ]
        classifier = UsefulnessTable(
            {"img2": UsefulnessVerdict.USELESS, "img7": UsefulnessVerdict.USELESS}
        )
        serial = gate_images(images, classifier, max_workers=1)
        parallel = gate_images(images, classifier, max_workers=8)
        assert serial == parallel


class TestEnrichEntities:
    def test_table_enriched_from_fixture(self, tmp_path):
        fixture = tmp_path / "enrich.json"
        fixture.write_text(
            json.dumps(
                {
                    "responses": {
                        "tbl": {
                            "title": "T",
                            "data": [{"a": "1", "b": "2"}],
                        }
                    }
                }
            ),
            encoding="utf-8",
        )
        table = build_entity("tbl", "table", (0, 0, 10, 10), text="raw")
        enriched, calls = enrich_entities([table], FixtureEnrichmentClient(fixture))
        assert calls == 1
        assert enriched[0].value.title == "T"
        assert enriched[0].value.data == ({"a": "1", "b": "2"},)
        assert enriched[0].value.text == "raw"

    def test_failure_keeps_ocr_value_but_counts(self):
        table = build_entity("tbl", "table", (0, 0, 10, 10), text="raw")
        enriched, calls = enrich_entities([table], _FailingEnricher())
        assert calls == 1
        assert enriched[0].value.text == "raw"

    def test_geometry_never_mutated(self):
        table = build_entity("tbl", "table", (0, 0, 10, 10), text="raw")
        enriched, _ = enrich_entities([table], StubEnrichmentClient())
        assert enriched[0].pixel_coordinates == table.pixel_coordinates
        assert enriched[0].weight == table.weight
        box, table_box = enriched[0].pixel_coordinates, table.pixel_coordinates
        assert (box.x_center, box.y_center) == (table_box.x_center, table_box.y_center)

    def test_text_entities_not_called(self):
        text = build_entity("t", "text", (0, 0, 10, 10), text="abc")
        enriched, calls = enrich_entities([text], _FailingEnricher())
        assert calls == 0 and enriched == [text]

    def test_image_text_replaced(self, tmp_path):
        fixture = tmp_path / "enrich.json"
        fixture.write_text(
            json.dumps({"responses": {"img": {"summary": "a chart", "text": "values rise"}}}),
            encoding="utf-8",
        )
        image = build_entity("img", "image", (0, 0, 10, 10), text="")
        enriched, calls = enrich_entities([image], FixtureEnrichmentClient(fixture))
        assert enriched[0].value.text == "values rise"
        assert enriched[0].value.summary == "a chart"

    def test_enrichment_result_requires_a_field(self):
        with pytest.raises(ValidationError):
            EnrichmentResult()

    def test_skipped_image_never_enriched(self):
        calls = []

        class Recorder:
            def enrich(self, entity):
                calls.append(entity.id)
                return EnrichmentResult(text=entity.value.text or "x")

        useful = build_entity("img-useful", "image", (0, 0, 10, 10))
        useless = build_entity("img-useless", "image", (20, 0, 30, 10))
        classifier = UsefulnessTable(
            {"img-useless": UsefulnessVerdict.USELESS}
        )
        kept, skipped = gate_images([useful, useless], classifier)
        _, count = enrich_entities(kept, Recorder())
        assert skipped == ["img-useless"]
        assert calls == ["img-useful"]
        assert count == 1

    def test_parallel_matches_serial(self, tmp_path):
        fixture = tmp_path / "enrich.json"
        fixture.write_text(
            json.dumps(
                {
                    "responses": {
                        f"tbl{i}": {"title": f"T{i}", "summary": f"S{i}"} for i in range(6)
                    }
                }
            ),
            encoding="utf-8",
        )
        tables = [
            build_entity(f"tbl{i}", "table", (0, 20 * i, 10, 20 * i + 10), text=f"t{i}")
            for i in range(8)  # tbl6/tbl7 missing from the fixture: fail-open path
        ]
        client = FixtureEnrichmentClient(fixture)
        serial = enrich_entities(tables, client, max_workers=1)
        parallel = enrich_entities(tables, client, max_workers=8)
        assert serial == parallel
        assert serial[1] == 8


class TestClassifyDocument:
    def test_stub_returns_uncategorized(self):
        assert classify_document("anything", CategoryTable()) == "uncategorized"

    def test_fixture_lookup(self, tmp_path):
        fixture = tmp_path / "cat.json"
        fixture.write_text(
            json.dumps({"categories": {text_digest("quarterly revenue"): "financial"}}),
            encoding="utf-8",
        )
        classifier = CategoryTable.from_fixture(fixture)
        assert classify_document("quarterly revenue", classifier) == "financial"
        assert classify_document("unknown text", classifier) == "uncategorized"

    def test_empty_text(self):
        assert classify_document("", CategoryTable()) == "uncategorized"

    def test_failure_maps_to_default(self):
        class Exploder:
            def classify(self, text):
                raise RuntimeError("no model")

        assert classify_document("abc", Exploder()) == "uncategorized"


class TestEnrichmentClientResolution:
    def test_env_var_selects_http_client(self, monkeypatch):
        from docweave.clients import (
            ENRICHMENT_URL_ENV,
            HttpEnrichmentClient,
            StubEnrichmentClient,
            resolve_enrichment_client,
        )

        monkeypatch.delenv(ENRICHMENT_URL_ENV, raising=False)
        assert isinstance(resolve_enrichment_client(), StubEnrichmentClient)
        monkeypatch.setenv(ENRICHMENT_URL_ENV, "http://localhost:9/enrich")
        client = resolve_enrichment_client()
        assert isinstance(client, HttpEnrichmentClient)
        assert client.url == "http://localhost:9/enrich"

    def test_fixture_beats_env(self, monkeypatch, tmp_path):
        from docweave.clients import (
            ENRICHMENT_URL_ENV,
            FixtureEnrichmentClient,
            resolve_enrichment_client,
        )

        fixture = tmp_path / "enrich.json"
        fixture.write_text('{"responses": {}}', encoding="utf-8")
        monkeypatch.setenv(ENRICHMENT_URL_ENV, "http://localhost:9/enrich")
        assert isinstance(resolve_enrichment_client(fixture), FixtureEnrichmentClient)


class TestFixtureUsefulness:
    def test_fixture_verdicts(self, tmp_path):
        fixture = tmp_path / "gate.json"
        fixture.write_text(
            json.dumps({"verdicts": {"img": "useless"}, "default": "useful"}),
            encoding="utf-8",
        )
        classifier = UsefulnessTable.from_fixture(fixture)
        image = build_entity("img", "image", (0, 0, 10, 10))
        other = build_entity("img2", "image", (0, 0, 10, 10))
        assert classifier.classify(image) is UsefulnessVerdict.USELESS
        assert classifier.classify(other) is UsefulnessVerdict.USEFUL
