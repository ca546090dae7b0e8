import json

import pytest

from conftest import build_entity
from docweave.errors import ValidationError
from docweave.geometry import BBox, Point
from docweave.model import (
    DocumentResult,
    ElementLabel,
    EntityValue,
    GroupType,
    PageResult,
    SchemaWeights,
    document_from_json,
    document_to_json,
    entity_from_dict,
    entity_to_dict,
    group_from_dict,
    group_to_dict,
    make_entity,
    make_group,
)


class TestSchemaWeights:
    def test_default_weights(self, schema):
        assert schema.weight_of(ElementLabel.TITLE) == 1
        assert schema.weight_of(ElementLabel.SECTION) == 2
        assert schema.weight_of(ElementLabel.TABLE) == 3
        assert schema.weight_of(ElementLabel.TEXT) == 6
        assert schema.weight_of(ElementLabel.PAGE_FOOTER) == 7

    def test_total_mapping(self, schema):
        for label in ElementLabel:
            assert schema.weight_of(label) >= 1

    def test_overrides(self):
        schema = SchemaWeights.with_overrides({"image": 9})
        assert schema.weight_of(ElementLabel.IMAGE) == 9
        assert schema.weight_of(ElementLabel.TITLE) == 1

    def test_unknown_override_rejected(self):
        with pytest.raises(ValidationError, match="unknown element label"):
            SchemaWeights.with_overrides({"figure": 3})

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValidationError):
            SchemaWeights.with_overrides({"text": 0})


class TestEntity:
    def test_derived_fields(self, schema):
        entity = build_entity("e1", "text", (0, 0, 10, 10), text="hello", schema=schema)
        assert entity.mid_point == Point(5, 5)
        assert entity.x_center == 5
        assert entity.y_center == 5
        assert entity.weight == 6

    def test_confidence_bounds(self, schema):
        with pytest.raises(ValidationError):
            build_entity("e1", "text", (0, 0, 1, 1), confidence=1.5, schema=schema)

    def test_generated_id_is_uuid4(self, schema):
        entity = make_entity(
            ElementLabel.TEXT, 0.5, BBox(0, 0, 1, 1), EntityValue(text="abc"), schema
        )
        assert len(entity.id) == 36

    def test_data_rows_must_share_keys(self):
        with pytest.raises(ValidationError, match="key set"):
            EntityValue(text="", data=({"a": "1"}, {"b": "2"}))

    def test_relabel_recomputes_weight(self, schema):
        entity = build_entity("e1", "text", (0, 0, 10, 10), text="x", schema=schema)
        relabeled = entity.with_type(ElementLabel.PAGE_HEADER, schema)
        assert relabeled.weight == 5
        assert relabeled.pixel_coordinates == entity.pixel_coordinates


class TestGroup:
    def test_union_bbox(self, schema):
        a = build_entity("a", "text", (0, 0, 10, 10), text="aaa", schema=schema)
        b = build_entity("b", "text", (20, 5, 30, 40), text="bbb", schema=schema)
        group = make_group(GroupType.GENERIC, [a, b])
        assert group.pixel_coordinates == BBox(0, 0, 30, 40)
        assert group.ids == ("a", "b")

    def test_duplicate_ids_rejected(self, schema):
        a = build_entity("a", "text", (0, 0, 10, 10), text="aaa", schema=schema)
        with pytest.raises(ValidationError, match="duplicates"):
            make_group(GroupType.GENERIC, [a, a])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_group(GroupType.GENERIC, [])


def _single_page_doc(schema):
    a = build_entity("a", "title", (0, 0, 10, 10), text="Title here", schema=schema)
    b = build_entity("b", "text", (0, 20, 10, 30), text="Body text", schema=schema)
    page = PageResult(
        page_number=1,
        elements={"a": a, "b": b},
        groups=(),
        non_groups=("a", "b"),
        skipped_images=(),
    )
    return DocumentResult(
        filename="doc.pdf",
        total_pages=1,
        total_processed_pages=1,
        total_failed_pages=0,
        total_llm_calls=0,
        metadata={"source": "test"},
        document_category="uncategorized",
        pages=(page,),
    )


class TestPageResult:
    def test_partition_enforced(self, schema):
        a = build_entity("a", "text", (0, 0, 10, 10), text="aaa", schema=schema)
        with pytest.raises(ValidationError, match="partition"):
            PageResult(1, {"a": a}, (), (), ())

    def test_duplicate_placement_rejected(self, schema):
        a = build_entity("a", "text", (0, 0, 10, 10), text="aaa", schema=schema)
        group = make_group(GroupType.GENERIC, [a])
        with pytest.raises(ValidationError, match="more than once"):
            PageResult(1, {"a": a}, (group,), ("a",), ())

    def test_skipped_disjoint_from_elements(self, schema):
        a = build_entity("a", "image", (0, 0, 10, 10), schema=schema)
        with pytest.raises(ValidationError, match="skipped"):
            PageResult(1, {"a": a}, (), ("a",), ("a",))


class TestDocumentResult:
    def test_counter_consistency(self, schema):
        with pytest.raises(ValidationError, match="counters"):
            DocumentResult("f", 2, 1, 0, 0, {}, "uncategorized", ())

    def test_pages_sorted_unique(self, schema):
        doc = _single_page_doc(schema)
        page = doc.pages[0]
        with pytest.raises(ValidationError, match="sorted"):
            DocumentResult("f", 2, 2, 0, 0, {}, "uncategorized", (page, page))


class TestSerialization:
    def test_round_trip(self, schema):
        doc = _single_page_doc(schema)
        restored = document_from_json(document_to_json(doc))
        assert restored == doc
        assert document_to_json(restored) == document_to_json(doc)

    def test_elements_key_order_is_reading_order(self, schema):
        doc = _single_page_doc(schema)
        raw = json.loads(document_to_json(doc))
        assert list(raw["pages"][0]["elements"].keys()) == ["a", "b"]

    def test_derived_fields_recomputed_on_load(self, schema):
        entity = build_entity("a", "text", (0, 0, 10, 10), text="aaa", schema=schema)
        raw = entity_to_dict(entity)
        raw["x_center"] = 99.0
        with pytest.raises(ValidationError, match="midpoint"):
            entity_from_dict(raw)

    @pytest.mark.parametrize("key, field", [
        ("mid_point", "x"), ("mid_point", "y"), ("x_center", None), ("y_center", None),
    ])
    def test_stored_centers_must_match_bbox(self, schema, key, field):
        a = build_entity("a", "text", (0, 0, 10, 10), text="aaa", schema=schema)
        b = build_entity("b", "text", (20, 5, 30, 40), text="bbb", schema=schema)
        entity_raw = entity_to_dict(a)
        group_raw = group_to_dict(make_group(GroupType.GENERIC, [a, b]))
        for raw in (entity_raw, group_raw):
            if field is None:
                raw[key] += 1.0
            else:
                raw[key][field] += 1.0
        with pytest.raises(ValidationError, match="do not match geometry"):
            entity_from_dict(entity_raw)
        with pytest.raises(ValidationError, match="do not match geometry"):
            group_from_dict(group_raw, {"a": a, "b": b}, "group")

    def test_group_bbox_must_be_union_of_members(self, schema):
        a = build_entity("a", "text", (0, 0, 10, 10), text="aaa", schema=schema)
        b = build_entity("b", "text", (20, 5, 30, 40), text="bbb", schema=schema)
        raw = group_to_dict(make_group(GroupType.GENERIC, [a, b]))
        elements = {"a": a, "b": b}
        assert group_from_dict(raw, elements, "group") == make_group(GroupType.GENERIC, [a, b])
        raw["pixel_coordinates"]["right"] = 50.0
        with pytest.raises(ValidationError, match="not the union"):
            group_from_dict(raw, elements, "group")

    def test_optional_fields_omitted(self, schema):
        entity = build_entity("a", "text", (0, 0, 10, 10), text="aaa", schema=schema)
        raw = entity_to_dict(entity)
        assert "image_payload" not in raw
        assert "title" not in raw["value"]

    def test_unknown_label_rejected(self, schema):
        entity = build_entity("a", "text", (0, 0, 10, 10), text="aaa", schema=schema)
        raw = entity_to_dict(entity)
        raw["type"] = "paragraph"
        with pytest.raises(ValidationError, match="unknown element label"):
            entity_from_dict(raw)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"total_llm_calls": "lots"}, "total_llm_calls must be a non-negative integer"),
            ({"total_llm_calls": -1}, "total_llm_calls must be a non-negative integer"),
            ({"total_pages": 1.0}, "total_pages must be a non-negative integer"),
            ({"total_pages": 2, "total_failed_pages": True}, "total_failed_pages must be"),
            ({"total_pages": 2, "total_processed_pages": 2}, "1 listed pages"),
        ],
    )
    def test_loader_rejects_counters_the_writer_never_produces(self, schema, changes, message):
        raw = json.loads(document_to_json(_single_page_doc(schema)))
        raw.update(changes)
        with pytest.raises(ValidationError, match=message):
            document_from_json(json.dumps(raw))

    @pytest.mark.parametrize("field", ["page_number", "weight"])
    def test_loader_rejects_bool_for_integer(self, schema, field):
        raw = json.loads(document_to_json(_single_page_doc(schema)))
        page = raw["pages"][0]
        (page if field == "page_number" else page["elements"]["a"])[field] = True
        with pytest.raises(ValidationError, match=f"{field} must be a positive integer"):
            document_from_json(json.dumps(raw))

    @pytest.mark.parametrize(
        "where, key, value, message",
        [
            ("document", "pages", 5, r"document\.pages: expected an array"),
            ("page", "groups", 5, r"groups: expected an array"),
            ("page", "non_groups", "ab", r"non_groups: expected an array"),
            ("page", "skipped_images", None, r"skipped_images: expected an array"),
            ("entity", "value", "Title here", r"expected an object"),
            ("value", "text", 5, r"text, title and summary must be strings"),
            ("value", "title", ["T"], r"text, title and summary must be strings"),
            ("value", "data", 5, r"value\.data: expected an array of objects"),
            ("value", "data", ["row"], r"value\.data: expected an array of objects"),
        ],
    )
    def test_loader_rejects_malformed_structure(self, schema, where, key, value, message):
        raw = json.loads(document_to_json(_single_page_doc(schema)))
        page = raw["pages"][0]
        entity = page["elements"]["a"]
        target = {"document": raw, "page": page, "entity": entity, "value": entity["value"]}[where]
        target[key] = value
        with pytest.raises(ValidationError, match=message):
            document_from_json(json.dumps(raw))

    def test_malformed_document_json(self):
        with pytest.raises(ValidationError, match="invalid document JSON"):
            document_from_json("{not json")
