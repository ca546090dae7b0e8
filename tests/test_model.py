import json
import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_entity
from docweave.assembly import (
    AssemblyParams,
    HeaderFooterParams,
    assemble_page,
    correct_headers_footers,
)
from docweave.errors import ValidationError
from docweave.export import to_dpbench_json, to_graph_json
from docweave.geometry import BBox
from docweave.ingest import LayoutDetection
from docweave.model import (
    DocumentResult,
    ElementLabel,
    Entity,
    EntityValue,
    GroupType,
    LayoutLabel,
    PageResult,
    WEIGHTS,
    _json_value,
    document_from_json,
    document_to_json,
    entity_from_dict,
    group_from_dict,
    json_text,
    make_group,
)
from oracles import (
    document_to_dict,
    dpbench_to_dict,
    entity_to_dict,
    graph_to_dict,
    group_to_dict,
    indented_json,
)


class TestSchemaWeights:
    """An entity's weight is its label's place in the hierarchy, ``WEIGHTS[type]``."""

    def test_default_weights(self):
        for label, weight in (("title", 1), ("section", 2), ("table", 3), ("text", 6), ("page_footer", 7)):
            assert build_entity("e1", label, (0, 0, 10, 10)).weight == weight

    def test_total_mapping(self):
        assert set(WEIGHTS) == set(ElementLabel)
        for label in ElementLabel:
            assert build_entity("e1", label, (0, 0, 10, 10)).weight == WEIGHTS[label] >= 1

    def test_overrides(self):
        # The weight is no field, so no entity can carry one its label does not give.
        entity = build_entity("e1", "image", (0, 0, 10, 10))
        assert "weight" not in {f.name for f in fields(Entity)}
        with pytest.raises(TypeError, match="weight"):
            replace(entity, weight=9)

    def test_unknown_override_rejected(self):
        raw = json.loads(document_to_json(_single_page_doc()))
        raw["pages"][0]["elements"]["b"]["weight"] = 7
        message = r"pages\[0\]\.elements\['b'\]: weight must be a positive integer, 6 for type 'text', got 7"
        with pytest.raises(ValidationError, match=message):
            document_from_json(json.dumps(raw))

    def test_non_positive_weight_rejected(self):
        raw = entity_to_dict(build_entity("a", "title", (0, 0, 10, 10), text="T"))
        for weight in (0, -1, 1.0):
            raw["weight"] = weight
            with pytest.raises(ValidationError, match="weight must be a positive integer, 1 for type 'title'"):
                entity_from_dict(raw)


class TestEntity:
    def test_derived_fields(self):
        entity = build_entity("e1", "text", (0, 0, 10, 10), text="hello")
        assert entity.pixel_coordinates.x_center == 5
        assert entity.pixel_coordinates.y_center == 5
        assert entity.weight == 6

    def test_confidence_bounds(self):
        raw = entity_to_dict(build_entity("e1", "text", (0, 0, 1, 1)))
        for confidence in (1.5, -0.1):
            raw["confidence"] = confidence
            with pytest.raises(ValidationError, match=r"confidence must be in \[0,1\]"):
                entity_from_dict(raw)

    def test_id_is_required(self):
        raw = entity_to_dict(build_entity("e1", "text", (0, 0, 1, 1), text="abc"))
        assert entity_from_dict(raw).id == "e1"
        raw["id"] = ""
        with pytest.raises(ValidationError, match="id must be a non-empty string"):
            entity_from_dict(raw)
        del raw["id"]
        with pytest.raises(ValidationError, match="missing required field 'id'"):
            entity_from_dict(raw)

    def test_data_rows_must_share_keys(self):
        with pytest.raises(ValidationError, match="key set"):
            EntityValue(text="", data=({"a": "1"}, {"b": "2"}))

    @pytest.mark.parametrize("row", [{"a": 1}, {"a": None}, {"a": ["x"]}, {1: "x"}])
    def test_data_cells_and_keys_must_be_strings(self, row):
        with pytest.raises(ValidationError, match="data rows must map strings to strings"):
            EntityValue(text="", data=({"a": "x"}, row))

    def test_relabel_recomputes_weight(self):
        entity = build_entity("e1", "text", (0, 0, 10, 10), text="x")
        relabeled = replace(entity, type=ElementLabel.PAGE_HEADER)
        assert relabeled.weight == 5
        assert relabeled.pixel_coordinates == entity.pixel_coordinates


class TestGroup:
    def test_union_bbox(self):
        a = build_entity("a", "text", (0, 0, 10, 10), text="aaa")
        b = build_entity("b", "text", (20, 5, 30, 40), text="bbb")
        group = make_group(GroupType.GENERIC, [a, b])
        assert group.pixel_coordinates == BBox(0, 0, 30, 40)
        assert group.ids == ("a", "b")

    def test_duplicate_ids_rejected(self):
        a = build_entity("a", "text", (0, 0, 10, 10), text="aaa")
        with pytest.raises(ValidationError, match="duplicates"):
            make_group(GroupType.GENERIC, [a, a])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_group(GroupType.GENERIC, [])


def _single_page_doc():
    a = build_entity("a", "title", (0, 0, 10, 10), text="Title here")
    b = build_entity("b", "text", (0, 20, 10, 30), text="Body text")
    page = PageResult(
        page_number=1,
        elements={"a": a, "b": b},
        groups=(),
        skipped_images=(),
    )
    return DocumentResult(
        filename="doc.pdf",
        total_pages=1,
        total_llm_calls=0,
        metadata={"source": "test"},
        document_category="uncategorized",
        pages=(page,),
    )


class TestPageResult:
    def test_partition_enforced(self):
        # non_groups is derived; the loader rejects a stored list that differs
        for stored in (["a"], ["a", "b", "c"], ["b", "a"]):
            raw = json.loads(document_to_json(_single_page_doc()))
            raw["pages"][0]["non_groups"] = stored
            with pytest.raises(ValidationError, match="non_groups: must list the ungrouped"):
                document_from_json(json.dumps(raw))

    def test_non_groups_are_ungrouped_ids_in_reading_order(self):
        a, b, c = (
            build_entity(eid, "text", (0, top, 10, top + 5), text=eid * 3)
            for eid, top in (("a", 0), ("b", 10), ("c", 20))
        )
        page = PageResult(1, {"c": c, "b": b, "a": a}, (make_group(GroupType.GENERIC, [b]),), ())
        assert page.non_groups == ("c", "a")

    def test_duplicate_placement_rejected(self):
        a = build_entity("a", "text", (0, 0, 10, 10), text="aaa")
        group = make_group(GroupType.GENERIC, [a])
        with pytest.raises(ValidationError, match="more than one group"):
            PageResult(1, {"a": a}, (group, group), ())

    def test_group_ids_must_be_elements(self):
        a = build_entity("a", "text", (0, 0, 10, 10), text="aaa")
        with pytest.raises(ValidationError, match="group ids must be page elements"):
            PageResult(1, {}, (make_group(GroupType.GENERIC, [a]),), ())

    def test_skipped_disjoint_from_elements(self):
        a = build_entity("a", "image", (0, 0, 10, 10))
        with pytest.raises(ValidationError, match="skipped"):
            PageResult(1, {"a": a}, (), ("a",))


class TestDocumentResult:
    def test_counter_consistency(self):
        page = _single_page_doc().pages[0]
        with pytest.raises(ValidationError, match="1 listed pages exceed total_pages 0"):
            DocumentResult("f", 0, 0, {}, "uncategorized", (page,))

    def test_counters_derived_from_pages(self):
        page = _single_page_doc().pages[0]
        doc = DocumentResult("f", 3, 0, {}, "uncategorized", (page,))
        assert (doc.total_processed_pages, doc.total_failed_pages) == (1, 2)

    def test_pages_sorted_unique(self):
        doc = _single_page_doc()
        page = doc.pages[0]
        with pytest.raises(ValidationError, match="sorted"):
            DocumentResult("f", 2, 0, {}, "uncategorized", (page, page))


class TestSerialization:
    def test_round_trip(self):
        doc = _single_page_doc()
        restored = document_from_json(document_to_json(doc))
        assert restored == doc
        assert document_to_json(restored) == document_to_json(doc)

    def test_elements_key_order_is_reading_order(self):
        doc = _single_page_doc()
        raw = json.loads(document_to_json(doc))
        assert list(raw["pages"][0]["elements"].keys()) == ["a", "b"]

    def test_derived_fields_recomputed_on_load(self):
        entity = build_entity("a", "text", (0, 0, 10, 10), text="aaa")
        raw = entity_to_dict(entity)
        raw["x_center"] = 99.0
        with pytest.raises(ValidationError, match="midpoint"):
            entity_from_dict(raw)

    @pytest.mark.parametrize("key, field", [
        ("mid_point", "x"), ("mid_point", "y"), ("x_center", None), ("y_center", None),
    ])
    def test_stored_centers_must_match_bbox(self, key, field):
        a = build_entity("a", "text", (0, 0, 10, 10), text="aaa")
        b = build_entity("b", "text", (20, 5, 30, 40), text="bbb")
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

    def test_group_bbox_must_be_union_of_members(self):
        a = build_entity("a", "text", (0, 0, 10, 10), text="aaa")
        b = build_entity("b", "text", (20, 5, 30, 40), text="bbb")
        raw = group_to_dict(make_group(GroupType.GENERIC, [a, b]))
        elements = {"a": a, "b": b}
        assert group_from_dict(raw, elements, "group") == make_group(GroupType.GENERIC, [a, b])
        raw["pixel_coordinates"]["right"] = 50.0
        with pytest.raises(ValidationError, match="not the union"):
            group_from_dict(raw, elements, "group")

    def test_optional_fields_omitted(self):
        entity = build_entity("a", "text", (0, 0, 10, 10), text="aaa")
        raw = entity_to_dict(entity)
        assert "image_payload" not in raw
        assert "title" not in raw["value"]

    def test_unknown_label_rejected(self):
        entity = build_entity("a", "text", (0, 0, 10, 10), text="aaa")
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
    def test_loader_rejects_counters_the_writer_never_produces(self, changes, message):
        raw = json.loads(document_to_json(_single_page_doc()))
        raw.update(changes)
        with pytest.raises(ValidationError, match=message):
            document_from_json(json.dumps(raw))

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"total_processed_pages": 0}, "total_processed_pages must be 1 for 1 listed pages"),
            ({"total_failed_pages": 1}, "total_failed_pages must be 0 for 1 listed pages"),
            ({"total_pages": 3, "total_failed_pages": 1}, "total_failed_pages must be 2"),
            ({"total_processed_pages": 1.0}, "total_processed_pages must be 1"),
        ],
    )
    def test_loader_rejects_counters_that_disagree_with_pages(self, changes, message):
        raw = json.loads(document_to_json(_single_page_doc()))
        raw.update(changes)
        with pytest.raises(ValidationError, match=message):
            document_from_json(json.dumps(raw))

    @pytest.mark.parametrize("field", ["page_number", "weight"])
    def test_loader_rejects_bool_for_integer(self, field):
        raw = json.loads(document_to_json(_single_page_doc()))
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
            ("document", "filename", 5, r"filename must be a string, got 5"),
            ("document", "filename", "", r"filename must be a non-empty string"),
            ("document", "document_category", None, r"document_category must be a string"),
            ("entity", "confidence", True, r"confidence must be a number, got True"),
            ("entity", "confidence", "0.5", r"confidence must be a number"),
            ("entity", "image_payload", 5, r"image_payload must be a string"),
            ("entity", "image_payload", None, r"image_payload must be a string"),
            ("entity", "id", 5, r"id must be a string"),
            ("entity", "x_center", "5.0", r"x_center must be a number"),
            ("page", "groups", [{"type": "group", "ids": [5]}], r"ids: entries must be strings"),
            ("page", "non_groups", ["a", 5], r"non_groups: entries must be strings"),
            ("page", "skipped_images", [5], r"skipped_images: entries must be strings"),
            ("box", "left", "200.0", r"pixel_coordinates: left must be a number, got '200.0'"),
            ("box", "top", False, r"pixel_coordinates: top must be a number, got False"),
            ("box", "right", 10**400, r"pixel_coordinates: right is too large for a float"),
            ("value", "data", [{"a": 1, "b": {"nested": [True, None]}}],
             r"elements\['a'\]\.value\.data: data rows must map strings to strings, got 'a': 1"),
            ("entity", "confidence", 10**400, r"elements\['a'\]: confidence is too large for a float"),
        ],
    )
    def test_loader_rejects_malformed_structure(self, where, key, value, message):
        raw = json.loads(document_to_json(_single_page_doc()))
        page = raw["pages"][0]
        entity = page["elements"]["a"]
        target = {
            "document": raw,
            "page": page,
            "entity": entity,
            "value": entity["value"],
            "box": entity["pixel_coordinates"],
        }[where]
        target[key] = value
        with pytest.raises(ValidationError, match=message):
            document_from_json(json.dumps(raw))

    def test_malformed_document_json(self):
        with pytest.raises(ValidationError, match="invalid document JSON"):
            document_from_json("{not json")

    @pytest.mark.parametrize("where", ["key", "value"])
    def test_raw_surrogate_in_text_rejected(self, where):
        # A str argument, unlike a strictly decoded file, can hold a raw surrogate.
        raw = json.loads(document_to_json(_single_page_doc()))
        if where == "key":
            raw["metadata"] = {"bad \ud800": "x"}
        else:
            raw["filename"] = "a\udfff.pdf"
        text = json.dumps(raw, ensure_ascii=False)
        code_point = "D800" if where == "key" else "DFFF"
        with pytest.raises(ValidationError, match=f"holds the surrogate U\\+{code_point}, which UTF-8"):
            document_from_json(text)


TEXTS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
COORDS = st.floats(0, 1000, allow_nan=False)


@st.composite
def _boxes(draw):
    left, right = sorted(draw(st.tuples(COORDS, COORDS)))
    top, bottom = sorted(draw(st.tuples(COORDS, COORDS)))
    return BBox(left, top, right, bottom)


@st.composite
def _entity(draw, entity_id):
    row = st.tuples(TEXTS, TEXTS).map(lambda kv: {"k": kv[0], "v": kv[1]})
    rows = st.lists(row, max_size=2).map(tuple)
    value = EntityValue(
        draw(TEXTS), draw(st.none() | TEXTS), draw(st.none() | TEXTS), draw(st.none() | rows)
    )
    return Entity(
        entity_id,
        draw(st.sampled_from(list(ElementLabel))),
        draw(st.floats(0, 1)),
        value,
        draw(_boxes()),
        image_payload=draw(st.none() | TEXTS),
    )


@st.composite
def _documents(draw):
    """Assembled and header/footer-corrected documents, some with failed pages."""
    total_pages = draw(st.integers(0, 4))
    processed = sorted(draw(st.sets(st.integers(1, total_pages))) if total_pages else [])
    pages = []
    for number in processed:
        entities = [draw(_entity(f"p{number}-{i}")) for i in range(draw(st.integers(0, 6)))]
        regions = [
            LayoutDetection(label, draw(st.floats(0, 1)), draw(_boxes()))
            for label in draw(st.lists(st.sampled_from(list(LayoutLabel)), max_size=3))
        ]
        skipped = draw(st.lists(st.sampled_from(["s1", "s2"]), unique=True))
        pages.append(assemble_page(number, regions, entities, AssemblyParams(), skipped))
    heights = draw(st.none() | st.just({n: 1000.0 for n in processed}))
    return DocumentResult(
        filename=draw(TEXTS.filter(bool)),
        total_pages=total_pages,
        total_llm_calls=draw(st.integers(0, 50)),
        metadata=draw(st.dictionaries(TEXTS, TEXTS, max_size=2)),
        document_category=draw(TEXTS),
        pages=tuple(correct_headers_footers(pages, HeaderFooterParams(), heights)),
    )


@settings(max_examples=150, deadline=None)
@given(_documents())
def test_json_round_trip_property(doc):
    text = document_to_json(doc)
    restored = document_from_json(text)
    assert restored == doc
    assert document_to_json(restored) == text


def _writer_texts(doc):
    return document_to_json(doc), to_graph_json(doc), to_dpbench_json(doc)


def _oracle_texts(doc):
    return tuple(indented_json(build(doc)) for build in (document_to_dict, graph_to_dict, dpbench_to_dict))


@settings(max_examples=150, deadline=None)
@given(_documents())
def test_writers_match_oracle_dicts(doc):
    assert _writer_texts(doc) == _oracle_texts(doc)


#: Quote, backslash, control characters, line and paragraph separators, a BOM,
#: a non-BMP character and a non-ASCII letter.
_AWKWARD = 'q"b\\s\x00\x1f\x7f\n\t\u2028\u2029\ufeff\U0001d11e é'


def _one_page_doc(entities, groups=(), filename="doc.pdf", metadata=None, skipped=()):
    page = PageResult(1, {e.id: e for e in entities}, groups, skipped)
    return DocumentResult(filename, 1, 0, metadata or {}, _AWKWARD, (page,))


def _writer_cases():
    plain = Entity("plain", ElementLabel.TEXT, 0.5, EntityValue("x"), BBox(0, 0, 10, 10))
    awkward = Entity(
        _AWKWARD,
        ElementLabel.TABLE,
        0.25,
        EntityValue(_AWKWARD, _AWKWARD, _AWKWARD, ({_AWKWARD: _AWKWARD, "n": "1"},)),
        BBox(1e-7, 2.5, 3, 1e16),
        image_payload=_AWKWARD,
    )
    return {
        "no pages": DocumentResult("doc.pdf", 0, 0, {}, "uncategorized", ()),
        "failed pages only": DocumentResult("doc.pdf", 3, 2, {"a": "b"}, "", ()),
        "page without elements": _one_page_doc([], skipped=("s1",)),
        "int confidence": _one_page_doc([Entity("one", ElementLabel.TEXT, 1, EntityValue(), BBox(0, 0, 1, 1))]),
        "awkward text": _one_page_doc(
            [awkward, plain],
            groups=(make_group(GroupType.ROW, [awkward]),),
            filename=_AWKWARD,
            metadata={_AWKWARD: _AWKWARD},
            skipped=(_AWKWARD + "s",),
        ),
    }


@pytest.mark.parametrize("name", list(_writer_cases()))
def test_writers_match_oracle_dicts_on_edge_cases(name):
    doc = _writer_cases()[name]
    assert _writer_texts(doc) == _oracle_texts(doc)
    if name == "int confidence":
        assert '"confidence": 1,\n' in document_to_json(doc)


def test_overflowing_centre_raises_as_json_text_does():
    with pytest.raises(ValueError) as expected:
        json_text([math.inf])
    wide, tall = (
        Entity("huge", ElementLabel.TEXT, 0.5, EntityValue("x"), box)
        for box in (BBox(1e308, 0, 1.5e308, 10), BBox(0, 1e308, 10, 1.5e308))
    )
    # Each box's own centre is finite; the centre of the group's union box is not.
    a, b = (
        Entity(eid, ElementLabel.TEXT, 0.5, EntityValue("x"), BBox(x, 0, x, 10))
        for eid, x in (("a", 1e308), ("b", 1.5e308))
    )
    grouped = _one_page_doc([a, b], groups=(make_group(GroupType.GENERIC, [a, b]),))
    for doc in (_one_page_doc([wide]), _one_page_doc([tall]), grouped):
        with pytest.raises(ValueError) as excinfo:
            document_to_json(doc)
        assert str(excinfo.value) == str(expected.value)
        # The graph and DP-Bench files hold no centres.
        assert to_graph_json(doc) == indented_json(graph_to_dict(doc))
        assert to_dpbench_json(doc) == indented_json(dpbench_to_dict(doc))


#: Leaves the writer must encode exactly as ``json.dumps``: escapes, control
#: characters, U+2028, non-BMP text, ``-0.0``, subnormals, exponent floats and
#: integers wider than 64 bits.
_JSON_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",))
    | st.sampled_from(["\"", "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "\ufeff", "\U0001d11e"]),
    max_size=8,
)
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**64) - 1, 10**40])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7])
    | _JSON_TEXT
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=4) | st.lists(_JSON_VALUES, max_size=4))
def test_json_text_matches_stdlib_indented_dump(value):
    assert json_text(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "wrap",
    [lambda x: {"a": x}, lambda x: [x], lambda x: {"a": [0, {"b": (x,)}]}],
    ids=["dict", "list", "nested"],
)
def test_json_text_rejects_non_finite_floats(number, wrap):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        json_text(wrap(number))


@pytest.mark.parametrize(
    "key, written", [(1, "1"), (1.5, "1.5"), (None, "null"), (True, "true")], ids=["1", "1.5", "None", "True"]
)
def test_json_text_writes_scalar_keys_as_json_dumps(key, written):
    assert json_text({key: 0}) == '{\n  "' + written + '": 0\n}\n'


def test_json_text_rejects_tuple_keys():
    with pytest.raises(TypeError):
        json_text({"a": [{("a",): 0}]})


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES | _JSON_LEAVES, st.integers(1, 3))
def test_json_value_is_json_text_after_a_key(value, depth):
    # ``value`` under a key ``depth`` objects deep, as the writers place it;
    # at depth 1 this is ``'{\n  "k": ' + _json_value(value, "  ") + "\n}\n"``.
    nested, head, tail = value, "", "\n"
    for level in range(depth):
        nested = {"k": nested}
        head += "{\n" + "  " * (level + 1) + '"k": '
        tail = "\n" + "  " * level + "}" + tail
    assert json_text(nested) == head + _json_value(value, "  " * depth) + tail
