"""Document data model: labels, label weights, entities, groups, pages, documents.

All types are immutable after construction and safe to share across threads.
The text :func:`document_to_json` writes is the contract between assembly,
export, and evaluation, and :func:`document_from_json` reads it back;
``elements`` is serialized as an ordered object whose key order is the page
reading order. The writer builds each record from f-strings filled straight
from the model's attributes.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Collection, Mapping, Optional, Sequence, Union

from .errors import ValidationError
from .geometry import BBox, union_bbox


def _is_int(value: Any) -> bool:
    """True for JSON integers; ``bool`` is an ``int`` subclass but never one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ElementLabel(str, Enum):
    """Semantic content labels produced by the element detector."""

    TITLE = "title"
    HEADER = "header"
    SECTION = "section"
    PAGE_HEADER = "page_header"
    PAGE_FOOTER = "page_footer"
    TEXT = "text"
    LIST_ITEM = "list_item"
    TABLE_OF_CONTENT = "table_of_content"
    TABLE = "table"
    IMAGE = "image"
    TABLE_CAPTION = "table_caption"
    IMAGE_CAPTION = "image_caption"


class LayoutLabel(str, Enum):
    """Structural region labels produced by the layout detector."""

    LAYOUT_BOX = "layout_box"
    COLUMN_GROUP = "column_group"
    COLUMN_TEXT = "column_text"
    GROUP = "group"
    MULTI_COLUMN = "multi_column"
    ROW_GROUP = "row_group"


class GroupType(str, Enum):
    MULTI_COLUMN = "multi-col"
    ROW = "row"
    GENERIC = "group"


#: Per-label weights: lower is higher in the document hierarchy. An entity's
#: weight is derived from its label; the knowledge graph reads it for its edge
#: kinds, and the result JSON writes it as the ``weight`` key.
WEIGHTS: dict[ElementLabel, int] = {
    ElementLabel.TITLE: 1,
    ElementLabel.HEADER: 2,
    ElementLabel.SECTION: 2,
    ElementLabel.TABLE: 3,
    ElementLabel.IMAGE: 3,
    ElementLabel.TABLE_OF_CONTENT: 4,
    ElementLabel.TABLE_CAPTION: 4,
    ElementLabel.IMAGE_CAPTION: 4,
    ElementLabel.PAGE_HEADER: 5,
    ElementLabel.TEXT: 6,
    ElementLabel.LIST_ITEM: 6,
    ElementLabel.PAGE_FOOTER: 7,
}


@dataclass(frozen=True)
class EntityValue:
    """Textual payload of an entity, optionally enriched with title/summary/data."""

    text: str = ""
    title: Optional[str] = None
    summary: Optional[str] = None
    data: Optional[tuple[Mapping[str, str], ...]] = None

    def __post_init__(self):
        if self.data is not None:
            rows = tuple(dict(row) for row in self.data)
            for key, cell in (item for row in rows for item in row.items()):
                if not (isinstance(key, str) and isinstance(cell, str)):
                    raise ValidationError(f"data rows must map strings to strings, got {key!r}: {cell!r}")
            key_sets = {tuple(row.keys()) for row in rows}
            if len(key_sets) > 1:
                raise ValidationError(
                    "data rows must share an identical ordered key set, "
                    f"got {sorted(key_sets)}"
                )
            object.__setattr__(self, "data", rows)


@dataclass(frozen=True)
class Entity:
    """One detected semantic element. ``weight`` is derived from ``type`` and
    centres are read from ``pixel_coordinates``."""

    id: str
    type: ElementLabel
    confidence: float
    value: EntityValue
    pixel_coordinates: BBox
    image_payload: Optional[str] = None

    @property
    def weight(self) -> int:
        return WEIGHTS[self.type]


@dataclass(frozen=True)
class Group:
    """An ordered run of entity ids sharing one layout region."""

    type: GroupType
    ids: tuple[str, ...]
    pixel_coordinates: BBox

    def __post_init__(self):
        if not self.ids:
            raise ValidationError("group must contain at least one entity id")
        if len(set(self.ids)) != len(self.ids):
            raise ValidationError(f"group ids contain duplicates: {self.ids}")
        object.__setattr__(self, "ids", tuple(self.ids))


def make_group(group_type: GroupType, members: Sequence[Entity]) -> Group:
    """Build a group over ``members`` in the given order; bbox is their union."""
    return Group(
        type=GroupType(group_type),
        ids=tuple(m.id for m in members),
        pixel_coordinates=union_bbox([m.pixel_coordinates for m in members]),
    )


@dataclass(frozen=True)
class PageResult:
    """One assembled page. ``elements`` insertion order is the reading order.

    Each element id sits in at most one group; ``non_groups`` lists the rest.
    """

    page_number: int
    elements: Mapping[str, Entity]
    groups: tuple[Group, ...]
    skipped_images: tuple[str, ...]

    def __post_init__(self):
        if not _is_int(self.page_number) or self.page_number < 1:
            raise ValidationError(f"page_number must be a positive integer, got {self.page_number}")
        object.__setattr__(self, "elements", dict(self.elements))
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "skipped_images", tuple(self.skipped_images))

        grouped = [eid for group in self.groups for eid in group.ids]
        if len(set(grouped)) != len(grouped):
            raise ValidationError(f"page {self.page_number}: ids appear in more than one group")
        element_ids = set(self.elements)
        if not element_ids.issuperset(grouped):
            raise ValidationError(f"page {self.page_number}: group ids must be page elements")
        if element_ids & set(self.skipped_images):
            raise ValidationError(
                f"page {self.page_number}: skipped images must not appear among elements"
            )

    @property
    def non_groups(self) -> tuple[str, ...]:
        """Ids of the elements in no group, in reading order."""
        grouped = {eid for group in self.groups for eid in group.ids}
        return tuple(eid for eid in self.elements if eid not in grouped)


@dataclass(frozen=True)
class DocumentResult:
    """Full assembly output for one document; ``pages`` lists the processed pages."""

    filename: str
    total_pages: int
    total_llm_calls: int
    metadata: Mapping[str, str]
    document_category: str
    pages: tuple[PageResult, ...]

    def __post_init__(self):
        object.__setattr__(self, "metadata", dict(self.metadata))
        object.__setattr__(self, "pages", tuple(self.pages))
        for name in ("total_pages", "total_llm_calls"):
            value = getattr(self, name)
            if not _is_int(value) or value < 0:
                raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
        if len(self.pages) > self.total_pages:
            raise ValidationError(
                f"{len(self.pages)} listed pages exceed total_pages {self.total_pages}"
            )
        numbers = [page.page_number for page in self.pages]
        if numbers != sorted(numbers) or len(set(numbers)) != len(numbers):
            raise ValidationError(f"pages must be sorted by unique page_number, got {numbers}")

    @property
    def total_processed_pages(self) -> int:
        return len(self.pages)

    @property
    def total_failed_pages(self) -> int:
        return self.total_pages - len(self.pages)


# ---------------------------------------------------------------------------
# JSON serialization (stable field order; optional fields omitted when absent)
# and the JSON file boundary: one indented writer and one checked reader
# ---------------------------------------------------------------------------


def json_text(value: Any) -> str:
    """``value`` as indented JSON text, the form of every JSON file docweave writes:
    ``json.dumps(value, indent=2, ensure_ascii=False)`` plus a newline. A
    non-finite float (NaN, Infinity) raises ``ValueError``, as the reader does."""
    return json.dumps(value, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


_encode_str = json.encoder.encode_basestring  # the C encoder when the _json module is built
_float_text = float.__repr__
_int_text = int.__repr__
_isfinite = math.isfinite


def _json_value(value: Any, indent: str) -> str:
    """``value`` as ``json_text`` writes it after a key on a line indented by ``indent``.

    Strings, finite floats and ints are written directly; any other value is
    written by ``json_text`` and its lines re-indented. That is exact because
    ``json.dumps`` puts a literal newline only between tokens (a newline in a
    string is written as ``\\n``).
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is float and _isfinite(value):
        return _float_text(value)
    if kind is int:
        return _int_text(value)
    return json_text(value)[:-1].replace("\n", "\n" + indent)


def _write_items(
    parts: list[str], items: Collection[Any], write: Callable[[list[str], Any], None], brackets: str, indent: str
) -> None:
    """Append to ``parts`` the JSON array or object ``brackets`` (``"[]"`` or
    ``"{}"``) holding ``items``; ``write(parts, item)`` appends one item, starting
    with a newline, and the closing bracket's line is indented by ``indent``."""
    if not items:
        parts.append(brackets)
        return
    separator = brackets[0]
    for item in items:
        parts.append(separator)
        write(parts, item)
        separator = ","
    parts.append("\n" + indent + brackets[1])


def _str_array(items: Sequence[str], indent: str) -> str:
    if not items:
        return "[]"
    item_indent = "\n  " + indent
    return "[" + item_indent + ("," + item_indent).join(map(_encode_str, items)) + "\n" + indent + "]"


# The result JSON is a list of fragments joined once; each record is written
# as f-strings laid out at its fixed depth in the file, and entity and group
# keys sit 10 spaces deep. Fragments stay short, mostly under pymalloc's
# 512-byte limit: whole ~750-byte entity records joined per container raised
# the ``dense`` benchmark's peak RSS by about 2.6 MB, from freed blocks left
# on the C heap. ``ElementLabel`` and ``GroupType`` are ``str`` enums, so
# ``_encode_str`` writes their values.
_RECORD_INDENT = " " * 10


def _box_keys(box: BBox) -> str:
    """The keys that end an entity or group record: its box and the box centres.

    The coordinates are finite floats by the ``BBox`` invariant. A centre
    overflows to ``inf`` when both coordinates on its axis are near the float
    maximum, and then raises ``ValueError`` as ``json_text`` does.
    """
    x, y = box.x_center, box.y_center
    if not (_isfinite(x) and _isfinite(y)):
        _json_value([x, y], "")  # raises, naming the first non-finite centre
    x, y = _float_text(x), _float_text(y)
    return f"""\
"pixel_coordinates": {{
            "left": {box.left!r},
            "top": {box.top!r},
            "right": {box.right!r},
            "bottom": {box.bottom!r}
          }},
          "mid_point": {{
            "x": {x},
            "y": {y}
          }},
          "x_center": {x},
          "y_center": {y}"""


def _value_dict(value: EntityValue) -> dict[str, Any]:
    out: dict[str, Any] = {"text": value.text}
    if value.title is not None:
        out["title"] = value.title
    if value.summary is not None:
        out["summary"] = value.summary
    if value.data is not None:
        out["data"] = [dict(row) for row in value.data]
    return out


def _write_entity(parts: list[str], item: tuple[str, Entity]) -> None:
    key, entity = item
    confidence = _json_value(entity.confidence, _RECORD_INDENT)
    value = entity.value
    if value.title is None and value.summary is None and value.data is None:
        value_text = f'{{\n            "text": {_encode_str(value.text)}\n          }}'
    else:
        value_text = _json_value(_value_dict(value), _RECORD_INDENT)
    parts.append(f"""
        {_encode_str(key)}: {{
          "id": {_encode_str(entity.id)},
          "type": {_encode_str(entity.type)},
          "confidence": {confidence},
          "value": {value_text},
          """)
    parts.append(_box_keys(entity.pixel_coordinates))
    payload = entity.image_payload
    payload = "" if payload is None else f',\n          "image_payload": {_encode_str(payload)}'
    parts.append(f""",
          "weight": {entity.weight:d}{payload}
        }}""")


def _write_group(parts: list[str], group: Group) -> None:
    parts.append(f"""
        {{
          "type": {_encode_str(group.type)},
          "ids": {_str_array(group.ids, _RECORD_INDENT)},
          """)
    parts.append(_box_keys(group.pixel_coordinates))
    parts.append("\n        }")


def _write_page(parts: list[str], page: PageResult) -> None:
    parts.append(f"""
    {{
      "page_number": {page.page_number:d},
      "elements": """)
    _write_items(parts, page.elements.items(), _write_entity, "{}", "      ")
    parts.append(',\n      "groups": ')
    _write_items(parts, page.groups, _write_group, "[]", "      ")
    parts.append(f""",
      "non_groups": {_str_array(page.non_groups, "      ")},
      "skipped_images": {_str_array(page.skipped_images, "      ")}
    }}""")


def document_to_json(doc: DocumentResult) -> str:
    """The result JSON file: ``json_text`` of the document's fields in a fixed
    key order, with ``elements`` keyed by id in reading order, written from
    the model's attributes without building that dict tree."""
    parts = [f"""{{
  "filename": {_json_value(doc.filename, "  ")},
  "total_pages": {doc.total_pages:d},
  "total_processed_pages": {doc.total_processed_pages:d},
  "total_failed_pages": {doc.total_failed_pages:d},
  "total_llm_calls": {doc.total_llm_calls:d},
  "metadata": {_json_value(doc.metadata, "  ")},
  "document_category": {_json_value(doc.document_category, "  ")},
  "pages": """]
    _write_items(parts, doc.pages, _write_page, "[]", "  ")
    parts.append("\n}\n")
    return "".join(parts)


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    if not isinstance(mapping, Mapping):
        raise ValidationError(f"{context}: expected an object")
    if key not in mapping:
        raise ValidationError(f"{context}: missing required field {key!r}")
    return mapping[key]


def _require_list(mapping: Mapping[str, Any], key: str, context: str) -> list:
    value = _require(mapping, key, context)
    if not isinstance(value, list):
        raise ValidationError(f"{context}.{key}: expected an array")
    return value


def _require_ids(mapping: Mapping[str, Any], key: str, context: str) -> tuple[str, ...]:
    value = _require_list(mapping, key, context)
    if not all(isinstance(i, str) for i in value):
        raise ValidationError(f"{context}.{key}: entries must be strings")
    return tuple(value)


def _require_str(mapping: Mapping[str, Any], key: str, context: str) -> str:
    value = _require(mapping, key, context)
    if not isinstance(value, str):
        raise ValidationError(f"{context}: {key} must be a string, got {value!r}")
    return value


def _require_number(mapping: Mapping[str, Any], key: str, context: str) -> float:
    value = _require(mapping, key, context)
    if not _is_number(value):
        raise ValidationError(f"{context}: {key} must be a number, got {value!r}")
    return value


def _bbox_from_dict(raw: Mapping[str, Any], context: str) -> BBox:
    try:
        return BBox(
            left=_require(raw, "left", context),
            top=_require(raw, "top", context),
            right=_require(raw, "right", context),
            bottom=_require(raw, "bottom", context),
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{context}: {exc}") from exc


def _check_centers(raw: Mapping[str, Any], box: BBox, context: str) -> None:
    """Reject stored ``mid_point``/``x_center``/``y_center`` that disagree with ``box``."""
    x, y = box.x_center, box.y_center
    stored_mid = _require(raw, "mid_point", context)
    stored = (
        _require_number(stored_mid, "x", f"{context}.mid_point"),
        _require_number(stored_mid, "y", f"{context}.mid_point"),
        _require_number(raw, "x_center", context),
        _require_number(raw, "y_center", context),
    )
    if stored != (x, y, x, y):
        raise ValidationError(
            f"{context}: stored midpoint/centers {stored} do not match geometry ({x}, {y})"
        )


def entity_from_dict(raw: Mapping[str, Any], context: str = "entity") -> Entity:
    value_raw = _require(raw, "value", context)
    text = _require(value_raw, "text", f"{context}.value")
    title, summary, data = (value_raw.get(key) for key in ("title", "summary", "data"))
    optional = [v for v in (title, summary) if v is not None]
    if not all(isinstance(v, str) for v in (text, *optional)):
        raise ValidationError(f"{context}.value: text, title and summary must be strings")
    if data is not None and not (
        isinstance(data, list) and all(isinstance(row, Mapping) for row in data)
    ):
        raise ValidationError(f"{context}.value.data: expected an array of objects")
    try:
        value = EntityValue(text, title, summary, tuple(data) if data is not None else None)
    except ValidationError as exc:
        raise ValidationError(f"{context}.value.data: {exc}") from None
    bbox = _bbox_from_dict(_require(raw, "pixel_coordinates", context), f"{context}.pixel_coordinates")
    try:
        label = ElementLabel(_require(raw, "type", context))
    except ValueError as exc:
        raise ValidationError(f"{context}: unknown element label {raw.get('type')!r}") from exc
    weight = _require(raw, "weight", context)
    if not _is_int(weight) or weight != WEIGHTS[label]:
        raise ValidationError(
            f"{context}: weight must be a positive integer, {WEIGHTS[label]} for type "
            f"{label.value!r}, got {weight!r}"
        )
    try:
        confidence = float(_require_number(raw, "confidence", context))
    except OverflowError:
        raise ValidationError(f"{context}: confidence is too large for a float") from None
    if not 0.0 <= confidence <= 1.0:
        raise ValidationError(f"{context}: confidence must be in [0,1], got {confidence}")

    _check_centers(raw, bbox, context)
    payload = _require_str(raw, "image_payload", context) if "image_payload" in raw else None
    entity_id = _require_str(raw, "id", context)
    if not entity_id:
        raise ValidationError(f"{context}: id must be a non-empty string")
    return Entity(
        id=entity_id,
        type=label,
        confidence=confidence,
        value=value,
        pixel_coordinates=bbox,
        image_payload=payload,
    )


def group_from_dict(raw: Mapping[str, Any], elements: Mapping[str, Entity], context: str) -> Group:
    try:
        group_type = GroupType(_require(raw, "type", context))
    except ValueError as exc:
        raise ValidationError(f"{context}: unknown group type {raw.get('type')!r}") from exc
    ids = _require_ids(raw, "ids", context)
    missing = [i for i in ids if i not in elements]
    if missing:
        raise ValidationError(f"{context}: ids not present among page elements: {missing}")
    box = _bbox_from_dict(_require(raw, "pixel_coordinates", context), f"{context}.pixel_coordinates")
    expected = union_bbox([elements[i].pixel_coordinates for i in ids])
    if box != expected:
        raise ValidationError(
            f"{context}: stored bbox {box} is not the union of member boxes {expected}"
        )
    _check_centers(raw, box, context)
    return Group(type=group_type, ids=ids, pixel_coordinates=box)


def page_from_dict(raw: Mapping[str, Any], context: str = "page") -> PageResult:
    page_number = _require(raw, "page_number", context)
    elements_raw = _require(raw, "elements", context)
    if not isinstance(elements_raw, Mapping):
        raise ValidationError(f"{context}.elements: expected an object keyed by entity id")
    elements: dict[str, Entity] = {}
    for eid, ent_raw in elements_raw.items():
        entity = entity_from_dict(ent_raw, f"{context}.elements[{eid!r}]")
        if entity.id != eid:
            raise ValidationError(
                f"{context}.elements[{eid!r}]: key does not match entity id {entity.id!r}"
            )
        elements[eid] = entity
    groups = tuple(
        group_from_dict(g, elements, f"{context}.groups[{i}]")
        for i, g in enumerate(_require_list(raw, "groups", context))
    )
    non_groups = _require_ids(raw, "non_groups", context)
    page = PageResult(
        page_number=page_number,
        elements=elements,
        groups=groups,
        skipped_images=_require_ids(raw, "skipped_images", context),
    )
    if non_groups != page.non_groups:
        raise ValidationError(
            f"{context}.non_groups: must list the ungrouped elements in reading order "
            f"{list(page.non_groups)}, got {list(non_groups)}"
        )
    return page


def document_from_dict(raw: Mapping[str, Any], context: str = "document") -> DocumentResult:
    filename = _require_str(raw, "filename", context)
    if not filename:
        raise ValidationError(f"{context}: filename must be a non-empty string")
    metadata = _require(raw, "metadata", context)
    if not isinstance(metadata, Mapping) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise ValidationError(f"{context}.metadata: expected a string-to-string map")
    pages = tuple(
        page_from_dict(p, f"{context}.pages[{i}]")
        for i, p in enumerate(_require_list(raw, "pages", context))
    )
    doc = DocumentResult(
        filename=filename,
        total_pages=_require(raw, "total_pages", context),
        total_llm_calls=_require(raw, "total_llm_calls", context),
        metadata=metadata,
        document_category=_require_str(raw, "document_category", context),
        pages=pages,
    )
    for name in ("total_processed_pages", "total_failed_pages"):
        stored, derived = _require(raw, name, context), getattr(doc, name)
        if not _is_int(stored) or stored != derived:
            raise ValidationError(
                f"{context}: {name} must be {derived} for {len(pages)} listed pages "
                f"of total_pages {doc.total_pages}, got {stored!r}"
            )
    return doc


#: A ``\uD800``-``\uDFFF`` escape: only JSON text holding one can decode to a
#: string with a surrogate, so only such text gets the full string walk.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not a JSON value (RFC 8259 has no non-finite numbers)")


def _find_surrogate(raw: Any) -> Optional[str]:
    """A surrogate code point in any key or string of ``raw``, or None.

    ``json.loads`` joins an escaped surrogate pair into one character, so a
    surrogate left in a decoded string is lone and cannot be encoded as UTF-8.
    """
    stack = [raw]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            match = _SURROGATE.search(value)
            if match:
                return match.group()
        elif isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return None


def _json_object(text: str, error: type[Exception], context: str) -> dict[str, Any]:
    """Parse ``text`` as a JSON object; a failure raises ``error`` starting with ``context``."""
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise error(f"{context} at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise error(f"{context}: nested deeper than the parser's recursion limit") from None
    except ValueError as exc:  # NaN/Infinity, or an integer literal over sys.get_int_max_str_digits()
        raise error(f"{context}: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{context}: top level must be an object, got {type(raw).__name__}")
    if _SURROGATE_ESCAPE.search(text):
        surrogate = _find_surrogate(raw)
        if surrogate is not None:
            raise error(
                f"{context}: a string holds the lone surrogate U+{ord(surrogate):04X}, "
                "which UTF-8 cannot encode"
            )
    return raw


def read_json_object(path: Union[str, Path], error: type[Exception]) -> dict[str, Any]:
    """Read a UTF-8 (RFC 8259 section 8.1) JSON file whose top level is an object.

    Every failure raises ``error`` with a message naming ``path``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: invalid JSON: byte {exc.start} is not UTF-8 ({exc.reason})") from exc
    except OSError as exc:
        raise error(f"{path}: cannot read file: {exc}") from exc
    return _json_object(text, error, f"{path}: invalid JSON")


def document_from_json(text: str) -> DocumentResult:
    """Load a result document from JSON text.

    A file is decoded strictly, but a Python string can hold a raw surrogate
    code point, which no UTF-8 output can hold; such text is rejected.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(
            f"invalid document JSON: the text holds the surrogate U+{ord(text[exc.start]):04X}, "
            "which UTF-8 cannot encode"
        ) from None
    return document_from_dict(_json_object(text, ValidationError, "invalid document JSON"))
