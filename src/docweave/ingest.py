"""Detection-input parsing, confidence filtering, text normalization, gating.

The detection-input file is the serialized output of the upstream detectors,
with OCR/PDF text already bound to each detection::

    {
      "filename": "report.pdf",
      "metadata": {"page_height": "1000"},
      "pages": [
        {
          "page_number": 1,
          "element_detections": [
            {"label": "text", "confidence": 0.9, "bbox": [l, t, r, b],
             "text": "...", "image_payload": "...", "id": "optional"}
          ],
          "layout_detections": [
            {"label": "multi_column", "confidence": 0.8, "bbox": [l, t, r, b]}
          ],
          "full_page_text": "optional"
        }
      ]
    }

``load_detections`` checks every field of every detection once, parsing labels
into their enums (unknown labels are rejected) and deriving missing element ids,
then drops layout detections below the layout threshold (default 0.20) and
element detections below the element threshold (default 0.30); equality keeps
the detection. ``build_entities`` turns the kept element records into entities.
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Optional, Sequence, Union

from .clients import (
    CategoryClassifier,
    EnrichmentClient,
    EnrichmentResult,
    UNCATEGORIZED,
    UsefulnessClassifier,
    UsefulnessVerdict,
)
from .errors import DetectionInputError
from .geometry import BBox
from .model import (
    ElementLabel,
    Entity,
    EntityValue,
    LayoutLabel,
    read_json_object,
)

logger = logging.getLogger(__name__)

LAYOUT_CONFIDENCE_THRESHOLD = 0.20
ELEMENT_CONFIDENCE_THRESHOLD = 0.30

#: Entities shorter than this many characters are dropped unless exempt.
MIN_TEXT_LENGTH = 3
SMALL_TEXT_EXEMPT = frozenset({ElementLabel.TABLE, ElementLabel.IMAGE})

#: Labels cleaned with the title normalizer; everything else gets body rules.
TITLE_LIKE_LABELS = frozenset({ElementLabel.TITLE, ElementLabel.SECTION, ElementLabel.HEADER})

BULLET_GLYPHS = "•●▪‣·"
_BULLET_LINE = re.compile(rf"^[ \t]*[{BULLET_GLYPHS}][ \t]*")
_SPACE_RUN = re.compile(r"[ \t]+")


class RawDetection(NamedTuple):
    """One checked element detection, as read from the input file."""

    id: str
    label: ElementLabel
    confidence: float
    bbox: BBox
    text: str = ""
    image_payload: Optional[str] = None


class LayoutDetection(NamedTuple):
    """One checked layout region, as read from the input file."""

    label: LayoutLabel
    confidence: float
    bbox: BBox


@dataclass(frozen=True)
class PageDetections:
    page_number: int
    element_detections: tuple[RawDetection, ...]
    layout_detections: tuple[LayoutDetection, ...]
    full_page_text: Optional[str] = None


@dataclass(frozen=True)
class DetectionInput:
    filename: str
    metadata: Mapping[str, str]
    pages: tuple[PageDetections, ...]


def _fail(context: str, message: str) -> None:
    raise DetectionInputError(f"{context}: {message}")


#: The keys a detection-input file and each of its pages may hold.
_INPUT_KEYS = frozenset({"filename", "metadata", "pages"})
_PAGE_KEYS = frozenset({"page_number", "element_detections", "layout_detections", "full_page_text"})


def _known_keys(raw: dict, allowed: frozenset, context: str) -> None:
    """Reject the keys of ``raw`` outside ``allowed``. Callers check this
    after the known keys, so a file of another format that lacks a required
    key is named by that key."""
    unknown = sorted(set(raw) - allowed)
    if unknown:
        _fail(context, f"unknown keys {unknown}")


def _array(raw: dict, key: str, context: str) -> list:
    """``raw[key]``, a required array; ``context`` names it in errors."""
    if key not in raw:
        _fail(context, "missing required array")
    value = raw[key]
    if not isinstance(value, list):
        _fail(context, f"must be an array, got {type(value).__name__}")
    return value


class _BadField(Exception):
    """A detection check failed, with args ``(field suffix, message)``; the
    caller adds where the detection is, so that string is built only for a
    failure."""


#: ``{value: member}`` of each label enum, a dict lookup per detection.
_LABELS = {
    labels: {member.value: member for member in labels} for labels in (ElementLabel, LayoutLabel)
}


def _parse_detection(raw: Any, labels: type) -> tuple:
    """Check one detection; returns its label (a ``labels`` member), confidence,
    bbox, text, id and image_payload, the last two possibly None. A failed
    check raises ``_BadField`` naming the field (``""`` for the detection)."""
    if not isinstance(raw, dict):
        raise _BadField("", "detection must be an object")
    label_raw = raw.get("label")
    if not label_raw or not isinstance(label_raw, str):
        raise _BadField(".label", "label must be a non-empty string")
    label = _LABELS[labels].get(label_raw)
    if label is None:
        kind = "layout" if labels is LayoutLabel else "element"
        raise _BadField(".label", f"unknown {kind} label {label_raw!r}")
    confidence = raw.get("confidence")
    if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
        raise _BadField(".confidence", "confidence must be a number")
    try:
        confidence = float(confidence)
    except OverflowError:
        raise _BadField(".confidence", "confidence is too large for a float") from None
    if not 0.0 <= confidence <= 1.0:
        raise _BadField(".confidence", f"confidence must be in [0,1], got {confidence}")
    bbox_raw = raw.get("bbox")
    if not isinstance(bbox_raw, list) or len(bbox_raw) != 4:
        raise _BadField(".bbox", "bbox must be a [left, top, right, bottom] array")
    try:
        bbox = BBox(*bbox_raw)
    except (TypeError, ValueError) as exc:
        raise _BadField(".bbox", str(exc))
    text = raw.get("text", "")
    if text is None:
        text = ""
    if not isinstance(text, str):
        raise _BadField(".text", "text must be a string")
    entity_id = raw.get("id")
    if entity_id is not None and (not isinstance(entity_id, str) or not entity_id):
        raise _BadField(".id", "id must be a non-empty string when present")
    payload = raw.get("image_payload")
    if payload is not None and not isinstance(payload, str):
        raise _BadField(".image_payload", "image_payload must be a string when present")
    return label, confidence, bbox, text, entity_id, payload


#: Namespace of the ids given to element detections that carry none.
_ID_NAMESPACE = uuid.UUID("6f1d3c52-8a4e-5b7f-9c20-d4e8a1b3f605")


def load_detections(
    path: Union[str, Path],
    layout_threshold: float = LAYOUT_CONFIDENCE_THRESHOLD,
    element_threshold: float = ELEMENT_CONFIDENCE_THRESHOLD,
) -> DetectionInput:
    """Parse and validate a detection-input file, applying confidence thresholds.

    Pages come back sorted by page number, whatever their order in the file. A
    missing element ``id`` becomes a uuid5 of filename, page number and index.
    """
    raw = read_json_object(path, DetectionInputError)
    filename = raw.get("filename")
    if not isinstance(filename, str) or not filename:
        _fail(f"{path}: filename", "must be a non-empty string")
    metadata_raw = raw.get("metadata", {})
    if not isinstance(metadata_raw, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata_raw.items()
    ):
        _fail(f"{path}: metadata", "must be a string-to-string map")
    pages_raw = _array(raw, "pages", f"{path}: pages")

    pages: list[PageDetections] = []
    seen_numbers: set[int] = set()
    seen_ids: set[str] = set()
    for page_index, page_raw in enumerate(pages_raw):
        context = f"{path}: pages[{page_index}]"
        if not isinstance(page_raw, dict):
            _fail(context, "page must be an object")
        number = page_raw.get("page_number")
        if not isinstance(number, int) or isinstance(number, bool) or number < 1:
            _fail(f"{context}.page_number", f"must be a positive integer, got {number!r}")
        if number in seen_numbers:
            _fail(f"{context}.page_number", f"duplicate page number {number}")
        seen_numbers.add(number)

        elements = []
        detections = _array(page_raw, "element_detections", f"{context}.element_detections")
        for det_index, det_raw in enumerate(detections):
            try:
                label, confidence, bbox, text, det_id, payload = _parse_detection(
                    det_raw, ElementLabel
                )
            except _BadField as exc:
                field, message = exc.args
                _fail(f"{context}.element_detections[{det_index}]{field}", message)
            if confidence < element_threshold:
                continue
            if det_id is None:
                key = json.dumps([filename, number, det_index])
                det_id = str(uuid.uuid5(_ID_NAMESPACE, key))
            if det_id in seen_ids:
                _fail(f"{context}.element_detections[{det_index}].id", f"duplicate entity id {det_id!r}")
            seen_ids.add(det_id)
            elements.append(RawDetection(det_id, label, confidence, bbox, text, payload))
        layouts = []
        detections = _array(page_raw, "layout_detections", f"{context}.layout_detections")
        for det_index, det_raw in enumerate(detections):
            try:
                label, confidence, bbox, *_ = _parse_detection(det_raw, LayoutLabel)
            except _BadField as exc:
                field, message = exc.args
                _fail(f"{context}.layout_detections[{det_index}]{field}", message)
            if confidence >= layout_threshold:
                layouts.append(LayoutDetection(label, confidence, bbox))

        full_text = page_raw.get("full_page_text")
        if full_text is not None and not isinstance(full_text, str):
            _fail(f"{context}.full_page_text", "must be a string when present")
        _known_keys(page_raw, _PAGE_KEYS, context)
        pages.append(
            PageDetections(
                page_number=number,
                element_detections=tuple(elements),
                layout_detections=tuple(layouts),
                full_page_text=full_text,
            )
        )
    _known_keys(raw, _INPUT_KEYS, str(path))
    pages.sort(key=lambda page: page.page_number)
    return DetectionInput(filename=filename, metadata=dict(metadata_raw), pages=tuple(pages))


# ---------------------------------------------------------------------------
# Text normalization
# ---------------------------------------------------------------------------


def _is_punct(char: str) -> bool:
    return unicodedata.category(char)[0] in "PS"


#: Three identical ASCII punctuation or symbol characters in a row.
_ASCII_PUNCT_RUN = re.compile(r"([!-/:-@\[-`{-~])\1\1")


def normalize_title(s: str) -> str:
    """Clean a title/section string.

    Control and format characters are stripped, runs of three or more
    identical punctuation characters collapse to a single one, and the result
    is trimmed. Idempotent. Printable ASCII without such a run has nothing
    to strip or collapse, so it is only trimmed.
    """
    if s.isascii() and s.isprintable() and not _ASCII_PUNCT_RUN.search(s):
        return s.strip()
    return _normalize_title(s)


def _normalize_title(s: str) -> str:
    kept = [c for c in s if unicodedata.category(c)[0] != "C"]
    out: list[str] = []
    i = 0
    while i < len(kept):
        j = i
        while j < len(kept) and kept[j] == kept[i]:
            j += 1
        run = j - i
        if run >= 3 and _is_punct(kept[i]):
            out.append(kept[i])
        else:
            out.extend(kept[i:j])
        i = j
    return "".join(out).strip()


def normalize_body(s: str) -> str:
    """Normalize body text: NFKC, standardized bullets, collapsed spacing.

    Bullet glyphs at line starts become ``- ``; runs of spaces/tabs collapse
    to one space; line structure is preserved. Idempotent. ASCII text with
    no ``\\r``, tab or double space comes back unchanged: NFKC keeps ASCII,
    the bullet glyphs are not ASCII and there is no run to collapse.
    """
    if s.isascii() and "\r" not in s and "\t" not in s and "  " not in s:
        return s
    return _normalize_body(s)


def _normalize_body(s: str) -> str:
    s = unicodedata.normalize("NFKC", s)
    s = s.replace("\r\n", "\n").replace("\r", "\n")
    lines = []
    for line in s.split("\n"):
        line = _BULLET_LINE.sub("- ", line, count=1)
        line = _SPACE_RUN.sub(" ", line)
        lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entity construction
# ---------------------------------------------------------------------------


def build_entities(detections: Sequence[RawDetection]) -> list[Entity]:
    """Turn element detections into entities with normalized text.

    An entity whose normalized text is shorter than ``MIN_TEXT_LENGTH`` is
    dropped, unless it is a table or an image.
    """
    entities = []
    for det in detections:
        label = det.label
        normalize = normalize_title if label in TITLE_LIKE_LABELS else normalize_body
        text = normalize(det.text)
        if len(text) < MIN_TEXT_LENGTH and label not in SMALL_TEXT_EXEMPT:
            continue
        entities.append(
            Entity(
                id=det.id,
                type=label,
                confidence=det.confidence,
                value=EntityValue(text=text),
                pixel_coordinates=det.bbox,
                image_payload=det.image_payload,
            )
        )
    return entities


def _run_per_entity(targets, call, max_workers: int) -> list[tuple[Any, Optional[Exception]]]:
    """Invoke ``call`` once per target on up to ``max_workers`` threads; one
    ``(result, None)`` or ``(None, error)`` per target, in target order.

    With one worker, or fewer than two targets, the calls run inline on the
    calling thread: a pool would run them one by one on a thread of its own.
    """
    def fail_open(target):
        try:
            return call(target), None
        except Exception as exc:  # client errors fail open
            return None, exc
    if max_workers == 1 or len(targets) < 2:
        return [fail_open(target) for target in targets]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fail_open, targets))


def gate_images(
    entities: Sequence[Entity],
    classifier: UsefulnessClassifier,
    max_workers: int = 1,
) -> tuple[list[Entity], list[str]]:
    """Classify image entities; useless ones are removed and their ids returned.

    Tables are never classified. A classifier failure keeps the entity
    (fail-open) and is logged. Verdicts are merged in entity-id order so the
    result does not depend on call completion order.
    """
    images = sorted((e for e in entities if e.type is ElementLabel.IMAGE), key=lambda e: e.id)
    skipped: set[str] = set()
    for image, (verdict, error) in zip(images, _run_per_entity(images, classifier.classify, max_workers)):
        if error is not None:
            logger.warning("usefulness classifier failed for %s, keeping entity: %s", image.id, error)
            continue
        if verdict is UsefulnessVerdict.USELESS:
            skipped.add(image.id)
    kept = [e for e in entities if e.id not in skipped]
    return kept, sorted(skipped)


def _merge_enrichment(entity: Entity, result: EnrichmentResult) -> Entity:
    value = entity.value
    return replace(
        entity,
        value=EntityValue(
            text=result.text or value.text,
            title=value.title if result.title is None else result.title,
            summary=value.summary if result.summary is None else result.summary,
            data=value.data if result.data is None else result.data,
        )
    )


def enrich_entities(
    entities: Sequence[Entity],
    client: EnrichmentClient,
    max_workers: int = 1,
) -> tuple[list[Entity], int]:
    """Enrich every table and every remaining (useful) image.

    Returns the updated entities plus the number of attempted client calls;
    failed calls leave the entity's OCR-only value in place but still count.
    Geometry is never touched.
    """
    eligible = sorted(
        (e for e in entities if e.type in (ElementLabel.TABLE, ElementLabel.IMAGE)),
        key=lambda e: e.id,
    )
    merged: dict[str, Entity] = {}
    for entity, (outcome, error) in zip(eligible, _run_per_entity(eligible, client.enrich, max_workers)):
        if error is not None:
            logger.warning("enrichment failed for %s, keeping OCR value: %s", entity.id, error)
            continue
        merged[entity.id] = _merge_enrichment(entity, outcome)
    return [merged.get(e.id, e) for e in entities], len(eligible)


def classify_document(full_text: str, classifier: CategoryClassifier) -> str:
    """Assign a document category; any classifier failure maps to the default."""
    try:
        return classifier.classify(full_text)
    except Exception as exc:
        logger.warning("category classifier failed, using %r: %s", UNCATEGORIZED, exc)
        return UNCATEGORIZED
