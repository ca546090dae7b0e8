"""Pluggable classifier and enrichment clients with deterministic stubs.

Three interfaces mirror the external services the pipeline can call:

* usefulness classifier — decides whether an image is worth keeping;
* enrichment client — returns title/summary/structured content for tables
  and useful images;
* category classifier — assigns a document-level category string.

The classifiers are lookup tables with a default, filled from a JSON file by
``from_fixture``; enrichment echoes the entity's text unless a fixture or an
HTTP endpoint (``DOCWEAVE_ENRICHMENT_URL``) is given. Fixture files are checked
once, at load, and never coerced (formats below and in the README).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Protocol, Union

from .errors import ValidationError
from .model import Entity, read_json_object

ENRICHMENT_URL_ENV = "DOCWEAVE_ENRICHMENT_URL"

UNCATEGORIZED = "uncategorized"


class UsefulnessVerdict(str, Enum):
    USEFUL = "useful"
    USELESS = "useless"


@dataclass(frozen=True)
class EnrichmentResult:
    """Response record from the enrichment service.

    ``text`` replaces an image's text and ``data`` holds a table's row records
    (field name -> cell string). A successful enrichment carries at least one
    field.
    """

    title: Optional[str] = None
    summary: Optional[str] = None
    text: Optional[str] = None
    data: Optional[tuple[Mapping[str, str], ...]] = None

    def __post_init__(self):
        if self.title is None and self.summary is None and self.text is None and self.data is None:
            raise ValidationError("enrichment result must carry at least one field")


def enrichment_result_from_record(record: Any, context: str = "enrichment record") -> EnrichmentResult:
    """Build an EnrichmentResult from a fixture/HTTP response record.

    Recognized keys: ``title``, ``summary`` and ``text`` (string or null) and
    ``data`` (array of row objects with string values and the same ordered
    keys, as ``EntityValue`` requires). ``data`` wins when both ``text`` and
    ``data`` are present. Values are checked, never converted; a bad one
    raises ValidationError naming ``context`` and the key.
    """
    if not isinstance(record, Mapping):
        raise ValidationError(f"{context} must be an object, got {type(record).__name__}")
    for key in ("title", "summary", "text"):
        if not isinstance(record.get(key), (str, type(None))):
            raise ValidationError(f"{context}.{key} must be a string or null, got {record[key]!r}")
    rows = record.get("data")
    if rows is not None and not (
        isinstance(rows, list)
        and all(isinstance(row, Mapping) and all(isinstance(v, str) for v in row.values()) for row in rows)
        and len({tuple(row) for row in rows}) <= 1
    ):
        raise ValidationError(
            f"{context}.data must be an array of objects with string values and the same keys"
        )
    try:
        return EnrichmentResult(
            title=record.get("title"),
            summary=record.get("summary"),
            text=record.get("text") if rows is None else None,
            data=None if rows is None else tuple(rows),
        )
    except ValidationError as exc:
        raise ValidationError(f"{context}: {exc}") from None


def _fixture_string(value: Any, context: str, kind: type = str) -> Any:
    """``value`` as ``kind``, ``str`` or a string enum, checked and never coerced."""
    allowed = [member.value for member in kind] if issubclass(kind, Enum) else []
    if not isinstance(value, str) or (allowed and value not in allowed):
        expected = " or ".join(map(repr, allowed)) or "a string"
        raise ValidationError(f"{context} must be {expected}, got {value!r}")
    return kind(value)


def _fixture_table(
    raw: Mapping[str, Any], key: str, path: Union[str, Path], parse: Callable[[Any, str], Any]
) -> dict[str, Any]:
    """The object under ``key`` (empty when absent), each value run through ``parse``."""
    table = raw.get(key, {})
    if not isinstance(table, Mapping):
        raise ValidationError(f"{path}: {key} must be an object, got {type(table).__name__}")
    return {k: parse(v, f"{path}: {key}[{k!r}]") for k, v in table.items()}


class UsefulnessClassifier(Protocol):
    def classify(self, entity: Entity) -> UsefulnessVerdict: ...


class EnrichmentClient(Protocol):
    def enrich(self, entity: Entity) -> EnrichmentResult: ...


class CategoryClassifier(Protocol):
    def classify(self, text: str) -> str: ...


@dataclass
class UsefulnessTable:
    """Image classifier that looks verdicts up by entity id, else ``default``.

    With ``default=None`` an unknown id raises ``KeyError``, which
    ``gate_images`` treats as a failed call: the image is kept.
    """

    verdicts: Mapping[str, UsefulnessVerdict] = field(default_factory=dict)
    default: Optional[UsefulnessVerdict] = UsefulnessVerdict.USEFUL

    @classmethod
    def from_fixture(cls, path: Union[str, Path]) -> "UsefulnessTable":
        """Fixture format, where a missing ``"default"`` means ``default=None``::

            {"verdicts": {"<entity id>": "useful" | "useless", ...},
             "default": "useful" | "useless"}
        """
        raw = read_json_object(path, ValidationError)
        check = partial(_fixture_string, kind=UsefulnessVerdict)
        default = check(raw["default"], f"{path}: default") if "default" in raw else None
        return cls(_fixture_table(raw, "verdicts", path, check), default)

    def classify(self, entity: Entity) -> UsefulnessVerdict:
        verdict = self.verdicts.get(entity.id, self.default)
        if verdict is None:
            raise KeyError(f"no usefulness verdict for entity {entity.id!r}")
        return verdict


class StubEnrichmentClient:
    """Identity enrichment: echoes the entity's existing text, changing nothing."""

    def enrich(self, entity: Entity) -> EnrichmentResult:
        return EnrichmentResult(text=entity.value.text)


class FixtureEnrichmentClient:
    """Replays enrichment responses from a JSON fixture, parsed once at load.

    Fixture format::

        {"responses": {"<entity id>": {"title": ..., "summary": ...,
                                       "text": ... | "data": [...]}, ...}}

    A missing entity id raises, which the pipeline treats as a failed call
    (the entity keeps its OCR-only value).
    """

    def __init__(self, path: Union[str, Path]):
        raw = read_json_object(path, ValidationError)
        self.results = _fixture_table(raw, "responses", path, enrichment_result_from_record)

    def enrich(self, entity: Entity) -> EnrichmentResult:
        if entity.id not in self.results:
            raise KeyError(f"no enrichment response for entity {entity.id!r}")
        return self.results[entity.id]


class HttpEnrichmentClient:
    """POSTs entity payloads to a live enrichment endpoint.

    The request body is ``{"id", "type", "text", "image_payload"}``; the
    response must be a JSON record in the fixture format above.
    """

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url
        self.timeout = timeout

    def enrich(self, entity: Entity) -> EnrichmentResult:
        import requests

        response = requests.post(
            self.url,
            json={
                "id": entity.id,
                "type": entity.type.value,
                "text": entity.value.text,
                "image_payload": entity.image_payload,
            },
            timeout=self.timeout,
        )
        response.raise_for_status()
        return enrichment_result_from_record(response.json(), f"{self.url}: response")


def text_digest(text: str) -> str:
    """Key used by the category fixture: sha256 of the UTF-8 text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CategoryTable:
    """Document classifier that looks categories up by ``text_digest(text)``, else ``default``."""

    categories: Mapping[str, str] = field(default_factory=dict)
    default: str = UNCATEGORIZED

    @classmethod
    def from_fixture(cls, path: Union[str, Path]) -> "CategoryTable":
        """Fixture format::

            {"categories": {"<sha256 hexdigest>": "<category>", ...},
             "default": "uncategorized"}
        """
        raw = read_json_object(path, ValidationError)
        return cls(
            _fixture_table(raw, "categories", path, _fixture_string),
            _fixture_string(raw.get("default", UNCATEGORIZED), f"{path}: default"),
        )

    def classify(self, text: str) -> str:
        return self.categories.get(text_digest(text), self.default)


def resolve_enrichment_client(
    fixture_path: Optional[Union[str, Path]] = None,
) -> EnrichmentClient:
    """Pick the enrichment backend: fixture file, env-configured endpoint, or stub."""
    if fixture_path is not None:
        return FixtureEnrichmentClient(fixture_path)
    url = os.environ.get(ENRICHMENT_URL_ENV)
    if url:
        return HttpEnrichmentClient(url)
    return StubEnrichmentClient()

