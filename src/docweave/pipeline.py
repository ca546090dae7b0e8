"""End-to-end orchestration: ingest, per-page assembly, correction, export.

Pages are assembled in turn, and a failed page is left out with its cause
recorded in ``DocumentOutcome.failed_pages``; header/footer
correction is a whole-document barrier that runs after every page. The only
concurrency is up to ``workers`` client calls within a page. Output files are
written atomically (temp file + rename), so an interrupted run never leaves a
truncated file at a final path.
"""

from __future__ import annotations

import json
import logging
import math
import os
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from . import export as export_mod
from .assembly import AssemblyParams, assemble_page, correct_headers_footers
from .clients import (
    CategoryClassifier,
    CategoryTable,
    EnrichmentClient,
    UsefulnessClassifier,
    UsefulnessTable,
    resolve_enrichment_client,
)
from .errors import DocweaveError, ValidationError
from .ingest import (
    DetectionInput,
    ELEMENT_CONFIDENCE_THRESHOLD,
    LAYOUT_CONFIDENCE_THRESHOLD,
    PageDetections,
    build_entities,
    classify_document,
    enrich_entities,
    filter_small_text,
    gate_images,
    load_detections,
)
from .model import (
    DocumentResult,
    PageResult,
    SchemaWeights,
    _is_int,
    _is_number,
    document_to_json,
    json_text,
)

logger = logging.getLogger(__name__)

#: Output format -> file suffix, in the default format order.
FORMATS = {
    "json": ".json",
    "markdown": ".md",
    "chunks": ".chunks.jsonl",
    "graph": ".graph.json",
    "dpbench": ".dpbench.json",
}


def _path(name: str, value: Any) -> Path:
    if not isinstance(value, (str, Path)):
        raise ValidationError(f"{name} must be a path string, got {value!r}")
    return Path(value)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs; flags mirror these fields.

    Values are type-checked, never coerced: ``inputs`` and ``formats`` are
    lists or tuples, ``skip_*`` are bools, ``workers`` is an int, thresholds
    are numbers, fixture paths are ``str`` or ``Path`` and ``weight_overrides``
    maps element labels to positive ints.
    """

    inputs: tuple[Path, ...]
    output_dir: Path
    layout_threshold: float = LAYOUT_CONFIDENCE_THRESHOLD
    element_threshold: float = ELEMENT_CONFIDENCE_THRESHOLD
    skip_images: bool = True  # when True the usefulness gate runs
    skip_insights: bool = True  # when True no enrichment calls are made
    skip_headers_footers: bool = False
    formats: tuple[str, ...] = tuple(FORMATS)
    assembly: AssemblyParams = field(default_factory=AssemblyParams)
    weight_overrides: Mapping[str, int] = field(default_factory=dict)
    usefulness_fixture: Optional[Path] = None
    enrichment_fixture: Optional[Path] = None
    category_fixture: Optional[Path] = None
    workers: int = 1

    def __post_init__(self):
        for name in ("inputs", "formats"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValidationError(f"{name} must be a list, got {getattr(self, name)!r}")
        for name in ("skip_images", "skip_insights", "skip_headers_footers"):
            if not isinstance(getattr(self, name), bool):
                raise ValidationError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name in ("usefulness_fixture", "enrichment_fixture", "category_fixture"):
            value = getattr(self, name)
            object.__setattr__(self, name, None if value is None else _path(name, value))
        object.__setattr__(self, "inputs", tuple(_path("inputs", p) for p in self.inputs))
        object.__setattr__(self, "output_dir", _path("output_dir", self.output_dir))
        object.__setattr__(self, "formats", tuple(self.formats))
        for name in ("layout_threshold", "element_threshold"):
            value = getattr(self, name)
            if not _is_number(value) or not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be a number in [0,1], got {value!r}")
        if not self.formats:
            raise ValidationError("at least one output format is required")
        unknown = [f for f in self.formats if not isinstance(f, str) or f not in FORMATS]
        if unknown:
            raise ValidationError(f"unknown output formats: {unknown}")
        if not _is_int(self.workers) or self.workers < 1:
            raise ValidationError(f"worker count must be an integer >= 1, got {self.workers!r}")
        if not isinstance(self.weight_overrides, Mapping):
            raise ValidationError(
                f"weight_overrides must be an object, got {self.weight_overrides!r}"
            )
        SchemaWeights.with_overrides(self.weight_overrides)  # raises on a bad label or weight


@dataclass
class DocumentOutcome:
    input_path: Path
    result: Optional[DocumentResult] = None
    written: list[Path] = field(default_factory=list)
    error: Optional[str] = None
    failed_pages: dict[int, str] = field(default_factory=dict)  # page number -> cause

    @property
    def failed(self) -> bool:
        """A document wholly failed: unreadable input or every page failed."""
        if self.error is not None:
            return True
        doc = self.result
        return doc is not None and doc.total_pages > 0 and doc.total_processed_pages == 0


def write_atomic(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partials."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def render_format(doc: DocumentResult, fmt: str, skip_headers_footers: bool) -> str:
    if fmt == "json":
        return document_to_json(doc)
    if fmt == "markdown":
        return export_mod.to_markdown(doc, skip_headers_footers=skip_headers_footers)
    if fmt == "chunks":
        encode = json.JSONEncoder(ensure_ascii=False).encode
        return "".join(encode(c) + "\n" for c in export_mod.to_chunks(doc))
    if fmt == "graph":
        nodes, edges = export_mod.to_graph(doc)
        return json_text({"nodes": nodes, "edges": edges})
    if fmt == "dpbench":
        return json_text({"filename": doc.filename, "elements": export_mod.to_dpbench(doc)})
    raise ValidationError(f"unknown output format {fmt!r}")


def export_document(
    doc: DocumentResult,
    output_dir: Path,
    stem: str,
    formats: Sequence[str],
    skip_headers_footers: bool = False,
) -> list[Path]:
    """Render and atomically write the selected formats."""
    rendered = {fmt: render_format(doc, fmt, skip_headers_footers) for fmt in formats}
    written = []
    for fmt in sorted(formats):
        target = output_dir / f"{stem}{FORMATS[fmt]}"
        write_atomic(target, rendered[fmt])
        written.append(target)
    return written


@dataclass
class _PageOutcome:
    page_number: int
    result: Optional[PageResult] = None
    llm_calls: int = 0
    error: Optional[str] = None


class _Clients:
    def __init__(self, config: PipelineConfig):
        self.usefulness: UsefulnessClassifier = (
            UsefulnessTable.from_fixture(config.usefulness_fixture)
            if config.usefulness_fixture
            else UsefulnessTable()
        )
        self.enrichment: EnrichmentClient = resolve_enrichment_client(config.enrichment_fixture)
        self.category: CategoryClassifier = (
            CategoryTable.from_fixture(config.category_fixture)
            if config.category_fixture
            else CategoryTable()
        )


def _process_page(
    page: PageDetections,
    schema: SchemaWeights,
    config: PipelineConfig,
    clients: _Clients,
) -> _PageOutcome:
    outcome = _PageOutcome(page_number=page.page_number)
    try:
        entities = filter_small_text(build_entities(page.element_detections, schema))
        skipped_ids: list[str] = []
        if config.skip_images:
            entities, skipped_ids = gate_images(
                entities, clients.usefulness, max_workers=config.workers
            )
        if not config.skip_insights:
            entities, outcome.llm_calls = enrich_entities(
                entities, clients.enrichment, max_workers=config.workers
            )
        outcome.result = assemble_page(
            page_number=page.page_number,
            layout_detections=page.layout_detections,
            entities=entities,
            params=config.assembly,
            skipped_image_ids=skipped_ids,
        )
    except Exception as exc:
        logger.exception("page %d failed to assemble", page.page_number)
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def _document_text(detections: DetectionInput, pages: Sequence[PageResult]) -> str:
    by_number = {p.page_number: p for p in pages}
    page_texts = []
    for page in detections.pages:
        if page.full_page_text is not None:
            page_texts.append(page.full_page_text)
            continue
        assembled = by_number.get(page.page_number)
        if assembled is None:
            continue
        texts = [e.value.text for e in assembled.elements.values() if e.value.text]
        page_texts.append("\n".join(texts))
    return "\n\n".join(page_texts)


def _page_heights(detections: DetectionInput) -> dict[int, float]:
    """Each page's height from ``metadata.page_height``; a value that is not a
    positive finite number is ignored, so pages fall back to their lowest element."""
    raw = detections.metadata.get("page_height")
    if raw is None:
        return {}
    try:
        height = float(raw)
    except ValueError:
        height = math.nan
    if not 0 < height < math.inf:
        logger.warning("ignoring page_height metadata %r: not a positive finite number", raw)
        return {}
    return {page.page_number: height for page in detections.pages}


def process_document(path: Path, config: PipelineConfig, clients: Optional[_Clients] = None) -> DocumentOutcome:
    """Run the full pipeline for one detection-input file."""
    outcome = DocumentOutcome(input_path=path)
    clients = clients or _Clients(config)
    try:
        detections = load_detections(
            path,
            layout_threshold=config.layout_threshold,
            element_threshold=config.element_threshold,
        )
    except DocweaveError as exc:
        outcome.error = str(exc)
        logger.error("%s", exc)
        return outcome

    schema = SchemaWeights.with_overrides(config.weight_overrides)
    page_outcomes = [_process_page(p, schema, config, clients) for p in detections.pages]
    outcome.failed_pages = {o.page_number: o.error for o in page_outcomes if o.error is not None}

    assembled = [o.result for o in page_outcomes if o.result is not None]
    corrected = correct_headers_footers(
        assembled,
        config.assembly.header_footer,
        schema,
        page_heights=_page_heights(detections),
    )
    category = classify_document(_document_text(detections, corrected), clients.category)
    outcome.result = DocumentResult(
        filename=detections.filename,
        total_pages=len(detections.pages),
        total_llm_calls=sum(o.llm_calls for o in page_outcomes),
        metadata=detections.metadata,
        document_category=category,
        pages=tuple(corrected),
    )
    try:
        outcome.written = export_document(
            outcome.result,
            config.output_dir,
            path.stem,
            config.formats,
            skip_headers_footers=config.skip_headers_footers,
        )
    except Exception as exc:
        outcome.error = f"export failed: {exc}"
        logger.exception("export failed for %s", path)
    return outcome


def run_pipeline(config: PipelineConfig) -> list[DocumentOutcome]:
    """Process every input file; per-file failures do not stop the run."""
    clients = _Clients(config)
    return [process_document(path, config, clients) for path in config.inputs]


def config_from_mapping(raw: Mapping[str, Any], **overrides: Any) -> PipelineConfig:
    """Build a PipelineConfig from a config-file mapping plus flag overrides.

    Recognized keys mirror the PipelineConfig fields; ``assembly`` accepts
    ``{"cluster": {"eps", "min_samples"}, "row": {"angle_threshold_degrees"},
    "header_footer": {"fuzzy_threshold", "header_top_limit"}}``. None-valued
    overrides are ignored; an ``assembly`` override merges section by section.
    """
    from .assembly import ClusterParams, HeaderFooterParams, RowOrderParams

    if not isinstance(raw, Mapping):
        raise ValidationError("config must be an object")
    unknown = set(raw) - {f.name for f in fields(PipelineConfig)}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")

    values: dict[str, Any] = {k: v for k, v in raw.items() if k != "assembly"}
    sections = {"cluster": ClusterParams, "row": RowOrderParams, "header_footer": HeaderFooterParams}
    assembly_raw = raw.get("assembly", {})
    if not isinstance(assembly_raw, Mapping):
        raise ValidationError("config key 'assembly' must be an object")
    unknown = set(assembly_raw) - set(sections)
    if unknown:
        raise ValidationError(f"unknown assembly config sections: {sorted(unknown)}")
    assembly_flags = overrides.pop("assembly", None) or {}
    assembly = {}
    for name, params_type in sections.items():
        section_raw = assembly_raw.get(name, {})
        if not isinstance(section_raw, Mapping):
            raise ValidationError(f"assembly config section {name!r} must be an object")
        unknown = set(section_raw) - {f.name for f in fields(params_type)}
        if unknown:
            raise ValidationError(f"unknown keys in assembly config section {name!r}: {sorted(unknown)}")
        merged = dict(section_raw)
        merged.update((k, v) for k, v in assembly_flags.get(name, {}).items() if v is not None)
        assembly[name] = params_type(**merged)
    values["assembly"] = AssemblyParams(**assembly)
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    return PipelineConfig(**values)
