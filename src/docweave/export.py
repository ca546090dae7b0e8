"""The four derived exports: Markdown, RAG chunks, knowledge graph, DP-Bench.

All exporters are pure functions of an immutable DocumentResult; the pipeline
runs them one after another. Chunk, graph and DP-Bench records are plain
dicts equal to the JSON records that the written files hold. Skipped images
were removed from ``elements`` during assembly, so nothing here can leak
their content.
"""

from __future__ import annotations

import html as html_escape
import re
import unicodedata
from typing import Any, Iterable, Mapping, Optional

from .ingest import BULLET_GLYPHS
from .model import DocumentResult, ElementLabel, Entity, PageResult

PAGE_SEPARATOR = "\n\n---\n\n"

#: Element label -> DP-Bench category. Equation/Chart/Index/Footnote have no
#: source label and stay unmapped.
DPBENCH_CATEGORY: dict[ElementLabel, str] = {
    ElementLabel.PAGE_HEADER: "Header",
    ElementLabel.TEXT: "Paragraph",
    ElementLabel.SECTION: "Heading1",
    ElementLabel.TITLE: "Heading1",
    ElementLabel.HEADER: "Heading1",
    ElementLabel.LIST_ITEM: "List",
    ElementLabel.PAGE_FOOTER: "Footer",
    ElementLabel.TABLE_CAPTION: "Caption",
    ElementLabel.IMAGE_CAPTION: "Caption",
    ElementLabel.TABLE_OF_CONTENT: "Paragraph",
    ElementLabel.IMAGE: "Figure",
    ElementLabel.TABLE: "Table",
}

_INLINE_BULLETS = re.compile(f"[{BULLET_GLYPHS}]")
_ITEM_MARKER = re.compile(r"^(?:[-*]\s+|\d+[.)]\s+)")


# ---------------------------------------------------------------------------
# Markdown
# ---------------------------------------------------------------------------


def extract_list_items(text: str) -> list[str]:
    """Split list text into items on newlines, bullet glyphs, and enumerators."""
    items = []
    for line in text.split("\n"):
        for part in _INLINE_BULLETS.split(line):
            item = _ITEM_MARKER.sub("", part.strip()).strip()
            if item:
                items.append(item)
    return items


def _escape_cell(cell: str) -> str:
    return cell.replace("|", "\\|").replace("\n", " ")


def _markdown_table(rows: Iterable[Mapping[str, str]]) -> str:
    rows = list(rows)
    headers = list(rows[0].keys())
    lines = ["| " + " | ".join(_escape_cell(h) for h in headers) + " |"]
    lines.append("| " + " | ".join("---" for _ in headers) + " |")
    for row in rows:
        lines.append("| " + " | ".join(_escape_cell(str(row.get(h, ""))) for h in headers) + " |")
    return "\n".join(lines)


def _entity_markdown(entity: Entity, skip_headers_footers: bool) -> list[str]:
    label = entity.type
    value = entity.value
    text = value.text
    blocks: list[str] = []
    if label is ElementLabel.TITLE:
        if text:
            blocks.append(f"## {text}")
    elif label in (ElementLabel.SECTION, ElementLabel.HEADER):
        if text:
            blocks.append(f"### {text}")
    elif label is ElementLabel.LIST_ITEM:
        items = extract_list_items(text)
        if items:
            blocks.append("\n".join(f"- {item}" for item in items))
        elif text:
            blocks.append(text)
    elif label is ElementLabel.TABLE:
        if value.title:
            blocks.append(f"**{value.title}**")
        if value.summary:
            blocks.append(f"*{value.summary}*")
        if value.data:
            blocks.append(_markdown_table(value.data))
        elif text:
            blocks.append(text)
    elif label is ElementLabel.IMAGE:
        blocks.append(f"![{value.title or 'image'}]({entity.id})")
        if value.summary:
            blocks.append(f"*{value.summary}*")
    elif label in (ElementLabel.PAGE_HEADER, ElementLabel.PAGE_FOOTER):
        if not skip_headers_footers and text:
            blocks.append(f"> [{label.value}] {text}")
    else:  # text, captions, table_of_content
        if text:
            blocks.append(text)
    return blocks


def to_markdown(doc: DocumentResult, skip_headers_footers: bool = False) -> str:
    """Render the document as Markdown, one horizontal rule between pages."""
    page_texts = []
    for page in doc.pages:
        blocks: list[str] = []
        for entity in page.elements.values():
            blocks.extend(_entity_markdown(entity, skip_headers_footers))
        page_texts.append("\n\n".join(blocks))
    return PAGE_SEPARATOR.join(page_texts) + "\n"


# ---------------------------------------------------------------------------
# RAG chunks
# ---------------------------------------------------------------------------


# Unused in docweave; kept because perfbench/tracing.py patches it by name (see ROADMAP item 4).
def fnv1a_64(text: str) -> int:
    """64-bit FNV-1a over the NFKC-normalized UTF-8 bytes of ``text``."""
    data = unicodedata.normalize("NFKC", text).encode("utf-8")
    value = 0xCBF29CE484222325
    for byte in data:
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


def _page_header_blocks(page: PageResult) -> list[tuple[Entity, str]]:
    """(heading entity, block text) for each section/title run on the page."""
    blocks = []
    heading: Optional[Entity] = None
    parts: list[str] = []
    for entity in page.elements.values():
        if entity.type in (ElementLabel.SECTION, ElementLabel.TITLE):
            if heading is not None:
                blocks.append((heading, "\n".join(parts)))
            heading = entity
            parts = [entity.value.text] if entity.value.text else []
        elif heading is not None and entity.type in (ElementLabel.TEXT, ElementLabel.LIST_ITEM):
            if entity.value.text:
                parts.append(entity.value.text)
    if heading is not None:
        blocks.append((heading, "\n".join(parts)))
    return blocks


def to_chunks(doc: DocumentResult) -> list[dict[str, Any]]:
    """Produce page-level, header-block, and per-element retrieval chunks.

    Each chunk is the ``{"page_content", "metadata"}`` record that one line of
    the ``.chunks.jsonl`` file holds. Emission order is page chunks, then
    header blocks, then element chunks (each in page/reading order); a chunk
    whose NFKC-normalized content equals an earlier one's is dropped, first
    occurrence winning.
    """
    chunks: list[dict[str, Any]] = []
    seen: set[str] = set()

    def add(content: str, page_number: int, kind: str, element_type: Optional[str] = None):
        if not content:
            return
        key = unicodedata.normalize("NFKC", content)
        if key in seen:
            return
        seen.add(key)
        metadata: dict[str, Any] = {"page_number": page_number}
        if element_type is not None:
            metadata["element_type"] = element_type
        metadata.update(
            token_count=len(content.split()),
            filename=doc.filename,
            document_category=doc.document_category,
            chunk_kind=kind,
        )
        chunks.append({"page_content": content, "metadata": metadata})

    for page in doc.pages:
        texts = [e.value.text for e in page.elements.values() if e.value.text]
        add("\n".join(texts), page.page_number, "page")
    for page in doc.pages:
        for heading, block in _page_header_blocks(page):
            add(block, page.page_number, "header_block", heading.type.value)
    for page in doc.pages:
        for entity in page.elements.values():
            add(entity.value.text, page.page_number, "element", entity.type.value)
    return chunks


# ---------------------------------------------------------------------------
# Knowledge graph
# ---------------------------------------------------------------------------


def to_graph(doc: DocumentResult) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Build the document graph: root -> pages -> reading-ordered elements.

    Nodes are ``{"id", "kind", "label"}`` records, element nodes also carry
    their ``"weight"``; edges are ``{"from", "to", "relation"}`` records, as
    in ``graph.json``. Consecutive elements of equal weight are siblings;
    otherwise the lower-weight (higher-hierarchy) node is the parent.
    """
    nodes: list[dict[str, Any]] = [{"id": "root", "kind": "root", "label": doc.filename}]
    edges: list[dict[str, Any]] = []
    for page in doc.pages:
        page_id = f"page_{page.page_number}"
        nodes.append({"id": page_id, "kind": "page", "label": page_id})
        edges.append({"from": "root", "to": page_id, "relation": "contains"})
        elements = list(page.elements.values())
        for entity in elements:
            nodes.append(
                {"id": entity.id, "kind": "element", "label": entity.type.value, "weight": entity.weight}
            )
        if not elements:
            continue
        edges.append({"from": page_id, "to": elements[0].id, "relation": "contains"})
        for previous, current in zip(elements, elements[1:]):
            if previous.weight == current.weight:
                edges.append({"from": previous.id, "to": current.id, "relation": "sibling"})
            elif previous.weight < current.weight:
                edges.append({"from": previous.id, "to": current.id, "relation": "parent-child"})
            else:
                edges.append({"from": current.id, "to": previous.id, "relation": "parent-child"})
    return nodes, edges


# ---------------------------------------------------------------------------
# DP-Bench predictions
# ---------------------------------------------------------------------------


def _table_html_content(rows: Iterable[Mapping[str, str]]) -> str:
    rows = list(rows)
    headers = list(rows[0].keys())
    parts = ["<table>"]
    parts.append("<tr>" + "".join(f"<td>{html_escape.escape(h)}</td>" for h in headers) + "</tr>")
    for row in rows:
        parts.append(
            "<tr>"
            + "".join(f"<td>{html_escape.escape(str(row.get(h, '')))}</td>" for h in headers)
            + "</tr>"
        )
    parts.append("</table>")
    return "".join(parts)


def to_dpbench(doc: DocumentResult) -> list[dict[str, Any]]:
    """Convert to benchmark prediction elements in reading order.

    Each element is a ``dpbench.json`` record, the shape ``metrics.evaluate``
    reads. Boxes become four-point polygons [LT, RT, RB, LB]; ids are
    sequential from 0 across the document. Tables carry an HTML (and
    Markdown) rendering of their enriched data when available.
    """
    out: list[dict[str, Any]] = []
    for page in doc.pages:
        for entity in page.elements.values():
            box = entity.pixel_coordinates
            left, top, right, bottom = box.left, box.top, box.right, box.bottom
            content = {"text": entity.value.text}
            if entity.type is ElementLabel.TABLE and entity.value.data:
                content["html"] = _table_html_content(entity.value.data)
                content["markdown"] = _markdown_table(entity.value.data)
            out.append(
                {
                    "category": DPBENCH_CATEGORY[entity.type],
                    "coordinates": [[left, top], [right, top], [right, bottom], [left, bottom]],
                    "id": len(out),
                    "page": page.page_number,
                    "content": content,
                }
            )
    return out
