"""The four derived exports: Markdown, RAG chunks, knowledge graph, DP-Bench.

All exporters are pure functions of an immutable DocumentResult; the pipeline
runs them one after another. The chunks, graph and DP-Bench files are
written by ``to_chunks_jsonl``, ``to_graph_json`` and ``to_dpbench_json``,
each record from f-strings filled from the entities; this module alone knows
their formats. Skipped images were removed from ``elements`` during
assembly, so nothing here can leak their content.
"""

from __future__ import annotations

import html as html_escape
import re
import unicodedata
from typing import Iterable, Mapping, Optional

from .ingest import BULLET_GLYPHS
from .model import (
    DocumentResult,
    ElementLabel,
    Entity,
    PageResult,
    _encode_str,
    _json_value,
    _write_items,
)

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
        lines.append("| " + " | ".join(_escape_cell(row[h]) for h in headers) + " |")
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


def to_chunks_jsonl(doc: DocumentResult) -> str:
    """The ``.chunks.jsonl`` text: page-level, header-block, and per-element retrieval chunks.

    Each line is ``json.dumps(record, ensure_ascii=False)`` of one
    ``{"page_content", "metadata"}`` record, written from an f-string.
    Emission order is page chunks, then header blocks, then element chunks
    (each in page/reading order); a chunk whose NFKC-normalized content equals
    an earlier one's is dropped, first occurrence winning.
    """
    tail = f', "filename": {_encode_str(doc.filename)}, "document_category": {_encode_str(doc.document_category)}'
    lines: list[str] = []
    seen: set[str] = set()

    def add(content: str, page_number: int, kind: str, element_type: Optional[ElementLabel] = None) -> None:
        if not content:
            return
        key = unicodedata.normalize("NFKC", content)
        if key in seen:
            return
        seen.add(key)
        label = "" if element_type is None else f', "element_type": {_encode_str(element_type)}'
        lines.append(
            f'{{"page_content": {_encode_str(content)}, "metadata": {{"page_number": {page_number:d}{label}, '
            f'"token_count": {len(content.split()):d}{tail}, "chunk_kind": "{kind}"}}}}\n'
        )

    for page in doc.pages:
        texts = [e.value.text for e in page.elements.values() if e.value.text]
        add("\n".join(texts), page.page_number, "page")
    for page in doc.pages:
        for heading, block in _page_header_blocks(page):
            add(block, page.page_number, "header_block", heading.type)
    for page in doc.pages:
        for entity in page.elements.values():
            add(entity.value.text, page.page_number, "element", entity.type)
    return "".join(lines)


# ---------------------------------------------------------------------------
# Knowledge graph
# ---------------------------------------------------------------------------


def _node(node_id: str, kind: str, label: str) -> str:
    return f"""
    {{
      "id": {node_id},
      "kind": "{kind}",
      "label": {label}
    }}"""


def _edge(source: str, target: str, relation: str) -> str:
    return f"""
    {{
      "from": {source},
      "to": {target},
      "relation": "{relation}"
    }}"""


def to_graph_json(doc: DocumentResult) -> str:
    """The ``graph.json`` text: root -> pages -> reading-ordered elements.

    It holds ``{"nodes", "edges"}``. Nodes are ``{"id", "kind", "label"}``
    records, element nodes also carry their ``"weight"``; edges are
    ``{"from", "to", "relation"}`` records. Consecutive elements of equal
    weight are siblings; otherwise the lower-weight (higher-hierarchy) node
    is the parent. Each record is an f-string laid out at its depth in the file.
    """
    nodes = [_node('"root"', "root", _json_value(doc.filename, "      "))]
    edges = []
    for page in doc.pages:
        page_id = _encode_str(f"page_{page.page_number}")
        nodes.append(_node(page_id, "page", page_id))
        edges.append(_edge('"root"', page_id, "contains"))
        previous_weight = previous_id = None
        for entity in page.elements.values():
            entity_id = _encode_str(entity.id)
            weight = entity.weight
            nodes.append(f"""
    {{
      "id": {entity_id},
      "kind": "element",
      "label": {_encode_str(entity.type)},
      "weight": {weight:d}
    }}""")
            if previous_weight is None:
                edges.append(_edge(page_id, entity_id, "contains"))
            elif previous_weight == weight:
                edges.append(_edge(previous_id, entity_id, "sibling"))
            elif previous_weight < weight:
                edges.append(_edge(previous_id, entity_id, "parent-child"))
            else:
                edges.append(_edge(entity_id, previous_id, "parent-child"))
            previous_weight, previous_id = weight, entity_id
    parts = ['{\n  "nodes": ']
    _write_items(parts, nodes, list.append, "[]", "  ")
    parts.append(',\n  "edges": ')
    _write_items(parts, edges, list.append, "[]", "  ")
    parts.append("\n}\n")
    return "".join(parts)


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
            + "".join(f"<td>{html_escape.escape(row[h])}</td>" for h in headers)
            + "</tr>"
        )
    parts.append("</table>")
    return "".join(parts)


def _write_dpbench_element(parts: list[str], item: tuple[int, tuple[int, Entity]]) -> None:
    index, (page_number, entity) = item
    box = entity.pixel_coordinates
    left, top, right, bottom = repr(box.left), repr(box.top), repr(box.right), repr(box.bottom)
    parts.append(f"""
    {{
      "category": {_encode_str(DPBENCH_CATEGORY[entity.type])},
      "coordinates": [
        [
          {left},
          {top}
        ],
        [
          {right},
          {top}
        ],
        [
          {right},
          {bottom}
        ],
        [
          {left},
          {bottom}
        ]
      ],""")
    data = entity.value.data
    table = ""
    if entity.type is ElementLabel.TABLE and data:
        table = f""",
        "html": {_encode_str(_table_html_content(data))},
        "markdown": {_encode_str(_markdown_table(data))}"""
    parts.append(f"""
      "id": {index},
      "page": {page_number:d},
      "content": {{
        "text": {_encode_str(entity.value.text)}{table}
      }}
    }}""")


def to_dpbench_json(doc: DocumentResult) -> str:
    """The ``dpbench.json`` text: benchmark prediction elements in reading order.

    It holds ``{"filename", "elements"}``, and each element is the record
    ``metrics.evaluate`` reads. Boxes become four-point polygons
    [LT, RT, RB, LB]; ids are sequential from 0 across the document. Tables
    carry an HTML (and Markdown) rendering of their enriched data when
    available. Each element is written as f-strings laid out at its depth in
    the file; the coordinates are finite floats by the ``BBox`` invariant.
    """
    elements = list(enumerate((page.page_number, entity) for page in doc.pages for entity in page.elements.values()))
    parts = [f'{{\n  "filename": {_json_value(doc.filename, "  ")},\n  "elements": ']
    _write_items(parts, elements, _write_dpbench_element, "[]", "  ")
    parts.append("\n}\n")
    return "".join(parts)
