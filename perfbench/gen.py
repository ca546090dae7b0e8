"""Seeded input generators for the three benchmark workloads.

Each generator writes docweave input files into a directory and returns the
expected results the output checks compare against. The expected values come
from the generator's own construction, never from docweave. The same seed
and size give byte-identical files.

* ``report``: multi-page documents shaped like the ROADMAP Baseline input: two
  columns in one ``multi_column`` region, a running header and a "Page p of N"
  footer on every page, ~5% duplicate detections, one table and two images per
  document (one image useless) with usefulness and enrichment fixture files.
  Every third page's header is detected as ``text``.
* ``dense``: one-page documents of ~1,800 detections in a 4-column
  ``multi_column`` region, a ``row_group`` region and a ``group`` region, ~5%
  duplicates, no page headers or footers, and a fixed share without ``id``.
* ``eval``: DP-Bench reference/prediction pairs. The prediction deletes one
  table row, rewords ~20% of the remaining cells and moves one body block.
  The first pair of every pool is an identity pair.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HEADER_TEXT = "ACME Corp Annual Report 2025"

_SYLLABLES = (
    "ba be bi bo bu ca ce co cu da de di do fa fe fi fo ga ge go la le li lo lu "
    "ma me mi mo mu na ne ni no nu pa pe pi po ra re ri ro ru sa se si so ta te "
    "ti to tu va ve vi vo za ze zo"
).split()


def _vocabulary() -> tuple[str, ...]:
    # A fixed vocabulary shared by every seed; seeds only change the choices.
    rng = random.Random(0)
    words: set[str] = set()
    while len(words) < 600:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4))))
    return tuple(sorted(words))


VOCABULARY = _vocabulary()


def words(rng: random.Random, low: int, high: int) -> str:
    return " ".join(rng.choice(VOCABULARY) for _ in range(rng.randint(low, high)))


def _write_json(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def _box(left: float, top: float, right: float, bottom: float) -> list[float]:
    return [round(left, 2), round(top, 2), round(right, 2), round(bottom, 2)]


@dataclass
class ParseInput:
    """One detection file plus what its outputs must contain."""

    path: Path
    elements: int  # detections in the file
    expected: dict = field(default_factory=dict)


@dataclass
class ParsePool:
    inputs: list[ParseInput]
    usefulness_fixture: Path | None = None
    enrichment_fixture: Path | None = None


@dataclass
class EvalInput:
    reference: Path
    prediction: Path
    elements: int  # DP-Bench elements in both files
    expected: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ((60.0, 390.0), (410.0, 740.0))
REPORT_BODY_TOP = 80.0
REPORT_PITCH = 28.0
REPORT_HEIGHT = 22.0
REPORT_WORDS = (1, 4)  # words per body element; the barrier's cost grows with text length
REPORT_DUPLICATE_SHARE = 0.05


@dataclass(frozen=True)
class ReportShape:
    pages: int = 6
    elements_per_page: int = 60


def make_report(rng: random.Random, doc_index: int, shape: ReportShape, directory: Path):
    """One report document; returns (ParseInput, usefulness verdicts, enrichment responses)."""
    stem = f"report{doc_index}"
    prefix = f"d{doc_index}"
    per_column = shape.elements_per_page // 2
    # One table and two images per document, on distinct seeded slots.
    # Slot 0 opens the left column; removing it would move the right column first.
    special_slots = rng.sample(
        [(p, s) for p in range(1, shape.pages + 1) for s in range(1, shape.elements_per_page)], 3
    )
    table_slot, useful_slot, useless_slot = special_slots
    verdicts: dict[str, str] = {}
    responses: dict[str, dict] = {}
    pages = []
    expected_pages = {}
    hidden_markers = []
    detections = 0
    for page in range(1, shape.pages + 1):
        elements = []
        header_label = "text" if page % 3 == 0 else "page_header"
        elements.append(
            {"id": f"{prefix}-p{page}-header", "label": header_label,
             "confidence": round(rng.uniform(0.8, 0.99), 3),
             "bbox": _box(60, 20, 740, 50), "text": HEADER_TEXT}
        )
        footer_text = f"Page {page} of {shape.pages}"
        elements.append(
            {"id": f"{prefix}-p{page}-footer", "label": "page_footer",
             "confidence": round(rng.uniform(0.8, 0.99), 3),
             "bbox": _box(60, 950, 740, 975), "text": footer_text}
        )
        columns: list[list[tuple[str, str]]] = [[], []]
        body = []
        for slot in range(shape.elements_per_page):
            column, row = divmod(slot, per_column)
            left, right = REPORT_COLUMNS[column]
            top = REPORT_BODY_TOP + row * REPORT_PITCH
            eid = f"{prefix}-p{page}-e{slot}"
            det = {"id": eid, "confidence": round(rng.uniform(0.8, 0.99), 3),
                   "bbox": _box(left, top, right, top + REPORT_HEIGHT)}
            if (page, slot) == table_slot:
                det.update(label="table", text="region revenue north south")
                responses[eid] = {
                    "title": f"Revenue {words(rng, 1, 2)}",
                    "summary": words(rng, 3, 6),
                    "data": [{"region": words(rng, 1, 1), "revenue": str(rng.randint(10, 999))}
                             for _ in range(4)],
                }
                columns[column].append(("table", det["text"]))
            elif (page, slot) == useful_slot:
                det.update(label="image", text="", image_payload=f"png:{eid}")
                verdicts[eid] = "useful"
                text = f"chart {words(rng, 4, 8)}"
                responses[eid] = {"title": "Chart", "summary": words(rng, 3, 6), "text": text}
                columns[column].append(("image", text))
            elif (page, slot) == useless_slot:
                marker = f"decorative{doc_index}x{rng.randrange(10**9)}"
                det.update(label="image", text=marker, image_payload=f"png:{marker}")
                verdicts[eid] = "useless"
                hidden_markers.append(marker)
            else:
                label = rng.choices(("text", "list_item", "section"), (6, 2, 1))[0]
                det.update(label=label, text=words(rng, *REPORT_WORDS))
                columns[column].append((label, det["text"]))
                body.append(det)
            elements.append(det)
        for det in rng.sample(body, round(REPORT_DUPLICATE_SHARE * len(body))):
            left, top, right, bottom = det["bbox"]
            elements.append(
                {"id": f"{det['id']}-dup", "label": det["label"],
                 "confidence": round(det["confidence"] - rng.uniform(0.05, 0.4), 3),
                 "bbox": _box(left + 2, top + 1, right + 2, bottom + 1), "text": det["text"]}
            )
        rng.shuffle(elements)
        detections += len(elements)
        pages.append(
            {"page_number": page, "element_detections": elements,
             "layout_detections": [
                 {"label": "multi_column", "confidence": 0.9, "bbox": _box(50, 75, 750, 935)}
             ]}
        )
        expected_pages[page] = (
            [("page_header", HEADER_TEXT)] + columns[0] + columns[1]
            + [("page_footer", footer_text)]
        )
    path = _write_json(
        directory / f"{stem}.json",
        {"filename": f"{stem}.pdf", "metadata": {"page_height": "1000"}, "pages": pages},
    )
    expected = {
        "pages": expected_pages,
        "hidden_markers": hidden_markers,
        "skipped_ids": sorted(e for e, v in verdicts.items() if v == "useless"),
        "llm_calls": 2,  # the table and the useful image
    }
    return ParseInput(path, detections, expected), verdicts, responses


def generate_report(seed: int, directory: Path, docs: int, shape: ReportShape = ReportShape()) -> ParsePool:
    rng = random.Random(f"report:{seed}")
    inputs, verdicts, responses = [], {}, {}
    for index in range(docs):
        item, doc_verdicts, doc_responses = make_report(rng, index, shape, directory)
        inputs.append(item)
        verdicts.update(doc_verdicts)
        responses.update(doc_responses)
    usefulness = _write_json(directory / "usefulness.json", {"verdicts": verdicts, "default": "useful"})
    enrichment = _write_json(directory / "enrichment.json", {"responses": responses})
    return ParsePool(inputs, usefulness, enrichment)


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------


DENSE_COLUMNS = 4
DENSE_DUPLICATE_SHARE = 0.05
DENSE_MISSING_ID_EVERY = 10  # every n-th detection carries no id


@dataclass(frozen=True)
class DenseShape:
    per_column: int = 360
    row_members: int = 90
    group_members: int = 180


def make_dense(rng: random.Random, doc_index: int, shape: DenseShape, directory: Path) -> ParseInput:
    stem = f"dense{doc_index}"
    originals = []
    seen_texts: set[str] = set()

    def fresh_text() -> str:
        while True:
            text = words(rng, 2, 8)
            if text not in seen_texts:
                seen_texts.add(text)
                return text

    def add(left: float, top: float, right: float, bottom: float) -> None:
        originals.append(
            {"label": rng.choices(("text", "list_item"), (4, 1))[0],
             "confidence": round(rng.uniform(0.8, 0.99), 3),
             "bbox": _box(left, top, right, bottom), "text": fresh_text()}
        )

    column_width, column_gap, pitch, height = 440.0, 60.0, 10.0, 8.0
    top0 = 40.0
    for column in range(DENSE_COLUMNS):
        left = 40.0 + column * (column_width + column_gap)
        for row in range(shape.per_column):
            top = top0 + row * pitch
            add(left, top, left + column_width, top + height)
    columns_bottom = top0 + shape.per_column * pitch
    region_right = 40.0 + DENSE_COLUMNS * (column_width + column_gap)
    layouts = [
        {"label": "multi_column", "confidence": 0.9,
         "bbox": _box(30, top0 - 5, region_right, columns_bottom)},
    ]
    row_top = columns_bottom + 40
    cell = (region_right - 40.0) / shape.row_members
    for index in range(shape.row_members):
        left = 40.0 + index * cell
        top = row_top + (index % 2) * 2.0
        add(left, top, left + cell * 0.8, top + 20.0)
    layouts.append({"label": "row_group", "confidence": 0.85,
                    "bbox": _box(30, row_top - 5, region_right, row_top + 30)})
    group_top = row_top + 80
    for index in range(shape.group_members):
        top = group_top + index * pitch
        add(40.0, top, 40.0 + column_width * 2, top + height)
    group_bottom = group_top + shape.group_members * pitch
    layouts.append({"label": "group", "confidence": 0.8,
                    "bbox": _box(30, group_top - 5, region_right, group_bottom)})

    duplicates = []
    for det in rng.sample(originals, round(DENSE_DUPLICATE_SHARE * len(originals))):
        left, top, right, bottom = det["bbox"]
        duplicates.append(
            {"label": det["label"],
             "confidence": round(det["confidence"] - rng.uniform(0.05, 0.4), 3),
             "bbox": _box(left + 1.5, top + 0.5, right + 1.5, bottom + 0.5), "text": det["text"]}
        )
    detections = originals + duplicates
    rng.shuffle(detections)
    for index, det in enumerate(detections):
        if index % DENSE_MISSING_ID_EVERY != 0:
            det["id"] = f"x{doc_index}-{index}"
    path = _write_json(
        directory / f"{stem}.json",
        {"filename": f"{stem}.pdf", "metadata": {"page_height": str(int(group_bottom + 40))},
         "pages": [{"page_number": 1, "element_detections": detections,
                    "layout_detections": layouts}]},
    )
    survivors = sorted((d["label"], d["text"], tuple(d["bbox"])) for d in originals)
    return ParseInput(path, len(detections), {"survivors": survivors})


def generate_dense(seed: int, directory: Path, docs: int, shape: DenseShape = DenseShape()) -> ParsePool:
    rng = random.Random(f"dense:{seed}")
    return ParsePool([make_dense(rng, index, shape, directory) for index in range(docs)])


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

EVAL_COLUMNS = 10
EVAL_CELL_WORDS = 1  # cell levenshtein in TEDS grows with the square of cell length
EVAL_REWORD_SHARE = 0.2


@dataclass(frozen=True)
class EvalShape:
    # Every pair has the same shape, so op times do not jump between pool
    # entries of different size when a run completes a different op count.
    pairs: int = 8
    rows: int = 10
    body_chars: int = 4000
    move_span: int = 2  # blocks the moved block travels


def _table_html(rows: list[list[str]]) -> str:
    body = "".join("<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>" for row in rows)
    return f"<table>{body}</table>"


def _dpbench(name: str, html: str, blocks: list[str]) -> dict:
    elements = [{"category": "Table",
                 "coordinates": [[50, 100], [750, 100], [750, 500], [50, 500]],
                 "id": 0, "page": 1, "content": {"text": "", "html": html}}]
    for index, block in enumerate(blocks, start=1):
        top = 520 + index * 10
        elements.append({"category": "Paragraph",
                         "coordinates": [[50, top], [750, top], [750, top + 8], [50, top + 8]],
                         "id": index, "page": 1, "content": {"text": block}})
    return {"filename": name, "elements": elements}


def make_eval_pair(rng: random.Random, index: int, identity: bool, shape: EvalShape,
                   directory: Path) -> EvalInput:
    rows = shape.rows
    # Fixed word counts keep the cost of a pair nearly independent of the seed.
    table = [[words(rng, EVAL_CELL_WORDS, EVAL_CELL_WORDS) for _ in range(EVAL_COLUMNS)]
             for _ in range(rows)]
    blocks: list[str] = []
    while sum(len(b) + 1 for b in blocks) < shape.body_chars:
        blocks.append(words(rng, 40, 40))
    size = 1 + rows * (1 + EVAL_COLUMNS)
    if identity:
        pred_table, pred_blocks = table, blocks
        expected = {"identity": True}
    else:
        deleted = rng.randrange(rows)
        pred_table = [list(row) for r, row in enumerate(table) if r != deleted]
        cells = [(r, c) for r in range(rows - 1) for c in range(EVAL_COLUMNS)]
        reworded = rng.sample(cells, round(EVAL_REWORD_SHARE * len(cells)))
        for r, c in reworded:
            old = pred_table[r][c]
            while pred_table[r][c] == old:
                pred_table[r][c] = words(rng, EVAL_CELL_WORDS, EVAL_CELL_WORDS)
        source = rng.randrange(len(blocks) - shape.move_span)
        target = source + shape.move_span
        pred_blocks = list(blocks)
        moved = pred_blocks.pop(source)
        pred_blocks.insert(target, moved)
        serialized = len("\n".join(blocks))
        expected = {
            "identity": False,
            "teds_s": 1.0 - (EVAL_COLUMNS + 1) / size,
            "teds_min": 1.0 - (EVAL_COLUMNS + 1 + len(reworded)) / size,
            # Moving one block of k characters (counting its separator) costs at
            # most k deletions plus k insertions over 2L characters.
            "nid_min": 1.0 - 2 * (len(moved) + 1) / (2 * serialized),
        }
    pair_dir = directory / f"pair{index}"
    reference = _write_json(pair_dir / "ref.json", _dpbench(f"pair{index}.pdf", _table_html(table), blocks))
    prediction = _write_json(pair_dir / "pred.json",
                             _dpbench(f"pair{index}.pdf", _table_html(pred_table), pred_blocks))
    return EvalInput(reference, prediction, 2 + len(blocks) + len(pred_blocks), expected)


def generate_eval(seed: int, directory: Path, shape: EvalShape = EvalShape()) -> list[EvalInput]:
    rng = random.Random(f"eval:{seed}")
    return [
        make_eval_pair(rng, index, index == 0, shape, directory)
        for index in range(shape.pairs)
    ]
