"""Output checks. Each returns None when the output is right, else the reason.

Expected values come from the generator (``gen.py``), never from docweave.
"""

from __future__ import annotations

import json

# A tolerance for comparing a score with a closed form built from the same
# integers; the two differ only by float rounding.
EPS = 1e-9


def check_report(expected: dict, texts: dict[str, str]) -> str | None:
    doc = json.loads(texts["json"])
    if doc["total_failed_pages"]:
        return f"{doc['total_failed_pages']} failed pages"
    if doc["total_llm_calls"] != expected["llm_calls"]:
        return f"{doc['total_llm_calls']} enrichment calls, expected {expected['llm_calls']}"
    pages = doc["pages"]
    if [p["page_number"] for p in pages] != sorted(expected["pages"]):
        return "page numbers differ"
    skipped = []
    for page in pages:
        elements = page["elements"].values()
        got = [(e["type"], e["value"]["text"]) for e in elements]
        want = expected["pages"][page["page_number"]]
        if got != want:
            return f"page {page['page_number']}: reading order or labels differ from the generator"
        if any(e["id"].endswith("-dup") for e in elements):
            return f"page {page['page_number']}: a lower-confidence duplicate survived"
        skipped.extend(page["skipped_images"])
    if sorted(skipped) != expected["skipped_ids"]:
        return f"skipped images {sorted(skipped)}, expected {expected['skipped_ids']}"
    for fmt, text in texts.items():
        for marker in expected["hidden_markers"]:
            if marker in text:
                return f"useless image content {marker!r} present in {fmt}"
        if fmt != "json":  # the JSON lists it under skipped_images
            for eid in expected["skipped_ids"]:
                # Quoted in the JSON formats, a link target in Markdown.
                if json.dumps(eid) in text or f"({eid})" in text:
                    return f"useless image id {eid!r} present in {fmt}"
    return None


def check_dense(expected: dict, texts: dict[str, str]) -> str | None:
    doc = json.loads(texts["json"])
    if doc["total_failed_pages"]:
        return f"{doc['total_failed_pages']} failed pages"
    elements = [e for page in doc["pages"] for e in page["elements"].values()]
    survivors = sorted(
        (e["type"], e["value"]["text"],
         tuple(e["pixel_coordinates"][k] for k in ("left", "top", "right", "bottom")))
        for e in elements
    )
    want = [(label, text, tuple(box)) for label, text, box in expected["survivors"]]
    if survivors != want:
        missing = len(set(want) - set(survivors))
        extra = len(set(survivors) - set(want))
        return f"survivors differ: {missing} missing, {extra} unexpected, {len(survivors)} kept"
    counts = {
        "json": len(elements),
        "dpbench": len(json.loads(texts["dpbench"])["elements"]),
        "graph": sum(1 for n in json.loads(texts["graph"])["nodes"] if n["kind"] == "element"),
        "chunks": sum(
            1 for line in texts["chunks"].splitlines()
            if json.loads(line)["metadata"]["chunk_kind"] == "element"
        ),
        # Generated texts hold no blank lines or list markers: one block each.
        "markdown": len(texts["markdown"].rstrip("\n").split("\n\n")),
    }
    if set(counts.values()) != {len(want)}:
        return f"element counts disagree across formats: {counts}, expected {len(want)}"
    return None


def check_eval(expected: dict, table_report: dict, layout_report: dict) -> str | None:
    if table_report["evaluated"] != 1 or layout_report["evaluated"] != 1:
        return "expected one table sample and one layout sample"
    scores = {
        "teds": table_report["samples"][0]["teds"],
        "teds_s": table_report["samples"][0]["teds_s"],
        "nid": layout_report["samples"][0]["nid"],
    }
    if expected["identity"]:
        if scores != {"teds": 1.0, "teds_s": 1.0, "nid": 1.0}:
            return f"identity pair scored {scores}"
        return None
    if abs(scores["teds_s"] - expected["teds_s"]) > EPS:
        return f"TEDS-S {scores['teds_s']} != closed form {expected['teds_s']}"
    if scores["teds"] < expected["teds_min"] - EPS:
        return f"TEDS {scores['teds']} below bound {expected['teds_min']}"
    # Any edit script on the full trees costs at least as much on the trees with
    # cell content blanked, and the reworded cells cost more on top of the
    # deleted row, so TEDS lies strictly below TEDS-S.
    if scores["teds"] >= expected["teds_s"]:
        return f"TEDS {scores['teds']} not below TEDS-S {expected['teds_s']}"
    if scores["nid"] < expected["nid_min"] - EPS:
        return f"NID {scores['nid']} below bound {expected['nid_min']}"
    # The moved block makes the two texts differ.
    if scores["nid"] >= 1.0:
        return f"NID {scores['nid']} for texts that differ"
    return None
