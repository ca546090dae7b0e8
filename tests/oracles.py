"""Independent reference implementations used only to check the library.

Each oracle deliberately takes a different algorithmic route than the
production code: the indel oracle goes through an LCS table, the edit
distance oracle is the row-by-row dynamic program, the DBSCAN
oracle recomputes reachability from set definitions, the tree edit oracle
is a memoized recursion over forests instead of forest-distance tables, the
Zhang-Shasha oracle fills every keyroot table with one entry per node pair
where the library fills tables on demand with one entry per shape pair, the
header/footer oracle scores every entity against every candidate with the
LCS-table distance instead of using a candidate index, the dedupe oracle
tests every pair of entities instead of (type, text) buckets, the chunk
dedupe oracle compares each chunk with every earlier one instead of keeping a
set of seen contents, and the record builders build the result, chunks, graph
and DP-Bench files as dicts for ``json.dumps`` instead of filling text templates.
"""

import json
import unicodedata
from dataclasses import replace
from functools import lru_cache


# --- indel distance via longest common subsequence -------------------------


def lcs_length(a: str, b: str) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def indel_oracle(a: str, b: str) -> int:
    return len(a) + len(b) - 2 * lcs_length(a, b)


@lru_cache(maxsize=None)
def _lcs_recursive(a: str, b: str) -> int:
    if not a or not b:
        return 0
    if a[0] == b[0]:
        return 1 + _lcs_recursive(a[1:], b[1:])
    return max(_lcs_recursive(a[1:], b), _lcs_recursive(a, b[1:]))


def indel_oracle_fast(a: str, b: str) -> int:
    """Memoized variant for the exhaustive sweep over short alphabets."""
    return len(a) + len(b) - 2 * _lcs_recursive(a, b)


# --- edit distance by the row dynamic program ----------------------------


def levenshtein_oracle(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


def relabel_cost_oracle(a, b) -> float:
    """The TEDS relabel cost (Zhong et al. 2020) with the oracle's cell-text distance."""
    if a.tag != b.tag or a.colspan != b.colspan or a.rowspan != b.rowspan:
        return 1.0
    if a.tag != "td" or (not a.text and not b.text):
        return 0.0
    return levenshtein_oracle(a.text, b.text) / max(len(a.text), len(b.text))


# --- brute-force header/footer relabeling ---------------------------------


def header_footer_oracle(pages, params, page_heights=None):
    """``correct_headers_footers`` with its relabeling done the brute-force
    way: each pass scores every entity against every candidate tuple taken
    at the start of the pass. The position heuristic and page rebuild are
    the library's own."""
    from docweave.assembly import RELABEL_EXEMPT_LABELS, _fix_positions_and_rebuild
    from docweave.model import ElementLabel

    def ratio(a, b):
        total = len(a) + len(b)
        return 100 if total == 0 else round(100 * (1 - indel_oracle(a, b) / total))

    targets = (ElementLabel.PAGE_HEADER, ElementLabel.PAGE_FOOTER)
    pages = list(pages)
    current = [dict(p.elements) for p in pages]
    changed = True
    while changed:
        candidates = [
            (page.page_number, entity.type, entity.value.text)
            for page, elements in zip(pages, current)
            for entity in elements.values()
            if entity.type in targets and entity.value.text
        ]
        changed = False
        for page, elements in zip(pages, current):
            for eid, entity in elements.items():
                if entity.type in RELABEL_EXEMPT_LABELS or not entity.value.text:
                    continue
                for target in targets:
                    if any(
                        source != page.page_number
                        and kind is target
                        and ratio(entity.value.text, text) > params.fuzzy_threshold
                        for source, kind, text in candidates
                    ):
                        elements[eid] = replace(entity, type=target)
                        changed = True
                        break
    return _fix_positions_and_rebuild(pages, current, params, page_heights or {})


# --- naive DBSCAN ----------------------------------------------------------


def dbscan_oracle(points, eps: float, min_samples: int) -> list[int]:
    """Set-based DBSCAN: cores from pairwise distances, clusters as the
    connected components of the core graph (numbered by first core index),
    borders joining the earliest-numbered cluster with a core neighbor."""
    n = len(points)
    NOISE = -1

    def near(i, j):
        return abs(points[i] - points[j]) <= eps

    cores = [i for i in range(n) if sum(near(i, j) for j in range(n)) >= min_samples]
    core_set = set(cores)

    labels = [NOISE] * n
    cluster = 0
    for seed in cores:
        if labels[seed] != NOISE:
            continue
        component = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            for other in cores:
                if other not in component and near(current, other):
                    component.add(other)
                    frontier.append(other)
        for member in component:
            labels[member] = cluster
        cluster += 1

    for i in range(n):
        if i in core_set:
            continue
        neighbor_clusters = [labels[j] for j in cores if near(i, j)]
        if neighbor_clusters:
            labels[i] = min(neighbor_clusters)
    return labels


# --- pairwise duplicate removal --------------------------------------------


def dedupe_oracle(entities):
    """``dedupe_page`` with every entity pair tested. Returns the survivors
    and the ``(dropped id, survivor id)`` pairs in the order they are logged."""
    from docweave.assembly import DUPLICATE_IOU_THRESHOLD
    from docweave.geometry import iou

    entities = list(entities)
    parent = {e.id: e.id for e in entities}

    def find(eid):
        while parent[eid] != eid:
            eid = parent[eid]
        return eid

    for i, a in enumerate(entities):
        for b in entities[i + 1 :]:
            if (
                a.type is b.type
                and a.value.text == b.value.text
                and iou(a.pixel_coordinates, b.pixel_coordinates) > DUPLICATE_IOU_THRESHOLD
            ):
                parent[find(a.id)] = find(b.id)

    components = {}
    for entity in entities:
        components.setdefault(find(entity.id), []).append(entity)
    keep, drops = set(), []
    for members in components.values():
        survivor = min(members, key=lambda e: (-e.confidence, e.id))
        keep.add(survivor.id)
        drops.extend((e.id, survivor.id) for e in members if e.id != survivor.id)
    return [e for e in entities if e.id in keep], drops


# --- chunk dedupe by pairwise comparison ------------------------------------


def chunk_dedupe_oracle(candidates):
    """The ``(content, ...)`` candidates ``to_chunks_jsonl`` keeps: the non-empty
    ones whose NFKC-normalized content equals no earlier candidate's."""
    kept = []
    for i, candidate in enumerate(candidates):
        content = unicodedata.normalize("NFKC", candidate[0])
        if candidate[0] and all(
            unicodedata.normalize("NFKC", earlier[0]) != content for earlier in candidates[:i]
        ):
            kept.append(candidate)
    return kept


# --- brute-force tree edit distance -----------------------------------------


def tree_edit_oracle(tree_a, tree_b, relabel_cost) -> float:
    """Forest-recursion tree edit distance with unit insert/delete costs.

    Nodes are TableNode-like objects with ``children``. Forests are tuples of
    nodes; the recursion removes the rightmost root by deletion, insertion,
    or matching, memoized on forest identity.
    """

    def size(node) -> int:
        return 1 + sum(size(child) for child in node.children)

    def forest_size(forest) -> int:
        return sum(size(node) for node in forest)

    memo: dict[tuple, float] = {}

    def dist(fa: tuple, fb: tuple) -> float:
        if not fa:
            return float(forest_size(fb))
        if not fb:
            return float(forest_size(fa))
        key = (tuple(id(n) for n in fa), tuple(id(n) for n in fb))
        if key in memo:
            return memo[key]
        a_last, b_last = fa[-1], fb[-1]
        delete = dist(fa[:-1] + tuple(a_last.children), fb) + 1.0
        insert = dist(fa, fb[:-1] + tuple(b_last.children)) + 1.0
        match = (
            dist(fa[:-1], fb[:-1])
            + dist(tuple(a_last.children), tuple(b_last.children))
            + relabel_cost(a_last, b_last)
        )
        best = min(delete, insert, match)
        memo[key] = best
        return best

    return dist((tree_a,), (tree_b,))


def zhang_shasha_oracle(tree_a, tree_b, relabel_cost) -> float:
    """Zhang & Shasha's keyroot dynamic program (SIAM J. Comput. 1989) as
    published: one ``treedist`` entry per (A node, B node) pair and one
    forest-distance table per pair of keyroots, in postorder.

    Each cell adds its candidates as the library does (delete, insert, then
    match or ``treedist``), so on texts whose relabel costs are not dyadic
    fractions it reproduces the library's floats only if the library keeps
    that order of additions.
    """

    def postorder(root):
        nodes, lmds = [], []

        def visit(node):
            leaves = [visit(child) for child in node.children]
            nodes.append(node)
            lmds.append(leaves[0] if leaves else len(nodes) - 1)
            return lmds[-1]

        visit(root)
        return nodes, lmds

    def keyroots(lmds):
        # The highest node with each leftmost leaf.
        return sorted({lmd: index for index, lmd in enumerate(lmds)}.values())

    a_nodes, a_lmds = postorder(tree_a)
    b_nodes, b_lmds = postorder(tree_b)
    treedist = [[0.0] * len(b_nodes) for _ in a_nodes]
    for i in keyroots(a_lmds):
        for j in keyroots(b_lmds):
            li, lj = a_lmds[i], b_lmds[j]
            fd = {(li - 1, lj - 1): 0.0}
            for x in range(li, i + 1):
                fd[x, lj - 1] = fd[x - 1, lj - 1] + 1.0
            for y in range(lj, j + 1):
                fd[li - 1, y] = fd[li - 1, y - 1] + 1.0
            for x in range(li, i + 1):
                for y in range(lj, j + 1):
                    best = fd[x - 1, y] + 1.0
                    best = min(best, fd[x, y - 1] + 1.0)
                    if a_lmds[x] == li and b_lmds[y] == lj:
                        best = min(best, fd[x - 1, y - 1] + relabel_cost(a_nodes[x], b_nodes[y]))
                        treedist[x][y] = best
                    else:
                        best = min(best, fd[a_lmds[x] - 1, b_lmds[y] - 1] + treedist[x][y])
                    fd[x, y] = best
    return treedist[-1][-1]


# --- result, chunks, graph and DP-Bench files as dicts -----------------------


def bbox_to_dict(box):
    return {"left": box.left, "top": box.top, "right": box.right, "bottom": box.bottom}


def centers_to_dict(box):
    x, y = box.x_center, box.y_center
    return {"mid_point": {"x": x, "y": y}, "x_center": x, "y_center": y}


def entity_value_to_dict(value):
    out = {"text": value.text}
    if value.title is not None:
        out["title"] = value.title
    if value.summary is not None:
        out["summary"] = value.summary
    if value.data is not None:
        out["data"] = [dict(row) for row in value.data]
    return out


def entity_to_dict(entity):
    out = {
        "id": entity.id,
        "type": entity.type.value,
        "confidence": entity.confidence,
        "value": entity_value_to_dict(entity.value),
        "pixel_coordinates": bbox_to_dict(entity.pixel_coordinates),
        **centers_to_dict(entity.pixel_coordinates),
        "weight": entity.weight,
    }
    if entity.image_payload is not None:
        out["image_payload"] = entity.image_payload
    return out


def group_to_dict(group):
    return {
        "type": group.type.value,
        "ids": list(group.ids),
        "pixel_coordinates": bbox_to_dict(group.pixel_coordinates),
        **centers_to_dict(group.pixel_coordinates),
    }


def page_to_dict(page):
    return {
        "page_number": page.page_number,
        "elements": {eid: entity_to_dict(ent) for eid, ent in page.elements.items()},
        "groups": [group_to_dict(g) for g in page.groups],
        "non_groups": list(page.non_groups),
        "skipped_images": list(page.skipped_images),
    }


def document_to_dict(doc):
    return {
        "filename": doc.filename,
        "total_pages": doc.total_pages,
        "total_processed_pages": doc.total_processed_pages,
        "total_failed_pages": doc.total_failed_pages,
        "total_llm_calls": doc.total_llm_calls,
        "metadata": dict(doc.metadata),
        "document_category": doc.document_category,
        "pages": [page_to_dict(p) for p in doc.pages],
    }


def chunks_to_dicts(doc):
    """One ``{"page_content", "metadata"}`` dict per line of the chunks file:
    page chunks, then header blocks, then element chunks, keeping the first
    of NFKC-equal contents."""
    from docweave.export import _page_header_blocks

    chunks = []
    seen = set()

    def add(content, page_number, kind, element_type=None):
        key = unicodedata.normalize("NFKC", content)
        if not content or key in seen:
            return
        seen.add(key)
        metadata = {"page_number": page_number}
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
        add("\n".join(e.value.text for e in page.elements.values() if e.value.text), page.page_number, "page")
    for page in doc.pages:
        for heading, block in _page_header_blocks(page):
            add(block, page.page_number, "header_block", heading.type.value)
    for page in doc.pages:
        for entity in page.elements.values():
            add(entity.value.text, page.page_number, "element", entity.type.value)
    return chunks


def graph_to_dict(doc):
    """``{"nodes", "edges"}``: root -> pages -> reading-ordered elements, with
    each consecutive element pair joined as siblings (equal weight) or as
    parent (lower weight) and child."""
    nodes = [{"id": "root", "kind": "root", "label": doc.filename}]
    edges = []
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
    return {"nodes": nodes, "edges": edges}


def dpbench_to_dict(doc):
    """``{"filename", "elements"}`` with one element per entity in reading order."""
    from docweave.export import DPBENCH_CATEGORY, _markdown_table, _table_html_content
    from docweave.model import ElementLabel

    out = []
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
    return {"filename": doc.filename, "elements": out}


def indented_json(value):
    """The indented form of every JSON file docweave writes."""
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"
