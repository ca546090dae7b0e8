"""Independent reference implementations used only to check the library.

Each oracle deliberately takes a different algorithmic route than the
production code: the indel oracle goes through an LCS table, the edit
distance oracle is the row-by-row dynamic program, the DBSCAN
oracle recomputes reachability from set definitions, the tree edit oracle
is a memoized recursion over forests instead of the keyroot DP, and the
header/footer oracle scores every entity against every candidate with the
LCS-table distance instead of using a candidate index, the dedupe oracle
tests every pair of entities instead of (type, text) buckets, and the chunk
dedupe oracle compares each chunk with every earlier one instead of keeping a
set of seen contents.
"""

import unicodedata
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


def header_footer_oracle(pages, params, schema, page_heights=None):
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
                        elements[eid] = entity.with_type(target, schema)
                        changed = True
                        break
    return _fix_positions_and_rebuild(pages, current, params, schema, page_heights or {})


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
    """The ``(content, ...)`` candidates ``to_chunks`` keeps: the non-empty
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
