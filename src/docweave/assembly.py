"""Grouping, reading order, dedup, and header/footer correction.

Reading order is uniformly "ascending top, then ascending left" in
top-left-origin pixel space, with entity id as the final tie-break so that
assembly is a pure function of the detection set: permuting the input order
of detections yields a byte-identical page.

Pipeline per page: ``dedupe_page`` -> ``assign_groups`` ->
``order_page_elements``. Across pages, ``correct_headers_footers`` runs once
as a whole-document barrier.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ValidationError
from .geometry import BBox, contains_midpoint, iou
from .ingest import LayoutDetection
from .metrics import indel_distance
from .model import (
    ElementLabel,
    Entity,
    Group,
    GroupType,
    LayoutLabel,
    PageResult,
    _is_int,
    _is_number,
    make_group,
)

logger = logging.getLogger(__name__)

#: DBSCAN label for points that belong to no cluster.
NOISE = -1

#: Labels never pulled into layout groups.
GROUP_EXCLUDED_LABELS = frozenset(
    {ElementLabel.PAGE_HEADER, ElementLabel.PAGE_FOOTER, ElementLabel.TABLE_OF_CONTENT}
)

#: Types whose text never triggers header/footer relabeling.
RELABEL_EXEMPT_LABELS = frozenset(
    {ElementLabel.PAGE_HEADER, ElementLabel.PAGE_FOOTER, ElementLabel.TABLE, ElementLabel.IMAGE}
)

#: Duplicate detections must overlap at least this much (IoU) to be merged.
DUPLICATE_IOU_THRESHOLD = 0.5

#: Fraction of the page height considered "the bottom" by the footer heuristic.
BOTTOM_BAND_FRACTION = 0.2


def _check_types(params, **checks) -> None:
    """Raise ValidationError for a field that fails its type check (bools never
    pass) or is a NaN or infinite float, which no range check can exclude."""
    for name, check in checks.items():
        value = getattr(params, name)
        if not check(value):
            kind = "an integer" if check is _is_int else "a number"
            raise ValidationError(f"{name} must be {kind}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ClusterParams:
    eps: float = 0.3
    min_samples: int = 2

    def __post_init__(self):
        _check_types(self, eps=_is_number, min_samples=_is_int)
        if self.eps <= 0:
            raise ValidationError(f"eps must be > 0, got {self.eps}")
        if self.min_samples < 1:
            raise ValidationError(f"min_samples must be >= 1, got {self.min_samples}")


@dataclass(frozen=True)
class RowOrderParams:
    angle_threshold_degrees: float = 50.0

    def __post_init__(self):
        _check_types(self, angle_threshold_degrees=_is_number)
        if not 0 < self.angle_threshold_degrees <= 90:
            raise ValidationError(
                f"angle threshold must be in (0, 90], got {self.angle_threshold_degrees}"
            )


@dataclass(frozen=True)
class HeaderFooterParams:
    fuzzy_threshold: int = 95  # strict greater-than
    header_top_limit: float = 100.0

    def __post_init__(self):
        _check_types(self, fuzzy_threshold=_is_int, header_top_limit=_is_number)
        if not 0 < self.fuzzy_threshold <= 100:
            raise ValidationError(
                f"fuzzy threshold must be in (0, 100], got {self.fuzzy_threshold}"
            )


@dataclass(frozen=True)
class AssemblyParams:
    cluster: ClusterParams = field(default_factory=ClusterParams)
    row: RowOrderParams = field(default_factory=RowOrderParams)
    header_footer: HeaderFooterParams = field(default_factory=HeaderFooterParams)


def _reading_key(entity: Entity) -> tuple:
    box = entity.pixel_coordinates
    return (box.top, box.left, box.right, box.bottom, entity.id)


def candidate_members(layout_box: BBox, entities: Sequence[Entity]) -> list[Entity]:
    """Entities whose centre lies inside the layout box, minus pinned labels."""
    return [
        e
        for e in entities
        if e.type not in GROUP_EXCLUDED_LABELS
        and contains_midpoint(layout_box, e.pixel_coordinates)
    ]


def minmax_scale(values: Sequence[float]) -> list[float]:
    """Scale to [0, 1]; a constant sequence maps to all zeros."""
    if not values:
        return []
    low, high = min(values), max(values)
    if high == low:
        return [0.0] * len(values)
    return [(v - low) / (high - low) for v in values]


def dbscan(points: Sequence[float], params: ClusterParams) -> list[int]:
    """1-D DBSCAN with deterministic labels.

    A core point has at least ``min_samples`` points (itself included) within
    ``eps``. Clusters are the connected components of the core points,
    numbered by their smallest input index, so cluster numbers follow
    first-seen order. A non-core point within ``eps`` of some core joins the
    smallest-numbered cluster among those cores; any other point gets NOISE.

    Cost is one sort and linear sweeps, O(n log n). In sorted order a point's
    neighbours form a window that two pointers track, a cluster's cores are a
    run of cores whose consecutive gaps are at most ``eps``, and the cores
    within ``eps`` of a border point on either side all belong to the cluster
    of its nearest core on that side. Distances are ``x - y`` on sorted
    values; float subtraction is sign-symmetric and rounds monotonically, so
    every comparison agrees with ``abs(a - b) <= eps`` on the unsorted pair.
    """
    n = len(points)
    eps = params.eps
    order = sorted(range(n), key=points.__getitem__)
    values = [points[i] for i in order]

    core = []
    low = high = 0
    for x in values:
        while x - values[low] > eps:
            low += 1
        while high < n and values[high] - x <= eps:
            high += 1
        core.append(high - low >= params.min_samples)

    # Core components in sorted order, each with its smallest input index.
    component = [NOISE] * n
    first_index: list[int] = []
    previous = None
    for pos in range(n):
        if not core[pos]:
            continue
        if previous is None or values[pos] - values[previous] > eps:
            first_index.append(order[pos])
        elif order[pos] < first_index[-1]:
            first_index[-1] = order[pos]
        component[pos] = len(first_index) - 1
        previous = pos
    number = [0] * len(first_index)
    for rank, c in enumerate(sorted(range(len(first_index)), key=first_index.__getitem__)):
        number[c] = rank

    # Each point takes the smaller number of its nearest cores on both sides.
    labels = [NOISE] * n
    for positions in (range(n), range(n - 1, -1, -1)):
        nearest = None
        for pos in positions:
            if core[pos]:
                nearest = pos
                labels[order[pos]] = number[component[pos]]
            elif nearest is not None and abs(values[pos] - values[nearest]) <= eps:
                label = number[component[nearest]]
                current = labels[order[pos]]
                labels[order[pos]] = label if current == NOISE else min(current, label)
    return labels


def cluster_multi_column(
    members: Sequence[Entity], params: ClusterParams
) -> list[Group]:
    """Cluster a multi-column region into left-to-right column groups.

    x-centers are min-max scaled and clustered with DBSCAN; each cluster
    becomes a ``multi-col`` group ordered top-to-bottom. Noise points become
    singleton groups so no entity is dropped. Groups are emitted left-to-right
    by mean raw x-center (ties by mean top).
    """
    if not members:
        return []
    labels = dbscan(minmax_scale([e.pixel_coordinates.x_center for e in members]), params)
    clustered: dict[int, list[Entity]] = {}
    singletons: list[list[Entity]] = []
    for entity, label in zip(members, labels):
        if label == NOISE:
            singletons.append([entity])
        else:
            clustered.setdefault(label, []).append(entity)

    columns = [sorted(column, key=_reading_key) for column in clustered.values()]
    columns.extend(singletons)
    columns.sort(
        key=lambda column: (
            sum(e.pixel_coordinates.x_center for e in column) / len(column),
            sum(e.pixel_coordinates.top for e in column) / len(column),
            column[0].id,
        )
    )
    return [make_group(GroupType.MULTI_COLUMN, column) for column in columns]


def line_angle(a: BBox, b: BBox) -> float:
    """Absolute angle of the segment between the box centres against the
    horizontal, in [0, 90]."""
    dx = abs(b.x_center - a.x_center)
    dy = abs(b.y_center - a.y_center)
    if dx == 0 and dy == 0:
        return 0.0
    return math.degrees(math.atan2(dy, dx))


def order_row_group(members: Sequence[Entity], params: RowOrderParams) -> Group:
    """Order a row region left-to-right, fixing vertically stacked neighbors.

    Members are sorted by (x_center, top); one left-to-right pass then checks
    each adjacent pair: when the angle between their centres reaches the
    threshold the pair is vertically related rather than side by side, so the
    upper element (smaller top) is placed first.
    """
    ordered = sorted(
        members, key=lambda e: (e.pixel_coordinates.x_center, e.pixel_coordinates.top, e.id)
    )
    for i in range(len(ordered) - 1):
        a, b = ordered[i], ordered[i + 1]
        if (
            line_angle(a.pixel_coordinates, b.pixel_coordinates) >= params.angle_threshold_degrees
            and b.pixel_coordinates.top < a.pixel_coordinates.top
        ):
            ordered[i], ordered[i + 1] = b, a
    return make_group(GroupType.ROW, ordered)


def order_generic_group(members: Sequence[Entity]) -> Group:
    """Order a generic region top-to-bottom (ties left-to-right)."""
    return make_group(GroupType.GENERIC, sorted(members, key=_reading_key))


def assign_groups(
    layout_detections: Sequence[LayoutDetection],
    entities: Sequence[Entity],
    params: AssemblyParams,
) -> list[Group]:
    """Assign entities to layout regions; each entity joins at most one group.

    Regions claim entities in descending confidence order (ties by descending
    area, then the box edges and the label) so the strongest region wins
    overlaps. Only identical regions tie on the whole key, and they claim
    alike, so the input order does not matter. Entities left unclaimed,
    including the labels excluded from grouping, join no group.
    """
    regions = sorted(
        layout_detections,
        key=lambda d: (
            -d.confidence,
            -d.bbox.area,
            d.bbox.top,
            d.bbox.left,
            d.bbox.right,
            d.bbox.bottom,
            d.label,
        ),
    )
    claimed: set[str] = set()
    groups: list[Group] = []
    for region in regions:
        candidates = [
            e for e in candidate_members(region.bbox, entities) if e.id not in claimed
        ]
        if not candidates:
            continue
        if region.label is LayoutLabel.MULTI_COLUMN:
            region_groups = cluster_multi_column(candidates, params.cluster)
        elif region.label is LayoutLabel.ROW_GROUP:
            region_groups = [order_row_group(candidates, params.row)]
        else:
            region_groups = [order_generic_group(candidates)]
        groups.extend(region_groups)
        claimed.update(eid for group in region_groups for eid in group.ids)
    return groups


def dedupe_page(entities: Sequence[Entity]) -> list[Entity]:
    """Remove duplicate detections, keeping the higher-confidence entity.

    Two entities are duplicates when they share a type, have identical
    normalized text, and overlap with IoU above 0.5; the IoU gate keeps
    legitimately repeated strings apart. Duplicate sets are the connected
    components of that relation; ties on confidence keep the smallest id.
    Survivors preserve the input order.

    Entities are bucketed by ``(type, text)`` and IoU is computed only for
    pairs inside a bucket, so the cost is linear in the page plus the pairs
    that share a type and text. An entity alone in its bucket duplicates
    nothing and survives, so union-find runs over the shared buckets only.
    """
    entities = list(entities)
    buckets: dict[tuple, list[Entity]] = {}
    for entity in entities:
        buckets.setdefault((entity.type, entity.value.text), []).append(entity)
    shared = [bucket for bucket in buckets.values() if len(bucket) > 1]
    parent = {e.id: e.id for bucket in shared for e in bucket}

    def find(eid: str) -> str:
        while parent[eid] != eid:
            parent[eid] = parent[parent[eid]]
            eid = parent[eid]
        return eid

    for bucket in shared:
        for i, a in enumerate(bucket):
            for b in bucket[i + 1 :]:
                if iou(a.pixel_coordinates, b.pixel_coordinates) > DUPLICATE_IOU_THRESHOLD:
                    parent[find(a.id)] = find(b.id)

    # Components in page order of their first member, as the drop log reads.
    components: dict[str, list[Entity]] = {}
    for entity in entities:
        if entity.id in parent:
            components.setdefault(find(entity.id), []).append(entity)
    dropped_ids: set[str] = set()
    for members in components.values():
        survivor = min(members, key=lambda e: (-e.confidence, e.id))
        for dropped in members:
            if dropped.id != survivor.id:
                dropped_ids.add(dropped.id)
                logger.info(
                    "dropping duplicate %s %r (confidence %.3f) in favor of %s",
                    dropped.type.value,
                    dropped.id,
                    dropped.confidence,
                    survivor.id,
                )
    return [e for e in entities if e.id not in dropped_ids]


def order_page_elements(groups: Sequence[Group], members: Mapping[str, Entity]) -> dict[str, Entity]:
    """Merge groups and loose entities into one reading-ordered element map.

    The loose entities are the ``members`` in no group. Each group is one
    block keyed by its bbox top; each loose entity is its own block. Blocks
    sort by (top, left); groups expand in their internal order. Page headers
    always come first and page footers last regardless of their detected
    position. Every sort key ends in an id, so the order of ``members`` does
    not matter.
    """
    grouped = {eid for group in groups for eid in group.ids}
    loose = [e for e in members.values() if e.id not in grouped]
    headers = [e for e in loose if e.type is ElementLabel.PAGE_HEADER]
    footers = [e for e in loose if e.type is ElementLabel.PAGE_FOOTER]
    middle = [
        e for e in loose if e.type not in (ElementLabel.PAGE_HEADER, ElementLabel.PAGE_FOOTER)
    ]

    blocks: list[tuple[tuple, list[Entity]]] = []
    for group in groups:
        box = group.pixel_coordinates
        blocks.append(((box.top, box.left, group.ids[0]), [members[i] for i in group.ids]))
    for entity in middle:
        box = entity.pixel_coordinates
        blocks.append(((box.top, box.left, entity.id), [entity]))
    blocks.sort(key=lambda block: block[0])

    sequence = sorted(headers, key=_reading_key)
    for _, block_members in blocks:
        sequence.extend(block_members)
    sequence.extend(sorted(footers, key=_reading_key))
    return {e.id: e for e in sequence}


def assemble_page(
    page_number: int,
    layout_detections: Sequence[LayoutDetection],
    entities: Sequence[Entity],
    params: AssemblyParams,
    skipped_image_ids: Sequence[str] = (),
) -> PageResult:
    """Assemble one page: dedupe, group, and order already gated entities."""
    survivors = sorted(dedupe_page(entities), key=_reading_key)
    groups = assign_groups(layout_detections, survivors, params)
    return PageResult(
        page_number=page_number,
        elements=order_page_elements(groups, {e.id: e for e in survivors}),
        groups=tuple(groups),
        skipped_images=tuple(sorted(skipped_image_ids)),
    )


def fuzzy_ratio(a: str, b: str) -> int:
    """Similarity ratio in [0, 100] based on the indel distance."""
    total = len(a) + len(b)
    if total == 0:
        return 100
    return _ratio(indel_distance(a, b), total)


def _ratio(distance: int, total: int) -> int:
    return round(100 * (1 - distance / total))


def _page_height(page: PageResult, explicit: Optional[float]) -> float:
    if explicit is not None:
        return explicit
    bottoms = [e.pixel_coordinates.bottom for e in page.elements.values()]
    return max(bottoms) if bottoms else 0.0


def _rebuild_page(page: PageResult, elements: Mapping[str, Entity]) -> PageResult:
    """Re-derive groups and reading order from the page's relabeled ``elements``,
    which hold the same ids as ``page.elements``.

    Entities relabeled to page_header/page_footer leave their groups (those
    labels never group); shrunken groups get recomputed bounding boxes and
    empty groups disappear.
    """
    groups: list[Group] = []
    for group in page.groups:
        remaining = [
            elements[eid]
            for eid in group.ids
            if elements[eid].type not in GROUP_EXCLUDED_LABELS
        ]
        if remaining:
            groups.append(make_group(group.type, remaining))
    return PageResult(
        page_number=page.page_number,
        elements=order_page_elements(groups, elements),
        groups=tuple(groups),
        skipped_images=page.skipped_images,
    )


#: Candidate texts of one label: ``{length: {text: source pages}}``.
_Index = dict[int, dict[str, set[int]]]

#: Relabel targets, in order of precedence.
_TARGETS = (ElementLabel.PAGE_HEADER, ElementLabel.PAGE_FOOTER)


def _candidate_index(
    pages: Sequence[PageResult], current: Sequence[Mapping[str, Entity]]
) -> dict[ElementLabel, _Index]:
    """Index header and footer texts by label, then length, then text."""
    index: dict[ElementLabel, _Index] = {target: {} for target in _TARGETS}
    for page, elements in zip(pages, current):
        for entity in elements.values():
            text = entity.value.text
            if entity.type in index and text:
                _add_source(index[entity.type], text, page.page_number)
    return index


def _add_source(index: _Index, text: str, page_number: int) -> bool:
    """Record that ``text`` comes from ``page_number``; whether that can turn
    a failed match into a hit: the text is new, or it came from exactly one
    other page, whose entities could not match it before."""
    by_text = index.setdefault(len(text), {})
    sources = by_text.get(text)
    if sources is None:
        by_text[text] = {page_number}
        return True
    effective = len(sources) == 1 and page_number not in sources
    sources.add(page_number)
    return effective


@lru_cache(maxsize=4096)
def _distance_bound(total: int, threshold: int) -> int:
    """k(T): the largest indel distance d with ``_ratio(d, total)`` above
    ``threshold`` (-1 if none); the ratio only falls as d grows, to 0 at T."""
    return next(d for d in range(total + 1) if _ratio(d, total) <= threshold) - 1


def _window_holds(lengths: Sequence[int], n: int, threshold: int) -> bool:
    """Whether any of the sorted ``lengths`` lies in the window of ``n``, the
    lengths whose gap to ``n`` is at most ``_distance_bound`` of their sum. A
    step away from ``n`` adds 1 to the gap and at most 1 to the bound, so the
    nearest length on each side decides."""
    i = bisect_left(lengths, n)
    window = lengths[max(i - 1, 0) : i + 1]
    return any(abs(n - length) <= _distance_bound(n + length, threshold) for length in window)


class _Candidates:
    """One label's candidate index as it stands at the start of a pass, with
    its sorted lengths and, built on first use per (length, k), the map from
    each segment of a candidate's k + 1 segments to the candidates."""

    __slots__ = ("by_length", "lengths", "_segments")

    def __init__(self, by_length: _Index):
        self.by_length = by_length
        self.lengths = sorted(by_length)
        self._segments: dict[tuple[int, int], list[tuple[int, int, dict[str, list[str]]]]] = {}

    def near(self, text: str, length: int, k: int) -> Iterable[str]:
        """The candidates of ``length`` that keep one of their k + 1 segments,
        cut at ``i * length // (k + 1)``, in ``text`` at a shift the position
        bound of Pass-Join (Li, Deng, Wang & Feng, PVLDB 5(3), 2011) allows: a
        superset of those within Levenshtein distance ``k``. The whole bucket
        is returned if a segment would be shorter than two characters, or once
        every candidate has been hit."""
        by_text = self.by_length[length]
        if length < 2 * (k + 1):
            return by_text
        segments = self._segments.get((length, k))
        if segments is None:
            cuts = [i * length // (k + 1) for i in range(k + 2)]
            segments = self._segments[length, k] = [(lo, hi, {}) for lo, hi in zip(cuts, cuts[1:])]
            for candidate in by_text:
                for start, end, index in segments:
                    index.setdefault(candidate[start:end], []).append(candidate)
        delta = len(text) - length
        hits: dict[str, None] = {}
        for i, (start, end, index) in enumerate(segments):
            for shift in range(max(-i, delta - (k - i)), min(i, delta + (k - i)) + 1):
                found = index.get(text[start + shift : end + shift])
                if found:
                    hits.update(dict.fromkeys(found))
                    if len(hits) == len(by_text):
                        return by_text
        return hits


def _has_match(candidates: _Candidates, text: str, page_number: int, threshold: int) -> bool:
    """Whether a candidate from another page matches ``text`` above ``threshold``.

    A candidate of length L needs an indel distance, at least the length gap,
    of at most k(T) with T = ``len(text) + L``. The walk visits lengths
    outward from ``len(text)`` and stops each direction at the first gap
    above k(T). Within a length it confirms with ``fuzzy_ratio`` only the
    candidates from another page that ``_Candidates.near`` returns: an indel
    distance of at most k is a Levenshtein distance of at most k, and k edits
    leave one of k + 1 segments intact at a shift the position bound allows.
    """
    n = len(text)
    lengths = candidates.lengths
    start = bisect_left(lengths, n)
    for side in (range(start, len(lengths)), range(start - 1, -1, -1)):
        for i in side:
            length = lengths[i]
            k = _distance_bound(n + length, threshold)
            if abs(n - length) > k:
                break
            by_text = candidates.by_length[length]
            for candidate in candidates.near(text, length, k):
                sources = by_text[candidate]
                if (len(sources) > 1 or page_number not in sources) and fuzzy_ratio(
                    text, candidate
                ) > threshold:
                    return True
    return False


def correct_headers_footers(
    pages: Sequence[PageResult],
    params: HeaderFooterParams,
    page_heights: Optional[Mapping[int, float]] = None,
) -> list[PageResult]:
    """Propagate header/footer labels across pages and fix swapped positions.

    Candidate strings come from entities already labeled page_header or
    page_footer. Any other text-bearing entity whose text fuzzy-matches a
    candidate from a different page (ratio strictly above the threshold) is
    relabeled, header candidates taking precedence. Relabeling repeats until
    stable so the whole pass is idempotent. The result equals comparing
    every entity with every candidate present at the start of each pass.

    The candidates are indexed by label, then text length, then text, with
    the set of pages each text comes from. An entity is compared only with
    candidates inside its length window, the lengths whose gap to its own
    still allows a ratio above the threshold, and within a length only with
    the candidates ``_Candidates.near`` lets through. Each pass first finds,
    per label, the entity lengths whose window holds any candidate length;
    other entities cost one set lookup.

    Candidate sets only grow, so an entity that failed to match can match in
    a later pass only through an effective change of the previous pass: a
    relabel whose text was new to its label, or whose text had come from
    exactly one other page. From the second pass on only entities whose
    window holds the length of such a change are checked again, and the
    passes stop once a pass makes none. With no candidate text at all there
    is no pass.

    Bounds: a pass's segment maps hold k + 1 entries per distinct candidate
    and (length, k) in use. The filter only helps where candidates differ in
    the segments a query keeps: bodies that begin with the footers' shared
    prefix still compare every candidate, and windows whose segments would be
    shorter than two characters (low thresholds) are scanned.

    A position heuristic then swaps entities whose label contradicts their
    placement: a "header" that starts below the top limit and sits in the
    bottom band of the page becomes a footer, and a "footer" that starts
    inside the top limit becomes a header. Reading order is re-derived for
    every page that changed.
    """
    pages = list(pages)
    current: list[dict[str, Entity]] = [dict(p.elements) for p in pages]
    threshold = params.fuzzy_threshold
    index = _candidate_index(pages, current)
    pending = [
        (page.page_number, elements, eid, entity)
        for page, elements in zip(pages, current)
        for eid, entity in elements.items()
        if entity.type not in RELABEL_EXEMPT_LABELS and entity.value.text
    ] if any(index.values()) else []
    changed: Optional[list[int]] = None  # lengths of the last pass's effective changes

    while pending:
        lengths = {len(entity.value.text) for *_, entity in pending}
        if changed is not None:
            lengths = {n for n in lengths if _window_holds(changed, n, threshold)}
        candidates = {label: _Candidates(by_length) for label, by_length in index.items()}
        admissible = {
            label: {n for n in lengths if _window_holds(c.lengths, n, threshold)}
            for label, c in candidates.items()
        }
        relabels = []
        unmatched = []
        for item in pending:
            page_number, elements, eid, entity = item
            text = entity.value.text
            for target in _TARGETS:
                if len(text) in admissible[target] and _has_match(
                    candidates[target], text, page_number, threshold
                ):
                    elements[eid] = replace(entity, type=target)
                    relabels.append((target, text, page_number))
                    break
            else:
                unmatched.append(item)
        changed = sorted(
            {len(text) for target, text, number in relabels if _add_source(index[target], text, number)}
        )
        pending = unmatched if changed else []
    return _fix_positions_and_rebuild(pages, current, params, page_heights or {})


def _fix_positions_and_rebuild(
    pages: Sequence[PageResult],
    current: Sequence[dict[str, Entity]],
    params: HeaderFooterParams,
    page_heights: Mapping[int, float],
) -> list[PageResult]:
    """Swap headers/footers the detector placed on the wrong end of the page,
    then rebuild each page whose entities differ from the original."""
    for page, elements in zip(pages, current):
        height = _page_height(page, page_heights.get(page.page_number))
        if height <= 0:
            continue
        bottom_band = (1 - BOTTOM_BAND_FRACTION) * height
        for eid, entity in elements.items():
            top = entity.pixel_coordinates.top
            if (
                entity.type is ElementLabel.PAGE_HEADER
                and top > params.header_top_limit
                and entity.pixel_coordinates.y_center >= bottom_band
            ):
                elements[eid] = replace(entity, type=ElementLabel.PAGE_FOOTER)
            elif (
                entity.type is ElementLabel.PAGE_FOOTER
                and top <= params.header_top_limit
                and entity.pixel_coordinates.y_center < bottom_band
            ):
                elements[eid] = replace(entity, type=ElementLabel.PAGE_HEADER)

    return [
        _rebuild_page(page, elements)
        if any(entity is not page.elements[eid] for eid, entity in elements.items())
        else page
        for page, elements in zip(pages, current)
    ]
