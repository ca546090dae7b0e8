"""Reading-order and table-structure metrics plus the evaluation harness.

NID scores serialized reading order with a character-level insert/delete
distance, computed exactly from a bit-parallel longest common subsequence
(a few big-int operations per character of one string). TEDS and TEDS-S
score tables as ordered labeled trees under a tree edit distance computed
from Zhang-Shasha forest-distance tables (Zhang & Shasha 1989), filled on
demand; the cost model (Zhong et al. 2020) charges 1 for insert/delete, 1
for tag or span mismatches, and a normalized character edit distance between
cell texts for matching ``td`` nodes. TEDS-S runs the same comparison with
cell texts left out of every label.

Each node of a table tree gets a shape id: equal ids mean equal labelled
subtrees (tag, spans, cell text and children's shapes, in order). The
``treedist`` table of subtree distances and the relabel costs are indexed by
(A shape, B shape), so repeated rows and repeated cell texts are compared
once. This is exact: an entry's float comes from the two labelled subtrees
alone, by the same additions in the same order. Without cell texts, the rows
of a regular table share one shape.

Only the tables a result needs are filled, the idea of Pawlik & Augsten
(Information Systems 56, 2016), here without changing one floating-point
addition. ``ted(i, j)`` runs the Zhang-Shasha recurrence over subtree(i) x
subtree(j): the same three candidates, the same additions and the same
strict ``<``. It records ``treedist`` wherever a row and a column both share
the table's leftmost leaf, as the keyroot loop does. A cell that needs an
entry no table has recorded first adds the two subtrees' size difference to
the forest distance before them, and calls ``ted`` for the pair only if that
sum is below the cell's best candidate so far. The floats are those of the
full keyroot decomposition. The table of (i, j) is the corner of the
keyroot table above them, built by the same additions. Every forest distance
is at least its integer size difference, since each of its candidate sums
holds that many unit costs, integers add exactly and rounding is monotone.
So a skipped candidate could never have been strictly below the best, and
the best keeps its bits.

The root table, of A's postorder prefixes against B's, is filled only in a
band around its diagonal: Ukkonen's cut-off (Information and Control 64,
1985) on the Zhang-Shasha root table. The band's width comes from U, the
cost of one valid ordered mapping (``_mapping_cost``), top-down as in Selkow
(IPL 6, 1977): the roots are matched, a row's cells are matched by position,
and rows or sections are aligned by an insert/delete/match program whose
match cost is this same bound, over the cells |i - j| <= |R_A - R_B| + 2 of
R_A against R_B children only (any alignment is a valid mapping). Row r (an
A prefix of r nodes) computes only the columns c (B prefixes) with L(r, c) =
|r - c| + |(|A| - r) - (|B| - c)| <= limit = floor(U * (1 + (|A| + |B|) *
2**-50)), a contiguous range; every other cell is infinite. An infinite
forest distance also fails the size-bound test, so no out-of-band pair of
subtrees calls ``ted``. Only the root table is banded, and it keeps only the
rows a later row reads, those before a node's leftmost leaf.

The band changes no bit of the result. L(r, c) is an integer lower bound on
the cost of any path through cell (r, c): the forest distance to the cell is
at least |r - c|, and each later step (a unit cost, a relabel of two single
nodes, or a subtree distance) adds at least its own size difference, which
sum to at least |(|A| - r) - (|B| - c)|. Integers add exactly and rounding is
monotone, so the float sums keep that bound, and every cell on the trace of
the unbanded table's final value has L no larger than that value. That value
is at most U * (1 + 2.2 * n * 2**-53), n = |A| + |B|: it and U are float sums
of at most n costs in [0, 1], the table's value is at most its own float sum
of the costs of U's mapping (rounding is monotone), and a float sum of n
non-negative terms is within a factor 1 +- (n - 1) * 2**-53 * 1.01 of the
real sum in any order of additions (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, section 4.2). The margin n * 2**-50 covers that
and the rounding of the product for any n below 2**40. So every trace cell
lies in the band and is computed from the same exact candidates, while any
other candidate of a cell is at least its true value: the final value keeps
its bits. An in-band cell can still be larger than its true value, so the
banded table records no ``treedist`` entry.

When U is ||A| - |B||, the table's own lower bound, no table is filled and U
is returned, where that is exact. If every relabel cost is 0 or 1 (always
for TEDS-S, and for TEDS when no span key has cells with text on both
sides), every sum is an integer added exactly, so the table's value, at
least ||A| - |B|| and at most U, is U. If U is 0, every term of its float
sum is 0, so the table's value, a minimum of non-negative sums one of which
adds those zeros, is 0.0 too. With text costs a float U could round, so the
exit then waits for U = 0. It takes ``teds_s`` of a table against a copy
with rows inserted or deleted, and any table against an equal one.

Relabel costs are computed on first read: the B cells with text of one span
key and a similar length are packed 128 to a chunk as the lanes of one
:class:`_Lanes`, padded to one width (1-2, 3-6, 7-14, ... bytes), which gives
an A cell's text distances to the whole chunk in one bit-parallel pass. Every
other cost is known from the labels: one shared row per kind of label. Two
leaves are at distance min(2, 2, relabel), so each A leaf's ``treedist`` row
starts as a copy of its kind's row, with ``None`` where texts meet until
that chunk is read; every other entry starts as ``None``.

On a pair of ``perfbench``'s ``eval`` inputs (a 10x10 table of 1-word cells
against a copy with one row deleted and a fifth of its cells reworded), U is
the distance, 25.6; ``teds`` fills 4,843 table cells (24,498 unbanded, 76,242
in the keyroot loop): 2,544 of the 111x100 root table and 39 tables below.
``teds_s`` fills none (U = 11). Calls of ``ted`` nest at most depth(A) +
depth(B) deep, 8 for parsed tables (table, section, row, cell).

With few edits, a call takes time about linear in cells times U: the band is
about U wide, and each A cell reads the relabel costs of a chunk or two, for
its band and for the rows the mapping aligns with its own. Edits that grow
with the table, as between unrelated tables, keep it quadratic: U grows with
the table, and every chunk is read. ``treedist`` still holds one pointer per
(A shape, B shape) pair; the relabel costs hold only the chunks read. The
README gives timings. ``evaluate`` sets no size limit.

``evaluate`` reads and checks each DP-Bench file once, into
:class:`DPBenchElement` records; NID, table matching by ``geometry.iou`` and
TEDS read only record fields.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from html.parser import HTMLParser
from itertools import accumulate
from math import floor, inf
from operator import add
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import EvaluationError, TableParseError
from .geometry import BBox, iou
from .model import _is_int, read_json_object

logger = logging.getLogger(__name__)

#: Categories excluded from reading-order serialization.
NID_EXCLUDED_CATEGORIES = frozenset({"Table", "Figure", "Chart"})


# ---------------------------------------------------------------------------
# String distances
# ---------------------------------------------------------------------------


def _shared_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix of ``a`` and ``b``, found by halving
    the undecided span: each step compares one pair of slices in C."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def indel_distance(a: str, b: str) -> int:
    """Minimum number of character insertions+deletions turning ``a`` into ``b``."""
    # Shared prefix/suffix contributes nothing; strip it first. Checking the
    # end characters first lets pairs that differ there skip the halving.
    if a and b and a[0] == b[0]:
        p = _shared_prefix(a, b)
        a, b = a[p:], b[p:]
    if a and b and a[-1] == b[-1]:
        s = _shared_prefix(a[::-1], b[::-1])
        a, b = a[: len(a) - s], b[: len(b) - s]

    # Bit-vector LCS (Allison & Dix 1986; Hyyrö 2004): after reading b[:j],
    # bit i of ``v`` is 0 exactly where LCS(a[:i + 1], b[:j]) exceeds
    # LCS(a[:i], b[:j]), so each character of ``b`` costs a few big-int
    # operations instead of a row of len(a) Python steps.
    masks: dict[str, int] = {}
    for i, ch in enumerate(a):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for ch in b:
        u = v & masks.get(ch, 0)
        v = (v + u) | (v - u)
    lcs = len(a) - (v & full).bit_count()
    return len(a) + len(b) - 2 * lcs


def nid(reference: str, prediction: str) -> float:
    """Normalized indel distance similarity in [0, 1]; two empty strings score 1."""
    total = len(reference) + len(prediction)
    if total == 0:
        return 1.0
    return 1.0 - indel_distance(reference, prediction) / total


#: Bits set in each byte value, as a ``bytes.translate`` table.
_POPCOUNT = bytes(bin(value).count("1") for value in range(256))


class _Lanes:
    """Edit distances from one text to many, all in one bit-parallel pass.

    Each text is packed as one lane of a single int: every lane spans the
    same whole number of bytes, ``width``, holds its text's bits from its
    first bit on, and is followed by zero guard bits (at least one), which
    absorb the carry of the addition and the top bit of each shift, so no
    lane reads its neighbour (Hyyrö, Fredriksson & Navarro 2005).
    ``distances(a)`` then runs Myers' recurrence (Myers 1999, in Hyyrö 2003's
    form for global distance) once over the characters of ``a``: bit i of
    lane k in ``pv``/``mv`` is set where the DP column of ``text_k`` steps
    by +1/-1 from row i to row i + 1. Each character of ``a`` costs a few
    big-int operations, whatever the number and length of the texts; the
    lanes are read out by a byte-wise popcount per vector, a few big-int
    additions that total each segment of at most 15 bytes in its first byte,
    and one addition per further segment of a lane.
    """

    __slots__ = ("peq", "lanes", "low", "size", "width", "segment", "eights")

    def __init__(self, texts: Sequence[str]):
        self.peq: dict[str, int] = {}
        self.lanes = self.low = 0
        need = max(map(len, texts), default=0) // 8 + 1
        parts = -(-need // 15)
        self.segment = -(-need // parts)
        self.width = parts * self.segment
        for k, text in enumerate(texts):
            offset = 8 * self.width * k
            for i, ch in enumerate(text, offset):
                self.peq[ch] = self.peq.get(ch, 0) | (1 << i)
            if text:
                self.low |= 1 << offset
            self.lanes |= (1 << (offset + len(text))) - (1 << offset)
        self.size = self.width * len(texts)
        self.eights = int.from_bytes(b"\x08" * self.size, "little")

    def distances(self, a: str) -> list[int]:
        """Edit distance from ``a`` to each packed text, in packing order."""
        peq, lanes, low = self.peq, self.lanes, self.low
        pv, mv = lanes, 0
        for ch in a:
            eq = peq.get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ((xh | pv) ^ lanes)
            mh = pv & xh
            # Row 0 of a lane, its text's empty prefix, is the edit distance
            # to a's prefix, which grows by 1 per character: ``low`` carries
            # that +1 into the bottom bit of every non-empty lane.
            ph = ((ph << 1) & lanes) | low
            mh = (mh << 1) & lanes
            pv = mh | ((xv | ph) ^ lanes)
            mv = ph & xv
        # A lane's distance is row 0's len(a) plus the lane's vertical deltas.
        # Per byte, 8 plus its +1 steps minus its -1 steps is in 0..16, so the
        # subtraction borrows nothing and a sum of 15 bytes carries nothing: a
        # segment's first byte totals the segment, and segments add as ints.
        size, width, segment = self.size, self.width, self.segment
        plus = int.from_bytes(pv.to_bytes(size, "little").translate(_POPCOUNT), "little")
        minus = int.from_bytes(mv.to_bytes(size, "little").translate(_POPCOUNT), "little")
        deltas = total = plus + self.eights - minus
        for shift in range(8, 8 * segment, 8):
            total += deltas >> shift
        firsts = total.to_bytes(size, "little")[::segment]
        parts = width // segment
        totals = firsts[::parts]
        for part in range(1, parts):
            totals = list(map(add, totals, firsts[part::parts]))
        base = len(a) - 8 * width
        return [base + d for d in totals]


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance with substitutions: one lane of :class:`_Lanes`."""
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    return _Lanes((a,)).distances(b)[0]


# ---------------------------------------------------------------------------
# Table trees
# ---------------------------------------------------------------------------


@dataclass
class TableNode:
    """Node of a rooted, ordered table tree; text is non-empty only on cells."""

    tag: str
    text: str = ""
    colspan: int = 1
    rowspan: int = 1
    children: list["TableNode"] = field(default_factory=list)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def blanked(self) -> "TableNode":
        """Copy with all cell texts removed (spans retained) for TEDS-S."""
        return TableNode(
            tag=self.tag,
            text="",
            colspan=self.colspan,
            rowspan=self.rowspan,
            children=[child.blanked() for child in self.children],
        )


_SECTION_TAGS = {"thead", "tbody", "tfoot"}
_CELL_TAGS = {"td", "th"}
#: Tags inside a cell that separate the texts around them by a space; a nested
#: table's structural tags do too.
_WORD_BREAK_TAGS = {"br", "p", "div", "li", "ul", "ol"}
_NESTED_BREAK_TAGS = {"table", "tr", "td", "th"} | _WORD_BREAK_TAGS


def _parse_span(attrs: dict[str, Optional[str]], name: str) -> int:
    raw = attrs.get(name)
    if raw is None:
        return 1
    try:
        value = int(str(raw).strip())
    except ValueError:
        logger.warning("unparseable %s=%r, defaulting to 1", name, raw)
        return 1
    if value < 1:
        logger.warning("non-positive %s=%r, defaulting to 1", name, raw)
        return 1
    return value


class _TableHtmlParser(HTMLParser):
    """Builds a TableNode tree from the first <table> element.

    Only table/thead/tbody/tfoot/tr/td(th) become nodes; other markup inside
    cells contributes text only, with line-break and block tags separating
    words and inline tags (``b``, ``span``) not. A table nested in a cell
    contributes text only too: its rows and cells separate their texts by a
    space, and its ``</table>`` closes only itself. Unclosed rows and cells
    are repaired by closing them at the next structural boundary.
    """

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root: Optional[TableNode] = None
        self.section: Optional[TableNode] = None
        self.row: Optional[TableNode] = None
        self.cell: Optional[TableNode] = None
        self.cell_parts: list[str] = []
        self.nested = 0  # tables open inside the first one
        self.done = False

    def _close_cell(self):
        if self.cell is not None:
            self.cell.text = " ".join("".join(self.cell_parts).split())
            self.cell = None
            self.cell_parts = []

    def _close_row(self):
        self._close_cell()
        self.row = None

    def _close_section(self):
        self._close_row()
        self.section = None

    def handle_starttag(self, tag, attrs):
        if self.done:
            return
        if self.root is None:
            if tag == "table":
                self.root = TableNode("table")
            return
        if tag == "table":
            self.nested += 1
        if tag in (_NESTED_BREAK_TAGS if self.nested else _WORD_BREAK_TAGS):
            self.handle_data(" ")
        if self.nested:
            return
        if tag in _SECTION_TAGS:
            self._close_section()
            self.section = TableNode(tag)
            self.root.children.append(self.section)
        elif tag == "tr":
            self._close_row()
            parent = self.section if self.section is not None else self.root
            self.row = TableNode("tr")
            parent.children.append(self.row)
        elif tag in _CELL_TAGS:
            self._close_cell()
            if self.row is None:
                parent = self.section if self.section is not None else self.root
                self.row = TableNode("tr")
                parent.children.append(self.row)
            attr_map = dict(attrs)
            self.cell = TableNode(
                "td",
                colspan=_parse_span(attr_map, "colspan"),
                rowspan=_parse_span(attr_map, "rowspan"),
            )
            self.row.children.append(self.cell)

    def handle_endtag(self, tag):
        if self.done or self.root is None:
            return
        if tag in (_NESTED_BREAK_TAGS if self.nested else _WORD_BREAK_TAGS):
            self.handle_data(" ")
        if self.nested:
            if tag == "table":
                self.nested -= 1
        elif tag in _CELL_TAGS:
            self._close_cell()
        elif tag == "tr":
            self._close_row()
        elif tag in _SECTION_TAGS:
            self._close_section()
        elif tag == "table":
            self._close_section()
            self.done = True

    def handle_data(self, data):
        if self.done:
            return
        if self.cell is not None:
            self.cell_parts.append(data)

    def finish(self) -> TableNode:
        self.close()
        if self.root is None:
            raise TableParseError("no table found")
        self._close_section()
        return self.root


def parse_table_html(html: str) -> TableNode:
    """Parse table HTML into a TableNode tree rooted at ``table``."""
    parser = _TableHtmlParser()
    parser.feed(html)
    return parser.finish()


# ---------------------------------------------------------------------------
# Tree edit distance (Zhang-Shasha) and TEDS
# ---------------------------------------------------------------------------


def relabel_cost(a: TableNode, b: TableNode) -> float:
    """TEDS relabel cost of one pair: the distance between the two nodes
    alone, min(2, 2, relabel). 1 for a tag or span mismatch; for two ``td``
    cells, 0 when both are empty and otherwise their text edit distance over
    the longer length; 0 for two equal nodes of any other tag.
    """
    return tree_edit_distance(TableNode(a.tag, a.text, a.colspan, a.rowspan),
                              TableNode(b.tag, b.text, b.colspan, b.rowspan))


#: B text cells of one span key packed into one :class:`_Lanes`, at most.
_CHUNK = 128


def _relabel_costs(a_labels: list[tuple], a_kids: list[tuple], b_labels: list[tuple], b_kids: list[tuple]):
    """``treedist``'s first rows, indexed by (A shape, B shape); ``relabel(x,
    y)``, the relabel cost of A shape x to B shape y; and whether every such
    cost is 0 or 1. Costs of two texts are computed a chunk at a time on
    first read, as the module docstring describes; B cells with children
    are chunked apart.
    """
    size = len(b_labels)
    free, cells = {}, {}  # per span key, the B shapes without text and with text
    chunks, open_chunks = [], {}  # each chunk: B shapes, texts, lengths, whether leaves
    chunk_of, slot_of = [0] * size, [0] * size
    for y, ((tag, colspan, rowspan, text), (children, _, _)) in enumerate(zip(b_labels, b_kids)):
        key = (tag, colspan, rowspan)
        (cells if text else free).setdefault(key, []).append(y)
        if not text:
            continue
        # A chunk pads every lane to its longest, so lanes of 1-2, 3-6, 7-14, ... bytes apart.
        group = (key, not children, (len(text) // 8 + 2).bit_length())
        k = open_chunks.get(group)
        if k is None or len(chunks[k][0]) == _CHUNK:
            k = open_chunks[group] = len(chunks)
            chunks.append(([], [], [], not children))
        ys, texts, lengths, _ = chunks[k]
        chunk_of[y], slot_of[y] = k, len(ys)
        ys.append(y)
        texts.append(text)
        lengths.append(len(text))

    b_leaves = [not kids[0] for kids in b_kids]
    templates: dict[tuple, tuple[list, list]] = {}
    costs, treedist, integral = [], [], True
    for (tag, colspan, rowspan, text), (children, _, _) in zip(a_labels, a_kids):
        key = (tag, colspan, rowspan)
        pair = templates.get((key, text == ""))
        if pair is None:
            row = [1.0] * size
            for y in (cells if text else free).get(key, ()):
                row[y] = None if text else 0.0
            pair = templates[key, text == ""] = row, [c if leaf else None for c, leaf in zip(row, b_leaves)]
        if text and key in cells:
            integral = False
        costs.append(pair[0])
        treedist.append([None] * size if children else pair[1].copy())
    lanes: list[Optional[_Lanes]] = [None] * len(chunks)
    filled: dict[tuple[int, int], list[float]] = {}  # (A shape, chunk) -> its costs to the chunk

    def relabel(x: int, y: int) -> float:
        cost = costs[x][y]
        if cost is not None:
            return cost
        k = chunk_of[y]
        values = filled.get((x, k))
        if values is None:
            ys, texts, lengths, leaves = chunks[k]
            if lanes[k] is None:
                lanes[k] = _Lanes(texts)
            text = a_labels[x][3]
            n = len(text)
            values = filled[x, k] = [d / (n if n > m else m) for m, d in zip(lengths, lanes[k].distances(text))]
            if leaves and not a_kids[x][0]:
                tree_row = treedist[x]
                for z, value in zip(ys, values):
                    tree_row[z] = value
        return values[slot_of[y]]

    return treedist, relabel, integral


def _postorder(root: TableNode, texts: bool = True) -> tuple[list[int], list[int], list[tuple], list[tuple]]:
    """Per node in postorder, its leftmost leaf's index and its shape id; plus,
    indexed by shape id, its label ``(tag, colspan, rowspan, text)`` and its
    children's shape ids and subtree sizes, in order, with whether every child
    is a leaf (true for a node with no children).

    Two nodes share a shape id exactly when their subtrees carry the same
    labels in the same order: the key is the node's label and its children's
    shape ids. A label's text is a ``td``'s text (the cost model ignores any
    other node's), and ``""`` for every node when ``texts`` is false, as
    TEDS-S compares. Ids go out in order of first appearance, so in a tree
    with no repeated subtree each node's shape id is its postorder index.
    """
    lmds: list[int] = []
    shapes: list[int] = []
    labels: list[tuple] = []
    kids: list[tuple[list[int], list[int], bool]] = []
    ids: dict[tuple, int] = {}

    def visit(node: TableNode) -> int:
        first_leaf = None
        child_shapes, child_sizes = [], []
        for child in node.children:
            child_lmd = visit(child)
            child_shapes.append(shapes[-1])
            child_sizes.append(len(lmds) - child_lmd)
            if first_leaf is None:
                first_leaf = child_lmd
        index = len(lmds)
        lmds.append(first_leaf if first_leaf is not None else index)
        label = (node.tag, node.colspan, node.rowspan, node.text if texts and node.tag == "td" else "")
        shape = ids.setdefault((label, tuple(child_shapes)), len(ids))
        if shape == len(labels):
            labels.append(label)
            # Every child is a leaf when the node has as many children as descendants.
            kids.append((child_shapes, child_sizes, len(child_shapes) == index - lmds[index]))
        shapes.append(shape)
        return lmds[index]

    visit(root)
    del visit  # visit's closure holds visit; without this the cycle outlives the call
    return lmds, shapes, labels, kids


def _mapping_cost(sa: int, sb: int, a_kids: list, b_kids: list, relabel, memo: dict) -> float:
    """Cost of one top-down ordered mapping (Selkow 1977) of a subtree of
    shape ``sa`` onto one of shape ``sb``: an upper bound on their distance.

    The roots are matched. If every child on one side is a leaf (a row's
    cells), children are matched by position and the extra ones on the longer
    side cost their subtree sizes. Otherwise the two child sequences (a
    table's rows or sections) are aligned by an insert/delete/match dynamic
    program whose match cost is this bound, over the cells |i - j| <=
    |len(xs) - len(ys)| + 2 only (any alignment is a valid mapping).
    ``a_kids`` and ``b_kids`` are ``_postorder``'s child lists, ``relabel`` is
    ``_relabel_costs``'s, and ``memo`` holds the cost of each pair met so far.
    """
    cost = memo.get((sa, sb))
    if cost is not None:
        return cost
    xs, x_sizes, x_flat = a_kids[sa]
    ys, y_sizes, y_flat = b_kids[sb]
    if x_flat or y_flat:
        cost = float(sum(x_sizes[len(ys):]) + sum(y_sizes[len(xs):]))
        if x_flat and y_flat:
            for x, y in zip(xs, ys):
                cost += relabel(x, y)
        else:
            for x, y in zip(xs, ys):
                cost += _mapping_cost(x, y, a_kids, b_kids, relabel, memo)
    else:
        width = abs(len(xs) - len(ys)) + 2
        above = [float(k) for k in accumulate(y_sizes, initial=0)]
        for i, (x, x_size) in enumerate(zip(xs, x_sizes), 1):
            # Columns lo to hi; the cells on either side are infinite.
            lo, hi = max(i - width, 1), min(i + width, len(ys))
            row = [above[0] + x_size] + [inf] * (lo - 1)
            left = row[-1]
            for up, diagonal, y, y_size in zip(above[lo : hi + 1], above[lo - 1 :], ys[lo - 1 : hi], y_sizes[lo - 1 :]):
                best = up + x_size
                step = left + y_size
                if step < best:
                    best = step
                step = diagonal + _mapping_cost(x, y, a_kids, b_kids, relabel, memo)
                if step < best:
                    best = step
                row.append(best)
                left = best
            above = row + [inf] * (len(ys) - hi)
        cost = above[-1]
    cost += relabel(sa, sb)
    memo[sa, sb] = cost
    return cost


def tree_edit_distance(tree_a: TableNode, tree_b: TableNode) -> float:
    """Ordered tree edit distance under the TEDS cost model.

    ``ted(i, j)`` fills the forest-distance table of subtree(i) x subtree(j)
    and records ``treedist`` wherever its row and column both share the
    table's leftmost leaf. A cell that needs an entry no table has recorded
    calls ``ted`` for that pair only if the forest distance before the two
    subtrees plus their size difference, a lower bound, is below the cell's
    best candidate so far. The root table computes only a band around its
    diagonal, set by the cost U of one cheap mapping (``_mapping_cost``),
    and records nothing; when U is the size difference and that is exact, U
    is returned and no table is filled. The module docstring says why all of
    this is exact.
    """
    return _distance(_postorder(tree_a), _postorder(tree_b))


def _distance(a_walk: tuple, b_walk: tuple) -> float:
    """``tree_edit_distance`` of two trees given by their ``_postorder`` walks."""
    a_lmds, a_shapes, a_labels, a_kids = a_walk
    b_lmds, b_shapes, b_labels, b_kids = b_walk
    treedist, relabel, integral = _relabel_costs(a_labels, a_kids, b_labels, b_kids)
    size_a, size_b = len(a_lmds), len(b_lmds)
    shift = size_b - size_a
    upper = _mapping_cost(a_shapes[-1], b_shapes[-1], a_kids, b_kids, relabel, {})
    if upper == 0.0 or (integral and upper == abs(shift)):
        return upper

    def ted(i: int, j: int, band: Optional[tuple[int, int]] = None) -> float:
        li, lj = a_lmds[i], b_lmds[j]
        # Per node y of subtree(j): y, its shape, and q, the forest-distance
        # column just before its own subtree; size(y) is y - lj - q + 1.
        columns = [(y, b_shapes[y], b_lmds[y] - lj) for y in range(lj, j + 1)]
        width = len(columns)
        lo, hi, in_band = 0, width, columns
        # One row per node of subtree(i); row 0 is the empty forest. A leaf's
        # forest before it is the row above; the banded root table keeps only
        # the rows before a node's leftmost leaf, which later rows read.
        above = [float(k) for k in range(width + 1)]
        fd = [above]
        kept = None if band is None else {a_lmds[x] for x in range(i + 1) if a_lmds[x] < x}
        for x in range(li, i + 1):
            p = a_lmds[x] - li
            before = above if p == x - li else fd[p]
            span = x - li - p  # size(x) - 1
            a_shape = a_shapes[x]
            tree_row = treedist[a_shape]
            left = above[0] + 1.0
            row = [left]
            if band is not None:
                # Only the root table is banded (li = lj = 0): row x + 1
                # computes columns x + 1 + band[0] to x + 1 + band[1], and the
                # cells on either side are infinite.
                lo = min(max(x + band[0], 0), width)
                hi = max(min(x + band[1] + 1, width), lo)
                in_band = columns[lo:hi]
                if lo:
                    row += [inf] * lo
                    left = inf
            # An unknown entry is computed only if its bound can beat best;
            # a skipped candidate is infinite, so it never does.
            if p == 0:
                # ``above`` itself when unbanded: no copy in the many small tables.
                for up, diagonal, (y, t, q) in zip(above[lo + 1 :], above[lo:] if lo else above, in_band):
                    best = up + 1.0
                    step = left + 1.0
                    if step < best:
                        best = step
                    if q == 0:
                        step = diagonal + relabel(a_shape, t)
                        if step < best:
                            best = step
                        if band is None:
                            tree_row[t] = best
                    else:
                        d = tree_row[t]
                        if d is None:
                            d = ted(x, y) if before[q] + abs(span - (y - lj - q)) < best else inf
                        step = before[q] + d
                        if step < best:
                            best = step
                    row.append(best)
                    left = best
            else:
                for up, (y, t, q) in zip(above[lo + 1 :], in_band):
                    best = up + 1.0
                    step = left + 1.0
                    if step < best:
                        best = step
                    d = tree_row[t]
                    if d is None:
                        d = ted(x, y) if before[q] + abs(span - (y - lj - q)) < best else inf
                    step = before[q] + d
                    if step < best:
                        best = step
                    row.append(best)
                    left = best
            if hi < width:
                row += [inf] * (width - hi)
            fd.append(row if kept is None or x + 1 in kept else None)
            above = row
        return above[-1]

    # At least the distance, by the rounding margin argued in the module docstring.
    limit = floor(upper * (1.0 + (size_a + size_b) * 2.0**-50))
    # Cells (r, c) with |r - c| + |(size_a - r) - (size_b - c)| <= limit.
    extra = (limit - abs(shift)) // 2
    distance = ted(size_a - 1, size_b - 1, (min(shift, 0) - extra, max(shift, 0) + extra))
    # ted's closure holds ted: empty that cell, or the cycle keeps ``treedist``
    # and the relabel costs alive until the next cyclic collection.
    del ted
    return distance


def _teds(a_walk: tuple, b_walk: tuple) -> float:
    return max(0.0, 1.0 - _distance(a_walk, b_walk) / max(len(a_walk[0]), len(b_walk[0])))


def teds(tree_a: TableNode, tree_b: TableNode) -> float:
    """Tree edit distance similarity in [0, 1]."""
    return _teds(_postorder(tree_a), _postorder(tree_b))


def teds_s(tree_a: TableNode, tree_b: TableNode) -> float:
    """Structure-only TEDS: cell texts are left out of the comparison."""
    return _teds(_postorder(tree_a, texts=False), _postorder(tree_b, texts=False))


# ---------------------------------------------------------------------------
# Evaluation harness over DP-Bench style files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    """Scores of one ``evaluate`` run.

    Each sample is its report record: ``{"sample_id", "nid"}`` in layout mode,
    ``{"sample_id", "teds", "teds_s"}`` in table mode. The means are over the
    samples that carry the score, and ``None`` when none does.
    """

    mode: str
    samples: tuple[Mapping[str, Any], ...]
    skipped: int

    @property
    def evaluated(self) -> int:
        return len(self.samples)

    def _mean(self, name: str) -> Optional[float]:
        values = [s[name] for s in self.samples if name in s]
        return sum(values) / len(values) if values else None

    @property
    def mean_nid(self) -> Optional[float]:
        return self._mean("nid")

    @property
    def mean_teds(self) -> Optional[float]:
        return self._mean("teds")

    @property
    def mean_teds_s(self) -> Optional[float]:
        return self._mean("teds_s")

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "samples": [dict(s) for s in self.samples],
            "aggregates": {
                "mean_nid": self.mean_nid,
                "mean_teds": self.mean_teds,
                "mean_teds_s": self.mean_teds_s,
            },
            "evaluated": self.evaluated,
            "skipped": self.skipped,
        }

    def summary_text(self) -> str:
        def fmt(value: Optional[float]) -> str:
            return "n/a" if value is None else f"{value:.2f}"

        lines = [f"mode: {self.mode}"]
        if self.mode == "layout":
            lines.append(f"NID    {fmt(self.mean_nid)}")
        else:
            lines.append(f"TEDS   {fmt(self.mean_teds)}")
            lines.append(f"TEDS-S {fmt(self.mean_teds_s)}")
        lines.append(f"evaluated: {self.evaluated}  skipped: {self.skipped}")
        return "\n".join(lines)


class DPBenchElement(NamedTuple):
    """One checked element of a DP-Bench file.

    ``box`` spans points 0 and 2 (left-top and right-bottom) of the element's
    ``coordinates`` polygon, and is ``None`` when the polygon is missing or
    null. ``text`` is ``""`` and ``html`` is ``None`` when missing or null,
    and so is a blank ``html``. ``page`` is a positive int, or ``None`` when
    missing or null. ``id`` is the element's ``id``, an int or a non-empty
    str; without one (or with ``null``) it is the element's position among
    the file's ``Table`` elements. No two tables of a file share an id's
    text, which names their sample.
    """

    category: Optional[str]
    page: Optional[int]
    id: Union[int, str]
    box: Optional[BBox]
    text: str
    html: Optional[str]


def serialize_for_nid(elements: Sequence[DPBenchElement]) -> str:
    """Newline-join the texts of the elements outside ``NID_EXCLUDED_CATEGORIES``."""
    return "\n".join(e.text for e in elements if e.category not in NID_EXCLUDED_CATEGORIES)


def _load_dpbench_file(path: Path) -> list[DPBenchElement]:
    """Read a DP-Bench file, checking each element once; the first bad field
    raises an ``EvaluationError`` naming the file, the element and the field."""
    elements = read_json_object(path, EvaluationError).get("elements")
    if not isinstance(elements, list):
        raise EvaluationError(f"{path}: expected an 'elements' array")
    records = []
    table_ids: dict[str, int] = {}  # sample id suffix -> index of the table element holding it
    for index, element in enumerate(elements):
        context = f"{path}: elements[{index}]"
        if not isinstance(element, dict):
            raise EvaluationError(f"{context} must be an object")
        content = element.get("content", {})
        if not isinstance(content, dict):
            raise EvaluationError(f"{context}.content must be an object")
        for key in ("text", "html"):
            if not isinstance(content.get(key), (str, type(None))):
                raise EvaluationError(f"{context}.content.{key} must be a string or null")
        category = element.get("category")
        if not isinstance(category, (str, type(None))):
            raise EvaluationError(f"{context}.category must be a string")
        points = element.get("coordinates")
        box = None
        if points is not None:
            if not isinstance(points, list) or len(points) != 4 or not all(
                isinstance(p, list) and len(p) == 2 and all(type(v) in (int, float) for v in p) for p in points
            ):
                raise EvaluationError(f"{context}.coordinates must be four [x, y] number pairs or null")
            try:
                box = BBox(*points[0], *points[2])
            except ValueError as exc:
                raise EvaluationError(f"{context}.coordinates: {exc}") from None
        page = element.get("page")
        if page is not None and (not _is_int(page) or page < 1):
            raise EvaluationError(f"{context}.page must be a positive integer or null")
        element_id = element.get("id")
        if element_id is None:
            element_id = len(table_ids)
        elif not (_is_int(element_id) or (isinstance(element_id, str) and element_id)):
            raise EvaluationError(f"{context}.id must be an integer, a non-empty string or null")
        if category == "Table":
            earlier = table_ids.setdefault(str(element_id), index)
            if earlier != index:
                raise EvaluationError(
                    f"{context}.id: the sample id '#table{element_id}' is already that of elements[{earlier}]"
                )
        text, html = content.get("text") or "", content.get("html")
        html = html if html and html.strip() else None
        records.append(DPBenchElement(category, page, element_id, box, text, html))
    return records


def _collect_documents(
    reference_path: Path, prediction_path: Path
) -> list[tuple[str, list[DPBenchElement], list[DPBenchElement]]]:
    if reference_path.is_dir() != prediction_path.is_dir():
        raise EvaluationError(
            "reference and prediction must both be files or both be directories"
        )
    if not reference_path.is_dir():
        pairs = [(reference_path, prediction_path)]
    else:
        pairs = [(ref, prediction_path / ref.name) for ref in sorted(reference_path.glob("*.json"))]
        if not pairs:
            raise EvaluationError(f"{reference_path}: no reference documents found")
    documents = []
    for ref_file, pred_file in pairs:
        if not pred_file.exists():
            raise EvaluationError(f"{pred_file}: missing prediction for {ref_file.name}")
        documents.append((ref_file.stem, _load_dpbench_file(ref_file), _load_dpbench_file(pred_file)))
    return documents


def _match_tables(
    ref_tables: list[DPBenchElement], pred_tables: list[DPBenchElement]
) -> list[Optional[DPBenchElement]]:
    """Greedily pair each reference table with the best-IoU prediction on its page."""
    used: set[int] = set()
    matches: list[Optional[DPBenchElement]] = []
    for ref in ref_tables:
        best_index, best_iou = None, 0.0
        for index, pred in enumerate(pred_tables):
            if index in used or pred.page != ref.page or ref.box is None or pred.box is None:
                continue
            overlap = iou(ref.box, pred.box)
            if overlap > best_iou:
                best_index, best_iou = index, overlap
        if best_index is not None:
            used.add(best_index)
        matches.append(None if best_index is None else pred_tables[best_index])
    return matches


def _table_tree(element: Optional[DPBenchElement]) -> Optional[TableNode]:
    """The element's table tree; ``None`` for no element, no HTML or no table in it."""
    if element is None or element.html is None:
        return None
    try:
        return parse_table_html(element.html)
    except TableParseError:
        return None


def evaluate(
    reference_path: Union[str, Path],
    prediction_path: Union[str, Path],
    mode: str,
) -> EvalReport:
    """Score prediction files against reference files.

    Every file is read and checked in full before any scoring, and a bad
    file raises an ``EvaluationError`` naming it and its first bad field.
    ``layout`` mode computes one NID per document over the serialized reading
    order. ``table`` mode pairs reference tables with predicted tables by page
    and maximal bbox IoU (``geometry.iou``); a table without ``coordinates``
    matches nothing. An unmatched or unparseable prediction scores 0, and a
    reference table without parseable HTML is skipped. Documents with no
    reference tables count as skipped samples in table mode.
    """
    if mode not in ("layout", "table"):
        raise EvaluationError(f"unknown evaluation mode {mode!r}")
    reference_path = Path(reference_path)
    prediction_path = Path(prediction_path)
    for path in (reference_path, prediction_path):
        if not path.exists():
            raise EvaluationError(f"{path}: file not found")

    documents = _collect_documents(reference_path, prediction_path)
    if mode == "layout":
        samples = [
            {"sample_id": name, "nid": nid(serialize_for_nid(ref), serialize_for_nid(pred))}
            for name, ref, pred in documents
        ]
        return EvalReport(mode, tuple(samples), skipped=0)

    samples = []
    skipped = 0
    for name, ref_elements, pred_elements in documents:
        ref_tables = [e for e in ref_elements if e.category == "Table"]
        pred_tables = [e for e in pred_elements if e.category == "Table"]
        if not ref_tables:
            skipped += 1
            continue
        for ref, match in zip(ref_tables, _match_tables(ref_tables, pred_tables)):
            ref_tree = _table_tree(ref)
            if ref_tree is None:
                skipped += 1
                continue
            pred_tree = _table_tree(match)
            score_teds, score_teds_s = 0.0, 0.0
            if pred_tree is not None:
                score_teds = teds(ref_tree, pred_tree)
                score_teds_s = teds_s(ref_tree, pred_tree)
            samples.append({"sample_id": f"{name}#table{ref.id}", "teds": score_teds, "teds_s": score_teds_s})
    return EvalReport(mode, tuple(samples), skipped)
