"""Reading-order and table-structure metrics plus the evaluation harness.

NID scores serialized reading order with a character-level insert/delete
distance, computed exactly from a bit-parallel longest common subsequence
(a few big-int operations per character of one string). TEDS and TEDS-S
score tables as ordered labeled trees under a tree edit distance computed
from Zhang-Shasha forest-distance tables (Zhang & Shasha 1989), filled on
demand; the cost model (Zhong et al. 2020) charges 1 for insert/delete, 1
for tag or span mismatches, and a normalized character edit distance between
cell texts for matching ``td`` nodes. TEDS-S runs the same comparison with
cell texts blanked.

Each node of a table tree gets a shape id: equal ids mean equal labelled
subtrees (tag, spans, cell text and children's shapes, in order). The
``treedist`` table of subtree distances and the relabel costs are indexed by
(A shape, B shape), so repeated rows and repeated cell texts are compared
once. This is exact: an entry's float comes from the two labelled subtrees
alone, by the same additions in the same order. With cell texts blanked, the
rows of a regular table share one shape, and the entries recorded for the
first pair of rows serve every row, so TEDS-S fills the root table and at
most one table below it.

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
match cost is this same bound. Row r (an A prefix of r nodes) computes only
the columns c (B prefixes) with L(r, c) = |r - c| + |(|A| - r) - (|B| - c)|
<= limit = floor(U * (1 + (|A| + |B|) * 2**-50)), a contiguous range; every
other cell is infinite. An infinite forest distance also fails the
size-bound test, so no out-of-band pair of subtrees calls ``ted``. Only the
root table is banded; the tables below it are filled in full, as above.

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
banded table records no ``treedist`` entry. Two equal trees give U = 0 and a
band of the diagonal alone. Every root table is banded, however small: on the
host named below, against filling 2x2, 3x3 and 3x5 root tables in full (one
row deleted, a fifth of the cells reworded), ``teds`` took 0.90, 0.99 and
0.82 of the time, and ``teds_s`` 1.42, 1.09 and 1.00 (2x2: 44 to 62 us).

On a pair of ``perfbench``'s ``eval`` inputs (a 10x10 table of 1-word cells
against a copy with one row deleted and a fifth of its cells reworded), U is
the distance, 25.6; ``teds`` fills 4,843 table cells (24,498 unbanded, 76,242
in the keyroot loop): 2,544 of the 111x100 root table and 39 tables below it.
``teds_s`` fills 1,321 instead of 11,100, and a table against itself 1,200
instead of 13,410. Calls of ``ted`` nest at most depth(A) + depth(B) deep, 8
for parsed tables (table, section, row, cell).

Before any table, ``tree_edit_distance`` builds the relabel cost of every
(A shape, B shape) pair as one matrix. The cell edit distances come from a
multi-pattern bit-parallel kernel (Hyyrö, Fredriksson & Navarro 2005): the
non-empty B cell texts of one span are packed as byte-aligned lanes of a
single int, and Myers' recurrence (Myers 1999, in Hyyrö 2003's form for
global distance) runs once per A cell, a few big-int operations per
character, to give its distance to every B cell at once; one byte-wise
popcount and one running sum read every lane out. The matrix and
``treedist`` each hold at most one entry per (A shape, B shape) pair, never
more than one per (A node, B node) pair.

TEDS is still quadratic in table size: the relabel cost matrix has one entry
per pair of distinct A and B subtrees, and the root table's rows are kept at
full length (the cells outside the band share one ``inf``). The band cuts the
root table's work from |A| x |B| cells to about |A| times the band's width,
which grows with the distance, not with the tables. Measured on one core of a
2-core x86 host under CPython 3.11 (median of 15 calls at 10x10, 9 at 10x10
with 5-word cells, 7 and 5 at 30x10 and 3 at 60x10, interleaved with the
unbanded code), for a table of words from a 30-word vocabulary against a copy
with one row deleted and a fifth of its cells reworded, one ``teds`` call
takes about 0.0022 s at 10x10 with 1-word cells (0.0058 s unbanded), 0.011 s
at 10x10 with 5-word cells (0.016 s), 0.012 s at 30x10 with 1-word cells
(0.047 s), 0.096 s at 30x10 with 5-word cells (0.15 s) and 0.041 s at 60x10
with 1-word cells (0.18 s); with 5-word cells the relabel matrix takes most
of the rest. ``teds_s`` takes 0.0009-0.013 s on the same tables, 0.19-0.52
of its unbanded time. The host's speed swings by up to about 1.6x between
phases, so read the ratios. One 60x10 ``teds``
call peaks at about 5.5 MB of ``tracemalloc`` (14.4 MB unbanded), most of it
the root table's rows. ``evaluate`` sets no size limit.

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
from operator import sub
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

    Each text is packed as one lane of a single int: lane k starts on a byte
    boundary, holds bits ``[offset_k, offset_k + len(text_k))`` and is
    followed by zero guard bits up to the next byte boundary (at least one),
    which absorb the carry of the addition and the top bit of each shift, so
    no lane reads its neighbour (Hyyrö, Fredriksson & Navarro 2005).
    ``distances(a)`` then runs Myers' recurrence (Myers 1999, in Hyyrö 2003's
    form for global distance) once over the characters of ``a``: bit i of
    lane k in ``pv``/``mv`` is set where the DP column of ``text_k`` steps
    by +1/-1 from row i to row i + 1. Each character of ``a`` costs a few
    big-int operations, whatever the number and length of the texts, and
    the lanes are read out together: one byte-wise popcount per vector and
    one running sum over the bytes.
    """

    __slots__ = ("peq", "lanes", "low", "size", "bounds")

    def __init__(self, texts: Sequence[str]):
        self.peq: dict[str, int] = {}
        self.lanes = self.low = 0
        # Each lane's first byte and the byte after its guard bits.
        self.bounds: list[tuple[int, int]] = []
        start = 0
        for text in texts:
            offset = 8 * start
            for i, ch in enumerate(text, offset):
                self.peq[ch] = self.peq.get(ch, 0) | (1 << i)
            if text:
                self.low |= 1 << offset
            self.lanes |= (1 << (offset + len(text))) - (1 << offset)
            end = start + len(text) // 8 + 1
            self.bounds.append((start, end))
            start = end
        self.size = start

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
        # A lane's distance is row 0's len(a) plus the lane's vertical deltas:
        # ``sums[k]`` totals the +1 minus the -1 steps of bytes 0 to k - 1.
        plus = pv.to_bytes(self.size, "little").translate(_POPCOUNT)
        minus = mv.to_bytes(self.size, "little").translate(_POPCOUNT)
        sums = list(accumulate(map(sub, plus, minus), initial=0))
        n = len(a)
        return [n + sums[end] - sums[start] for start, end in self.bounds]


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
    """TEDS relabel cost of one pair, as ``tree_edit_distance`` computes it.

    1 for a tag or span mismatch; for two ``td`` cells, 0 when both are
    empty and otherwise their text edit distance over the longer length;
    0 for two equal nodes of any other tag.
    """
    return _relabel_costs([a], [b])[0][0]


def _relabel_costs(a_nodes: Sequence[TableNode], b_nodes: Sequence[TableNode]) -> list[list[float]]:
    """``costs[x][y]``: the relabel cost of ``a_nodes[x]`` to ``b_nodes[y]``.

    The non-empty ``td`` texts of ``b_nodes`` with the same spans form one
    :class:`_Lanes` each, so a cell of ``a_nodes`` gets its distances to all
    of them in one pass. ``tree_edit_distance`` passes one node per shape, so
    the matrix holds as many entries as its ``treedist`` table.
    """
    # Per (tag, colspan, rowspan): the nodes an equal A node relabels to for
    # free, and the non-empty cells whose cost is a text distance.
    free: dict[tuple[str, int, int], list[int]] = {}
    cells: dict[tuple[str, int, int], list[tuple[int, int]]] = {}
    texts: dict[tuple[str, int, int], list[str]] = {}
    for y, node in enumerate(b_nodes):
        key = (node.tag, node.colspan, node.rowspan)
        if node.tag == "td" and node.text:
            cells.setdefault(key, []).append((y, len(node.text)))
            texts.setdefault(key, []).append(node.text)
        else:
            free.setdefault(key, []).append(y)
    lanes = {key: _Lanes(group) for key, group in texts.items()}

    costs = []
    for node in a_nodes:
        key = (node.tag, node.colspan, node.rowspan)
        text = node.text if node.tag == "td" else ""
        row = [1.0] * len(b_nodes)
        if not text:
            for y in free.get(key, ()):
                row[y] = 0.0
        elif key in cells:
            n = len(text)
            for (y, m), d in zip(cells[key], lanes[key].distances(text)):
                row[y] = d / (n if n > m else m)
        costs.append(row)
    return costs


def _postorder(root: TableNode) -> tuple[list[int], list[int], list[TableNode], list[tuple]]:
    """Per node in postorder, its leftmost leaf's index and its shape id; plus,
    indexed by shape id, the first node of each shape and its children's
    shape ids and subtree sizes, in order, with whether every child is a leaf
    (true for a node with no children).

    Two nodes share a shape id exactly when their subtrees carry the same
    labels in the same order: the key is the node's tag, spans, text (for a
    ``td``; the cost model ignores any other node's text) and its children's
    shape ids. Ids go out in order of first appearance, so in a tree with no
    repeated subtree each node's shape id is its postorder index.
    """
    lmds: list[int] = []
    shapes: list[int] = []
    firsts: list[TableNode] = []
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
        text = node.text if node.tag == "td" else ""
        shape = ids.setdefault((node.tag, node.colspan, node.rowspan, text, tuple(child_shapes)), len(ids))
        if shape == len(firsts):
            firsts.append(node)
            # Every child is a leaf when the node has as many children as descendants.
            kids.append((child_shapes, child_sizes, len(child_shapes) == index - lmds[index]))
        shapes.append(shape)
        return lmds[index]

    visit(root)
    del visit  # visit's closure holds visit; without this the cycle outlives the call
    return lmds, shapes, firsts, kids


def _mapping_cost(
    sa: int, sb: int, a_kids: list, b_kids: list, costs: list[list[float]], memo: dict[tuple[int, int], float]
) -> float:
    """Cost of one top-down ordered mapping (Selkow 1977) of a subtree of
    shape ``sa`` onto one of shape ``sb``: an upper bound on their distance.

    The roots are matched. If every child on one side is a leaf (a row's
    cells), children are matched by position and the extra ones on the longer
    side cost their subtree sizes. Otherwise the two child sequences (a
    table's rows or sections) are aligned by an insert/delete/match dynamic
    program whose match cost is this bound. ``a_kids`` and ``b_kids`` are the
    per-shape child lists ``_postorder`` records as it walks each tree;
    ``memo`` holds the cost of each (A shape, B shape) pair met so far.
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
                cost += costs[x][y]
        else:
            for x, y in zip(xs, ys):
                cost += _mapping_cost(x, y, a_kids, b_kids, costs, memo)
    else:
        above = [float(k) for k in accumulate(y_sizes, initial=0)]
        for x, x_size in zip(xs, x_sizes):
            left = above[0] + x_size
            row = [left]
            for up, diagonal, y, y_size in zip(above[1:], above, ys, y_sizes):
                best = up + x_size
                step = left + y_size
                if step < best:
                    best = step
                step = diagonal + _mapping_cost(x, y, a_kids, b_kids, costs, memo)
                if step < best:
                    best = step
                row.append(best)
                left = best
            above = row
        cost = above[-1]
    cost += costs[sa][sb]
    memo[sa, sb] = cost
    return cost


def tree_edit_distance(tree_a: TableNode, tree_b: TableNode) -> float:
    """Ordered tree edit distance under the TEDS cost model.

    ``ted(i, j)`` fills the forest-distance table of subtree(i) x subtree(j)
    and records ``treedist`` wherever its row and column both share the
    table's leftmost leaf. A cell that needs an entry no table has recorded
    calls ``ted`` for that pair only if the forest distance before the two
    subtrees plus their size difference, a lower bound, is below the cell's
    best candidate so far. The root table computes only the cells in a band
    around its diagonal, set by the cost of one cheap mapping
    (``_mapping_cost``), and records nothing. See the module docstring for
    why both are exact. ``treedist`` and the relabel costs are indexed by
    (A shape, B shape): an entry's float comes from the two labelled subtrees
    alone.
    """
    a_lmds, a_shapes, a_firsts, a_kids = _postorder(tree_a)
    b_lmds, b_shapes, b_firsts, b_kids = _postorder(tree_b)
    costs = _relabel_costs(a_firsts, b_firsts)
    # None until a table records it. Two leaves cost min(2, 2, relabel), and a
    # relabel costs at most 1.
    b_leaves = [not node.children for node in b_firsts]
    treedist = [
        [None] * len(b_firsts) if node.children else [c if leaf else None for c, leaf in zip(row, b_leaves)]
        for node, row in zip(a_firsts, costs)
    ]

    def ted(i: int, j: int, band: Optional[tuple[int, int]] = None) -> float:
        li, lj = a_lmds[i], b_lmds[j]
        # Per node y of subtree(j): y, its shape, and q, the forest-distance
        # column just before its own subtree; size(y) is y - lj - q + 1.
        columns = [(y, b_shapes[y], b_lmds[y] - lj) for y in range(lj, j + 1)]
        width = len(columns)
        lo, hi, in_band = 0, width, columns
        # One row per node of subtree(i); row 0 is the empty forest.
        above = [float(k) for k in range(width + 1)]
        fd = [above]
        for x in range(li, i + 1):
            p = a_lmds[x] - li
            before = fd[p]
            span = x - li - p  # size(x) - 1
            tree_row = treedist[a_shapes[x]]
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
                cost_row = costs[a_shapes[x]]
                # ``above`` itself when unbanded: no copy in the many small tables.
                for up, diagonal, (y, t, q) in zip(above[lo + 1 :], above[lo:] if lo else above, in_band):
                    best = up + 1.0
                    step = left + 1.0
                    if step < best:
                        best = step
                    if q == 0:
                        step = diagonal + cost_row[t]
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
            fd.append(row)
            above = row
        return above[-1]

    size_a, size_b = len(a_lmds), len(b_lmds)
    upper = _mapping_cost(a_shapes[-1], b_shapes[-1], a_kids, b_kids, costs, {})
    # At least the distance, by the rounding margin argued in the module docstring.
    limit = floor(upper * (1.0 + (size_a + size_b) * 2.0**-50))
    # Cells (r, c) with |r - c| + |(size_a - r) - (size_b - c)| <= limit.
    shift = size_b - size_a
    extra = (limit - abs(shift)) // 2
    distance = ted(size_a - 1, size_b - 1, (min(shift, 0) - extra, max(shift, 0) + extra))
    # ted's closure holds ted: empty that cell, or the cycle keeps ``treedist``
    # and ``costs`` alive until the next cyclic collection.
    del ted
    return distance


def teds(tree_a: TableNode, tree_b: TableNode) -> float:
    """Tree edit distance similarity in [0, 1]."""
    denominator = max(tree_a.size(), tree_b.size())
    score = 1.0 - tree_edit_distance(tree_a, tree_b) / denominator
    return max(0.0, score)


def teds_s(tree_a: TableNode, tree_b: TableNode) -> float:
    """Structure-only TEDS: cell contents are blanked before comparison."""
    return teds(tree_a.blanked(), tree_b.blanked())


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
