import copy
import gc
import json
import random
import tracemalloc
from typing import Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from docweave.errors import EvaluationError, TableParseError
from docweave.geometry import BBox
from docweave.metrics import (
    DPBenchElement,
    TableNode,
    _Lanes,
    _load_dpbench_file,
    _mapping_cost,
    _postorder,
    _relabel_costs,
    evaluate,
    indel_distance,
    levenshtein,
    nid,
    parse_table_html,
    relabel_cost,
    serialize_for_nid,
    teds,
    teds_s,
    tree_edit_distance,
)
from oracles import indel_oracle, levenshtein_oracle, relabel_cost_oracle, tree_edit_oracle, zhang_shasha_oracle

short_text = st.text(alphabet="abcdef ", max_size=20)
# Long enough that the bit vectors span several 30-bit big-int digits, with
# characters outside the Basic Multilingual Plane.
long_alphabet = "abc é€𝄞"
long_text = st.text(alphabet=long_alphabet, min_size=60, max_size=200)


@st.composite
def long_pairs(draw):
    """A long string and either an unrelated one or a block edit of it."""
    a = draw(long_text)
    edit = draw(st.sampled_from(("unrelated", "replace", "move")))
    if edit == "unrelated":
        return a, draw(long_text)
    i, j = sorted(draw(st.lists(st.integers(0, len(a)), min_size=2, max_size=2)))
    if edit == "replace":
        return a, a[:i] + draw(st.text(alphabet=long_alphabet, max_size=40)) + a[j:]
    return a, a[:i] + a[j:] + a[i:j]


class TestIndelDistance:
    def test_identity(self):
        assert indel_distance("abc", "abc") == 0

    def test_pure_deletion(self):
        assert indel_distance("abc", "") == 3

    def test_kitten_sitting(self):
        # LCS("kitten", "sitting") = 4, so distance = 6 + 7 - 8
        assert indel_distance("kitten", "sitting") == 5

    @given(short_text, short_text)
    def test_matches_lcs_oracle(self, a, b):
        assert indel_distance(a, b) == indel_oracle(a, b)

    @settings(max_examples=60, deadline=None)
    @given(long_pairs())
    def test_matches_lcs_oracle_beyond_one_machine_word(self, pair):
        a, b = pair
        assert indel_distance(a, b) == indel_oracle(a, b)
        assert indel_distance(b, a) == indel_oracle(a, b)

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert indel_distance(a, b) == indel_distance(b, a)

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert indel_distance(a, c) <= indel_distance(a, b) + indel_distance(b, c)

    @given(short_text, short_text)
    def test_zero_iff_equal(self, a, b):
        assert (indel_distance(a, b) == 0) == (a == b)


class TestNid:
    def test_identity(self):
        assert nid("abc", "abc") == 1.0

    def test_total_deletion(self):
        assert nid("abc", "") == 0.0

    def test_one_substituted_char(self):
        # indel distance 2 over length sum 8
        assert nid("abcd", "abed") == 0.75

    def test_both_empty(self):
        assert nid("", "") == 1.0

    @given(short_text, short_text)
    def test_symmetric_and_bounded(self, a, b):
        score = nid(a, b)
        assert score == nid(b, a)
        assert 0.0 <= score <= 1.0


def _record(category, text):
    return DPBenchElement(category, page=1, id=0, box=None, text=text, html=None)


class TestSerializeForNid:
    def test_tables_figures_excluded(self):
        elements = [_record("Paragraph", "a"), _record("Table", "t"), _record("Paragraph", "b")]
        assert serialize_for_nid(elements) == "a\nb"

    def test_empty(self):
        assert serialize_for_nid([]) == ""

    def test_only_figure(self):
        assert serialize_for_nid([_record("Figure", "f")]) == ""

    def test_chart_excluded(self):
        assert serialize_for_nid([_record("Chart", "c"), _record("Header", "h")]) == "h"


class TestParseTableHtml:
    def test_minimal_table(self):
        tree = parse_table_html("<table><tr><td>x</td></tr></table>")
        assert tree.tag == "table"
        assert tree.children[0].tag == "tr"
        assert tree.children[0].children[0].text == "x"

    def test_colspan_parsed(self):
        tree = parse_table_html('<table><tr><td colspan="2">x</td></tr></table>')
        assert tree.children[0].children[0].colspan == 2

    def test_no_table_errors(self):
        with pytest.raises(TableParseError, match="no table found"):
            parse_table_html("<p>hi</p>")

    def test_th_normalized_to_td(self):
        tree = parse_table_html("<table><thead><tr><th>H</th></tr></thead></table>")
        head = tree.children[0]
        assert head.tag == "thead"
        assert head.children[0].children[0].tag == "td"

    def test_bad_span_defaults_to_one(self):
        tree = parse_table_html('<table><tr><td rowspan="abc">x</td></tr></table>')
        assert tree.children[0].children[0].rowspan == 1

    def test_unclosed_rows_repaired(self):
        tree = parse_table_html("<table><tr><td>a<tr><td>b</table>")
        assert [row.children[0].text for row in tree.children] == ["a", "b"]

    def test_cell_text_whitespace_collapsed(self):
        tree = parse_table_html("<table><tr><td>  a\n  <b>b</b>  </td></tr></table>")
        assert tree.children[0].children[0].text == "a b"

    def test_markup_before_table_ignored(self):
        tree = parse_table_html("<div><p>x</p><table><tr><td>y</td></tr></table></div>")
        assert tree.children[0].children[0].text == "y"

    @pytest.mark.parametrize(
        "cell_html, text",
        [
            ("Total<br>2023", "Total 2023"),
            ("Total<br/>2023", "Total 2023"),
            ("a<p>b</p>", "a b"),
            ("x<div>y</div>z", "x y z"),
            ("<ul><li>one</li><li>two</li></ul>after", "one two after"),
            ("<ol><li>1</li></ol>x", "1 x"),
            ("<b>bo</b>ld<span>er</span>", "bolder"),
        ],
    )
    def test_line_breaks_and_blocks_separate_words(self, cell_html, text):
        tree = parse_table_html(f"<table><tr><td>{cell_html}</td></tr></table>")
        assert tree.children[0].children[0].text == text

    def test_nested_table_contributes_cell_text_only(self):
        tree = parse_table_html(
            "<table><tr><td>a<table><tr><td>x</td><td>w<table><tr><td>deep</td></tr></table>"
            "</td></tr></table> after</td><td>y</td></tr><tr><td>z</td></tr></table>"
            "<table><tr><td>second table</td></tr></table>"
        )
        assert [[c.text for c in r.children] for r in tree.children] == [["a x w deep after", "y"], ["z"]]


def cell(text, colspan=1, rowspan=1):
    return TableNode("td", text=text, colspan=colspan, rowspan=rowspan)


def row(*cells):
    return TableNode("tr", children=list(cells))


def table(*rows):
    return TableNode("table", children=list(rows))


def _random_tree(rng: random.Random, max_nodes: int = 8) -> TableNode:
    tags = ["table", "tr", "td", "thead"]
    texts = ["", "a", "ab", "xyz"]
    total = rng.randint(1, max_nodes)
    root = TableNode(rng.choice(tags), text=rng.choice(texts),
                     colspan=rng.choice([1, 1, 2]), rowspan=rng.choice([1, 1, 2]))
    nodes = [root]
    for _ in range(total - 1):
        node = TableNode(rng.choice(tags), text=rng.choice(texts),
                         colspan=rng.choice([1, 1, 2]), rowspan=rng.choice([1, 1, 2]))
        rng.choice(nodes).children.append(node)
        nodes.append(node)
    return root


class TestTreeEditDistance:
    def test_identical_trees(self):
        t = table(row(cell("a"), cell("b")))
        assert tree_edit_distance(t, t) == 0.0

    def test_cell_text_relabel_cost(self):
        # single differing td: levenshtein("ab","ad")/2 = 0.5
        a = table(row(cell("ab")))
        b = table(row(cell("ad")))
        assert tree_edit_distance(a, b) == pytest.approx(0.5)

    def test_row_insertion_cost(self):
        one = table(row(cell("x")))
        two = table(row(cell("x")), row(cell("x")))
        oracle = tree_edit_oracle(one, two, relabel_cost_oracle)
        assert tree_edit_distance(one, two) == pytest.approx(oracle)
        assert oracle == 2.0  # tr + td inserted

    def test_span_mismatch_costs_one(self):
        a = table(row(cell("x", colspan=2)))
        b = table(row(cell("x", colspan=1)))
        assert tree_edit_distance(a, b) == pytest.approx(1.0)

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(20240817)
        for _ in range(200):
            a = _random_tree(rng)
            b = _random_tree(rng)
            expected = tree_edit_oracle(a, b, relabel_cost_oracle)
            assert tree_edit_distance(a, b) == pytest.approx(expected, abs=1e-9)


#: Cell texts whose lengths are all powers of two (or zero), so every relabel
#: cost is a dyadic fraction and any order of adding costs gives the same
#: float: the library and the forest recursion must then agree exactly.
#: They cover empty cells, non-BMP characters and cells longer than 64 bits.
_DYADIC_TEXTS = ("", "a", "ab", "ba", "é𝄞", "kitten!!", "sitting!", "€𝄞€𝄞", "North 1,204.50 +",
                 "North 1,180.00 -", "ab" * 32, "ba" * 32 + "é𝄞" * 32)


def _span(rng: random.Random) -> str:
    return rng.choice(["", "", "", ' colspan="2"', ' rowspan="2"', ' colspan="1"'])


def _random_table_html(rng: random.Random, texts: Sequence[str] = _DYADIC_TEXTS) -> str:
    """A small table with an optional ``th`` header row, spans and varied cell texts."""
    parts = ["<table>"]
    if rng.random() < 0.5:
        cells = "".join(f"<th{_span(rng)}>{rng.choice(texts)}</th>" for _ in range(rng.randint(1, 3)))
        parts.append(f"<thead><tr>{cells}</tr></thead>")
    for _ in range(rng.randint(1, 3)):
        cells = "".join(f"<td{_span(rng)}>{rng.choice(texts)}</td>" for _ in range(rng.randint(1, 3)))
        parts.append(f"<tr>{cells}</tr>")
    return "".join(parts) + "</table>"


def test_tree_edit_distance_equals_oracle_exactly():
    rng = random.Random(20261018)
    for _ in range(300):
        a = parse_table_html(_random_table_html(rng))
        b = parse_table_html(_random_table_html(rng))
        assert tree_edit_distance(a, b) == tree_edit_oracle(a, b, relabel_cost_oracle)
        assert tree_edit_distance(b, a) == tree_edit_oracle(b, a, relabel_cost_oracle)


def _repeated_table_html(rng: random.Random, texts: Sequence[str] = _DYADIC_TEXTS) -> str:
    """A table of 2-4 rows drawn from two row templates over three texts.

    Some rows are reversed, so rows that hold the same cells in another
    order occur; an optional ``thead`` repeats the first row as ``th`` cells.
    """
    texts = rng.sample(texts, 3)
    templates = [[f"<td{_span(rng)}>{rng.choice(texts)}</td>" for _ in range(rng.randint(1, 3))]
                 for _ in range(2)]
    rows = []
    for _ in range(rng.randint(2, 4)):
        cells = rng.choice(templates)
        rows.append("<tr>" + "".join(cells[::-1] if rng.random() < 0.3 else cells) + "</tr>")
    head = f"<thead>{rows[0].replace('td', 'th')}</thead>" if rng.random() < 0.3 else ""
    return f"<table>{head}{''.join(rows)}</table>"


def test_tree_edit_distance_equals_oracle_exactly_on_shared_shapes():
    rng = random.Random(20261019)
    for _ in range(100):
        a = parse_table_html(_repeated_table_html(rng))
        b = parse_table_html(_repeated_table_html(rng))
        for x, y in ((a, b), (b, a), (a.blanked(), b.blanked()), (b.blanked(), a.blanked())):
            assert tree_edit_distance(x, y) == tree_edit_oracle(x, y, relabel_cost_oracle)


class TestShapes:
    """Shape ids from ``_postorder``."""

    def test_no_repeated_subtree_gives_postorder_index(self):
        tree = table(row(cell("a"), cell("b")), row(cell("c", colspan=2)))
        assert _postorder(tree)[1] == list(range(tree.size()))

    def test_equal_subtrees_share_a_shape(self):
        tree = table(row(cell("a"), cell("b")), row(cell("a"), cell("b")), row(cell("b"), cell("a")))
        _, shapes, firsts, _ = _postorder(tree)
        # Postorder: a b tr | a b tr | b a tr | table.
        assert shapes == [0, 1, 2, 0, 1, 2, 1, 0, 3, 4]
        first_row = tree.children[0]
        expected = [first_row.children[0], first_row.children[1], first_row, tree.children[2], tree]
        assert [id(node) for node in firsts] == [id(node) for node in expected]

    def test_key_holds_text_spans_and_tag(self):
        cells = [cell("a"), cell("b"), cell("a", colspan=2), cell("a", rowspan=2), TableNode("tr", text="a")]
        assert _postorder(row(*cells))[1] == list(range(6))

    def test_blanked_grid_has_three_shapes(self):
        a, _ = _seeded_grid_pair(9)
        _, shapes, _, _ = _postorder(a.blanked())
        assert max(shapes) == 2


_PIN_WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "kappa", "mu")


def _seeded_grid_pair(seed: int, rows: int = 10) -> tuple[TableNode, TableNode]:
    """A table of ``rows`` rows of ten 1-word cells and a copy with one row
    deleted and two cells per remaining row reworded (18 at 10 rows)."""
    rng = random.Random(seed)
    grid = [[rng.choice(_PIN_WORDS) for _ in range(10)] for _ in range(rows)]
    deleted = rng.randrange(rows)
    edited = [list(cells) for r, cells in enumerate(grid) if r != deleted]
    for r, c in rng.sample([(r, c) for r in range(rows - 1) for c in range(10)], 2 * (rows - 1)):
        edited[r][c] = rng.choice(_PIN_WORDS) + " " + rng.choice(_PIN_WORDS)
    return (
        table(*(row(*(cell(text) for text in cells)) for cells in grid)),
        table(*(row(*(cell(text) for text in cells)) for cells in edited)),
    )


def _spanned_pair() -> tuple[TableNode, TableNode]:
    """Tables with a ``thead``, col/row spans and cells longer than a machine word."""
    head = TableNode("thead", children=[row(cell("Quarterly revenue by region", colspan=3))])
    head_edit = TableNode("thead", children=[row(cell("Quarterly revenue per region"),
                                                 cell("", colspan=2))])
    body = TableNode("tbody", children=[
        row(cell("North", rowspan=2), cell("1,204.50"), cell("+3.1%")),
        row(cell("1,180.00"), cell("-0.7%")),
        row(cell("South"), cell("998.25"), cell("+12.4% after the merger with ÉCOLE 𝄞 "
                                                "Holdings, restated for the calendar year")),
    ])
    body_edit = TableNode("tbody", children=[
        row(cell("North"), cell("1,204.50"), cell("+3.1%")),
        row(cell("North"), cell("1,180.00"), cell("-0.7 %")),
        row(cell("South", colspan=2), cell("+12.4% after the merger with ECOLE 𝄞 "
                                           "Holdings, restated for the fiscal year")),
    ])
    return TableNode("table", children=[head, body]), TableNode("table", children=[head_edit, body_edit])


def _repeated_pair() -> tuple[TableNode, TableNode]:
    """Tables with a spanned ``thead`` and repeated filler rows.

    The copy loses one filler row, rewords another and splits a head cell.
    """
    filler = ("-", "0", "N/A")
    head = TableNode("thead", children=[row(cell("Item", rowspan=2), cell("2023", colspan=2)),
                                        row(cell("Q1"), cell("Q2"))])
    body = TableNode("tbody", children=[row(cell("North"), cell("12"), cell("0"))]
                     + [row(*(cell(text) for text in filler)) for _ in range(4)]
                     + [row(cell("Total", colspan=2), cell("12"))])
    head_edit = TableNode("thead", children=[row(cell("Item"), cell("2023", colspan=2)),
                                             row(cell(""), cell("Q1"), cell("Q2"))])
    body_edit = TableNode("tbody", children=[row(cell("North"), cell("12"), cell("-"))]
                          + [row(*(cell(text) for text in filler)) for _ in range(3)]
                          + [row(cell("-"), cell("0"), cell("n/a"))]
                          + [row(cell("Total", colspan=2), cell("12"))])
    return TableNode("table", children=[head, body]), TableNode("table", children=[head_edit, body_edit])


class TestPinnedScores:
    """Exact TEDS and TEDS-S values of fixed pairs, compared with ``==``.

    Any change to the tree edit distance must reproduce these floats bit for
    bit: the cost model and the order in which costs are added are fixed.
    """

    @pytest.mark.parametrize("pair, expected_teds, expected_teds_s", [
        (_seeded_grid_pair(9), 0.7691089941089941, 0.9009009009009009),
        (_spanned_pair(), 0.6311433664374841, 0.6470588235294117),
        ((cell("kitten"), cell("sitting")), 0.5714285714285714, 1.0),
        ((cell("kitten"), cell("kitten", colspan=2)), 0.0, 0.0),
        (_repeated_pair(), 0.8888888888888888, 0.9393939393939394),
    ])
    def test_exact(self, pair, expected_teds, expected_teds_s):
        a, b = pair
        assert teds(a, b) == expected_teds
        assert teds_s(a, b) == expected_teds_s
        assert teds(b, a) == expected_teds


#: Cell texts whose relabel costs are mostly not dyadic fractions (lengths 3,
#: 5, 6, 7, ...), so the float of a sum of costs depends on the order of its
#: additions; with an empty cell, non-BMP characters and cells longer than 64
#: and 128 characters.
_NON_DYADIC_TEXTS = ("", "abc", "abd", "North", "South", "1,204.50", "+3.1 %", "é𝄞x", "kitten", "sitting",
                     "x" * 65 + "y", "x" * 64 + "yz", "restated " * 15, "restated fiscal " * 9)


def test_tree_edit_distance_is_zhang_shasha_bit_for_bit():
    rng = random.Random(20261020)
    pairs = [_seeded_grid_pair(9), _spanned_pair(), _repeated_pair()]
    for make_html in (_random_table_html, _repeated_table_html):
        for _ in range(60):
            pairs.append((parse_table_html(make_html(rng, _NON_DYADIC_TEXTS)),
                          parse_table_html(make_html(rng, _NON_DYADIC_TEXTS))))
    for a, b in pairs:
        for x, y in ((a, b), (b, a), (a.blanked(), b.blanked()), (b.blanked(), a.blanked())):
            assert repr(tree_edit_distance(x, y)) == repr(zhang_shasha_oracle(x, y, relabel_cost_oracle))


def _sectioned_table(rng: random.Random, rows: int, columns: int) -> TableNode:
    """A ``thead`` row over a ``tbody`` of ``rows`` rows, with spans and
    texts whose relabel costs are mostly not dyadic fractions."""
    def cells(tag: str) -> str:
        return "".join(f"<{tag}{_span(rng)}>{rng.choice(_NON_DYADIC_TEXTS)}</{tag}>" for _ in range(columns))

    body = "".join(f"<tr>{cells('td')}</tr>" for _ in range(rows))
    return parse_table_html(f"<table><thead><tr>{cells('th')}</tr></thead><tbody>{body}</tbody></table>")


def _nodes(tree: TableNode) -> list[TableNode]:
    return [tree, *(node for child in tree.children for node in _nodes(child))]


def _mixed_tree(rng: random.Random, depth: int) -> TableNode:
    """A random tree of mixed tags, texts and spans, at most ``depth`` levels deep."""
    node = TableNode(rng.choice(["table", "thead", "tbody", "tr", "td"]), text=rng.choice(_NON_DYADIC_TEXTS),
                     colspan=rng.choice([1, 1, 2]), rowspan=rng.choice([1, 1, 2]))
    if depth > 1:
        node.children = [_mixed_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))]
    return node


def _mixed_pair(rng: random.Random) -> tuple[TableNode, TableNode]:
    """Two mixed-tag trees of depth 5 at most and 60 nodes at most; half the
    time the second is the first with one node relabelled."""
    while True:
        a = _mixed_tree(rng, rng.randint(4, 5))
        if rng.random() < 0.5:
            b = copy.deepcopy(a)
            node = rng.choice(_nodes(b))
            node.tag, node.text = rng.choice(["table", "tr", "td"]), rng.choice(_NON_DYADIC_TEXTS)
        else:
            b = _mixed_tree(rng, rng.randint(4, 5))
        if max(a.size(), b.size()) <= 60:
            return a, b


def test_tree_edit_distance_is_zhang_shasha_bit_for_bit_where_the_band_matters():
    # Every root table is banded: one-cell edits (the band is the diagonal),
    # unrelated tables (a wide band), a body row deleted under a ``thead``
    # (matching rows by position would be loose), mixed-tag trees of depth 5
    # at most, and tiny tables: a lone ``table`` against a lone ``table`` and
    # a ``td``, a 2x2 table against a reworded copy, and empty cells.
    rng = random.Random(20261021)
    grid = table(row(cell("North"), cell("1,204.50")), row(cell("South"), cell("+3.1 %")))
    reworded = table(row(cell("North"), cell("1,204.05")), row(cell("Sooth"), cell("+3.1 %")))
    empty = table(row(cell(""), cell("")), row(cell("")))
    pairs = [(TableNode("table"), TableNode("table")), (TableNode("table"), TableNode("td")),
             (grid, reworded), (grid, empty), (empty, table(row(cell("abc"), cell(""))))]
    for _ in range(5):
        a = _sectioned_table(rng, rng.randint(5, 8), rng.randint(3, 4))
        edited = copy.deepcopy(a)
        rng.choice([node for node in _nodes(edited) if node.tag == "td"]).text = rng.choice(_NON_DYADIC_TEXTS)
        shorter = copy.deepcopy(a)
        body = shorter.children[1].children
        del body[rng.randrange(len(body))]
        unrelated = _sectioned_table(rng, rng.randint(5, 8), rng.randint(1, 4))
        pairs += [(a, edited), (a, shorter), (a, unrelated), _mixed_pair(rng), _mixed_pair(rng)]
    for a, b in pairs:
        for x, y in ((a, b), (b, a), (a.blanked(), b.blanked()), (b.blanked(), a.blanked())):
            assert repr(tree_edit_distance(x, y)) == repr(zhang_shasha_oracle(x, y, relabel_cost_oracle))


def _mapping_bound(a: TableNode, b: TableNode) -> float:
    _, a_shapes, a_firsts, a_kids = _postorder(a)
    _, b_shapes, b_firsts, b_kids = _postorder(b)
    return _mapping_cost(a_shapes[-1], b_shapes[-1], a_kids, b_kids, _relabel_costs(a_firsts, b_firsts), {})


def _trees(texts: Sequence[str]):
    def node(children):
        return st.builds(TableNode, tag=st.sampled_from(["table", "tbody", "tr", "td"]), text=st.sampled_from(texts),
                         colspan=st.sampled_from([1, 1, 2]), children=children)

    return st.recursive(node(st.just([])), lambda kids: node(st.lists(kids, max_size=4)), max_leaves=14)


class TestMappingCost:
    """``_mapping_cost``, the upper bound that sets the root table's band."""

    @settings(max_examples=150, deadline=None)
    @given(_trees(_DYADIC_TEXTS), _trees(_DYADIC_TEXTS))
    def test_bounds_the_distance(self, a, b):
        # Dyadic costs add exactly in any order.
        assert _mapping_bound(a, b) >= zhang_shasha_oracle(a, b, relabel_cost_oracle)

    @settings(max_examples=150, deadline=None)
    @given(_trees(_NON_DYADIC_TEXTS), _trees(_NON_DYADIC_TEXTS))
    def test_bounds_the_distance_within_the_rounding_margin(self, a, b):
        margin = (a.size() + b.size()) * 2.0**-50
        assert _mapping_bound(a, b) * (1.0 + margin) >= zhang_shasha_oracle(a, b, relabel_cost_oracle)

    @given(_trees(_NON_DYADIC_TEXTS))
    def test_equal_trees_cost_nothing(self, a):
        assert _mapping_bound(a, a) == 0.0
        assert _mapping_bound(a, copy.deepcopy(a)) == 0.0

    def test_aligns_rows_around_a_deleted_one(self):
        # Matching rows by position would reword every row after the gap.
        a = table(*(row(cell(text), cell("x")) for text in ("abc", "North", "South", "kitten")))
        b = table(*(row(cell(text), cell("x")) for text in ("abc", "South", "kitten")))
        assert _mapping_bound(a, b) == 3.0


class TestTeds:
    def test_self_similarity(self):
        t = table(row(cell("a"), cell("b")), row(cell("c"), cell("d")))
        assert teds(t, t) == 1.0

    def test_two_vs_one_node(self):
        parent = TableNode("table", children=[TableNode("tr")])
        alone = TableNode("table")
        assert teds(parent, alone) == pytest.approx(0.5)

    def test_disjoint_single_nodes(self):
        assert teds(TableNode("table"), TableNode("div")) == 0.0

    def test_symmetry(self):
        a = table(row(cell("a")))
        b = table(row(cell("b"), cell("c")))
        assert teds(a, b) == pytest.approx(teds(b, a))

    def test_range(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b = _random_tree(rng), _random_tree(rng)
            assert 0.0 <= teds(a, b) <= 1.0


class TestTedsMemory:
    def test_no_reference_cycle_outlives_a_call(self):
        # A cycle would keep the call's tables alive until the next cyclic
        # collection, so they would add up across the calls of an evaluation.
        a, b = _seeded_grid_pair(9)
        gc.collect()
        teds(a, b)
        teds_s(a, b)
        assert gc.collect() == 0

    def test_peak_of_a_60_row_table(self):
        a, b = _seeded_grid_pair(9, rows=60)
        tracemalloc.start()
        try:
            teds(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 5.46 MB measured under CPython 3.11 (no other version was measured),
        # most of it the rows of the banded 661 x 650 root table; 14.4 MB
        # under CPython 3.10-3.13 when that table was filled in full.
        assert peak < 8_000_000


class TestTedsS:
    def test_structure_only_ignores_text(self):
        a = table(row(cell("alpha"), cell("beta")))
        b = table(row(cell("gamma"), cell("delta")))
        assert teds_s(a, b) == 1.0
        assert teds(a, b) < 1.0

    def test_self(self):
        t = table(row(cell("a")))
        assert teds_s(t, t) == 1.0

    def test_equals_teds_on_blanked(self):
        a = table(row(cell("a")))
        b = table(row(cell("b")), row(cell("c")))
        assert teds_s(a, b) == pytest.approx(teds(a.blanked(), b.blanked()))

    def test_invariant_under_text_mutation(self):
        rng = random.Random(99)
        for _ in range(50):
            a, b = _random_tree(rng), _random_tree(rng)
            base = teds_s(a, b)
            mutated = a.blanked()

            def scribble(node):
                node.text = "zz"
                for child in node.children:
                    scribble(child)

            scribble(mutated)
            assert teds_s(mutated, b) == pytest.approx(base)


def _write_doc(path, elements):
    path.write_text(json.dumps({"elements": elements}), encoding="utf-8")
    return path


def _layout_elements():
    return [
        {
            "category": "Paragraph",
            "coordinates": [[0, 0], [10, 0], [10, 10], [0, 10]],
            "id": 0,
            "page": 1,
            "content": {"text": "hello world"},
        },
        {
            "category": "Heading1",
            "coordinates": [[0, 20], [10, 20], [10, 30], [0, 30]],
            "id": 1,
            "page": 1,
            "content": {"text": "a heading"},
        },
    ]


def _table_element(html, box=(0, 0, 10, 10), element_id=0, page=1):
    left, top, right, bottom = box
    return {
        "category": "Table",
        "coordinates": [[left, top], [right, top], [right, bottom], [left, bottom]],
        "id": element_id,
        "page": page,
        "content": {"text": "", "html": html},
    }


class TestEvaluate:
    def test_self_evaluation_layout(self, tmp_path):
        ref = _write_doc(tmp_path / "ref.json", _layout_elements())
        report = evaluate(ref, ref, "layout")
        assert report.mean_nid == 1.0
        assert report.evaluated == 1

    def test_self_evaluation_table(self, tmp_path):
        html = "<table><tr><td>a</td><td>b</td></tr></table>"
        ref = _write_doc(tmp_path / "ref.json", [_table_element(html)])
        report = evaluate(ref, ref, "table")
        assert report.mean_teds == 1.0
        assert report.mean_teds_s == 1.0

    def test_missing_table_scores_zero(self, tmp_path):
        html = "<table><tr><td>a</td></tr></table>"
        ref = _write_doc(
            tmp_path / "ref.json",
            [_table_element(html, (0, 0, 10, 10), 0), _table_element(html, (0, 20, 10, 30), 1)],
        )
        pred = _write_doc(tmp_path / "pred.json", [_table_element(html, (0, 0, 10, 10), 0)])
        report = evaluate(ref, pred, "table")
        assert report.evaluated == 2
        assert report.mean_teds == pytest.approx(0.5)

    def test_empty_prediction_layout(self, tmp_path):
        ref = _write_doc(tmp_path / "ref.json", _layout_elements())
        pred = _write_doc(tmp_path / "pred.json", [])
        report = evaluate(ref, pred, "layout")
        assert report.mean_nid == 0.0

    def test_layout_only_files_in_table_mode(self, tmp_path):
        ref = _write_doc(tmp_path / "ref.json", _layout_elements())
        report = evaluate(ref, ref, "table")
        assert report.evaluated == 0
        assert report.skipped == 1
        assert report.mean_teds is None

    def test_missing_file_errors(self, tmp_path):
        ref = _write_doc(tmp_path / "ref.json", [])
        with pytest.raises(EvaluationError, match="not found"):
            evaluate(ref, tmp_path / "absent.json", "layout")

    def test_malformed_file_names_file(self, tmp_path):
        ref = _write_doc(tmp_path / "ref.json", [])
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(EvaluationError, match="bad.json"):
            evaluate(ref, bad, "layout")

    @pytest.mark.parametrize("mode", ["layout", "table"])
    @pytest.mark.parametrize(
        "element, field",
        [
            (5, ""),
            ("Paragraph", ""),
            ({"category": "Paragraph", "content": "hello"}, ".content"),
            ({"category": "Paragraph", "content": None}, ".content"),
            ({"category": ["Table"], "content": {"text": "x"}}, ".category"),
            # A page is a positive integer and an id an integer or a non-empty string.
            ({"category": "Table", "page": "1"}, ".page"),
            ({"category": "Table", "page": True}, ".page"),
            ({"category": "Table", "page": 0}, ".page"),
            ({"category": "Table", "page": 1.0}, ".page"),
            ({"category": "Table", "id": True}, ".id"),
            ({"category": "Table", "id": ""}, ".id"),
            ({"category": "Table", "id": 1.5}, ".id"),
            ({"category": "Paragraph", "id": ["a"]}, ".id"),
        ],
    )
    def test_malformed_element_names_file_and_index(self, tmp_path, mode, element, field):
        ref = _write_doc(tmp_path / "ref.json", _layout_elements())
        bad = _write_doc(tmp_path / "bad.json", _layout_elements() + [element])
        index = len(_layout_elements())
        with pytest.raises(EvaluationError, match=rf"bad\.json: elements\[{index}\]{field} must be"):
            evaluate(ref, bad, mode)

    def test_directory_mode(self, tmp_path):
        ref_dir = tmp_path / "ref"
        pred_dir = tmp_path / "pred"
        ref_dir.mkdir()
        pred_dir.mkdir()
        _write_doc(ref_dir / "a.json", _layout_elements())
        _write_doc(pred_dir / "a.json", _layout_elements())
        _write_doc(ref_dir / "b.json", _layout_elements())
        _write_doc(pred_dir / "b.json", [])
        report = evaluate(ref_dir, pred_dir, "layout")
        assert report.evaluated == 2
        assert report.mean_nid == pytest.approx(0.5)

    def test_loader_returns_checked_records(self, tmp_path):
        table = _table_element("  ", (1, 2.5, 30, 40), element_id="t-1", page=3)
        untitled = {"category": "Table", "content": {"text": None, "html": "<table></table>"}}
        path = _write_doc(tmp_path / "doc.json", _layout_elements()[:1] + [table, untitled, {}])
        assert _load_dpbench_file(path) == [
            DPBenchElement("Paragraph", 1, 0, BBox(0, 0, 10, 10), "hello world", None),
            DPBenchElement("Table", 3, "t-1", BBox(1, 2.5, 30, 40), "", None),
            # Without an id, a table is named by its position among the tables.
            DPBenchElement("Table", None, 1, None, "", "<table></table>"),
            DPBenchElement(None, None, 2, None, "", None),
        ]

    @pytest.mark.parametrize("first, second", [(1, 1), (1, "1"), (None, 0), ("t", "t")])
    def test_tables_sharing_a_sample_id_rejected(self, tmp_path, first, second):
        html = "<table><tr><td>a</td></tr></table>"
        path = _write_doc(
            tmp_path / "ref.json",
            [
                _table_element(html, element_id=first),
                {"category": "Paragraph", "id": second, "content": {"text": "a"}},
                _table_element(html, (0, 20, 10, 30), element_id=second),
            ],
        )
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(path, path, "table")
        assert str(excinfo.value) == (
            f"{path}: elements[2].id: the sample id '#table{second}' is already that of elements[0]"
        )

    def test_null_id_names_a_table_by_position(self, tmp_path):
        html = "<table><tr><td>a</td></tr></table>"
        path = _write_doc(
            tmp_path / "ref.json",
            [_table_element(html, element_id=None), _table_element(html, (0, 20, 10, 30), element_id=None)],
        )
        report = evaluate(path, path, "table")
        assert [sample["sample_id"] for sample in report.samples] == ["ref#table0", "ref#table1"]

    @pytest.mark.parametrize("side", ["reference", "prediction", "both"])
    @pytest.mark.parametrize("coordinates", ["missing", None])
    def test_table_without_coordinates_is_unmatched(self, tmp_path, side, coordinates):
        html = "<table><tr><td>a</td></tr></table>"
        boxless = _table_element(html)
        if coordinates == "missing":
            del boxless["coordinates"]
        else:
            boxless["coordinates"] = None
        ref = _write_doc(tmp_path / "ref.json", [boxless if side != "prediction" else _table_element(html)])
        pred = _write_doc(tmp_path / "pred.json", [boxless if side != "reference" else _table_element(html)])
        assert _load_dpbench_file(ref if side != "prediction" else pred)[0].box is None
        report = evaluate(ref, pred, "table")
        assert report.to_dict()["samples"] == [{"sample_id": "ref#table0", "teds": 0.0, "teds_s": 0.0}]
        assert report.skipped == 0

    def test_table_matching_by_iou(self, tmp_path):
        good = "<table><tr><td>a</td></tr></table>"
        bad = "<table><tr><td>zzz</td></tr><tr><td>qqq</td></tr></table>"
        ref = _write_doc(tmp_path / "ref.json", [_table_element(good, (0, 0, 10, 10))])
        # prediction has a far table (poor IoU candidate on same page) and an
        # overlapping one; the overlapping one must be chosen
        pred = _write_doc(
            tmp_path / "pred.json",
            [
                _table_element(bad, (500, 500, 600, 600), 0),
                _table_element(good, (0, 0, 10, 11), 1),
            ],
        )
        report = evaluate(ref, pred, "table")
        assert report.mean_teds == 1.0


class TestLevenshtein:
    def test_examples(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "abc") == 0

    @given(short_text, short_text)
    def test_matches_row_dp_oracle(self, a, b):
        assert levenshtein(a, b) == levenshtein_oracle(a, b)
        assert levenshtein(b, a) == levenshtein_oracle(a, b)

    @settings(max_examples=60, deadline=None)
    @given(long_pairs())
    @example(("ab𝄞" * 30, "b𝄞a" * 25))
    @example(("", "é𝄞" * 40))
    @example(("c𝄞a", "abc é€𝄞" * 20))
    def test_matches_row_dp_oracle_beyond_one_machine_word(self, pair):
        a, b = pair
        assert levenshtein(a, b) == levenshtein_oracle(a, b)
        assert levenshtein(b, a) == levenshtein_oracle(a, b)


#: Lane texts up to 90 characters over an alphabet with non-BMP characters.
lane_text = st.text(alphabet=long_alphabet, max_size=90)


class TestLanes:
    """``_Lanes`` against the row DP: every lane's distance is exact."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.lists(lane_text, min_size=1, max_size=1),
                     st.lists(lane_text, min_size=2, max_size=8),
                     st.lists(st.text(alphabet=long_alphabet, max_size=12), min_size=40, max_size=48)),
           lane_text)
    @example(["", "abc", ""], "")
    @example(["", "abc", ""], "cab")
    @example(["ab𝄞" * 30, "", "b𝄞a" * 25], "é𝄞" * 40)
    @example(["a" * 65, "a" * 65], "a" * 66)
    @example([""] * 41 + ["€"], "€")
    @example(["a" * 64, "ab" * 32, "a"], "a" * 64)
    @example(["b𝄞a" * 43 + "é", "", "é𝄞" * 65, "c"], "ab𝄞" * 30)
    def test_matches_row_dp_oracle(self, texts, a):
        assert _Lanes(texts).distances(a) == [levenshtein_oracle(a, text) for text in texts]

    def test_carry_does_not_cross_lanes(self):
        # Each lane's addition carries out of its top bit; without a guard
        # bit above every lane, the carry would change the next lane.
        texts = ["aaaa", "b", "aaaa", "ab", ""]
        assert _Lanes(texts).distances("aaaa") == [0, 4, 0, 3, 4]

    def test_relabel_cost_is_the_matrix_entry(self):
        assert relabel_cost(cell("kitten"), cell("sitting")) == 3 / 7
        assert relabel_cost(cell(""), cell("")) == 0.0
        assert relabel_cost(cell(""), cell("ab")) == 1.0
        assert relabel_cost(cell("ab", colspan=2), cell("ab")) == 1.0
        assert relabel_cost(row(), row()) == 0.0
        assert relabel_cost(row(), cell("")) == 1.0
