"""The header/footer barrier against its brute-force oracle, its documented
invariants, the edges of its length window, its segment filter, and its
comparison count."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_entity, layout_detection
from docweave import assembly
from docweave.assembly import (
    AssemblyParams,
    HeaderFooterParams,
    assemble_page,
    correct_headers_footers,
    fuzzy_ratio,
)
from docweave.metrics import indel_distance
from docweave.model import ElementLabel
from oracles import header_footer_oracle, page_to_dict

PARAMS = AssemblyParams()
ALPHABET = "abcd "
LABELS = ("text", "title", "list_item", "section", "page_header", "page_footer", "table")
TOPS = (0.0, 20.0, 90.0, 150.0, 500.0, 880.0, 950.0)
# Weighted to 80-100, where two texts of up to 70 characters have distance
# bounds of at most 27 and the segment filter has segments to look up.
THRESHOLDS = st.sampled_from((1, 94, 95, 96, 100)) | st.integers(80, 100) | st.integers(1, 100)


@st.composite
def edits(draw, bases, max_edits=6):
    """A base string changed by up to ``max_edits`` insertions, deletions or
    substitutions. Two texts of up to 70 characters have distance bounds of
    at most 6 at thresholds 95-100, so six edits put pairs on both sides."""
    text = draw(st.sampled_from(bases))
    for _ in range(draw(st.integers(0, max_edits))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(ALPHABET))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            text = text[:i] + ch + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + ch + text[i + 1 :]
    return text


@st.composite
def documents(draw):
    """1-5 assembled pages whose texts are a few edits away from shared bases."""
    bases = draw(st.lists(st.text(ALPHABET, min_size=1, max_size=70), min_size=1, max_size=3))
    pages = []
    for number in range(1, draw(st.integers(1, 5)) + 1):
        entities = []
        for i in range(draw(st.integers(0, 6))):
            top = draw(st.sampled_from(TOPS))
            entities.append(
                build_entity(
                    f"p{number}e{i}",
                    draw(st.sampled_from(LABELS)),
                    (40.0 * i, top, 40.0 * i + 100, top + 30),
                    text=draw(st.just("") | edits(bases)),
                )
            )
        regions = [layout_detection("group", (0, 100, 1000, 900))] if draw(st.booleans()) else []
        pages.append(assemble_page(number, regions, entities, PARAMS))
    heights = draw(st.sampled_from((None, 1000.0)))
    return pages, heights and {page.page_number: heights for page in pages}


def _dump(pages) -> str:
    return json.dumps([page_to_dict(page) for page in pages])


@settings(max_examples=300, deadline=None)
@given(documents(), THRESHOLDS)
def test_matches_brute_force_oracle(document, threshold):
    pages, heights = document
    params = HeaderFooterParams(fuzzy_threshold=threshold)
    expected = header_footer_oracle(pages, params, heights)
    assert _dump(correct_headers_footers(pages, params, heights)) == _dump(expected)


@settings(max_examples=150, deadline=None)
@given(documents(), THRESHOLDS)
def test_idempotent(document, threshold):
    pages, heights = document
    params = HeaderFooterParams(fuzzy_threshold=threshold)
    once = correct_headers_footers(pages, params, heights)
    assert _dump(correct_headers_footers(once, params, heights)) == _dump(once)


@settings(max_examples=150, deadline=None)
@given(documents(), THRESHOLDS)
def test_partition(document, threshold):
    pages, heights = document
    corrected = correct_headers_footers(
        pages, HeaderFooterParams(fuzzy_threshold=threshold), heights
    )
    for before, page in zip(pages, corrected):
        grouped = [eid for group in page.groups for eid in group.ids]
        assert sorted(grouped + list(page.non_groups)) == sorted(page.elements)
        assert sorted(page.elements) == sorted(before.elements)
        assert list(page.non_groups) == [eid for eid in page.elements if eid not in set(grouped)]
        assert all(
            page.elements[eid].type not in (ElementLabel.PAGE_HEADER, ElementLabel.PAGE_FOOTER)
            for eid in grouped
        )


@pytest.fixture
def ratio_calls(monkeypatch):
    """Counts calls of ``assembly.fuzzy_ratio`` made by the barrier."""
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return fuzzy_ratio(a, b)

    monkeypatch.setattr(assembly, "fuzzy_ratio", counted)
    return calls


def _header_and_stray(header_text, stray_text):
    header = build_entity("h1", "page_header", (0, 0, 100, 20), text=header_text)
    stray = build_entity("t2", "text", (0, 0, 100, 20), text=stray_text)
    return [assemble_page(1, [], [header], PARAMS), assemble_page(2, [], [stray], PARAMS)]


BASE = "abcdefghij" * 2  # 20 characters


@pytest.mark.parametrize(
    "header_text, stray_text",
    [(BASE, BASE + "x"), (BASE + "x", BASE)],
    ids=["longer-stray", "shorter-stray"],
)
def test_one_length_step_inside_window_relabels(ratio_calls, header_text, stray_text):
    # Lengths 20 and 21: the length bound is round(100 * (1 - 1/41)) = 98.
    assert assembly._ratio(1, 41) == 98
    assert fuzzy_ratio(header_text, stray_text) == 98
    corrected = correct_headers_footers(
        _header_and_stray(header_text, stray_text), HeaderFooterParams(fuzzy_threshold=95)
    )
    assert corrected[1].elements["t2"].type is ElementLabel.PAGE_HEADER
    assert ratio_calls == [(stray_text, header_text)]


@pytest.mark.parametrize(
    "header_text, stray_text",
    [(BASE, BASE + "xy"), (BASE + "xy", BASE)],
    ids=["longer-stray", "shorter-stray"],
)
def test_first_excluded_length_is_skipped(ratio_calls, header_text, stray_text):
    # Lengths 20 and 22: the bound round(100 * (1 - 2/42)) = 95 equals the
    # true ratio, which is not above the threshold, so no comparison is made.
    assert assembly._ratio(2, 42) == 95
    assert fuzzy_ratio(header_text, stray_text) == 95
    corrected = correct_headers_footers(
        _header_and_stray(header_text, stray_text), HeaderFooterParams(fuzzy_threshold=95)
    )
    assert corrected[1].elements["t2"].type is ElementLabel.TEXT
    assert ratio_calls == []


def test_comparisons_limited_to_length_window(ratio_calls):
    header_text = "ACME Corp Annual Report 2025"
    pages = []
    for number in range(1, 41):
        entities = [
            build_entity(
                f"p{number}-header",
                "text" if number % 3 == 0 else "page_header",
                (60, 20, 740, 50),
                text=header_text,
            ),
            build_entity(
                f"p{number}-footer", "page_footer", (60, 950, 740, 975),
                text=f"Page {number} of 40",
            ),
        ]
        for i in range(10):
            top = 100 + 60 * i
            text = f"Body paragraph {i} of page {number} in the annual report"
            assert len(text) >= 40
            entities.append(
                build_entity(f"p{number}-b{i}", "text", (60, top, 740, top + 40), text=text)
            )
        pages.append(assemble_page(number, [], entities, PARAMS))

    corrected = correct_headers_footers(pages, HeaderFooterParams())
    strays = [page for page in corrected if page.page_number % 3 == 0]
    assert len(strays) == 13
    assert all(
        page.elements[f"p{page.page_number}-header"].type is ElementLabel.PAGE_HEADER
        for page in strays
    )
    assert len(ratio_calls) == 13


@pytest.mark.parametrize("total, bound", [(22, 0), (23, 1), (44, 1), (45, 2)])
def test_distance_bound_steps_at_threshold_95(total, bound):
    assert assembly._distance_bound(total, 95) == bound


def _relabeled(header_text, stray_text):
    corrected = correct_headers_footers(
        _header_and_stray(header_text, stray_text), HeaderFooterParams(fuzzy_threshold=95)
    )
    return corrected[1].elements["t2"].type is ElementLabel.PAGE_HEADER


ELEVEN = "Annual sums"  # 11 characters


@pytest.mark.parametrize(
    "header_text, stray_text, matches",
    [
        (ELEVEN, ELEVEN, True),  # T = 22, distance 0
        (ELEVEN, "Annual sumz", False),  # T = 22, distance 2 > k = 0
        (ELEVEN[:-1], ELEVEN, False),  # T = 21, distance 1 > k = 0
        (ELEVEN, ELEVEN[:6] + "x" + ELEVEN[6:], True),  # T = 23, distance 1 = k
    ],
    ids=["T22-identical", "T22-substitution", "T21-deletion", "T23-insertion"],
)
def test_distance_bound_boundaries_at_22_and_23(header_text, stray_text, matches):
    assert _relabeled(header_text, stray_text) is matches


TWENTY_TWO = BASE + "kl"


@pytest.mark.parametrize(
    "header_text, stray_text, matches",
    [
        (TWENTY_TWO, TWENTY_TWO[:-1] + "z", False),  # T = 44, distance 2 > k = 1
        (TWENTY_TWO + "m", TWENTY_TWO + "z", True),  # T = 46, distance 2 = k
    ],
    ids=["T44", "T46"],
)
def test_equal_length_substitution_matches_from_45(header_text, stray_text, matches):
    assert _relabeled(header_text, stray_text) is matches


@pytest.mark.parametrize(
    "header_text, stray_text, k",
    [
        (BASE[:11] + "#", BASE[:11] + "#" + BASE[11], 1),  # candidate one shorter
        (BASE[:6] + "#" + BASE[6:12], BASE[:12], 1),  # candidate one longer
        (TWENTY_TWO + "m", TWENTY_TWO + "z", 2),  # equal lengths, one substitution
    ],
    ids=["shorter-candidate", "longer-candidate", "k2-equal-length"],
)
def test_filter_never_compares_a_decoy_that_differs_in_every_segment(
    ratio_calls, header_text, stray_text, k
):
    # Page 1's decoy headers have the header's length and come first in the
    # index, but a digit, which the stray text lacks, sits in each of their
    # k + 1 segments, so no segment of theirs is found in the stray text.
    length = len(header_text)
    assert assembly._distance_bound(length + len(stray_text), 95) == k
    decoys = []
    for d in range(5):
        text = list(header_text)
        for i in range(k + 1):
            text[i * length // (k + 1) + 1] = str(d)
        decoys.append(build_entity(f"d{d}", "page_header", (0, 30 * d, 100, 30 * d + 20),
                                   text="".join(text)))
    header = build_entity("h1", "page_header", (0, 300, 100, 320), text=header_text)
    pages = _header_and_stray(header_text, stray_text)
    pages[0] = assemble_page(1, [], [header, *decoys], PARAMS)
    corrected = correct_headers_footers(pages, HeaderFooterParams(fuzzy_threshold=95))
    assert corrected[1].elements["t2"].type is ElementLabel.PAGE_HEADER
    assert ratio_calls == [(stray_text, header_text)]


@settings(max_examples=300, deadline=None)
@given(st.text(ALPHABET, min_size=1, max_size=70).flatmap(
    lambda base: st.lists(edits([base], max_edits=8), min_size=2, max_size=6)
))
def test_near_keeps_every_candidate_within_the_bound(texts):
    # For every k at least a candidate's indel distance to the query, the
    # filter returns that candidate, whatever else it returns.
    query, *others = texts
    by_length = {}
    for text in filter(None, others):
        by_length.setdefault(len(text), {})[text] = {1}
    candidates = assembly._Candidates(by_length)
    for text in filter(None, others):
        distance = indel_distance(query, text)
        for k in range(distance, distance + 3):
            assert text in set(candidates.near(query, len(text), k)), (text, k)


@pytest.mark.parametrize("second_text", ["Alpha reports", "Alpha report"], ids=["new-text", "new-page"])
def test_match_found_only_by_second_pass(second_text):
    # Pass 1: page 1's text sees its own footer only; page 2's text matches
    # page 1's footer. Pass 2: page 1's text matches page 2's new footer, a
    # new text, or the same text now also from page 2.
    def page(number, entities):
        return assemble_page(
            number,
            [],
            [build_entity(eid, label, (0, top, 300, top + 20), text=text)
             for eid, label, top, text in entities],
            PARAMS,
        )

    pages = [
        page(1, [("f1", "page_footer", 950, "Alpha report"), ("t1", "text", 900, "Alpha report")]),
        page(2, [("t2", "text", 900, second_text)]),
    ]
    params = HeaderFooterParams(fuzzy_threshold=95)
    heights = {1: 1000.0, 2: 1000.0}
    corrected = correct_headers_footers(pages, params, heights)
    assert corrected[0].elements["t1"].type is ElementLabel.PAGE_FOOTER
    assert corrected[1].elements["t2"].type is ElementLabel.PAGE_FOOTER
    assert _dump(corrected) == _dump(header_footer_oracle(pages, params, heights))


def test_empty_footer_at_top_swapped_without_candidates():
    footer = build_entity("f1", "page_footer", (0, 10, 300, 30), text="")
    body = build_entity("t1", "text", (0, 200, 300, 230), text="Some body text")
    pages = [assemble_page(1, [], [footer, body], PARAMS)]
    corrected = correct_headers_footers(pages, HeaderFooterParams(), {1: 1000.0})
    assert corrected[0].elements["f1"].type is ElementLabel.PAGE_HEADER
    assert list(corrected[0].elements) == ["f1", "t1"]


def _report_shaped(page_count):
    """A running header (a text every third page), "Page p of N" footers and
    20 texts of 1-4 short words per page."""
    rng = random.Random(page_count)
    vocabulary = ["ba", "cedo", "fi", "gamo", "la", "mune", "pori", "sa", "tu", "vize", "zo", "kal"]
    pages = []
    for number in range(1, page_count + 1):
        entities = [
            build_entity(f"p{number}-h", "text" if number % 3 == 0 else "page_header",
                         (60, 20, 740, 50), text="ACME Corp Annual Report 2025"),
            build_entity(f"p{number}-f", "page_footer", (60, 950, 740, 975),
                         text=f"Page {number} of {page_count}"),
        ]
        for i in range(20):
            text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 4)))
            top = 80 + 40 * i
            entities.append(build_entity(f"p{number}-e{i}", "text", (60, top, 740, top + 30),
                                         text=text))
        pages.append(assemble_page(number, [], entities, PARAMS))
    return pages


def _long_footer_shaped(page_count):
    """A 46-character footer naming its page (a text every third page) and 10
    texts of 4-8 words per page, none of them a word of the footer: the
    footers' lengths sum to 92, a window of distance bound 4 at threshold 95,
    and many bodies fall in it."""
    rng = random.Random(page_count)
    vocabulary = ["revenue", "growth", "segment", "margin", "operating", "total", "net",
                  "income", "quarter", "region", "market", "share", "cost", "outlook", "capital"]
    pages = []
    for number in range(1, page_count + 1):
        entities = [
            build_entity(f"p{number}-f", "text" if number % 3 == 0 else "page_footer",
                         (60, 950, 740, 975),
                         text=f"ACME Corp confidential annual report, page {number:03d}"),
        ]
        for i in range(10):
            text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(4, 8)))
            top = 80 + 60 * i
            entities.append(build_entity(f"p{number}-e{i}", "text", (60, top, 740, top + 40),
                                         text=text))
        pages.append(assemble_page(number, [], entities, PARAMS))
    return pages


def test_comparisons_grow_linearly_in_pages(ratio_calls):
    counts = {}
    for page_count in (25, 50, 100, 200):
        ratio_calls.clear()
        correct_headers_footers(_report_shaped(page_count), HeaderFooterParams())
        counts[page_count] = len(ratio_calls)
    assert counts[25] > 0
    for page_count in (50, 100, 200):
        assert counts[page_count] <= 2.3 * counts[page_count // 2], counts


def test_comparisons_grow_linearly_with_long_footers(ratio_calls):
    # Comparing every body in the window with every footer grows about 4x
    # per doubling here; the segment filter compares only the strays.
    counts = {}
    for page_count in (25, 50, 100, 200):
        ratio_calls.clear()
        correct_headers_footers(_long_footer_shaped(page_count), HeaderFooterParams())
        counts[page_count] = len(ratio_calls)
    assert counts[25] > 0
    for page_count in (50, 100, 200):
        assert counts[page_count] <= 2.3 * counts[page_count // 2], counts
