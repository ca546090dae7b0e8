"""The header/footer barrier against its brute-force oracle, its documented
invariants, the edges of its length window, and its comparison count."""

import json

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
from docweave.model import ElementLabel, SchemaWeights
from oracles import header_footer_oracle, page_to_dict

SCHEMA = SchemaWeights()
PARAMS = AssemblyParams()
ALPHABET = "ab "
LABELS = ("text", "title", "list_item", "section", "page_header", "page_footer", "table")
TOPS = (0.0, 20.0, 90.0, 150.0, 500.0, 880.0, 950.0)
THRESHOLDS = st.sampled_from((1, 94, 95, 96, 100)) | st.integers(1, 100)


@st.composite
def one_edit(draw, bases):
    """A base string, kept or changed by one insertion, deletion or substitution."""
    text = draw(st.sampled_from(bases))
    i = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from(ALPHABET))
    edit = draw(st.sampled_from(("keep", "insert", "delete", "replace")))
    if edit == "insert":
        return text[:i] + ch + text[i:]
    if edit == "delete":
        return text[:i] + text[i + 1 :]
    if edit == "replace":
        return text[:i] + ch + text[i + 1 :]
    return text


@st.composite
def documents(draw):
    """1-5 assembled pages whose texts are one edit away from shared bases."""
    bases = draw(st.lists(st.text(ALPHABET, min_size=1, max_size=30), min_size=1, max_size=3))
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
                    text=draw(st.just("") | one_edit(bases)),
                    schema=SCHEMA,
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
    expected = header_footer_oracle(pages, params, SCHEMA, heights)
    assert _dump(correct_headers_footers(pages, params, SCHEMA, heights)) == _dump(expected)


@settings(max_examples=150, deadline=None)
@given(documents(), THRESHOLDS)
def test_idempotent(document, threshold):
    pages, heights = document
    params = HeaderFooterParams(fuzzy_threshold=threshold)
    once = correct_headers_footers(pages, params, SCHEMA, heights)
    assert _dump(correct_headers_footers(once, params, SCHEMA, heights)) == _dump(once)


@settings(max_examples=150, deadline=None)
@given(documents(), THRESHOLDS)
def test_partition(document, threshold):
    pages, heights = document
    corrected = correct_headers_footers(
        pages, HeaderFooterParams(fuzzy_threshold=threshold), SCHEMA, heights
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
    header = build_entity("h1", "page_header", (0, 0, 100, 20), text=header_text, schema=SCHEMA)
    stray = build_entity("t2", "text", (0, 0, 100, 20), text=stray_text, schema=SCHEMA)
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
        _header_and_stray(header_text, stray_text), HeaderFooterParams(fuzzy_threshold=95), SCHEMA
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
        _header_and_stray(header_text, stray_text), HeaderFooterParams(fuzzy_threshold=95), SCHEMA
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
                schema=SCHEMA,
            ),
            build_entity(
                f"p{number}-footer", "page_footer", (60, 950, 740, 975),
                text=f"Page {number} of 40", schema=SCHEMA,
            ),
        ]
        for i in range(10):
            top = 100 + 60 * i
            text = f"Body paragraph {i} of page {number} in the annual report"
            assert len(text) >= 40
            entities.append(
                build_entity(f"p{number}-b{i}", "text", (60, top, 740, top + 40), text=text, schema=SCHEMA)
            )
        pages.append(assemble_page(number, [], entities, PARAMS))

    corrected = correct_headers_footers(pages, HeaderFooterParams(), SCHEMA)
    strays = [page for page in corrected if page.page_number % 3 == 0]
    assert len(strays) == 13
    assert all(
        page.elements[f"p{page.page_number}-header"].type is ElementLabel.PAGE_HEADER
        for page in strays
    )
    assert len(ratio_calls) == 13
