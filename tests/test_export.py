import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURE_DIR, build_entity
from docweave.export import (
    DPBENCH_CATEGORY,
    _page_header_blocks,
    extract_list_items,
    fnv1a_64,
    to_chunks_jsonl,
    to_dpbench_json,
    to_graph_json,
    to_markdown,
)
from docweave.model import (
    DocumentResult,
    ElementLabel,
    PageResult,
)
from oracles import chunk_dedupe_oracle, chunks_to_dicts


def chunk_records(doc):
    """The records of the chunks file. It is split on ``"\\n"`` alone:
    ``str.splitlines`` also splits at U+2028 and U+0085, which JSON leaves raw."""
    *lines, last = to_chunks_jsonl(doc).split("\n")
    assert last == ""
    return [json.loads(line) for line in lines]


def graph_records(doc):
    graph = json.loads(to_graph_json(doc))
    return graph["nodes"], graph["edges"]


def dpbench_records(doc):
    return json.loads(to_dpbench_json(doc))["elements"]


def make_doc(entities_per_page, filename="doc.pdf", category="uncategorized", skipped=()):
    pages = []
    for number, entities in enumerate(entities_per_page, start=1):
        pages.append(
            PageResult(
                page_number=number,
                elements={e.id: e for e in entities},
                groups=(),
                skipped_images=tuple(skipped) if number == 1 else (),
            )
        )
    return DocumentResult(
        filename=filename,
        total_pages=len(pages),
        total_llm_calls=0,
        metadata={},
        document_category=category,
        pages=tuple(pages),
    )


class TestExtractListItems:
    def test_canonical_bullets(self):
        assert extract_list_items("- a\n- b") == ["a", "b"]

    def test_inline_bullets(self):
        assert extract_list_items("• x • y") == ["x", "y"]

    def test_empty(self):
        assert extract_list_items("") == []

    def test_enumerators(self):
        assert extract_list_items("1. first\n2) second") == ["first", "second"]

    def test_star_markers(self):
        assert extract_list_items("* one\n* two") == ["one", "two"]

    def test_negative_number_not_a_marker(self):
        assert extract_list_items("-5 degrees") == ["-5 degrees"]

    def test_plain_line_is_one_item(self):
        assert extract_list_items("plain line") == ["plain line"]


class TestToMarkdown:
    def test_title_heading(self):
        doc = make_doc([[build_entity("t", "title", (0, 0, 10, 10), text="Results")]])
        assert "## Results" in to_markdown(doc)

    def test_section_heading(self):
        doc = make_doc([[build_entity("s", "section", (0, 0, 10, 10), text="Intro")]])
        assert "### Intro" in to_markdown(doc)

    def test_skip_flag_removes_headers_footers(self):
        doc = make_doc(
            [[build_entity("f", "page_footer", (0, 90, 10, 100), text="footer")]]
        )
        assert to_markdown(doc, skip_headers_footers=True).strip() == ""
        assert "> [page_footer] footer" in to_markdown(doc)

    def test_table_with_data_renders_pipe_table(self):
        table = build_entity(
            "tbl", "table", (0, 0, 10, 10), text="raw",
            data=({"A": "1", "B": "2"},),
        )
        md = to_markdown(make_doc([[table]]))
        assert "| A | B |" in md
        assert "| 1 | 2 |" in md
        assert "raw" not in md  # data supersedes the OCR text

    def test_table_without_data_falls_back_to_text(self):
        table = build_entity("tbl", "table", (0, 0, 10, 10), text="raw cells")
        assert "raw cells" in to_markdown(make_doc([[table]]))

    def test_image_line_and_summary(self):
        image = build_entity(
            "img", "image", (0, 0, 10, 10), title="Chart", summary="Up and right."
        )
        md = to_markdown(make_doc([[image]]))
        assert "![Chart](img)" in md
        assert "*Up and right.*" in md

    def test_pipe_characters_escaped(self):
        table = build_entity(
            "tbl", "table", (0, 0, 10, 10), data=({"A": "x|y"},)
        )
        assert "x\\|y" in to_markdown(make_doc([[table]]))

    def test_pages_separated_by_rule(self):
        doc = make_doc(
            [
                [build_entity("a", "text", (0, 0, 10, 10), text="one")],
                [build_entity("b", "text", (0, 0, 10, 10), text="two")],
            ]
        )
        assert "\n\n---\n\n" in to_markdown(doc)

    def test_every_textual_element_appears(self):
        entities = [
            build_entity(f"e{i}", label, (0, i * 20, 10, i * 20 + 10), text=f"content {i}")
            for i, label in enumerate(
                ["title", "section", "text", "list_item", "table_caption", "table_of_content"]
            )
        ]
        md = to_markdown(make_doc([entities]))
        for i in range(len(entities)):
            assert f"content {i}" in md


class TestToChunks:
    def test_single_text_dedupes_to_one_chunk(self):
        doc = make_doc([[build_entity("t", "text", (0, 0, 10, 10), text="only text")]])
        chunks = chunk_records(doc)
        assert len(chunks) == 1
        assert chunks[0]["metadata"]["chunk_kind"] == "page"

    def test_header_block_gathers_following_text(self):
        entities = [
            build_entity("h", "page_header", (0, 0, 10, 5), text="Running head"),
            build_entity("s", "section", (0, 10, 10, 20), text="Intro"),
            build_entity("t1", "text", (0, 30, 10, 40), text="first para"),
            build_entity("t2", "text", (0, 50, 10, 60), text="second para"),
        ]
        chunks = chunk_records(make_doc([entities]))
        blocks = [c for c in chunks if c["metadata"]["chunk_kind"] == "header_block"]
        assert blocks[0]["page_content"] == "Intro\nfirst para\nsecond para"

    def test_header_block_stops_at_next_heading(self):
        entities = [
            build_entity("s1", "section", (0, 0, 10, 10), text="One"),
            build_entity("t1", "text", (0, 20, 10, 30), text="alpha"),
            build_entity("s2", "section", (0, 40, 10, 50), text="Two"),
            build_entity("t2", "text", (0, 60, 10, 70), text="beta"),
        ]
        chunks = chunk_records(make_doc([entities]))
        blocks = [c["page_content"] for c in chunks if c["metadata"]["chunk_kind"] == "header_block"]
        assert blocks == ["One\nalpha", "Two\nbeta"]

    def test_empty_document(self):
        assert to_chunks_jsonl(make_doc([[]])) == ""

    def test_token_count_is_whitespace_tokens(self):
        doc = make_doc([[build_entity("t", "text", (0, 0, 10, 10), text="three word chunk")]])
        assert chunk_records(doc)[0]["metadata"]["token_count"] == 3

    def test_distinct_hashes(self):
        entities = [
            build_entity("a", "text", (0, 0, 10, 10), text="alpha"),
            build_entity("b", "text", (0, 20, 10, 30), text="beta"),
        ]
        chunks = chunk_records(make_doc([entities]))
        hashes = [fnv1a_64(c["page_content"]) for c in chunks]
        assert len(hashes) == len(set(hashes))

    def test_nfkc_equal_contents_dedupe_and_whitespace_variants_stay(self):
        texts = ["ﬁne print", "fine print", "１２３", "123", "a b", "a  b", "a\tb", "a\u00a0b"]
        entities = [
            build_entity(f"e{i}", "list_item", (0, 10 * i, 10, 10 * i + 5), text=text)
            for i, text in enumerate(texts)
        ]
        chunks = chunk_records(make_doc([entities]))
        elements = [c["page_content"] for c in chunks if c["metadata"]["chunk_kind"] == "element"]
        assert elements == ["ﬁne print", "１２３", "a b", "a  b", "a\tb"]

    def test_metadata_fields(self):
        doc = make_doc(
            [[build_entity("t", "text", (0, 0, 10, 10), text="body here")]],
            filename="f.pdf",
            category="financial",
        )
        record = chunk_records(doc)[0]
        assert record["metadata"]["filename"] == "f.pdf"
        assert record["metadata"]["document_category"] == "financial"
        assert record["metadata"]["page_number"] == 1


#: Texts with NFKC-equal pairs ("ﬁ"/"fi", full-width digits, no-break space)
#: and pairs that differ only in whitespace, which are distinct chunks.
CHUNK_TEXTS = ["", "ﬁle", "file", "４２", "42", "x y", "x  y", "x\ny", "x\u00a0y", "Intro", "Ｉｎｔｒｏ"]
CHUNK_LABELS = ["text", "list_item", "section", "title", "page_header"]


@st.composite
def _chunk_documents(draw):
    pages = []
    for number in range(1, draw(st.integers(1, 3)) + 1):
        labels_texts = draw(
            st.lists(st.tuples(st.sampled_from(CHUNK_LABELS), st.sampled_from(CHUNK_TEXTS)), max_size=6)
        )
        pages.append([
            build_entity(f"p{number}-{i}", label, (0, 10 * i, 10, 10 * i + 5), text=text)
            for i, (label, text) in enumerate(labels_texts)
        ])
    return make_doc(pages)


@settings(max_examples=200, deadline=None)
@given(_chunk_documents())
def test_chunk_dedupe_matches_oracle(doc):
    candidates = [
        ("\n".join(e.value.text for e in page.elements.values() if e.value.text), page.page_number, "page")
        for page in doc.pages
    ]
    candidates += [
        (block, page.page_number, "header_block")
        for page in doc.pages
        for _, block in _page_header_blocks(page)
    ]
    candidates += [
        (e.value.text, page.page_number, "element") for page in doc.pages for e in page.elements.values()
    ]
    emitted = [
        (c["page_content"], c["metadata"]["page_number"], c["metadata"]["chunk_kind"])
        for c in chunk_records(doc)
    ]
    assert emitted == chunk_dedupe_oracle(candidates)


#: Characters that JSON escapes or that only look like line ends: quotes,
#: backslashes, control characters, NEL, U+2028/U+2029, and a non-BMP character.
_AWKWARD_TEXTS = st.text(
    st.sampled_from('"\\\x00\x1f\x7f\x85\n\t \u2028\u2029ﬁ１é𝄞') | st.characters(blacklist_categories=("Cs",)),
    max_size=8,
)


@st.composite
def _awkward_documents(draw):
    labels = st.sampled_from([label.value for label in ElementLabel])
    pages = []
    for number in range(1, draw(st.integers(1, 3)) + 1):
        labels_texts = draw(st.lists(st.tuples(labels, _AWKWARD_TEXTS), max_size=6))
        pages.append([
            build_entity(f"p{number}-{i}", label, (0, 10 * i, 10, 10 * i + 5), text=text)
            for i, (label, text) in enumerate(labels_texts)
        ])
    return make_doc(pages, filename=draw(_AWKWARD_TEXTS.filter(bool)), category=draw(_AWKWARD_TEXTS))


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
@settings(max_examples=200, deadline=None)
@given(doc=_awkward_documents())
def test_chunk_lines_equal_json_dumps(c_encoder, doc):
    # The chunks writer must agree with json.dumps through either of its
    # encoders: the _json C module's and the pure-Python fallback.
    with pytest.MonkeyPatch.context() as patch:
        if not c_encoder:
            patch.setattr(json.encoder, "c_make_encoder", None)
        expected = [json.dumps(record, ensure_ascii=False) + "\n" for record in chunks_to_dicts(doc)]
    # json.dumps writes no raw newline, so equal texts have equal lines.
    assert to_chunks_jsonl(doc) == "".join(expected)


class TestToGraph:
    def test_title_then_text_parent_child(self):
        entities = [
            build_entity("a", "title", (0, 0, 10, 10), text="Title"),
            build_entity("b", "text", (0, 20, 10, 30), text="Body"),
        ]
        _, edges = graph_records(make_doc([entities]))
        relations = {(e["from"], e["to"]): e["relation"] for e in edges}
        assert relations[("a", "b")] == "parent-child"

    def test_equal_weight_sibling(self):
        entities = [
            build_entity("a", "text", (0, 0, 10, 10), text="one"),
            build_entity("b", "text", (0, 20, 10, 30), text="two"),
        ]
        _, edges = graph_records(make_doc([entities]))
        relations = {(e["from"], e["to"]): e["relation"] for e in edges}
        assert relations[("a", "b")] == "sibling"

    def test_parent_child_direction_lower_weight_wins(self):
        # text (6) followed by table (3): edge must run table -> text
        entities = [
            build_entity("a", "text", (0, 0, 10, 10), text="one"),
            build_entity("b", "table", (0, 20, 10, 30), text="tbl"),
        ]
        _, edges = graph_records(make_doc([entities]))
        relations = {(e["from"], e["to"]): e["relation"] for e in edges}
        assert relations[("b", "a")] == "parent-child"

    def test_empty_page_gets_node_no_element_edges(self):
        nodes, edges = graph_records(make_doc([[]]))
        assert any(n["id"] == "page_1" for n in nodes)
        assert [(e["from"], e["to"], e["relation"]) for e in edges] == [("root", "page_1", "contains")]

    def test_edge_count_invariant(self):
        entities = [
            build_entity(f"e{i}", "text", (0, i * 20, 10, i * 20 + 10), text=f"t{i}")
            for i in range(5)
        ]
        _, edges = graph_records(make_doc([entities]))
        # 1 root->page + 1 page->first + (n-1) consecutive
        assert len(edges) == 1 + 1 + 4

    def test_exactly_one_root(self):
        nodes, _ = graph_records(make_doc([[], []]))
        assert sum(1 for n in nodes if n["kind"] == "root") == 1

    def test_no_self_edges(self):
        entities = [
            build_entity(f"e{i}", "text", (0, i * 20, 10, i * 20 + 10), text=f"t{i}")
            for i in range(4)
        ]
        _, edges = graph_records(make_doc([entities]))
        assert all(e["from"] != e["to"] for e in edges)


class TestToDpbench:
    def test_category_mapping_complete(self):
        assert set(DPBENCH_CATEGORY) == set(ElementLabel)

    def test_toc_maps_to_paragraph(self):
        toc = build_entity("t", "table_of_content", (0, 0, 10, 10), text="toc")
        (element,) = dpbench_records(make_doc([[toc]]))
        assert element["category"] == "Paragraph"

    def test_polygon_order(self):
        entity = build_entity("e", "text", (1, 2, 3, 4), text="abc")
        (element,) = dpbench_records(make_doc([[entity]]))
        assert element["coordinates"] == [[1.0, 2.0], [3.0, 2.0], [3.0, 4.0], [1.0, 4.0]]

    def test_coordinate_round_trip(self):
        entity = build_entity("e", "text", (15, 25, 300, 401), text="abc")
        (element,) = dpbench_records(make_doc([[entity]]))
        lt, _, rb, _ = element["coordinates"]
        assert (lt[0], lt[1], rb[0], rb[1]) == (15.0, 25.0, 300.0, 401.0)

    def test_sequential_ids_across_pages(self):
        doc = make_doc(
            [
                [build_entity("a", "text", (0, 0, 10, 10), text="one")],
                [build_entity("b", "text", (0, 0, 10, 10), text="two")],
            ]
        )
        elements = dpbench_records(doc)
        assert [e["id"] for e in elements] == [0, 1]
        assert [e["page"] for e in elements] == [1, 2]

    def test_table_html_from_data(self):
        table = build_entity(
            "tbl", "table", (0, 0, 10, 10), text="", data=({"A": "<1>"},)
        )
        (element,) = dpbench_records(make_doc([[table]]))
        assert element["content"]["html"] == "<table><tr><td>A</td></tr><tr><td>&lt;1&gt;</td></tr></table>"


class TestGoldenFiles:
    """Byte-for-byte comparison against checked-in outputs of the 2-page fixture."""

    @pytest.fixture(scope="class")
    @staticmethod
    def outputs(tmp_path_factory):
        from docweave.pipeline import PipelineConfig, run_pipeline

        out = tmp_path_factory.mktemp("golden")
        config = PipelineConfig(
            inputs=(FIXTURE_DIR / "report.json",),
            output_dir=out,
            skip_insights=False,
            usefulness_fixture=FIXTURE_DIR / "usefulness.json",
            enrichment_fixture=FIXTURE_DIR / "enrichment.json",
        )
        (outcome,) = run_pipeline(config)
        assert outcome.error is None
        return out

    @pytest.mark.parametrize(
        "name",
        ["report.md", "report.chunks.jsonl", "report.graph.json", "report.dpbench.json", "report.json"],
    )
    def test_matches_golden(self, outputs, name):
        produced = (outputs / name).read_bytes()
        expected = (FIXTURE_DIR / "golden" / name).read_bytes()
        assert produced == expected

    @pytest.mark.parametrize(
        "name",
        ["report.md", "report.chunks.jsonl", "report.graph.json", "report.dpbench.json"],
    )
    def test_skipped_image_absent_from_exports(self, outputs, name):
        content = (outputs / name).read_text(encoding="utf-8")
        assert "p2-decor" not in content
        assert "DECORATIVE" not in content

    def test_records_equal_file_contents(self, outputs):
        from docweave.model import document_from_json

        def read(name):
            return (outputs / name).read_text(encoding="utf-8")

        doc = document_from_json(read("report.json"))
        assert read("report.chunks.jsonl") == to_chunks_jsonl(doc)
        assert chunk_records(doc) == chunks_to_dicts(doc)
        assert read("report.graph.json") == to_graph_json(doc)
        assert read("report.dpbench.json") == to_dpbench_json(doc)

    @pytest.fixture(scope="class")
    @staticmethod
    def ingest_case_outputs(tmp_path_factory):
        """Second fixture, default flags: ids derived for detections without one,
        short and empty texts dropped, titles and bodies normalized, detections
        at and below both thresholds, pages out of order in the file, and
        ``row_group``, ``group``, ``column_text`` and ``layout_box`` regions."""
        from docweave.pipeline import PipelineConfig, run_pipeline

        out = tmp_path_factory.mktemp("ingest_cases")
        config = PipelineConfig(inputs=(FIXTURE_DIR / "ingest_cases.json",), output_dir=out)
        (outcome,) = run_pipeline(config)
        assert outcome.error is None and not outcome.failed_pages
        return out

    @pytest.mark.parametrize(
        "name",
        [
            "ingest_cases.md",
            "ingest_cases.chunks.jsonl",
            "ingest_cases.graph.json",
            "ingest_cases.dpbench.json",
            "ingest_cases.json",
        ],
    )
    def test_ingest_cases_match_golden(self, ingest_case_outputs, name):
        produced = (ingest_case_outputs / name).read_bytes()
        assert produced == (FIXTURE_DIR / "golden" / name).read_bytes()

    @pytest.fixture(scope="class")
    @staticmethod
    def footer_outputs(tmp_path_factory):
        """Third fixture, fuzzy threshold 90: 48-character footers that name
        their page, two of them detected as text, and body texts that are
        near-copies of them, some within the distance bound (relabeled) and
        some just outside it or only sharing a prefix (left as text)."""
        from docweave.assembly import AssemblyParams, HeaderFooterParams
        from docweave.pipeline import PipelineConfig, run_pipeline

        out = tmp_path_factory.mktemp("footers")
        config = PipelineConfig(
            inputs=(FIXTURE_DIR / "footers.json",),
            output_dir=out,
            assembly=AssemblyParams(header_footer=HeaderFooterParams(fuzzy_threshold=90)),
        )
        (outcome,) = run_pipeline(config)
        assert outcome.error is None and not outcome.failed_pages
        return out

    @pytest.mark.parametrize(
        "name",
        ["footers.md", "footers.chunks.jsonl", "footers.graph.json", "footers.dpbench.json", "footers.json"],
    )
    def test_footers_match_golden(self, footer_outputs, name):
        produced = (footer_outputs / name).read_bytes()
        assert produced == (FIXTURE_DIR / "golden" / name).read_bytes()

    def test_exporters_are_pure(self, outputs):
        from docweave.model import document_from_json

        doc = document_from_json((outputs / "report.json").read_text(encoding="utf-8"))
        assert to_markdown(doc) == to_markdown(doc)
        assert to_chunks_jsonl(doc) == to_chunks_jsonl(doc)
        assert to_dpbench_json(doc) == to_dpbench_json(doc)
        assert to_graph_json(doc) == to_graph_json(doc)
