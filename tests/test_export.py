import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURE_DIR, build_entity
from docweave.export import (
    DPBENCH_CATEGORY,
    _page_header_blocks,
    extract_list_items,
    fnv1a_64,
    to_chunks,
    to_dpbench,
    to_graph,
    to_markdown,
)
from docweave.model import (
    DocumentResult,
    ElementLabel,
    PageResult,
)
from oracles import chunk_dedupe_oracle


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
    def test_title_heading(self, schema):
        doc = make_doc([[build_entity("t", "title", (0, 0, 10, 10), text="Results", schema=schema)]])
        assert "## Results" in to_markdown(doc)

    def test_section_heading(self, schema):
        doc = make_doc([[build_entity("s", "section", (0, 0, 10, 10), text="Intro", schema=schema)]])
        assert "### Intro" in to_markdown(doc)

    def test_skip_flag_removes_headers_footers(self, schema):
        doc = make_doc(
            [[build_entity("f", "page_footer", (0, 90, 10, 100), text="footer", schema=schema)]]
        )
        assert to_markdown(doc, skip_headers_footers=True).strip() == ""
        assert "> [page_footer] footer" in to_markdown(doc)

    def test_table_with_data_renders_pipe_table(self, schema):
        table = build_entity(
            "tbl", "table", (0, 0, 10, 10), text="raw", schema=schema,
            data=({"A": "1", "B": "2"},),
        )
        md = to_markdown(make_doc([[table]]))
        assert "| A | B |" in md
        assert "| 1 | 2 |" in md
        assert "raw" not in md  # data supersedes the OCR text

    def test_table_without_data_falls_back_to_text(self, schema):
        table = build_entity("tbl", "table", (0, 0, 10, 10), text="raw cells", schema=schema)
        assert "raw cells" in to_markdown(make_doc([[table]]))

    def test_image_line_and_summary(self, schema):
        image = build_entity(
            "img", "image", (0, 0, 10, 10), schema=schema, title="Chart", summary="Up and right."
        )
        md = to_markdown(make_doc([[image]]))
        assert "![Chart](img)" in md
        assert "*Up and right.*" in md

    def test_pipe_characters_escaped(self, schema):
        table = build_entity(
            "tbl", "table", (0, 0, 10, 10), schema=schema, data=({"A": "x|y"},)
        )
        assert "x\\|y" in to_markdown(make_doc([[table]]))

    def test_pages_separated_by_rule(self, schema):
        doc = make_doc(
            [
                [build_entity("a", "text", (0, 0, 10, 10), text="one", schema=schema)],
                [build_entity("b", "text", (0, 0, 10, 10), text="two", schema=schema)],
            ]
        )
        assert "\n\n---\n\n" in to_markdown(doc)

    def test_every_textual_element_appears(self, schema):
        entities = [
            build_entity(f"e{i}", label, (0, i * 20, 10, i * 20 + 10), text=f"content {i}", schema=schema)
            for i, label in enumerate(
                ["title", "section", "text", "list_item", "table_caption", "table_of_content"]
            )
        ]
        md = to_markdown(make_doc([entities]))
        for i in range(len(entities)):
            assert f"content {i}" in md


class TestToChunks:
    def test_single_text_dedupes_to_one_chunk(self, schema):
        doc = make_doc([[build_entity("t", "text", (0, 0, 10, 10), text="only text", schema=schema)]])
        chunks = to_chunks(doc)
        assert len(chunks) == 1
        assert chunks[0]["metadata"]["chunk_kind"] == "page"

    def test_header_block_gathers_following_text(self, schema):
        entities = [
            build_entity("h", "page_header", (0, 0, 10, 5), text="Running head", schema=schema),
            build_entity("s", "section", (0, 10, 10, 20), text="Intro", schema=schema),
            build_entity("t1", "text", (0, 30, 10, 40), text="first para", schema=schema),
            build_entity("t2", "text", (0, 50, 10, 60), text="second para", schema=schema),
        ]
        chunks = to_chunks(make_doc([entities]))
        blocks = [c for c in chunks if c["metadata"]["chunk_kind"] == "header_block"]
        assert blocks[0]["page_content"] == "Intro\nfirst para\nsecond para"

    def test_header_block_stops_at_next_heading(self, schema):
        entities = [
            build_entity("s1", "section", (0, 0, 10, 10), text="One", schema=schema),
            build_entity("t1", "text", (0, 20, 10, 30), text="alpha", schema=schema),
            build_entity("s2", "section", (0, 40, 10, 50), text="Two", schema=schema),
            build_entity("t2", "text", (0, 60, 10, 70), text="beta", schema=schema),
        ]
        chunks = to_chunks(make_doc([entities]))
        blocks = [c["page_content"] for c in chunks if c["metadata"]["chunk_kind"] == "header_block"]
        assert blocks == ["One\nalpha", "Two\nbeta"]

    def test_empty_document(self, schema):
        assert to_chunks(make_doc([[]])) == []

    def test_token_count_is_whitespace_tokens(self, schema):
        doc = make_doc([[build_entity("t", "text", (0, 0, 10, 10), text="three word chunk", schema=schema)]])
        assert to_chunks(doc)[0]["metadata"]["token_count"] == 3

    def test_distinct_hashes(self, schema):
        entities = [
            build_entity("a", "text", (0, 0, 10, 10), text="alpha", schema=schema),
            build_entity("b", "text", (0, 20, 10, 30), text="beta", schema=schema),
        ]
        chunks = to_chunks(make_doc([entities]))
        hashes = [fnv1a_64(c["page_content"]) for c in chunks]
        assert len(hashes) == len(set(hashes))

    def test_nfkc_equal_contents_dedupe_and_whitespace_variants_stay(self, schema):
        texts = ["ﬁne print", "fine print", "１２３", "123", "a b", "a  b", "a\tb", "a\u00a0b"]
        entities = [
            build_entity(f"e{i}", "list_item", (0, 10 * i, 10, 10 * i + 5), text=text, schema=schema)
            for i, text in enumerate(texts)
        ]
        chunks = to_chunks(make_doc([entities]))
        elements = [c["page_content"] for c in chunks if c["metadata"]["chunk_kind"] == "element"]
        assert elements == ["ﬁne print", "１２３", "a b", "a  b", "a\tb"]

    def test_metadata_fields(self, schema):
        doc = make_doc(
            [[build_entity("t", "text", (0, 0, 10, 10), text="body here", schema=schema)]],
            filename="f.pdf",
            category="financial",
        )
        record = to_chunks(doc)[0]
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
        for c in to_chunks(doc)
    ]
    assert emitted == chunk_dedupe_oracle(candidates)


class TestToGraph:
    def test_title_then_text_parent_child(self, schema):
        entities = [
            build_entity("a", "title", (0, 0, 10, 10), text="Title", schema=schema),
            build_entity("b", "text", (0, 20, 10, 30), text="Body", schema=schema),
        ]
        _, edges = to_graph(make_doc([entities]))
        relations = {(e["from"], e["to"]): e["relation"] for e in edges}
        assert relations[("a", "b")] == "parent-child"

    def test_equal_weight_sibling(self, schema):
        entities = [
            build_entity("a", "text", (0, 0, 10, 10), text="one", schema=schema),
            build_entity("b", "text", (0, 20, 10, 30), text="two", schema=schema),
        ]
        _, edges = to_graph(make_doc([entities]))
        relations = {(e["from"], e["to"]): e["relation"] for e in edges}
        assert relations[("a", "b")] == "sibling"

    def test_parent_child_direction_lower_weight_wins(self, schema):
        # text (6) followed by table (3): edge must run table -> text
        entities = [
            build_entity("a", "text", (0, 0, 10, 10), text="one", schema=schema),
            build_entity("b", "table", (0, 20, 10, 30), text="tbl", schema=schema),
        ]
        _, edges = to_graph(make_doc([entities]))
        relations = {(e["from"], e["to"]): e["relation"] for e in edges}
        assert relations[("b", "a")] == "parent-child"

    def test_empty_page_gets_node_no_element_edges(self, schema):
        nodes, edges = to_graph(make_doc([[]]))
        assert any(n["id"] == "page_1" for n in nodes)
        assert [(e["from"], e["to"], e["relation"]) for e in edges] == [("root", "page_1", "contains")]

    def test_edge_count_invariant(self, schema):
        entities = [
            build_entity(f"e{i}", "text", (0, i * 20, 10, i * 20 + 10), text=f"t{i}", schema=schema)
            for i in range(5)
        ]
        _, edges = to_graph(make_doc([entities]))
        # 1 root->page + 1 page->first + (n-1) consecutive
        assert len(edges) == 1 + 1 + 4

    def test_exactly_one_root(self, schema):
        nodes, _ = to_graph(make_doc([[], []]))
        assert sum(1 for n in nodes if n["kind"] == "root") == 1

    def test_no_self_edges(self, schema):
        entities = [
            build_entity(f"e{i}", "text", (0, i * 20, 10, i * 20 + 10), text=f"t{i}", schema=schema)
            for i in range(4)
        ]
        _, edges = to_graph(make_doc([entities]))
        assert all(e["from"] != e["to"] for e in edges)


class TestToDpbench:
    def test_category_mapping_complete(self):
        assert set(DPBENCH_CATEGORY) == set(ElementLabel)

    def test_toc_maps_to_paragraph(self, schema):
        toc = build_entity("t", "table_of_content", (0, 0, 10, 10), text="toc", schema=schema)
        (element,) = to_dpbench(make_doc([[toc]]))
        assert element["category"] == "Paragraph"

    def test_polygon_order(self, schema):
        entity = build_entity("e", "text", (1, 2, 3, 4), text="abc", schema=schema)
        (element,) = to_dpbench(make_doc([[entity]]))
        assert element["coordinates"] == [[1.0, 2.0], [3.0, 2.0], [3.0, 4.0], [1.0, 4.0]]

    def test_coordinate_round_trip(self, schema):
        entity = build_entity("e", "text", (15, 25, 300, 401), text="abc", schema=schema)
        (element,) = to_dpbench(make_doc([[entity]]))
        lt, _, rb, _ = element["coordinates"]
        assert (lt[0], lt[1], rb[0], rb[1]) == (15.0, 25.0, 300.0, 401.0)

    def test_sequential_ids_across_pages(self, schema):
        doc = make_doc(
            [
                [build_entity("a", "text", (0, 0, 10, 10), text="one", schema=schema)],
                [build_entity("b", "text", (0, 0, 10, 10), text="two", schema=schema)],
            ]
        )
        elements = to_dpbench(doc)
        assert [e["id"] for e in elements] == [0, 1]
        assert [e["page"] for e in elements] == [1, 2]

    def test_table_html_from_data(self, schema):
        table = build_entity(
            "tbl", "table", (0, 0, 10, 10), text="", schema=schema, data=({"A": "<1>"},)
        )
        (element,) = to_dpbench(make_doc([[table]]))
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
        lines = read("report.chunks.jsonl").splitlines()
        assert [json.loads(line) for line in lines] == to_chunks(doc)
        nodes, edges = to_graph(doc)
        assert json.loads(read("report.graph.json")) == {"nodes": nodes, "edges": edges}
        assert json.loads(read("report.dpbench.json"))["elements"] == to_dpbench(doc)

    def test_exporters_are_pure(self, outputs):
        from docweave.model import document_from_json

        doc = document_from_json((outputs / "report.json").read_text(encoding="utf-8"))
        assert to_markdown(doc) == to_markdown(doc)
        assert to_chunks(doc) == to_chunks(doc)
        assert to_dpbench(doc) == to_dpbench(doc)
        nodes_a, edges_a = to_graph(doc)
        nodes_b, edges_b = to_graph(doc)
        assert (nodes_a, edges_a) == (nodes_b, edges_b)
