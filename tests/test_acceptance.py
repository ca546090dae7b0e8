"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines, or plain ``pytest`` to just gate on them.
"""

import functools
import itertools
import json
import random
import string
import time

from conftest import FIXTURE_DIR, build_entity, layout_detection
from docweave.assembly import (
    AssemblyParams,
    ClusterParams,
    HeaderFooterParams,
    assemble_page,
    correct_headers_footers,
    dbscan,
    fuzzy_ratio,
)
from docweave.metrics import (
    TableNode,
    evaluate,
    indel_distance,
    nid,
    teds,
    teds_s,
    tree_edit_distance,
)
from docweave.pipeline import PipelineConfig, run_pipeline
from oracles import (
    dbscan_oracle,
    indel_oracle,
    indel_oracle_fast,
    page_to_dict,
    relabel_cost_oracle,
    tree_edit_oracle,
)

PARAMS = AssemblyParams()


def criterion(name, budget_seconds=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
                elapsed = time.monotonic() - started
                if budget_seconds is not None:
                    assert elapsed < budget_seconds, (
                        f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"
                    )
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")

        return wrapper

    return decorate


@criterion("metric oracle equivalence (indel vs LCS)", budget_seconds=10)
def test_indel_oracle_equivalence():
    # exhaustive over {a,b} with lengths <= 8
    strings = [""]
    for length in range(1, 9):
        strings.extend("".join(p) for p in itertools.product("ab", repeat=length))
    assert len(strings) == 511
    for a in strings:
        for b in strings:
            assert indel_distance(a, b) == indel_oracle_fast(a, b)
    # 1000 random pairs up to length 20 over a wider alphabet
    rng = random.Random(20240201)
    alphabet = string.ascii_lowercase + "  "
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        assert indel_distance(a, b) == indel_oracle(a, b)


@criterion("NID formula checks", budget_seconds=1)
def test_nid_formula():
    assert nid("abc", "") == 0.0
    rng = random.Random(7)
    alphabet = string.printable
    for _ in range(100):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        assert nid(s, s) == 1.0


def _random_tree(rng, max_nodes=8):
    tags = ["table", "tr", "td", "thead"]
    texts = ["", "a", "ab", "xyz"]
    total = rng.randint(1, max_nodes)
    root = TableNode(
        rng.choice(tags),
        text=rng.choice(texts),
        colspan=rng.choice([1, 1, 2]),
        rowspan=rng.choice([1, 1, 2]),
    )
    nodes = [root]
    for _ in range(total - 1):
        node = TableNode(
            rng.choice(tags),
            text=rng.choice(texts),
            colspan=rng.choice([1, 1, 2]),
            rowspan=rng.choice([1, 1, 2]),
        )
        rng.choice(nodes).children.append(node)
        nodes.append(node)
    return root


def _random_table(rng):
    rows = []
    for _ in range(rng.randint(1, 4)):
        cells = [
            TableNode("td", text=rng.choice(["", "a", "bb", "c3"]), colspan=rng.choice([1, 2]))
            for _ in range(rng.randint(1, 4))
        ]
        rows.append(TableNode("tr", children=cells))
    return TableNode("table", children=rows)


@criterion("tree edit distance vs brute-force oracle", budget_seconds=60)
def test_tree_edit_oracle_equivalence():
    rng = random.Random(20240301)
    for _ in range(500):
        a, b = _random_tree(rng), _random_tree(rng)
        expected = tree_edit_oracle(a, b, relabel_cost_oracle)
        assert abs(tree_edit_distance(a, b) - expected) <= 1e-9
    # TEDS self-similarity and TEDS-S cell-text invariance on random tables
    for _ in range(100):
        table = _random_table(rng)
        assert teds(table, table) == 1.0
        other = _random_table(rng)
        baseline = teds_s(table, other)

        def mutate(node):
            if node.tag == "td":
                node.text = node.text + rng.choice(["x", "yz", ""])
            for child in node.children:
                mutate(child)

        mutated = table.blanked()
        mutate(mutated)
        assert teds_s(mutated, other) == baseline


@criterion("DBSCAN vs naive density-reachability oracle", budget_seconds=10)
def test_dbscan_oracle_equivalence():
    rng = random.Random(20240401)
    params = ClusterParams(eps=0.3, min_samples=2)
    for _ in range(1000):
        points = [rng.random() for _ in range(rng.randint(0, 12))]
        assert dbscan(points, params) == dbscan_oracle(points, 0.3, 2)


def _random_page(rng):
    entities = []
    for i in range(rng.randint(1, 14)):
        left = rng.randint(0, 600)
        top = rng.randint(0, 900)
        entities.append(
            build_entity(
                f"e{i}",
                rng.choice(
                    ["text", "title", "section", "list_item", "page_header", "page_footer", "table"]
                ),
                (left, top, left + rng.randint(10, 150), top + rng.randint(10, 60)),
                text=f"entity text {i}",
                confidence=round(rng.uniform(0.3, 1.0), 3),
            )
        )
    regions = []
    for _ in range(rng.randint(0, 3)):
        left = rng.randint(0, 400)
        top = rng.randint(0, 600)
        regions.append(
            layout_detection(
                rng.choice(["multi_column", "row_group", "group", "column_text", "layout_box"]),
                (left, top, left + rng.randint(50, 400), top + rng.randint(50, 300)),
                confidence=round(rng.uniform(0.2, 1.0), 3),
            )
        )
    return entities, regions


@criterion("reading-order determinism under input permutation")
def test_reading_order_determinism():
    rng = random.Random(20240501)
    for _ in range(50):
        entities, regions = _random_page(rng)
        baseline = json.dumps(page_to_dict(assemble_page(1, regions, entities, PARAMS)))
        shuffled_entities = entities[:]
        shuffled_regions = regions[:]
        rng.shuffle(shuffled_entities)
        rng.shuffle(shuffled_regions)
        permuted = json.dumps(
            page_to_dict(assemble_page(1, shuffled_regions, shuffled_entities, PARAMS))
        )
        assert baseline == permuted


@criterion("two-column fixture column-major order")
def test_two_column_reading_order():
    entities = [
        build_entity("l1", "text", (60, 100, 380, 160), text="left one"),
        build_entity("l2", "text", (60, 200, 380, 260), text="left two"),
        build_entity("l3", "text", (60, 300, 380, 360), text="left three"),
        build_entity("r1", "text", (420, 100, 740, 160), text="right one"),
        build_entity("r2", "text", (420, 200, 740, 260), text="right two"),
        build_entity("r3", "text", (420, 300, 740, 360), text="right three"),
    ]
    region = layout_detection("multi_column", (50, 90, 750, 400))
    page = assemble_page(1, [region], entities, PARAMS)
    assert list(page.elements) == ["l1", "l2", "l3", "r1", "r2", "r3"]


def _page_with(entities, number):
    return assemble_page(number, [], entities, PARAMS)


@criterion("header/footer correction with ratio-95 near miss")
def test_header_footer_correction():
    header_text = "ACME Corp 2024"
    pages = []
    for n in (1, 2):
        pages.append(
            _page_with(
                [
                    build_entity(
                        f"h{n}", "page_header", (200, 20, 600, 50), text=header_text
                    ),
                    build_entity(
                        f"b{n}", "text", (0, 200, 400, 260), text=f"body of page {n}"
                    ),
                ],
                n,
            )
        )
    pages.append(
        _page_with(
            [
                build_entity("h3", "text", (200, 20, 600, 50), text=header_text),
                build_entity("b3", "text", (0, 200, 400, 260), text="body of page 3"),
            ],
            3,
        )
    )
    corrected = correct_headers_footers(pages, HeaderFooterParams())
    assert fuzzy_ratio(header_text, header_text) == 100
    assert corrected[2].elements["h3"].type.value == "page_header"

    # near miss: ratio exactly 95 stays text (threshold is strict >)
    base, near = "a" * 20, "a" * 19 + "b"
    assert fuzzy_ratio(base, near) == 95
    near_pages = [
        _page_with(
            [build_entity("nh1", "page_header", (0, 0, 100, 20), text=base)], 1
        ),
        _page_with([build_entity("nt2", "text", (0, 0, 100, 20), text=near)], 2),
    ]
    near_corrected = correct_headers_footers(near_pages, HeaderFooterParams())
    assert near_corrected[1].elements["nt2"].type.value == "text"


@criterion("dedup keeps the higher-confidence duplicate")
def test_dedup_higher_confidence():
    strong = build_entity(
        "a", "title", (100, 10, 500, 60), text="Grand Title", confidence=0.8
    )
    weak = build_entity(
        "b", "title", (105, 12, 505, 62), text="Grand Title", confidence=0.6
    )
    from docweave.geometry import iou

    assert iou(strong.pixel_coordinates, weak.pixel_coordinates) > 0.8
    page = assemble_page(1, [], [weak, strong], PARAMS)
    assert list(page.elements) == ["a"]


@criterion("export golden files byte-for-byte")
def test_export_golden_files(tmp_path):
    out = tmp_path / "out"
    config = PipelineConfig(
        inputs=(FIXTURE_DIR / "report.json",),
        output_dir=out,
        skip_insights=False,
        usefulness_fixture=FIXTURE_DIR / "usefulness.json",
        enrichment_fixture=FIXTURE_DIR / "enrichment.json",
    )
    (outcome,) = run_pipeline(config)
    assert outcome.error is None
    for name in (
        "report.md",
        "report.chunks.jsonl",
        "report.graph.json",
        "report.dpbench.json",
        "report.json",
    ):
        assert (out / name).read_bytes() == (FIXTURE_DIR / "golden" / name).read_bytes(), name
    # the gate fixture marks p2-decor useless; its content must be absent
    for name in ("report.md", "report.chunks.jsonl", "report.graph.json", "report.dpbench.json"):
        content = (out / name).read_text(encoding="utf-8")
        assert "p2-decor" not in content
        assert "DECORATIVE" not in content


@criterion("DP-Bench self-consistency ceiling")
def test_dpbench_self_consistency():
    prediction = FIXTURE_DIR / "golden" / "report.dpbench.json"
    layout = evaluate(prediction, prediction, "layout")
    assert layout.mean_nid == 1.0
    table = evaluate(prediction, prediction, "table")
    assert table.mean_teds == 1.0
    assert table.mean_teds_s == 1.0


@criterion("concurrency determinism across worker counts", budget_seconds=30)
def test_concurrency_determinism(tmp_path):
    trees = {}
    for workers in (1, 8):
        out = tmp_path / f"workers{workers}"
        config = PipelineConfig(
            inputs=(FIXTURE_DIR / "report.json",),
            output_dir=out,
            skip_insights=False,
            usefulness_fixture=FIXTURE_DIR / "usefulness.json",
            enrichment_fixture=FIXTURE_DIR / "enrichment.json",
            workers=workers,
        )
        outcomes = run_pipeline(config)
        assert all(o.error is None for o in outcomes)
        trees[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert trees[1] == trees[8]
