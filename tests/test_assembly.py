import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import docweave.assembly as assembly
from conftest import build_entity, layout_detection
from docweave.assembly import (
    AssemblyParams,
    ClusterParams,
    HeaderFooterParams,
    NOISE,
    RowOrderParams,
    assemble_page,
    assign_groups,
    candidate_members,
    cluster_multi_column,
    correct_headers_footers,
    dbscan,
    dedupe_page,
    fuzzy_ratio,
    line_angle,
    minmax_scale,
    order_generic_group,
    order_page_elements,
    order_row_group,
)
from docweave.errors import ValidationError
from docweave.geometry import BBox, iou
from docweave.model import WEIGHTS, ElementLabel, GroupType
from oracles import dbscan_oracle, dedupe_oracle, indel_oracle, page_to_dict

PARAMS = AssemblyParams()


class TestCandidateMembers:
    def test_page_header_excluded(self):
        header = build_entity("h", "page_header", (10, 10, 20, 20), text="hdr")
        assert candidate_members(BBox(0, 0, 100, 100), [header]) == []

    def test_midpoint_inside_included(self):
        text = build_entity("t", "text", (10, 10, 20, 20), text="abc")
        assert candidate_members(BBox(0, 0, 100, 100), [text]) == [text]

    def test_corner_overlap_midpoint_outside_excluded(self):
        # box pokes into the region but its midpoint (95, 95) is outside
        text = build_entity("t", "text", (40, 40, 150, 150), text="abc")
        assert candidate_members(BBox(0, 0, 50, 50), [text]) == []


class TestMinMaxScale:
    def test_affine(self):
        assert minmax_scale([0, 5, 10]) == [0.0, 0.5, 1.0]

    def test_zero_range(self):
        assert minmax_scale([7, 7, 7]) == [0.0, 0.0, 0.0]

    def test_hand_case(self):
        assert minmax_scale([3, 1, 2]) == [1.0, 0.0, 0.5]

    def test_empty(self):
        assert minmax_scale([]) == []

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20))
    def test_output_in_unit_interval(self, values):
        scaled = minmax_scale(values)
        assert all(0.0 <= v <= 1.0 for v in scaled)


class TestDbscan:
    def test_empty(self):
        assert dbscan([], ClusterParams()) == []

    def test_pair_plus_outlier(self):
        assert dbscan([0.0, 0.1, 0.9], ClusterParams()) == [0, 0, NOISE]

    def test_chain_connectivity(self):
        assert dbscan([0.0, 0.25, 0.5], ClusterParams()) == [0, 0, 0]

    def test_two_clusters_numbered_by_first_seen(self):
        assert dbscan([0.9, 0.95, 0.0, 0.05], ClusterParams()) == [0, 0, 1, 1]

    def test_matches_naive_oracle(self):
        rng = random.Random(1234)
        params = ClusterParams(eps=0.3, min_samples=2)
        for _ in range(300):
            points = [rng.random() for _ in range(rng.randint(0, 12))]
            assert dbscan(points, params) == dbscan_oracle(points, 0.3, 2)

    def test_min_samples_one_makes_everything_core(self):
        labels = dbscan([0.0, 1.0], ClusterParams(eps=0.3, min_samples=1))
        assert labels == [0, 1]

    # Two clusters whose facing cores, 0.25 and 0.75, are 0.5 apart, and a
    # border point at 0.5 within eps of both; the border point comes first.
    LEFT = [0.0, 0.0, 0.125, 0.25]
    RIGHT = [0.75, 0.875, 1.0, 1.0]
    SHARED = ClusterParams(eps=0.25, min_samples=4)

    def test_shared_border_joins_smaller_left_cluster(self):
        points = [0.5] + self.LEFT + self.RIGHT
        expected = [0, 0, 0, 0, 0, 1, 1, 1, 1]
        assert dbscan(points, self.SHARED) == expected
        assert dbscan_oracle(points, 0.25, 4) == expected

    def test_right_cluster_with_smaller_index_is_numbered_zero(self):
        points = [0.5] + self.RIGHT + self.LEFT
        expected = [0, 0, 0, 0, 0, 1, 1, 1, 1]
        assert dbscan(points, self.SHARED) == expected
        assert dbscan_oracle(points, 0.25, 4) == expected

    @settings(max_examples=300)
    @given(
        st.lists(st.integers(0, 12), max_size=40),
        st.sampled_from([0.05, 0.1, 0.125, 0.25]),
        st.integers(1, 3),
        st.integers(1, 5),
    )
    def test_grid_ties_match_oracle(self, cells, step, gaps, min_samples):
        # Many equal values, and eps equal to a whole number of grid gaps.
        points = [cell * step for cell in cells]
        eps = gaps * step
        params = ClusterParams(eps=eps, min_samples=min_samples)
        assert dbscan(points, params) == dbscan_oracle(points, eps, min_samples)


class TestClusterMultiColumn:
    def test_two_columns(self):
        left1 = build_entity("l1", "text", (90, 100, 110, 120), text="l1..")
        left2 = build_entity("l2", "text", (92, 200, 108, 220), text="l2..")
        right1 = build_entity("r1", "text", (490, 100, 510, 120), text="r1..")
        right2 = build_entity("r2", "text", (488, 200, 512, 220), text="r2..")
        groups = cluster_multi_column([right2, left1, right1, left2], ClusterParams())
        assert len(groups) == 2
        assert groups[0].ids == ("l1", "l2")  # left column first, top-to-bottom
        assert groups[1].ids == ("r1", "r2")
        assert all(g.type is GroupType.MULTI_COLUMN for g in groups)

    def test_single_entity_noise_singleton(self):
        alone = build_entity("a", "text", (0, 0, 10, 10), text="abc")
        groups = cluster_multi_column([alone], ClusterParams())
        assert len(groups) == 1 and groups[0].ids == ("a",)

    def test_same_x_center_single_group(self):
        entities = [
            build_entity(f"e{i}", "text", (100, 100 * i, 200, 100 * i + 50), text="abc")
            for i in range(1, 4)
        ]
        groups = cluster_multi_column(entities, ClusterParams())
        assert len(groups) == 1
        assert groups[0].ids == ("e1", "e2", "e3")

    def test_empty(self):
        assert cluster_multi_column([], ClusterParams()) == []


class TestLineAngle:
    def test_horizontal(self):
        assert line_angle(BBox(0, 0, 0, 0), BBox(10, 0, 10, 0)) == 0.0

    def test_vertical(self):
        assert line_angle(BBox(0, 0, 0, 0), BBox(0, 10, 0, 10)) == 90.0

    def test_diagonal(self):
        assert line_angle(BBox(0, 0, 0, 0), BBox(10, 10, 10, 10)) == pytest.approx(45.0)

    def test_coincident(self):
        assert line_angle(BBox(3, 3, 3, 3), BBox(3, 3, 3, 3)) == 0.0


class TestOrderRowGroup:
    def test_jumbled_row_sorted_left_to_right(self):
        a = build_entity("a", "text", (300, 100, 340, 120), text="aaa")
        b = build_entity("b", "text", (100, 102, 140, 122), text="bbb")
        c = build_entity("c", "text", (200, 98, 240, 118), text="ccc")
        group = order_row_group([a, b, c], RowOrderParams())
        assert group.ids == ("b", "c", "a")
        assert group.type is GroupType.ROW

    def test_stacked_pair_upper_first(self):
        upper = build_entity("up", "text", (100, 50, 200, 80), text="upper")
        lower = build_entity("low", "text", (100, 300, 200, 330), text="lower")
        group = order_row_group([lower, upper], RowOrderParams())
        assert group.ids == ("up", "low")

    def test_stacked_pair_with_smaller_x_below(self):
        # sorts with "low" first on x_center; the 90-degree check swaps them
        lower = build_entity("low", "text", (90, 300, 190, 330), text="lower")
        upper = build_entity("up", "text", (110, 50, 210, 80), text="upper")
        assert abs(lower.pixel_coordinates.x_center - upper.pixel_coordinates.x_center) < 30
        group = order_row_group([lower, upper], RowOrderParams())
        assert group.ids == ("up", "low")

    def test_singleton(self):
        alone = build_entity("a", "text", (0, 0, 10, 10), text="abc")
        assert order_row_group([alone], RowOrderParams()).ids == ("a",)

    def test_angle_compliant_input_is_identity(self):
        entities = [
            build_entity(f"e{i}", "text", (100 * i, 100, 100 * i + 80, 130), text="txt")
            for i in range(1, 5)
        ]
        group = order_row_group(list(entities), RowOrderParams())
        assert group.ids == tuple(f"e{i}" for i in range(1, 5))


class TestOrderGenericGroup:
    def test_sorted_by_top(self):
        e300 = build_entity("a", "text", (0, 300, 10, 310), text="aaa")
        e100 = build_entity("b", "text", (0, 100, 10, 110), text="bbb")
        e200 = build_entity("c", "text", (0, 200, 10, 210), text="ccc")
        assert order_generic_group([e300, e100, e200]).ids == ("b", "c", "a")

    def test_tie_broken_by_left(self):
        right = build_entity("r", "text", (50, 100, 60, 110), text="rrr")
        left = build_entity("l", "text", (10, 100, 20, 110), text="lll")
        assert order_generic_group([right, left]).ids == ("l", "r")

    def test_singleton(self):
        alone = build_entity("a", "text", (0, 0, 10, 10), text="abc")
        assert order_generic_group([alone]).ids == ("a",)


class TestAssignGroups:
    def test_no_regions_all_non_group(self):
        entities = [build_entity("a", "text", (0, 0, 10, 10), text="abc")]
        groups = assign_groups([], entities, PARAMS)
        assert groups == []  # so "a" is in no group

    def test_overlapping_regions_first_claim_wins(self):
        entity = build_entity("a", "text", (10, 10, 20, 20), text="abc")
        strong = layout_detection("group", (0, 0, 100, 100), confidence=0.9)
        weak = layout_detection("group", (0, 0, 50, 50), confidence=0.5)
        groups = assign_groups([weak, strong], [entity], PARAMS)
        assert len(groups) == 1
        assert groups[0].ids == ("a",)

    def test_multi_column_region_clusters(self):
        entities = [
            build_entity("l1", "text", (90, 100, 110, 120), text="l1.."),
            build_entity("l2", "text", (92, 200, 108, 220), text="l2.."),
            build_entity("r1", "text", (490, 100, 510, 120), text="r1.."),
            build_entity("r2", "text", (488, 200, 512, 220), text="r2.."),
        ]
        region = layout_detection("multi_column", (0, 0, 600, 400))
        groups = assign_groups([region], entities, PARAMS)
        assert len(groups) == 2
        assert sorted(eid for group in groups for eid in group.ids) == ["l1", "l2", "r1", "r2"]

    def test_excluded_labels_stay_non_group(self):
        toc = build_entity("toc", "table_of_content", (10, 10, 20, 20), text="toc")
        region = layout_detection("group", (0, 0, 100, 100))
        groups = assign_groups([region], [toc], PARAMS)
        assert groups == []  # so "toc" is in no group

    def test_row_group_region(self):
        a = build_entity("a", "text", (200, 100, 240, 120), text="aaa")
        b = build_entity("b", "text", (100, 100, 140, 120), text="bbb")
        region = layout_detection("row_group", (0, 0, 600, 400))
        groups = assign_groups([region], [a, b], PARAMS)
        assert groups[0].type is GroupType.ROW
        assert groups[0].ids == ("b", "a")

    def test_equal_corner_and_area_regions_claim_independent_of_order(self):
        # Same label, confidence, area and top-left corner; different shapes.
        wide = layout_detection("group", (0, 0, 100, 50))
        tall = layout_detection("group", (0, 0, 50, 100))
        entities = [
            build_entity("a", "text", (10, 10, 30, 30), text="a"),
            build_entity("b", "text", (60, 10, 90, 30), text="b"),
            build_entity("c", "text", (10, 60, 30, 90), text="c"),
        ]
        in_order = assign_groups([wide, tall], entities, PARAMS)
        assert in_order == assign_groups([tall, wide], entities, PARAMS)
        assert [group.ids for group in in_order] == [("a", "c"), ("b",)]


class TestDedupePage:
    def test_higher_confidence_kept(self):
        strong = build_entity("a", "title", (0, 0, 100, 100), text="Annual", confidence=0.8)
        weak = build_entity("b", "title", (2, 2, 98, 98), text="Annual", confidence=0.6)
        assert dedupe_page([weak, strong]) == [strong]

    def test_disjoint_same_text_both_kept(self):
        first = build_entity("a", "text", (0, 0, 10, 10), text="total")
        second = build_entity("b", "text", (500, 500, 510, 510), text="total")
        assert dedupe_page([first, second]) == [first, second]

    def test_empty(self):
        assert dedupe_page([]) == []

    def test_different_types_not_duplicates(self):
        text = build_entity("a", "text", (0, 0, 10, 10), text="Annual")
        title = build_entity("b", "title", (0, 0, 10, 10), text="Annual")
        assert dedupe_page([text, title]) == [text, title]

    def test_confidence_tie_keeps_smallest_id(self):
        first = build_entity("a", "text", (0, 0, 10, 10), text="dup", confidence=0.7)
        second = build_entity("b", "text", (0, 0, 10, 10), text="dup", confidence=0.7)
        assert dedupe_page([second, first]) == [first]

    def test_transitive_chain_collapses(self):
        # a~b and b~c overlap; a~c barely overlap: still one survivor
        a = build_entity("a", "text", (0, 0, 100, 10), text="x" * 5, confidence=0.5)
        b = build_entity("b", "text", (20, 0, 120, 10), text="x" * 5, confidence=0.9)
        c = build_entity("c", "text", (40, 0, 140, 10), text="x" * 5, confidence=0.7)
        assert dedupe_page([a, b, c]) == [b]

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_pairwise_oracle(self, data):
        # Few types and texts, boxes on a coarse grid (overlaps and chains),
        # confidence ties, and ids that do not follow input order.
        count = data.draw(st.integers(0, 14))
        ids = data.draw(st.permutations([f"e{i:02d}" for i in range(count)]))
        entities = []
        for eid in ids:
            left = data.draw(st.integers(0, 6)) * 10
            top = data.draw(st.integers(0, 2)) * 10
            width = data.draw(st.sampled_from([20, 30, 40]))
            entities.append(
                build_entity(
                    eid,
                    data.draw(st.sampled_from(["text", "title"])),
                    (left, top, left + width, top + 20),
                    text=data.draw(st.sampled_from(["", "a", "b"])),
                    confidence=data.draw(st.sampled_from([0.5, 0.7, 0.9])),
                )
            )
        with mock.patch.object(assembly.logger, "info") as info:
            survivors = dedupe_page(entities)
        drops = [(call.args[2], call.args[4]) for call in info.call_args_list]
        assert (survivors, drops) == dedupe_oracle(entities)

    def test_iou_only_within_type_and_text(self, monkeypatch):
        calls = []

        def counting_iou(a, b):
            calls.append((a, b))
            return iou(a, b)

        monkeypatch.setattr(assembly, "iou", counting_iou)
        box = (0, 0, 10, 10)
        distinct = [
            build_entity(f"e{i:03d}", "text", box, text=f"t{i}") for i in range(200)
        ]
        assert dedupe_page(distinct) == distinct
        assert calls == []
        pair = [build_entity(eid, "text", box, text="same") for eid in "ab"]
        assert dedupe_page(pair) == pair[:1]
        assert len(calls) == 1


class TestOrderPageElements:
    def test_lone_entity_before_lower_group(self):
        grouped = build_entity("g1", "text", (0, 200, 10, 210), text="ggg")
        lone = build_entity("n1", "text", (0, 50, 10, 60), text="nnn")
        from docweave.model import make_group

        group = make_group(GroupType.GENERIC, [grouped])
        ordered = order_page_elements([group], {"g1": grouped, "n1": lone})
        assert list(ordered) == ["n1", "g1"]

    def test_misdetected_footer_still_last(self):
        footer = build_entity("f", "page_footer", (0, 40, 10, 50), text="fff")
        body = build_entity("t", "text", (0, 100, 10, 110), text="ttt")
        ordered = order_page_elements([], {"f": footer, "t": body})
        assert list(ordered) == ["t", "f"]

    def test_header_always_first(self):
        header = build_entity("h", "page_header", (0, 500, 10, 510), text="hhh")
        body = build_entity("t", "text", (0, 100, 10, 110), text="ttt")
        ordered = order_page_elements([], {"h": header, "t": body})
        assert list(ordered) == ["h", "t"]

    def test_groups_concatenated_by_top(self):
        from docweave.model import make_group

        lower = build_entity("a", "text", (0, 300, 10, 310), text="aaa")
        upper = build_entity("b", "text", (0, 100, 10, 110), text="bbb")
        groups = [make_group(GroupType.GENERIC, [lower]), make_group(GroupType.GENERIC, [upper])]
        ordered = order_page_elements(groups, {"a": lower, "b": upper})
        assert list(ordered) == ["b", "a"]


class TestFuzzyRatio:
    def test_identity(self):
        assert fuzzy_ratio("Annual Report", "Annual Report") == 100

    def test_indel_oracle_value(self):
        # distance 2 over length sum 6 -> round(66.67)
        assert fuzzy_ratio("abc", "abd") == 67

    def test_total_deletion(self):
        assert fuzzy_ratio("x", "") == 0

    def test_both_empty(self):
        assert fuzzy_ratio("", "") == 100

    @given(st.text(max_size=15), st.text(max_size=15))
    def test_symmetric_and_bounded(self, a, b):
        ratio = fuzzy_ratio(a, b)
        assert ratio == fuzzy_ratio(b, a)
        assert 0 <= ratio <= 100

    @given(st.text(max_size=20))
    def test_self_ratio_100(self, s):
        assert fuzzy_ratio(s, s) == 100

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_matches_definition(self, a, b):
        total = len(a) + len(b)
        expected = 100 if total == 0 else round(100 * (1 - indel_oracle(a, b) / total))
        assert fuzzy_ratio(a, b) == expected


def _page(page_number, entities, groups=(), skipped=()):
    from docweave.model import PageResult

    ordered = order_page_elements(list(groups), {e.id: e for e in entities})
    return PageResult(
        page_number=page_number,
        elements=ordered,
        groups=tuple(groups),
        skipped_images=tuple(skipped),
    )


class TestCorrectHeadersFooters:
    def test_repeated_header_relabeled(self):
        pages = []
        for n in (1, 2):
            header = build_entity(
                f"h{n}", "page_header", (200, 20, 600, 50), text="ACME Corp 2024"
            )
            body = build_entity(f"b{n}", "text", (0, 200, 100, 260), text="body text")
            pages.append(_page(n, [header, body]))
        stray = build_entity("h3", "text", (200, 20, 600, 50), text="ACME Corp 2024")
        body3 = build_entity("b3", "text", (0, 200, 100, 260), text="body text three")
        pages.append(_page(3, [stray, body3]))

        corrected = correct_headers_footers(pages, HeaderFooterParams())
        relabeled = corrected[2].elements["h3"]
        assert relabeled.type is ElementLabel.PAGE_HEADER
        assert relabeled.weight == WEIGHTS[ElementLabel.PAGE_HEADER]
        assert list(corrected[2].elements)[0] == "h3"  # reading order re-derived

    def test_ratio_95_not_relabeled(self):
        base = "a" * 20
        near = "a" * 19 + "b"
        assert fuzzy_ratio(base, near) == 95
        pages = [
            _page(1, [build_entity("h1", "page_header", (0, 0, 10, 10), text=base)]),
            _page(2, [build_entity("t2", "text", (0, 0, 10, 10), text=near)]),
        ]
        corrected = correct_headers_footers(pages, HeaderFooterParams())
        assert corrected[1].elements["t2"].type is ElementLabel.TEXT

    def test_single_page_unchanged(self):
        page = _page(1, [build_entity("t", "text", (0, 0, 10, 10), text="lonely")])
        assert correct_headers_footers([page], HeaderFooterParams()) == [page]

    def test_same_page_candidates_ignored(self):
        header = build_entity("h", "page_header", (0, 0, 100, 20), text="Repeated")
        twin = build_entity("t", "text", (0, 400, 100, 420), text="Repeated")
        page = _page(1, [header, twin])
        corrected = correct_headers_footers([page], HeaderFooterParams())
        assert corrected[0].elements["t"].type is ElementLabel.TEXT

    def test_footer_candidates_relabel_to_footer(self):
        pages = [
            _page(1, [build_entity("f1", "page_footer", (0, 950, 100, 980), text="Page footer text")]),
            _page(2, [build_entity("x2", "text", (0, 950, 100, 980), text="Page footer text")]),
        ]
        corrected = correct_headers_footers(pages, HeaderFooterParams())
        assert corrected[1].elements["x2"].type is ElementLabel.PAGE_FOOTER

    def test_position_heuristic_header_to_footer(self):
        # labeled header but sits in the bottom 20% of a 1000px page
        wrong = build_entity("w", "page_header", (0, 900, 100, 930), text="misplaced")
        body = build_entity("b", "text", (0, 100, 100, 160), text="body")
        page = _page(1, [wrong, body])
        corrected = correct_headers_footers(
            [page], HeaderFooterParams(), page_heights={1: 1000.0}
        )
        assert corrected[0].elements["w"].type is ElementLabel.PAGE_FOOTER
        assert corrected[0].elements["w"].weight == WEIGHTS[ElementLabel.PAGE_FOOTER]
        assert list(corrected[0].elements)[-1] == "w"

    def test_position_heuristic_footer_to_header(self):
        wrong = build_entity("w", "page_footer", (0, 10, 100, 40), text="misplaced")
        body = build_entity("b", "text", (0, 500, 100, 560), text="body")
        page = _page(1, [wrong, body])
        corrected = correct_headers_footers(
            [page], HeaderFooterParams(), page_heights={1: 1000.0}
        )
        assert corrected[0].elements["w"].type is ElementLabel.PAGE_HEADER
        assert corrected[0].elements["w"].weight == WEIGHTS[ElementLabel.PAGE_HEADER]
        assert list(corrected[0].elements)[0] == "w"

    def test_idempotent(self):
        pages = []
        for n in (1, 2):
            header = build_entity(
                f"h{n}", "page_header", (200, 20, 600, 50), text="ACME Corp 2024"
            )
            body = build_entity(f"b{n}", "text", (0, 200, 100, 260), text="body text")
            pages.append(_page(n, [header, body]))
        stray = build_entity("h3", "text", (200, 20, 600, 50), text="ACME Corp 2024")
        pages.append(_page(3, [stray]))
        once = correct_headers_footers(pages, HeaderFooterParams())
        twice = correct_headers_footers(once, HeaderFooterParams())
        assert [page_to_dict(p) for p in once] == [page_to_dict(p) for p in twice]

    def test_relabeled_entity_leaves_group(self):
        from docweave.model import make_group

        pages = [
            _page(1, [build_entity("h1", "page_header", (0, 0, 200, 20), text="Running Header")]),
        ]
        stray = build_entity("s", "text", (0, 0, 200, 20), text="Running Header")
        body = build_entity("b", "text", (0, 100, 200, 140), text="body")
        group = make_group(GroupType.GENERIC, [stray, body])
        pages.append(_page(2, [stray, body], groups=[group]))

        corrected = correct_headers_footers(pages, HeaderFooterParams())
        page2 = corrected[1]
        assert page2.elements["s"].type is ElementLabel.PAGE_HEADER
        assert all("s" not in g.ids for g in page2.groups)
        assert "s" in page2.non_groups
        # shrunken group bbox recomputed to the surviving member
        assert page2.groups[0].pixel_coordinates == body.pixel_coordinates


class TestAssemblePage:
    def test_empty_page(self):
        page = assemble_page(1, [], [], PARAMS)
        assert page.elements == {} and page.groups == () and page.non_groups == ()

    def test_two_column_reading_order(self):
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

    def test_duplicate_title_deduped(self):
        strong = build_entity("a", "title", (100, 10, 500, 60), text="Grand Title", confidence=0.8)
        weak = build_entity("b", "title", (105, 12, 505, 62), text="Grand Title", confidence=0.6)
        page = assemble_page(1, [], [weak, strong], PARAMS)
        assert list(page.elements) == ["a"]

    def test_partition_invariant(self):
        entities = [
            build_entity(f"e{i}", "text", (10 * i, 50 * i, 10 * i + 40, 50 * i + 30), text=f"text {i}")
            for i in range(6)
        ]
        region = layout_detection("group", (0, 0, 200, 200))
        page = assemble_page(1, [region], entities, PARAMS)
        grouped = [eid for g in page.groups for eid in g.ids]
        assert sorted(grouped + list(page.non_groups)) == sorted(page.elements)

    def test_input_permutation_gives_identical_page(self):
        rng = random.Random(42)
        for _ in range(20):
            entities = [
                build_entity(
                    f"e{i}",
                    rng.choice(["text", "title", "section", "list_item"]),
                    (
                        x := rng.randint(0, 600),
                        y := rng.randint(0, 900),
                        x + rng.randint(10, 150),
                        y + rng.randint(10, 60),
                    ),
                    text=f"entity number {i}",
                    confidence=round(rng.uniform(0.3, 1.0), 3),
                )
                for i in range(rng.randint(0, 12))
            ]
            regions = [
                layout_detection(
                    rng.choice(["multi_column", "row_group", "group", "layout_box"]),
                    (
                        rx := rng.randint(0, 400),
                        ry := rng.randint(0, 600),
                        rx + rng.randint(50, 400),
                        ry + rng.randint(50, 300),
                    ),
                    confidence=round(rng.uniform(0.2, 1.0), 3),
                )
                for _ in range(rng.randint(0, 3))
            ]
            baseline = assemble_page(1, regions, entities, PARAMS)
            shuffled_entities = entities[:]
            shuffled_regions = regions[:]
            rng.shuffle(shuffled_entities)
            rng.shuffle(shuffled_regions)
            permuted = assemble_page(1, shuffled_regions, shuffled_entities, PARAMS)
            assert json.dumps(page_to_dict(baseline)) == json.dumps(page_to_dict(permuted))

    def test_skipped_ids_recorded(self):
        text = build_entity("t", "text", (0, 0, 100, 30), text="body")
        page = assemble_page(1, [], [text], PARAMS, skipped_image_ids=["z-img", "a-img"])
        assert page.skipped_images == ("a-img", "z-img")


class TestParamValidation:
    def test_bad_eps(self):
        with pytest.raises(ValidationError):
            ClusterParams(eps=0)

    def test_bad_min_samples(self):
        with pytest.raises(ValidationError):
            ClusterParams(min_samples=0)

    def test_bad_angle(self):
        with pytest.raises(ValidationError):
            RowOrderParams(angle_threshold_degrees=91)

    def test_bad_fuzzy(self):
        with pytest.raises(ValidationError):
            HeaderFooterParams(fuzzy_threshold=0)
