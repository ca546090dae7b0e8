import math

import pytest
from hypothesis import given, strategies as st

from docweave.geometry import BBox, contains_midpoint, iou, union_bbox

coords = st.floats(min_value=0, max_value=10_000, allow_nan=False, allow_infinity=False)


def boxes():
    return st.tuples(coords, coords, coords, coords).map(
        lambda t: BBox(min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3]))
    )


class TestMidpoint:
    def test_symmetric_box(self):
        box = BBox(0, 0, 10, 10)
        assert (box.x_center, box.y_center) == (5, 5)

    def test_degenerate_box(self):
        box = BBox(0, 0, 0, 0)
        assert (box.x_center, box.y_center) == (0, 0)

    def test_arithmetic_mean(self):
        box = BBox(2, 4, 8, 10)
        assert (box.x_center, box.y_center) == (5, 7)


class TestContainsMidpoint:
    def test_interior(self):
        assert contains_midpoint(BBox(0, 0, 100, 100), BBox(40, 40, 60, 60))

    def test_exterior(self):
        # midpoint (105, 105) falls outside
        assert not contains_midpoint(BBox(0, 0, 100, 100), BBox(90, 90, 120, 120))

    def test_boundary_inclusive(self):
        # midpoint exactly on the corner counts as inside
        assert contains_midpoint(BBox(0, 0, 100, 100), BBox(100, 100, 100, 100))

    @given(boxes())
    def test_box_contains_own_midpoint(self, box):
        assert contains_midpoint(box, box)


class TestUnionBBox:
    def test_singleton_identity(self):
        box = BBox(0, 0, 1, 1)
        assert union_bbox([box]) == box

    def test_componentwise_extrema(self):
        assert union_bbox([BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)]) == BBox(0, 0, 3, 3)

    def test_hand_oracle(self):
        assert union_bbox([BBox(5, 1, 6, 9), BBox(0, 3, 2, 4)]) == BBox(0, 1, 6, 9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty box set"):
            union_bbox([])

    @given(st.lists(boxes(), min_size=1, max_size=6))
    def test_idempotent_and_order_insensitive(self, box_list):
        combined = union_bbox(box_list)
        assert union_bbox([combined, combined]) == combined
        assert union_bbox(list(reversed(box_list))) == combined


class TestBBoxValidation:
    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            BBox(10, 0, 5, 10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BBox(-1, 0, 5, 10)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            BBox(0, 0, math.nan, 10)

    @pytest.mark.parametrize(
        "coords, error, message",
        [
            ((0.0, 0.0, math.nan, 10.0), ValueError, "box coordinates must be finite, got (0.0, 0.0, nan, 10.0)"),
            ((0, math.inf, 5, math.inf), ValueError, "box coordinates must be finite, got (0.0, inf, 5.0, inf)"),
            ((-1.0, 0.0, 5.0, 10.0), ValueError, "box coordinates must be non-negative, got (-1.0, 0.0, 5.0, 10.0)"),
            ((10.0, 0, 5.0, 10), ValueError,
             "box must satisfy left <= right and top <= bottom, got (10.0, 0.0, 5.0, 10.0)"),
            ((0.0, True, 5.0, 10.0), TypeError, "top must be a number, got True"),
            ((0.0, 0.0, "5", 10.0), TypeError, "right must be a number, got '5'"),
            ((0.0, 0.0, 5.0, 10**400), ValueError, "bottom is too large for a float"),
        ],
    )
    def test_rejection_messages(self, coords, error, message):
        with pytest.raises(error) as excinfo:
            BBox(*coords)
        assert str(excinfo.value) == message

    def test_accepted_coordinates_become_floats(self):
        class Coordinate(float):
            pass

        box = BBox(-0.0, 3, Coordinate(5.5), 1.5e308)
        assert [type(c) for c in (box.left, box.top, box.right, box.bottom)] == [float] * 4
        assert (box.top, box.right, box.bottom) == (3.0, 5.5, 1.5e308)
        # -0.0 equals 0.0, so it is not negative, and it keeps its sign.
        assert math.copysign(1.0, box.left) == -1.0


class TestIoU:
    def test_identical(self):
        assert iou(BBox(0, 0, 10, 10), BBox(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0

    def test_half_overlap(self):
        # 10x10 boxes shifted by 5: intersection 50, union 150
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)) == pytest.approx(1 / 3)
