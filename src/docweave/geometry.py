"""Box primitives in top-left-origin pixel space (y grows downward)."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class BBox:
    """Axis-aligned pixel box. Invariant: left <= right, top <= bottom, all >= 0.

    Coordinates are ints or floats, never coerced from bools or strings.
    """

    left: float
    top: float
    right: float
    bottom: float

    def __post_init__(self):
        left, top, right, bottom = self.left, self.top, self.right, self.bottom
        if (
            type(left) is float and type(top) is float and type(right) is float and type(bottom) is float
            and 0.0 <= left <= right <= _FLOAT_MAX and 0.0 <= top <= bottom <= _FLOAT_MAX
        ):
            return  # already valid floats; anything else is converted or rejected below
        for name in ("left", "top", "right", "bottom"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a number, got {value!r}")
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:
                raise ValueError(f"{name} is too large for a float") from None
        coords = (self.left, self.top, self.right, self.bottom)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite, got {coords}")
        if any(c < 0 for c in coords):
            raise ValueError(f"box coordinates must be non-negative, got {coords}")
        if self.left > self.right or self.top > self.bottom:
            raise ValueError(
                f"box must satisfy left <= right and top <= bottom, got {coords}"
            )

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def height(self) -> float:
        return self.bottom - self.top

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def x_center(self) -> float:
        return (self.left + self.right) / 2

    @property
    def y_center(self) -> float:
        return (self.top + self.bottom) / 2


def contains_midpoint(container: BBox, element: BBox) -> bool:
    """True when the element's centre lies inside the container, borders included."""
    return (
        container.left <= element.x_center <= container.right
        and container.top <= element.y_center <= container.bottom
    )


def union_bbox(boxes: Iterable[BBox]) -> BBox:
    boxes = list(boxes)
    if not boxes:
        raise ValueError("empty box set")
    return BBox(
        left=min(b.left for b in boxes),
        top=min(b.top for b in boxes),
        right=max(b.right for b in boxes),
        bottom=max(b.bottom for b in boxes),
    )


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union; 0.0 for disjoint or degenerate boxes."""
    ileft = max(a.left, b.left)
    itop = max(a.top, b.top)
    iright = min(a.right, b.right)
    ibottom = min(a.bottom, b.bottom)
    if ileft >= iright or itop >= ibottom:
        return 0.0
    inter = (iright - ileft) * (ibottom - itop)
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0
