import pytest
from hypothesis import given
import hypothesis.strategies as st

from boxforge.errors import DegenerateBoxError
from boxforge.geometry import (
    BBox,
    box_array,
    clip_box,
    contains,
    intersection_area,
    iou,
    iou_rows,
    nms,
    transfer_box,
)


def box(*coords):
    return BBox(*[float(c) for c in coords])


coord = st.floats(min_value=-500, max_value=500, allow_nan=False, width=32)
side = st.floats(min_value=0.25, max_value=200, allow_nan=False, width=32)


@st.composite
def boxes(draw):
    x0 = draw(coord)
    y0 = draw(coord)
    return BBox(x0, y0, x0 + draw(side), y0 + draw(side))


int_boxes = st.builds(
    lambda x, y, w, h: BBox(float(x), float(y), float(x + w), float(y + h)),
    st.integers(0, 28), st.integers(0, 28), st.integers(1, 16), st.integers(1, 16),
)


class TestBBox:
    def test_rejects_empty(self):
        with pytest.raises(DegenerateBoxError):
            BBox(0, 0, 0, 10)

    def test_rejects_inverted(self):
        with pytest.raises(DegenerateBoxError):
            BBox(5, 0, 3, 10)

    def test_rejects_non_finite(self):
        with pytest.raises(DegenerateBoxError):
            BBox(0, 0, float("nan"), 10)

    def test_json_shape_round_trip(self):
        b = box(1, 2, 3.5, 4.25)
        assert b.as_list() == [1.0, 2.0, 3.5, 4.25]
        assert BBox.from_list(b.as_list()) == b


class TestIou:
    def test_identity(self):
        b = box(3, 4, 10, 12)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 30, 30)) == 0.0

    def test_touching_counts_as_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(10, 0, 20, 10)) == 0.0

    def test_half_shift(self):
        # intersection 50, union 150
        assert iou(box(0, 0, 10, 10), box(5, 0, 15, 10)) == pytest.approx(1 / 3)

    @given(boxes(), boxes())
    def test_symmetric_and_bounded(self, a, b):
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0

    @given(boxes(), boxes(), coord, coord)
    def test_translation_invariant(self, a, b, dx, dy):
        shift = lambda bb: BBox(bb.x_min + dx, bb.y_min + dy, bb.x_max + dx, bb.y_max + dy)
        assert iou(shift(a), shift(b)) == pytest.approx(iou(a, b), abs=1e-9)


def pixel_iou_oracle(a: BBox, b: BBox) -> float:
    """Count unit pixels inside each integer box; independent of the formula."""
    in_a = in_b = in_both = 0
    x_lo = int(min(a.x_min, b.x_min))
    x_hi = int(max(a.x_max, b.x_max))
    y_lo = int(min(a.y_min, b.y_min))
    y_hi = int(max(a.y_max, b.y_max))
    for x in range(x_lo, x_hi):
        for y in range(y_lo, y_hi):
            ia = a.x_min <= x < a.x_max and a.y_min <= y < a.y_max
            ib = b.x_min <= x < b.x_max and b.y_min <= y < b.y_max
            in_a += ia
            in_b += ib
            in_both += ia and ib
    union = in_a + in_b - in_both
    return in_both / union if union else 0.0


@given(int_boxes, int_boxes)
def test_iou_matches_pixel_counting_oracle(a, b):
    assert iou(a, b) == pytest.approx(pixel_iou_oracle(a, b), abs=1e-9)


# small integer and half-integer boxes: many shared, touching and nested edges
near_box = st.builds(
    lambda x, y, w, h: box(x / 2, y / 2, (x + w) / 2, (y + h) / 2),
    st.integers(0, 24), st.integers(0, 24), st.integers(1, 16), st.integers(1, 16),
)


# overlapping boxes with arbitrary mantissas, so rounding order shows
unit = st.floats(0.0, 10.0, allow_nan=False)
overlapping_box = st.builds(
    lambda x, y, w, h: BBox(x, y, x + w, y + h), unit, unit, unit.map(lambda v: v + 0.5),
    unit.map(lambda v: v + 0.5),
)
any_box = st.one_of(near_box, overlapping_box, boxes())


class TestIouRows:
    @given(st.lists(any_box, max_size=12), any_box)
    def test_equals_pairwise_iou_exactly(self, rows, other):
        assert iou_rows(box_array(rows), other).tolist() == [iou(r, other) for r in rows]

    def test_edge_cases(self):
        ref = box(0, 0, 10, 10)
        rows = [
            box(10, 0, 20, 10),  # touching edge
            box(10, 10, 20, 20),  # touching corner
            box(30, 30, 40, 40),  # disjoint
            box(2, 2, 5, 5),  # inside
            ref,  # identical
            box(-5, -5, 15, 15),  # contains
            box(5, 5, 15, 15),  # partial
        ]
        got = iou_rows(box_array(rows), ref).tolist()
        assert got == [iou(r, ref) for r in rows]
        assert got[:3] == [0.0, 0.0, 0.0] and got[4] == 1.0

    def test_no_rows(self):
        assert iou_rows(box_array([]), box(0, 0, 1, 1)).shape == (0,)


class TestTransferBox:
    def test_identity_when_track_equals_match(self):
        r, v = box(10, 10, 50, 50), box(20, 20, 60, 60)
        assert transfer_box(r, v, v) == r

    def test_per_coordinate_addition(self):
        r = box(10, 10, 50, 50)
        v = box(20, 20, 60, 60)
        t = box(25, 15, 65, 55)
        assert transfer_box(r, v, t) == box(15, 5, 55, 45)

    def test_pure_translation(self):
        r = box(1, 2, 7, 9)
        v = box(3, 3, 8, 8)
        d = 4.0
        t = BBox(v.x_min + d, v.y_min + d, v.x_max + d, v.y_max + d)
        assert transfer_box(r, v, t) == BBox(r.x_min + d, r.y_min + d, r.x_max + d, r.y_max + d)

    def test_degenerate_raises(self):
        r = box(0, 0, 2, 2)
        v = box(0, 0, 10, 10)
        t = box(0, 0, 3, 3)  # shrinks r's width/height below zero
        with pytest.raises(DegenerateBoxError):
            transfer_box(r, v, t)

    @given(boxes(), boxes(), boxes())
    def test_inverse_identity(self, r, v, t):
        try:
            forward = transfer_box(r, v, t)
            back = transfer_box(forward, t, v)
        except DegenerateBoxError:
            return
        assert back.as_list() == pytest.approx(r.as_list(), abs=1e-9)


class TestContains:
    def test_self(self):
        b = box(0, 0, 10, 10)
        assert contains(b, b)

    def test_strict_nesting(self):
        assert contains(box(0, 0, 10, 10), box(2, 2, 8, 8))

    def test_partial_overlap(self):
        assert not contains(box(0, 0, 10, 10), box(5, 5, 15, 15))

    @given(boxes(), boxes())
    def test_containment_iou_is_area_ratio(self, outer, inner):
        if contains(outer, inner):
            assert iou(outer, inner) == pytest.approx(inner.area / outer.area, rel=1e-9)


def nms_oracle(boxes_, scores, thresh):
    order = sorted(range(len(boxes_)), key=lambda i: (-scores[i], boxes_[i].sort_key(), i))
    kept = []
    for i in order:
        if all(iou(boxes_[i], boxes_[j]) <= thresh for j in kept):
            kept.append(i)
    return kept


class TestNms:
    def test_single_box(self):
        assert nms([box(0, 0, 5, 5)], [1.0], 0.5) == [0]

    def test_identical_boxes_keep_higher_score(self):
        b = box(0, 0, 5, 5)
        assert nms([b, b], [2.0, 1.0], 0.5) == [0]
        assert nms([b, b], [1.0, 2.0], 0.5) == [1]

    def test_three_box_chain_matches_greedy_oracle(self):
        chain = [box(0, 0, 10, 10), box(6, 0, 16, 10), box(12, 0, 22, 10)]
        scores = [3.0, 2.0, 1.0]
        assert nms(chain, scores, 0.3) == nms_oracle(chain, scores, 0.3)

    @given(
        st.lists(int_boxes, min_size=1, max_size=8),
        st.floats(min_value=0.0, max_value=1.0),
        st.randoms(use_true_random=False),
    )
    def test_matches_oracle_on_random_instances(self, bs, thresh, rnd):
        scores = [rnd.choice([0.5, 1.0, 2.0]) for _ in bs]
        assert nms(bs, scores, thresh) == nms_oracle(bs, scores, thresh)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            nms([box(0, 0, 1, 1)], [1.0], 1.5)


class TestClip:
    def test_inside_untouched(self):
        assert clip_box(box(1, 1, 5, 5), 10, 10) == box(1, 1, 5, 5)

    def test_clips_to_bounds(self):
        assert clip_box(box(-3, -3, 5, 12), 10, 10) == box(0, 0, 5, 10)

    def test_outside_is_none(self):
        assert clip_box(box(20, 20, 30, 30), 10, 10) is None


def test_intersection_area_matches_iou_zero_rule():
    a, b = box(0, 0, 4, 4), box(4, 0, 8, 4)
    assert intersection_area(a, b) == 0.0
    assert iou(a, b) == 0.0
