import pytest

from skewsupport.config import ENV_MAX_SIZE
from skewsupport.errors import InvalidShapeError, SizeLimitError
from skewsupport.shapes import (
    SkewShape,
    comp_of,
    comp_to_mask,
    direct_sum,
    enumerate_shapes,
    format_shape,
    is_elongated_ribbon,
    mask_to_comp,
    parse_shape,
    ribbon_from_composition,
    ribbon_stats,
    scale,
    sort_desc,
    straight,
    subset_of,
    transpose_partition,
    trim,
)

try:
    from hypothesis import given

    from tests.conftest import composition_strategy, shape_strategy
except ImportError:
    given = None


# ------------------------------------------------------------ construction


def test_canonicalization_drops_empty_rows_and_columns():
    # (3,3)/(3,1): top row empty, and column 0 unused once it is gone
    assert SkewShape((3, 3), (3, 1)) == SkewShape((2,))
    # empty row in the middle is dropped, making a disconnected shape
    assert SkewShape((5, 3, 1, 1, 1), (3, 1)) == SkewShape(
        (5, 5, 3, 1, 1, 1), (5, 3, 1)
    )


def test_canonical_form_is_idempotent(small_shapes):
    for s in small_shapes:
        assert SkewShape(s.outer, s.inner) == s


def test_invalid_partitions_rejected():
    with pytest.raises(InvalidShapeError):
        SkewShape((1, 2))
    with pytest.raises(InvalidShapeError):
        SkewShape((2, 1), (-1,))
    with pytest.raises(InvalidShapeError):
        SkewShape((2,), (2, 1))  # inner pokes below outer


def test_from_boxes_round_trip(small_shapes):
    for s in small_shapes:
        assert SkewShape.from_boxes(s.boxes()) == s


def test_from_boxes_rejects_bad_sets():
    with pytest.raises(InvalidShapeError):
        SkewShape.from_boxes([(0, 0), (0, 2)])  # gap in a row
    with pytest.raises(InvalidShapeError):
        SkewShape.from_boxes([(0, 0), (1, 1)])  # row moves right going down
    with pytest.raises(InvalidShapeError):
        # row below a gap row reaching past the next row's start
        SkewShape.from_boxes([(0, 2), (2, 0), (2, 1), (2, 2), (2, 3)])


def test_from_boxes_allows_gap_rows():
    # the empty middle row collapses in canonical form
    s = SkewShape.from_boxes([(0, 2), (2, 0), (2, 1)])
    assert s == SkewShape((3, 2), (2,))
    assert s.size == 3 and s.n_rows == 2 and not s.is_connected()


# ------------------------------------------------------------- enumeration


def _grid_shapes(n: int):
    """Independent oracle: canonical shapes as deduplicated box sets."""

    def partitions_in_box(rows, cols):
        if rows == 0:
            yield ()
            return
        for first in range(cols + 1):
            for rest in partitions_in_box(rows - 1, first):
                yield (first,) + rest if first else ()

    seen = set()
    for outer in partitions_in_box(n, n):
        if sum(outer) < n:
            continue
        for inner in partitions_in_box(len(outer), outer[0] if outer else 0):
            padded = inner + (0,) * (len(outer) - len(inner))
            if sum(outer) - sum(padded) != n:
                continue
            if any(p > o for p, o in zip(padded, outer)):
                continue
            boxes = frozenset(
                (i, j)
                for i in range(len(outer))
                for j in range(padded[i], outer[i])
            )
            if boxes in seen:
                continue
            try:
                shape = SkewShape.from_boxes(boxes)
            except InvalidShapeError:
                continue
            seen.add(frozenset(shape.boxes()))
    return len(seen)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 9), (4, 28), (5, 87)])
def test_enumeration_matches_grid_oracle(n, count):
    shapes = enumerate_shapes(n)
    assert len(shapes) == count == _grid_shapes(n)
    assert len(set(shapes)) == len(shapes)
    assert shapes == sorted(shapes)
    assert all(s.size == n for s in shapes)


def test_enumeration_counts_frozen():
    counts = [len(enumerate_shapes(n)) for n in range(1, 10)]
    assert counts == [1, 3, 9, 28, 87, 272, 850, 2659, 8318]


def test_enumeration_respects_size_limit(monkeypatch):
    with pytest.raises(SizeLimitError):
        enumerate_shapes(15)
    monkeypatch.setenv(ENV_MAX_SIZE, "3")
    assert len(enumerate_shapes(3)) == 9
    with pytest.raises(SizeLimitError):
        enumerate_shapes(4)


# ------------------------------------------------------- parse and format


@pytest.mark.parametrize(
    "text,outer,inner",
    [
        ("3,1,1/1", (3, 1, 1), (1,)),
        ("311/1", (3, 1, 1), (1,)),
        ("22", (2, 2), ()),
        ("5,5,3,1,1,1/3,1", (5, 5, 3, 1, 1, 1), (3, 1)),
        ("553111/31", (5, 5, 3, 1, 1, 1), (3, 1)),
        ("12,", (12,), ()),
        ("7", (7,), ()),
    ],
)
def test_parse_shape(text, outer, inner):
    s = parse_shape(text)
    assert (s.outer, s.inner) == (outer, inner)


@pytest.mark.parametrize("text", ["", "/", "12", "10", "3,0,1", "a", "2/-1"])
def test_parse_shape_rejects(text):
    with pytest.raises(InvalidShapeError):
        parse_shape(text)


def test_parse_shape_is_not_size_guarded():
    # parsing is cheap; only expensive operations enforce the limit
    assert parse_shape("9,9,9,9/1").size == 35
    assert parse_shape("775333/64111").size == 15


def test_format_round_trip(small_shapes):
    for s in small_shapes:
        assert parse_shape(format_shape(s)) == s


# ------------------------------------------------------------- operations


def test_transpose_and_rotate_involutions(small_shapes):
    for s in small_shapes:
        assert s.transpose().transpose() == s
        assert s.rotate().rotate() == s
        assert s.transpose().rotate() == s.rotate().transpose()
        assert s.rotate().size == s.size


def test_rotate_frozen_example():
    assert parse_shape("311/1").rotate() == parse_shape("332/22")
    assert parse_shape("332/22").rotate() == parse_shape("311/1")


def test_rotate_matches_box_route():
    # oracle: turn every box (r, c) into (rows-1-r, cols-1-c) and rebuild
    for n in range(9):
        for s in enumerate_shapes(n):
            rmax, cmax = s.n_rows - 1, s.n_cols - 1
            boxes = [(rmax - r, cmax - c) for r, c in s.boxes()]
            assert s.rotate() == SkewShape.from_boxes(boxes), format_shape(s)


def test_row_and_col_lengths(small_shapes):
    for s in small_shapes:
        assert sum(s.row_lengths()) == s.size
        assert sort_desc(s.col_lengths()) == sort_desc(
            s.transpose().row_lengths()
        )
        assert sort_desc(s.transpose().col_lengths()) == sort_desc(
            s.row_lengths()
        )


def test_transpose_partition_frozen():
    assert transpose_partition((4, 2, 1)) == (3, 2, 1, 1)
    assert transpose_partition((3, 2, 1, 1)) == (4, 2, 1)
    assert transpose_partition(()) == ()


def test_direct_sum():
    s = direct_sum(straight((1, 1)), straight((3,)))
    assert (s.outer, s.inner) == ((4, 1, 1), (1,))
    assert not s.is_connected()
    assert direct_sum(straight((2, 1)), straight((2,))).size == 5


def test_scale():
    assert scale(parse_shape("4311/21"), 2) == parse_shape("8622/42")
    assert scale(parse_shape("4421/311"), 2) == parse_shape("8842/622")
    assert scale(parse_shape("22"), 1) == parse_shape("22")


def test_trim_chain():
    s = parse_shape("553111/31")
    t1 = trim(s)
    assert t1 == parse_shape("442/31")
    assert trim(t1) == parse_shape("31/1")


def test_ribbons():
    r = ribbon_from_composition((2, 3))
    assert r.is_ribbon()
    assert sort_desc(r.row_lengths()) == (3, 2)
    assert ribbon_stats((2, 3)) == ((3, 2), (2, 1, 1, 1))
    assert is_elongated_ribbon(parse_shape("632/21"))
    assert is_elongated_ribbon(parse_shape("652/41"))
    assert not is_elongated_ribbon(parse_shape("311/1"))
    assert not is_elongated_ribbon(parse_shape("22"))


def test_connectivity_and_ribbon_flags():
    assert parse_shape("22").is_connected()
    assert not parse_shape("411/1").is_connected()
    assert parse_shape("332/21").is_ribbon()
    assert not parse_shape("22").is_ribbon()


# ------------------------------------------- compositions, masks, subsets


def test_composition_subset_round_trip():
    for n in range(1, 8):
        for mask in range(1 << (n - 1)):
            comp = mask_to_comp(mask, n)
            assert sum(comp) == n
            assert comp_to_mask(comp) == mask
            assert comp_of(subset_of(comp), n) == comp


if given is not None:

    @given(shape_strategy())
    def test_hypothesis_canonical_stability(s):
        assert SkewShape(s.outer, s.inner) == s
        assert SkewShape.from_boxes(s.boxes()) == s
        assert parse_shape(format_shape(s)) == s

    @given(shape_strategy())
    def test_hypothesis_rotate_preserves_multiset_of_rows(s):
        assert sort_desc(s.rotate().row_lengths()) == sort_desc(
            s.row_lengths()
        )
        assert sort_desc(s.transpose().row_lengths()) == sort_desc(
            s.col_lengths()
        )

    @given(composition_strategy())
    def test_hypothesis_ribbon_round_trip(alpha):
        r = ribbon_from_composition(alpha)
        assert r.is_ribbon()
        assert r.size == sum(alpha)
        assert sort_desc(r.row_lengths()) == sort_desc(alpha)
