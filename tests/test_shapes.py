import gc
import random
import re
import weakref
from collections import Counter
from itertools import permutations

import pytest

from skewsupport.config import ENV_MAX_SIZE
from skewsupport.errors import (
    InvalidArgumentError,
    InvalidShapeError,
    SizeLimitError,
    SkewSupportError,
)
from skewsupport import shapes
from skewsupport.shapes import (
    SkewShape,
    comp_of,
    comp_to_mask,
    component_key,
    component_keys,
    direct_sum,
    enumerate_shapes,
    format_shape,
    key_pair_shapes,
    key_shape,
    key_shapes,
    mask_to_comp,
    parse_shape,
    ribbon_from_composition,
    ribbon_stats,
    scale,
    scale_key,
    sort_desc,
    straight,
    subset_of,
    transpose_partition,
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
    with pytest.raises(InvalidShapeError, match=re.escape(
            "outer shape parts must weakly decrease: (1, 2)")):
        SkewShape((1, 2))
    with pytest.raises(InvalidShapeError, match=re.escape(
            "inner shape has non-positive part: (-1,)")):
        SkewShape((2, 1), (-1,))
    with pytest.raises(InvalidShapeError, match=re.escape(
            "inner shape longer than outer: (2, 1) / (2,)")):
        SkewShape((2,), (2, 1))  # inner pokes below outer
    with pytest.raises(InvalidShapeError, match=re.escape(
            "outer shape has non-positive part: (2, 0, 1)")):
        SkewShape((2, 0, 1))
    with pytest.raises(InvalidShapeError, match=re.escape(
            "inner shape not contained in outer: (3,) inside (2, 2)")):
        SkewShape((2, 2), (3,))


def _box_partitions(rows, cols):
    """Every partition inside a rows x cols box, padded with zeros."""
    if rows == 0:
        yield ()
        return
    for first in range(cols, -1, -1):
        for rest in _box_partitions(rows - 1, first):
            yield (first,) + rest


def test_canonical_input_is_kept_and_the_rest_canonicalised():
    # every nested pair in a 5 x 5 box, trailing zeros, empty rows and
    # empty columns included, against the full canonicalisation
    box = list(_box_partitions(5, 5))
    pairs = [(lam, mu) for lam in box for mu in box
             if all(m <= l for l, m in zip(lam, mu))]
    assert len(pairs) == 19404
    for lam, mu in pairs:
        rows = shapes._canonical_rows(list(zip(mu, lam)))
        inner = tuple(a for a, _ in rows)
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        s = SkewShape(lam, mu)
        assert (s.outer, s.inner) == (tuple(b for _, b in rows), inner)


def test_canonical_shapes_are_not_canonicalised_again(monkeypatch):
    calls = []
    full = shapes._canonical_rows
    monkeypatch.setattr(shapes, "_canonical_rows",
                        lambda rows: calls.append(rows) or full(rows))
    listed = enumerate_shapes(7)
    keyed = [key_shape(key) for key, _ in component_keys(7)]
    for s in listed + keyed:
        s.rotate(), s.transpose()
    assert calls == []
    assert parse_shape("3,3/3") == SkewShape((3,))
    assert len(calls) == 1
    # from_boxes canonicalises the box rows; the constructor keeps the result
    assert SkewShape.from_boxes([(0, 4), (3, 1), (3, 2)]) == parse_shape("32/2")
    assert len(calls) == 2


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


def test_component_keys_match_enumeration():
    # the shapes built from the keys are the enumerated shapes, in order,
    # and each key holds its count of them
    key_counts = []
    for n in range(10):
        keyed = component_keys(n)
        listed, slots = key_shapes(keyed)
        assert listed == enumerate_shapes(n), n
        assert Counter(slots) == {
            slot: count for slot, (_, count) in enumerate(keyed)}, n
        slot_of = dict(zip(listed, slots))
        for slot, (key, _) in enumerate(keyed):
            shape = key_shape(key)
            assert shape.size == n and slot_of[shape] == slot
        key_counts.append(len(keyed))
    assert key_counts == [1, 1, 3, 6, 16, 34, 87, 198, 493, 1167]


def test_key_pair_shapes_match_a_scan_over_every_shape_pair():
    # the shape pairs of the given key pairs, in the order a scan over
    # every ordered pair of the size's shapes meets them
    rng = random.Random(26)
    for n in range(7):
        keyed = component_keys(n)
        shapes, slots = key_shapes(keyed)
        keys = range(len(keyed))
        for trial in range(6):
            pairs = {(x, y): rng.random()
                     for x in rng.sample(keys, min(trial, len(keyed)))
                     for y in rng.sample(keys, min(2, len(keyed)))}
            expected = [(a, b, pairs[x, y])
                        for (a, x), (b, y) in permutations(zip(shapes, slots),
                                                           2)
                        if (x, y) in pairs]
            assert key_pair_shapes(keyed, pairs) == expected, (n, pairs)
        assert key_pair_shapes(keyed, {}) == []


@pytest.mark.nightly
@pytest.mark.parametrize("n, count", [(10, 26_025), (11, 81_427)])
def test_nightly_key_shapes_match_enumeration(n, count):
    listed, slots = key_shapes(component_keys(n))
    assert len(listed) == len(slots) == count
    assert listed == enumerate_shapes(n)


def test_component_keys_usage_errors(monkeypatch):
    for fn in (enumerate_shapes, component_keys):
        with pytest.raises(InvalidArgumentError,
                           match="n must be >= 0, got -1"):
            fn(-1)
    monkeypatch.setenv(ENV_MAX_SIZE, "3")
    assert sum(count for _, count in component_keys(3)) == 9
    for fn in (enumerate_shapes, component_keys):
        with pytest.raises(SizeLimitError,
                           match="n=4 exceeds the size limit 3"):
            fn(4)


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


@pytest.mark.parametrize("text", [
    "", "/", "12", "10", "3,0,1", "a", "2/-1",
    # digits that str.isdigit accepts and int() does not, or not as ASCII
    "²", "3,²", "2²", "3/²", "３", "3,١/1",
])
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


def test_scale_rejects_factor_below_one():
    with pytest.raises(SkewSupportError, match="scale factor must be >= 1"):
        scale(parse_shape("21"), 0)


def test_scale_key_is_the_key_of_the_scaled_shape():
    # scale is the reference: the scaled key is read off the scaled shape
    for n in range(8):
        for s in enumerate_shapes(n):
            for factor in (1, 2, 3):
                assert scale_key(component_key(s), factor) == component_key(
                    scale(s, factor)), (format_shape(s), factor)


def test_ribbons():
    r = ribbon_from_composition((2, 3))
    assert r.is_ribbon()
    assert sort_desc(r.row_lengths()) == (3, 2)
    assert ribbon_stats((2, 3)) == ((3, 2), (2, 1, 1, 1))


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


class _Sink:
    def __init__(self):
        self.count = 0

    def __call__(self, rows):
        self.count += 1


def test_row_lists_frees_what_emit_holds_on_return():
    # with the cyclic collector off, only reference counting frees emit,
    # so a reference cycle through the generator would keep it alive
    sink = _Sink()
    ref = weakref.ref(sink)
    enabled = gc.isenabled()
    gc.disable()
    try:
        shapes._row_lists(5, 0, sink)
        assert sink.count == len(enumerate_shapes(5))
        del sink
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _unpruned_row_lists(n, overlap):
    """The row walk without pruning: every row list of non-empty rows with
    weakly decreasing ends, consecutive rows meeting the overlap, kept when
    the last row starts at column 0."""
    out = []

    def extend(rows, remaining):
        prev_a, prev_b = rows[-1]
        if remaining == 0:
            if prev_a == 0:
                out.append(tuple(rows))
            return
        for a in range(prev_a, -1, -1):
            for b in range(max(a + 1, prev_a + overlap),
                           min(prev_b, a + remaining) + 1):
                extend(rows + [(a, b)], remaining - (b - a))

    for b in range(1, n + 1):
        for a in range(b):
            extend([(a, b)], n - (b - a))
    return out


def test_row_lists_match_the_unpruned_walk():
    # pruning rows that cannot reach column 0 drops no list and keeps the
    # order, for all shapes (overlap 0) and connected shapes (overlap 1)
    for overlap in (0, 1):
        for n in range(1, 10):
            got = []
            shapes._row_lists(n, overlap, lambda rows: got.append(tuple(rows)))
            assert got == _unpruned_row_lists(n, overlap), (n, overlap)
