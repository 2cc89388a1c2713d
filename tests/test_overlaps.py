import pytest

from skewsupport.errors import SizeMismatchError, SkewSupportError
from skewsupport import config
from skewsupport.overlaps import (
    OverlapProfile,
    dominance_guard,
    dominance_leq,
    key_dominated,
    overlap_cols,
    overlap_rows,
    overlaps_dominated,
    profile_keys,
    rects,
)
from skewsupport.shapes import (
    SkewShape,
    direct_sum,
    enumerate_shapes,
    parse_shape,
    scale,
    transpose_partition,
)

try:
    from hypothesis import given

    from tests.conftest import partition_strategy, shape_strategy
except ImportError:
    given = None


def test_profile_frozen_example():
    s = parse_shape("553111/31")
    assert overlap_rows(s, 1) == (4, 3, 2, 1, 1, 1)
    assert overlap_rows(s, 2) == (2, 2, 1, 1, 1)
    assert overlap_rows(s, 3) == (1, 1)
    assert overlap_rows(s, 4) == (1,)
    assert overlap_rows(s, 5) == ()
    assert overlap_cols(s, 1) == (4, 2, 2, 2, 2)
    assert overlap_cols(s, 2) == (2, 2, 1, 1)
    assert overlap_cols(s, 3) == (1, 1, 1)
    assert overlap_cols(s, 4) == (1,)
    assert overlap_cols(s, 5) == ()
    prof = OverlapProfile.of(s)
    assert prof.rows == (
        (4, 3, 2, 1, 1, 1),
        (2, 2, 1, 1, 1),
        (1, 1),
        (1,),
    )
    assert prof.depth == 4
    assert prof.row_stat(9) == ()


def test_rows_are_row_lengths_at_depth_one(small_shapes):
    for s in small_shapes:
        assert overlap_rows(s, 1) == tuple(
            sorted(s.row_lengths(), reverse=True)
        )
        assert overlap_cols(s, 1) == tuple(
            sorted(s.col_lengths(), reverse=True)
        )


def test_profile_truncates_at_first_empty_depth(small_shapes):
    for s in small_shapes:
        prof = OverlapProfile.of(s)
        assert all(prof.rows)
        assert overlap_rows(s, prof.depth + 1) == ()


def _rects_direct(s, k, l):
    boxes = set(s.boxes())
    return sum(
        1
        for i in range(s.n_rows)
        for j in range(s.n_cols)
        if all(
            (i + di, j + dj) in boxes
            for di in range(k)
            for dj in range(l)
        )
    )


def test_rects_against_direct_counting():
    for n in range(1, 7):
        for s in enumerate_shapes(n):
            for k in range(1, s.n_rows + 2):
                for l in range(1, s.n_cols + 2):
                    assert rects(s, k, l) == _rects_direct(s, k, l)


def test_rects_frozen_example():
    s = parse_shape("553111/31")
    assert rects(s, 1, 1) == 12
    assert rects(s, 2, 1) == 7
    assert rects(s, 2, 2) == 2
    assert rects(s, 1, 4) == 1
    assert rects(s, 3, 2) == 0


# ---------------------------------------------------------------- dominance


def test_dominance_basics():
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    assert dominance_leq((1, 1, 1), (3,))
    assert dominance_leq((), (3,))
    assert dominance_leq((), ())
    assert not dominance_leq((1,), ())
    # unequal sizes compare by padded prefix sums
    assert dominance_leq((1,), (1, 1))
    assert not dominance_leq((1, 1), (1,))
    assert not dominance_leq((2, 2, 1), (3, 1))


def test_dominance_partial_order_on_small_partitions():
    parts = [
        (), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    for a in parts:
        assert dominance_leq(a, a)
        for b in parts:
            if dominance_leq(a, b) and dominance_leq(b, a):
                assert a == b
            for c in parts:
                if dominance_leq(a, b) and dominance_leq(b, c):
                    assert dominance_leq(a, c)


def _row_key(s):
    return profile_keys(s.outer, s.inner, s.size)[0]


def _col_key(s):
    outer, inner = map(transpose_partition, (s.outer, s.inner))
    return profile_keys(outer, inner, s.size)[0]


def test_dominance_key_matches_profiles():
    # all ordered pairs of same-size shapes up to size 6 (272 shapes at n=6)
    for n in range(7):
        shapes = enumerate_shapes(n)
        profiles = [OverlapProfile.of(s) for s in shapes]
        keys = [_row_key(s) for s in shapes]
        guard = dominance_guard(n)
        for pa, ka in zip(profiles, keys):
            for pb, kb in zip(profiles, keys):
                assert key_dominated(ka, kb, guard) == pa.dominated_by(pb)
                assert (ka == kb) == (pa == pb)


def _dominance_key_field_by_field(profile, n):
    # the reference: shift in each of the n * n prefix sums one at a time,
    # one byte each
    w = 8
    key = 0
    for k in range(1, n + 1):
        stat = profile.row_stat(k)
        total = 0
        for i in range(n):
            if i < len(stat):
                total += stat[i]
            key = key << w | total
    return key


def _rects_key_field_by_field(profile, n):
    # the reference: shift in each rects(k, l), k, l = 1..n, one byte each
    w = 8
    key = 0
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            key = key << w | profile.rects(k, l)
    return key


def _check_keys_field_by_field(s):
    n = s.size
    rows, cols = OverlapProfile.of(s), OverlapProfile.of(s.transpose())
    key, rects_key = profile_keys(s.outer, s.inner, n, with_rects=True)
    assert key == _dominance_key_field_by_field(rows, n), (s, rows)
    assert rects_key == _rects_key_field_by_field(rows, n), (s, rows)
    assert profile_keys(s.outer, s.inner, n) == (key,)
    assert _col_key(s) == _dominance_key_field_by_field(cols, n), (s, cols)


def test_dominance_key_matches_field_by_field_packing():
    # rows, columns and rectangles of every shape of size <= 9 (12,227
    # shapes), the empty shape included
    assert profile_keys((), (), 0, with_rects=True) == (0, 0)
    for n in range(10):
        for s in enumerate_shapes(n):
            _check_keys_field_by_field(s)
    _check_keys_field_by_field(SkewShape(()))
    # size 14, the default size guard: the row, the column and a
    # disconnected shape
    for s in (SkewShape((14,)), SkewShape((1,) * 14),
              direct_sum(parse_shape("432"), parse_shape("32"))):
        assert s.size == 14
        _check_keys_field_by_field(s)


def test_overlaps_dominated_and_equivalences():
    a, b = parse_shape("311/1"), parse_shape("32/1")
    assert overlaps_dominated(a, b)
    assert not overlaps_dominated(b, a)
    with pytest.raises(SizeMismatchError):
        overlaps_dominated(parse_shape("22"), parse_shape("3"))


def test_row_col_rect_dominance_equivalence():
    """The three overlap-dominance conditions agree on every ordered pair,
    and so do the packed column and rectangle keys."""

    def rects_table(s, n):
        # rects(k, l) is 0 once k or l passes the shape, so 1..n covers all
        return [rects(s, k, l) for k in range(1, n + 1)
                for l in range(1, n + 1)]

    def rects_leq(ta, tb):
        return all(x <= y for x, y in zip(ta, tb))

    for n in range(1, 7):
        guard = dominance_guard(n)
        rows = []
        for s in enumerate_shapes(n):
            prof = OverlapProfile.of(s)
            tprof = OverlapProfile.of(s.transpose())
            _, rects_key = profile_keys(s.outer, s.inner, n, with_rects=True)
            rows.append((prof, tprof, rects_table(s, n), _col_key(s),
                         rects_key))
        for pa, qa, ta, ca, ra in rows:
            for pb, qb, tb, cb, rb in rows:
                by_rows = pa.dominated_by(pb)
                by_cols = qa.dominated_by(qb)
                by_rects = rects_leq(ta, tb)
                assert by_rows == by_cols == by_rects
                assert key_dominated(ca, cb, guard) == by_cols
                assert key_dominated(ra, rb, guard) == by_rects


def test_rotation_preserves_profile(small_shapes):
    for s in small_shapes:
        assert OverlapProfile.of(s) == OverlapProfile.of(s.rotate())


def test_scaling_preserves_dominance():
    for n in range(1, 6):
        shapes = enumerate_shapes(n)
        pairs = [
            (a, b)
            for a in shapes
            for b in shapes
            if overlaps_dominated(a, b)
        ]
        for a, b in pairs:
            assert overlaps_dominated(scale(a, 2), scale(b, 2))


if given is not None:

    @given(partition_strategy(), partition_strategy())
    def test_hypothesis_dominance_antisymmetry(a, b):
        if dominance_leq(a, b) and dominance_leq(b, a):
            assert a == b

    @given(shape_strategy(), shape_strategy())
    def test_hypothesis_profile_keys_match_field_by_field(a, b):
        # direct sums and doubles reach past the exhaustive sizes, up to
        # the size guard
        for s in (a, direct_sum(a, b), scale(a, 2)):
            if s.size <= config.max_size():
                _check_keys_field_by_field(s)

    @given(shape_strategy(), shape_strategy())
    def test_hypothesis_profile_dominance_is_reflexive_transpose_safe(a, b):
        assert OverlapProfile.of(a).dominated_by(OverlapProfile.of(a))
        if a.size == b.size and overlaps_dominated(a, b):
            assert overlaps_dominated(
                a.transpose(), b.transpose()
            )


def test_overlap_rows_rejects_depth_below_one():
    with pytest.raises(SkewSupportError, match="depth must be >= 1"):
        overlap_rows(parse_shape("21"), 0)


def test_row_stat_rejects_depth_below_one():
    with pytest.raises(SkewSupportError, match="depth must be >= 1"):
        OverlapProfile.of(parse_shape("21")).row_stat(0)


def test_rects_rejects_width_below_one():
    with pytest.raises(SkewSupportError, match="width must be >= 1"):
        rects(parse_shape("21"), 1, 0)
