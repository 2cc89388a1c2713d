import gc
from collections import Counter
from math import factorial

from skewsupport import kernels
from skewsupport.shapes import (
    enumerate_shapes,
    format_shape,
    parse_shape,
    partitions_of,
    sort_desc,
)
from skewsupport.tableaux import (
    enumerate_syt,
    f_expansion,
    f_expansion_via_schur,
    m_expansion,
    syt_count,
)


def test_backend_identifier():
    assert kernels.BACKEND == "python"


def test_descent_tally_against_explicit_tableaux():
    """The kernel must reproduce a literal walk over all standard fillings."""
    for n in range(1, 7):
        for s in enumerate_shapes(n):
            expected = Counter()
            for t in enumerate_syt(s):
                mask = 0
                for i in t.descent_set():
                    mask |= 1 << (i - 1)
                expected[mask] += 1
            got = kernels.descent_tally(s.inner_padded, s.outer)
            assert got == dict(expected)


def _walk_descent_tally(inner, outer):
    """Reference tally: walk every standard filling, one at a time."""
    nrows = len(outer)
    n = sum(outer) - sum(inner)
    if n == 0:
        return {0: 1}
    tally = {}
    nxt = list(inner)

    def place(step, prev_row, mask):
        if step == n:
            tally[mask] = tally.get(mask, 0) + 1
            return
        bit = 1 << (step - 1) if step else 0
        for row in range(nrows):
            col = nxt[row]
            if col >= outer[row]:
                continue
            if row and col >= inner[row - 1] and nxt[row - 1] <= col:
                continue
            nxt[row] = col + 1
            place(step + 1, row, mask | bit if step and row > prev_row else mask)
            nxt[row] = col

    place(0, -1, 0)
    return tally


SIZE8_SHAPES = (
    "8,7,6,5,4,3,2,1/7,6,5,4,3,2,1",  # eight disconnected boxes
    "8",
    "1,1,1,1,1,1,1,1",
    "4,4",
    "3,3,2",
    "4,3,1",
    "5,4,2/2,1",
    "4,4,2,1/2,1",
    "6,5,4,2/5,3,1",
    "4,4,4/2,2",
)


def _assert_matches_walk(shape):
    ip, o = shape.inner_padded, shape.outer
    got, expected = kernels.descent_tally(ip, o), _walk_descent_tally(ip, o)
    assert got == expected, format_shape(shape)
    assert list(got) == sorted(expected), format_shape(shape)  # key order


def _fields(packed, n):
    """Every field of a packed count of size n, by mask."""
    bits = 8 * kernels.field_width(n)
    return [packed >> bits * m & (1 << bits) - 1
            for m in range(1 << max(0, n - 1))]


def test_descent_counts_match_walk():
    # field m counts the fillings of descent mask m, and no field reaches
    # its top bit, for every shape of size <= 7 and the size-8 samples
    shapes = [s for n in range(8) for s in enumerate_shapes(n)]
    shapes += map(parse_shape, SIZE8_SHAPES)
    for s in shapes:
        ip, o, n = s.inner_padded, s.outer, s.size
        packed = kernels.descent_counts(ip, o)
        fields = _fields(packed, n)
        walk = _walk_descent_tally(ip, o)
        assert fields == [walk.get(m, 0) for m in range(len(fields))], (
            format_shape(s))
        assert packed.bit_length() <= 8 * kernels.field_width(n) * len(fields)
        assert max(fields) < 1 << 8 * kernels.field_width(n) - 1


def test_unpack_reads_fields_of_each_width():
    # fields of 1 to 4 bytes, the top one and the largest count a field
    # holds among them; zero fields are left out
    sizes = (3, 6, 9, 12)
    assert [kernels.field_width(n) for n in sizes] == [1, 2, 3, 4]
    assert kernels.unpack(1, 1) == {0: 1}
    assert kernels.nonzero_masks(1, 1) == 1
    for n in sizes:
        bits = 8 * kernels.field_width(n)
        top = (1 << bits - 1) - 1
        last = (1 << n - 1) - 1
        packed = 1 << bits | top << bits * 2 | 5 << bits * last
        assert kernels.unpack(packed, n) == {1: 1, 2: top, last: 5}
        assert kernels.nonzero_masks(packed, n) == 1 << 1 | 1 << 2 | 1 << last


def test_descent_counts_fill_every_field_of_the_ten_box_antichain():
    # every descent set occurs, the fields sum to 10!, and the M field of
    # (1^10), the sum of every F field, holds 10! within the field width
    antichain = parse_shape("10,9,8,7,6,5,4,3,2,1/9,8,7,6,5,4,3,2,1")
    assert antichain.n_rows == antichain.n_cols == antichain.size == 10
    packed = kernels.descent_counts(antichain.inner_padded, antichain.outer)
    fields = _fields(packed, 10)
    assert len(fields) == 1 << 9 and all(fields)
    assert kernels.nonzero_masks(packed, 10) == (1 << (1 << 9)) - 1
    assert sum(fields) == factorial(10)
    assert m_expansion(antichain)[(1,) * 10] == factorial(10)
    assert f_expansion(antichain) == f_expansion_via_schur(antichain)


def test_pure_descent_tally_matches_walk_size7():
    for s in enumerate_shapes(7):
        _assert_matches_walk(s)


def test_pure_descent_tally_matches_walk_size8():
    for text in SIZE8_SHAPES:
        s = parse_shape(text)
        assert s.size == 8
        _assert_matches_walk(s)
    antichain = parse_shape(SIZE8_SHAPES[0])
    assert antichain.n_rows == antichain.n_cols == 8
    tally = kernels.descent_tally(antichain.inner_padded, antichain.outer)
    assert sum(tally.values()) == factorial(8)
    assert len(tally) == 1 << 7  # every descent set occurs


def test_descent_support_matches_tally():
    # nonzero_masks sets bit m iff some filling has descent bits m, the
    # masks unpack reads from the same packed count, for every straight
    # and skew shape of size <= 8
    for n in range(9):
        for s in enumerate_shapes(n):
            packed = kernels.descent_counts(s.inner_padded, s.outer)
            bits = sum(1 << m for m in kernels.unpack(packed, n))
            assert kernels.nonzero_masks(packed, n) == bits, format_shape(s)


def test_descent_tally_frozen():
    # single row: one filling, no descents
    assert kernels.descent_tally((0,), (4,)) == {0: 1}
    # single column: one filling, every position a descent
    assert kernels.descent_tally((0, 0, 0), (1, 1, 1)) == {0b11: 1}
    # 2x2 square: two fillings
    assert kernels.descent_tally((0, 0), (2, 2)) == {0b010: 1, 0b101: 1}


def test_lr_tally_totals_match_tableau_counts():
    for n in range(1, 7):
        for s in enumerate_shapes(n):
            tally = kernels.lr_tally(s.inner_padded, s.outer)
            assert all(
                lam == sort_desc(lam) and sum(lam) == n for lam in tally
            )
            assert sum(
                count * syt_count(lam) for lam, count in tally.items()
            ) == len(list(enumerate_syt(s)))


def test_recursive_walks_leave_no_cycles():
    # lr_tally's, descent_counts' and partitions_of's walks are module
    # functions, not closures, so a call leaves nothing for the cyclic
    # collector
    gc.collect()
    gc.disable()
    try:
        assert kernels.lr_tally((1, 1, 0), (3, 2, 1)) == {
            (3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
        # 2,2/1: masks 0b01 and 0b10 once each, in one-byte fields
        assert kernels.descent_counts((1, 0), (2, 2)) == 1 << 8 | 1 << 16
        assert len(partitions_of(8)) == 22
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lr_tally_frozen():
    assert kernels.lr_tally((1, 0, 0), (3, 1, 1)) == {(3, 1): 1, (2, 1, 1): 1}
    assert kernels.lr_tally((1, 1, 0), (3, 2, 1)) == {
        (3, 1): 1,
        (2, 2): 1,
        (2, 1, 1): 1,
    }
    assert kernels.lr_tally((0, 0), (2, 2)) == {(2, 2): 1}
    assert kernels.lr_tally((0,), (5,)) == {(5,): 1}
