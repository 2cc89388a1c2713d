"""Row-overlap statistics of skew shapes and the dominance order.

overlap_k(i) counts the columns shared by the k consecutive rows starting at
row i.  Because row intervals move weakly left going down, this is just
``outer[i+k-1] - inner[i]`` clipped at zero.  The depth-k row statistic is the
weakly decreasing rearrangement of these counts with zeros dropped; depth-k
column statistics are row statistics of the transpose.

profile_keys packs every depth's prefix sums, and optionally the rectangle
counts, into one int straight from the two partitions, one byte per field
as in the packed records (relations.Layout), so that dominance is one
guard-bit subtraction (key_dominated).  Fields hold at most n, so bit 7 of
each byte stays a clear guard bit for any n < 128, far past the size guard.
OverlapProfile and overlaps_dominated read the statistics one depth at a
time and stay the independent route the keys are checked against.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from skewsupport.errors import InvalidArgumentError
from skewsupport.shapes import (
    Partition,
    SkewShape,
    check_same_size,
    sort_desc,
    transpose_partition,
)


def overlap_rows(shape: SkewShape, k: int) -> Partition:
    """Sorted positive overlaps of k consecutive rows, for k >= 1."""
    if k < 1:
        raise InvalidArgumentError(f"depth must be >= 1, got {k}")
    outer, inner = shape.outer, shape.inner_padded
    counts = [
        outer[i + k - 1] - inner[i] for i in range(len(outer) - k + 1)
    ]
    return sort_desc(c for c in counts if c > 0)


def overlap_cols(shape: SkewShape, k: int) -> Partition:
    return overlap_rows(shape.transpose(), k)


def rects(shape: SkewShape, k: int, l: int) -> int:
    """Number of k x l all-box rectangles inside the shape."""
    if l < 1:
        raise InvalidArgumentError(f"width must be >= 1, got {l}")
    return sum(max(0, o - l + 1) for o in overlap_rows(shape, k))


@dataclass(frozen=True)
class OverlapProfile:
    """Row statistics of every depth, up to the last non-empty one."""

    rows: tuple[Partition, ...]

    @classmethod
    def of(cls, shape: SkewShape) -> "OverlapProfile":
        stats = []
        for k in range(1, shape.n_rows + 1):
            stat = overlap_rows(shape, k)
            if not stat:
                break
            stats.append(stat)
        return cls(tuple(stats))

    def row_stat(self, k: int) -> Partition:
        if k < 1:
            raise InvalidArgumentError(f"depth must be >= 1, got {k}")
        return self.rows[k - 1] if k <= len(self.rows) else ()

    def rects(self, k: int, l: int) -> int:
        """rects(shape, k, l), read from the depth-k statistic."""
        if l < 1:
            raise InvalidArgumentError(f"width must be >= 1, got {l}")
        return sum(o - l + 1 for o in self.row_stat(k) if o >= l)

    @property
    def depth(self) -> int:
        return len(self.rows)

    def dominated_by(self, other: "OverlapProfile") -> bool:
        return all(
            dominance_leq(stat, other.row_stat(k))
            for k, stat in enumerate(self.rows, start=1)
        )


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """Prefix-sum dominance, allowing unequal sizes and lengths.

    lam <= mu iff lam[0]+...+lam[k-1] <= mu[0]+...+mu[k-1] for every
    k = 1..len(lam), with mu padded by zeros.
    """
    total_l, total_m = 0, 0
    for i, part in enumerate(lam):
        total_l += part
        total_m += mu[i] if i < len(mu) else 0
        if total_l > total_m:
            return False
    return True


def profile_keys(outer: Partition, inner: Partition, n: int,
                 with_rects: bool = False) -> tuple:
    """Packed keys of the shape outer/inner of size n, from its partitions.

    Returns (dominance key,), or (dominance key, rectangle key) when
    with_rects is set.  The dominance key holds every prefix sum of every
    depth-k row statistic (k = 1..n), each statistic padded with zeros to
    n parts, one byte per prefix sum, big-endian, as relations.Layout packs
    the records.  No prefix sum exceeds n, so bit 7 of each byte stays
    clear as the guard bit while n < 128; a record of size n needs 2^(n-1)
    fields per expansion, so no caller comes near that bound (the default
    size guard is 14).  Equal keys mean equal profiles.  Padding does not
    change dominance: past the end of a statistic its prefix sums stay
    constant while those of a dominating statistic never fall.  The
    rectangle key holds rects(k, l) for l = 1..n in the same fields, each a
    running sum from the right, since rects(k, l) - rects(k, l + 1) is the
    number of overlaps >= l.  Depths past the last non-empty statistic are
    zero fields in both keys.

    The column key of the shape is the dominance key of the conjugates of
    outer and inner.
    """
    pad = inner + (0,) * (len(outer) - len(inner))
    prefix, counts = [], []
    depth = 0
    for k in range(len(outer)):
        stat = sorted([o - a for o, a in zip(outer[k:], pad) if o > a],
                      reverse=True)
        if not stat:
            break
        depth += 1
        prefix += accumulate(stat)
        prefix += [sum(stat)] * (n - len(stat))
        if with_rects:
            # part l - 1 of the conjugate counts the overlaps >= l
            sums = list(accumulate(reversed(transpose_partition(stat))))
            counts += reversed(sums)
            counts += [0] * (n - stat[0])
    tail = bytes(n * (n - depth))
    key = int.from_bytes(bytes(prefix) + tail, "big")
    if not with_rects:
        return (key,)
    return key, int.from_bytes(bytes(counts) + tail, "big")


@lru_cache(maxsize=None)
def dominance_guard(n: int) -> int:
    """Bit 7 of every byte of a size-n key from profile_keys."""
    return int.from_bytes(b"\x80" * (n * n), "big")


def key_dominated(ka: int, kb: int, guard: int) -> bool:
    """Whether the profile keyed ka is dominated by the profile keyed kb.

    Setting the guard bits of kb and subtracting ka works field by field,
    since no field of ka reaches its guard bit and so no borrow crosses a
    field; a guard bit survives exactly where kb's field is at least ka's.
    """
    return ((kb | guard) - ka) & guard == guard


def overlaps_dominated(a: SkewShape, b: SkewShape) -> bool:
    """Whether every depth-k row statistic of a is dominated by b's.

    Only defined for shapes of equal size; the dominance order is not
    meaningful across sizes here.
    """
    check_same_size(a, b)
    return OverlapProfile.of(a).dominated_by(OverlapProfile.of(b))

