"""Row-overlap statistics of skew shapes and the dominance order.

overlap_k(i) counts the columns shared by the k consecutive rows starting at
row i.  Because row intervals move weakly left going down, this is just
``outer[i+k-1] - inner[i]`` clipped at zero.  The depth-k row statistic is the
weakly decreasing rearrangement of these counts with zeros dropped; depth-k
column statistics are row statistics of the transpose.
"""

from dataclasses import dataclass
from functools import lru_cache

from skewsupport.shapes import Partition, SkewShape, check_same_size, sort_desc


def overlap_rows(shape: SkewShape, k: int) -> Partition:
    """Sorted positive overlaps of k consecutive rows, for k >= 1."""
    if k < 1:
        raise ValueError(f"depth must be >= 1, got {k}")
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
        raise ValueError(f"width must be >= 1, got {l}")
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
            raise ValueError(f"depth must be >= 1, got {k}")
        return self.rows[k - 1] if k <= len(self.rows) else ()

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


def dominance_key(profile: OverlapProfile, n: int) -> int:
    """Every prefix sum of every row statistic, packed into one int.

    For shapes of size n there are at most n depths and n parts per depth,
    and no prefix sum exceeds n.  Each statistic is padded with zeros to n
    parts, each depth to n statistics, and every prefix sum gets one field
    of ``n.bit_length() + 1`` bits, so the top bit of each field stays clear.
    Equal keys mean equal profiles.  Padding does not change dominance: past
    the end of a statistic its prefix sums stay constant while those of a
    dominating statistic never fall.
    """
    w = n.bit_length() + 1
    key = 0
    for k in range(1, n + 1):
        stat = profile.row_stat(k)
        total = 0
        for i in range(n):
            if i < len(stat):
                total += stat[i]
            key = key << w | total
    return key


def rects_key(profile: OverlapProfile, n: int) -> int:
    """rects(k, l) for k, l = 1..n, each at most n, in dominance_key's fields.

    Depths past the profile's last non-empty one hold no rectangle, so they
    are shifted in as zero fields.
    """
    w = n.bit_length() + 1
    key = 0
    for stat in profile.rows:
        for l in range(1, n + 1):
            key = key << w | sum(o - l + 1 for o in stat if o >= l)
    return key << w * n * (n - profile.depth)


@lru_cache(maxsize=None)
def dominance_guard(n: int) -> int:
    """The top bit of every field of a size-n dominance_key or rects_key."""
    w = n.bit_length() + 1
    return sum(1 << (w * f + w - 1) for f in range(n * n))


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

