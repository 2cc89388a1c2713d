"""Partitions, compositions, and skew shapes in canonical form.

Conventions used throughout the package:

* partitions and compositions are tuples of positive ints (no trailing zeros);
* boxes use matrix coordinates, 0-based: row ``i`` of ``outer/inner`` occupies
  columns ``inner[i] <= j < outer[i]``, row 0 on top;
* a skew shape is stored canonically ("basic" form): no empty rows
  (``outer[i] > inner[i]`` for every row) and no empty columns (every column
  ``0..outer[0]-1`` contains a box).

Any pair of nested partitions describes the same diagram as its canonical
form, so constructors normalise instead of rejecting.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby

from skewsupport.config import max_size
from skewsupport.errors import (
    InvalidArgumentError,
    InvalidShapeError,
    SizeLimitError,
    SizeMismatchError,
)

Partition = tuple[int, ...]
Composition = tuple[int, ...]


def check_partition(parts, what="partition") -> Partition:
    """Coerce to a tuple, strip trailing zeros, reject non-partitions."""
    out = tuple(int(p) for p in parts)
    while out and out[-1] == 0:
        out = out[:-1]
    for i, p in enumerate(out):
        if p <= 0:
            raise InvalidShapeError(f"{what} has non-positive part: {out}")
        if i and out[i - 1] < p:
            raise InvalidShapeError(f"{what} parts must weakly decrease: {out}")
    return out


def check_composition(parts, what="composition") -> Composition:
    out = tuple(int(p) for p in parts)
    if any(p <= 0 for p in out):
        raise InvalidShapeError(f"{what} has non-positive part: {out}")
    return out


def sort_desc(parts) -> Partition:
    """Weakly decreasing rearrangement of a sequence of parts."""
    return tuple(sorted(parts, reverse=True))


def transpose_partition(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0]))


def subset_of(alpha: Composition) -> frozenset[int]:
    """Partial sums of alpha except the last: the subset of [n-1] matching alpha."""
    total, out = 0, []
    for part in alpha[:-1]:
        total += part
        out.append(total)
    return frozenset(out)


def comp_of(subset, n: int) -> Composition:
    """Inverse of subset_of: the composition of n with partial sums `subset`."""
    cuts = sorted(subset)
    if cuts and (cuts[0] < 1 or cuts[-1] > n - 1):
        raise InvalidShapeError(f"subset {cuts} not inside [{n - 1}]")
    if len(set(cuts)) != len(cuts):
        raise InvalidShapeError(f"subset has repeats: {cuts}")
    prev, out = 0, []
    for c in cuts + [n]:
        out.append(c - prev)
        prev = c
    if n == 0:
        return ()
    return tuple(out)


def comp_to_mask(alpha: Composition) -> int:
    """Bitmask of subset_of(alpha): bit i-1 set iff i is a partial sum."""
    mask, total = 0, 0
    for part in alpha[:-1]:
        total += part
        mask |= 1 << (total - 1)
    return mask


def mask_to_comp(mask: int, n: int) -> Composition:
    if n == 0:
        return ()
    prev, out = 0, []
    for i in range(1, n):
        if mask >> (i - 1) & 1:
            out.append(i - prev)
            prev = i
    out.append(n - prev)
    return tuple(out)


def _canonical_rows(intervals):
    """Drop empty rows and unused columns from a list of (start, end) rows."""
    rows = [(a, b) for a, b in intervals if b > a]
    if not rows:
        return ()
    used = sorted({c for a, b in rows for c in range(a, b)})
    return tuple(
        (bisect_left(used, a), bisect_left(used, a) + (b - a)) for a, b in rows
    )


@dataclass(frozen=True, order=True)
class SkewShape:
    """A skew diagram outer/inner, canonicalised on construction."""

    outer: Partition
    inner: Partition = ()

    def __post_init__(self):
        outer = check_partition(self.outer, "outer shape")
        inner = check_partition(self.inner, "inner shape")
        if len(inner) > len(outer):
            raise InvalidShapeError(f"inner shape longer than outer: {inner} / {outer}")
        pad = inner + (0,) * (len(outer) - len(inner))
        for lo, hi in zip(pad, outer):
            if lo > hi:
                raise InvalidShapeError(
                    f"inner shape not contained in outer: {inner} inside {outer}"
                )
        rows = _canonical_rows(list(zip(pad, outer)))
        new_outer = tuple(b for _, b in rows)
        new_inner = tuple(a for a, _ in rows)
        while new_inner and new_inner[-1] == 0:
            new_inner = new_inner[:-1]
        object.__setattr__(self, "outer", new_outer)
        object.__setattr__(self, "inner", new_inner)

    @classmethod
    def from_boxes(cls, boxes) -> "SkewShape":
        """Canonical shape with the given box set; error if it is not skew."""
        cells = {(int(r), int(c)) for r, c in boxes}
        if not cells:
            return cls((), ())
        if any(r < 0 or c < 0 for r, c in cells):
            raise InvalidShapeError("box coordinates must be non-negative")
        by_row = []
        for r, grp in groupby(sorted(cells), key=lambda rc: rc[0]):
            cols = [c for _, c in grp]
            if cols[-1] - cols[0] + 1 != len(cols):
                raise InvalidShapeError(f"row {r} is not contiguous: {cols}")
            by_row.append((r, cols[0], cols[-1] + 1))
        for (r0, a0, b0), (r1, a1, b1) in zip(by_row, by_row[1:]):
            if a1 > a0 or b1 > b0:
                raise InvalidShapeError("row intervals must move weakly left going down")
            if r1 > r0 + 1 and b1 > a0:
                raise InvalidShapeError(
                    f"rows {r0} and {r1} overlap across an empty row"
                )
        rows = _canonical_rows([(a, b) for _, a, b in by_row])
        return cls(tuple(b for _, b in rows), tuple(a for a, _ in rows))

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def n_rows(self) -> int:
        return len(self.outer)

    @property
    def n_cols(self) -> int:
        return self.outer[0] if self.outer else 0

    @property
    def inner_padded(self) -> tuple[int, ...]:
        return self.inner + (0,) * (len(self.outer) - len(self.inner))

    def boxes(self):
        inner = self.inner_padded
        return [
            (i, j)
            for i in range(len(self.outer))
            for j in range(inner[i], self.outer[i])
        ]

    def row_lengths(self) -> Composition:
        """Row lengths top to bottom (a composition of the size)."""
        return tuple(b - a for a, b in zip(self.inner_padded, self.outer))

    def col_lengths(self) -> Composition:
        """Column lengths left to right."""
        inner = self.inner_padded
        return tuple(
            sum(1 for i in range(len(self.outer)) if inner[i] <= c < self.outer[i])
            for c in range(self.n_cols)
        )

    def transpose(self) -> "SkewShape":
        return SkewShape(transpose_partition(self.outer), transpose_partition(self.inner))

    def rotate(self) -> "SkewShape":
        """Rotate the diagram by a half turn.

        Row i, columns [a, b), becomes row n_rows-1-i, columns [C-b, C-a)
        for C = n_cols.
        """
        c = self.n_cols
        return SkewShape(
            tuple(c - a for a in reversed(self.inner_padded)),
            tuple(c - b for b in reversed(self.outer)),
        )

    def is_connected(self) -> bool:
        inner = self.inner_padded
        return all(
            self.outer[i + 1] > inner[i] for i in range(len(self.outer) - 1)
        )

    def is_ribbon(self) -> bool:
        """Consecutive rows overlap in exactly one column."""
        inner = self.inner_padded
        return all(
            self.outer[i + 1] - inner[i] == 1 for i in range(len(self.outer) - 1)
        )

    def __str__(self) -> str:
        return format_shape(self)

    def __repr__(self) -> str:
        return f"SkewShape({format_shape(self)!r})"


def straight(lam) -> SkewShape:
    return SkewShape(check_partition(lam))


def direct_sum(a: SkewShape, b: SkewShape) -> SkewShape:
    """Place b's diagram strictly above and to the right of a's."""
    if not a.outer:
        return b
    if not b.outer:
        return a
    shift = a.n_cols
    outer = tuple(p + shift for p in b.outer) + a.outer
    inner = tuple(p + shift for p in b.inner_padded) + a.inner
    return SkewShape(outer, inner)


def scale(a: SkewShape, factor: int) -> SkewShape:
    if factor < 1:
        raise ValueError(f"scale factor must be >= 1, got {factor}")
    return SkewShape(
        tuple(p * factor for p in a.outer), tuple(p * factor for p in a.inner)
    )


def trim(a: SkewShape, depth: int = 1) -> SkewShape:
    """Delete the leftmost box of every row, `depth` times."""
    if depth < 0:
        raise ValueError(f"trim depth must be >= 0, got {depth}")
    for _ in range(depth):
        inner = a.inner_padded
        a = SkewShape(
            a.outer, tuple(min(x + 1, b) for x, b in zip(inner, a.outer))
        )
    return a


def ribbon_from_composition(alpha) -> SkewShape:
    """The connected ribbon whose row lengths, top to bottom, are alpha."""
    alpha = check_composition(alpha)
    if not alpha:
        return SkewShape((), ())
    rows = []
    start = 0
    for part in reversed(alpha):
        rows.append((start, start + part))
        start = start + part - 1
    rows.reverse()
    return SkewShape(tuple(b for _, b in rows), tuple(a for a, _ in rows))


def ribbon_stats(alpha) -> tuple[Partition, Partition]:
    """Sorted row lengths and sorted column lengths of the ribbon of alpha.

    Column lengths come from the complement: the column composition of a
    ribbon is the composition whose partial-sum set is the complement of
    alpha's inside [n-1], so no diagram needs to be built.
    """
    alpha = check_composition(alpha)
    n = sum(alpha)
    complement = frozenset(range(1, n)) - subset_of(alpha)
    return sort_desc(alpha), sort_desc(comp_of(complement, n))


def is_elongated_ribbon(shape: SkewShape) -> bool:
    """A ribbon all of whose rows have length at least 2."""
    return shape.is_ribbon() and all(l >= 2 for l in shape.row_lengths())


def _parse_parts(token: str, what: str) -> Partition:
    if token == "":
        return ()
    if "," in token:
        pieces = token.split(",")
        if pieces[-1] == "":  # trailing comma forces comma form: "12," is (12)
            pieces = pieces[:-1]
        if any(p == "" or not p.isdigit() for p in pieces):
            raise InvalidShapeError(f"cannot parse {what} {token!r}")
        parts = tuple(int(p) for p in pieces)
    elif token.isdigit():
        if len(token) == 1:
            parts = (int(token),)
        elif "0" in token:
            raise InvalidShapeError(
                f"cannot parse {what} {token!r}: digit shorthand has no 0 parts; "
                "use the comma form for parts >= 10"
            )
        else:
            parts = tuple(int(ch) for ch in token)
    else:
        raise InvalidShapeError(f"cannot parse {what} {token!r}")
    return check_partition(parts, what)


def parse_shape(text: str) -> SkewShape:
    """Parse "5,5,3,1,1,1/3,1" or the digit shorthand "553111/31".

    Parsing itself is never size-guarded; the expensive operations check
    the size limit themselves.
    """
    text = text.strip()
    if not text:
        raise InvalidShapeError("empty shape string")
    head, sep, tail = text.partition("/")
    if not head or (sep and not tail):
        raise InvalidShapeError(f"cannot parse shape {text!r}")
    outer = _parse_parts(head, "outer shape")
    inner = _parse_parts(tail, "inner shape") if sep else ()
    return SkewShape(outer, inner)


def format_shape(shape: SkewShape) -> str:
    """Comma form, inner part omitted when empty."""
    outer = ",".join(str(p) for p in shape.outer)
    if not shape.inner:
        return outer
    return outer + "/" + ",".join(str(p) for p in shape.inner)


def check_same_size(a: SkewShape, b: SkewShape) -> None:
    if a.size != b.size:
        raise SizeMismatchError(
            f"shapes have different sizes: {a.size} vs {b.size}"
        )


def enumerate_shapes(n: int) -> list[SkewShape]:
    """All canonical skew shapes with n boxes, sorted by (outer, inner).

    Rows are generated top to bottom as column intervals [a, b).  The
    canonical-form constraints translate to: a and b weakly decrease, each
    row is non-empty, consecutive rows satisfy b' >= a (no column gap), and
    the last row starts at column 0.
    """
    limit = max_size()
    if n < 0:
        raise InvalidArgumentError(f"n must be >= 0, got {n}")
    if n > limit:
        raise SizeLimitError(f"n={n} exceeds the size limit {limit}")
    if n == 0:
        return [SkewShape((), ())]
    results = []
    rows: list[tuple[int, int]] = []

    def emit():
        results.append(
            SkewShape(tuple(b for _, b in rows), tuple(a for a, _ in rows))
        )

    def extend(prev_a, prev_b, remaining):
        if remaining == 0:
            if rows[-1][0] == 0:
                emit()
            return
        for a in range(prev_a, -1, -1):
            for b in range(max(a + 1, prev_a), min(prev_b, a + remaining) + 1):
                rows.append((a, b))
                extend(a, b, remaining - (b - a))
                rows.pop()

    for b in range(1, n + 1):
        for a in range(0, b):
            if b - a <= n:
                rows.append((a, b))
                extend(a, b, n - (b - a))
                rows.pop()
    results.sort()
    return results
