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
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby, product
from math import factorial
from operator import attrgetter, ge, le, lt

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
    out = tuple(map(int, parts))
    while out and out[-1] == 0:
        out = out[:-1]
    if all(map(ge, out, out[1:])) and (not out or out[-1] > 0):
        return out
    for i, p in enumerate(out):  # name the first fault
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
    """The conjugate: its first lam[i-1] parts are at least i."""
    conj: list[int] = []
    for i in range(len(lam), 0, -1):
        conj += [i] * (lam[i - 1] - len(conj))
    return tuple(conj)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in descending lexicographic order."""
    out: list[Partition] = []
    _partitions(n, n, [], out)
    return out


def _partitions(remaining, cap, prefix, out) -> None:
    """Append to out prefix + each partition of remaining with parts <= cap."""
    if remaining == 0:
        out.append(tuple(prefix))
        return
    for p in range(min(cap, remaining), 0, -1):
        prefix.append(p)
        _partitions(remaining - p, p, prefix, out)
        prefix.pop()


def distinct_permutations(items):
    """Every distinct ordering of the multiset items, in lex order.

    The rearrangements of a partition and the orderings of a component
    key's components both come from here.  Each ordering is yielded as a
    tuple and nothing is kept between calls.
    """
    perm = sorted(items)
    while True:
        yield tuple(perm)
        # the next ordering: raise the last ascent, then sort the tail
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = perm[:i:-1]


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


def _is_canonical(pad, outer) -> bool:
    """Whether the rows inner[i] <= j < outer[i] are already canonical.

    For nested partitions the rows move weakly left going down, so their
    union is one column interval iff consecutive rows share or touch a
    column; it starts at column 0 iff the last row does.  Together with
    non-empty rows that is the canonical form.
    """
    return (
        all(map(lt, pad, outer))
        and all(map(ge, outer[1:], pad))
        and (not outer or pad[-1] == 0)
    )


@dataclass(frozen=True, order=True)
class SkewShape:
    """A skew diagram outer/inner, canonicalised on construction.

    Both partitions are always validated.  Input already in canonical form
    (every row non-empty, consecutive rows sharing or touching a column, the
    last row starting at column 0) is kept as given, minus trailing zeros;
    enumerate_shapes, rotate, transpose and direct_sum of canonical shapes
    always give such input.  Anything else, as from parse_shape("3,3/3") or
    from_boxes, drops its empty rows and columns through _canonical_rows.
    """

    outer: Partition
    inner: Partition = ()

    def __post_init__(self):
        outer = check_partition(self.outer, "outer shape")
        inner = check_partition(self.inner, "inner shape")
        if len(inner) > len(outer):
            raise InvalidShapeError(f"inner shape longer than outer: {inner} / {outer}")
        pad = inner + (0,) * (len(outer) - len(inner))
        if not all(map(le, pad, outer)):
            raise InvalidShapeError(
                f"inner shape not contained in outer: {inner} inside {outer}"
            )
        if _is_canonical(pad, outer):
            object.__setattr__(self, "outer", outer)
            object.__setattr__(self, "inner", inner)
            return
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
        raise InvalidArgumentError(f"scale factor must be >= 1, got {factor}")
    return SkewShape(
        tuple(p * factor for p in a.outer), tuple(p * factor for p in a.inner)
    )


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


def _is_number(token: str) -> bool:
    """Whether token is a non-empty run of the ASCII digits 0-9.

    str.isdigit alone also accepts digits such as "²" that int() rejects.
    """
    return token.isascii() and token.isdigit()


def _parse_parts(token: str, what: str) -> Partition:
    if token == "":
        return ()
    if "," in token:
        pieces = token.split(",")
        if pieces[-1] == "":  # trailing comma forces comma form: "12," is (12)
            pieces = pieces[:-1]
        if not all(map(_is_number, pieces)):
            raise InvalidShapeError(f"cannot parse {what} {token!r}")
        parts = tuple(int(p) for p in pieces)
    elif _is_number(token):
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


def _check_n(n: int) -> None:
    limit = max_size()
    if n < 0:
        raise InvalidArgumentError(f"n must be >= 0, got {n}")
    if n > limit:
        raise SizeLimitError(f"n={n} exceeds the size limit {limit}")


def _sweep_size(n: int) -> int:
    """n, checked: a sweep needs at least one box."""
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    return n


def _row_lists(n: int, overlap: int, emit) -> None:
    """Call emit(rows) on the row intervals of each canonical n-box shape.

    Rows are generated top to bottom as column intervals [a, b).  The
    canonical-form constraints translate to: a and b weakly decrease, each
    row is non-empty, consecutive rows satisfy b' >= a + overlap (no column
    gap for overlap 0; a shared column, so a connected shape, for overlap
    1), and the last row starts at column 0.  So a row starting at a > 0
    must leave at least a + overlap boxes for the rows below it: the next
    row ends at b' >= a + overlap, and a row starting right of column 0
    needs another below it.  A row that leaves fewer is never tried;
    nothing it leads to would be emitted, so the lists come in the same
    order.  rows is reused between calls.
    """
    rows: list[tuple[int, int]] = []
    for b in range(1, n + 1):
        for a in range(0, b if b <= n - overlap else 1):
            rows.append((a, b))
            _extend_rows(rows, a, b, n - (b - a), overlap, emit)
            rows.pop()


def _extend_rows(rows, prev_a, prev_b, remaining, overlap, emit) -> None:
    """Every way to add rows of `remaining` boxes below rows, for _row_lists.

    rows ends with [prev_a, prev_b), and remaining is 0 only after a row
    starting at column 0.  A module function, not a closure: a nested
    function that calls itself refers to itself, and that cycle would keep
    emit alive until the cyclic collector runs.
    """
    if remaining == 0:
        emit(rows)
        return
    for a in range(prev_a, -1, -1):
        # a row starting at a > 0 must leave a + overlap boxes below it
        last = remaining - overlap if a else remaining
        for b in range(max(a + 1, prev_a + overlap), min(prev_b, last) + 1):
            rows.append((a, b))
            _extend_rows(rows, a, b, remaining - (b - a), overlap, emit)
            rows.pop()


def _from_rows(rows) -> SkewShape:
    return SkewShape(tuple(b for _, b in rows), tuple(a for a, _ in rows))


def enumerate_shapes(n: int) -> list[SkewShape]:
    """All canonical skew shapes with n boxes, sorted by (outer, inner)."""
    _check_n(n)
    if n == 0:
        return [SkewShape((), ())]
    results = []
    _row_lists(n, 0, lambda rows: results.append(_from_rows(rows)))
    # the dataclass order, with each comparison made on tuples in C
    results.sort(key=attrgetter("outer", "inner"))
    return results


def _half_turn(rows) -> tuple:
    """The row intervals of a canonical shape turned by a half turn."""
    width = rows[0][1]
    return tuple((width - b, width - a) for a, b in reversed(rows))


def _connected(size: int) -> list[tuple[tuple, int]]:
    """(rows, orbit) per connected size-box shape up to half-turn.

    rows is the lesser of the shape's row intervals and its half-turn's,
    as a component key writes a component; orbit is 1 if they are equal,
    else 2, the number of shapes the entry stands for.
    """
    out = []

    def emit(rows):
        rows, turned = tuple(rows), _half_turn(rows)
        if rows <= turned:
            out.append((rows, 1 if rows == turned else 2))

    _row_lists(size, 1, emit)
    return out


def _direct_sum_rows(comps) -> list[tuple[int, int]]:
    """Rows of the direct sum of comps, the first one bottom-left."""
    rows, shift = [], 0
    for comp in comps:
        rows[:0] = [(a + shift, b + shift) for a, b in comp]
        shift += comp[0][1]
    return rows


def component_keys(n: int) -> list[tuple[tuple, int]]:
    """(key, count) for each component key of the n-box shapes.

    A shape is the direct sum of an ordered sequence of connected shapes,
    its components.  Its key is the sorted tuple of its components, each
    written as the lesser of its row intervals and its half-turn's.
    s_{A+B} = s_A s_B for a direct sum and s_A is half-turn invariant (EC2
    Sec. 7.10); A + B has the row overlaps of A and B, which share no column
    (Reiner-Shaw-van Willigenburg 2007, Sec. 2); scale commutes with both.
    So the shapes of one key share every fingerprint a sweep reads, and
    the sweeps read each fingerprint from the key's rows.

    A key whose m components fall into classes c with multiplicities m_c
    holds m!/prod(m_c!) * prod(orbit_c ** m_c) shapes.  Nothing walks the
    shapes; key_shapes lists them, and key_shape builds one.
    """
    _check_n(n)
    connected = {size: _connected(size) for size in range(1, n + 1)}
    out = []
    for sizes in partitions_of(n):
        choices = [combinations_with_replacement(connected[size], m)
                   for size, m in Counter(sizes).items()]
        for picks in product(*choices):
            comps = sorted(c for pick in picks for c in pick)
            count = factorial(len(comps))
            for (_, orbit), m in Counter(comps).items():
                count = count // factorial(m) * orbit ** m
            out.append((tuple(rows for rows, _ in comps), count))
    return out


def key_shape(key) -> SkewShape:
    """The direct sum of key's components in key order, the first one
    bottom-left: one shape of the key."""
    return _from_rows(_direct_sum_rows(key))


def scale_key(key, factor: int) -> tuple:
    """The key of a shape of key scaled by factor: every row bound times
    factor.  Scaling keeps row order, where components break (rows that
    touch still touch), which of a component and its half-turn is the
    lesser and the order of the components, so the scaled rows are already
    written as a key."""
    return tuple(tuple((a * factor, b * factor) for a, b in comp)
                 for comp in key)


def key_shapes(keyed) -> tuple[list[SkewShape], list[int]]:
    """(shapes, slots): every shape of the keys in keyed, and its key.

    keyed is rows of component_keys for one size.  shapes is sorted as
    enumerate_shapes sorts it, and slots[i] is the index in keyed of the
    key of shapes[i].  Each shape is the direct sum of one distinct
    ordering of its key's components, each as written or half-turned, so
    a key holds exactly its count shapes and no shape's key is computed.
    """
    out = []
    for slot, (key, _) in enumerate(keyed):
        turns = {comp: dict.fromkeys((comp, _half_turn(comp))) for comp in key}
        for order in distinct_permutations(key):
            for comps in product(*map(turns.get, order)):
                out.append((_from_rows(_direct_sum_rows(comps)), slot))
    out.sort(key=lambda pair: (pair[0].outer, pair[0].inner))
    return [s for s, _ in out], [slot for _, slot in out]


def involved_shapes(keyed, involved) -> tuple[list[SkewShape], dict]:
    """(shapes, members): key_shapes of the keys keyed[x], x in involved,
    and members[x], the ascending indices in shapes of keyed[x]'s shapes,
    so members[x][0] is its least.  Nothing is listed if none is involved.
    """
    involved = sorted(set(involved))
    if not involved:
        return [], {}
    shapes, slots = key_shapes([keyed[x] for x in involved])
    members = {x: [] for x in involved}
    for i, slot in enumerate(slots):
        members[involved[slot]].append(i)
    return shapes, members


def key_pair_shapes(keyed, pairs) -> list[tuple]:
    """(a, b, pairs[x, y]) per ordered pair of distinct shapes of keys
    keyed[x] and keyed[y], in the order of a scan over the ordered pairs of
    key_shapes(keyed); only the keys in pairs have their shapes listed."""
    shapes, members = involved_shapes(keyed, [x for xy in pairs for x in xy])
    hits = sorted((i, j, value) for (x, y), value in pairs.items()
                  for i in members[x] for j in members[y] if i != j)
    return [(shapes[i], shapes[j], value) for i, j, value in hits]


def component_key(shape: SkewShape) -> tuple:
    """shape's key, as component_keys writes it: the inverse of key_shapes.

    A component ends at row i when row i + 1 shares no column with it.
    """
    outer, inner = shape.outer, shape.inner_padded
    comps, top = [], 0
    for i, left in enumerate(inner):
        if i + 1 == len(outer) or outer[i + 1] <= left:
            rows = tuple((inner[r] - left, outer[r] - left)
                         for r in range(top, i + 1))
            comps.append(min(rows, _half_turn(rows)))
            top = i + 1
    return tuple(sorted(comps))
