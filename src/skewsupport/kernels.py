"""The enumeration kernels.

Every kernel takes a shape as parallel tuples (inner, outer) of per-row
column bounds: row i occupies columns inner[i] <= j < outer[i].  They are
the hot loops of every exhaustive sweep.  descent_counts, the one descent
kernel, goes over fill states rather than walking the fillings one by one,
so its work grows with the number of order ideals of the shape rather than
with the number of fillings.

A packed count holds the count of descent mask m in field m of one int,
each field field_width(n) bytes wide, so that whole expansions add, shift
and mask as ints; zeta_masks(n) are the per-size masks that act on such
fields one descent bit at a time, as zeta_transform does.  A shape's
descent support, the masks of its standard fillings, is the set of
non-zero fields of its packed count (nonzero_masks).
"""

from functools import lru_cache
from itertools import compress
from math import factorial

BACKEND = "python"  # named in `--version` and in benchmark records


def field_width(n: int) -> int:
    """Bytes per field of a packed count over the fillings of n boxes.

    A count of standard fillings is at most n!, and so is every sum of
    F or M coefficients of one shape; bitlen(n!) + 1 bits keep each
    field's top bit clear, rounded up to whole bytes.
    """
    return (factorial(n).bit_length() + 8) // 8


def repeat_field(pattern: bytes, count: int) -> int:
    """The int of count copies of pattern, the first in the low bytes."""
    return int.from_bytes(pattern * count, "little")


@lru_cache(maxsize=None)
def zeta_masks(n: int) -> tuple[int, ...]:
    """Per bit b < n - 1, the whole fields whose index lacks bit b.

    The fields are field_width(n) bytes each, one per descent mask of
    size n.  Sizes stop at the size guard every caller checks first.
    """
    width = field_width(n)
    fields = 1 << max(0, n - 1)
    return tuple(repeat_field(b"\xff" * (width << b) + bytes(width << b),
                              fields >> (b + 1))
                 for b in range(n - 1))


def zeta_transform(packed: int, n: int) -> int:
    """Field m of the result sums the fields of packed whose masks lie in m.

    One bit b at a time, every field whose mask has b gains the field of
    the mask without it; no sum may reach a field's top bit."""
    width = field_width(n)
    for b, low in enumerate(zeta_masks(n)):
        packed += (packed & low) << (8 * width << b)
    return packed


def unpack(packed: int, n: int) -> dict[int, int]:
    """{mask: count} of the non-zero fields of a packed count of size n."""
    width = field_width(n)
    data = packed.to_bytes(width << max(0, n - 1), "little")
    counts = [int.from_bytes(data[i:i + width], "little")
              for i in range(0, len(data), width)]
    return dict(compress(enumerate(counts), counts))


def nonzero_fields(packed: int, guard: int, one: int) -> int:
    """The guard bits of the non-zero fields of packed.

    guard holds the top bit of every field and one its low bit, and no
    field of packed reaches its top bit.  Setting every guard bit and
    taking one off every field clears the guard bit exactly of the zero
    fields; no borrow crosses a field.
    """
    return ((packed | guard) - one) & guard


_FLAG_DIGITS = bytes.maketrans(b"\x00\x80", b"01")


def nonzero_masks(packed: int, n: int) -> int:
    """The masks of the non-zero fields of a packed count of size n, as
    one int: bit m is set iff field m is non-zero.

    The top byte of each field of nonzero_fields holds its flag, so the
    bits come from one slice of the bytes, read as binary digits.
    """
    width = field_width(n)
    fields = 1 << max(0, n - 1)
    flags = nonzero_fields(packed,
                           repeat_field(b"\x80".rjust(width, b"\0"), fields),
                           repeat_field(b"\1".ljust(width, b"\0"), fields))
    data = flags.to_bytes(width * fields, "little")[width - 1::width]
    return int(data.translate(_FLAG_DIGITS)[::-1], 2)


def descent_tally(inner, outer):
    """Tally standard fillings by descent set.

    A standard filling places 1..n, rows increasing left to right and columns
    increasing top to bottom; position i is a descent when i+1 sits in a lower
    row.  Returns {bitmask: count} with bit i-1 for a descent at i, in
    ascending mask order: descent_counts, unpacked.
    """
    return unpack(descent_counts(inner, outer), sum(outer) - sum(inner))


def descent_counts(inner, outer) -> int:
    """The standard fillings counted by descent set, as one packed int.

    Field m, field_width(n) bytes wide, holds the number of fillings with
    descent bitmask m (as keyed by descent_tally).  Standard fillings are
    the linear extensions of the poset of boxes, so rather than walking
    them one by one this counts them with a transfer over fill states:
    the per-row count of boxes filled so far, an order ideal of that
    poset, each solved once (see _counts).  The transfer indexes fields
    with the last descent positions in the low bits, so that the
    completions of a state with k entries placed span only 2^(n-1-k)
    fields; one bit reversal of the field index at the end gives field m.
    """
    n = sum(outer) - sum(inner)
    if n == 0:
        return 1
    width = field_width(n)
    memo: dict = {}  # local to this call, so nothing outlives it
    packed = _counts(tuple(inner), 0, n, 8 * width, inner, outer, memo)[-1]
    zeta = zeta_masks(n)
    for p in range((n - 1) // 2):  # swap index bits p and n - 2 - p
        q = n - 2 - p
        gap = 8 * width * ((1 << q) - (1 << p))
        moved = (packed >> gap ^ packed) & zeta[q] & ~zeta[p]
        packed ^= moved ^ moved << gap
    return packed


def _counts(state, step, n, bits, inner, outer, memo):
    """Prefix sums over rows of the packed completions of state.

    `state` holds the next unfilled column of each row with `step` entries
    placed.  Entry i of the result sums, over the rows up to i, the
    completions that place entry step+1 in that row, packed with fields of
    `bits` bits: field j counts the completions whose descents at
    step+1..n-1 are the positions n-1-b for the bits b of j.  A parent that
    places entry step in row r reads its descent at step from the split at
    r: the completions below r (total less prefix) have it, and it is the
    field bit n-1-step, one shift.
    """
    out = []
    acc = 0
    last = step + 1 == n
    shift = 0 if last else bits << (n - 2 - step)  # a descent at step+1
    for row in range(len(outer)):
        col = state[row]
        if col < outer[row] and not (
                row and col >= inner[row - 1] and state[row - 1] <= col):
            # the box is there and the box above it, if any, is filled
            if last:
                acc += 1  # the one completion: no descents left
            else:
                nxt = state[:row] + (col + 1,) + state[row + 1:]
                rest = memo.get(nxt)
                if rest is None:
                    rest = memo[nxt] = _counts(nxt, step + 1, n, bits,
                                               inner, outer, memo)
                low = rest[row]
                acc += low + ((rest[-1] - low) << shift)
        out.append(acc)
    return out


def lr_tally(inner, outer):
    """Tally lattice semistandard fillings by content.

    Fillings are weakly increasing along rows, strictly increasing down
    columns, and their reverse reading word (rows top to bottom, right to
    left) has every prefix containing at least as many v-1 as v.  The result
    {content: count} gives the Schur expansion of the shape.
    """
    nrows = len(outer)
    n = sum(outer) - sum(inner)
    if n == 0:
        return {(): 1}
    cells = [
        (i, j)
        for i in range(nrows)
        for j in range(outer[i] - 1, inner[i] - 1, -1)
    ]
    counts = [0] * (nrows + 2)
    tally: dict[tuple[int, ...], int] = {}
    _fill(0, cells, inner, outer, {}, counts, tally)
    return tally


def _fill(pos, cells, inner, outer, entries, counts, tally) -> None:
    """lr_tally's walk over cells[pos:]; no closure, so it leaves no cycle."""
    if pos == len(cells):
        top = len(counts) - 2
        while counts[top] == 0:
            top -= 1
        key = tuple(counts[1 : top + 1])
        tally[key] = tally.get(key, 0) + 1
        return
    i, j = cells[pos]
    lo = 1
    if i and inner[i - 1] <= j < outer[i - 1]:
        lo = entries[i - 1, j] + 1  # strictly below the box above
    hi = i + 1  # a lattice word never exceeds the row index
    if j + 1 < outer[i]:
        hi = min(hi, entries[i, j + 1])
    for v in range(lo, hi + 1):
        if v > 1 and counts[v] >= counts[v - 1]:
            continue  # would break the prefix condition
        counts[v] += 1
        entries[i, j] = v
        _fill(pos + 1, cells, inner, outer, entries, counts, tally)
        counts[v] -= 1
