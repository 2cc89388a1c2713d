"""Orders on indexed items as bitset rows, built a field at a time.

A list of rows is an order on the indices 0..count-1: bit j of row i says
that item j lies at or above item i, for j != i.  order_rows builds the
rows of the product order on byte strings, read as runs of big-endian
fields of whole bytes: j lies above i when each field of j is at least the
same field of i.  The rows are bit-sliced a column (field position) at a
time, so the cost grows with the items times the fields, not with the
pairs: per value v of a column, one bitset of the items whose field there
is at least v, ANDed into the row of each item whose field is v.  A column
is dropped once its rows are updated, so memory stays at one column's sets.

containing orders bitsets by containment and dominated orders the
dominance keys of overlaps.profile_keys by dominance.  posets builds its
class orders from them, and relations the rows of the implication sweep's
conditions: order_rows over the packed expansions and dominance keys,
and over the supports, one byte per field.
"""


def bit_indices(bits: int):
    """Indices of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _at_least_digits(v: int) -> bytes:
    """The byte table taking x to the digit 1 if x >= v, else to 0."""
    return b"0" * v + b"1" * (256 - v)


def _at_least(column, values) -> dict:
    """Per v in values, the bitset of indices whose value in column is >= v.

    A byte column is read in one pass per value, as the base-2 digits of
    the bitset, last index first; any other column is grouped by value and
    the groups are accumulated from the largest value down.
    """
    if isinstance(column, bytes):
        digits = column[::-1]
        return {v: int(digits.translate(_at_least_digits(v)), 2)
                for v in values}
    groups = dict.fromkeys(values, 0)
    for j, v in enumerate(column):
        if v in groups:
            groups[v] |= 1 << j
    above = 0
    for v in sorted(values, reverse=True):
        above = groups[v] = above | groups[v]
    return groups


def order_rows(fields, width: int = 1) -> list[int]:
    """Bit j of row i: j != i and fields[j] >= fields[i] at every field.

    fields are byte strings of one length, each a run of big-endian fields
    of width bytes.  Per field position, the column of values is read
    straight from the joined strings, and every row whose value there is
    above the column's least ANDs the set of indices at least as large.
    """
    count = len(fields)
    rows = [(1 << count) - 1] * count
    table = b"".join(fields)
    size = len(fields[0]) if count else 0
    for start in range(0, size, width):
        if width == 1:
            column = table[start::size]
        else:
            column = [int.from_bytes(table[p:p + width], "big")
                      for p in range(start, len(table), size)]
        values = set(column)
        if len(values) > 1:  # a column with one value bounds nothing
            least = min(values)
            values.remove(least)
            at_least = _at_least(column, values)
            for i, v in enumerate(column):
                if v != least:
                    rows[i] &= at_least[v]
    return [row ^ 1 << i for i, row in enumerate(rows)]


_COMPLEMENT_DIGITS = bytes.maketrans(b"01", b"\1\0")


def containing(sets) -> list[int]:
    """Bit j of row i: j != i and sets[i] contains sets[j].

    sets are non-negative ints read as bitsets.  sets[i] contains sets[j]
    iff sets[j] lacks every bit sets[i] lacks, so the rows are order_rows
    over one 0/1 byte per bit of each set's complement.
    """
    width = max(sets, default=0).bit_length()
    return order_rows([format(s, f"0{width}b").encode()
                       .translate(_COMPLEMENT_DIGITS) for s in sets])


def dominated(keys, n: int) -> list[int]:
    """Bit j of row i: keys[i] != keys[j] and keys[j] dominates keys[i].

    keys are size-n profile_keys, one byte per field, so dominance is
    order_rows over their bytes, less the other copies of each key.
    """
    copies: dict = {}
    for j, k in enumerate(keys):
        copies[k] = copies.get(k, 0) | 1 << j
    rows = order_rows([k.to_bytes(n * n, "big") for k in keys])
    return [row & ~copies[k] for row, k in zip(rows, keys)]
