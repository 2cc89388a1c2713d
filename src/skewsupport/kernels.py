"""The enumeration kernels.

Both kernels take a shape as parallel tuples (inner, outer) of per-row column
bounds: row i occupies columns inner[i] <= j < outer[i].  They are the hot
loops of every exhaustive sweep.  descent_tally counts fillings by fill state
rather than walking them, so its work grows with the number of order ideals
of the shape rather than with the number of fillings.
"""

BACKEND = "python"  # named in `--version` and in benchmark records


def descent_tally(inner, outer):
    """Tally standard fillings by descent set.

    A standard filling places 1..n, rows increasing left to right and columns
    increasing top to bottom; position i is a descent when i+1 sits in a lower
    row.  Returns {bitmask: count} with bit i-1 for a descent at i.

    Standard fillings are the linear extensions of the poset of boxes, so
    rather than walking them one by one this counts them with a transfer over
    fill states: the per-row count of boxes filled so far, which is an order
    ideal of that poset.  Each state is solved once (see _completions) and the
    tally keeps the walk's first-seen key order.
    """
    n = sum(outer) - sum(inner)
    if n == 0:
        return {0: 1}
    memo: dict = {}  # local to this call, so nothing outlives it
    tally: dict[int, int] = {}
    for masks in _completions(tuple(inner), 0, n, inner, outer, memo).values():
        for mask, count in masks.items():
            tally[mask] = tally.get(mask, 0) + count
    return tally


def _completions(state, step, n, inner, outer, memo):
    """{row of entry step+1: {descent bits: count}} over completions of state.

    `state` holds the next unfilled column of each row with `step` entries
    placed; the bits cover descents at positions step+1..n-1.  Rows come in
    increasing order and each bit dict in first-seen order, which is the
    order a top-row-first walk over the fillings meets them.
    """
    out = {}
    bit = 1 << step  # a descent at step+1: entry step+2 sits in a lower row
    for row in range(len(outer)):
        col = state[row]
        if col >= outer[row]:
            continue
        if row and col >= inner[row - 1] and state[row - 1] <= col:
            continue  # the box above exists and is still unfilled
        if step + 1 == n:
            out[row] = {0: 1}
            continue
        nxt = state[:row] + (col + 1,) + state[row + 1:]
        rest = memo.get(nxt)
        if rest is None:
            rest = memo[nxt] = _completions(nxt, step + 1, n, inner, outer,
                                            memo)
        acc: dict[int, int] = {}
        for below, masks in rest.items():
            if below > row:
                for mask, count in masks.items():
                    mask |= bit
                    acc[mask] = acc.get(mask, 0) + count
            else:
                for mask, count in masks.items():
                    acc[mask] = acc.get(mask, 0) + count
        out[row] = acc
    return out


def descent_support(inner, outer):
    """The descent sets of the standard fillings, as one int.

    Bit m is set iff some standard filling has descent bitmask m, as keyed
    by descent_tally; the counts are not kept.  This is descent_tally's
    transfer with each completion set held as one int (see
    _support_completions), so merging two sets is an OR.
    """
    n = sum(outer) - sum(inner)
    if n == 0:
        return 1
    memo: dict = {}  # local to this call, so nothing outlives it
    bits = 0
    for rest in _support_completions(tuple(inner), 0, n, inner, outer,
                                     memo).values():
        bits |= rest
    return bits


def _support_completions(state, step, n, inner, outer, memo):
    """{row of entry step+1: descent sets} over completions of state.

    As _completions, with each {descent bits: count} dict replaced by an
    int whose bit m says descent bits m occur.  Bit `step` of every mask
    in a completion set is still clear, so adding the descent at step+1
    to a whole set adds 1 << step to each mask: a shift by 1 << step.
    """
    out = {}
    shift = 1 << step  # a descent at step+1 is bit `step` of a mask
    for row in range(len(outer)):
        col = state[row]
        if col >= outer[row]:
            continue
        if row and col >= inner[row - 1] and state[row - 1] <= col:
            continue  # the box above exists and is still unfilled
        if step + 1 == n:
            out[row] = 1  # the one completion: no descents left
            continue
        nxt = state[:row] + (col + 1,) + state[row + 1:]
        rest = memo.get(nxt)
        if rest is None:
            rest = memo[nxt] = _support_completions(nxt, step + 1, n, inner,
                                                    outer, memo)
        acc = 0
        for below, sets in rest.items():
            acc |= sets << shift if below > row else sets
        out[row] = acc
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
