"""Standard fillings of skew shapes and their basis expansions.

The fundamental objects here are the standard tableaux of a shape A (rows
increase left to right, columns increase top to bottom) and their descent
compositions.  Summing one fundamental quasisymmetric term per tableau gives
the F-expansion of s_A; coarsening by the subset-sum transform gives the
monomial expansion; counting lattice semistandard fillings gives the Schur
expansion.  A shape's F- and M-expansions both come from one packed count
of its own fillings by descent mask (kernels.descent_counts, kept per
shape in _f_counts): F unpacks it, and M unpacks its zeta transform, taken
on the packed fields one descent bit at a time.

Every Schur expansion comes from one route: the shape's component key
(shapes.component_key), whose connected components are each tallied by
lattice fillings once and multiplied through a table of straight products
c^nu_{lam mu} (key_schur_expansion), with the row/column frame check on
every call.  schur_expansion(shape) is that route behind a cache.  Two
whole-shape routes stay as the tests' references: lattice fillings of the
whole diagram (schur_expansion_lr), and inverting the unitriangular Kostka
matrix against the monomial expansion (schur_expansion_kostka).  The sweeps
hold an F-support as its cover (f_support_cover): the partitions of n whose
straight F-supports it contains, p(n) bits that order and group shapes as
the 2^(n-1)-bit support masks do.  A straight F-support is the set of
non-zero fields of the straight shape's packed count (kernels.nonzero_masks),
so the descent kernel is the only transfer over fillings, run on one
partition of each conjugate pair (_straight_support_bits); f^lam is the
Kostka number K_{lam,1^n} (syt_count).  The cover depends only on the Schur
support, so the support-only sweeps take their covers from the support
route (support_covers), which composes each key's Schur support from its
components' supports, each component tallied once up to transpose, and
never its coefficients.

Per-size and per-partition tables are cached; no cache keeps a tally such a
table summarises.  Each shape-keyed result, and each component's tally,
goes through _guarded_cache, a bounded LRU that checks the size guard on
every call, hit or miss.  The comma text that Expansion.to_json_obj prints
for an index tuple is kept in an LRU of the same size (_key_text).
"""

from dataclasses import dataclass
from functools import lru_cache, wraps
from math import factorial
from operator import attrgetter

from skewsupport import kernels
from skewsupport.config import max_size
from skewsupport.errors import ConsistencyError, InvalidShapeError, SizeLimitError
from skewsupport.shapes import (
    Composition,
    Partition,
    SkewShape,
    _half_turn,
    component_key,
    format_shape,
    key_shape,
    mask_to_comp,
    partitions_of,
    sort_desc,
    transpose_partition,
)

BASES = ("schur", "f", "m", "s", "d")
_CACHE_SIZE = 1024  # results kept by each shape-keyed cache


@dataclass(frozen=True, eq=True)
class Expansion:
    """A finite integer combination of basis elements, keyed by index tuples.

    Keys are partitions for basis "schur" and compositions otherwise; zero
    coefficients are never stored.
    """

    basis: str
    coeffs: dict

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        clean = {}
        for key, value in self.coeffs.items():
            value = int(value)
            if value:
                clean[tuple(key)] = value
        sizes = set(map(sum, clean))
        if len(sizes) > 1:
            raise ValueError(f"mixed-degree expansion: {sorted(sizes)}")
        object.__setattr__(self, "coeffs", clean)

    def support(self) -> frozenset:
        return frozenset(self.coeffs)

    def __getitem__(self, key) -> int:
        return self.coeffs.get(tuple(key), 0)

    def __len__(self) -> int:
        return len(self.coeffs)

    def items(self):
        return self.coeffs.items()

    def minus(self, other: "Expansion") -> dict:
        """Coefficientwise difference as a plain dict (zeros dropped)."""
        if other.basis != self.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            new = out.get(key, 0) - val
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return out

    def to_json_obj(self) -> dict:
        """Coefficients keyed by comma strings, in index-tuple order."""
        coeffs = self.coeffs
        return {_key_text(key): coeffs[key] for key in sorted(coeffs)}


@lru_cache(maxsize=_CACHE_SIZE)
def _key_text(key: tuple) -> str:
    """The comma string of an index tuple of ints, as to_json_obj prints it."""
    return ",".join(map(str, key))


def _check_size(size: int) -> None:
    limit = max_size()
    if size > limit:
        raise SizeLimitError(
            f"shape has {size} boxes, over the size limit {limit}"
        )


def _guarded_cache(fn, maxsize=_CACHE_SIZE, size=attrgetter("size")):
    """Cache fn per argument, checking the size guard on every call.

    A cache hit must not get round the guard, or whether a call raises
    would depend on what the process computed before.  size(arg) is the
    box count the guard checks; the argument is a shape unless size says
    otherwise.  The LRU keeps maxsize results; the wrapper keeps its
    ``cache_info`` and ``cache_clear``.
    """
    cached = lru_cache(maxsize=maxsize)(fn)

    @wraps(fn)
    def guarded(arg):
        _check_size(size(arg))
        return cached(arg)

    guarded.cache_info = cached.cache_info
    guarded.cache_clear = cached.cache_clear
    return guarded


@dataclass(frozen=True)
class StandardTableau:
    """A standard filling of a skew shape, entries stored row by row."""

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape, rows = self.shape, tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if tuple(len(r) for r in rows) != shape.row_lengths():
            raise InvalidShapeError("entry rows do not match the shape")
        n = shape.size
        if sorted(e for row in rows for e in row) != list(range(1, n + 1)):
            raise InvalidShapeError("entries must be exactly 1..n")
        inner = shape.inner_padded
        for i, row in enumerate(rows):
            for a, b in zip(row, row[1:]):
                if a >= b:
                    raise InvalidShapeError(f"row {i} not increasing: {row}")
            if i:
                lo, hi = inner[i], shape.outer[i]
                plo = inner[i - 1]
                for j in range(max(lo, plo), min(hi, shape.outer[i - 1])):
                    if rows[i - 1][j - plo] >= row[j - lo]:
                        raise InvalidShapeError(f"column {j} not increasing")

    def descent_set(self) -> frozenset[int]:
        """Values i such that i+1 sits in a strictly lower row."""
        where = {}
        for i, row in enumerate(self.rows):
            for e in row:
                where[e] = i
        n = self.shape.size
        return frozenset(i for i in range(1, n) if where[i + 1] > where[i])

    def descent_composition(self) -> Composition:
        n = self.shape.size
        cuts = sorted(self.descent_set())
        prev, out = 0, []
        for c in cuts + [n]:
            out.append(c - prev)
            prev = c
        return tuple(out) if n else ()

    def __str__(self) -> str:
        inner = self.shape.inner_padded
        width = max((len(str(e)) for row in self.rows for e in row), default=1)
        lines = []
        for i, row in enumerate(self.rows):
            cells = ["." * width] * inner[i] + [str(e).rjust(width) for e in row]
            lines.append(" ".join(cells))
        return "\n".join(lines)


def enumerate_syt(shape: SkewShape):
    """Yield all standard tableaux of the shape, in a fixed order.

    Entries 1..n are placed in increasing order; candidate boxes for the next
    entry are tried top row first, so the stream is deterministic.
    """
    _check_size(shape.size)
    outer, inner = shape.outer, shape.inner_padded
    nrows = len(outer)
    n = shape.size
    if n == 0:
        yield StandardTableau(shape, ())
        return
    acc: list[list[int]] = [[] for _ in range(nrows)]

    def place(step):
        if step > n:
            yield StandardTableau(shape, tuple(tuple(r) for r in acc))
            return
        for row in range(nrows):
            col = inner[row] + len(acc[row])
            if col >= outer[row]:
                continue
            if row and col >= inner[row - 1]:
                if inner[row - 1] + len(acc[row - 1]) <= col:
                    continue
            acc[row].append(step)
            yield from place(step + 1)
            acc[row].pop()

    yield from place(1)


@_guarded_cache
def _f_counts(shape: SkewShape) -> int:
    """The shape's standard fillings counted by descent set, packed
    (kernels.descent_counts, fields kernels.field_width(size) bytes)."""
    return kernels.descent_counts(shape.inner_padded, shape.outer)


@lru_cache(maxsize=None)
def _compositions(n: int) -> tuple:
    """mask_to_comp(mask, n) for every descent mask of size n, by mask.

    One table per size, and sizes stop at the size guard every caller
    checks first.
    """
    return tuple(mask_to_comp(m, n) for m in range(1 << max(0, n - 1)))


def _expansion(basis: str, packed: int, n: int) -> Expansion:
    """The F- or M-expansion whose coefficient of mask m is field m."""
    counts = kernels.unpack(packed, n)
    comps = _compositions(n)
    return Expansion(basis, {comps[m]: c for m, c in counts.items()})


def f_expansion(shape: SkewShape) -> Expansion:
    """Fundamental quasisymmetric expansion, straight from standard fillings."""
    return _expansion("f", _f_counts(shape), shape.size)  # guard first


def f_support(shape: SkewShape) -> frozenset:
    return f_expansion(shape).support()


def m_expansion(shape: SkewShape) -> Expansion:
    """Monomial expansion via the subset-sum transform of the F-expansion.

    Each F term indexed by subset S contributes to every M term indexed by a
    superset of S, so the coefficient vector over subsets of [n-1] is the
    zeta transform of the F vector (kernels.zeta_transform).  No sum
    exceeds the number of fillings, so no field overflows.
    """
    packed = _f_counts(shape)  # checks the size guard first
    return _expansion("m", kernels.zeta_transform(packed, shape.size),
                      shape.size)


def schur_expansion_lr(shape: SkewShape) -> Expansion:
    """Whole-diagram lattice-filling Schur expansion; the tests' reference."""
    _check_size(shape.size)
    tally = kernels.lr_tally(shape.inner_padded, shape.outer)
    return Expansion("schur", tally)


@lru_cache(maxsize=None)
def kostka_number(mu: Partition, nu: Partition) -> int:
    """Semistandard tableaux of straight shape mu with content nu.

    Peels the last part of nu off mu as a horizontal strip and recurses.
    """
    if sum(mu) != sum(nu):
        return 0
    if not mu:
        return 1
    if not nu:
        return 0
    last = nu[-1]
    rest = nu[:-1]
    total = 0
    for smaller in _strip_removals(mu, last):
        total += kostka_number(smaller, rest)
    return total


def _strip_removals(mu: Partition, size: int) -> list[Partition]:
    """Partitions obtained from mu by removing a horizontal strip of `size`."""
    out = []
    k = len(mu)

    def rec(i, remaining, prefix):
        if i == k:
            if remaining == 0:
                parts = tuple(prefix)
                while parts and parts[-1] == 0:
                    parts = parts[:-1]
                out.append(parts)
            return
        lo = mu[i + 1] if i + 1 < k else 0
        for val in range(mu[i], lo - 1, -1):
            removed = mu[i] - val
            if removed > remaining:
                break
            prefix.append(val)
            rec(i + 1, remaining - removed, prefix)
            prefix.pop()

    rec(0, size, [])
    return out


def schur_expansion_kostka(shape: SkewShape) -> Expansion:
    """Schur expansion by inverting the Kostka matrix against the M-expansion.

    The monomial coefficients of a symmetric function determine its Schur
    coefficients: processing partitions from dominant to dominated, each
    residual monomial coefficient is forced.  Non-symmetric input (which a
    correct M-expansion can never produce) raises ConsistencyError.
    """
    mono = m_expansion(shape)
    by_partition: dict[Partition, int] = {}
    for comp, coeff in mono.items():
        lam = sort_desc(comp)
        if by_partition.setdefault(lam, coeff) != coeff:
            raise ConsistencyError(
                f"monomial coefficients not symmetric at {lam}"
            )
    for lam, coeff in by_partition.items():
        mults: dict[int, int] = {}
        for p in lam:
            mults[p] = mults.get(p, 0) + 1
        arrangements = factorial(len(lam))
        for m in mults.values():
            arrangements //= factorial(m)
        present = sum(1 for comp in mono.support() if sort_desc(comp) == lam)
        if present != arrangements:
            raise ConsistencyError(
                f"monomial support not closed under rearrangement at {lam}"
            )
    n = shape.size
    result: dict[Partition, int] = {}
    for nu in partitions_of(n):
        c = by_partition.get(nu, 0)
        for mu, a in result.items():
            c -= a * kostka_number(mu, nu)
        if c:
            result[nu] = c
    return Expansion("schur", result)


def _rows_size(rows) -> int:
    return sum(b - a for a, b in rows)


def _tally_component(rows) -> tuple[dict, Partition, Partition]:
    """(lr_tally, sorted row lengths, sorted column lengths) of a connected
    component given as row intervals."""
    inner, outer = (tuple(side) for side in zip(*rows))
    cols = [0] * outer[0]
    for a, b in rows:
        for c in range(a, b):
            cols[c] += 1
    return (kernels.lr_tally(inner, outer),
            sort_desc(b - a for a, b in rows), sort_desc(cols))


_component_tally = _guarded_cache(_tally_component, size=_rows_size)


def _check_frame(coeffs: dict, frame, key) -> None:
    """Raise ConsistencyError unless coeffs is 1 at both frame partitions.

    The support of a skew Schur function contains the sorted row lengths
    and the transpose of the sorted column lengths, both with coefficient
    1; a kernel bug would almost surely break this.  key names the shape
    in the message.
    """
    if any(coeffs.get(lam) != 1 for lam in frame):
        found = " and ".join(
            f"{coeffs.get(lam, 0)} at {','.join(map(str, lam))}"
            for lam in frame)
        shape = format_shape(key_shape(key))
        raise ConsistencyError(
            f"Schur expansion of {shape} fails the row/column frame check: "
            f"coefficients {found}, where both must be 1")


@lru_cache(maxsize=None)
def _lr_product(top: Partition, bottom: Partition) -> dict:
    """{nu: c^nu_{top, bottom}}: lr_tally of the straight direct sum.

    s_top * s_bottom is the skew Schur function of top placed above and to
    the right of bottom (EC2 Sec. 7.10).  The top shape fills one way, so
    the kernel branches over the bottom one's boxes only; _product puts
    the larger partition on top.
    """
    shift = bottom[0]
    inner = (shift,) * len(top) + (0,) * len(bottom)
    outer = tuple(p + shift for p in top) + bottom
    return kernels.lr_tally(inner, outer)


def _product(x: dict, y: dict) -> dict:
    """The Schur expansion of (sum x[lam] s_lam)(sum y[mu] s_mu).

    x and y are homogeneous, as expansions of shapes are.
    """
    if sum(next(iter(x), ())) < sum(next(iter(y), ())):
        x, y = y, x  # the larger partitions go on top
    out: dict = {}
    get = out.get
    for lam, a in x.items():
        for mu, b in y.items():
            ab = a * b
            for nu, c in _lr_product(lam, mu).items():
                out[nu] = get(nu, 0) + ab * c
    return out


def key_schur_expansion(key) -> Expansion:
    """Schur expansion of the shapes of a component key, with a frame check.

    key is a shapes.component_keys key: the tuple of a shape's connected
    components, each as its row intervals.  s_{A+B} = s_A s_B for a direct
    sum (EC2 Sec. 7.10), so each component is tallied once, in a bounded
    LRU keyed by its rows, and the tallies are multiplied through the
    per-pair table _lr_product.  The frame check (_check_frame) runs on
    every call, hit or miss, so a bad tally a cache holds raises each time.
    """
    _check_size(sum(map(_rows_size, key)))
    coeffs, rows, cols = {(): 1}, (), ()
    for i, comp in enumerate(key):
        tally, comp_rows, comp_cols = _component_tally(comp)
        coeffs = _product(coeffs, tally) if i else tally
        rows += comp_rows
        cols += comp_cols
    if key:
        _check_frame(coeffs, (sort_desc(rows),
                              transpose_partition(sort_desc(cols))), key)
    return Expansion("schur", coeffs)


@_guarded_cache
def schur_expansion(shape: SkewShape) -> Expansion:
    """Cached Schur expansion of one shape: key_schur_expansion of its key.

    The LRU checks the size guard on every call; a hit returns a value
    that passed the frame check.  The tests check it against the two
    whole-shape references, schur_expansion_lr and schur_expansion_kostka.
    """
    return key_schur_expansion(component_key(shape))


def schur_support(shape: SkewShape) -> frozenset:
    return schur_expansion(shape).support()


def syt_count(lam: Partition) -> int:
    """f^lam, the number of standard fillings of the straight shape lam.

    A semistandard filling of content 1^n is a standard one, so f^lam is
    the Kostka number K_{lam,1^n}.
    """
    return kostka_number(lam, (1,) * sum(lam))


def f_expansion_via_schur(shape: SkewShape) -> Expansion:
    """F-expansion assembled from the Schur expansion.

    Since skew Schur functions are nonnegative combinations of straight
    Schur functions, the F-expansion is the same combination of the straight
    shapes' F-expansions.  Much faster than direct enumeration on shapes
    with many standard fillings; must agree with f_expansion exactly.
    """
    packed = 0
    for lam, c in schur_expansion(shape).items():
        packed += c * kernels.descent_counts((0,) * len(lam), lam)
    return _expansion("f", packed, shape.size)


@_guarded_cache
def f_support_mask(shape: SkewShape) -> int:
    """F-support as a bitmask over descent subsets (bit = comp_to_mask(alpha)).

    Uses the Schur route (f_support_mask_of).  No sweep calls it; the
    tests use it as the per-shape support.  It keeps its LRU because the
    traced benchmark reads this cache's counters for its hit ratio.
    """
    return f_support_mask_of(schur_expansion(shape).coeffs)


def f_support_mask_of(support) -> int:
    """The F-support mask of sum c_lam s_lam over a Schur support.

    support holds the partitions lam with c_lam > 0.  The F-support is
    the union of their straight supports: every coefficient involved is
    nonnegative, so nothing cancels.
    """
    out = 0
    for lam in support:
        out |= _straight_support_bits(lam)
    return out


def f_support_cover(support) -> int:
    """The partitions lam whose straight F-support lies in that of a Schur
    support (partitions of one size n, as f_support_mask_of takes).

    Bit i stands for partitions_of(n)[i].  s_lam is the sum of F over the
    standard fillings of lam (EC2 Sec. 7.19) and no coefficient is
    negative, so the F-support of sum c_lam s_lam is the union of the
    straight supports over its Schur support, and so over its cover too.
    Hence one F-support contains another iff its cover contains the
    other's, and equal covers mean equal supports: the cover is the
    F-support in p(n) bits rather than 2^(n-1).  It depends on the Schur
    support only, never on the coefficients.
    """
    mask = f_support_mask_of(support)
    n = sum(next(iter(support), ()))
    return sum(1 << i for i, bits in enumerate(_straight_supports(n))
               if bits | mask == mask)


@lru_cache(maxsize=None)
def _straight_supports(n: int) -> tuple[int, ...]:
    """_straight_support_bits of each partition of n, as partitions_of
    lists them."""
    return tuple(map(_straight_support_bits, partitions_of(n)))


@lru_cache(maxsize=None)
def _straight_support_bits(lam: Partition) -> int:
    """The descent masks of the standard fillings of lam: the non-zero
    fields of its packed count.

    Transposing a standard filling of lam' gives one of lam whose descent
    set is the complement in {1..n-1}, and complementing a mask reverses
    its place among the 2^(n-1) bits.  So the kernel runs on the lesser
    of lam and lam' only, and the other reads those bits reversed.
    """
    n = sum(lam)
    conj = transpose_partition(lam)
    if conj < lam:  # then n >= 3
        bits = format(_straight_support_bits(conj), f"0{1 << (n - 1)}b")
        return int(bits[::-1], 2)
    return kernels.nonzero_masks(kernels.descent_counts((0,) * len(lam), lam),
                                 n)


# ------------------------------------------------------ the support route


def support_covers(keys) -> list[int]:
    """The F-support cover (f_support_cover) of each component key, in order.

    The cover depends only on the key's Schur support, so this composes
    supports and never coefficients.  LR coefficients are non-negative,
    so supp(s_A s_B) is the union of supp(s_lam s_mu) over lam in supp s_A
    and mu in supp s_B (EC2 Sec. 7.10): a key's support is its first
    component's, times each next component's, a product being the OR of
    per-pair support bits read from _lr_product.  And omega s_{lam/mu} =
    s_{lam'/mu'} (EC2 Sec. 7.14), so each component is tallied once up to
    transpose (_component_support).  A support is held as bits over
    partitions_of(size).  Every memo is a plain dict local to the call,
    so nothing outlives it: the supports of components, of straight
    products per pair of partitions, and the cover per distinct (size,
    support).  The size guard runs on every key; each tally must hold
    both frame partitions of its component with coefficient 1, and each
    key's support both of its.
    """
    tables: dict = {}  # size -> (partitions_of(size), {partition: bit})
    comps: dict = {}  # component rows -> (support, size, rows, cols)
    pairs: dict = {}  # (lam, mu) -> the support bits of s_lam s_mu
    covers: dict = {}  # size -> {support: cover}
    out = []
    for key in keys:
        n = sum(map(_rows_size, key))
        _check_size(n)
        size, rows, cols = 0, (), ()
        for comp in key:
            got = comps.get(comp)
            if got is None:
                got = comps[comp] = _component_support(comp, comps, tables)
            c_bits, c_size, c_rows, c_cols = got
            bits = (_support_product(bits, size, c_bits, c_size, tables, pairs)
                    if size else c_bits)
            size += c_size
            rows += c_rows
            cols += c_cols
        parts, pos, _ = _size_table(n, tables)
        known = covers.setdefault(n, {})
        for lam in sort_desc(rows), transpose_partition(sort_desc(cols)):
            if not bits >> pos[lam] & 1:
                shape = format_shape(key_shape(key))
                raise ConsistencyError(
                    f"Schur support of {shape} fails the row/column frame "
                    f"check: it lacks {','.join(map(str, lam))}")
        cover = known.get(bits)
        if cover is None:
            cover = known[bits] = f_support_cover(_members(bits, parts))
        out.append(cover)
    return out


def _size_table(size: int, tables: dict) -> tuple:
    """(partitions_of(size), {partition: its index}, the bit of each
    partition's conjugate), kept in tables."""
    table = tables.get(size)
    if table is None:
        parts = partitions_of(size)
        pos = {lam: i for i, lam in enumerate(parts)}
        conj = [1 << pos[transpose_partition(lam)] for lam in parts]
        table = tables[size] = parts, pos, conj
    return table


def _members(bits: int, items) -> list:
    """items[i] for each set bit i of bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(items[low.bit_length() - 1])
        bits ^= low
    return out


def _transpose_rows(rows) -> tuple:
    """A connected component's transpose, written as component_key writes
    a component: row c of the transpose spans the rows that column c
    crosses."""
    turned = []
    for c in range(rows[0][1]):
        hit = [i for i, (a, b) in enumerate(rows) if a <= c < b]
        turned.append((hit[0], hit[-1] + 1))
    turned = tuple(turned)
    return min(turned, _half_turn(turned))


def _component_support(comp, comps: dict, tables: dict) -> tuple:
    """(support bits, size, row lengths, column lengths) of a component.

    If comps holds its transpose, the support is that one's conjugated
    (omega s_{lam/mu} = s_{lam'/mu'}).  Otherwise the orientation with
    fewer rows is tallied, whose lattice fillings lr_tally walks faster,
    with the frame check (_check_frame) on the tally.  Only the support
    bits are kept, and the frame partitions as partitions_of lists them,
    so each is held once.
    """
    turned = _transpose_rows(comp)
    size = _rows_size(comp)
    parts, pos, conj = _size_table(size, tables)
    seen = comps.get(turned)
    if seen is not None:
        bits, _, cols, rows = seen
        return sum(_members(bits, conj)), size, rows, cols
    tallied = min(comp, turned, key=lambda rows: (len(rows), rows))
    tally, rows, cols = _tally_component(tallied)
    _check_frame(tally, (rows, transpose_partition(cols)), (tallied,))
    bits = sum(1 << pos[lam] for lam in tally)
    rows, cols = parts[pos[rows]], parts[pos[cols]]
    if tallied is comp:
        return bits, size, rows, cols
    return sum(_members(bits, conj)), size, cols, rows


def _support_product(a, a_size, b, b_size, tables: dict, pairs: dict) -> int:
    """The support bits of s_A s_B from the support bits a of s_A and b of
    s_B: the OR of the per-pair support bits of s_lam s_mu, read from the
    keys of _lr_product with the larger partition on top, as _product puts
    it, and kept in pairs.
    """
    if a_size < b_size:
        a, a_size, b, b_size = b, b_size, a, a_size
    tops, bottoms = tables[a_size][0], tables[b_size][0]
    pos = _size_table(a_size + b_size, tables)[1]
    lower = _members(b, bottoms)
    out = 0
    for lam in _members(a, tops):
        for mu in lower:
            got = pairs.get((lam, mu))
            if got is None:
                got = pairs[lam, mu] = sum(1 << pos[nu]
                                           for nu in _lr_product(lam, mu))
            out |= got
    return out


def f_support_from_mask(bits: int, n: int) -> frozenset:
    out = []
    mask = 0
    while bits:
        if bits & 1:
            out.append(mask_to_comp(mask, n))
        bits >>= 1
        mask += 1
    return frozenset(out)


def is_f_multiplicity_free(shape: SkewShape) -> bool:
    """Whether every standard filling has a distinct descent composition.

    The direct route, over the shape's own standard fillings: no field of
    their packed count (_f_counts) is above 1.  The sweeps read the same
    property from the Schur expansion
    (posets._masks_and_multfree); the tests check the two routes agree.
    """
    packed = _f_counts(shape)  # checks the size guard first
    n = shape.size
    ones = kernels.repeat_field(b"\1".ljust(kernels.field_width(n), b"\0"),
                                1 << max(0, n - 1))
    return not packed & ~ones  # no field above 1


def extreme_filling_dominant(shape: SkewShape) -> StandardTableau:
    """Fill in rounds: the top box of each non-empty column, left to right.

    The result is a standard filling whose descent composition equals the
    transpose of the sorted column lengths, the dominance-maximal member of
    the support's descent compositions at each prefix.
    """
    remaining: dict[int, list[int]] = {}
    for r, c in shape.boxes():
        remaining.setdefault(c, []).append(r)
    for rows in remaining.values():
        rows.sort(reverse=True)  # pop() takes the top row
    entries = {}
    t = 1
    while remaining:
        for c in sorted(remaining):
            entries[remaining[c].pop(), c] = t
            t += 1
        remaining = {c: rows for c, rows in remaining.items() if rows}
    return _tableau_from_entries(shape, entries)


def extreme_filling_antidominant(shape: SkewShape) -> StandardTableau:
    """Fill in rounds: the leftmost box of each non-empty row, top to bottom."""
    remaining2: dict[int, list[int]] = {}
    for r, c in shape.boxes():
        remaining2.setdefault(r, []).append(c)
    for cols in remaining2.values():
        cols.sort(reverse=True)  # pop() takes the leftmost column
    entries = {}
    t = 1
    while remaining2:
        for r in sorted(remaining2):
            entries[r, remaining2[r].pop()] = t
            t += 1
        remaining2 = {r: cols for r, cols in remaining2.items() if cols}
    return _tableau_from_entries(shape, entries)


def _tableau_from_entries(shape: SkewShape, entries: dict) -> StandardTableau:
    inner = shape.inner_padded
    rows = tuple(
        tuple(entries[i, j] for j in range(inner[i], shape.outer[i]))
        for i in range(shape.n_rows)
    )
    return StandardTableau(shape, rows)
