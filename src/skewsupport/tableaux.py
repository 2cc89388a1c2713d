"""Standard fillings of skew shapes and their basis expansions.

The fundamental objects here are the standard tableaux of a shape A (rows
increase left to right, columns increase top to bottom) and their descent
compositions.  Summing one fundamental quasisymmetric term per tableau gives
the F-expansion of s_A; coarsening by the subset-sum transform gives the
monomial expansion; counting lattice semistandard fillings gives the Schur
expansion.  The Schur expansion is computed by two genuinely different
routes (lattice fillings, and inverting the unitriangular Kostka matrix
against the monomial expansion) so each can certify the other.

The sweeps read the Schur expansion of a component key (key_schur_expansion):
each connected component is tallied by lattice fillings once, and the
components are multiplied through a table of straight products
c^nu_{lam mu}.  schur_expansion of a whole shape, which relate, expand and
verify figure6 use, is the per-shape oracle the tests check it against.
Every lattice-filling tally passes the row/column frame check.  The sweeps
hold an F-support as its cover (f_support_cover): the partitions of n whose
straight F-supports it contains, p(n) bits that order and group shapes as
the 2^(n-1)-bit support masks do.

Per-size and per-partition tables are cached; no cache keeps a tally such a
table summarises.  Each shape-keyed result, and each component's tally,
goes through _guarded_cache, a bounded LRU that checks the size guard on
every call, hit or miss.
"""

from dataclasses import dataclass
from functools import lru_cache, partial, wraps
from math import factorial
from operator import attrgetter

from skewsupport import kernels
from skewsupport.config import max_size
from skewsupport.errors import ConsistencyError, InvalidShapeError, SizeLimitError
from skewsupport.shapes import (
    Composition,
    Partition,
    SkewShape,
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
        clean = {
            tuple(k): int(v) for k, v in self.coeffs.items() if int(v) != 0
        }
        sizes = {sum(k) for k in clean}
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
        return {
            ",".join(str(p) for p in key): self.coeffs[key]
            for key in sorted(self.coeffs)
        }


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
def _f_masks(shape: SkewShape) -> dict:
    return kernels.descent_tally(shape.inner_padded, shape.outer)


@lru_cache(maxsize=None)
def _compositions(n: int) -> tuple:
    """mask_to_comp(mask, n) for every descent mask of size n, by mask.

    One table per size, and sizes stop at the size guard every caller
    checks first.
    """
    return tuple(mask_to_comp(m, n) for m in range(1 << max(0, n - 1)))


def f_expansion(shape: SkewShape) -> Expansion:
    """Fundamental quasisymmetric expansion, straight from standard fillings."""
    masks, comps = _f_masks(shape), _compositions(shape.size)  # guard first
    return Expansion("f", {comps[m]: c for m, c in masks.items()})


def f_support(shape: SkewShape) -> frozenset:
    return f_expansion(shape).support()


def m_expansion(shape: SkewShape) -> Expansion:
    """Monomial expansion via the subset-sum transform of the F-expansion.

    Each F term indexed by subset S contributes to every M term indexed by a
    superset of S, so the coefficient vector over subsets of [n-1] is the
    zeta transform of the F vector.
    """
    masks = _f_masks(shape)  # checks the size guard first
    n = shape.size
    vec = [0] * (1 << max(0, n - 1))
    for mask, c in masks.items():
        vec[mask] += c
    for b in range(max(0, n - 1)):
        bit = 1 << b
        for m in range(len(vec)):
            if m & bit:
                vec[m] += vec[m ^ bit]
    comps = _compositions(n)
    return Expansion("m", {comps[m]: v for m, v in enumerate(vec) if v})


def schur_expansion_lr(shape: SkewShape) -> Expansion:
    """Schur expansion by counting lattice semistandard fillings."""
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


@_guarded_cache
def schur_expansion(shape: SkewShape) -> Expansion:
    """Cached Schur expansion (lattice-filling route) with a frame check.

    The support of any skew Schur function contains the sorted row lengths
    and the transpose of the sorted column lengths, both with coefficient 1;
    a kernel bug would almost surely break this, so it is cheap insurance.
    """
    exp = schur_expansion_lr(shape)
    if shape.size:
        rows = tuple(zip(shape.inner_padded, shape.outer))
        _check_frame(exp.coeffs, [_frame(rows)], shape)
    return exp


def _frame(rows) -> tuple[Partition, Partition]:
    """Sorted row lengths and sorted column lengths of a diagram given as
    row intervals (a, b)."""
    cols = [0] * max(b for _, b in rows)
    for a, b in rows:
        for c in range(a, b):
            cols[c] += 1
    return sort_desc(b - a for a, b in rows), sort_desc(k for k in cols if k)


def _check_frame(coeffs: dict, frames, *what) -> None:
    """Raise ConsistencyError unless coeffs passes the row/column frame check.

    frames are the _frame of each piece of a diagram, the pieces sharing
    no column.  The support of the diagram's skew Schur function contains
    the sorted row lengths and the transpose of the sorted column lengths,
    both with coefficient 1.  what names the diagram in the message.
    """
    rows = sort_desc(n for piece, _ in frames for n in piece)
    cols = sort_desc(n for _, piece in frames for n in piece)
    if rows and (coeffs.get(rows) != 1
                 or coeffs.get(transpose_partition(cols)) != 1):
        raise ConsistencyError(
            f"Schur expansion of {' '.join(map(str, what))} fails the "
            "row/column frame check"
        )


def _rows_size(rows) -> int:
    return sum(b - a for a, b in rows)


@partial(_guarded_cache, size=_rows_size)
def _component_tally(rows) -> tuple[dict, tuple]:
    """(lr_tally, _frame) of a connected component given as row intervals."""
    inner, outer = (tuple(side) for side in zip(*rows))
    return kernels.lr_tally(inner, outer), _frame(rows)


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
    per-pair table _lr_product.  Equal to schur_expansion of any shape of
    the key, which the tests use as its oracle.  The frame check runs on
    every call, hit or miss, so a bad tally a cache holds raises each time.
    """
    _check_size(sum(b - a for comp in key for a, b in comp))
    coeffs, frames = {(): 1}, []
    for comp in key:
        tally, frame = _component_tally(comp)
        coeffs = _product(coeffs, tally) if frames else tally
        frames.append(frame)
    _check_frame(coeffs, frames, "component key", key)
    return Expansion("schur", coeffs)


def schur_support(shape: SkewShape) -> frozenset:
    return schur_expansion(shape).support()


def _straight_f_masks(lam: Partition) -> dict:
    return kernels.descent_tally((0,) * len(lam), lam)


def f_expansion_via_schur(shape: SkewShape) -> Expansion:
    """F-expansion assembled from the Schur expansion.

    Since skew Schur functions are nonnegative combinations of straight
    Schur functions, the F-expansion is the same combination of the straight
    shapes' F-expansions.  Much faster than direct enumeration on shapes
    with many standard fillings; must agree with f_expansion exactly.
    """
    n = shape.size
    acc: dict[int, int] = {}
    for lam, c in schur_expansion(shape).items():
        for mask, k in _straight_f_masks(lam).items():
            acc[mask] = acc.get(mask, 0) + c * k
    return Expansion("f", {mask_to_comp(m, n): v for m, v in acc.items()})


@_guarded_cache
def f_support_mask(shape: SkewShape) -> int:
    """F-support as a bitmask over descent subsets (bit = comp_to_mask(alpha)).

    Uses the Schur route (f_support_mask_of).  No sweep calls it; the
    tests use it as the per-shape support.  It keeps its LRU because the
    traced benchmark reads this cache's counters for its hit ratio.
    """
    return f_support_mask_of(schur_expansion(shape))


def f_support_mask_of(schur: Expansion) -> int:
    """The F-support mask of sum c_lam s_lam over a Schur expansion.

    The union of the straight supports over the Schur support: every
    coefficient involved is nonnegative, so nothing cancels.
    """
    out = 0
    for lam in schur.coeffs:
        out |= _straight_support_bits(lam)
    return out


def f_support_cover(schur: Expansion) -> int:
    """The partitions lam whose straight F-support lies in that of schur.

    Bit i stands for partitions_of(n)[i].  s_lam is the sum of F over the
    standard fillings of lam (EC2 Sec. 7.19) and no coefficient is
    negative, so the F-support of sum c_lam s_lam is the union of the
    straight supports over its Schur support, and so over its cover too.
    Hence one F-support contains another iff its cover contains the
    other's, and equal covers mean equal supports: the cover is the
    F-support in p(n) bits rather than 2^(n-1).
    """
    mask = f_support_mask_of(schur)
    n = sum(next(iter(schur.coeffs), ()))
    return sum(1 << i for i, bits in enumerate(_straight_supports(n))
               if bits | mask == mask)


@lru_cache(maxsize=None)
def _straight_supports(n: int) -> tuple[int, ...]:
    """_straight_support_bits of each partition of n, as partitions_of
    lists them."""
    return tuple(map(_straight_support_bits, partitions_of(n)))


@lru_cache(maxsize=None)
def _straight_support_bits(lam: Partition) -> int:
    return kernels.descent_support((0,) * len(lam), lam)


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

    The direct route, over the shape's own standard fillings.  The sweeps
    read the same property from the Schur expansion
    (posets._mask_and_multfree); the tests check the two routes agree.
    """
    return all(c == 1 for c in _f_masks(shape).values())


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
