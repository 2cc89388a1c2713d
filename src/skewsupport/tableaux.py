"""Standard fillings of skew shapes and their basis expansions.

The fundamental objects here are the standard tableaux of a shape A (rows
increase left to right, columns increase top to bottom) and their descent
compositions.  Summing one fundamental quasisymmetric term per tableau gives
the F-expansion of s_A; coarsening by the subset-sum transform gives the
monomial expansion; counting lattice semistandard fillings gives the Schur
expansion.  The Schur expansion is computed by two genuinely different
routes (lattice fillings, and inverting the unitriangular Kostka matrix
against the monomial expansion) so each can certify the other.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from skewsupport import kernels
from skewsupport.config import max_size
from skewsupport.errors import ConsistencyError, InvalidShapeError, SizeLimitError
from skewsupport.shapes import (
    Composition,
    Partition,
    SkewShape,
    mask_to_comp,
    sort_desc,
    transpose_partition,
)

BASES = ("schur", "f", "m", "s", "d")


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


def _check_size(shape: SkewShape) -> None:
    limit = max_size()
    if shape.size > limit:
        raise SizeLimitError(
            f"shape has {shape.size} boxes, over the size limit {limit}"
        )


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
    _check_size(shape)
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


@lru_cache(maxsize=None)
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
    _check_size(shape)
    comps = _compositions(shape.size)
    return Expansion("f", {comps[m]: c for m, c in _f_masks(shape).items()})


def f_support(shape: SkewShape) -> frozenset:
    return f_expansion(shape).support()


def m_expansion(shape: SkewShape) -> Expansion:
    """Monomial expansion via the subset-sum transform of the F-expansion.

    Each F term indexed by subset S contributes to every M term indexed by a
    superset of S, so the coefficient vector over subsets of [n-1] is the
    zeta transform of the F vector.
    """
    _check_size(shape)
    n = shape.size
    vec = [0] * (1 << max(0, n - 1))
    for mask, c in _f_masks(shape).items():
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
    _check_size(shape)
    tally = kernels.lr_tally(shape.inner_padded, shape.outer)
    return Expansion("schur", tally)


def partitions_of(n: int):
    """All partitions of n, in descending lexicographic order."""
    out: list[Partition] = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


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
    _check_size(shape)
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


@lru_cache(maxsize=None)
def schur_expansion(shape: SkewShape) -> Expansion:
    """Cached Schur expansion (lattice-filling route) with a frame check.

    The support of any skew Schur function contains the sorted row lengths
    and the transpose of the sorted column lengths, both with coefficient 1;
    a kernel bug would almost surely break this, so it is cheap insurance.
    """
    exp = schur_expansion_lr(shape)
    if shape.size:
        rows_part = sort_desc(shape.row_lengths())
        colst = transpose_partition(sort_desc(shape.col_lengths()))
        if exp[rows_part] != 1 or exp[colst] != 1:
            raise ConsistencyError(
                f"Schur expansion of {shape} fails the row/column frame check"
            )
    return exp


def schur_support(shape: SkewShape) -> frozenset:
    _check_size(shape)
    return schur_expansion(shape).support()


@lru_cache(maxsize=None)
def _straight_f_masks(lam: Partition) -> dict:
    return kernels.descent_tally((0,) * len(lam), lam)


def f_expansion_via_schur(shape: SkewShape) -> Expansion:
    """F-expansion assembled from the Schur expansion.

    Since skew Schur functions are nonnegative combinations of straight
    Schur functions, the F-expansion is the same combination of the straight
    shapes' F-expansions.  Much faster than direct enumeration on shapes
    with many standard fillings; must agree with f_expansion exactly.
    """
    _check_size(shape)
    n = shape.size
    acc: dict[int, int] = {}
    for lam, c in schur_expansion(shape).items():
        for mask, k in _straight_f_masks(lam).items():
            acc[mask] = acc.get(mask, 0) + c * k
    return Expansion("f", {mask_to_comp(m, n): v for m, v in acc.items()})


@lru_cache(maxsize=None)
def f_support_mask(shape: SkewShape) -> int:
    """F-support as a bitmask over descent subsets (bit = comp_to_mask(alpha)).

    Uses the Schur route; the union of the straight supports over the Schur
    support is the skew support because all coefficients involved are
    nonnegative.
    """
    out = 0
    for lam in schur_expansion(shape).support():
        out |= _straight_support_bits(lam)
    return out


@lru_cache(maxsize=None)
def _straight_support_bits(lam: Partition) -> int:
    bits = 0
    for mask in _straight_f_masks(lam):
        bits |= 1 << mask
    return bits


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
    """Whether every standard filling has a distinct descent composition."""
    _check_size(shape)
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
