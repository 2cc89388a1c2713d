"""Expansions in the quasisymmetric Schur and dual immaculate bases.

Both bases expand Schur functions combinatorially: s_lambda is the sum of
S_alpha over all rearrangements alpha of lambda, and the dual immaculate
expansion is a signed sum over permutations of the parts with shifted
entries.  Skew expansions follow by linearity through the Schur expansion.
The D-expansion can have negative coefficients, which is why "support" has
two possible conventions there (nonzero vs strictly positive); both are
provided.
"""

from functools import lru_cache

from skewsupport.shapes import (
    Composition,
    Partition,
    SkewShape,
    check_same_size,
)
from skewsupport.tableaux import (
    Expansion,
    _check_size,
    f_expansion,
    m_expansion,
    schur_expansion,
)


@lru_cache(maxsize=None)
def distinct_permutations(parts: Partition) -> tuple:
    """All distinct rearrangements of a multiset of parts, in lex order.

    Cached per partition; callers ask only for partitions of sizes within
    the size guard.
    """
    pool = sorted(parts)
    out: list[Composition] = []
    k = len(pool)
    acc: list[int] = []

    def rec():
        if len(acc) == k:
            out.append(tuple(acc))
            return
        prev = None
        for i, p in enumerate(pool):
            if p is None or p == prev:
                continue
            pool[i] = None
            acc.append(p)
            prev = p
            rec()
            acc.pop()
            pool[i] = p

    rec()
    return tuple(out)


def s_expansion(shape: SkewShape) -> Expansion:
    """Quasisymmetric Schur expansion: each Schur term spreads over rearrangements."""
    _check_size(shape)
    out: dict[Composition, int] = {}
    for lam, c in schur_expansion(shape).items():
        for alpha in distinct_permutations(lam):
            out[alpha] = c
    return Expansion("s", out)


@lru_cache(maxsize=None)
def _straight_d(lam: Partition) -> tuple:
    """Signed D-terms of a straight Schur function.

    Sum of sign(sigma) * D over permutations sigma of the parts, with part i
    replaced by lam[sigma_i] + i - sigma_i, terms with any entry <= 0 dropped.
    """
    k = len(lam)
    out: dict[Composition, int] = {}
    used = [False] * k
    beta = [0] * k

    def rec(i, sign):
        if i == k:
            key = tuple(beta)
            out[key] = out.get(key, 0) + sign
            return
        for j in range(k):
            if used[j]:
                continue
            part = lam[j] + (i + 1) - (j + 1)
            if part <= 0:
                continue
            flips = sum(1 for j2 in range(j) if not used[j2])
            used[j] = True
            beta[i] = part
            rec(i + 1, -sign if flips % 2 else sign)
            used[j] = False

    rec(0, 1)
    return tuple((key, val) for key, val in out.items() if val)


def d_expansion(shape: SkewShape) -> Expansion:
    """Dual immaculate expansion, assembled through the Schur expansion."""
    _check_size(shape)
    out: dict[Composition, int] = {}
    for lam, c in schur_expansion(shape).items():
        for key, val in _straight_d(lam):
            new = out.get(key, 0) + c * val
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return Expansion("d", out)


def expansion_of(shape: SkewShape, basis: str) -> Expansion:
    if basis == "schur":
        _check_size(shape)
        return schur_expansion(shape)
    if basis == "f":
        return f_expansion(shape)
    if basis == "m":
        return m_expansion(shape)
    if basis == "s":
        return s_expansion(shape)
    if basis == "d":
        return d_expansion(shape)
    raise ValueError(f"unknown basis {basis!r}")


def positive_support(exp: Expansion) -> frozenset:
    return frozenset(k for k, v in exp.items() if v > 0)


def difference_positive(ea: Expansion, eb: Expansion) -> bool:
    """Whether ea - eb has only nonnegative coefficients."""
    a, b = ea.coeffs, eb.coeffs
    return (all(a.get(key, 0) >= v for key, v in b.items())
            and all(v > 0 for key, v in a.items() if key not in b))


def positivity(a: SkewShape, b: SkewShape, basis: str) -> bool:
    """Whether s_a - s_b has only nonnegative coefficients in the basis."""
    check_same_size(a, b)
    return difference_positive(expansion_of(a, basis), expansion_of(b, basis))


def support_contains(a: SkewShape, b: SkewShape, basis: str,
                     convention: str = "nonzero") -> bool:
    """Whether the basis support of s_a contains that of s_b.

    `convention` only matters for the D-basis, where coefficients can be
    negative: "nonzero" takes all keys, "positive" only those with positive
    coefficient.
    """
    check_same_size(a, b)
    ea, eb = expansion_of(a, basis), expansion_of(b, basis)
    if convention == "positive":
        return positive_support(ea) >= positive_support(eb)
    if convention != "nonzero":
        raise ValueError(f"unknown support convention {convention!r}")
    return ea.support() >= eb.support()

