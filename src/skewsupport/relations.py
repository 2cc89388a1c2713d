"""Pairwise comparison of skew shapes across bases, and the implication sweep.

For same-size shapes A and B the relation matrix records, per basis, whether
s_A - s_B is positive and whether the support of A contains that of B, plus
the three equivalent overlap-dominance conditions.  check_implications lists
every broken arrow of the known implication diagram; an exhaustive sweep over
all ordered pairs must find none, while also confirming the four published
non-implications at their witness pairs.
"""

from dataclasses import dataclass

from skewsupport import bases, overlaps
from skewsupport.errors import SizeMismatchError
from skewsupport.shapes import (
    SkewShape,
    enumerate_shapes,
    format_shape,
    parse_shape,
)
from skewsupport.tableaux import BASES

_POS_KEYS = BASES
_SUP_KEYS = BASES + ("d_positive",)
_DOM_KEYS = ("rows", "cols", "rects")

# directed arrows: left condition forces right condition
_ARROWS = (
    ("positive:d", "positive:schur"),
    ("positive:schur", "positive:f"),
    ("positive:f", "positive:m"),
    ("positive:schur", "contains:schur"),
    ("positive:s", "contains:s"),
    ("positive:f", "contains:f"),
    ("positive:m", "contains:m"),
    ("positive:d", "contains:d"),
    ("positive:d", "contains:d_positive"),
    ("contains:schur", "contains:f"),
    ("contains:f", "contains:m"),
    ("contains:f", "dominated:rows"),
)

# conditions that must all have the same truth value
_EQUIVALENCES = (
    ("positive:schur", "positive:s"),
    ("contains:schur", "contains:s", "contains:d", "contains:d_positive"),
    ("dominated:rows", "dominated:cols", "dominated:rects"),
)


@dataclass(frozen=True)
class RelationMatrix:
    a: SkewShape
    b: SkewShape
    positive: dict
    contains: dict
    dominated: dict

    def get(self, condition: str) -> bool:
        kind, _, key = condition.partition(":")
        return {"positive": self.positive,
                "contains": self.contains,
                "dominated": self.dominated}[kind][key]

    def to_json_obj(self) -> dict:
        return {
            "a": format_shape(self.a),
            "b": format_shape(self.b),
            "positive": {k: self.positive[k] for k in _POS_KEYS},
            "support_contains": {k: self.contains[k] for k in _SUP_KEYS},
            "overlap_dominated": {k: self.dominated[k] for k in _DOM_KEYS},
            "violations": check_implications(self),
        }


def _rects_leq(a: SkewShape, b: SkewShape) -> bool:
    """rects(k, l) of a never exceeds b's, for every rectangle size."""
    for k in range(1, max(a.n_rows, b.n_rows) + 1):
        for l in range(1, max(a.n_cols, b.n_cols) + 1):
            if overlaps.rects(a, k, l) > overlaps.rects(b, k, l):
                return False
    return True


def relate(a: SkewShape, b: SkewShape) -> RelationMatrix:
    """Full relation matrix for an ordered same-size pair."""
    if a.size != b.size:
        raise SizeMismatchError(
            f"shapes have different sizes: {a.size} vs {b.size}"
        )
    # fetch each of the ten expansions once; every condition reads these
    ea = {basis: bases.expansion_of(a, basis) for basis in BASES}
    eb = {basis: bases.expansion_of(b, basis) for basis in BASES}
    positive = {basis: bases.difference_positive(ea[basis], eb[basis])
                for basis in _POS_KEYS}
    contains = {basis: bases.contains_support(ea[basis], eb[basis])
                for basis in BASES}
    contains["d_positive"] = bases.contains_support(ea["d"], eb["d"],
                                                    "positive")
    dominated = {
        "rows": overlaps.overlaps_dominated(a, b),
        "cols": overlaps.overlaps_dominated(a.transpose(), b.transpose()),
        "rects": _rects_leq(a, b),
    }
    return RelationMatrix(a, b, positive, contains, dominated)


def check_implications(m: RelationMatrix) -> list[str]:
    """Names of diagram arrows or equivalences broken by this matrix."""
    broken = []
    for left, right in _ARROWS:
        if m.get(left) and not m.get(right):
            broken.append(f"{left} => {right}")
    for group in _EQUIVALENCES:
        values = {m.get(cond) for cond in group}
        if len(values) > 1:
            broken.append(" <=> ".join(group))
    return broken


# the published strict non-implications, confirmed during sweeps:
# (A, B, condition that holds, condition that fails)
WITNESSES = (
    ("3", "1,1,1", "positive:m", "dominated:rows"),
    ("3,1,1/1", "3,2/1", "dominated:rows", "positive:m"),
    ("3,1,1/1", "2,2", "positive:f", "contains:schur"),
    ("4,2,1/2", "4,3,1/2,1", "contains:schur", "positive:m"),
)


def verify_implications(n: int, progress=None, max_size=None) -> dict:
    """Check every arrow on every ordered same-size pair of sizes 1..n.

    Returns a report dict; report["violations"] is empty exactly when the
    diagram survives.  The four witness pairs must each be seen with their
    published hold/fail pattern once their size is within range.
    """
    violations = []
    pairs = 0
    for size in range(1, n + 1):
        shapes = enumerate_shapes(size, max_size)
        for a in shapes:
            for b in shapes:
                if a == b:
                    continue
                m = relate(a, b)
                pairs += 1
                for broken in check_implications(m):
                    violations.append(
                        {"a": format_shape(a), "b": format_shape(b),
                         "arrow": broken}
                    )
        if progress is not None:
            progress(size, pairs)
    witnesses = {}
    for a_str, b_str, holds, fails in WITNESSES:
        wa, wb = parse_shape(a_str), parse_shape(b_str)
        if wa.size <= n:
            m = relate(wa, wb)
            witnesses[f"{a_str} vs {b_str}"] = m.get(holds) and not m.get(fails)
    return {
        "max_size": n,
        "pairs_checked": pairs,
        "violations": violations,
        "witnesses_confirmed": witnesses,
        "all_witnesses_found": bool(witnesses) and all(witnesses.values()),
        "pass": not violations and all(witnesses.values()),
    }
