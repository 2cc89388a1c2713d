"""Pairwise comparison of skew shapes across bases, and the implication sweep.

For same-size shapes A and B the relation matrix records, per basis, whether
s_A - s_B is positive and whether the support of A contains that of B, plus
the three equivalent overlap-dominance conditions.  It is compare(record(A),
record(B)): a shape's record holds its five expansions, their supports and
its packed row, column and rectangle dominance keys.  relate() compares one
pair; verify_implications records each shape once per size and compares
every ordered pair.  check_implications lists every broken arrow of the
known implication diagram; an exhaustive sweep must find none, while also
confirming the four published non-implications at their witness pairs.
"""

from dataclasses import dataclass

from skewsupport import bases, overlaps
from skewsupport.shapes import (
    SkewShape,
    check_same_size,
    enumerate_shapes,
    format_shape,
    parse_shape,
)
from skewsupport.tableaux import BASES

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
        return getattr(self, kind)[key]

    def to_json_obj(self) -> dict:
        return {
            "a": format_shape(self.a),
            "b": format_shape(self.b),
            "positive": {k: self.positive[k] for k in BASES},
            "support_contains": {k: self.contains[k] for k in _SUP_KEYS},
            "overlap_dominated": {k: self.dominated[k] for k in _DOM_KEYS},
            "violations": check_implications(self),
        }


@dataclass(frozen=True)
class ShapeRecord:
    """Everything compare() reads about one shape."""

    shape: SkewShape
    expansions: dict  # basis -> Expansion
    supports: dict  # basis or "d_positive" -> frozenset of indices
    keys: tuple  # packed dominance keys, in _DOM_KEYS order


def record(shape: SkewShape) -> ShapeRecord:
    """Expansions, supports and dominance keys of one shape."""
    n = shape.size
    expansions = {basis: bases.expansion_of(shape, basis) for basis in BASES}
    supports = {basis: e.support() for basis, e in expansions.items()}
    supports["d_positive"] = bases.positive_support(expansions["d"])
    rows = overlaps.OverlapProfile.of(shape)
    cols = overlaps.OverlapProfile.of(shape.transpose())
    keys = (overlaps.dominance_key(rows, n), overlaps.dominance_key(cols, n),
            overlaps.rects_key(rows, n))
    return ShapeRecord(shape, expansions, supports, keys)


def compare(ra: ShapeRecord, rb: ShapeRecord) -> RelationMatrix:
    """Relation matrix of two records of shapes of one size."""
    ea, eb = ra.expansions, rb.expansions
    positive = {basis: bases.difference_positive(ea[basis], eb[basis])
                for basis in BASES}
    contains = {key: ra.supports[key] >= rb.supports[key]
                for key in _SUP_KEYS}
    guard = overlaps.dominance_guard(ra.shape.size)
    dominated = {key: overlaps.key_dominated(ka, kb, guard)
                 for key, ka, kb in zip(_DOM_KEYS, ra.keys, rb.keys)}
    return RelationMatrix(ra.shape, rb.shape, positive, contains, dominated)


def relate(a: SkewShape, b: SkewShape) -> RelationMatrix:
    """Full relation matrix for an ordered same-size pair."""
    check_same_size(a, b)
    return compare(record(a), record(b))


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


def verify_implications(n: int) -> dict:
    """Check every arrow on every ordered same-size pair of sizes 1..n.

    Returns a report dict; report["violations"] is empty exactly when the
    diagram survives.  The four witness pairs must each be seen with their
    published hold/fail pattern once their size is within range.
    """
    violations = []
    pairs = 0
    for size in range(1, n + 1):
        records = [record(s) for s in enumerate_shapes(size)]
        for ra in records:
            for rb in records:
                if ra is rb:
                    continue
                pairs += 1
                for broken in check_implications(compare(ra, rb)):
                    violations.append(
                        {"a": format_shape(ra.shape),
                         "b": format_shape(rb.shape), "arrow": broken}
                    )
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
