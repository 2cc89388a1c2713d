"""Pairwise comparison of skew shapes across bases, and the implication sweep.

For same-size shapes A and B the relation matrix records, per basis, whether
s_A - s_B is positive and whether the support of A contains that of B, plus
the three equivalent overlap-dominance conditions.  It is compare(record(A),
record(B)): a shape's record holds its five expansions and six supports,
each packed into one int of per-size fields (Layout), and its packed row,
column and rectangle dominance keys, so that every condition is one
comparison of two ints.  Every expansion in a record comes from the Schur
expansion: F, S and D are its combination of the straight shapes' packed
expansions, and M is F's zeta transform, so the descent kernel only ever
counts the fillings of straight shapes.  The dominance keys come from
overlaps.profile_keys on the shape's partitions and on their conjugates.
relate() compares one pair, through a bounded cache of recent records,
and check_implications lists the arrows of the known implication diagram
that its matrix breaks.

verify_implications checks the diagram on every ordered pair of distinct
same-size shapes without a matrix per pair.  It records one shape per
component key (shapes.key_shape), from the key's Schur expansion
(tableaux.key_schur_expansion) rather than through record(shape), which
would find the shape's key again, and, per size, builds one bitset row
per condition and key: bit y of row x is set when the condition holds for
keys x and y (_condition_rows).  The rows test what compare() tests, field
by field, through the order-row module that posets also uses
(orders.order_rows), at a cost that grows with the keys times the fields
rather than with the key pairs.  An arrow L => R is broken on the bits of
L's row that R's lacks, and an equivalence on the bits where a row differs
from the first of its group.  Only a broken key pair goes through compare()
and check_implications, so that its arrows are named in the same order as
for one pair, and only the broken pairs' keys have their shapes listed
(shapes.key_pair_shapes) to name every shape pair.  An exhaustive sweep
must find no broken arrow and confirm the four published non-implications
at witnesses.
"""

from dataclasses import dataclass
from functools import lru_cache

from skewsupport import bases, kernels, overlaps, tableaux
from skewsupport.orders import bit_indices, order_rows
from skewsupport.shapes import (
    Partition,
    SkewShape,
    _sweep_size,
    check_same_size,
    comp_to_mask,
    component_key,
    component_keys,
    distinct_permutations,
    format_shape,
    key_pair_shapes,
    key_shape,
    parse_shape,
    partitions_of,
    transpose_partition,
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
    # K_{lam mu} > 0 iff mu <= lam in dominance (EC2 Sec. 7.10), and every
    # content of an LR filling of A is dominated by cols(A)', which is in
    # the Schur support; so the M-support of s_A is {alpha : sort(alpha)
    # <= cols(A)'}, and conjugation reverses dominance (Macdonald
    # I.(1.11)): contains:m holds iff cols(A) <= cols(B), the depth-1 part
    # of dominated:cols
    ("dominated:cols", "contains:m"),
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
    conditions: dict  # "positive:<basis>", "contains:<key>", ... -> bool

    def get(self, condition: str) -> bool:
        return self.conditions[condition]

    def _kind(self, kind: str, keys: tuple) -> dict:
        return {k: self.conditions[f"{kind}:{k}"] for k in keys}

    @property
    def positive(self) -> dict:
        return self._kind("positive", BASES)

    @property
    def contains(self) -> dict:
        return self._kind("contains", _SUP_KEYS)

    @property
    def dominated(self) -> dict:
        return self._kind("dominated", _DOM_KEYS)

    def to_json_obj(self) -> dict:
        return {
            "a": format_shape(self.a),
            "b": format_shape(self.b),
            "positive": self.positive,
            "support_contains": self.contains,
            "overlap_dominated": self.dominated,
            "violations": check_implications(self),
        }


@dataclass(frozen=True)
class Layout:
    """Where record() puts each coefficient of a size-n shape.

    Each expansion is one int of equal-width fields, field i holding the
    coefficient of basis element i: the i-th partition of partitions_of(n)
    for Schur, the composition with descent mask i for F, M, S and D.
    Coefficients of Schur, F, M and S lie in 0..f^A, and f^A <= n!, so
    fields of bitlen(n!) + 1 bits keep their top bit, the guard bit, clear;
    kernels.field_width rounds that up to whole bytes, so that ints are
    built with int.from_bytes, in time linear in their size, and the
    descent kernel packs F in these fields itself.  A D coefficient is a sum
    over lambda of c_lambda times a signed count of at most n! permutations,
    and the c_lambda sum to at most f^A, so |d| <= (n!)^2: D fields are
    twice as wide and hold d + bias, with bias 2^(bits - 2).  Then every
    field of every expansion is non-negative and below its guard bit.
    guards also holds the guard of the dominance keys, once per key, so
    that it lines up with the ints compare() tests field by field.
    """

    n: int
    width: tuple  # bytes per field, per basis in BASES order
    fields: tuple  # fields per expansion, per basis
    part_index: dict  # partition of n -> its Schur field
    ones: tuple  # the low bit of every field, per basis
    guards: tuple  # guard bits, per basis and then per dominance key
    bias: int  # the bias in every D field


@lru_cache(maxsize=None)
def layout(n: int) -> Layout:
    """The packed-record layout of size n.

    One per size; record() checks the size guard before asking for one.
    """
    w = kernels.field_width(n)
    comps = 1 << max(0, n - 1)
    parts = partitions_of(n)
    width = (w, w, w, w, 2 * w)
    fields = (len(parts), comps, comps, comps, comps)
    return Layout(
        n,
        width,
        fields,
        {lam: i for i, lam in enumerate(parts)},
        tuple(kernels.repeat_field(b"\1".ljust(k, b"\0"), f)
              for k, f in zip(width, fields)),
        tuple(kernels.repeat_field(b"\x80".rjust(k, b"\0"), f)
              for k, f in zip(width, fields))
        + (overlaps.dominance_guard(n),) * len(_DOM_KEYS),
        kernels.repeat_field(b"\x40".rjust(2 * w, b"\0"), comps),
    )


def _pack(terms, fields: int, width: int) -> int:
    """Coefficient c in field i for each (i, c) of terms, the rest zero.

    A coefficient that is negative or too wide for its field raises
    OverflowError.
    """
    chunks = [bytes(width)] * fields
    for i, c in terms:
        chunks[i] = c.to_bytes(width, "little")
    return int.from_bytes(b"".join(chunks), "little")


@lru_cache(maxsize=None)
def _straight_packed(lam: Partition) -> tuple:
    """The F, S and D expansions of s_lam, packed; D's fields signed, unbiased.

    Built when a record first meets lam and kept, like bases._straight_d.
    F counts the standard fillings of lam by descent set, packed by the
    descent kernel itself.
    """
    lay = layout(sum(lam))
    fields, w_s, w_d = lay.fields[3], lay.width[3], lay.width[4]
    f = kernels.descent_counts((0,) * len(lam), lam)
    s = _pack(((comp_to_mask(alpha), 1)
               for alpha in distinct_permutations(lam)), fields, w_s)
    d = bases._straight_d(lam)
    above = _pack(((comp_to_mask(beta), v) for beta, v in d if v > 0),
                  fields, w_d)
    below = _pack(((comp_to_mask(beta), -v) for beta, v in d if v < 0),
                  fields, w_d)
    return f, s, above - below


@dataclass(frozen=True)
class ShapeRecord:
    """Everything compare() reads about one shape, in layout(size) fields."""

    shape: SkewShape
    layout: Layout
    coeffs: tuple  # packed expansion per basis, in BASES order
    supports: tuple  # guard bits of the non-zero fields, in _SUP_KEYS order
    keys: tuple  # packed dominance keys, in _DOM_KEYS order


def record(shape: SkewShape) -> ShapeRecord:
    """Packed expansions, supports and dominance keys of one shape.

    Schur is packed from tableaux.schur_expansion, which checks the size
    guard, and the rest from it (_record).
    """
    return _record(shape, tableaux.schur_expansion(shape))


def _record(shape: SkewShape, schur) -> ShapeRecord:
    """record(shape), given the Schur expansion of shape.

    F, S and D are the Schur combination of the straight shapes' packed
    expansions, so the descent kernel only sees straight shapes.  M is the
    zeta transform of F over descent sets (kernels.zeta_transform).
    """
    n = shape.size
    lay = layout(n)
    f, s, d = 0, 0, lay.bias
    for lam, c in schur.items():
        f_lam, s_lam, d_lam = _straight_packed(lam)
        f += c * f_lam
        s += c * s_lam
        d += c * d_lam
    part = lay.part_index
    coeffs = (_pack(((part[lam], c) for lam, c in schur.items()),
                    lay.fields[0], lay.width[0]),
              f, kernels.zeta_transform(f, n), s, d)
    g, one = lay.guards[4], lay.ones[4]
    supports = (*map(kernels.nonzero_fields, coeffs[:4], lay.guards,
                     lay.ones),
                kernels.nonzero_fields(d ^ lay.bias, g, one),
                (d + (g - lay.bias - one)) & g)  # the fields above the bias
    outer, inner = shape.outer, shape.inner
    rows, rects = overlaps.profile_keys(outer, inner, n, with_rects=True)
    (cols,) = overlaps.profile_keys(transpose_partition(outer),
                                    transpose_partition(inner), n)
    return ShapeRecord(shape, lay, coeffs, supports, (rows, cols, rects))


# in the order compare() computes them
_CONDITIONS = (tuple(f"positive:{k}" for k in BASES)
               + tuple(f"dominated:{k}" for k in _DOM_KEYS)
               + tuple(f"contains:{k}" for k in _SUP_KEYS))


def compare(ra: ShapeRecord, rb: ShapeRecord) -> RelationMatrix:
    """Relation matrix of two records of shapes of one size.

    s_A - s_B is positive in a basis when every field of A's expansion is
    at least B's (overlaps.key_dominated, as for the dominance keys), and
    A's support contains B's when A's guard bits cover B's.
    """
    values = list(map(overlaps.key_dominated, rb.coeffs + ra.keys,
                      ra.coeffs + rb.keys, ra.layout.guards))
    values += [sa | sb == sa for sa, sb in zip(ra.supports, rb.supports)]
    return RelationMatrix(ra.shape, rb.shape, dict(zip(_CONDITIONS, values)))


# the records relate() reads; the sweeps own their records and skip it
_relate_record = tableaux._guarded_cache(record, maxsize=128)


def relate(a: SkewShape, b: SkewShape) -> RelationMatrix:
    """Full relation matrix for an ordered same-size pair.

    The records come from a bounded cache of the most recently related
    shapes, which checks the size guard on every call.
    """
    check_same_size(a, b)
    return compare(_relate_record(a), _relate_record(b))


def check_implications(m: RelationMatrix) -> list[str]:
    """Names of diagram arrows or equivalences broken by this matrix."""
    c = m.conditions
    broken = [f"{left} => {right}" for left, right in _ARROWS
              if c[left] and not c[right]]
    for group in _EQUIVALENCES:
        if len({c[cond] for cond in group}) > 1:
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


_ABSENT_DIGITS = bytes.maketrans(b"\0\x80", b"\1\0")


def _condition_rows(records) -> dict:
    """Each condition's rows: bit y of row x iff it holds for keys x and y.

    records are of shapes of one size, one per key; a condition holds for
    x and y when compare(records[x], records[y]) says so, and no row has
    its own bit.  Each condition's rows are orders.order_rows over one byte
    string per record, so they test what compare() tests, field by field:
    for positive:<basis>, the expansion with each field complemented (the
    field's all-ones value less it), so that y's fields are at most x's;
    for dominated:<key>, the dominance key, so that y's key dominates x's;
    for contains:<key>, one byte per field, 1 outside the support, so that
    y's support lacks whatever x's lacks.
    """
    lay = records[0].layout
    rows = {}
    for b, basis in enumerate(BASES):
        full = lay.guards[b] - lay.ones[b]
        length = lay.width[b] * lay.fields[b]
        rows[f"positive:{basis}"] = order_rows(
            [(full - r.coeffs[b]).to_bytes(length, "big") for r in records],
            lay.width[b])
    for k, key in enumerate(_DOM_KEYS):
        rows[f"dominated:{key}"] = order_rows(
            [r.keys[k].to_bytes(lay.n * lay.n, "big") for r in records])
    for k, key in enumerate(_SUP_KEYS):
        b = min(k, 4)  # d_positive is in D's fields
        width, length = lay.width[b], lay.width[b] * lay.fields[b]
        rows[f"contains:{key}"] = order_rows(
            [r.supports[k].to_bytes(length, "big")[::width]
             .translate(_ABSENT_DIGITS) for r in records])
    return rows


def verify_implications(n: int) -> dict:
    """Check every arrow on every ordered same-size pair of sizes 1..n.

    Returns a report dict; report["violations"] is empty exactly when the
    diagram survives.  Per size it records one shape per component key and
    builds every condition's rows over the records (_condition_rows); an
    arrow L => R breaks on the bits of L's row that R's lacks, and an
    equivalence on the bits where a row differs from its group's first.
    Only a broken key pair is compared, to name its arrows in
    check_implications' order, and only the broken pairs' keys have their
    shapes listed (shapes.key_pair_shapes), to name its shape pairs.  The
    arrows and equivalences are read on each call.  The four witness pairs
    must each be seen with their published hold/fail pattern once their
    size is within range, compared on that size's records.
    """
    # listing size n first checks n before any record is built
    largest = component_keys(_sweep_size(n))
    by_size = [component_keys(size) for size in range(1, n)] + [largest]
    violations, witnesses = [], {}
    for size, keyed in enumerate(by_size, 1):  # arrows pair same-size shapes
        records = [_record(key_shape(key), tableaux.key_schur_expansion(key))
                   for key, _ in keyed]
        index = {key: x for x, (key, _) in enumerate(keyed)}
        for a_str, b_str, holds, fails in WITNESSES:
            a, b = parse_shape(a_str), parse_shape(b_str)
            if a.size == size:
                m = compare(records[index[component_key(a)]],
                            records[index[component_key(b)]])
                confirmed = m.get(holds) and not m.get(fails)
                witnesses[f"{a_str} vs {b_str}"] = confirmed
        rows = _condition_rows(records)
        broken = {}
        for x, ra in enumerate(records):
            bad = 0
            for left, right in _ARROWS:
                bad |= rows[left][x] & ~rows[right][x]
            for first, *rest in _EQUIVALENCES:
                for cond in rest:
                    bad |= rows[first][x] ^ rows[cond][x]
            for y in bit_indices(bad):
                broken[x, y] = check_implications(compare(ra, records[y]))
        violations += [
            {"a": format_shape(a), "b": format_shape(b), "arrow": arrow}
            for a, b, arrows in key_pair_shapes(keyed, broken)
            for arrow in arrows
        ]
    counts = [sum(count for _, count in same) for same in by_size]
    return {
        "max_size": n,
        "pairs_checked": sum(c * (c - 1) for c in counts),
        "violations": violations,
        "witnesses_confirmed": witnesses,
        "all_witnesses_found": bool(witnesses) and all(witnesses.values()),
        "pass": not violations and all(witnesses.values()),
    }
