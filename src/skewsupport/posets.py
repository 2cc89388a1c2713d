"""Posets of shape classes, the support/overlap equivalence sweep, the
multiplicity-free classification, and the saturation probe.

Shapes of a fixed size are grouped into classes two ways: by equal F-support
("suppf") and by equal overlap profile ("nc").  Both sets of classes are
ordered, by support containment and by overlap dominance respectively; a
bigger support corresponds to more dominated overlaps.  The containment
direction of the correspondence is a proved theorem (checked here as a
sweep); the dominance-to-containment direction is open, so any reverse
failure is reported as a discovery rather than an error.  Every sweep reads
one fingerprint per component key, from the key and its representative
(shapes.component_keys): support data from the key's Schur expansion,
composed from its components (tableaux.key_schur_expansion), and overlap
data from the representative.  The poset and multiplicity-free sweeps,
which list every class member, build each shape from its key
(shapes.key_shapes); verify_conjecture and saturation_check list shapes
only on a failure.
Every order is a list of bitset rows from one builder, _order_rows, which
is bit-sliced over byte fields: one class bitset per field and value, and
one AND per non-zero field of a row's fields.  Support data is held as an
F-support cover (tableaux.f_support_cover), the p(n)-bit set of partitions
whose straight supports a support contains, so support containment is
cover containment (_containing: one byte per bit of a cover's complement).
Overlap dominance reads the bytes of the dominance keys
(overlaps.profile_keys; _dominated).
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import permutations

from skewsupport.config import max_size
from skewsupport.errors import (
    InvalidArgumentError,
    InvalidShapeError,
    SizeLimitError,
)
from skewsupport.overlaps import key_dominated, profile_keys
from skewsupport.relations import layout, packed_f
from skewsupport.shapes import (
    SkewShape,
    _sweep_size,
    check_same_size,
    component_keys,
    direct_sum,
    fingerprint_all,
    format_shape,
    key_shapes,
    parse_shape,
    scale,
)
from skewsupport.tableaux import (
    f_support_cover,
    key_schur_expansion,
    schur_support,
)

# ---------------------------------------------------------------- posets


@dataclass(frozen=True)
class ShapeClassPoset:
    """Classes of same-size shapes with a strict order on class indices."""

    kind: str  # "suppf" or "nc"
    n: int
    classes: tuple[tuple[SkewShape, ...], ...]
    below: tuple[int, ...]  # bit j of below[i]: class j lies under class i

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Covering pairs (above, below): the order minus two-step paths.

        (i, j) is a covering pair iff bit j is in below[i] but in no
        below[k] for a class k in below[i].  Pairs come out sorted.
        """
        edges = []
        for i, bits in enumerate(self.below):
            two_step = 0
            for k in _bit_indices(bits):
                two_step |= self.below[k]
            edges.extend((i, j) for j in _bit_indices(bits & ~two_step))
        return edges

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "class_count": len(self.classes),
            "classes": [
                {
                    "representative": format_shape(cls[0]),
                    "members": [format_shape(s) for s in cls],
                }
                for cls in self.classes
            ],
            "hasse_edges": [
                {
                    "upper": format_shape(self.classes[i][0]),
                    "lower": format_shape(self.classes[j][0]),
                }
                for i, j in self.hasse_edges()
            ],
        }

    def to_dot(self) -> str:
        lines = [f"digraph {self.kind}_{self.n} {{", "  rankdir=BT;",
                 "  node [shape=box];"]
        for cls in self.classes:
            rep = format_shape(cls[0])
            label = rep if len(cls) == 1 else f"{rep} (+{len(cls) - 1})"
            lines.append(f'  "{rep}" [label="{label}"];')
        for i, j in self.hasse_edges():
            upper = format_shape(self.classes[i][0])
            lower = format_shape(self.classes[j][0])
            lines.append(f'  "{lower}" -> "{upper}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _bit_indices(bits: int):
    """Indices of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _classes_of(fingerprints) -> dict:
    """Indices grouped by equal fingerprint, in first-seen order."""
    groups: dict = {}
    for i, f in enumerate(fingerprints):
        groups.setdefault(f, []).append(i)
    return groups


def _order_rows(fields) -> list[int]:
    """Bit j of row i: j != i and fields[j] >= fields[i] at every byte.

    fields are byte strings of one length.  The rows are bit-sliced: per
    byte position f and value v >= 1, at_least[f][v - 1] is the set of
    indices whose byte f is at least v, so row i is the AND of those sets
    over the non-zero bytes of fields[i].
    """
    at_least = []
    for column in zip(*fields):
        # one byte per index, last index first, read as base-2 digits
        digits = bytes(column)[::-1]
        at_least.append([int(digits.translate(_at_least_digits(v)), 2)
                         for v in range(1, max(column) + 1)])
    rows = []
    everyone = (1 << len(fields)) - 1
    for i, values in enumerate(fields):
        row = everyone
        for f, v in enumerate(values):
            if v:
                row &= at_least[f][v - 1]
        rows.append(row ^ 1 << i)
    return rows


_COMPLEMENT_DIGITS = bytes.maketrans(b"01", b"\1\0")


def _containing(sets) -> list[int]:
    """Bit j of row i: j != i and sets[i] contains sets[j].

    sets are non-negative ints read as bitsets.  sets[i] contains sets[j]
    iff sets[j] lacks every bit sets[i] lacks, so the rows are _order_rows
    over one 0/1 byte per bit of each set's complement.
    """
    width = max(sets, default=0).bit_length()
    return _order_rows([format(s, f"0{width}b").encode()
                        .translate(_COMPLEMENT_DIGITS) for s in sets])


def _dominated(keys, n: int) -> list[int]:
    """Bit j of row i: keys[i] != keys[j] and keys[j] dominates keys[i].

    keys are size-n profile_keys, one byte per field, so dominance is
    _order_rows over their bytes, less the other copies of each key.
    """
    copies: dict = {}
    for j, k in enumerate(keys):
        copies[k] = copies.get(k, 0) | 1 << j
    rows = _order_rows([k.to_bytes(n * n, "big") for k in keys])
    return [row & ~copies[k] for row, k in zip(rows, keys)]


@lru_cache(maxsize=None)
def _at_least_digits(v: int) -> bytes:
    """The byte table taking x to the digit 1 if x >= v, else to 0."""
    return bytes(b"01"[x >= v] for x in range(256))


def _key(s: SkewShape) -> int:
    return profile_keys(s.outer, s.inner, s.size)[0]


# The fingerprints below take one (key, shape) pair per component key:
# the key (shapes.component_keys) and its representative shape.  Support
# data comes from the key's composed Schur expansion, as its F-support
# cover (tableaux.f_support_cover), overlap data from the shape.


def _mask(keyed) -> int:
    return f_support_cover(key_schur_expansion(keyed[0]))


def _nc_key(keyed) -> int:
    return _key(keyed[1])


def _mask_and_key(keyed) -> tuple[int, int]:
    return _mask(keyed), _nc_key(keyed)


def _mask_and_multfree(keyed) -> tuple[int, bool]:
    """F-support cover, and whether no F coefficient exceeds 1.

    The coefficients come from relations.packed_f, the Schur route; the
    direct route, tableaux.is_f_multiplicity_free, is what the tests check
    it against.
    """
    key, s = keyed
    schur = key_schur_expansion(key)  # checks the size guard first
    lay = layout(s.size)
    free = key_dominated(packed_f(schur), lay.ones[1], lay.guards[1])
    return f_support_cover(schur), free


def _mask_and_scaled(keyed, factor: int) -> tuple[int, int]:
    """F-support covers of the key and of the key with each component scaled.

    scale commutes with direct sums, so the scaled key's components are
    the scaled components.
    """
    key = keyed[0]
    scaled = tuple(tuple((a * factor, b * factor) for a, b in comp)
                   for comp in key)
    return _mask(keyed), f_support_cover(key_schur_expansion(scaled))


def _poset(kind, n, shapes, fingerprints, order) -> ShapeClassPoset:
    """Classes of equal fingerprint, ordered by the rows order builds.

    order gets one fingerprint per class: _containing takes F-support
    covers, _dominated dominance keys; both build rows with _order_rows.
    shapes are sorted, so each class is sorted and the classes, in
    first-seen order, come out ordered by their least members.
    """
    members = _classes_of(fingerprints).values()
    classes = tuple(tuple(shapes[i] for i in m) for m in members)
    below = order([fingerprints[m[0]] for m in members])
    return ShapeClassPoset(kind, n, classes, tuple(below))


def _shape_prints(n: int, fingerprint) -> tuple[list, list]:
    """Every size-n shape, sorted, and the fingerprint of each.

    fingerprint runs once per component key, on the pair of the key and
    its representative.
    """
    keyed = component_keys(_sweep_size(n))
    rows = fingerprint_all([(key, s) for key, s, _ in keyed], fingerprint)
    shapes, slots = key_shapes(keyed)
    return shapes, [rows[k] for k in slots]


def build_suppf(n: int) -> ShapeClassPoset:
    """Classes by equal F-support, ordered by strict support containment."""
    shapes, covers = _shape_prints(n, _mask)
    return _poset("suppf", n, shapes, covers, _containing)


def build_nc(n: int) -> ShapeClassPoset:
    """Classes by equal overlap profile, ordered by strict dominance.

    A class sits above another when its row statistics are dominated at
    every depth (more spread out means higher).
    """
    shapes, keys = _shape_prints(n, _nc_key)
    return _poset("nc", n, shapes, keys, partial(_dominated, n=n))


# ------------------------------------------------- the equivalence sweep


def verify_conjecture(n: int) -> dict:
    """Check "support containment <=> overlap dominance" at size n.

    Forward failures (containment without dominance) contradict a proved
    statement; reverse failures (dominance without containment) would be a
    genuine discovery.  The class partitions are compared, then every
    ordered pair of distinct F-support classes.  One shape per component
    key is fingerprinted; only a failure needs every shape, to name the
    pairs as a per-shape sweep would.
    """
    keyed = component_keys(_sweep_size(n))
    reps = [s for _, s, _ in keyed]
    rows = fingerprint_all([(key, s) for key, s, _ in keyed], _mask_and_key)
    shape_count = sum(count for *_, count in keyed)
    report = _conjecture_report(n, shape_count, reps, rows)
    if report["pass_theorem"] and report["pass_conjecture"]:
        return report
    shapes, slots = key_shapes(keyed)
    return _conjecture_report(n, shape_count, shapes, [rows[k] for k in slots])


def _conjecture_report(n, shape_count, shapes, prints) -> dict:
    """verify_conjecture's report on shapes and their (cover, key) prints.

    Given every shape, sorted, it names each class by its least shape.
    Given one shape per component key, it has the same counts and pass
    flags, so it is the same report whenever both flags pass.
    """
    covers, keys = zip(*prints)
    by_cover = _classes_of(covers)
    by_key = _classes_of(keys)

    partition_mismatches = []
    for groups, other_side, kind in (
        (by_cover, keys, "equal_support_different_profile"),
        (by_key, covers, "equal_profile_different_support"),
    ):
        for first, *rest in groups.values():
            for other in rest:
                if other_side[other] != other_side[first]:
                    partition_mismatches.append(
                        {
                            "a": format_shape(shapes[first]),
                            "b": format_shape(shapes[other]),
                            "kind": kind,
                        }
                    )

    # shapes are sorted, so the first index of a class is its least shape
    reps = [members[0] for members in by_cover.values()]
    names = [format_shape(shapes[i]) for i in reps]
    contains = _containing([covers[i] for i in reps])
    dominated = _dominated([keys[i] for i in reps], n)
    rows = list(enumerate(zip(contains, dominated)))
    forward = [{"a": names[x], "b": names[y]}
               for x, (c, d) in rows for y in _bit_indices(c & ~d)]
    reverse = [{"a": names[x], "b": names[y]}
               for x, (c, d) in rows for y in _bit_indices(d & ~c)]
    return {
        "n": n,
        # a fixed field, kept so reports stay byte-identical to older ones
        "shard": {"index": 1, "count": 1},
        "shape_count": shape_count,
        "class_count_suppf": len(by_cover),
        "class_count_nc": len(by_key),
        "pairs_checked": len(reps) * (len(reps) - 1),
        "partition_mismatches": partition_mismatches,
        "forward_violations": forward,
        "reverse_counterexamples": reverse,
        "pass_theorem": not forward
        and not any(
            m["kind"] == "equal_support_different_profile"
            for m in partition_mismatches
        ),
        "pass_conjecture": not reverse
        and not any(
            m["kind"] == "equal_profile_different_support"
            for m in partition_mismatches
        ),
    }


# ------------------------------------------- multiplicity-free machinery


def hook_shape(n: int, ell: int) -> SkewShape:
    if not 0 <= ell <= n - 1:
        raise InvalidShapeError(f"no hook with {n} boxes and leg {ell}")
    return SkewShape((n - ell,) + (1,) * ell)


def column_row_shape(n: int, ell: int) -> SkewShape:
    """A column of ell boxes with a disjoint row of n-ell above-right."""
    if not 1 <= ell <= n - 1:
        raise InvalidShapeError(f"no column+row split of {n} at {ell}")
    return direct_sum(SkewShape((1,) * ell), SkewShape((n - ell,)))


def _match_pattern(s: SkewShape):
    n = s.size
    outer, inner = s.outer, s.inner
    if not inner:
        if outer == (3, 3):
            return ("rect-2x3", None)
        if outer == (4, 4):
            return ("rect-2x4", None)
        if n >= 4 and outer == (n - 2, 2):
            return ("two-row", None)
        if outer and all(p == 1 for p in outer[1:]):
            return ("hook", len(outer) - 1)
    elif (
        inner == (1,)
        and len(outer) >= 2
        and outer[0] >= 2
        and all(p == 1 for p in outer[1:])
    ):
        return ("column-plus-row", len(outer) - 1)
    return None


def multfree_classify(s: SkewShape):
    """Classification tag if s is F-multiplicity-free, else None.

    The classified families are closed under transpose and half-turn
    rotation, so all four images are tried; `via` records which one matched.
    """
    t = s.transpose()
    for via, image in (
        ("id", s),
        ("rotate", s.rotate()),
        ("transpose", t),
        ("rotate+transpose", t.rotate()),
    ):
        hit = _match_pattern(image)
        if hit:
            kind, ell = hit
            return {"kind": kind, "ell": ell, "via": via}
    return None


def _comparable(ta: dict, tb: dict, n: int) -> bool:
    """The published comparability rule, read from two classification tags.

    Equal tag classes (the same shape up to half-turn) have equal support.
    Otherwise only a column plus a row of leg ell contains another support:
    the hooks' of leg ell and ell - 1, and (n-2, 2)'s if ell = 2 or its
    transpose's if ell = n - 2.
    """
    transposed = "transpose" in tb["via"]
    if (ta["kind"], ta["ell"], "transpose" in ta["via"]) == (
            tb["kind"], tb["ell"], transposed):
        return True
    if ta["kind"] != "column-plus-row":
        return False
    ell = ta["ell"]
    if tb["kind"] == "hook":
        return tb["ell"] in (ell, ell - 1)
    return tb["kind"] == "two-row" and ell == (n - 2 if transposed else 2)


def multfree_comparable(a: SkewShape, b: SkewShape) -> bool:
    """Whether the F-support of a contains that of b, for classified shapes.

    Decided purely from the classification: equal-support pairs (b is a or
    its rotation) pass, and otherwise only the three published family
    pattern pairs do, up to rotating either side.
    """
    check_same_size(a, b)
    ta, tb = multfree_classify(a), multfree_classify(b)
    if ta is None or tb is None:
        raise InvalidShapeError("both shapes must be multiplicity-free")
    return _comparable(ta, tb, a.size)


def multfree_report(n: int) -> dict:
    """Classification vs expansion agreement, plus the class subposet.

    Checks, for every shape of size n, that the pattern classification
    matches multiplicity-freeness of the F-expansion, read from the Schur
    expansion (_mask_and_multfree), and that the published comparability
    rules match computed support containment on every ordered pair of
    classified shapes.  Returns the restricted subposet of the support
    poset as well.
    """
    shapes, prints = _shape_prints(n, _mask_and_multfree)
    classification_mismatches = []
    free, classified = set(), []
    for s, (cover, free_f) in zip(shapes, prints):
        tag = multfree_classify(s)
        if (tag is not None) != free_f:
            classification_mismatches.append(
                {
                    "shape": format_shape(s),
                    "classified": tag is not None,
                    "expansion_multfree": free_f,
                }
            )
        if free_f:
            free.add(s)
            if tag is not None:
                classified.append((s, tag, cover))
    # the rules only speak of classified shapes; the rest are listed above
    comparability_mismatches = []
    contains = _containing([cover for *_, cover in classified])
    for x, ((a, ta, _), row) in enumerate(zip(classified, contains)):
        row |= 1 << x  # each support contains itself
        for y, (b, tb, _) in enumerate(classified):
            predicted = _comparable(ta, tb, n)
            actual = bool(row >> y & 1)
            if predicted != actual:
                comparability_mismatches.append(
                    {
                        "a": format_shape(a),
                        "b": format_shape(b),
                        "predicted": predicted,
                        "computed": actual,
                    }
                )
    # the subposet: every class holding a multiplicity-free shape
    free_covers = {cover for cover, free_f in prints if free_f}
    kept = [i for i, (cover, _) in enumerate(prints) if cover in free_covers]
    sub = _poset("suppf", n, [shapes[i] for i in kept],
                 [prints[i][0] for i in kept], _containing)
    impure = [
        format_shape(cls[0])
        for cls in sub.classes
        if not all(s in free for s in cls)
    ]
    return {
        "n": n,
        "shape_count": len(shapes),
        "multfree_count": len(free),
        "classification_mismatches": classification_mismatches,
        "comparability_mismatches": comparability_mismatches,
        "classes_with_mixed_membership": impure,
        "subposet": sub,
        "pass": not classification_mismatches
        and not comparability_mismatches,
    }


# ------------------------------------------------------------ saturation

SCHUR_REGRESSION = {
    "a": "4,3,1,1/2,1",
    "b": "4,4,2,1/3,1,1",
    "witness": (6, 3, 3),
}
# the regression expands both shapes doubled
_REGRESSION_SIZE = 2 * max(
    parse_shape(SCHUR_REGRESSION[k]).size for k in ("a", "b"))


def schur_saturation_regression() -> dict:
    """The fixed Schur-side scaling counterexample, recomputed from scratch.

    ssupp(a) contains ssupp(b), yet after doubling both shapes the witness
    partition lies in the doubled b's support only, so containment breaks.
    """
    a = parse_shape(SCHUR_REGRESSION["a"])
    b = parse_shape(SCHUR_REGRESSION["b"])
    witness = SCHUR_REGRESSION["witness"]
    base = schur_support(a) >= schur_support(b)
    in_scaled_b = witness in schur_support(scale(b, 2))
    in_scaled_a = witness in schur_support(scale(a, 2))
    scaled = schur_support(scale(a, 2)) >= schur_support(scale(b, 2))
    return {
        "a": SCHUR_REGRESSION["a"],
        "b": SCHUR_REGRESSION["b"],
        "witness": ",".join(str(p) for p in witness),
        "base_containment": base,
        "witness_in_scaled_b": in_scaled_b,
        "witness_in_scaled_a": in_scaled_a,
        "scaled_containment": scaled,
        "confirmed": base and in_scaled_b and not in_scaled_a and not scaled,
    }


def saturation_check(n: int, factor: int) -> dict:
    """Probe F-support saturation: does containment survive scaling, both ways?

    Sweeps all ordered pairs of size-n shapes comparing containment before
    and after scaling by `factor`.  Disagreements in either direction are
    open-question data, reported as discoveries, never as errors.  The fixed
    Schur-side regression is recomputed alongside, so the size guard must
    admit both n * factor and the regression's doubled shapes.
    """
    if factor < 1:
        raise InvalidArgumentError(f"scale factor must be >= 1, got {factor}")
    need, limit = max(n * factor, _REGRESSION_SIZE), max_size()
    if need > limit:
        raise SizeLimitError(
            f"saturation needs shapes of {need} boxes, over the size limit "
            f"{limit}"
        )
    keyed = component_keys(_sweep_size(n))
    rows = fingerprint_all([(key, s) for key, s, _ in keyed],
                           partial(_mask_and_scaled, factor=factor))
    covers, scaled = zip(*rows)
    only_if, if_dir = [], []
    flips = {}  # key pair -> the list its shape pairs go to
    for x, (b, a) in enumerate(zip(_containing(covers), _containing(scaled))):
        flips.update(((x, y), only_if) for y in _bit_indices(b & ~a))
        flips.update(((x, y), if_dir) for y in _bit_indices(a & ~b))
    if flips:
        shapes, slots = key_shapes(keyed)
        for (a, x), (b, y) in permutations(zip(shapes, slots), 2):
            if (x, y) in flips:
                flips[x, y].append({"a": format_shape(a),
                                    "b": format_shape(b)})
    shape_count = sum(count for *_, count in keyed)
    return {
        "n": n,
        "factor": factor,
        "pairs_checked": shape_count * (shape_count - 1),
        "containment_lost_after_scaling": only_if,
        "containment_gained_after_scaling": if_dir,
        "agreement": not only_if and not if_dir,
        "schur_regression": schur_saturation_regression(),
    }
