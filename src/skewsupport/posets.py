"""Posets of shape classes, the support/overlap equivalence sweep, the
multiplicity-free classification, and the saturation probe.

Shapes of a fixed size are grouped into classes two ways: by equal F-support
("suppf") and by equal overlap profile ("nc").  Both sets of classes are
ordered, by support containment and by overlap dominance respectively; a
bigger support corresponds to more dominated overlaps.  The containment
direction of the correspondence is a proved theorem (checked here as a
sweep); the dominance-to-containment direction is open, so any reverse
failure is reported as a discovery rather than an error.  Every sweep reads
one fingerprint per component key (shapes.component_keys), from the key's
rows: support data from the key's Schur support, and overlap data from
the rows of the key's direct sum.  The support-only sweeps
(verify_conjecture, saturation_check with its scaled keys, build_suppf)
take every key's cover from one call of the support route
(tableaux.support_covers), which composes Schur supports, not
coefficients; the multiplicity-free sweep reads coefficients, so it
composes each key's Schur expansion (tableaux.key_schur_expansion) and
classifies one shape per key (shapes.key_shape).  Shapes are built from
their keys (shapes.key_shapes): every class member's for the posets, and
only the named keys' for the other sweeps: multfree_report's disagreeing
keys, subposet classes and key pairs, saturation_check's disagreeing key
pairs (shapes.key_pair_shapes), and the keys whose shapes a failing
verify_conjecture prints, which names each class by its keys' least
shapes (shapes.least_shape).
Every order is a list of bitset rows from the order-row module shared
with relations' implication sweep (skewsupport.orders), bit-sliced over
byte fields.  Support data is held as an F-support cover
(tableaux.f_support_cover), the p(n)-bit set of partitions whose straight
supports a support contains, so support containment is cover containment
(orders.containing: one byte per bit of a cover's complement).  Overlap
dominance reads the bytes of the dominance keys (overlaps.profile_keys;
orders.dominated).
"""

from dataclasses import dataclass
from functools import cache, partial

from skewsupport.config import max_size
from skewsupport.errors import (
    InvalidArgumentError,
    InvalidShapeError,
    SizeLimitError,
)
from skewsupport.orders import bit_indices, containing, dominated
from skewsupport.overlaps import profile_keys
from skewsupport.shapes import (
    SkewShape,
    _direct_sum_rows,
    _sweep_size,
    check_same_size,
    component_keys,
    direct_sum,
    format_shape,
    key_pair_shapes,
    key_shape,
    key_shapes,
    least_shape,
    parse_shape,
    scale,
    scale_key,
)
from skewsupport.tableaux import (
    f_support_cover,
    f_support_mask_of,
    key_schur_expansion,
    schur_support,
    support_covers,
    syt_count,
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
            for k in bit_indices(bits):
                two_step |= self.below[k]
            edges.extend((i, j) for j in bit_indices(bits & ~two_step))
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


def _classes_of(fingerprints) -> dict:
    """Indices grouped by equal fingerprint, in first-seen order."""
    groups: dict = {}
    for i, f in enumerate(fingerprints):
        groups.setdefault(f, []).append(i)
    return groups


# The fingerprints below take a sweep's rows of shapes.component_keys,
# (key, count), and give one fingerprint per row.  Support data is the
# key's F-support cover, from the support route (tableaux.support_covers),
# which composes Schur supports only; overlap data is the dominance key of
# the rows of the key's direct sum.


def _masks(keyed) -> list[int]:
    return support_covers([key for key, _ in keyed])


def _nc_keys(keyed) -> list[int]:
    out = []
    for key, _ in keyed:
        inner, outer = zip(*_direct_sum_rows(key))
        out.append(profile_keys(outer, inner, sum(outer) - sum(inner))[0])
    return out


def _masks_and_keys(keyed) -> list[tuple[int, int]]:
    return list(zip(_masks(keyed), _nc_keys(keyed)))


def _masks_and_multfree(keyed) -> list[tuple[int, bool]]:
    """F-support cover, and whether no F coefficient exceeds 1, per key.

    s_A's F coefficients are positive on its support and sum to f^A =
    sum c_lam f^lam, so all are 1 iff the support has f^A members.  This
    reads coefficients, so it composes each key's Schur expansion.  The
    tests check it against the direct route, is_f_multiplicity_free.
    """
    out = []
    for key, _ in keyed:
        schur = key_schur_expansion(key)  # checks the size guard first
        f_a = sum(c * syt_count(lam) for lam, c in schur.items())
        out.append((f_support_cover(schur.coeffs),
                    f_support_mask_of(schur.coeffs).bit_count() == f_a))
    return out


def _masks_and_scaled(keyed, factor: int) -> list[tuple[int, int]]:
    """F-support covers of each key and of its shapes scaled, from one
    pass of the support route."""
    keys = [key for key, _ in keyed]
    keys += [scale_key(key, factor) for key in keys]
    covers = support_covers(keys)
    return list(zip(covers[:len(keyed)], covers[len(keyed):]))


def _poset(kind, n, shapes, fingerprints, order) -> ShapeClassPoset:
    """Classes of equal fingerprint, ordered by the rows order builds.

    order gets one fingerprint per class: containing takes F-support
    covers, dominated dominance keys; both build rows with
    orders.order_rows.
    shapes are sorted, so each class is sorted and the classes, in
    first-seen order, come out ordered by their least members.
    """
    members = _classes_of(fingerprints).values()
    classes = tuple(tuple(shapes[i] for i in m) for m in members)
    below = order([fingerprints[m[0]] for m in members])
    return ShapeClassPoset(kind, n, classes, tuple(below))


def _shape_prints(n: int, fingerprint) -> tuple[list, list]:
    """Every size-n shape, sorted, and the fingerprint of each.

    fingerprint runs once per sweep, on the rows of component_keys(n),
    and gives one fingerprint per key.
    """
    keyed = component_keys(_sweep_size(n))
    rows = fingerprint(keyed)
    shapes, slots = key_shapes(keyed)
    return shapes, [rows[k] for k in slots]


def build_suppf(n: int) -> ShapeClassPoset:
    """Classes by equal F-support, ordered by strict support containment."""
    shapes, covers = _shape_prints(n, _masks)
    return _poset("suppf", n, shapes, covers, containing)


def build_nc(n: int) -> ShapeClassPoset:
    """Classes by equal overlap profile, ordered by strict dominance.

    A class sits above another when its row statistics are dominated at
    every depth (more spread out means higher).
    """
    shapes, keys = _shape_prints(n, _nc_keys)
    return _poset("nc", n, shapes, keys, partial(dominated, n=n))


# ------------------------------------------------- the equivalence sweep


def verify_conjecture(n: int) -> dict:
    """Check "support containment <=> overlap dominance" at size n.

    Forward failures (containment without dominance) contradict a proved
    statement; reverse failures (dominance without containment) would be a
    genuine discovery.  The class partitions are compared, then every
    ordered pair of distinct F-support classes, all from one fingerprint
    per component key.  A failure is named as a per-shape sweep names it,
    each class by the least of its keys' least shapes (least_shape); a
    mixed class lists only the shapes it prints (key_shapes).
    """
    keyed = component_keys(_sweep_size(n))
    covers, keys = zip(*_masks_and_keys(keyed))
    by_cover, by_key = _classes_of(covers), _classes_of(keys)
    # the support classes of 2+ profiles, and the profile classes of 2+
    mixed_support, mixed_profile = (
        [m for m in groups.values() if len({other[x] for x in m}) > 1]
        for groups, other in ((by_cover, keys), (by_key, covers)))
    classes = list(by_cover.values())
    # the least shape of each key the report names, kept for this call
    low = cache(lambda x: least_shape(keyed[x][0]))
    # a mixed support class enters the orders with the key of its least
    # shape, as a per-shape sweep's representative does
    split = {covers[m[0]] for m in mixed_support}
    reps = [min(m, key=low) if covers[m[0]] in split else m[0]
            for m in classes]
    contains = containing([covers[x] for x in reps])
    dominance = dominated([keys[x] for x in reps], n)
    rows = list(enumerate(zip(contains, dominance)))
    forward = [(x, y) for x, (c, d) in rows for y in bit_indices(c & ~d)]
    reverse = [(x, y) for x, (c, d) in rows for y in bit_indices(d & ~c)]
    # a mixed class pairs its least shape with each shape of a key whose
    # other fingerprint differs from that shape's key's
    partition_mismatches = []
    for kind, other, mixed in (
            ("equal_support_different_profile", keys, mixed_support),
            ("equal_profile_different_support", covers, mixed_profile)):
        for m in sorted(mixed, key=lambda group: min(map(low, group))):
            home = min(m, key=low)
            shapes, _ = key_shapes([keyed[x] for x in m
                                    if other[x] != other[home]])
            partition_mismatches.extend(
                {"a": format_shape(low(home)), "b": format_shape(s),
                 "kind": kind} for s in shapes)

    def named(pairs):
        names = {x: min(map(low, classes[x])) for pair in pairs for x in pair}
        return [{"a": format_shape(a), "b": format_shape(b)}
                for a, b in sorted((names[x], names[y]) for x, y in pairs)]

    return {
        "n": n,
        # a fixed field, kept so reports stay byte-identical to older ones
        "shard": {"index": 1, "count": 1},
        "shape_count": sum(count for _, count in keyed),
        "class_count_suppf": len(by_cover),
        "class_count_nc": len(by_key),
        "pairs_checked": len(classes) * (len(classes) - 1),
        "partition_mismatches": partition_mismatches,
        "forward_violations": named(forward),
        "reverse_counterexamples": named(reverse),
        "pass_theorem": not forward and not mixed_support,
        "pass_conjecture": not reverse and not mixed_profile,
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
    expansion (_masks_and_multfree), and that the published comparability
    rules match computed support containment between classified shapes.
    Returns the restricted subposet of the support poset as well.

    Both checks run per component key: a key's shapes are the orderings and
    half-turns of its components, and every classified family is closed
    under half-turn and transpose, so the tag of one shape of a key
    (key_shape; None or not, kind, ell, and whether it matched through a
    transpose) is every shape's.  Two shapes of one key share a tag and a
    cover, so the rules are compared per ordered pair of distinct
    classified keys.  Only the keys the report names have their shapes
    listed: those that disagree (key_shapes, key_pair_shapes), and those
    whose cover is in a class holding a free key.
    """
    keyed = component_keys(_sweep_size(n))
    prints = _masks_and_multfree(keyed)
    tags = [multfree_classify(key_shape(key)) for key, _ in keyed]
    free_covers = {cover for cover, free_f in prints if free_f}
    named = [x for x, ((cover, free_f), tag) in enumerate(zip(prints, tags))
             if cover in free_covers or (tag is not None) != free_f]
    shapes, slots = key_shapes([keyed[x] for x in named])
    classification_mismatches = []
    free, kept = set(), []
    for s, slot in zip(shapes, slots):
        (cover, free_f), tag = prints[named[slot]], tags[named[slot]]
        if (tag is not None) != free_f:
            classification_mismatches.append(
                {
                    "shape": format_shape(s),
                    "classified": tag is not None,
                    "expansion_multfree": free_f,
                }
            )
        if cover in free_covers:
            kept.append((s, cover))
        if free_f:
            free.add(s)
    # the rules only speak of classified keys
    classified = [x for x, ((_, free_f), tag) in enumerate(zip(prints, tags))
                  if free_f and tag is not None]
    contains = containing([prints[x][0] for x in classified])
    predicted = {}
    for i, (x, row) in enumerate(zip(classified, contains)):
        for j, y in enumerate(classified):
            rule = _comparable(tags[x], tags[y], n)
            if i != j and rule != bool(row >> j & 1):
                predicted[x, y] = rule
    comparability_mismatches = [
        {"a": format_shape(a), "b": format_shape(b), "predicted": rule,
         "computed": not rule}
        for a, b, rule in key_pair_shapes(keyed, predicted)]
    # the subposet: every class holding a multiplicity-free shape
    sub = _poset("suppf", n, [s for s, _ in kept],
                 [cover for _, cover in kept], containing)
    impure = [
        format_shape(cls[0])
        for cls in sub.classes
        if not all(s in free for s in cls)
    ]
    return {
        "n": n,
        "shape_count": sum(count for _, count in keyed),
        "multfree_count": sum(count for (_, count), (_, free_f)
                              in zip(keyed, prints) if free_f),
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
    and after scaling by `factor`, listing the shapes of disagreeing key
    pairs only (shapes.key_pair_shapes).  Disagreements either way are
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
    covers, scaled = zip(*_masks_and_scaled(keyed, factor))
    only_if, if_dir = [], []
    flips = {}  # key pair -> the list its shape pairs go to
    for x, (b, a) in enumerate(zip(containing(covers), containing(scaled))):
        flips.update(((x, y), only_if) for y in bit_indices(b & ~a))
        flips.update(((x, y), if_dir) for y in bit_indices(a & ~b))
    for a, b, out in key_pair_shapes(keyed, flips):
        out.append({"a": format_shape(a), "b": format_shape(b)})
    shape_count = sum(count for _, count in keyed)
    return {
        "n": n,
        "factor": factor,
        "pairs_checked": shape_count * (shape_count - 1),
        "containment_lost_after_scaling": only_if,
        "containment_gained_after_scaling": if_dir,
        "agreement": not only_if and not if_dir,
        "schur_regression": schur_saturation_regression(),
    }
