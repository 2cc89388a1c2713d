"""Posets of shape classes, the support/overlap equivalence sweep, the
multiplicity-free classification, and the saturation probe.

Shapes of a fixed size are grouped into classes two ways: by equal F-support
("suppf") and by equal overlap profile ("nc").  Both sets of classes are
ordered, by support containment and by overlap dominance respectively; a
bigger support corresponds to more dominated overlaps.  The containment
direction of the correspondence is a proved theorem (checked here as a
sweep); the dominance-to-containment direction is open, so any reverse
failure is reported as a discovery rather than an error.  Sweeps fingerprint
one shape per multiset of components up to half-turn, as s_{A+B} = s_A s_B
(EC2 Sec. 7.10) and A + B has the row overlaps of A and B (RSvW 2007, Sec. 2).
"""

import zlib
from dataclasses import dataclass
from functools import partial
from multiprocessing import get_context

from skewsupport.config import default_jobs, max_size
from skewsupport.errors import (
    InvalidArgumentError,
    InvalidShapeError,
    SizeLimitError,
)
from skewsupport.overlaps import (
    OverlapProfile,
    dominance_guard,
    dominance_key,
    key_dominated,
)
from skewsupport.shapes import (
    SkewShape,
    check_same_size,
    direct_sum,
    enumerate_shapes,
    format_shape,
    parse_shape,
    scale,
)
from skewsupport.tableaux import (
    f_support_mask,
    is_f_multiplicity_free,
    schur_support,
)

# ---------------------------------------------------------------- posets


@dataclass(frozen=True)
class ShapeClassPoset:
    """Classes of same-size shapes with a strict order on class indices."""

    kind: str  # "suppf" or "nc"
    n: int
    classes: tuple[tuple[SkewShape, ...], ...]
    relation: frozenset  # pairs (above, below) of class indices

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Covering pairs (above, below): relation minus two-step paths.

        below[i] is the bitset of the classes under class i.  (i, j) is a
        covering pair iff bit j is in below[i] but in no below[k] for a
        class k in below[i].  Pairs come out sorted.
        """
        below = [0] * len(self.classes)
        for i, j in self.relation:
            below[i] |= 1 << j
        edges = []
        for i, bits in enumerate(below):
            two_step = 0
            for k in _bit_indices(bits):
                two_step |= below[k]
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


def _component_key(s: SkewShape) -> tuple:
    """The sorted tuple of s's connected components, each up to half-turn.

    A component ends at row i if row i + 1 ends at or left of row i's start.
    Each is its row intervals shifted to column 0, or its half-turn's if less.
    """
    outer, inner = s.outer, s.inner_padded
    comps, top = [], 0
    for i in range(len(outer)):
        if i + 1 == len(outer) or outer[i + 1] <= inner[i]:
            left, width = inner[i], outer[top] - inner[i]
            rows = tuple((inner[r] - left, outer[r] - left)
                         for r in range(top, i + 1))
            turned = tuple((width - b, width - a) for a, b in reversed(rows))
            comps.append(min(rows, turned))
            top = i + 1
    return tuple(sorted(comps))


def _fingerprints(shapes, fingerprint, jobs: int = 1) -> list:
    """fingerprint(s) for every shape s, as a list in the order of shapes.

    s_{A+B} = s_A s_B for a direct sum and s_A is half-turn invariant (EC2
    Sec. 7.10); A + B has the row overlaps of A and B, which share no column
    (Reiner-Shaw-van Willigenburg 2007, Sec. 2); scale commutes with both.
    So each fingerprint is computed once per _component_key, on the first shape
    with it.  jobs > 1 maps over a fork pool, which needs a module-level one.
    """
    first: dict = {}  # key -> (slot, first shape with that key)
    slots = [first.setdefault(_component_key(s), (len(first), s))[0]
             for s in shapes]
    work = [s for _, s in first.values()]
    if jobs <= 1 or len(work) < 64:
        rows = [fingerprint(s) for s in work]
    else:
        with get_context("fork").Pool(jobs) as pool:
            rows = pool.map(fingerprint, work)
    return [rows[slot] for slot in slots]


def _mask_and_key(s: SkewShape) -> tuple[int, int]:
    return f_support_mask(s), dominance_key(OverlapProfile.of(s), s.size)


def _mask_and_multfree(s: SkewShape) -> tuple[int, bool]:
    return f_support_mask(s), is_f_multiplicity_free(s)


def _mask_and_scaled(s: SkewShape, factor: int) -> tuple[int, int]:
    return f_support_mask(s), f_support_mask(scale(s, factor))


def _poset(kind, n, shapes, fingerprints, above) -> ShapeClassPoset:
    """Classes of equal fingerprint, ordered by above(fi, fj) for fi != fj.

    shapes are sorted, so each class is sorted and the classes come out
    ordered by their least members.
    """
    members = sorted(_classes_of(fingerprints).values())
    classes = tuple(tuple(shapes[i] for i in m) for m in members)
    prints = [fingerprints[m[0]] for m in members]
    relation = frozenset(
        (i, j)
        for i, fi in enumerate(prints)
        for j, fj in enumerate(prints)
        if fi != fj and above(fi, fj)
    )
    return ShapeClassPoset(kind, n, classes, relation)


def build_suppf(n: int) -> ShapeClassPoset:
    """Classes by equal F-support, ordered by strict support containment."""
    shapes = enumerate_shapes(n)
    return _poset("suppf", n, shapes, _fingerprints(shapes, f_support_mask),
                  lambda mi, mj: mi | mj == mi)


def build_nc(n: int) -> ShapeClassPoset:
    """Classes by equal overlap profile, ordered by strict dominance.

    A class sits above another when its row statistics are dominated at
    every depth (more spread out means higher).
    """
    shapes = enumerate_shapes(n)
    guard = dominance_guard(n)
    keys = _fingerprints(shapes,
                         lambda s: dominance_key(OverlapProfile.of(s), n))
    return _poset("nc", n, shapes, keys,
                  lambda ki, kj: key_dominated(ki, kj, guard))


# ------------------------------------------------- the equivalence sweep


def _shard_of(a: str, b: str, count: int) -> int:
    """Shard of the ordered pair of shapes named a and b."""
    return zlib.crc32(f"{a}|{b}".encode()) % count


def verify_conjecture(n: int, shard=(1, 1), jobs=None) -> dict:
    """Check "support containment <=> overlap dominance" at size n.

    Forward failures (containment without dominance) contradict a proved
    statement; reverse failures (dominance without containment) would be a
    genuine discovery.  Class partitions are compared globally; the ordered
    class pairs are distributed over `shard` = (index, count), 1-based, by a
    stable hash, so disjoint shards cover every pair exactly once.
    """
    index, count = shard
    if not (1 <= index <= count):
        raise InvalidArgumentError(f"shard index {index} outside 1..{count}")
    shapes = enumerate_shapes(n)
    masks, keys = zip(*_fingerprints(shapes, _mask_and_key,
                                     jobs or default_jobs()))
    by_mask = _classes_of(masks)
    by_key = _classes_of(keys)

    partition_mismatches = []
    for groups, other_side, kind in (
        (by_mask, keys, "equal_support_different_profile"),
        (by_key, masks, "equal_profile_different_support"),
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
    reps = [
        (masks[i], keys[i], format_shape(shapes[i]))
        for i in sorted(members[0] for members in by_mask.values())
    ]
    guard = dominance_guard(n)
    forward, reverse = [], []
    pairs = 0
    for x, (ma, ka, a) in enumerate(reps):
        for y, (mb, kb, b) in enumerate(reps):
            if x == y:
                continue
            if count > 1 and _shard_of(a, b, count) != index - 1:
                continue
            pairs += 1
            contains = ma != mb and ma | mb == ma
            dominated = ka != kb and key_dominated(ka, kb, guard)
            if contains and not dominated:
                forward.append({"a": a, "b": b})
            if dominated and not contains:
                reverse.append({"a": a, "b": b})
    return {
        "n": n,
        "shard": {"index": index, "count": count},
        "shape_count": len(shapes),
        "class_count_suppf": len(by_mask),
        "class_count_nc": len(by_key),
        "pairs_checked": pairs,
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


def merge_conjecture_reports(reports) -> dict:
    """Combine the k shard reports of one sweep into one.

    The reports must be shards 1..k of k, each exactly once, and together
    cover every ordered pair of distinct F-support classes; anything less is
    an incomplete sweep and cannot pass.
    """
    if not reports:
        raise InvalidArgumentError("no reports to merge")
    first = reports[0]
    for r in reports[1:]:
        for key in ("n", "shape_count", "class_count_suppf", "class_count_nc"):
            if r[key] != first[key]:
                raise InvalidArgumentError(f"reports disagree on {key}")
    k = len(reports)
    indices = sorted(r["shard"]["index"] for r in reports)
    counts = {r["shard"]["count"] for r in reports}
    if indices != list(range(1, k + 1)) or counts != {k}:
        raise InvalidArgumentError(
            f"reports must be shards 1..{k} of {k}, each once"
        )
    classes = first["class_count_suppf"]
    pairs = sum(r["pairs_checked"] for r in reports)
    if pairs != classes * (classes - 1):
        raise InvalidArgumentError(
            f"reports check {pairs} of {classes * (classes - 1)} class pairs"
        )
    def _cat(key):
        seen = []
        for r in reports:
            for item in r[key]:
                if item not in seen:
                    seen.append(item)
        return sorted(seen, key=lambda d: sorted(d.items()))
    merged = {
        "n": first["n"],
        "shard": {"index": 1, "count": 1},
        "shape_count": first["shape_count"],
        "class_count_suppf": first["class_count_suppf"],
        "class_count_nc": first["class_count_nc"],
        "pairs_checked": pairs,
        "partition_mismatches": _cat("partition_mismatches"),
        "forward_violations": _cat("forward_violations"),
        "reverse_counterexamples": _cat("reverse_counterexamples"),
    }
    merged["pass_theorem"] = all(r["pass_theorem"] for r in reports)
    merged["pass_conjecture"] = all(r["pass_conjecture"] for r in reports)
    return merged


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
    for via, image in (
        ("id", s),
        ("rotate", s.rotate()),
        ("transpose", s.transpose()),
        ("rotate+transpose", s.transpose().rotate()),
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
    matches brute-force multiplicity-freeness of the F-expansion, and that
    the published comparability rules match computed support containment on
    every ordered pair of classified shapes.  Returns the restricted
    subposet of the support poset as well.
    """
    shapes = enumerate_shapes(n)
    prints = _fingerprints(shapes, _mask_and_multfree)
    classification_mismatches = []
    free, classified = set(), []
    for s, (mask, brute) in zip(shapes, prints):
        tag = multfree_classify(s)
        if (tag is not None) != brute:
            classification_mismatches.append(
                {
                    "shape": format_shape(s),
                    "classified": tag is not None,
                    "expansion_multfree": brute,
                }
            )
        if brute:
            free.add(s)
            if tag is not None:
                classified.append((s, tag, mask))
    # the rules only speak of classified shapes; the rest are listed above
    comparability_mismatches = []
    for a, ta, ma in classified:
        for b, tb, mb in classified:
            predicted = _comparable(ta, tb, n)
            actual = ma | mb == ma
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
    free_masks = {mask for mask, brute in prints if brute}
    kept = [i for i, (mask, _) in enumerate(prints) if mask in free_masks]
    sub = _poset("suppf", n, [shapes[i] for i in kept],
                 [prints[i][0] for i in kept], lambda mi, mj: mi | mj == mi)
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
    Schur-side regression is recomputed alongside.
    """
    if factor < 1:
        raise InvalidArgumentError(f"scale factor must be >= 1, got {factor}")
    if n * factor > max_size():
        raise SizeLimitError(f"scaled size {n * factor} exceeds the limit")
    shapes = enumerate_shapes(n)
    prints = _fingerprints(shapes, partial(_mask_and_scaled, factor=factor))
    only_if, if_dir = [], []
    pairs = 0
    for a, (ma, sa) in zip(shapes, prints):
        for b, (mb, sb) in zip(shapes, prints):
            if a is b:
                continue
            pairs += 1
            before = ma | mb == ma
            after = sa | sb == sa
            if before and not after:
                only_if.append({"a": format_shape(a), "b": format_shape(b)})
            if after and not before:
                if_dir.append({"a": format_shape(a), "b": format_shape(b)})
    return {
        "n": n,
        "factor": factor,
        "pairs_checked": pairs,
        "containment_lost_after_scaling": only_if,
        "containment_gained_after_scaling": if_dir,
        "agreement": not only_if and not if_dir,
        "schur_regression": schur_saturation_regression(),
    }
