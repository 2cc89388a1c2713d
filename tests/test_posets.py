import ast
import gc
import random
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache, partial

import pytest

from skewsupport import kernels, orders, posets, tableaux
from skewsupport.config import ENV_MAX_SIZE
from skewsupport.errors import (
    InvalidShapeError,
    SizeLimitError,
    SizeMismatchError,
)
from skewsupport.overlaps import (
    OverlapProfile,
    dominance_guard,
    key_dominated,
    profile_keys,
)
from skewsupport.posets import (
    ShapeClassPoset,
    build_nc,
    build_suppf,
    column_row_shape,
    hook_shape,
    multfree_classify,
    multfree_comparable,
    multfree_report,
    saturation_check,
    schur_saturation_regression,
    verify_conjecture,
)
from skewsupport.relations import verify_implications
from skewsupport import shapes as shapes_module
from skewsupport.shapes import (
    SkewShape,
    component_key,
    component_keys,
    direct_sum,
    enumerate_shapes,
    format_shape,
    key_shape,
    key_shapes,
    parse_shape,
    partitions_of,
    scale,
    straight,
)
from skewsupport.tableaux import f_support_mask, is_f_multiplicity_free


# ------------------------------------------------------------ class posets


def _pairs(poset):
    """The order as (above, below) pairs of class indices."""
    return {(i, j) for i, row in enumerate(poset.below)
            for j in range(len(poset.classes)) if row >> j & 1}


def test_class_counts_frozen():
    for n, classes in [(1, 1), (2, 3), (3, 6), (4, 15), (5, 29), (6, 66)]:
        assert len(build_suppf(n).classes) == classes
        assert len(build_nc(n).classes) == classes


def test_partitions_coincide_up_to_six():
    for n in range(1, 7):
        suppf = build_suppf(n)
        nc = build_nc(n)
        assert {frozenset(c) for c in suppf.classes} == {
            frozenset(c) for c in nc.classes
        }


def test_posets_order_by_their_statistics():
    suppf = build_suppf(4)
    masks = [f_support_mask(cls[0]) for cls in suppf.classes]
    for i, j in _pairs(suppf):
        assert masks[i] != masks[j] and masks[i] | masks[j] == masks[i]
    nc = build_nc(4)
    profs = [OverlapProfile.of(cls[0]) for cls in nc.classes]
    for i, j in _pairs(nc):
        assert profs[i] != profs[j] and profs[i].dominated_by(profs[j])


def test_rotation_stays_in_its_class():
    for n in range(1, 6):
        for poset in (build_suppf(n), build_nc(n)):
            membership = {}
            for idx, cls in enumerate(poset.classes):
                for s in cls:
                    membership[s] = idx
            for s in enumerate_shapes(n):
                assert membership[s.rotate()] == membership[s]


def test_hasse_is_transitive_reduction():
    for poset in (build_suppf(6), build_nc(6)):
        rel = _pairs(poset)
        edges = poset.hasse_edges()
        assert edges == sorted(edges)
        hasse = set(edges)
        assert hasse <= rel
        for i, j in rel - hasse:
            assert any(
                (i, k) in rel and (k, j) in rel
                for k in range(len(poset.classes))
            )
        for i, j in hasse:
            assert not any(
                (i, k) in rel and (k, j) in rel
                for k in range(len(poset.classes))
            )


def test_n6_snapshot_frozen():
    """Regression values captured from the first verified run."""
    suppf = build_suppf(6)
    nc = build_nc(6)
    assert len(suppf.classes) == 66 and len(nc.classes) == 66
    assert len(suppf.hasse_edges()) == 123
    assert len(nc.hasse_edges()) == 123
    assert suppf.below == nc.below
    assert [format_shape(cls[0]) for cls in suppf.classes[:5]] == [
        "1,1,1,1,1,1",
        "2,1,1,1,1",
        "2,1,1,1,1,1/1",
        "2,2,1,1",
        "2,2,1,1,1/1",
    ]


def test_dot_and_json_emission_stable():
    poset = build_suppf(2)
    dot = poset.to_dot()
    assert dot == (
        "digraph suppf_2 {\n"
        "  rankdir=BT;\n"
        "  node [shape=box];\n"
        '  "1,1" [label="1,1"];\n'
        '  "2" [label="2"];\n'
        '  "2,1/1" [label="2,1/1"];\n'
        '  "1,1" -> "2,1/1";\n'
        '  "2" -> "2,1/1";\n'
        "}\n"
    )
    obj = poset.to_json_obj()
    assert obj["class_count"] == 3
    assert obj["hasse_edges"] == [
        {"upper": "2,1/1", "lower": "1,1"},
        {"upper": "2,1/1", "lower": "2"},
    ]
    assert poset.to_dot() == dot  # byte-stable across calls


# ------------------------------------------------------- conjecture sweeps


def test_verify_conjecture_small():
    report = verify_conjecture(5)
    assert report["pass_theorem"] and report["pass_conjecture"]
    assert report["shape_count"] == 87
    assert report["class_count_suppf"] == report["class_count_nc"] == 29
    assert report["pairs_checked"] == 29 * 28
    assert report["partition_mismatches"] == []


def test_passing_key_sweeps_list_no_shapes(monkeypatch):
    # verify_conjecture, verify_implications and saturation_check fingerprint
    # component keys; only a failure lists the shapes, and the support-only
    # sweeps build no shape at all but the Schur regression's
    def no_listing(keyed):
        raise AssertionError(f"key_shapes called on {len(keyed)} keys")

    for module in (posets, shapes_module):
        monkeypatch.setattr(module, "key_shapes", no_listing)
    built = []
    post_init = SkewShape.__post_init__

    def counted(self):
        built.append(None)
        post_init(self)

    def shapes_built(sweep, *args):
        del built[:]
        report = sweep(*args)
        return report, len(built)

    monkeypatch.setattr(SkewShape, "__post_init__", counted)
    report, count = shapes_built(verify_conjecture, 6)
    assert report["pass_theorem"] and report["pass_conjecture"]
    assert report["shape_count"] == 272
    assert count == 0
    report = verify_implications(5)
    assert report["pass"] and report["pairs_checked"] == 8316
    _, regression = shapes_built(schur_saturation_regression)
    report, count = shapes_built(saturation_check, 4, 2)
    assert report["agreement"] and count == regression
    report, count = shapes_built(saturation_check, 5, 2)
    assert report["agreement"] and report["pairs_checked"] == 87 * 86
    assert count == regression


def test_posets_imports_nothing_from_relations():
    # the conjecture and implication sweeps are siblings: both read the
    # shared modules (shapes, tableaux, orders), neither the other
    tree = ast.parse(open(posets.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}"
                            for alias in node.names)
    assert "skewsupport" in {name.split(".")[0] for name in imported}
    assert not any(name.startswith("skewsupport.relations")
                   for name in imported), sorted(imported)


def _empty_caches():
    """Empty every package cache, so that a measurement counts what the
    measured call puts in them, whatever ran before."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "skewsupport":
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    gc.collect()


def _conjecture_oracle(n, fingerprint):
    """verify_conjecture's failure lists, from a per-shape sweep."""
    shapes = enumerate_shapes(n)
    prints = [fingerprint(s) for s in shapes]
    mismatches = []
    for side, kind in ((0, "equal_support_different_profile"),
                       (1, "equal_profile_different_support")):
        groups = {}
        for s, p in zip(shapes, prints):
            groups.setdefault(p[side], []).append((s, p[1 - side]))
        for (first, other), *rest in groups.values():
            mismatches.extend(
                {"a": format_shape(first), "b": format_shape(s), "kind": kind}
                for s, p in rest if p != other)
    reps = {}  # the least shape of each support class, with its key
    for s, (mask, key) in zip(shapes, prints):
        reps.setdefault(mask, (format_shape(s), key))
    guard = dominance_guard(n)
    forward, reverse = [], []
    for ma, (a, ka) in reps.items():
        for mb, (b, kb) in reps.items():
            contains = ma != mb and ma | mb == ma
            dominated = ka != kb and key_dominated(ka, kb, guard)
            if contains and not dominated:
                forward.append({"a": a, "b": b})
            if dominated and not contains:
                reverse.append({"a": a, "b": b})
    return mismatches, forward, reverse


def _profile_key(s):
    """s's dominance key, read from its partitions."""
    return profile_keys(s.outer, s.inner, s.size)[0]


def _pack(profile, n):
    """A profile's dominance key, shifted in one byte-wide prefix sum at a
    time."""
    w = 8
    key = 0
    for k in range(1, n + 1):
        stat = profile.row_stat(k)
        for i in range(n):
            key = key << w | sum(stat[:i + 1])
    return key


def test_verify_conjecture_failures_match_a_per_shape_sweep(monkeypatch):
    # fake fingerprints that depend only on the component key break both
    # directions and both partitions; the sweep must list what a per-shape
    # sweep finds, in the same order
    counts, flags = {}, {}
    for n in (4, 5, 6):
        full = (1 << 2 ** (n - 1)) - 1

        def complement_and_first_depth(s, n=n, full=full):
            first = OverlapProfile(OverlapProfile.of(s).rows[:1])
            return full & ~f_support_mask(s), _pack(first, n)

        def three_supports(s):
            return 1 << f_support_mask(s).bit_count() % 3, _profile_key(s)

        for fake in (complement_and_first_depth, three_supports):
            # the sweep hands its hook its keys; the fakes read one shape
            # of each
            monkeypatch.setattr(
                posets, "_masks_and_keys",
                lambda keyed, fake=fake: [fake(key_shape(key))
                                          for key, _ in keyed])
            report = verify_conjecture(n)
            mismatches, forward, reverse = _conjecture_oracle(n, fake)
            assert report["partition_mismatches"] == mismatches
            assert report["forward_violations"] == forward
            assert report["reverse_counterexamples"] == reverse
            kinds = Counter(m["kind"] for m in mismatches)
            assert report["pass_theorem"] == (
                not forward and not kinds["equal_support_different_profile"])
            assert report["pass_conjecture"] == (
                not reverse and not kinds["equal_profile_different_support"])
            name = fake.__name__
            flags[n, name] = report["pass_theorem"], report["pass_conjecture"]
            counts[n, name] = (len(forward), len(reverse), dict(kinds))
    assert flags[5, "complement_and_first_depth"] == (False, False)
    assert flags[5, "three_supports"] == (False, False)
    assert counts[5, "complement_and_first_depth"] == (
        193, 345, {"equal_profile_different_support": 75})
    assert counts[5, "three_supports"][2] == {
        "equal_support_different_profile": 82}


def test_verify_conjecture_lists_only_the_failing_classes_keys(monkeypatch):
    # one key given another key's cover splits a support class and a
    # profile class and breaks both orders; the report is what a per-shape
    # sweep finds, and only the keys of the classes it names are listed
    n = 6
    keyed = component_keys(n)
    index = {key: x for x, (key, *_) in enumerate(keyed)}
    rows = posets._masks_and_keys(keyed)
    rows[12] = (rows[45][0], rows[12][1])
    monkeypatch.setattr(posets, "_masks_and_keys", lambda keyed: rows)
    listed = set()

    def spy(part):
        listed.update(key for key, *_ in part)
        return key_shapes(part)

    for module in (posets, shapes_module):
        monkeypatch.setattr(module, "key_shapes", spy)
    report = verify_conjecture(n)

    def fingerprint(s):
        return rows[index[component_key(s)]]

    mismatches, forward, reverse = _conjecture_oracle(n, fingerprint)
    assert report["partition_mismatches"] == mismatches
    assert report["forward_violations"] == forward
    assert report["reverse_counterexamples"] == reverse
    assert forward and reverse
    assert {m["kind"] for m in mismatches} == {
        "equal_support_different_profile", "equal_profile_different_support"}
    # a support class per violating shape and per support mismatch, a
    # profile class per profile mismatch
    named = [(0, v[end]) for v in forward + reverse for end in "ab"]
    named += [(m["kind"] == "equal_profile_different_support", m["a"])
              for m in mismatches]
    failing = set()
    for side, name in named:
        print_ = fingerprint(parse_shape(name))[side]
        failing.update(key for key, *_ in keyed
                       if rows[index[key]][side] == print_)
    assert listed == failing
    assert len(listed) < len(keyed)


def test_verify_conjecture_failure_memory_is_that_of_the_sweep(monkeypatch):
    # naming a one-key failure lists the shapes of its few keys, not every
    # shape of the size, so it peaks where the passing sweep does
    def peak(n):
        _empty_caches()
        tracemalloc.start()
        try:
            report = verify_conjecture(n)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return report, top

    passing, bound = peak(9)
    assert passing["pass_theorem"] and passing["pass_conjecture"]
    masks_and_keys = posets._masks_and_keys

    def last_key_with_the_first_keys_cover(keyed):
        rows = masks_and_keys(keyed)
        rows[-1] = (rows[0][0], rows[-1][1])
        return rows

    monkeypatch.setattr(posets, "_masks_and_keys",
                        last_key_with_the_first_keys_cover)
    failing, top = peak(9)
    assert not failing["pass_theorem"] and failing["partition_mismatches"]
    assert top <= 1.25 * bound, (top, bound)


def _components(s: SkewShape) -> tuple:
    """s's connected components, each the lesser of it and its half-turn.

    Read from the boxes, independently of shapes.component_keys.
    """
    boxes, comps = set(s.boxes()), []
    while boxes:
        todo = [boxes.pop()]
        comp = set(todo)
        while todo:
            r, c = todo.pop()
            for near in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if near in boxes:
                    boxes.remove(near)
                    comp.add(near)
                    todo.append(near)
        shape = SkewShape.from_boxes(comp)
        comps.append(min(shape, shape.rotate()))
    return tuple(sorted(comps))


def _slots(n: int) -> dict:
    """Each size-n shape's slot in key_shapes(component_keys(n))."""
    return dict(zip(*key_shapes(component_keys(n))))


def test_component_key():
    # two shapes share a slot exactly when their components agree up to
    # order and half-turns
    for n in range(1, 8):
        slots = _slots(n)
        by_slot = {}
        for s, slot in slots.items():
            assert slots[s.rotate()] == slot
            by_slot.setdefault(slot, set()).add(_components(s))
        assert all(len(keys) == 1 for keys in by_slot.values())
        assert len({keys.pop() for keys in by_slot.values()}) == len(by_slot)
    connected = [
        s for n in range(1, 7) for s in enumerate_shapes(n)
        if s.is_connected()
    ]
    slots = {n: _slots(n) for n in range(2, 8)}
    for a in connected:
        for b in connected:
            if a.size + b.size <= 7:
                same = slots[a.size + b.size]
                slot = same[direct_sum(a, b)]
                assert same[direct_sum(b, a)] == slot
                assert same[direct_sum(a.rotate(), b)] == slot
    counts = [len(component_keys(n)) for n in range(1, 9)]
    assert counts == [1, 3, 6, 16, 34, 87, 198, 493]
    # shapes.component_key inverts key_shapes
    for n in range(1, 9):
        keyed = component_keys(n)
        for s, slot in zip(*key_shapes(keyed)):
            assert component_key(s) == keyed[slot][0], format_shape(s)
    assert component_key(SkewShape((), ())) == ()


def _fillings_support(s: SkewShape) -> int:
    """s's F-support mask from the descent sets of its standard fillings:
    the non-zero fields of s's own packed count, not the Schur route's."""
    return kernels.nonzero_masks(
        kernels.descent_counts(s.inner_padded, s.outer), s.size)


@lru_cache(maxsize=None)
def _straight_supports(n: int) -> tuple:
    return tuple(_fillings_support(straight(lam)) for lam in partitions_of(n))


def _cover_per_shape(s: SkewShape) -> int:
    """s's F-support cover, read from standard fillings, not from Schur.

    Bit i is set iff every descent set of the straight shape
    partitions_of(n)[i] is one of s's.
    """
    mask = _fillings_support(s)
    return sum(1 << i for i, bits in enumerate(_straight_supports(s.size))
               if bits | mask == mask)


def test_fingerprints_match_per_shape():
    for n in range(1, 8):
        prints = posets._shape_prints(n, posets._masks_and_keys)
        for s, (cover, key) in zip(*prints):
            assert cover == _cover_per_shape(s), format_shape(s)
            assert key == _pack(OverlapProfile.of(s), n)


def test_cover_containment_is_support_containment():
    # equal covers group shapes as equal support masks do, and one
    # class's cover contains another's iff its support mask does
    for n in range(1, 9):
        shapes, prints = posets._shape_prints(n, posets._masks_and_keys)
        masks = [f_support_mask(s) for s in shapes]
        classes = list(posets._classes_of([c for c, _ in prints]).values())
        assert list(posets._classes_of(masks).values()) == classes
        reps = [(prints[m[0]][0], masks[m[0]]) for m in classes]
        for ci, mi in reps:
            for cj, mj in reps:
                assert (ci | cj == ci) == (mi | mj == mi)


def _containing_per_pair(sets):
    """The reference containment rows: one subset test per pair."""
    return [sum(1 << j for j, m in enumerate(sets) if mi | m == mi and j != i)
            for i, mi in enumerate(sets)]


def _check_containing_rows(n):
    # the conjecture sweep's support class covers, and the same classes'
    # support masks
    shapes, prints = posets._shape_prints(n, posets._masks_and_keys)
    classes = posets._classes_of([cover for cover, _ in prints]).values()
    covers = [prints[m[0]][0] for m in classes]
    assert list(build_suppf(n).below) == _containing_per_pair(covers)
    assert orders.containing(covers) == _containing_per_pair(covers)
    masks = [f_support_mask(shapes[m[0]]) for m in classes]
    assert orders.containing(masks) == _containing_per_pair(masks)


def test_containing_rows_match_per_pair_tests():
    for n in range(1, 9):
        _check_containing_rows(n)


@pytest.mark.nightly
def test_nightly_containing_rows_match_per_pair_tests():
    _check_containing_rows(10)


def test_containing_rows_on_raw_sets():
    # any non-negative ints, repeats included: a copy of a set contains it
    rng = random.Random(22)
    cases = [[], [0], [0, 0, 0], [5, 0, 5, 7, 2, 1 << 70, (1 << 71) - 1]]
    cases += [[rng.getrandbits(rng.choice((3, 9, 80))) for _ in range(40)]
              for _ in range(20)]
    for sets in cases:
        assert orders.containing(sets) == _containing_per_pair(sets)


def _dominated_per_pair(keys, n):
    """The reference dominance rows: one key_dominated test per pair."""
    guard = dominance_guard(n)
    return [sum(1 << j for j, kj in enumerate(keys)
                if ki != kj and key_dominated(ki, kj, guard)) for ki in keys]


def _check_dominated_rows(n):
    # the nc classes, and the conjecture sweep's support class
    # representatives, whose keys could repeat on a partition mismatch
    _, keys = posets._shape_prints(n, posets._nc_keys)
    nc = list(dict.fromkeys(keys))
    assert list(build_nc(n).below) == _dominated_per_pair(nc, n)
    assert orders.dominated(nc, n) == _dominated_per_pair(nc, n)
    _, prints = posets._shape_prints(n, posets._masks_and_keys)
    masks, keys = zip(*prints)
    reps = [keys[m[0]] for m in posets._classes_of(masks).values()]
    assert orders.dominated(reps, n) == _dominated_per_pair(reps, n)


def test_dominated_rows_match_per_pair_tests():
    for n in range(1, 9):
        _check_dominated_rows(n)


@pytest.mark.nightly
def test_nightly_dominated_rows_match_per_pair_tests():
    _check_dominated_rows(10)


def test_dominated_rows_on_repeated_and_no_keys():
    assert orders.dominated([], 5) == []
    # repeated keys, as a partition mismatch gives: equal keys never lie
    # under each other, and each copy gets the same row
    texts = ("3,1,1/1", "3,2/1", "2,2", "4", "1,1,1,1", "3,1", "2,1,1")
    keys = [_profile_key(parse_shape(t)) for t in texts]
    keys += [keys[0], keys[2], keys[0]]
    rows = orders.dominated(keys, 4)
    assert rows == _dominated_per_pair(keys, 4)
    assert rows[0] == rows[7] == rows[9] and rows[2] == rows[8]
    assert not rows[0] >> 7 & 1 and not rows[7] >> 0 & 1
    assert rows[0] and rows[0] >> 1 & 1  # 3,2/1 dominates 3,1,1/1


def test_multfree_and_saturation_fingerprints_match_per_shape():
    for n in range(1, 8):
        prints = posets._shape_prints(n, posets._masks_and_multfree)
        for s, row in zip(*prints):
            assert row == (_cover_per_shape(s),
                           is_f_multiplicity_free(s)), format_shape(s)
    fingerprint = partial(posets._masks_and_scaled, factor=2)
    for n in range(1, 7):
        for s, row in zip(*posets._shape_prints(n, fingerprint)):
            assert row == (_cover_per_shape(s),
                           _cover_per_shape(scale(s, 2))), format_shape(s)


# ------------------------------------------------------ multiplicity-free


def test_classification_matches_brute_force_small():
    for n in range(1, 7):
        for s in enumerate_shapes(n):
            assert (multfree_classify(s) is not None) == (
                is_f_multiplicity_free(s)
            ), format_shape(s)


def test_classify_tags():
    assert multfree_classify(straight((3, 3)))["kind"] == "rect-2x3"
    assert multfree_classify(straight((4, 4)))["kind"] == "rect-2x4"
    assert multfree_classify(straight((2, 2, 2)))["via"] == "transpose"
    assert multfree_classify(straight((4, 2)))["kind"] == "two-row"
    hook = multfree_classify(straight((3, 1, 1)))
    assert hook == {"kind": "hook", "ell": 2, "via": "id"}
    cr = multfree_classify(column_row_shape(5, 2))
    assert cr == {"kind": "column-plus-row", "ell": 2, "via": "id"}
    assert multfree_classify(column_row_shape(5, 2).rotate())["via"] == "rotate"
    assert multfree_classify(parse_shape("321/11")) is None
    assert multfree_classify(parse_shape("22"))["kind"] == "two-row"
    assert multfree_classify(parse_shape("332/21")) is None
    assert multfree_classify(parse_shape("33"))["kind"] == "rect-2x3"


def test_helper_shapes():
    assert hook_shape(5, 0) == straight((5,))
    assert hook_shape(5, 4) == straight((1, 1, 1, 1, 1))
    assert column_row_shape(5, 1) == parse_shape("5,1/1")
    assert column_row_shape(5, 4) == parse_shape("2,1,1,1,1/1")
    with pytest.raises(InvalidShapeError):
        hook_shape(5, 5)
    with pytest.raises(InvalidShapeError):
        column_row_shape(5, 0)


def test_comparable_decisions():
    a = column_row_shape(5, 2)
    assert multfree_comparable(a, hook_shape(5, 2))
    assert multfree_comparable(a, hook_shape(5, 1))
    assert multfree_comparable(a, straight((3, 2)))
    assert not multfree_comparable(a, hook_shape(5, 3))
    assert not multfree_comparable(hook_shape(5, 1), hook_shape(5, 0))
    assert multfree_comparable(straight((4, 1)), parse_shape("4,4/3"))
    assert multfree_comparable(
        column_row_shape(6, 4), straight((2, 2, 1, 1))
    )
    with pytest.raises(SizeMismatchError):
        multfree_comparable(straight((4, 1)), straight((2, 2)))
    with pytest.raises(InvalidShapeError):
        multfree_comparable(parse_shape("321/11"), straight((2, 2)))


def test_comparable_matches_support_exhaustively_n6():
    shapes = [s for s in enumerate_shapes(6) if is_f_multiplicity_free(s)]
    masks = {s: f_support_mask(s) for s in shapes}
    for a in shapes:
        for b in shapes:
            predicted = multfree_comparable(a, b)
            actual = masks[a] | masks[b] == masks[a]
            assert predicted == actual, (format_shape(a), format_shape(b))


def test_multfree_subposet_n5_exact():
    report = multfree_report(5)
    assert report["pass"]
    assert report["multfree_count"] == 20
    sub = report["subposet"]
    reps = [format_shape(cls[0]) for cls in sub.classes]
    assert reps == [
        "1,1,1,1,1",
        "2,1,1,1",
        "2,1,1,1,1/1",
        "2,2,1",
        "3,1,1",
        "3,1,1,1/1",
        "3,2",
        "4,1",
        "4,1,1/1",
        "5",
        "5,1/1",
    ]
    edges = {
        (format_shape(sub.classes[j][0]), format_shape(sub.classes[i][0]))
        for i, j in sub.hasse_edges()
    }
    chain = {
        ("5", "5,1/1"),
        ("4,1", "5,1/1"),
        ("4,1", "4,1,1/1"),
        ("3,1,1", "4,1,1/1"),
        ("3,1,1", "3,1,1,1/1"),
        ("2,1,1,1", "3,1,1,1/1"),
        ("2,1,1,1", "2,1,1,1,1/1"),
        ("1,1,1,1,1", "2,1,1,1,1/1"),
    }
    extras = {("3,2", "4,1,1/1"), ("2,2,1", "3,1,1,1/1")}
    assert edges == chain | extras
    assert len(edges) == 10


def test_multfree_counts_n6():
    report = multfree_report(6)
    assert report["pass"]
    assert report["multfree_count"] == 26
    assert len(report["subposet"].classes) == 15
    assert len(report["subposet"].hasse_edges()) == 12


def _tag(tag):
    """What multfree_report reads of a classification tag."""
    if tag is None:
        return None
    return tag["kind"], tag["ell"], "transpose" in tag["via"]


def test_classification_tag_is_the_same_for_every_shape_of_a_key():
    # multfree_report classifies one shape per component key
    for n in range(1, 10):
        reps = {key: _tag(multfree_classify(key_shape(key)))
                for key, _ in component_keys(n)}
        for s in enumerate_shapes(n):
            assert _tag(multfree_classify(s)) == reps[component_key(s)], (
                format_shape(s))


def _multfree_reference(n):
    """multfree_report as a per-shape sweep: every shape listed and
    classified through its own four images."""
    shapes, prints = posets._shape_prints(n, posets._masks_and_multfree)
    classification_mismatches = []
    free, classified = set(), []
    for s, (cover, free_f) in zip(shapes, prints):
        tag = multfree_classify(s)
        if (tag is not None) != free_f:
            classification_mismatches.append(
                {"shape": format_shape(s), "classified": tag is not None,
                 "expansion_multfree": free_f})
        if free_f:
            free.add(s)
            if tag is not None:
                classified.append((s, tag, cover))
    comparability_mismatches = []
    contains = orders.containing([cover for *_, cover in classified])
    for x, ((a, ta, _), row) in enumerate(zip(classified, contains)):
        row |= 1 << x
        for y, (b, tb, _) in enumerate(classified):
            predicted = posets._comparable(ta, tb, n)
            actual = bool(row >> y & 1)
            if predicted != actual:
                comparability_mismatches.append(
                    {"a": format_shape(a), "b": format_shape(b),
                     "predicted": predicted, "computed": actual})
    free_covers = {cover for cover, free_f in prints if free_f}
    kept = [i for i, (cover, _) in enumerate(prints) if cover in free_covers]
    sub = posets._poset("suppf", n, [shapes[i] for i in kept],
                        [prints[i][0] for i in kept], orders.containing)
    impure = [format_shape(cls[0]) for cls in sub.classes
              if not all(s in free for s in cls)]
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


def _miss_two_row(match, s):
    hit = match(s)
    return None if hit and hit[0] == "two-row" else hit


def _every_two_row(match, s):
    # (n-3, 3) and (n-4, 4) are not multiplicity-free from n = 6 on
    if not s.inner and len(s.outer) == 2 and s.outer[1] >= 2:
        return ("two-row", None)
    return match(s)


@pytest.mark.parametrize("wrong, failing", [(None, 0), (_miss_two_row, 5),
                                            (_every_two_row, 3)])
def test_multfree_report_matches_a_per_shape_sweep(monkeypatch, wrong,
                                                   failing):
    # a family left out names free shapes as unclassified; a family
    # stretched names tagged keys' shapes whose cover no free key has
    if wrong:
        monkeypatch.setattr(posets, "_match_pattern",
                            partial(wrong, posets._match_pattern))
    failed = 0
    for n in range(1, 9):
        report = multfree_report(n)
        assert report == _multfree_reference(n), n
        failed += not report["pass"]
    assert failed == failing


def test_multfree_lists_only_the_named_keys(monkeypatch):
    n = 8
    built = []

    def spy(part):
        out = key_shapes(part)
        built.append(([key for key, *_ in part], out[0]))
        return out

    for module in (posets, shapes_module):
        monkeypatch.setattr(module, "key_shapes", spy)
    report = multfree_report(n)
    [(keys, listed)] = built
    # the keys of every shape the report names, and nothing else
    ref = _multfree_reference(n)
    named = {component_key(parse_shape(m["shape"]))
             for m in ref["classification_mismatches"]}
    named |= {component_key(s) for cls in ref["subposet"].classes
              for s in cls}
    assert set(keys) == named
    assert (len(keys), len(listed)) == (24, 54)
    assert report["shape_count"] == 2659


def test_multfree_tallies_each_partition_once(monkeypatch):
    # the straight support bits are the non-zero fields of one packed
    # count per partition, and f^lam is a Kostka number, so with the
    # support tables emptied the counting kernel sees each of the 42
    # partitions of 10 once, however warm syt_count is
    outers = []
    counts = kernels.descent_counts

    def spy(inner, outer):
        outers.append(outer)
        return counts(inner, outer)

    monkeypatch.setattr(kernels, "descent_counts", spy)
    tableaux._straight_support_bits.cache_clear()
    tableaux._straight_supports.cache_clear()
    assert multfree_report(10)["pass"]
    assert len(outers) == len(set(outers)) == 42


# --------------------------------------------------------------- saturation


def test_schur_saturation_regression():
    reg = schur_saturation_regression()
    assert reg["confirmed"]
    assert reg["base_containment"]
    assert reg["witness_in_scaled_b"] and not reg["witness_in_scaled_a"]
    assert not reg["scaled_containment"]
    assert reg["witness"] == "6,3,3"


def test_saturation_sweep_small():
    report = saturation_check(3, 2)
    assert report["agreement"]
    assert report["containment_lost_after_scaling"] == []
    assert report["containment_gained_after_scaling"] == []
    assert report["schur_regression"]["confirmed"]


def test_saturation_disagreements_match_a_per_shape_sweep(monkeypatch):
    # a fake scaled mask that depends only on the component key (the
    # overlap key in its place) makes containment flip both ways; the
    # key-pair sweep must list the pairs a per-shape sweep finds, in order
    def fake(s, factor):
        return f_support_mask(s), _profile_key(s)

    monkeypatch.setattr(
        posets, "_masks_and_scaled",
        lambda keyed, factor: [fake(key_shape(key), factor)
                               for key, _ in keyed])
    shapes = enumerate_shapes(5)
    lost, gained = [], []
    for a in shapes:
        for b in shapes:
            if a == b:
                continue
            (ma, sa), (mb, sb) = fake(a, 2), fake(b, 2)
            before, after = ma | mb == ma, sa | sb == sa
            pair = {"a": format_shape(a), "b": format_shape(b)}
            if before and not after:
                lost.append(pair)
            if after and not before:
                gained.append(pair)
    assert len(lost) > 1 and len(gained) > 1
    report = saturation_check(5, 2)
    assert report["containment_lost_after_scaling"] == lost
    assert report["containment_gained_after_scaling"] == gained
    assert report["pairs_checked"] == len(shapes) * (len(shapes) - 1)
    assert not report["agreement"]


def test_saturation_lists_only_the_disagreeing_keys_shapes(monkeypatch):
    # fake covers: one bit per key, so no key's contains another's, except
    # that scaling makes p's contain q's and stops r's containing t's; only
    # the shapes of p, q, r and t may be listed, and in per-shape order
    keyed = component_keys(5)
    index = {key: x for x, (key, *_) in enumerate(keyed)}
    p, q, r, t = [x for x, (*_, count) in enumerate(keyed) if count > 1][:4]

    def fake(key):
        x = index[key]
        before = 1 << x | (1 << t if x == r else 0)
        return before, 1 << x | (1 << q if x == p else 0)

    monkeypatch.setattr(
        posets, "_masks_and_scaled",
        lambda keyed, factor: [fake(key) for key, *_ in keyed])
    listed = []

    def spy(rows):
        listed.append([key for key, *_ in rows])
        return key_shapes(rows)

    monkeypatch.setattr(shapes_module, "key_shapes", spy)
    report = saturation_check(5, 2)
    lost, gained = [], []
    for a in enumerate_shapes(5):
        for b in enumerate_shapes(5):
            x, y = index[component_key(a)], index[component_key(b)]
            pair = {"a": format_shape(a), "b": format_shape(b)}
            if a != b and (x, y) == (r, t):
                lost.append(pair)
            if a != b and (x, y) == (p, q):
                gained.append(pair)
    assert report["containment_lost_after_scaling"] == lost
    assert report["containment_gained_after_scaling"] == gained
    assert lost and gained
    assert listed == [[keyed[x][0] for x in sorted((p, q, r, t))]]


def test_saturation_factor_one_trivial():
    report = saturation_check(4, 1)
    assert report["agreement"]


def test_saturation_guards():
    with pytest.raises(ValueError):
        saturation_check(4, 0)
    with pytest.raises(SizeLimitError):
        saturation_check(8, 2)


def _memory_held_after_saturation(n, factor):
    """Bytes still allocated after saturation_check(n, factor) returns.

    Every package cache is emptied first, so what the sweep leaves behind
    in them is counted, whatever ran before.
    """
    _empty_caches()
    tracemalloc.start()
    try:
        assert saturation_check(n, factor)["agreement"]
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held


def test_saturation_memory_is_bounded():
    # the caches keep per-partition tables and a bounded number of
    # shape-keyed results, not every straight-shape descent tally
    assert _memory_held_after_saturation(6, 2) < 1 << 20


@pytest.mark.nightly
def test_nightly_saturation_memory_is_bounded():
    assert _memory_held_after_saturation(7, 2) < 4 << 20


@pytest.mark.nightly
def test_nightly_saturation_n9_scale2(monkeypatch):
    monkeypatch.setenv(ENV_MAX_SIZE, "18")
    report = saturation_check(9, 2)
    assert report["agreement"]
    assert report["containment_lost_after_scaling"] == []
    assert report["containment_gained_after_scaling"] == []
    assert report["schur_regression"]["confirmed"]


def test_poset_dataclass_accessors():
    poset = build_suppf(3)
    assert isinstance(poset, ShapeClassPoset)
    assert len(poset.classes) == 6
    assert all(cls[0] == min(cls) for cls in poset.classes)
