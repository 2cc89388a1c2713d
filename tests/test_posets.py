from functools import partial
from multiprocessing import get_context

import pytest

from skewsupport import posets
from skewsupport.errors import (
    InvalidArgumentError,
    InvalidShapeError,
    SizeLimitError,
    SizeMismatchError,
)
from skewsupport.overlaps import OverlapProfile, dominance_key
from skewsupport.posets import (
    ShapeClassPoset,
    _component_key,
    _fingerprints,
    build_nc,
    build_suppf,
    column_row_shape,
    hook_shape,
    merge_conjecture_reports,
    multfree_classify,
    multfree_comparable,
    multfree_report,
    saturation_check,
    schur_saturation_regression,
    verify_conjecture,
)
from skewsupport.shapes import (
    direct_sum,
    enumerate_shapes,
    format_shape,
    parse_shape,
    scale,
    straight,
)
from skewsupport.tableaux import f_support_mask, is_f_multiplicity_free


# ------------------------------------------------------------ class posets


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
    for i, j in suppf.relation:
        assert masks[i] != masks[j] and masks[i] | masks[j] == masks[i]
    nc = build_nc(4)
    profs = [OverlapProfile.of(cls[0]) for cls in nc.classes]
    for i, j in nc.relation:
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
        rel = poset.relation
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
    assert suppf.relation == nc.relation
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


def test_verify_conjecture_sharding_partitions_pairs():
    full = verify_conjecture(5)
    parts = [verify_conjecture(5, shard=(i, 3)) for i in (1, 2, 3)]
    assert sum(p["pairs_checked"] for p in parts) == full["pairs_checked"]
    merged = merge_conjecture_reports(parts)
    assert merged["pairs_checked"] == full["pairs_checked"]
    assert merged["pass_theorem"] and merged["pass_conjecture"]
    assert merged["forward_violations"] == full["forward_violations"] == []


def test_verify_conjecture_shard_validation():
    with pytest.raises(ValueError):
        verify_conjecture(3, shard=(0, 2))
    with pytest.raises(ValueError):
        verify_conjecture(3, shard=(3, 2))
    with pytest.raises(ValueError):
        merge_conjecture_reports([])
    a = verify_conjecture(3)
    b = verify_conjecture(4)
    with pytest.raises(ValueError):
        merge_conjecture_reports([a, b])
    s1, s2 = (verify_conjecture(6, shard=(i, 4)) for i in (1, 2))
    with pytest.raises(InvalidArgumentError):
        merge_conjecture_reports([s1, s1])  # duplicate shard
    with pytest.raises(InvalidArgumentError):
        merge_conjecture_reports([s1, s2])  # shards 3 and 4 missing
    short = dict(a, pairs_checked=a["pairs_checked"] - 1)
    with pytest.raises(InvalidArgumentError):
        merge_conjecture_reports([short])  # a pair left unchecked


def test_verify_conjecture_shard_counts_frozen():
    counts = [
        verify_conjecture(6, shard=(i, 4))["pairs_checked"] for i in range(1, 5)
    ]
    assert counts == [1060, 1084, 1071, 1075]


def test_verify_conjecture_parallel_fingerprints_match(monkeypatch):
    pools = []

    def counting_context(method):
        pools.append(method)
        return get_context(method)

    monkeypatch.setattr(posets, "get_context", counting_context)
    for n in (5, 6):
        serial = verify_conjecture(n, jobs=1)
        assert pools == []
        parallel = verify_conjecture(n, jobs=2)
        assert serial == parallel
    # n=5 has 34 component keys, n=6 has 87: only n=6 is enough to start
    # the pool
    assert pools == ["fork"]


def test_component_key():
    for n in range(1, 8):
        for s in enumerate_shapes(n):
            assert _component_key(s.rotate()) == _component_key(s)
    connected = [
        s for n in range(1, 7) for s in enumerate_shapes(n)
        if s.is_connected()
    ]
    for a in connected:
        for b in connected:
            if a.size + b.size <= 7:
                key = _component_key(direct_sum(a, b))
                assert _component_key(direct_sum(b, a)) == key
                assert _component_key(direct_sum(a.rotate(), b)) == key
    counts = [len({_component_key(s) for s in enumerate_shapes(n)})
              for n in range(1, 9)]
    assert counts == [1, 3, 6, 16, 34, 87, 198, 493]


@pytest.mark.parametrize("jobs", [1, 2])
def test_fingerprints_match_per_shape(jobs):
    for n in range(8):
        shapes = enumerate_shapes(n)
        prints = _fingerprints(shapes, posets._mask_and_key, jobs)
        for s, (mask, key) in zip(shapes, prints):
            assert mask == f_support_mask(s), format_shape(s)
            assert key == dominance_key(OverlapProfile.of(s), n)


@pytest.mark.parametrize("jobs", [1, 2])
def test_multfree_and_saturation_fingerprints_match_per_shape(jobs):
    for n in range(8):
        shapes = enumerate_shapes(n)
        prints = _fingerprints(shapes, posets._mask_and_multfree, jobs)
        for s, row in zip(shapes, prints):
            assert row == (f_support_mask(s), is_f_multiplicity_free(s)), (
                format_shape(s))
    # n = 6 has 87 component keys, enough to start the pool at jobs=2
    fingerprint = partial(posets._mask_and_scaled, factor=2)
    for n in range(7):
        shapes = enumerate_shapes(n)
        prints = _fingerprints(shapes, fingerprint, jobs)
        for s, row in zip(shapes, prints):
            assert row == (f_support_mask(s),
                           f_support_mask(scale(s, 2))), format_shape(s)


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


def test_saturation_factor_one_trivial():
    report = saturation_check(4, 1)
    assert report["agreement"]


def test_saturation_guards():
    with pytest.raises(ValueError):
        saturation_check(4, 0)
    with pytest.raises(SizeLimitError):
        saturation_check(8, 2)


def test_poset_dataclass_accessors():
    poset = build_suppf(3)
    assert isinstance(poset, ShapeClassPoset)
    assert len(poset.classes) == 6
    assert all(cls[0] == min(cls) for cls in poset.classes)
