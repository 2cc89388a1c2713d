"""End-to-end acceptance sweep.

One test per numbered criterion; each prints a single
"[criterion N] <label>: PASS" (or FAIL) line so a log scan shows the
whole gate at a glance.  Run with `pytest tests/test_acceptance.py -v -s`.
The nightly and longrun markers extend the exhaustive sweeps to larger
sizes and are excluded by default.
"""

import functools
import json

import pytest

from skewsupport.bases import d_expansion, s_expansion
from skewsupport.config import ENV_MAX_SIZE
from skewsupport.overlaps import (
    OverlapProfile,
    dominance_leq,
    overlap_cols,
    overlap_rows,
    rects,
)
from skewsupport.posets import (
    multfree_report,
    schur_saturation_regression,
    verify_conjecture,
)
from skewsupport.relations import verify_implications
from skewsupport.shapes import (
    enumerate_shapes,
    format_shape,
    parse_shape,
    ribbon_stats,
    scale,
    sort_desc,
    transpose_partition,
)
from skewsupport.tableaux import (
    extreme_filling_antidominant,
    extreme_filling_dominant,
    f_expansion,
    f_support,
    m_expansion,
    schur_expansion,
    schur_expansion_kostka,
    schur_expansion_lr,
    schur_support,
)


def criterion(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num}] {label}: FAIL")
                raise
            print(f"\n[criterion {num}] {label}: PASS")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def conjecture_reports():
    return {n: verify_conjecture(n) for n in range(1, 9)}


@pytest.fixture(scope="module")
def multfree_reports():
    return {n: multfree_report(n) for n in range(1, 9)}


@criterion(1, "golden expansions")
def test_criterion_01():
    a1 = parse_shape("311/1")
    a2 = parse_shape("321/11")
    a3 = parse_shape("22")
    assert dict(schur_expansion(a1).items()) == {(3, 1): 1, (2, 1, 1): 1}
    assert dict(schur_expansion(a2).items()) == {
        (3, 1): 1, (2, 2): 1, (2, 1, 1): 1,
    }
    assert dict(schur_expansion(a3).items()) == {(2, 2): 1}
    assert dict(f_expansion(a1).items()) == {
        (3, 1): 1, (1, 3): 1, (2, 2): 1,
        (2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1,
    }
    assert dict(f_expansion(a2).items()) == {
        (3, 1): 1, (1, 3): 1, (2, 2): 2,
        (2, 1, 1): 1, (1, 2, 1): 2, (1, 1, 2): 1,
    }
    assert dict(f_expansion(a3).items()) == {(2, 2): 1, (1, 2, 1): 1}
    assert dict(m_expansion(a1).items()) == {
        (3, 1): 1, (1, 3): 1, (2, 2): 1, (2, 1, 1): 3,
        (1, 2, 1): 3, (1, 1, 2): 3, (1, 1, 1, 1): 6,
    }
    assert dict(m_expansion(a3).items()) == {
        (2, 2): 1, (2, 1, 1): 1, (1, 2, 1): 1,
        (1, 1, 2): 1, (1, 1, 1, 1): 2,
    }
    assert dict(s_expansion(a1).items()) == {
        (3, 1): 1, (1, 3): 1, (2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1,
    }
    assert dict(s_expansion(a3).items()) == {(2, 2): 1}
    assert dict(d_expansion(a1).items()) == {(3, 1): 1, (2, 1, 1): 1}
    assert dict(d_expansion(a3).items()) == {(2, 2): 1, (1, 3): -1}


@criterion(2, "overlap profile of 553111/31")
def test_criterion_02():
    s = parse_shape("553111/31")
    expected_rows = [(4, 3, 2, 1, 1, 1), (2, 2, 1, 1, 1), (1, 1), (1,)]
    expected_cols = [(4, 2, 2, 2, 2), (2, 2, 1, 1), (1, 1, 1), (1,)]
    for k, part in enumerate(expected_rows, start=1):
        assert overlap_rows(s, k) == part
    for k, part in enumerate(expected_cols, start=1):
        assert overlap_cols(s, k) == part
    assert overlap_rows(s, 5) == ()
    assert overlap_cols(s, 5) == ()
    assert OverlapProfile.of(s).rows == tuple(expected_rows)
    assert OverlapProfile.of(s.transpose()).rows == tuple(expected_cols)


@criterion(3, "extreme fillings of 775333/64111")
def test_criterion_03():
    a = parse_shape("775333/64111")
    dom = extreme_filling_dominant(a).descent_composition()
    anti = extreme_filling_antidominant(a).descent_composition()
    assert dom == (7, 4, 2, 2)
    assert anti == (1, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 2)
    colst = transpose_partition(sort_desc(a.col_lengths()))
    rowst = transpose_partition(sort_desc(a.row_lengths()))
    assert dom == colst
    assert ribbon_stats(anti)[1] == rowst
    assert rowst == (6, 5, 3, 1)


@criterion(4, "forward sweep: containment implies dominance, n <= 8")
def test_criterion_04(conjecture_reports):
    for n in range(1, 9):
        report = conjecture_reports[n]
        assert report["forward_violations"] == []
        assert [
            m
            for m in report["partition_mismatches"]
            if m["kind"] == "equal_support_different_profile"
        ] == []
        assert report["pass_theorem"] is True


@criterion(5, "conjectured isomorphism holds for n <= 8")
def test_criterion_05(conjecture_reports):
    for n in range(1, 9):
        report = conjecture_reports[n]
        assert report["reverse_counterexamples"] == []
        assert report["partition_mismatches"] == []
        assert report["pass_conjecture"] is True
        assert report["class_count_suppf"] == report["class_count_nc"]
    counts = [conjecture_reports[n]["class_count_suppf"] for n in range(1, 7)]
    assert counts == [1, 3, 6, 15, 29, 66]


@criterion(6, "implication diagram complete with all four witnesses, n <= 6")
def test_criterion_06(capsys):
    from skewsupport.cli import main

    code = main(["verify", "figure6", "--n", "6"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["violations"] == []
    assert report["all_witnesses_found"] is True
    assert set(report["witnesses_confirmed"]) == {
        "3 vs 1,1,1",
        "3,1,1/1 vs 3,2/1",
        "3,1,1/1 vs 2,2",
        "4,2,1/2 vs 4,3,1/2,1",
    }
    assert all(report["witnesses_confirmed"].values())
    assert report["pass"] is True


@criterion(7, "multiplicity-free classification and comparabilities, n <= 8")
def test_criterion_07(multfree_reports):
    for n in range(1, 9):
        report = multfree_reports[n]
        assert report["classification_mismatches"] == []
        assert report["comparability_mismatches"] == []
        assert report["pass"] is True
    sub = multfree_reports[5]["subposet"]
    reps = [format_shape(cls[0]) for cls in sub.classes]
    assert len(reps) == 11
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


@criterion(8, "saturation regression on the Schur side")
def test_criterion_08():
    report = schur_saturation_regression()
    assert report["confirmed"] is True
    a = parse_shape("4,3,1,1/2,1")
    b = parse_shape("4,4,2,1/3,1,1")
    assert schur_support(a) >= schur_support(b)
    sa2 = schur_expansion_lr(scale(a, 2)).support()
    sb2 = schur_expansion_lr(scale(b, 2)).support()
    assert scale(a, 2) == parse_shape("8,6,2,2/4,2")
    assert scale(b, 2) == parse_shape("8,8,4,2/6,2,2")
    assert scale(a, 2).size == scale(b, 2).size == 12
    assert (6, 3, 3) in sb2 and (6, 3, 3) not in sa2
    assert not sa2 >= sb2


@criterion(9, "oracle suites: dual Schur routes, rects, support bounds")
def test_criterion_09():
    for n in range(1, 8):
        for s in enumerate_shapes(n):
            assert schur_expansion_lr(s) == schur_expansion_kostka(s)
    for n in range(1, 9):
        for s in enumerate_shapes(n):
            boxes = set(s.boxes())
            for k in range(1, s.n_rows + 2):
                for l in range(1, s.n_cols + 2):
                    direct = sum(
                        1
                        for i in range(s.n_rows)
                        for j in range(s.n_cols)
                        if all(
                            (i + di, j + dj) in boxes
                            for di in range(k)
                            for dj in range(l)
                        )
                    )
                    assert rects(s, k, l) == direct
    for n in range(1, 8):
        for s in enumerate_shapes(n):
            rows = sort_desc(s.row_lengths())
            colst = transpose_partition(sort_desc(s.col_lengths()))
            rowst = transpose_partition(rows)
            for lam in schur_support(s):
                assert dominance_leq(rows, lam)
                assert dominance_leq(lam, colst)
            supp = f_support(s)
            for alpha in supp:
                arows, acols = ribbon_stats(alpha)
                assert dominance_leq(arows, colst)
                assert dominance_leq(acols, rowst)
            dom = extreme_filling_dominant(s).descent_composition()
            anti = extreme_filling_antidominant(s).descent_composition()
            assert dom in supp and anti in supp
            assert sort_desc(dom) == colst
            assert ribbon_stats(anti)[1] == rowst


@criterion(10, "elongated ribbons with equal F-support")
def test_criterion_10():
    a = parse_shape("632/21")
    b = parse_shape("652/41")
    assert f_support(a) == f_support(b)
    sa, sb = schur_support(a), schur_support(b)
    assert not sa >= sb
    assert sb > sa
    assert sb - sa == {(4, 4)}
    diff = dict(f_expansion(a).items())
    for alpha, coeff in f_expansion(b).items():
        diff[alpha] = diff.get(alpha, 0) - coeff
    assert any(c < 0 for c in diff.values())
    reverse = {alpha: -c for alpha, c in diff.items() if c != 0}
    assert all(c > 0 for c in reverse.values())


@pytest.mark.nightly
@pytest.mark.parametrize("n", [9, 10])
def test_nightly_sweep(n):
    report = verify_conjecture(n)
    assert report["pass_theorem"] is True
    assert report["pass_conjecture"] is True
    assert report["shape_count"] == len(enumerate_shapes(n))


@pytest.mark.nightly
@pytest.mark.parametrize("n, pairs", [(8, 7_871_300), (9, 77_052_106)])
def test_nightly_figure6_sweep(n, pairs):
    # sizes 1-9 compare 1,651,164 ordered pairs of component keys
    report = verify_implications(n)
    assert report["pass"] is True
    assert report["pairs_checked"] == pairs


@pytest.mark.longrun
def test_longrun_figure6_sweep(capsys):
    # size 10 alone pairs 2,873 component keys: 8,251,256 ordered key pairs
    from skewsupport.cli import main

    code = main(["verify", "figure6", "--n", "10"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True and report["all_witnesses_found"] is True
    assert report["violations"] == []
    assert report["pairs_checked"] == 754_326_706


@pytest.mark.longrun
@pytest.mark.parametrize("n, classes", [(11, 1916), (12, 3695), (13, 6872),
                                        (14, 12905), (15, 23695)])
def test_longrun_sweep(n, classes, monkeypatch):
    # size 15 is over the default size guard of 14
    monkeypatch.setenv(ENV_MAX_SIZE, "15")
    report = verify_conjecture(n)
    assert report["pass_theorem"] is True
    assert report["pass_conjecture"] is True
    assert report["class_count_suppf"] == classes
    assert report["pairs_checked"] == classes * (classes - 1)


@pytest.mark.longrun
@pytest.mark.parametrize("n, shapes, free", [(13, 797_175, 52),
                                             (14, 2_494_307, 56)])
def test_longrun_multfree(n, shapes, free):
    # one classification and one Schur expansion per component key
    report = multfree_report(n)
    assert report["pass"] is True
    assert report["shape_count"] == shapes
    assert report["multfree_count"] == free
