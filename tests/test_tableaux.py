import itertools
from fractions import Fraction
from math import factorial

import pytest

from skewsupport.errors import ConsistencyError, InvalidShapeError
from skewsupport.overlaps import dominance_leq
from skewsupport.shapes import (
    enumerate_shapes,
    parse_shape,
    ribbon_stats,
    sort_desc,
    straight,
    transpose_partition,
)
from skewsupport.tableaux import (
    Expansion,
    StandardTableau,
    enumerate_syt,
    extreme_filling_antidominant,
    extreme_filling_dominant,
    f_expansion,
    f_expansion_via_schur,
    f_support,
    f_support_from_mask,
    f_support_mask,
    is_f_multiplicity_free,
    kostka_number,
    m_expansion,
    partitions_of,
    schur_expansion,
    schur_expansion_kostka,
    schur_expansion_lr,
    schur_support,
)


def exp(basis, terms):
    return Expansion(basis, {tuple(k): v for k, v in terms.items()})


# ----------------------------------------------------- golden expansions


def test_schur_expansions_frozen():
    assert schur_expansion(parse_shape("311/1")) == exp(
        "schur", {(3, 1): 1, (2, 1, 1): 1}
    )
    assert schur_expansion(parse_shape("321/11")) == exp(
        "schur", {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    )
    assert schur_expansion(parse_shape("22")) == exp("schur", {(2, 2): 1})


def test_f_expansions_frozen():
    assert f_expansion(parse_shape("311/1")) == exp(
        "f",
        {
            (3, 1): 1,
            (1, 3): 1,
            (2, 2): 1,
            (2, 1, 1): 1,
            (1, 2, 1): 1,
            (1, 1, 2): 1,
        },
    )
    assert f_expansion(parse_shape("321/11")) == exp(
        "f",
        {
            (3, 1): 1,
            (1, 3): 1,
            (2, 2): 2,
            (2, 1, 1): 1,
            (1, 2, 1): 2,
            (1, 1, 2): 1,
        },
    )
    assert f_expansion(parse_shape("22")) == exp(
        "f", {(2, 2): 1, (1, 2, 1): 1}
    )


def test_m_expansions_frozen():
    assert m_expansion(parse_shape("311/1")) == exp(
        "m",
        {
            (3, 1): 1,
            (1, 3): 1,
            (2, 2): 1,
            (2, 1, 1): 3,
            (1, 2, 1): 3,
            (1, 1, 2): 3,
            (1, 1, 1, 1): 6,
        },
    )
    assert m_expansion(parse_shape("22")) == exp(
        "m",
        {
            (2, 2): 1,
            (2, 1, 1): 1,
            (1, 2, 1): 1,
            (1, 1, 2): 1,
            (1, 1, 1, 1): 2,
        },
    )


# ------------------------------------------------------------- tableaux


def _syt_count_determinant(shape) -> int:
    """Independent oracle: n! times the determinant of 1/(lam_i - mu_j - i + j)!."""
    lam = shape.outer
    mu = shape.inner_padded
    k = len(lam)
    n = shape.size

    def entry(i, j):
        arg = lam[i] - mu[j] - i + j
        return Fraction(1, factorial(arg)) if arg >= 0 else Fraction(0)

    det = Fraction(0)
    for perm in itertools.permutations(range(k)):
        sign = 1
        for x in range(k):
            for y in range(x + 1, k):
                if perm[x] > perm[y]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(k):
            term *= entry(i, perm[i])
        det += term
    value = det * factorial(n)
    assert value.denominator == 1
    return int(value)


def test_syt_counts_match_determinant_formula():
    for n in range(1, 7):
        for s in enumerate_shapes(n):
            assert len(list(enumerate_syt(s))) == _syt_count_determinant(s)


def test_syt_are_valid_and_distinct():
    s = parse_shape("321/11")
    tabs = list(enumerate_syt(s))
    assert len(tabs) == len(set(tabs))
    for t in tabs:
        assert t.shape == s
        assert sorted(x for row in t.rows for x in row) == list(
            range(1, s.size + 1)
        )


def test_standard_tableau_validation():
    s = parse_shape("22")
    t = StandardTableau(s, ((1, 3), (2, 4)))
    assert t.descent_set() == {1, 3}
    assert t.descent_composition() == (1, 2, 1)
    with pytest.raises(InvalidShapeError):
        StandardTableau(s, ((3, 1), (2, 4)))  # row not increasing
    with pytest.raises(InvalidShapeError):
        StandardTableau(s, ((1, 2), (4, 3)))
    with pytest.raises(InvalidShapeError):
        StandardTableau(s, ((2, 1), (3, 4)))
    with pytest.raises(InvalidShapeError):
        StandardTableau(s, ((1, 2), (3,)))  # wrong row length
    with pytest.raises(InvalidShapeError):
        StandardTableau(s, ((1, 2), (3, 5)))  # not 1..n


def test_f_expansion_matches_explicit_tableau_walk():
    for n in range(1, 7):
        for s in enumerate_shapes(n):
            coeffs = {}
            for t in enumerate_syt(s):
                alpha = t.descent_composition()
                coeffs[alpha] = coeffs.get(alpha, 0) + 1
            assert f_expansion(s) == Expansion("f", coeffs)


# -------------------------------------------------------------- m route


def test_m_expansion_matches_direct_coarsening_sum():
    from skewsupport.shapes import comp_to_mask, mask_to_comp

    for n in range(1, 6):
        for s in enumerate_shapes(n):
            fexp = f_expansion(s)
            direct = {}
            for beta_mask in range(1 << (n - 1)):
                total = 0
                for alpha, c in fexp.items():
                    if comp_to_mask(alpha) | beta_mask == beta_mask:
                        total += c
                if total:
                    direct[mask_to_comp(beta_mask, n)] = total
            assert m_expansion(s) == Expansion("m", direct)


# ----------------------------------------------------------- schur routes


def test_schur_routes_agree():
    for n in range(1, 7):
        for s in enumerate_shapes(n):
            assert schur_expansion_lr(s) == schur_expansion_kostka(s)


def test_schur_expansion_endpoints(small_shapes):
    for s in small_shapes:
        e = schur_expansion(s)
        rows = sort_desc(s.row_lengths())
        colst = transpose_partition(sort_desc(s.col_lengths()))
        assert e[rows] == 1
        assert e[colst] == 1


def test_kostka_numbers_frozen():
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((3,), (1, 1, 1)) == 1
    assert kostka_number((2, 2), (2, 1, 1)) == 1
    assert kostka_number((2, 2), (1, 1, 1, 1)) == 2
    assert kostka_number((3, 2, 1), (1, 1, 1, 1, 1, 1)) == 16
    assert kostka_number((2, 2), (3, 1)) == 0
    assert kostka_number((3, 1), (2, 2)) == 1


def test_partitions_of_order():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_schur_support_transpose_symmetry(small_shapes):
    for s in small_shapes:
        assert schur_support(s.transpose()) == {
            transpose_partition(lam) for lam in schur_support(s)
        }
        assert schur_expansion(s.rotate()) == schur_expansion(s)


# ---------------------------------------------------------- fast F route


def test_f_route_via_schur_agrees():
    for n in range(1, 7):
        for s in enumerate_shapes(n):
            assert f_expansion_via_schur(s) == f_expansion(s)
            assert f_support_from_mask(f_support_mask(s), n) == f_support(s)


def test_multiplicity_freeness_matches_expansion(small_shapes):
    for s in small_shapes:
        coeff_free = all(c == 1 for _, c in f_expansion(s).items())
        assert is_f_multiplicity_free(s) == coeff_free


# -------------------------------------------------------- extreme fillings


def test_extreme_fillings_frozen_example():
    a = parse_shape("775333/64111")
    dom = extreme_filling_dominant(a)
    anti = extreme_filling_antidominant(a)
    assert dom.descent_composition() == (7, 4, 2, 2)
    assert anti.descent_composition() == (1, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 2)
    colst = transpose_partition(sort_desc(a.col_lengths()))
    rowst = transpose_partition(sort_desc(a.row_lengths()))
    assert dom.descent_composition() == colst
    assert ribbon_stats(anti.descent_composition())[1] == rowst
    assert rowst == (6, 5, 3, 1)


def test_extreme_fillings_attain_prop_bounds(small_shapes):
    for s in small_shapes:
        colst = transpose_partition(sort_desc(s.col_lengths()))
        rowst = transpose_partition(sort_desc(s.row_lengths()))
        dom = extreme_filling_dominant(s).descent_composition()
        anti = extreme_filling_antidominant(s).descent_composition()
        assert sort_desc(dom) == colst
        assert ribbon_stats(anti)[1] == rowst
        supp = f_support(s)
        assert dom in supp and anti in supp


def test_support_bounds_and_sharpness():
    for n in range(1, 7):
        for s in enumerate_shapes(n):
            rows = sort_desc(s.row_lengths())
            colst = transpose_partition(sort_desc(s.col_lengths()))
            rowst = transpose_partition(rows)
            for lam in schur_support(s):
                assert dominance_leq(rows, lam)
                assert dominance_leq(lam, colst)
            for alpha in f_support(s):
                arows, acols = ribbon_stats(alpha)
                assert dominance_leq(arows, colst)
                assert dominance_leq(acols, rowst)


# --------------------------------------------------- structural identities


def test_column_plus_row_pieri_identity():
    from skewsupport.posets import column_row_shape, hook_shape

    for n in range(2, 9):
        for ell in range(1, n):
            lhs = schur_expansion(column_row_shape(n, ell))
            expected = {hook_shape(n, ell).outer: 1}
            if ell >= 1:
                expected[hook_shape(n, ell - 1).outer] = 1
            assert dict(lhs.items()) == expected


def test_hook_f_expansion_is_all_compositions_of_fixed_length():
    from skewsupport.posets import hook_shape

    for n in range(1, 8):
        for ell in range(0, n):
            supp = f_support(hook_shape(n, ell))
            assert supp == {
                alpha
                for alpha in _compositions(n)
                if len(alpha) == ell + 1
            }
            assert is_f_multiplicity_free(hook_shape(n, ell))


def _compositions(n):
    from skewsupport.shapes import mask_to_comp

    return {mask_to_comp(mask, n) for mask in range(1 << (n - 1))}


def test_column_row_minus_two_row_difference():
    from skewsupport.posets import column_row_shape

    for n in range(4, 8):
        diff = Expansion(
            "f", f_expansion(column_row_shape(n, 2)).minus(
                f_expansion(straight((n - 2, 2)))
            )
        )
        expected = {(1, n - 1): 1, (n - 1, 1): 1}
        for j in range(2, n):
            key = (j - 1, 1, n - j)
            expected[key] = expected.get(key, 0) + 1
        assert dict(diff.items()) == expected


# ------------------------------------------------------- expansion class


def test_expansion_drops_zeros_and_validates():
    e = Expansion("schur", {(2, 1): 1, (3,): 0})
    assert len(e) == 1 and e[(3,)] == 0
    with pytest.raises(ValueError):
        Expansion("schur", {(2, 1): 1, (2,): 1})  # mixed degrees
    with pytest.raises(ValueError):
        Expansion("bogus", {(2, 1): 1})
    assert Expansion("f", {}).support() == frozenset()


def test_expansion_json_ordering():
    e = Expansion("f", {(2, 2): 2, (1, 3): 1, (3, 1): 1, (1, 1, 2): 1})
    assert list(e.to_json_obj()) == ["1,1,2", "1,3", "2,2", "3,1"]


def test_schur_frame_check_raises_on_corrupt_route(monkeypatch):
    import skewsupport.tableaux as T

    broken = Expansion("schur", {(4,): 1})
    monkeypatch.setattr(T, "schur_expansion_lr", lambda s: broken)
    # empty the cache so the corrupt route is actually exercised;
    # the raise keeps the bad value out of it afterwards
    T.schur_expansion.cache_clear()
    with pytest.raises(ConsistencyError):
        T.schur_expansion(parse_shape("2,1,1"))
