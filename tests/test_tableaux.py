import itertools
from fractions import Fraction
from math import factorial

import pytest

from skewsupport import kernels, posets
from skewsupport import shapes as shapes_module
from skewsupport import tableaux as T
from skewsupport.config import ENV_MAX_SIZE
from skewsupport.errors import ConsistencyError, InvalidShapeError, SizeLimitError
from skewsupport.overlaps import dominance_leq
from skewsupport.shapes import (
    component_keys,
    enumerate_shapes,
    format_shape,
    key_shape,
    parse_shape,
    partitions_of,
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
        for lam in partitions_of(n):
            assert T.syt_count(lam) == _syt_count_determinant(straight(lam))


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
    # the composed route and both whole-shape references, on every shape
    for n in range(1, 7):
        for s in enumerate_shapes(n):
            lr = schur_expansion_lr(s)
            assert lr == schur_expansion_kostka(s), format_shape(s)
            assert schur_expansion(s) == lr, format_shape(s)


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
    assert partitions_of(0) == [()]
    counts = [len(partitions_of(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


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
    # an lr_tally that drops the top term; s_{3,2/1} = s_{3,1} + s_{2,2}
    s = parse_shape("3,2/1")
    good = schur_expansion(s)
    tally = kernels.lr_tally

    def drop_top(inner, outer):
        out = tally(inner, outer)
        out.pop(max(out))
        return out

    monkeypatch.setattr(kernels, "lr_tally", drop_top)
    message = (r"^Schur expansion of 3,2/1 fails the row/column frame "
               r"check: coefficients 1 at 2,2 and 0 at 3,1, where both "
               r"must be 1$")
    try:
        for cached in (schur_expansion, T._component_tally, T._lr_product):
            cached.cache_clear()  # so the corrupt kernel is reached
        for _ in range(2):
            with pytest.raises(ConsistencyError, match=message):
                schur_expansion(s)
    finally:
        T._lr_product.cache_clear()
        T._component_tally.cache_clear()
    monkeypatch.setattr(kernels, "lr_tally", tally)
    # the raise kept the bad value out of schur_expansion's cache
    assert schur_expansion(s) == good


def test_size_guard_holds_on_cache_hits(monkeypatch):
    s = parse_shape("3,1")
    rows = ((0, 3), (0, 1))  # the component 3,1 as its row intervals
    calls = ((schur_expansion, s), (f_support_mask, s), (T._f_counts, s),
             (T._component_tally, rows))
    for cached, arg in calls:
        cached(arg)
        hits = cached.cache_info().hits
        cached(arg)
        assert cached.cache_info().hits == hits + 1
    # a key is guarded by its total size, even with its components cached
    T.key_schur_expansion((((0, 1), (0, 1)), ((0, 2),)))
    monkeypatch.setenv(ENV_MAX_SIZE, "3")
    with pytest.raises(SizeLimitError):
        T.key_schur_expansion((((0, 1), (0, 1)), ((0, 2),)))
    monkeypatch.setenv(ENV_MAX_SIZE, "2")
    for cached, arg in calls:
        with pytest.raises(SizeLimitError):
            cached(arg)


def test_shape_keyed_caches_share_one_bound():
    # every shape-keyed result sits in an LRU of the same finite size
    bounds = {cached.cache_info().maxsize
              for cached in (schur_expansion, f_support_mask, T._f_counts,
                             T._component_tally)}
    assert len(bounds) == 1 and None not in bounds


def test_key_schur_expansion_matches_whole_shape_routes():
    # composed from the components, it is the Schur expansion of the key's
    # shape (key_shape) by lattice fillings and, at size <= 7, by Kostka
    for n in range(1, 10):
        for key, _ in component_keys(n):
            s = key_shape(key)
            composed = T.key_schur_expansion(key)
            assert composed == schur_expansion_lr(s), format_shape(s)
            if n <= 7:
                assert composed == schur_expansion_kostka(s), format_shape(s)


def test_key_frame_check_raises_on_corrupt_kernel(monkeypatch):
    # an lr_tally that drops the top term of the straight products, and
    # then of every tally, must be caught on every call
    key = next(key for key, *_ in component_keys(6) if len(key) == 3)
    good = T.key_schur_expansion(key)
    tally = kernels.lr_tally

    def drop_top(inner, outer):
        out = tally(inner, outer)
        out.pop(max(out))
        return out

    monkeypatch.setattr(kernels, "lr_tally", drop_top)
    try:
        T._lr_product.cache_clear()  # the components stay cached, unbroken
        for _ in range(2):
            with pytest.raises(ConsistencyError):
                T.key_schur_expansion(key)
        T._component_tally.cache_clear()
        with pytest.raises(ConsistencyError):
            T.key_schur_expansion(key)
    finally:
        T._lr_product.cache_clear()
        T._component_tally.cache_clear()
    monkeypatch.setattr(kernels, "lr_tally", tally)
    assert T.key_schur_expansion(key) == good


# ------------------------------------------------------ the support route


def _coefficient_covers(keys):
    return [T.f_support_cover(T.key_schur_expansion(key).coeffs)
            for key in keys]


def _check_support_covers(largest):
    keys = [key for n in range(1, largest + 1)
            for key, *_ in component_keys(n)]
    # one call over every size, and one call per size
    assert T.support_covers(keys) == _coefficient_covers(keys)
    for n in range(1, largest + 1):
        keys = [key for key, *_ in component_keys(n)]
        assert T.support_covers(keys) == _coefficient_covers(keys)


def test_support_covers_match_the_coefficient_route():
    _check_support_covers(9)


@pytest.mark.nightly
def test_nightly_support_covers_match_the_coefficient_route():
    _check_support_covers(11)


def _partitions_in(bits, size, tables):
    return set(T._members(bits, T._size_table(size, tables)[0]))


def test_pair_supports_are_lr_product_keys():
    # a product of two one-partition supports is the key set of
    # _lr_product in either order, and every per-pair entry the route
    # keeps is the key set of _lr_product with the larger partition on top
    tables, pairs = {}, {}
    for n in range(2, 9):
        for a in range(1, n):
            for lam in partitions_of(a):
                for mu in partitions_of(n - a):
                    bits = T._support_product(
                        1 << T._size_table(a, tables)[1][lam], a,
                        1 << T._size_table(n - a, tables)[1][mu], n - a,
                        tables, pairs)
                    got = _partitions_in(bits, n, tables)
                    assert got == set(T._lr_product(lam, mu)), (lam, mu)
                    assert got == set(T._lr_product(mu, lam)), (lam, mu)
    assert len(pairs) == sum(
        len(partitions_of(a)) * len(partitions_of(n - a))
        for n in range(2, 9) for a in range((n + 1) // 2, n))
    for (lam, mu), bits in pairs.items():
        assert sum(lam) >= sum(mu)
        size = sum(lam) + sum(mu)
        assert _partitions_in(bits, size, tables) == set(
            T._lr_product(lam, mu))


def test_component_support_up_to_transpose():
    # each component's support, whether tallied itself, tallied as its
    # transpose, or conjugated from its transpose's, is lr_tally's support
    # on the component; the frame comes back as its sorted row and column
    # lengths
    tables = {}
    for size in range(1, 9):
        for rows, _ in shapes_module._connected(size):
            inner, outer = (tuple(side) for side in zip(*rows))
            want = set(kernels.lr_tally(inner, outer))
            cols = [0] * outer[0]
            for a, b in rows:
                for c in range(a, b):
                    cols[c] += 1
            frame = (sort_desc(b - a for a, b in rows), sort_desc(cols))
            turned = T._transpose_rows(rows)
            assert T._transpose_rows(turned) in (rows, T._half_turn(rows))
            fresh = T._component_support(rows, {}, tables)
            seen = {turned: T._component_support(turned, {}, tables)}
            conjugated = T._component_support(rows, seen, tables)
            for bits, got_size, *got_frame in (fresh, conjugated):
                assert got_size == size
                assert tuple(got_frame) == frame
                assert _partitions_in(bits, size, tables) == want, rows


def _support_sweeps():
    return (lambda: posets.verify_conjecture(5),
            lambda: posets.saturation_check(3, 2),
            lambda: posets.build_suppf(5))


def test_support_route_frame_check_raises_on_corrupt_kernel(monkeypatch):
    # an lr_tally that drops its top term breaks each component's tally;
    # one that drops it on disconnected shapes only, the straight products
    # _lr_product asks for, breaks each key's composed support instead.
    # Every support sweep must raise either way, on every call
    tally = kernels.lr_tally

    def drop_top(disconnected_only):
        def dropped(inner, outer):
            out = tally(inner, outer)
            if not disconnected_only or any(
                    below <= left for left, below in zip(inner, outer[1:])):
                out.pop(max(out))
            return out
        return dropped

    component = r"^Schur expansion of \S+ fails the row/column frame check: "
    key = r"^Schur support of \S+ fails the row/column frame check: it lacks "
    try:
        for disconnected_only, message in ((False, component), (True, key)):
            T._lr_product.cache_clear()  # so the corrupt kernel is reached
            monkeypatch.setattr(kernels, "lr_tally",
                                drop_top(disconnected_only))
            for sweep in _support_sweeps():
                for _ in range(2):
                    with pytest.raises(ConsistencyError, match=message):
                        sweep()
    finally:
        T._lr_product.cache_clear()
    monkeypatch.setattr(kernels, "lr_tally", tally)
    assert posets.verify_conjecture(5)["pass_theorem"]


def test_support_route_checks_the_size_guard_on_every_key(monkeypatch):
    # each key is checked, wherever it comes in the list, and before the
    # kernel sees it
    small = [key for key, *_ in component_keys(3)]
    big = [key for key, *_ in component_keys(4)]
    monkeypatch.setenv(ENV_MAX_SIZE, "3")
    assert T.support_covers(small) == _coefficient_covers(small)
    with pytest.raises(SizeLimitError, match="4 boxes, over the size limit 3"):
        T.support_covers(small + big[:1])

    def no_kernel(inner, outer):
        raise AssertionError("the kernel ran on a key over the guard")

    monkeypatch.setattr(kernels, "lr_tally", no_kernel)
    for key in big:
        with pytest.raises(SizeLimitError):
            T.support_covers([key])
