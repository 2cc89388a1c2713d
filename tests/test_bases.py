import itertools

import pytest

from skewsupport.bases import (
    d_expansion,
    expansion_of,
    positive_support,
    positivity,
    s_expansion,
    support_contains,
)
from skewsupport.config import ENV_MAX_SIZE
from skewsupport.errors import (
    SizeLimitError,
    SizeMismatchError,
    SkewSupportError,
)
from skewsupport.shapes import (
    distinct_permutations,
    enumerate_shapes,
    parse_shape,
    straight,
)
from skewsupport.tableaux import (
    BASES,
    Expansion,
    f_expansion,
    schur_expansion,
)


def exp(basis, terms):
    return Expansion(basis, {tuple(k): v for k, v in terms.items()})


# ------------------------------------------------------------ S expansion


def test_s_expansions_frozen():
    assert s_expansion(parse_shape("311/1")) == exp(
        "s",
        {(3, 1): 1, (1, 3): 1, (2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1},
    )
    assert s_expansion(parse_shape("22")) == exp("s", {(2, 2): 1})


def test_s_expansion_spreads_over_rearrangements():
    for lam in [(3, 1), (2, 2), (2, 1, 1)]:
        e = s_expansion(straight(lam))
        perms = set(distinct_permutations(lam))
        for alpha in perms:
            assert e[alpha] >= 1


def test_distinct_permutations():
    assert list(distinct_permutations((2, 1, 1))) == [
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
    ]
    assert list(distinct_permutations(())) == [()]
    # any multiset, as for the components of a key: the lex-ordered set of
    # all its permutations
    a, b = ((0, 1),), ((0, 1), (0, 2))
    for items in [(3, 1, 3, 2, 1), (b, a, b), (a, a, a), (2, 2, 1, 1, 1, 1)]:
        assert list(distinct_permutations(items)) == sorted(
            set(itertools.permutations(items)))


# ------------------------------------------------------------ D expansion


def test_d_expansions_frozen():
    assert d_expansion(parse_shape("311/1")) == exp(
        "d", {(3, 1): 1, (2, 1, 1): 1}
    )
    assert d_expansion(parse_shape("22")) == exp("d", {(2, 2): 1, (1, 3): -1})


def _straight_d_oracle(lam):
    """Signed sum over all permutations, straight from the determinant rule."""
    k = len(lam)
    coeffs = {}
    for perm in itertools.permutations(range(k)):
        sign = 1
        for x in range(k):
            for y in range(x + 1, k):
                if perm[x] > perm[y]:
                    sign = -sign
        parts = tuple(
            lam[perm[i]] + (i + 1) - (perm[i] + 1) for i in range(k)
        )
        if any(p <= 0 for p in parts):
            continue
        coeffs[parts] = coeffs.get(parts, 0) + sign
    return {a: c for a, c in coeffs.items() if c}


def test_d_expansion_of_straight_shapes_matches_permutation_oracle():
    for n in range(1, 7):
        for lam in set(
            s.outer for s in enumerate_shapes(n) if not s.inner
        ):
            got = d_expansion(straight(lam))
            assert dict(got.items()) == _straight_d_oracle(lam)


def test_d_expansion_linear_in_schur_terms():
    s = parse_shape("321/11")
    combo = {}
    for lam, c in schur_expansion(s).items():
        for alpha, d in d_expansion(straight(lam)).items():
            combo[alpha] = combo.get(alpha, 0) + c * d
    assert Expansion("d", combo) == d_expansion(s)


# ------------------------------------------------ positivity and supports


def test_expansion_of_dispatch(monkeypatch):
    s = parse_shape("22")
    for basis in BASES:
        assert expansion_of(s, basis).basis == basis
    # every basis reads the one guard, including those built on Schur
    monkeypatch.setenv(ENV_MAX_SIZE, "20")
    for basis in BASES:
        assert expansion_of(parse_shape("15,"), basis)[(15,)] == 1
    monkeypatch.setenv(ENV_MAX_SIZE, "2")
    for basis in BASES:
        with pytest.raises(SizeLimitError):
            expansion_of(parse_shape("3,1"), basis)
    with pytest.raises(ValueError):
        expansion_of(s, "q")


def test_positivity_and_size_mismatch():
    a, b = parse_shape("311/1"), parse_shape("22")
    assert positivity(a, b, "f")
    assert not positivity(a, b, "schur")
    with pytest.raises(SizeMismatchError):
        positivity(a, parse_shape("3"), "f")
    with pytest.raises(SizeMismatchError):
        support_contains(parse_shape("2,2"), parse_shape("3"), "f")


def test_schur_positive_but_not_d_positive():
    a, b = parse_shape("32/1"), parse_shape("31")
    assert positivity(a, b, "schur")
    assert not positivity(a, b, "d")


def test_m_positive_but_not_f_positive():
    a, b = parse_shape("31/1"), parse_shape("211/1")
    assert positivity(a, b, "m")
    assert not positivity(a, b, "f")
    assert support_contains(a, b, "m")
    assert not support_contains(a, b, "f")


def test_d_support_conventions_agree_on_small_pairs():
    for n in range(1, 5):
        shapes = enumerate_shapes(n)
        for a in shapes:
            for b in shapes:
                assert support_contains(a, b, "d", "nonzero") == (
                    support_contains(a, b, "d", "positive")
                )


def test_d_support_convention_divergence_example():
    # (2,2): nonzero support {22, 13}, positive support {22}
    e = d_expansion(parse_shape("22"))
    assert set(e.support()) == {(2, 2), (1, 3)}
    assert positive_support(e) == {(2, 2)}


def test_expansion_of_rejects_unknown_basis():
    with pytest.raises(SkewSupportError, match="unknown basis 'q'"):
        expansion_of(parse_shape("21"), "q")


def test_support_contains_rejects_unknown_convention():
    a, b = parse_shape("21"), parse_shape("3")
    with pytest.raises(SkewSupportError,
                       match="unknown support convention 'all'"):
        support_contains(a, b, "d", "all")
