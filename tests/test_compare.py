from collections import Counter
from itertools import permutations

import pytest

from skewsupport import bases, kernels, posets, relations, tableaux
from skewsupport.config import ENV_MAX_SIZE
from skewsupport.errors import SizeLimitError, SizeMismatchError
from skewsupport.overlaps import dominance_leq
from skewsupport.relations import (
    WITNESSES,
    check_implications,
    compare,
    record,
    relate,
    verify_implications,
)
from skewsupport.shapes import (
    component_keys,
    enumerate_shapes,
    format_shape,
    key_shape,
    key_shapes,
    mask_to_comp,
    parse_shape,
    partitions_of,
    sort_desc,
    transpose_partition,
)
from skewsupport.tableaux import BASES


def test_relation_matrix_shape_and_json():
    m = relate(parse_shape("311/1"), parse_shape("22"))
    obj = m.to_json_obj()
    assert obj["a"] == "3,1,1/1" and obj["b"] == "2,2"
    assert set(obj["positive"]) == {"schur", "f", "m", "s", "d"}
    assert set(obj["support_contains"]) == {
        "schur", "f", "m", "s", "d", "d_positive",
    }
    assert set(obj["overlap_dominated"]) == {"rows", "cols", "rects"}
    assert obj["violations"] == []


def test_relate_agrees_with_pairwise_bases_queries():
    # relate() fetches each expansion once; its answers must be those of the
    # one-basis-at-a-time queries in bases, and positivity that of the
    # coefficientwise difference
    for n in range(1, 6):
        shapes = enumerate_shapes(n)
        for a in shapes:
            for b in shapes:
                m = relate(a, b)
                for basis in BASES:
                    assert m.positive[basis] == bases.positivity(a, b, basis)
                    diff = bases.expansion_of(a, basis).minus(
                        bases.expansion_of(b, basis))
                    assert m.positive[basis] == all(
                        v > 0 for v in diff.values())
                    assert m.contains[basis] == bases.support_contains(
                        a, b, basis)
                assert m.contains["d_positive"] == bases.support_contains(
                    a, b, "d", "positive")


def test_cli_contract_example_pair():
    # F-positive yet no Schur-support containment
    m = relate(parse_shape("311/1"), parse_shape("22"))
    assert m.get("positive:f")
    assert not m.get("contains:schur")


def test_published_witnesses():
    expectations = {
        ("3", "1,1,1"): ("positive:m", "dominated:rows"),
        ("3,1,1/1", "3,2/1"): ("dominated:rows", "positive:m"),
        ("3,1,1/1", "2,2"): ("positive:f", "contains:schur"),
        ("4,2,1/2", "4,3,1/2,1"): ("contains:schur", "positive:m"),
    }
    assert {
        (a, b): (h, f) for a, b, h, f in WITNESSES
    } == expectations
    for (a_str, b_str), (holds, fails) in expectations.items():
        m = relate(parse_shape(a_str), parse_shape(b_str))
        assert m.get(holds), (a_str, b_str, holds)
        assert not m.get(fails), (a_str, b_str, fails)
        assert check_implications(m) == []


def test_witness_sizes():
    sizes = [parse_shape(a).size for a, _, _, _ in WITNESSES]
    assert sizes == [3, 4, 4, 5]
    for a, b, _, _ in WITNESSES:
        assert parse_shape(a).size == parse_shape(b).size


def test_fourth_witness_details():
    # support containment in the Schur basis without M-positivity,
    # via s_421/2 - s_431/21 = -s_32
    a, b = parse_shape("4,2,1/2"), parse_shape("4,3,1/2,1")
    from skewsupport.tableaux import schur_expansion, schur_support

    assert schur_support(a) >= schur_support(b)
    diff = schur_expansion(a).minus(schur_expansion(b))
    assert diff == {(3, 2): -1}


def test_implication_equivalences_hold_exhaustively():
    for n in range(1, 5):
        shapes = enumerate_shapes(n)
        for a in shapes:
            for b in shapes:
                if a == b:
                    continue
                m = relate(a, b)
                assert check_implications(m) == []
                assert m.get("contains:schur") == m.get("contains:s")
                assert m.get("contains:s") == m.get("contains:d")
                assert m.get("contains:d") == m.get("contains:d_positive")
                assert m.get("positive:schur") == m.get("positive:s")
                assert m.get("dominated:rows") == m.get("dominated:cols")
                assert m.get("dominated:rows") == m.get("dominated:rects")


def test_relate_requires_equal_sizes():
    with pytest.raises(SizeMismatchError):
        relate(parse_shape("22"), parse_shape("21"))


def test_relate_cache_is_bounded_and_guarded(monkeypatch):
    cached = relations._relate_record
    assert cached.cache_info().maxsize == 128
    a, b = parse_shape("3,1"), parse_shape("2,1,1")
    m = relate(a, b)
    hits = cached.cache_info().hits
    assert relate(a, b) == m == compare(record(a), record(b))
    assert cached.cache_info().hits == hits + 2
    # a hit must not get round a lowered size guard
    monkeypatch.setenv(ENV_MAX_SIZE, "3")
    with pytest.raises(SizeLimitError):
        relate(a, b)
    assert cached.cache_info().hits == hits + 2


def test_sweeps_leave_the_relate_cache_alone():
    before = relations._relate_record.cache_info()
    assert verify_implications(5)["pass"]
    report = posets.verify_conjecture(6)
    assert report["pass_theorem"] and report["pass_conjecture"]
    assert relations._relate_record.cache_info() == before


def test_verify_implications_small():
    report = verify_implications(4)
    assert report["pass"]
    assert report["violations"] == []
    assert report["pairs_checked"] == sum(
        len(enumerate_shapes(n)) * (len(enumerate_shapes(n)) - 1)
        for n in range(1, 5)
    )
    confirmed = report["witnesses_confirmed"]
    assert confirmed["3 vs 1,1,1"] is True
    assert confirmed["3,1,1/1 vs 3,2/1"] is True
    assert confirmed["3,1,1/1 vs 2,2"] is True
    assert "4,2,1/2 vs 4,3,1/2,1" not in confirmed  # size 5 out of range
    report = verify_implications(5)
    assert report["pass"]
    assert report["pairs_checked"] == 8316


def test_verify_implications_checks_size_first(monkeypatch):
    # a size over the guard fails before any smaller size is swept
    recorded = []
    monkeypatch.setattr(relations, "_record",
                        lambda *args: recorded.append(args))
    monkeypatch.setenv(ENV_MAX_SIZE, "3")
    with pytest.raises(SizeLimitError, match="n=4 exceeds the size limit 3"):
        verify_implications(4)
    assert recorded == []


def test_records_depend_only_on_the_component_key():
    # verify_implications compares one record per component key, so every
    # field compare() reads must be the same for all shapes with that key
    for n in range(1, 7):
        keyed = component_keys(n)
        refs = [record(key_shape(key)) for key, _ in keyed]
        for s, slot in zip(*key_shapes(keyed)):
            r, ref = record(s), refs[slot]
            assert r.coeffs == ref.coeffs, format_shape(s)
            assert r.supports == ref.supports, format_shape(s)
            assert r.keys == ref.keys, format_shape(s)


def _fields(packed: int, fields: int, width: int, bias: int = 0) -> list:
    raw = packed.to_bytes(fields * width, "little")
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") - bias
            for i in range(fields)]


def _guarded(mask: int, fields: int, width: int) -> set:
    top = 1 << (8 * width - 1)
    values = _fields(mask, fields, width)
    assert all(v in (0, top) for v in values)  # guard bits only
    return {i for i, v in enumerate(values) if v}


@pytest.mark.parametrize("shapes", [
    lambda: [s for n in range(1, 7) for s in enumerate_shapes(n)],
    # M at 1^8 is 8!, the number of standard fillings: the widest field
    lambda: [parse_shape("8,7,6,5,4,3,2,1/7,6,5,4,3,2,1")],
    # one shape per component key: a record depends only on its key
    lambda: [key_shape(key) for n in (7, 8) for key, _ in component_keys(n)],
], ids=["sizes 1-6", "8-box antichain", "keys of sizes 7-8"])
def test_packed_records_decode_to_the_expansions(shapes):
    # every packed field decodes to the dict route's coefficient and stays
    # below its guard bit, and every support mask to the dict support
    for s in shapes():
        n = s.size
        lay = relations.layout(n)
        index = [partitions_of(n)] + [
            [mask_to_comp(m, n) for m in range(lay.fields[1])]] * 4
        r = record(s)
        for basis, packed, width, fields, keys, guard, support in zip(
                BASES, r.coeffs, lay.width, lay.fields, index, lay.guards,
                r.supports):
            bias = 1 << (8 * width - 2) if basis == "d" else 0
            values = _fields(packed, fields, width, bias)
            assert all(0 <= v + bias < 1 << (8 * width - 1) for v in values)
            exp = bases.expansion_of(s, basis)
            decoded = {keys[i]: v for i, v in enumerate(values) if v}
            assert decoded == exp.coeffs, (format_shape(s), basis)
            assert guard == sum(1 << 8 * width * (i + 1) - 1
                                for i in range(fields))
            assert {keys[i] for i in _guarded(support, fields, width)} == (
                exp.support()), (format_shape(s), basis)
        d = bases.expansion_of(s, "d")
        positive = _guarded(r.supports[5], lay.fields[4], lay.width[4])
        assert {index[4][i] for i in positive} == bases.positive_support(d)


def test_records_and_multfree_tally_descents_of_straight_shapes_only(
        monkeypatch):
    # F comes from the Schur expansion, so the descent kernel must only see
    # straight shapes (an all-zero inner); the caches are emptied so that
    # every tally is asked for again
    inners = []
    counts = kernels.descent_counts

    def spy(inner, outer):
        inners.append(inner)
        return counts(inner, outer)

    monkeypatch.setattr(kernels, "descent_counts", spy)
    for cached in (tableaux._f_counts, tableaux._straight_support_bits,
                   relations._straight_packed):
        cached.cache_clear()
    for n in range(7):
        for s in enumerate_shapes(n):
            record(s)
    assert posets.multfree_report(6)["pass"]
    assert inners  # each straight shape's tally was asked for
    assert all(not any(inner) for inner in inners)


def test_verify_implications_records_once_per_key(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(relations, "record", counting("record", record))
    monkeypatch.setattr(relations, "_record",
                        counting("_record", relations._record))
    monkeypatch.setattr(relations, "compare", counting("compare", compare))
    assert verify_implications(5)["pass"]
    keys = [1, 3, 6, 16, 34]  # component keys of sizes 1..5
    # one record per key, the witness pairs included: they are compared
    # on their size's records; the condition rows stand in for a compare
    # per key pair, so a passing sweep compares the witness pairs only.
    # Each record is built from its key's Schur expansion, never through
    # record(shape), which would find the shape's key again
    assert calls == {"_record": sum(keys), "compare": 4}


def test_violations_match_a_per_shape_sweep(monkeypatch):
    # a false arrow breaks on many pairs; the key-pair sweep must list the
    # same shape pairs and arrows, in the same order, as comparing every
    # ordered pair of distinct shapes
    false_arrow = ("contains:f", "positive:f")
    monkeypatch.setattr(relations, "_ARROWS",
                        relations._ARROWS + (false_arrow,))
    expected = []
    for size in range(1, 6):
        records = [record(s) for s in enumerate_shapes(size)]
        for ra in records:
            for rb in records:
                if ra.shape == rb.shape:
                    continue
                for arrow in check_implications(compare(ra, rb)):
                    expected.append({"a": format_shape(ra.shape),
                                     "b": format_shape(rb.shape),
                                     "arrow": arrow})
    assert len(expected) > 1
    report = verify_implications(5)
    assert report["violations"] == expected
    assert not report["pass"]


def _check_condition_rows(n):
    # bit y of row x holds exactly when compare(record(a), record(b)) says
    # the condition holds, for every ordered pair of distinct size-n keys
    records = [record(key_shape(key)) for key, _ in component_keys(n)]
    rows = relations._condition_rows(records)
    assert list(rows) == list(relations._CONDITIONS)
    for x, ra in enumerate(records):
        assert not any(row[x] >> x & 1 for row in rows.values())
        for y, rb in enumerate(records):
            if x != y:
                held = compare(ra, rb).conditions
                assert {c: bool(r[x] >> y & 1) for c, r in rows.items()} == (
                    held), (format_shape(ra.shape), format_shape(rb.shape))


def test_condition_rows_match_compare():
    for n in range(1, 7):
        _check_condition_rows(n)


@pytest.mark.nightly
def test_nightly_condition_rows_match_compare():
    _check_condition_rows(8)


def _violations_per_pair(n):
    """The reference violation list: check_implications on compare() for
    every ordered pair of distinct same-size component keys, each broken
    key pair then named by every ordered pair of its shapes."""
    violations = []
    for size in range(1, n + 1):
        keyed = component_keys(size)
        records = [record(key_shape(key)) for key, _ in keyed]
        broken = {}
        for (x, ra), (y, rb) in permutations(enumerate(records), 2):
            arrows = check_implications(compare(ra, rb))
            if arrows:
                broken[x, y] = arrows
        if broken:
            shapes, slots = key_shapes(keyed)
            violations += [
                {"a": format_shape(a), "b": format_shape(b), "arrow": arrow}
                for (a, x), (b, y) in permutations(zip(shapes, slots), 2)
                for arrow in broken.get((x, y), ())
            ]
    return violations


# false statements, each broken on some pairs of size 4 and up: the
# published non-implications of the second and third witnesses, and
# positivity in two bases as an equivalence
_FALSE_ARROWS = (("positive:f", "contains:schur"),
                 ("dominated:rows", "positive:m"))
_FALSE_EQUIVALENCE = ("positive:schur", "positive:f")


def _check_violations_match_per_pair(monkeypatch, sizes):
    monkeypatch.setattr(relations, "_ARROWS",
                        relations._ARROWS + _FALSE_ARROWS)
    monkeypatch.setattr(relations, "_EQUIVALENCES",
                        relations._EQUIVALENCES + (_FALSE_EQUIVALENCE,))
    for n in sizes:
        expected = _violations_per_pair(n)
        report = verify_implications(n)
        assert report["violations"] == expected, n
        assert report["pass"] == (not expected)
    assert {v["arrow"] for v in expected} == {
        "positive:f => contains:schur", "dominated:rows => positive:m",
        "positive:schur <=> positive:f"}


def test_violations_match_the_per_pair_sweep(monkeypatch):
    _check_violations_match_per_pair(monkeypatch, range(1, 7))


@pytest.mark.nightly
def test_nightly_violations_match_the_per_pair_sweep(monkeypatch):
    _check_violations_match_per_pair(monkeypatch, [8])


def test_m_support_is_everything_dominated_by_the_column_frame():
    # the M-support of s_A is {alpha : sort(alpha) <= cols(A)'}, where
    # cols(A) is A's sorted column lengths; conjugation reverses
    # dominance, so contains:m(A, B) is cols(A) <= cols(B), which
    # dominated:cols forces (relations._ARROWS)
    assert ("dominated:cols", "contains:m") in relations._ARROWS
    for n in range(1, 8):
        comps = [mask_to_comp(m, n) for m in range(1 << (n - 1))]
        for s in enumerate_shapes(n):
            top = transpose_partition(sort_desc(s.col_lengths()))
            want = {alpha for alpha in comps
                    if dominance_leq(sort_desc(alpha), top)}
            assert tableaux.m_expansion(s).support() == want, format_shape(s)
