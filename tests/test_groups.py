"""Finite group tables, metrics, and constructors."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewlab import FiniteGroup, ValidationError, cyclic, from_tables, trivial
from skewlab.groups import _generators
from skewlab.records import replace

import oracles
from conftest import S3_PERMS, left_invariant_metric, s3_table, table_inverses


def test_trivial_group():
    g = trivial()
    assert g.order == 1
    assert g.identity == 0
    assert g.mul[0][0] == 0
    assert g.inv[0] == 0
    assert g.metric[0][0] == 0


def test_cyclic_tables():
    g = cyclic(4)
    assert g.order == 4
    assert g.mul[1][3] == 0
    assert g.inv[3] == 1
    assert g.identity == 0


def test_cyclic_circle_metric_frozen():
    # distances on Z/4: half-turn is the diameter, normalized to 1
    g = cyclic(4)
    assert g.metric[0][1] == Fraction(1, 2)
    assert g.metric[0][2] == Fraction(1)
    assert g.metric[1][3] == Fraction(1)
    assert g.metric[2][3] == Fraction(1, 2)


def test_cyclic_odd_metric():
    g = cyclic(5)
    assert g.metric[0][1] == g.metric[0][4]
    assert max(max(row) for row in g.metric) == 1


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_group_axioms(m):
    g = cyclic(m)
    e = g.identity
    for a in g.elements():
        assert g.mul[a][g.inv[a]] == e
        assert g.mul[e][a] == a
        for b in g.elements():
            for c in g.elements():
                assert g.mul[g.mul[a][b]][c] == g.mul[a][g.mul[b][c]]


@given(st.integers(min_value=2, max_value=10))
def test_cyclic_metric_axioms(m):
    g = cyclic(m)
    for a in g.elements():
        assert g.metric[a][a] == 0
        for b in g.elements():
            assert g.metric[a][b] == g.metric[b][a]
            if a != b:
                assert g.metric[a][b] > 0
            for c in g.elements():
                assert g.metric[a][c] <= g.metric[a][b] + g.metric[b][c]


@given(st.integers(min_value=2, max_value=10))
def test_cyclic_metric_bi_invariant(m):
    g = cyclic(m)
    for a in g.elements():
        for b in g.elements():
            for h in g.elements():
                assert g.metric[g.mul[a][h]][g.mul[b][h]] == g.metric[a][b]
                assert g.metric[g.mul[h][a]][g.mul[h][b]] == g.metric[a][b]


def test_from_tables_klein():
    # Klein four-group as an explicit table
    mul = (
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    )
    g = from_tables(mul)
    assert g.identity == 0
    assert all(g.inv[a] == a for a in g.elements())


def test_from_tables_rejects_non_associative():
    mul = (
        (0, 1, 2),
        (1, 2, 0),
        (2, 1, 0),
    )
    with pytest.raises(ValidationError):
        from_tables(mul)


def test_from_tables_rejects_non_latin():
    mul = (
        (0, 1),
        (1, 1),
    )
    with pytest.raises(ValidationError):
        from_tables(mul)


def test_from_tables_rejects_entries_outside_the_group():
    for bad in (3, -1):
        mul = [[0, 1, 2], [1, 2, 0], [2, 0, bad]]
        with pytest.raises(ValidationError, match="element indices"):
            from_tables(mul)


def test_from_tables_custom_metric():
    mul = ((0, 1), (1, 0))
    metric = ((Fraction(0), Fraction(1, 3)), (Fraction(1, 3), Fraction(0)))
    g = from_tables(mul, metric=metric)
    assert g.metric[0][1] == Fraction(1, 3)


def test_cyclic_rejects_bad_order():
    with pytest.raises(ValidationError):
        cyclic(0)


# ---------------------------------------------------------------------------
# the O(m^2) validator against the cubic oracle

KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
SMALL_TABLES = [cyclic(m).mul for m in range(1, 7)] + [KLEIN, s3_table()]
LEVELS = [Fraction(k, 4) for k in range(6)] + [Fraction(1, 3), Fraction(2, 3)]
GROUP_AXIOMS = ("identity", "inverse", "associativity", "metric row")


def _random_candidate(rng, mul):
    """Tables near a group with a metric: mostly from f = d(e, .), often perturbed."""
    m = len(mul)
    mul = [list(row) for row in mul]
    inv = table_inverses(mul)
    if m > 2 and rng.random() < 0.1:
        a, b, c = rng.randrange(1, m), rng.randrange(1, m), rng.randrange(1, m)
        mul[a][b], mul[a][c] = mul[a][c], mul[a][b]
    f = [Fraction(0)] + [rng.choice(LEVELS[1:5]) for _ in range(m - 1)]
    if rng.random() < 0.6:
        f = [max(f[g], f[inv[g]]) for g in range(m)]
    metric = left_invariant_metric(cyclic(m).mul if rng.random() < 0.05 else mul, f)
    if rng.random() < 0.3:
        a, b = rng.randrange(m), rng.randrange(m)
        metric[a][b] = rng.choice(LEVELS)
        if rng.random() < 0.7:
            metric[b][a] = metric[a][b]
    return mul, inv, metric


def test_validator_accepts_exactly_what_the_cubic_oracle_accepts():
    rng = random.Random(5)
    accepted = rejected = 0
    for _ in range(3000):
        mul, inv, metric = _random_candidate(rng, rng.choice(SMALL_TABLES))
        expected = oracles.cubic_group_check(len(mul), mul, inv, 0, metric)
        try:
            FiniteGroup(len(mul), mul, inv, 0, metric)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert (got is None) == (expected is None), (mul, metric, expected, got)
        if expected is not None and expected.startswith(GROUP_AXIOMS):
            assert got == expected
        accepted += expected is None
        rejected += expected is not None
    assert accepted >= 100 and rejected >= 100


def test_light_test_checks_a_generating_set():
    assert _generators(cyclic(64).mul, 0) == [1]
    assert _generators(KLEIN, 0) == [1, 2]
    assert _generators(s3_table(), 0) == [1, 2]
    assert _generators(trivial().mul, 0) == [0]
    for mul in (KLEIN, s3_table()):
        g = from_tables(mul)
        assert g.order == len(mul)
        assert oracles.cubic_group_check(g.order, g.mul, g.inv, g.identity, g.metric) is None


def test_corruption_off_the_generator_row_rejected_like_the_cubic_check():
    # Z/6 is generated by 1; corrupt row 2, keeping identity and inverse entries
    mul = [list(row) for row in cyclic(6).mul]
    mul[2][3] = 4
    assert _generators(mul, 0) == [1]
    inv = table_inverses(mul)
    expected = oracles.cubic_group_check(6, mul, inv, 0, cyclic(6).metric)
    assert expected.startswith("associativity fails at")
    with pytest.raises(ValidationError) as exc:
        FiniteGroup(6, mul, inv, 0, cyclic(6).metric)
    assert str(exc.value) == expected


def _rejection(mul, f, message, edit=None):
    metric = left_invariant_metric(mul, f)
    if edit is not None:
        edit(metric)
    m = len(mul)
    inv = table_inverses(mul)
    assert oracles.cubic_group_check(m, mul, inv, 0, metric) is not None
    with pytest.raises(ValidationError, match=message):
        from_tables(mul, metric)


def test_rejects_metric_not_left_invariant():
    half = Fraction(1, 2)

    def stretch(metric):
        metric[1][2] = metric[2][1] = Fraction(1)

    _rejection(cyclic(4).mul, [0, half, 1, half], "not left invariant", stretch)


def test_rejects_left_invariant_metric_that_is_not_right_invariant():
    # S3: one transposition at 1/2, the other two (its conjugates) at 1
    f = [Fraction(0) if p == (0, 1, 2) else Fraction(1) for p in S3_PERMS]
    f[S3_PERMS.index((0, 2, 1))] = Fraction(1, 2)
    _rejection(s3_table(), f, "not right invariant")


def test_rejects_triangle_failure():
    quarter = Fraction(1, 4)
    _rejection(cyclic(4).mul, [0, quarter, 1, quarter], "triangle inequality fails")


def test_cyclic_128_builds_under_one_second():
    # O(m^2) metric checks; the cubic ones took about 13 s at this order
    start = time.perf_counter()
    g = cyclic(128)
    assert time.perf_counter() - start < 1.0
    assert g.metric[3][67] == 1 and g.metric[0][127] == Fraction(1, 64)


def test_a_group_name_is_neither_compared_nor_hashed():
    z4 = cyclic(4)
    named = replace(z4, name="another")
    assert (named.name, z4.name) == ("another", "Z/4")
    assert named == z4 and hash(named) == hash(z4)
    # the tables are compared: the discrete metric on Z/4 is not the circle metric
    assert named != replace(z4, metric=from_tables(z4.mul).metric)
