"""Z/m from its order and metric row: tables, metric checks, and constructors."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewlab import FiniteGroup, ValidationError, cyclic, trivial
from skewlab.records import replace

import oracles
from conftest import left_invariant_metric


def test_trivial_group():
    g = trivial()
    assert g.order == 1
    assert g.identity == 0
    assert g.mul[0][0] == 0
    assert g.inv[0] == 0
    assert g.metric[0][0] == 0
    assert g == cyclic(1)


def test_cyclic_tables():
    g = cyclic(4)
    assert g.order == 4
    assert g.mul[1][3] == 0
    assert g.inv[3] == 1
    assert g.identity == 0


def test_cyclic_custom_metric():
    custom = cyclic(2, [0, Fraction(1, 3)])
    assert custom.metric[0][1] == Fraction(1, 3)
    assert custom.metric == ((0, Fraction(1, 3)), (Fraction(1, 3), 0))
    assert custom.name == "Z/2, metric 0/1,1/3"


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


def test_cyclic_rejects_bad_order():
    with pytest.raises(ValidationError):
        cyclic(0)


# ---------------------------------------------------------------------------
# the row checks against the cubic oracle on the tables the row gives

LEVELS = [Fraction(k, 4) for k in range(-1, 6)] + [Fraction(1, 3), Fraction(2, 3)]


def _random_row(rng, m):
    """f = d(0, .) near a metric row: zero at 0 and symmetric most of the time."""
    f = [Fraction(0)] + [rng.choice(LEVELS[2:6]) for _ in range(m - 1)]
    if rng.random() < 0.6:
        f = [max(f[g], f[-g]) for g in range(m)]
    if rng.random() < 0.2:
        f[rng.randrange(m)] = rng.choice(LEVELS)
    return tuple(f)


def test_validator_accepts_exactly_what_the_cubic_oracle_accepts():
    # every axiom but the metric's holds by construction, so the cubic
    # oracle runs on Z/m's tables with d(a, b) = f(b - a) written out
    rng = random.Random(5)
    accepted = rejected = 0
    for _ in range(3000):
        m = rng.randrange(1, 9)
        f = _random_row(rng, m)
        mul = tuple(tuple((a + b) % m for b in range(m)) for a in range(m))
        inv = tuple(-a % m for a in range(m))
        metric = tuple(tuple(f[(b - a) % m] for b in range(m)) for a in range(m))
        expected = oracles.cubic_group_check(m, mul, inv, 0, metric)
        try:
            g = FiniteGroup(m, f)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == expected, (f, expected, got)
        if got is None:
            assert (g.mul, g.inv, g.metric) == (mul, inv, metric)
        accepted += expected is None
        rejected += expected is not None
    assert accepted >= 100 and rejected >= 100


def test_rejects_triangle_failure():
    quarter = Fraction(1, 4)
    z4 = cyclic(4)
    f = [0, quarter, 1, quarter]
    assert oracles.cubic_group_check(4, z4.mul, z4.inv, 0, left_invariant_metric(z4.mul, f)) is not None
    with pytest.raises(ValidationError, match="triangle inequality fails"):
        cyclic(4, f)


def test_rejects_a_row_of_the_wrong_length():
    with pytest.raises(ValidationError, match="metric row 0 has wrong length"):
        FiniteGroup(3, (Fraction(0), Fraction(1)))


def test_cyclic_128_builds_under_one_second():
    # O(m^2) row checks and tables; the cubic checks took about 13 s at this order
    start = time.perf_counter()
    g = cyclic(128)
    assert time.perf_counter() - start < 1.0
    assert g.metric[3][67] == 1 and g.metric[0][127] == Fraction(1, 64)


def test_a_group_name_is_neither_compared_nor_hashed():
    z4 = cyclic(4)
    named = replace(z4, name="another")
    assert (named.name, z4.name) == ("another", "Z/4")
    assert named == z4 and hash(named) == hash(z4)
    # the rows are compared: the discrete metric on Z/4 is not the circle metric
    discrete = replace(z4, row=(Fraction(0),) + (Fraction(1),) * 3)
    assert named != discrete and discrete == cyclic(4, [0, 1, 1, 1])
