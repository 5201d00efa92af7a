"""Z/m from its order and metric row: tables, metric checks, and constructors.

The group law is Z/m's own: sums mod m, 0 the identity and -a mod m the
inverse.  The tables under test are the two the library reads, mul and
int_metric, the metric scaled by its common denominator.
"""

import math
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


def _d(g, a, b):
    """d(a, b) read off the integer metric table."""
    unit, table = g.int_metric
    return Fraction(table[a][b], unit)


def test_trivial_group():
    g = trivial()
    assert g.order == 1
    assert g.mul == ((0,),)
    assert g.int_metric == (1, ((0,),))
    assert g == cyclic(1)


def test_cyclic_tables():
    g = cyclic(4)
    assert g.order == 4
    assert g.mul[1][3] == 0 and g.mul[3][1] == 0
    assert g.mul[0] == (0, 1, 2, 3)


def test_cyclic_custom_metric():
    custom = cyclic(2, [0, Fraction(1, 3)])
    assert _d(custom, 0, 1) == Fraction(1, 3)
    assert custom.int_metric == (3, ((0, 1), (1, 0)))
    assert custom.name == "Z/2, metric 0/1,1/3"


def test_cyclic_circle_metric_frozen():
    # distances on Z/4: half-turn is the diameter, normalized to 1
    g = cyclic(4)
    assert _d(g, 0, 1) == Fraction(1, 2)
    assert _d(g, 0, 2) == Fraction(1)
    assert _d(g, 1, 3) == Fraction(1)
    assert _d(g, 2, 3) == Fraction(1, 2)


def test_cyclic_odd_metric():
    g = cyclic(5)
    assert _d(g, 0, 1) == _d(g, 0, 4)
    unit, table = g.int_metric
    assert max(max(row) for row in table) == unit


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_group_axioms(m):
    g = cyclic(m)
    for a in range(m):
        assert g.mul[a][-a % m] == 0
        assert g.mul[0][a] == a
        for b in range(m):
            for c in range(m):
                assert g.mul[g.mul[a][b]][c] == g.mul[a][g.mul[b][c]]


@given(st.integers(min_value=2, max_value=10))
def test_cyclic_metric_axioms(m):
    _, table = cyclic(m).int_metric
    for a in range(m):
        assert table[a][a] == 0
        for b in range(m):
            assert table[a][b] == table[b][a]
            if a != b:
                assert table[a][b] > 0
            for c in range(m):
                assert table[a][c] <= table[a][b] + table[b][c]


@given(st.integers(min_value=2, max_value=10))
def test_cyclic_metric_bi_invariant(m):
    g = cyclic(m)
    _, table = g.int_metric
    for a in range(m):
        for b in range(m):
            for h in range(m):
                assert table[g.mul[a][h]][g.mul[b][h]] == table[a][b]
                assert table[g.mul[h][a]][g.mul[h][b]] == table[a][b]


def test_cyclic_rejects_bad_order():
    with pytest.raises(ValidationError):
        cyclic(0)
    with pytest.raises(ValidationError, match="^group order must be positive$"):
        FiniteGroup(0, ())


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
    # oracle runs on Z/m's tables with d(a, b) = f(b - a) written out, and
    # an accepted row's integer table is that metric times its unit
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
            unit, table = g.int_metric
            assert g.mul == mul
            assert tuple(tuple(Fraction(v, unit) for v in row) for row in table) == metric
        accepted += expected is None
        rejected += expected is not None
    assert accepted >= 100 and rejected >= 100


def test_rejects_triangle_failure():
    quarter = Fraction(1, 4)
    z4 = cyclic(4)
    f = [0, quarter, 1, quarter]
    inv = tuple(-a % 4 for a in range(4))
    assert oracles.cubic_group_check(4, z4.mul, inv, 0, left_invariant_metric(z4.mul, f)) is not None
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
    assert _d(g, 3, 67) == 1 and _d(g, 0, 127) == Fraction(1, 64)


def test_a_group_name_is_neither_compared_nor_hashed():
    z4 = cyclic(4)
    named = replace(z4, name="another")
    assert (named.name, z4.name) == ("another", "Z/4")
    assert named == z4 and hash(named) == hash(z4)
    # the rows are compared: the discrete metric on Z/4 is not the circle metric
    discrete = replace(z4, row=(Fraction(0),) + (Fraction(1),) * 3)
    assert named != discrete and discrete == cyclic(4, [0, 1, 1, 1])


def test_tables_are_z_m_sums_and_the_scaled_row():
    # mul[a][b] = (a + b) mod m and int_metric's table[a][b] = L * f((b - a) mod m),
    # L the least common denominator of the row, on random valid rows
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        m = rng.randrange(1, 9)
        f = _random_row(rng, m)
        try:
            g = FiniteGroup(m, f)
        except ValidationError:
            continue
        unit, table = g.int_metric
        assert unit == math.lcm(*(v.denominator for v in f))
        for a in range(m):
            for b in range(m):
                assert g.mul[a][b] == (a + b) % m
                assert table[a][b] == unit * f[(b - a) % m]
        checked += 1


def test_an_entry_too_long_to_name_is_a_validation_error():
    # the name spells every entry in decimal; 5,000 digits pass the interpreter's
    # limit on int-to-text conversion, which is refused as the entry it comes from
    with pytest.raises(ValidationError, match="metric entry 1 has too many digits"):
        cyclic(2, [0, Fraction(1, 10**5000)])
    with pytest.raises(ValidationError, match="metric entry 2 "):
        cyclic(4, [0, Fraction(1, 2), Fraction(10**5000 - 1, 10**5000), Fraction(1, 2)])
