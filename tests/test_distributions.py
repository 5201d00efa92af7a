"""Metric spaces, exact distributions, and the transport distance."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import (
    DiscreteSpace,
    EmpiricalDistribution,
    NameSpace,
    SpaceMismatch,
    ValidationError,
    FiniteGroup,
    cyclic,
    kantorovich,
)
from skewlab.distributions import _solve_transport

import oracles
from conftest import brute_transport, half_l1


def one(g):
    """The length-1 name of group element g under label 0."""
    return ((0, g),)


def random_weights(rng, atoms, denom=60):
    cuts = sorted(rng.sample(range(1, denom), len(atoms) - 1)) if len(atoms) > 1 else []
    bounds = [0] + cuts + [denom]
    return {
        a: Fraction(bounds[i + 1] - bounds[i], denom)
        for i, a in enumerate(atoms)
        if bounds[i + 1] > bounds[i]
    }


# ---------------------------------------------------------------------------
# kantorovich against oracles


def test_discrete_matches_half_l1_randomized():
    rng = random.Random(7)
    space = DiscreteSpace()
    for _ in range(300):
        atoms = rng.sample(range(40), rng.randint(1, 32))
        d1 = EmpiricalDistribution.from_weights(space, random_weights(rng, atoms))
        atoms2 = rng.sample(range(40), rng.randint(1, 32))
        d2 = EmpiricalDistribution.from_weights(space, random_weights(rng, atoms2))
        assert kantorovich(d1, d2) == half_l1(d1, d2)


def test_flow_solver_agrees_with_closed_form():
    rng = random.Random(11)
    space = DiscreteSpace()
    for _ in range(50):
        atoms = rng.sample(range(12), rng.randint(1, 6))
        d1 = EmpiricalDistribution.from_weights(space, random_weights(rng, atoms, 12))
        atoms2 = rng.sample(range(12), rng.randint(1, 6))
        d2 = EmpiricalDistribution.from_weights(space, random_weights(rng, atoms2, 12))
        assert kantorovich(d1, d2) == oracles.fraction_kantorovich(d1, d2)


def test_flow_solver_against_assignment_oracle():
    # non-discrete metric: exhaustive unit assignment is the authority
    rng = random.Random(13)
    g = cyclic(6)
    space = NameSpace(g, 1)
    for _ in range(40):
        units1 = [one(rng.randrange(6)) for _ in range(6)]
        units2 = [one(rng.randrange(6)) for _ in range(6)]
        d1 = EmpiricalDistribution.from_weights(space, Counter(units1))
        d2 = EmpiricalDistribution.from_weights(space, Counter(units2))
        assert kantorovich(d1, d2) == brute_transport(d1, d2, space)


@st.composite
def metric_space(draw):
    """(space, point strategy, point count): names over Z/3-Z/64 with the circle
    metric or Z/3-Z/12 with a drawn row, lengths 1-4."""
    kind = draw(st.sampled_from(["discrete", "group", "label", "block", "row"]))
    if kind == "discrete":
        return DiscreteSpace(), st.integers(min_value=0, max_value=5), 6
    if kind == "row":
        # symmetric values in [1/2, 1] always satisfy the triangle inequality
        m = draw(st.integers(min_value=3, max_value=12))
        levels = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(1)])
        half = draw(st.lists(levels, min_size=m // 2, max_size=m // 2))
        group = cyclic(m, [0] + [half[min(g, m - g) - 1] for g in range(1, m)])
    else:
        group = cyclic(draw(st.integers(min_value=3, max_value=64)))
    # under one label the group metric alone decides
    labels = 1 if kind in ("group", "row") else 3
    length = draw(st.integers(min_value=2, max_value=4)) if kind == "block" else 1
    coord = st.tuples(
        st.integers(min_value=0, max_value=labels - 1),
        st.integers(min_value=0, max_value=group.order - 1),
    )
    count = (labels * group.order) ** length
    return NameSpace(group, length), st.tuples(*[coord] * length), count


@st.composite
def non_discrete_pair(draw):
    """Two distributions on a non-discrete name space, up to 40 keys each."""
    space, points, count = draw(metric_space().filter(lambda sp: not sp[0].discrete))

    def weights():
        size = draw(st.integers(min_value=1, max_value=min(40, count)))
        keys = st.dictionaries(
            points, st.integers(min_value=1, max_value=9), min_size=size, max_size=size
        )
        return EmpiricalDistribution.from_weights(space, draw(keys))

    return weights(), weights()


@given(non_discrete_pair())
def test_integer_solver_matches_fraction_oracle(pair):
    d1, d2 = pair
    expected = oracles.fraction_kantorovich(d1, d2)
    assert kantorovich(d1, d2) == expected


@settings(max_examples=15)
@given(non_discrete_pair(), st.data())
def test_transport_value_does_not_depend_on_key_order(pair, data):
    # kantorovich hands the cancelled masses over in set order; every order gives one value
    d1, d2 = pair
    t1, t2 = d1.total, d2.total
    a, b = dict(d1.counts), dict(d2.counts)
    diff = {k: a.get(k, 0) * t2 - b.get(k, 0) * t1 for k in a.keys() | b.keys()}
    supply = [(k, w) for k, w in diff.items() if w > 0]
    demand = [(k, -w) for k, w in diff.items() if w < 0]
    expected = oracles.fraction_kantorovich(d1, d2)
    for _ in range(3):
        supply = data.draw(st.permutations(supply))
        demand = data.draw(st.permutations(demand))
        assert _solve_transport(supply, demand, t1 * t2, d1.space) == expected


@given(metric_space(), st.data())
def test_equal_distributions_are_zero_apart(space_points, data):
    # equal proportions cancel to no mass on the discrete and the non-discrete spaces alike
    space, points, count = space_points
    keys = data.draw(st.lists(points, min_size=1, max_size=min(count, 12), unique=True))
    counts = {k: data.draw(st.integers(1, 9)) for k in keys}
    d = EmpiricalDistribution.from_counts(space, counts)
    twice = EmpiricalDistribution.from_counts(space, {k: 2 * c for k, c in counts.items()})
    assert kantorovich(d, d) == kantorovich(d, twice) == 0


@given(st.data())
def test_integer_distance_is_unit_times_fraction_distance(data):
    # unit is the common denominator of the metric; NameSpace stops at it
    space, points, _ = data.draw(metric_space())
    row = space.group.row if isinstance(space, NameSpace) else [0, 1]
    assert space.unit == math.lcm(*(v.denominator for v in row))
    for a, b in data.draw(st.lists(st.tuples(points, points), min_size=1, max_size=20)):
        expected = oracles.fraction_dist(space, a, b)
        assert space.int_dist(a, b) == space.unit * expected
        assert space.dist(a, b) == expected
        # the name maximum does not depend on which coordinate comes first
        for r in range(1, getattr(space, "length", 1)):
            assert space.int_dist(a[r:] + a[:r], b[r:] + b[:r]) == space.unit * expected


def test_kantorovich_frozen_values():
    space = DiscreteSpace()
    d1 = EmpiricalDistribution.from_weights(space, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    d2 = EmpiricalDistribution.from_weights(space, {0: Fraction(3, 4), 1: Fraction(1, 4)})
    assert kantorovich(d1, d2) == Fraction(1, 4)
    assert kantorovich(d1, d1) == 0


def test_point_masses_cost_the_metric_distance():
    g = cyclic(8)
    space = NameSpace(g, 1)
    for x in range(8):
        for y in range(8):
            dx = EmpiricalDistribution.from_weights(space, {one(x): 1})
            dy = EmpiricalDistribution.from_weights(space, {one(y): 1})
            assert kantorovich(dx, dy) == g.row[(y - x) % 8]


def test_counts_at_different_scales_compare_equal():
    space = DiscreteSpace()
    half = EmpiricalDistribution.from_counts(space, {1: 1, 0: 1})
    assert EmpiricalDistribution.from_counts(space, {0: 2, 1: 2}) == half
    assert EmpiricalDistribution.from_counts(space, {0: 6, 1: 6, 2: 0}) == half
    assert EmpiricalDistribution.from_weights(space, {0: Fraction(1, 2), 1: Fraction(1, 2)}) == half
    assert EmpiricalDistribution.from_weights(space, {0: 7, 1: 7}) == half
    assert hash(EmpiricalDistribution.from_counts(space, {0: 2, 1: 2})) == hash(half)
    assert (half.counts, half.total) == (((0, 1), (1, 1)), 2)
    assert half.weights == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))
    assert kantorovich(EmpiricalDistribution.from_counts(space, {0: 2, 1: 2}), half) == 0
    third = EmpiricalDistribution.from_counts(space, {0: 3, 1: 6})
    assert (third.counts, third.total) == (((0, 1), (1, 2)), 3)
    assert third.weight(1) == Fraction(2, 3) and third.weight(5) == 0
    assert third.as_dict() == {0: Fraction(1, 3), 1: Fraction(2, 3)}


def test_counts_rejected():
    space = DiscreteSpace()
    with pytest.raises(ValidationError, match="negative count"):
        EmpiricalDistribution.from_counts(space, {0: -1, 1: 2})
    for empty in ({}, {0: 0, 1: 0}):
        with pytest.raises(ValidationError, match="no mass"):
            EmpiricalDistribution.from_counts(space, empty)
    # the constructor holds the invariants from_counts establishes
    for counts, total in ((((0, 2), (1, 2)), 4), (((0, 1), (1, 2)), 4), (((0, 1), (1, 0)), 1)):
        with pytest.raises(ValidationError):
            EmpiricalDistribution(space, counts, total)


TOTALS_KEYS = {
    DiscreteSpace(): [0, 1, 2, 3],
    # names that differ in the group coordinate only
    NameSpace(cyclic(5), 1): [one(0), one(1), one(2), one(3)],
    # and names under two labels
    NameSpace(cyclic(4), 1): [((0, 1),), ((1, 1),), ((0, 3),), ((0, 0),)],
}


@pytest.mark.parametrize("space", list(TOTALS_KEYS))
def test_kantorovich_on_totals_three_and_seven(space):
    keys = TOTALS_KEYS[space]
    d1 = EmpiricalDistribution.from_counts(space, {keys[0]: 1, keys[2]: 2})
    d2 = EmpiricalDistribution.from_counts(space, {keys[0]: 2, keys[1]: 1, keys[3]: 4})
    assert (d1.total, d2.total) == (3, 7)
    expected = oracles.fraction_kantorovich(d1, d2)
    assert expected > 0
    assert kantorovich(d1, d2) == expected


def test_space_mismatch_rejected():
    d1 = EmpiricalDistribution.from_weights(DiscreteSpace(), {0: 1})
    d2 = EmpiricalDistribution.from_weights(NameSpace(cyclic(2), 1), {one(0): 1})
    with pytest.raises(SpaceMismatch):
        kantorovich(d1, d2)
    d3 = EmpiricalDistribution.from_weights(NameSpace(cyclic(2), 2), {one(0) * 2: 1})
    with pytest.raises(SpaceMismatch):
        kantorovich(d2, d3)
    d4 = EmpiricalDistribution.from_weights(NameSpace(cyclic(3), 1), {one(0): 1})
    with pytest.raises(SpaceMismatch):
        kantorovich(d2, d4)


def test_name_spaces_compare_by_group_tables_and_length():
    # a group's name is not part of its identity; its order and row, and so its tables, are
    tables = FiniteGroup(2, (Fraction(0), Fraction(1)), name="flip")
    assert NameSpace(tables, 3) == NameSpace(cyclic(2), 3)
    assert NameSpace(tables, 3) != NameSpace(cyclic(2), 2)
    d1 = EmpiricalDistribution.from_weights(NameSpace(tables, 1), {one(0): 1})
    d2 = EmpiricalDistribution.from_weights(NameSpace(cyclic(2), 1), {one(1): 1})
    assert kantorovich(d1, d2) == 1


@given(st.data())
def test_metric_axioms(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    space = NameSpace(cyclic(5), 1)
    ds = []
    for _ in range(3):
        atoms = [one(g) for g in rng.sample(range(5), rng.randint(1, 5))]
        ds.append(EmpiricalDistribution.from_weights(space, random_weights(rng, atoms, 20)))
    a, b, c = ds
    assert kantorovich(a, a) == 0
    assert kantorovich(a, b) == kantorovich(b, a)
    assert kantorovich(a, c) <= kantorovich(a, b) + kantorovich(b, c)
    if a.weights != b.weights:
        assert kantorovich(a, b) > 0


@given(st.data())
def test_convex_mix_identity(data):
    # v_Q = (1-e)v1 + e v2 forces |v2-vQ| = ((1-e)/e)|v1-vQ| exactly
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    discrete = data.draw(st.booleans())
    space = DiscreteSpace() if discrete else NameSpace(cyclic(7), 1)
    atoms = [one(g) for g in rng.sample(range(7), rng.randint(1, 7))]
    v1 = EmpiricalDistribution.from_weights(space, random_weights(rng, atoms, 24))
    atoms2 = [one(g) for g in rng.sample(range(7), rng.randint(1, 7))]
    v2 = EmpiricalDistribution.from_weights(space, random_weights(rng, atoms2, 24))
    eps = Fraction(data.draw(st.integers(1, 9)), 10)
    mix = {}
    for k in set(v1.as_dict()) | set(v2.as_dict()):
        mix[k] = (1 - eps) * v1.weight(k) + eps * v2.weight(k)
    vq = EmpiricalDistribution.from_weights(space, mix)
    assert kantorovich(v2, vq) == Fraction(1 - eps, eps) * kantorovich(v1, vq)


def test_convex_mix_bound():
    # whenever |v1-vQ| < z <= e the mixed distance stays under z/e
    rng = random.Random(23)
    space = DiscreteSpace()
    for _ in range(200):
        atoms = rng.sample(range(10), rng.randint(1, 8))
        v1 = EmpiricalDistribution.from_weights(space, random_weights(rng, atoms, 30))
        atoms2 = rng.sample(range(10), rng.randint(1, 8))
        v2 = EmpiricalDistribution.from_weights(space, random_weights(rng, atoms2, 30))
        eps = Fraction(rng.randint(1, 9), 10)
        mix = {
            k: (1 - eps) * v1.weight(k) + eps * v2.weight(k)
            for k in set(v1.as_dict()) | set(v2.as_dict())
        }
        vq = EmpiricalDistribution.from_weights(space, mix)
        zeta = kantorovich(v1, vq) + Fraction(1, 1000)
        if zeta <= eps:
            assert kantorovich(v2, vq) < zeta / eps


# ---------------------------------------------------------------------------
# name spaces


def test_name_space_metric_is_the_largest_coordinate_distance():
    space = NameSpace(cyclic(4), 4)
    base = ((0, 0), (1, 0), (0, 2), (1, 3))
    assert space.dist(base, base) == 0
    # Z/4: neighbours sit 1/2 apart, opposite elements 1
    assert space.dist(base, ((0, 1), (1, 0), (0, 2), (1, 3))) == Fraction(1, 2)
    assert space.dist(base, ((0, 1), (1, 1), (0, 3), (1, 0))) == Fraction(1, 2)
    assert space.dist(base, ((0, 1), (1, 0), (0, 0), (1, 3))) == 1
    # a differing label is distance 1, whatever the group coordinates
    assert space.dist(base, ((0, 0), (1, 0), (0, 2), (2, 3))) == 1
    assert space.int_dist(base, ((0, 0), (1, 0), (0, 2), (2, 3))) == space.unit == 2
    for short in (base[:3], base + base[:1]):
        with pytest.raises(SpaceMismatch, match="name length"):
            space.int_dist(base, short)


# ---------------------------------------------------------------------------
# pushforwards to cells


def test_pushforward_contracts_by_separation():
    # moving mass across cells costs at least the cross-cell gap, so the
    # atom-index pushforward distance is at most the original over the gap
    rng = random.Random(31)
    g = cyclic(8)
    space = NameSpace(g, 1)
    cells = [(one(2 * i), one(2 * i + 1)) for i in range(4)]  # the arcs {2i, 2i+1} of Z/8
    sep = min(
        space.dist(a, b)
        for ca in cells
        for cb in cells
        if ca != cb
        for a in ca
        for b in cb
    )
    for _ in range(50):
        d1, d2 = (
            EmpiricalDistribution.from_weights(space, Counter(one(rng.randrange(8)) for _ in range(10)))
            for _ in range(2)
        )
        p1 = EmpiricalDistribution.from_weights(
            DiscreteSpace(),
            {
                i: sum((d1.weight(a) for a in cell), Fraction(0))
                for i, cell in enumerate(cells)
                if any(d1.weight(a) > 0 for a in cell)
            },
        )
        p2 = EmpiricalDistribution.from_weights(
            DiscreteSpace(),
            {
                i: sum((d2.weight(a) for a in cell), Fraction(0))
                for i, cell in enumerate(cells)
                if any(d2.weight(a) > 0 for a in cell)
            },
        )
        assert kantorovich(p1, p2) * sep <= kantorovich(d1, d2)


# ---------------------------------------------------------------------------
# group-valued names


@given(st.data())
def test_translation_stability_two_eta(data):
    # names close to uniform stay close after a small pointwise shift
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    m = data.draw(st.integers(2, 6))
    g = cyclic(m)
    space = NameSpace(g, 1)
    length = m * data.draw(st.integers(2, 5))
    gamma = [rng.randrange(m) for _ in range(length)]
    haar = EmpiricalDistribution.from_weights(space, dict.fromkeys(map(one, range(m)), 1))
    eta = kantorovich(EmpiricalDistribution.from_weights(space, Counter(map(one, gamma))), haar)
    # shifts within eta of the identity; include the identity itself
    near = [h for h in range(m) if g.row[-h % m] <= eta]
    alpha = [near[rng.randrange(len(near))] for _ in range(length)]
    shifted = [(alpha[i] + gamma[i]) % m for i in range(length)]
    moved = kantorovich(EmpiricalDistribution.from_weights(space, Counter(map(one, shifted))), haar)
    assert moved <= 2 * eta


def test_distribution_validation():
    with pytest.raises(ValidationError):
        EmpiricalDistribution.from_weights(DiscreteSpace(), {})
    with pytest.raises(ValidationError):
        EmpiricalDistribution.from_weights(DiscreteSpace(), {0: -1, 1: 2})
    d = EmpiricalDistribution.from_weights(DiscreteSpace(), {0: 2, 1: 2})
    assert d.weight(0) == Fraction(1, 2)
