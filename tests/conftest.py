"""Shared oracles and builders for the test suite.

The oracles recompute quantities from first principles with code paths
disjoint from the library: half-L1 by direct summation, transport by
unit-mass expansion plus exhaustive assignment, name counts by string
slicing on the doubled label word.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import settings

from skewlab import (
    EmpiricalDistribution,
    ExtensionSystem,
    cyclic,
    trivial,
)

settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("suite")


def half_l1(d1, d2) -> Fraction:
    """Half the L1 distance of two weight functions, from raw dicts."""
    a = d1.as_dict()
    b = d2.as_dict()
    total = Fraction(0)
    for k in set(a) | set(b):
        total += abs(a.get(k, Fraction(0)) - b.get(k, Fraction(0)))
    return total / 2


def brute_transport(d1, d2, space) -> Fraction:
    """Exact transport cost by unit-mass expansion and assignment search.

    Works when both weight vectors are multiples of 1/m for one small m;
    the minimum over all unit-to-unit bijections equals the transport
    optimum because splitting mass never beats the best assignment at
    equal unit sizes.
    """
    a = d1.as_dict()
    b = d2.as_dict()
    denom = 1
    for w in list(a.values()) + list(b.values()):
        denom = denom * w.denominator // __import__("math").gcd(denom, w.denominator)
    units1 = [k for k, w in sorted(a.items()) for _ in range(int(w * denom))]
    units2 = [k for k, w in sorted(b.items()) for _ in range(int(w * denom))]
    assert len(units1) == len(units2) <= 8, "oracle limited to 8 units"
    best = None
    for perm in permutations(range(len(units2))):
        cost = sum(
            (space.dist(units1[i], units2[perm[i]]) for i in range(len(units1))),
            Fraction(0),
        )
        if best is None or cost < best:
            best = cost
    return Fraction(best, denom)


S3_PERMS = list(permutations(range(3)))


def s3_table():
    """Multiplication table of S3; element i is S3_PERMS[i], 0 the identity."""
    index = {p: i for i, p in enumerate(S3_PERMS)}
    return [[index[tuple(a[b[i]] for i in range(3))] for b in S3_PERMS] for a in S3_PERMS]


def s3_class_metric():
    """f on S3: 0 at the identity, 1/2 on transpositions, 1 on 3-cycles."""
    level = {3: Fraction(0), 1: Fraction(1, 2), 0: Fraction(1)}
    return [level[sum(p[i] == i for i in range(3))] for p in S3_PERMS]


def table_inverses(mul):
    """Right inverses in a table with identity 0."""
    return [row.index(0) for row in mul]


def left_invariant_metric(mul, f):
    """The table d(a, b) = f(a^-1 b) for a group table with identity 0."""
    inv = table_inverses(mul)
    return [[f[mul[inv[a]][b]] for b in range(len(mul))] for a in range(len(mul))]


def rotation_names(labels, n):
    """All n-names of the label rotation, one per start point."""
    size = len(labels)
    doubled = tuple(labels) + tuple(labels)
    return [tuple(doubled[x : x + n]) for x in range(size)]


@pytest.fixture
def marker_pair():
    """The desk-scale two-symbol pair: one marker each, skew flips apart."""
    size = 2048
    labels = tuple(1 if x == size - 1 else 0 for x in range(size))
    g2 = cyclic(2)
    target = ExtensionSystem(
        size=size,
        labels=labels,
        group=g2,
        skew=tuple(1 if x == 0 else 0 for x in range(size)),
    )
    source = ExtensionSystem(
        size=size,
        labels=labels,
        group=g2,
        skew=tuple(1 if x == 1024 else 0 for x in range(size)),
    )
    return target, source


@pytest.fixture
def plain_pair():
    """Trivial-group pair: one marker against three markers."""
    size = 2048
    tg = trivial()
    target = ExtensionSystem(
        size=size,
        labels=tuple(1 if x == size - 1 else 0 for x in range(size)),
        group=tg,
        skew=(0,) * size,
    )
    source = ExtensionSystem(
        size=size,
        labels=tuple(1 if x in (100, 900, 1700) else 0 for x in range(size)),
        group=tg,
        skew=(0,) * size,
    )
    return target, source


def tiny_extension(size=12, group=None, flip_at=(0,), marker_at=(11,)):
    """Small Z/2 extension for fast unit tests."""
    if group is None:
        group = cyclic(2)
    return ExtensionSystem(
        size=size,
        labels=tuple(1 if x in marker_at else 0 for x in range(size)),
        group=group,
        skew=tuple(1 if x in flip_at else 0 for x in range(size)),
    )


def uniform_distribution(keys, space):
    n = len(keys)
    return EmpiricalDistribution.from_weights(
        space, {k: Fraction(1, n) for k in keys}
    )
