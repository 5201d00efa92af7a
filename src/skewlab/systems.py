"""Finite symbolic models of group extensions and their partial speedups.

A system here is a single base cycle x -> x+1 mod N carrying a label per
point and a skewing map into a finite group; the extension acts on
[N] x G by (x, g) -> (x+1, skew(x)*g).  Speedups replace the exponent 1
by a base-measurable exponent k(x) >= 1 on part of the base; keeping the
exponent on base coordinates is what makes every speedup commute with
the free right group action.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .distributions import EmpiricalDistribution
from .errors import OutOfDomain, ValidationError
from .groups import FiniteGroup
from .names import Walk, prefix_products
from .records import Record


class ExtensionSystem(Record):
    """Base cycle of given size with labels and a group-valued skewing map."""

    size: int
    labels: tuple[int, ...]
    group: FiniteGroup
    skew: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValidationError("size must be positive")
        if len(self.labels) != self.size:
            raise ValidationError("labels must cover every base point")
        if len(self.skew) != self.size:
            raise ValidationError("skew must cover every base point")
        m = self.group.order
        for g in self.skew:
            if not (0 <= g < m):
                raise ValidationError("skew value %r is not a group element" % (g,))
        for a in self.labels:
            if not isinstance(a, int):
                raise ValidationError("labels must be integers")

    def step(self, x: int, g: int) -> tuple[int, int]:
        return (x + 1) % self.size, self.group.mul[self.skew[x]][g]

    def alphabet(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.labels)))

    @cached_property
    def prefix(self) -> tuple[int, ...]:
        """Cocycle prefix table P: P[0] = e, P[t+1] = skew(t mod N) * P[t]."""
        return prefix_products(self.group, self.skew)

    @cached_property
    def model_names(self) -> dict:
        """improvement.build_model_name's results with this system as target,
        keyed by (n, n1, delta1, length, strict); a loop's steps share them."""
        return {}

    def walk(self, labels: Sequence[int] | None = None) -> Walk:
        """The unit-step walk x -> x+1 reading the given labels (default: own)."""
        n = self.size
        return Walk(
            self.labels if labels is None else labels,
            tuple((x + 1) % n for x in range(n)),
            self.skew,
            self.group,
        )


def cocycle_product(ext: ExtensionSystem, x: int, k: int) -> int:
    """Group element accumulated along k forward base steps from x.

    Newest factor multiplies on the left, so the composition identity
    holds: the product over a+b steps equals (product over b steps from
    the a-th image) times (product over a steps).  With k = laps * N +
    rest it is P[x+rest] * P[x]^-1, read off the prefix table, times the
    lap's power, which on Z/m is laps * lap mod m.
    """
    if k < 1:
        raise ValidationError("k must be positive")
    mul = ext.group.mul
    inv = ext.group.inv
    n = ext.size
    p = ext.prefix
    x %= n
    laps, rest = divmod(k, n)
    lap = mul[p[x + n]][inv[p[x]]]
    return mul[mul[p[x + rest]][inv[p[x]]]][laps * lap % ext.group.order]


class Twist(Record):
    """Total reassignment of fiber offsets, one group element per base point."""

    values: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.values)

    @staticmethod
    def identity(n: int, group: FiniteGroup) -> "Twist":
        return Twist((group.identity,) * n)

    @staticmethod
    def compose(outer: "Twist", inner: "Twist", group: FiniteGroup) -> "Twist":
        """Pointwise product: twisting by inner then outer equals this."""
        if outer.size != inner.size:
            raise ValidationError("twist sizes differ")
        mul = group.mul
        return Twist(tuple(mul[outer.values[x]][inner.values[x]] for x in range(outer.size)))


def twist(ext: ExtensionSystem, alpha: Twist) -> ExtensionSystem:
    """Extension with the conjugated skewing alpha(x+1)*skew(x)*alpha(x)^-1.

    The map (x, g) -> (x, alpha(x)*g) carries orbits of the original skew
    product to orbits of the result.
    """
    if alpha.size != ext.size:
        raise ValidationError("twist does not match the base size")
    mul = ext.group.mul
    inv = ext.group.inv
    n = ext.size
    new_skew = tuple(
        mul[alpha.values[(x + 1) % n]][mul[ext.skew[x]][inv[alpha.values[x]]]]
        for x in range(n)
    )
    return ExtensionSystem(ext.size, ext.labels, ext.group, new_skew)


def twist_size(alpha: Twist, group: FiniteGroup) -> Fraction:
    """Mean distance of the twist from the identity, on the integer metric."""
    unit, table = group.int_metric
    return Fraction(sum(map(table[group.identity].__getitem__, alpha.values)), unit * alpha.size)


class ErgodicityWitness(Record):
    ergodic: bool
    cycle_length: int
    splitting_point: tuple[int, int] | None

    @staticmethod
    def of_lap(group: FiniteGroup, lap: int, steps: int) -> "ErgodicityWitness":
        """Witness for the orbit of (0, 0) that returns to base 0 after steps base steps.

        Each return adds lap, so the orbit meets the fibre over 0 in the
        subgroup of Z/m that lap generates, the multiples of gcd(lap, m):
        one cycle of steps * m / gcd, splitting off 1 unless gcd = 1.
        """
        m = group.order
        common = math.gcd(lap, m)
        if common == 1:
            return ErgodicityWitness(True, steps * m, None)
        return ErgodicityWitness(False, steps * m // common, (0, 1))


def check_extension_ergodic(ext: ExtensionSystem) -> ErgodicityWitness:
    """Single-cycle test for the skew product on [N] x G: one lap of the base."""
    return ErgodicityWitness.of_lap(ext.group, cocycle_product(ext, 0, ext.size), ext.size)


# ---------------------------------------------------------------------------
# partial speedups


class PartialSpeedup(Record):
    """Base-measurable exponent map; 0 marks points outside the domain.

    The induced base map x -> x + k(x) mod N must be injective on the
    domain; the constructor enforces it so downstream tower logic can
    rely on chains never merging.
    """

    parent: ExtensionSystem
    exponent: tuple[int, ...]
    k_max: int

    def __post_init__(self) -> None:
        n = self.parent.size
        if len(self.exponent) != n:
            raise ValidationError("exponent must cover every base point")
        if self.k_max < 1:
            raise ValidationError("k_max must be at least 1")
        seen = set()
        for x, k in enumerate(self.exponent):
            if k == 0:
                continue
            if k < 0 or k > self.k_max:
                raise ValidationError("exponent at %d outside [1, k_max]" % x)
            y = (x + k) % n
            if y in seen:
                raise ValidationError("induced base map is not injective")
            seen.add(y)

    @property
    def size(self) -> int:
        return self.parent.size

    def domain(self) -> tuple[int, ...]:
        return tuple(x for x, k in enumerate(self.exponent) if k > 0)

    def domain_mass(self) -> Fraction:
        return Fraction(sum(1 for k in self.exponent if k > 0), self.parent.size)

    def max_exponent(self) -> int:
        return max((k for k in self.exponent if k > 0), default=0)

    @cached_property
    def step_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Successor and cocycle of one speedup step from every base point.

        Points off the domain stay put with the identity, so walks and
        tower reads index both tuples without a domain test.
        """
        ext = self.parent
        n = ext.size
        e = ext.group.identity
        return (
            tuple((x + k) % n for x, k in enumerate(self.exponent)),
            tuple(cocycle_product(ext, x, k) if k else e for x, k in enumerate(self.exponent)),
        )

    @cached_property
    def regularity(self) -> dict:
        """improvement._regularity's outcomes on this speedup, keyed by
        (pbar, n, delta, k_bound): the certificate or refusal with the
        Dom(S^n) n-name distribution, so a certificate is measured once."""
        return {}

    def walk(self, labels: Sequence[int]) -> Walk:
        """The speedup walk reading the given labels; points off the domain stay put."""
        return Walk(labels, *self.step_table, self.parent.group)


def apply_speedup(speedup: PartialSpeedup, point: tuple[int, int]) -> tuple[int, int]:
    """One speedup step on the extension; right action commutes with it."""
    x, g = point
    if not speedup.exponent[x]:
        raise OutOfDomain("base point %d outside the speedup domain" % x)
    nxt, inc = speedup.step_table
    return nxt[x], speedup.parent.group.mul[inc[x]][g]


def power_domain(speedup: PartialSpeedup, m: int) -> tuple[int, ...]:
    """Base points from which m consecutive speedup steps stay defined.

    The base map is injective, so walking back once from each point off
    the domain counts every point's steps left, in O(N); points never
    reached lie on cycles inside the domain.
    """
    if m < 0:
        raise ValidationError("power must be nonnegative")
    n = speedup.parent.size
    exponent = speedup.exponent
    pred = [-1] * n
    for x, k in enumerate(exponent):
        if k:
            pred[(x + k) % n] = x
    left: list[int | None] = [None] * n
    for z, k in enumerate(exponent):
        if not k:
            steps = 0
            while z >= 0:
                left[z] = steps
                z = pred[z]
                steps += 1
    return tuple(x for x, s in enumerate(left) if s is None or s >= m)


def name_distribution(
    ext: ExtensionSystem,
    n: int,
    labels: Sequence[int] | None = None,
) -> EmpiricalDistribution:
    """Distribution of n-names over the whole extension [N] x G."""
    if n < 1:
        raise ValidationError("name length must be positive")
    return ext.walk(labels).distribution(n, range(ext.size))


def speedup_name_distribution(
    speedup: PartialSpeedup,
    labels: Sequence[int],
    n: int,
) -> EmpiricalDistribution:
    """Distribution of n-names over Dom(S^n) x G."""
    starts = power_domain(speedup, n)
    if not starts:
        raise ValidationError("no start points for the name distribution")
    return speedup.walk(labels).distribution(n, starts)


# ---------------------------------------------------------------------------
# regularity certificates


class RegularityCertificate(Record):
    """Measured outcome of the five regularity conditions at (n, delta).

    Issued only when all conditions hold.  It carries the tower's
    columns, each listed from its base up to its top level, and the
    measured values, so callers can report margins.
    """

    n: int
    delta: Fraction
    columns: tuple[tuple[int, ...], ...]
    domain_mass: Fraction
    max_exponent: int
    ladder_distance: Fraction

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValidationError("tower base is empty")
        if self.height % self.n != 0:
            raise ValidationError("tower height must be a multiple of the block length")
        if not self.domain_mass > 1 - self.delta:
            raise ValidationError("certificate requires domain mass above 1 - delta")
        # mass > 1 - delta with L - 1 levels of equal width forces this
        if not self.height > (1 - self.delta) / self.delta:
            raise ValidationError("height incompatible with the domain mass bound")

    @property
    def height(self) -> int:
        """Levels of the tower, the top level outside the domain included."""
        return len(self.columns[0])


class RegularityRefusal(Record):
    """Names the first regularity condition that failed, with a measurement."""

    condition: str
    detail: str
    measured: Fraction | None = None
