"""The groups of the construction: Z/m with a bi-invariant metric.

Over one base cycle an extension is ergodic only when its lap generates
the group (README, "Why only cyclic groups"), so only a cyclic group can
pass a construction.  A group is its order m and its metric row
f = d(0, .), Fractions normalized so the diameter is at most 1; addition
mod m, inverses and d(a, b) = f(b - a) make it a group with a
bi-invariant metric by construction, and the tables the library reads
(mul, inv, metric, and int_metric, scaled by the common denominator L)
are built from those two fields on first use.  cyclic equips Z/m with
the normalized circle distance min(k, m - k) / floor(m / 2) unless given
another row; for m <= 2 (and for rows that are 0/1 valued) the metric is
discrete, and several downstream routines take a cheaper path then.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .records import Record


def _table(f: tuple) -> tuple[tuple, ...]:
    """Row a is f moved right by a: f((b - a) mod m) at b, so d(a, b) = f(b - a)."""
    m = len(f)
    return tuple(f[m - a :] + f[: m - a] for a in range(m))


class FiniteGroup(Record):
    order: int
    row: tuple[Fraction, ...]
    name: str = "group"
    _uncompared = ("name",)

    identity = 0

    def __post_init__(self) -> None:
        from .errors import ValidationError

        m, f = self.order, self.row
        if m < 1:
            raise ValidationError("group order must be positive")
        if len(f) != m:
            raise ValidationError("metric row 0 has wrong length")
        if f[0] != 0:
            raise ValidationError("metric not zero on diagonal")
        for g in range(m):
            if g != 0 and f[g] <= 0:
                raise ValidationError("metric not positive off diagonal")
            if f[g] > 1:
                raise ValidationError("metric exceeds 1")
            if f[g] != f[-g]:
                raise ValidationError("metric not symmetric")
        # triangle inequality: f(g + h) <= f(g) + f(h), on the integer row
        scaled = self.int_metric[1][0]
        for g, fg in enumerate(scaled):
            if any(fgh > fg + fh for fgh, fh in zip(scaled[g:] + scaled[:g], scaled)):
                raise ValidationError("triangle inequality fails")

    @cached_property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        elements = tuple(range(self.order))
        return tuple(elements[a:] + elements[:a] for a in self.elements())

    @cached_property
    def inv(self) -> tuple[int, ...]:
        return tuple(-a % self.order for a in range(self.order))

    @cached_property
    def metric(self) -> tuple[tuple[Fraction, ...], ...]:
        return _table(self.row)

    @cached_property
    def int_metric(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(L, table) with table[a][b] = L * d(a, b), L the common denominator."""
        unit = math.lcm(*(v.denominator for v in self.row))
        scaled = tuple(v.numerator * (unit // v.denominator) for v in self.row)
        return unit, _table(scaled)

    def elements(self) -> range:
        return range(self.order)


def cyclic(m: int, row: Sequence[Fraction] | None = None) -> FiniteGroup:
    """Z/m with the normalized circle metric, or with the metric row f = d(0, .)."""
    from .errors import ValidationError

    if m < 1:
        raise ValidationError("cyclic group order must be positive")
    if row is None:
        half = max(m // 2, 1)
        return FiniteGroup(m, tuple(Fraction(min(k, m - k), half) for k in range(m)), "Z/%d" % m)
    row = tuple(map(Fraction, row))
    text = ",".join("%d/%d" % (v.numerator, v.denominator) for v in row)
    return FiniteGroup(m, row, "Z/%d, metric %s" % (m, text))


def trivial() -> FiniteGroup:
    return FiniteGroup(1, (Fraction(0),), "trivial")
