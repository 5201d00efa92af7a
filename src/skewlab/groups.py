"""The groups of the construction: Z/m with a bi-invariant metric.

Over one base cycle an extension is ergodic only when its lap generates
the group (README, "Why only cyclic groups"), so only a cyclic group can
pass a construction.  A group is its order m and its metric row
f = d(0, .), Fractions normalized so the diameter is at most 1; addition
mod m and d(a, b) = f(b - a) make it a group with a bi-invariant
metric by construction.  The library computes on Z/m directly (0 is
the identity, -a mod m the inverse); its inner loops read two tables
built from the two fields on first use, mul and int_metric, the metric
scaled by the common denominator L.  cyclic equips Z/m with
the normalized circle distance min(k, m - k) / floor(m / 2) unless given
another row; for m <= 2 (and for rows that are 0/1 valued) the metric is
discrete, and several downstream routines take a cheaper path then.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import ValidationError
from .records import Record


class FiniteGroup(Record):
    order: int
    row: tuple[Fraction, ...]
    name: str = "group"
    _uncompared = ("name",)

    def __post_init__(self) -> None:
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
    def int_metric(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(L, table) with table[a][b] = L * d(a, b), L the common denominator.

        Row a is the scaled row f moved right by a: f((b - a) mod m) at b.
        """
        unit, m = math.lcm(*(v.denominator for v in self.row)), self.order
        f = tuple(v.numerator * (unit // v.denominator) for v in self.row)
        return unit, tuple(f[m - a :] + f[: m - a] for a in range(m))

    def elements(self) -> range:
        return range(self.order)


def cyclic(m: int, row: Sequence[Fraction] | None = None) -> FiniteGroup:
    """Z/m with the normalized circle metric, or with the metric row f = d(0, .)."""
    if m < 1:
        raise ValidationError("cyclic group order must be positive")
    if row is None:
        half = max(m // 2, 1)
        return FiniteGroup(m, tuple(Fraction(min(k, m - k), half) for k in range(m)), "Z/%d" % m)
    row = tuple(map(Fraction, row))
    text = []
    for i, v in enumerate(row):
        try:
            text.append("%d/%d" % (v.numerator, v.denominator))
        except ValueError:  # past the interpreter's limit on int digits
            raise ValidationError("metric entry %d has too many digits to name" % i) from None
    return FiniteGroup(m, row, "Z/%d, metric %s" % (m, ",".join(text)))


def trivial() -> FiniteGroup:
    return FiniteGroup(1, (Fraction(0),), "trivial")
