"""Finite groups with a bi-invariant metric.

A group element is an index into the multiplication table.  The metric is
stored as a table of Fractions, normalized so the diameter is at most 1,
and is required to be invariant under left and right translation; its
integer form (int_metric) scales it by the common denominator L.  The
cyclic constructor equips Z/m with the normalized circle distance
rho(a, b) = min(|a - b|, m - |a - b|) / floor(m / 2); for m <= 2 (and for
arbitrary tables that happen to be 0/1 valued) the metric is discrete, and
several downstream routines take a cheaper path in that case.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Sequence

from .records import Record


def _gather(index: Sequence[int]) -> Callable[[Sequence], tuple]:
    """table -> tuple(table[i] for i in index), at C speed."""
    if len(index) == 1:
        return lambda table: (table[index[0]],)
    return itemgetter(*index)


def _generators(mul: Sequence[Sequence[int]], identity: int) -> list[int]:
    """Elements whose left-to-right products reach every element, picked greedily.

    Candidates come in index order with the identity last; each one not
    yet reached becomes a generator, and the elements reached so far are
    multiplied on the right by it, every new element by all generators.
    The set of b with (ab)c = a(bc) for all a, c is closed under products
    (Clifford and Preston 1961, 1.2), so checking b on the generators
    checks it everywhere.
    """
    m = len(mul)
    reached = [False] * m
    words: list[int] = []
    gens: list[int] = []
    for g in [a for a in range(m) if a != identity] + [identity]:
        if reached[g]:
            continue
        gens.append(g)
        queue = [g] + [mul[x][g] for x in words]
        for y in queue:
            if not reached[y]:
                reached[y] = True
                words.append(y)
                queue.extend(mul[y][h] for h in gens)
        if len(words) == m:
            break
    return gens


def _associative_at(mul: Sequence[Sequence[int]], b: int) -> bool:
    """(ab)c = a(bc) for all a and c: each row ab equals row a read through row b."""
    through = _gather(mul[b])
    return all(mul[row[b]] == through(row) for row in mul)


class FiniteGroup(Record):
    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    identity: int
    metric: tuple[tuple[Fraction, ...], ...]
    name: str = "group"
    _uncompared = ("name",)

    def __post_init__(self) -> None:
        from .errors import ValidationError

        m = self.order
        if m < 1:
            raise ValidationError("group order must be positive")
        if len(self.mul) != m or any(len(row) != m for row in self.mul):
            raise ValidationError("multiplication table must be order x order")
        if len(self.inv) != m or len(self.metric) != m:
            raise ValidationError("inverse and metric tables must have one row per element")
        if not (0 <= self.identity < m):
            raise ValidationError("identity index out of range")
        if not all(0 <= v < m for row in self.mul for v in row) or not all(
            0 <= v < m for v in self.inv
        ):
            raise ValidationError("group tables must hold element indices")
        mul = tuple(map(tuple, self.mul))
        metric = tuple(map(tuple, self.metric))
        inv, e = self.inv, self.identity
        for a in range(m):
            if mul[e][a] != a or mul[a][e] != a:
                raise ValidationError("identity fails on element %d" % a)
            if mul[inv[a]][a] != e or mul[a][inv[a]] != e:
                raise ValidationError("inverse fails on element %d" % a)
        # associativity: row (ab) must equal row a read through row b.  By
        # Light's test it is enough to check b on a generating set; when a
        # check fails, the full scan names the first failing triple.
        if not all(_associative_at(mul, b) for b in _generators(mul, e)):
            through = [_gather(row) for row in mul]
            for a in range(m):
                for b in range(m):
                    row_ab = mul[mul[a][b]]
                    row = through[b](mul[a])
                    if row != row_ab:
                        c = next(c for c in range(m) if row[c] != row_ab[c])
                        raise ValidationError("associativity fails at (%d, %d, %d)" % (a, b, c))
        # With f = d(e, .), two-sided invariance and the triangle inequality
        # reduce to O(m^2) statements about f (see README, "Group metrics").
        for a in range(m):
            if len(metric[a]) != m:
                raise ValidationError("metric row %d has wrong length" % a)
        f = metric[e]
        if f[e] != 0:
            raise ValidationError("metric not zero on diagonal")
        for g in range(m):
            if g != e and f[g] <= 0:
                raise ValidationError("metric not positive off diagonal")
            if f[g] > 1:
                raise ValidationError("metric exceeds 1")
            if f[g] != f[inv[g]]:
                raise ValidationError("metric not symmetric")
        # left invariance: d(a, b) = f(a^-1 b)
        for a in range(m):
            if metric[a] != _gather(mul[inv[a]])(f):
                raise ValidationError("metric not left invariant")
        # right invariance: f is a class function, f(c^-1 g c) = f(g)
        column = list(zip(*mul))
        for c in range(m):
            if _gather(_gather(mul[inv[c]])(column[c]))(f) != f:
                raise ValidationError("metric not right invariant")
        # triangle inequality: f(gh) <= f(g) + f(h), on the integer metric
        scaled = self.int_metric[1][e]
        for g, fg in enumerate(scaled):
            if any(fgh > fg + fh for fgh, fh in zip(_gather(mul[g])(scaled), scaled)):
                raise ValidationError("triangle inequality fails")

    @cached_property
    def int_metric(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(L, table) with table[a][b] = L * d(a, b), L the common denominator.

        Rows are read off f = d(e, .) by left invariance, d(a, b) = f(a^-1 b).
        """
        f = self.metric[self.identity]
        unit = math.lcm(*(v.denominator for v in f))
        scaled = tuple(v.numerator * (unit // v.denominator) for v in f)
        return unit, tuple(_gather(self.mul[a])(scaled) for a in self.inv)

    def elements(self) -> range:
        return range(self.order)


def cyclic(m: int) -> FiniteGroup:
    """Z/m with the normalized circle metric."""
    from .errors import ValidationError

    if m < 1:
        raise ValidationError("cyclic group order must be positive")
    elements = tuple(range(m))
    mul = tuple(elements[a:] + elements[:a] for a in range(m))
    inv = tuple((-a) % m for a in range(m))
    half = max(m // 2, 1)
    f = tuple(Fraction(min(k, m - k), half) for k in range(m))
    # d(a, b) = f((b - a) mod m): row a is f rotated right by a
    metric = tuple(f[m - a :] + f[: m - a] for a in range(m))
    return FiniteGroup(m, mul, inv, 0, metric, name="Z/%d" % m)


def trivial() -> FiniteGroup:
    return FiniteGroup(1, ((0,),), (0,), 0, ((Fraction(0),),), name="trivial")


def from_tables(
    mul: Sequence[Sequence[int]],
    metric: Sequence[Sequence[Fraction]] | None = None,
    name: str = "group",
) -> FiniteGroup:
    """Build a group from a multiplication table, deriving identity and inverses.

    Without an explicit metric the discrete one is used.
    """
    from .errors import ValidationError

    m = len(mul)
    table = tuple(tuple(int(v) for v in row) for row in mul)
    identity = None
    for e in range(m):
        if all(table[e][a] == a and table[a][e] == a for a in range(m)):
            identity = e
            break
    if identity is None:
        raise ValidationError("no identity element in table")
    inv = []
    for a in range(m):
        found = None
        for b in range(m):
            if table[a][b] == identity and table[b][a] == identity:
                found = b
                break
        if found is None:
            raise ValidationError("element %d has no inverse" % a)
        inv.append(found)
    if metric is None:
        rho = tuple(
            tuple(Fraction(0) if a == b else Fraction(1) for b in range(m))
            for a in range(m)
        )
    else:
        rho = tuple(tuple(Fraction(v) for v in row) for row in metric)
    return FiniteGroup(m, table, tuple(inv), identity, rho, name=name)
