"""Empirical distributions on finite metric spaces and the transport metric.

Everything downstream compares name statistics through the Kantorovich
(earth mover) distance, so this module pins down the three ingredients:
the two metric spaces (plain keys and names), empirical distributions
over them held as integer counts, and an exact transport solver.  The
solver cancels common mass first (for metric ground costs the value
depends only on the difference measure), takes a closed-form path under
the discrete metric, and otherwise runs the primal-dual method on the
spaces' integer distances (common denominator L, at most L + 1 phases).
Values are exact rationals; transport runs on integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .errors import SpaceMismatch, ValidationError
from .groups import FiniteGroup
from .records import Record


# ---------------------------------------------------------------------------
# metric spaces
#
# Each space has one integer distance int_dist with values in [0, unit],
# where unit is the common denominator of its distances; dist is
# int_dist / unit.


class _Scaled(Record):
    def dist(self, a, b) -> Fraction:
        return Fraction(self.int_dist(a, b), self.unit)

    @property
    def discrete(self) -> bool:
        """True when the metric only takes the values 0 and 1."""
        return self.unit == 1


class DiscreteSpace(_Scaled):
    """Any hashables, distance 0/1."""

    unit = 1

    def int_dist(self, a, b) -> int:
        return 0 if a == b else 1


class NameSpace(_Scaled):
    """Names of one length: tuples of (label, group element) coordinates.

    Two coordinates are 1 apart when their labels differ and at the group
    distance otherwise; two names are as far apart as their farthest
    coordinates.  Labels are open-ended ints so distributions from
    systems with different alphabets stay comparable.
    """

    group: FiniteGroup
    length: int

    @property
    def unit(self) -> int:
        return self.group.int_metric[0]

    def int_dist(self, a, b) -> int:
        if len(a) != self.length or len(b) != self.length:
            raise SpaceMismatch("name length mismatch")
        unit, table = self.group.int_metric
        best = 0
        for (x, g), (y, h) in zip(a, b):
            d = unit if x != y else table[g][h]
            if d > best:
                # no coordinate is farther than distance 1 (= unit)
                if d >= unit:
                    return unit
                best = d
        return best


# ---------------------------------------------------------------------------
# empirical distributions


class EmpiricalDistribution(Record):
    """Finitely supported probability vector, held as integer counts.

    counts pairs each key with a positive int, sorted by key and reduced
    by the counts' gcd, so distributions with equal proportions are equal;
    the weight of a key is its count over total.  Construct through
    from_counts or from_weights.
    """

    space: object
    counts: tuple[tuple[object, int], ...]
    total: int

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValidationError("distribution has no mass")
        if any(type(c) is not int or c <= 0 for _, c in self.counts):
            raise ValidationError("counts must be positive integers")
        if math.gcd(*(c for _, c in self.counts)) != 1:
            raise ValidationError("counts must be reduced by their gcd")
        if self.total != sum(c for _, c in self.counts):
            raise ValidationError("total must be the sum of the counts")

    @staticmethod
    def from_counts(space, mapping: Mapping) -> "EmpiricalDistribution":
        """Distribution proportional to nonnegative integer counts."""
        items = []
        for key, c in mapping.items():
            if c < 0:
                raise ValidationError("negative count at %r" % (key,))
            if c:
                items.append((key, c))
        items.sort(key=lambda kv: kv[0])
        g = math.gcd(*(c for _, c in items))
        if g > 1:
            items = [(k, c // g) for k, c in items]
        return EmpiricalDistribution(space, tuple(items), sum(c for _, c in items))

    @staticmethod
    def from_weights(space, mapping: Mapping) -> "EmpiricalDistribution":
        """Distribution proportional to nonnegative rational weights."""
        weights = {}
        for key, w in mapping.items():
            w = Fraction(w)
            if w < 0:
                raise ValidationError("negative weight at %r" % (key,))
            weights[key] = w
        scale = math.lcm(*(w.denominator for w in weights.values()))
        return EmpiricalDistribution.from_counts(
            space, {k: w.numerator * (scale // w.denominator) for k, w in weights.items()}
        )

    @cached_property
    def weights(self) -> tuple[tuple[object, Fraction], ...]:
        """(key, exact weight) pairs in key order."""
        return tuple((k, Fraction(c, self.total)) for k, c in self.counts)

    def weight(self, key) -> Fraction:
        for k, c in self.counts:
            if k == key:
                return Fraction(c, self.total)
        return Fraction(0)

    def support(self) -> tuple:
        return tuple(k for k, _ in self.counts)

    def as_dict(self) -> dict:
        return dict(self.weights)


def _solve_transport(
    supply: list[tuple[object, int]],
    demand: list[tuple[object, int]],
    scale: int,
    space,
) -> Fraction:
    """Exact min-cost transport by the primal-dual method (AMO 1993, 9.8).

    Masses are integers over the common scale D and costs are the
    space's integer distances (unit L), so all work is on ints and the
    optimum is total / (D * L).  Nodes 0..ns-1 are the suppliers and
    ns..ns+nd-1 the consumers.

    Potentials keep every residual reduced cost c(u, v) + p(u) - p(v)
    nonnegative.  A phase runs one dense Dijkstra on reduced costs from
    the suppliers with mass left, stops once the sink's distance is final
    and adds to each potential its distance capped at the sink's, which
    keeps reduced costs nonnegative for the nodes it did not reach.  It
    then augments along zero-reduced-cost paths (BFS) until none is left.
    Suppliers with mass left keep potential 0, so the sink's potential is
    the cost of the current cheapest augmenting path: it rises by at
    least 1 per phase and never exceeds L (a direct arc costs at most L),
    so there are at most L + 1 phases.
    """
    ns = len(supply)
    nd = len(demand)
    mass = [w for _, w in supply + demand]
    cost = [[space.int_dist(a, b) for b, _ in demand] for a, _ in supply]
    # flow on supplier->consumer arcs; the reverse arc is residual while it is positive
    flow = [[0] * nd for _ in range(ns)]
    pot = [0] * (ns + nd)
    pot_t = total = 0
    for _ in range(space.unit + 1):
        if not any(mass[:ns]):
            break
        key = [0 if m else math.inf for m in mass[:ns]] + [math.inf] * nd
        final = [None] * (ns + nd)
        sink = math.inf
        while (du := min(key)) < sink:
            u = key.index(du)
            key[u] = math.inf
            final[u] = du
            base = du + pot[u]
            if u < ns:
                arcs = zip(range(ns, ns + nd), cost[u])
            else:
                if mass[u]:
                    sink = min(sink, base - pot_t)
                arcs = ((i, -cost[i][u - ns]) for i in range(ns) if flow[i][u - ns])
            for v, c in arcs:
                if final[v] is None and base + c - pot[v] < key[v]:
                    key[v] = base + c - pot[v]
        pot = [p + (sink if d is None else d) for p, d in zip(pot, final)]
        pot_t += sink
        # forward arcs with zero reduced cost; every arc with flow is among them
        tight = [[j for j in range(nd) if row[j] + p == pot[ns + j]] for row, p in zip(cost, pot)]
        while True:
            # BFS from the suppliers with mass left to a consumer whose sink arc is tight
            reach = [None] * nd  # supplier that reached consumer j
            back = [-1 if m else None for m in mass[:ns]]  # consumer that reached supplier i
            queue = [i for i in range(ns) if mass[i]]
            end = None
            for i in queue:
                for j in tight[i]:
                    if reach[j] is None:
                        reach[j] = i
                        if mass[ns + j] and pot[ns + j] == pot_t:
                            end = j
                            break
                        for k in range(ns):
                            if back[k] is None and flow[k][j]:
                                back[k] = j
                                queue.append(k)
                if end is not None:
                    break
            if end is None:
                break
            path = []  # (supplier, consumer it feeds, consumer it takes back from or -1)
            j = end
            while j != -1:
                path.append((reach[j], j, back[reach[j]]))
                j = path[-1][2]
            root = path[-1][0]
            push = min(mass[root], mass[ns + end], *(flow[i][k] for i, _, k in path if k != -1))
            for i, j, k in path:
                flow[i][j] += push
                if k != -1:
                    flow[i][k] -= push
            mass[root] -= push
            mass[ns + end] -= push
            total += push * pot_t
    if any(mass[:ns]):
        raise ValidationError("transport needed more than L + 1 phases")  # pragma: no cover
    return Fraction(total, scale * space.unit)


def kantorovich(d1: EmpiricalDistribution, d2: EmpiricalDistribution) -> Fraction:
    """Exact Kantorovich distance between two distributions on one space.

    Common mass cancels first: each key carries the masses c1 * t2 and
    c2 * t1 over t1 * t2, on ints.  The discrete metric takes the closed
    form, every other space the transport solver.
    """
    if d1.space != d2.space:
        raise SpaceMismatch("distributions live on different spaces")
    if d1.counts == d2.counts:
        return Fraction(0)
    t1, t2 = d1.total, d2.total
    a = dict(d1.counts)
    b = dict(d2.counts)
    supply = []
    demand = []
    for k in sorted(a.keys() | b.keys()):
        diff = a.get(k, 0) * t2 - b.get(k, 0) * t1
        if diff > 0:
            supply.append((k, diff))
        elif diff < 0:
            demand.append((k, -diff))
    if d1.space.discrete:
        return Fraction(sum(w for _, w in supply), t1 * t2)
    return _solve_transport(supply, demand, t1 * t2, d1.space)
