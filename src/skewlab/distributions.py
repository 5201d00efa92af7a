"""Empirical distributions on finite metric spaces and the transport metric.

Everything downstream compares name statistics through the Kantorovich
(earth mover) distance, so this module pins down the three ingredients:
the finite metric spaces names live on, exact rational empirical
distributions over them, and an exact transport solver.  The solver
cancels common mass first (for metric ground costs the value depends only
on the difference measure), takes a closed-form path under the discrete
metric, and otherwise runs successive shortest paths on the bipartite
transportation graph.  Values are exact rationals; transport runs on
common-denominator integers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .errors import SpaceMismatch, ValidationError
from .groups import FiniteGroup


# ---------------------------------------------------------------------------
# metric spaces


@dataclass(frozen=True)
class DiscreteSpace:
    """Any hashables, distance 0/1."""

    def dist(self, a, b) -> Fraction:
        return Fraction(0) if a == b else Fraction(1)

    @property
    def discrete(self) -> bool:
        return True


@dataclass(frozen=True)
class GroupSpace:
    """Elements of a finite group under its bi-invariant metric."""

    group: FiniteGroup

    def dist(self, a, b) -> Fraction:
        return self.group.metric[a][b]

    @property
    def discrete(self) -> bool:
        return self.group.discrete


@dataclass(frozen=True)
class LabelGroupSpace:
    """Joint name coordinates (label, group element).

    Coordinate metric: 1 when the labels differ, the group metric
    otherwise.  Labels are open-ended ints so distributions from systems
    with different alphabets stay comparable.
    """

    group: FiniteGroup

    def dist(self, a, b) -> Fraction:
        if a[0] != b[0]:
            return Fraction(1)
        return self.group.metric[a[1]][b[1]]

    @property
    def discrete(self) -> bool:
        return self.group.discrete


@dataclass(frozen=True)
class BlockSpace:
    """Fixed-length tuples over a coordinate space, max metric."""

    coord: object
    length: int

    def dist(self, a, b) -> Fraction:
        if len(a) != self.length or len(b) != self.length:
            raise SpaceMismatch("block length mismatch")
        best = Fraction(0)
        cd = self.coord.dist
        for x, y in zip(a, b):
            d = cd(x, y)
            if d > best:
                best = d
                if best >= 1:
                    break
        return best

    @property
    def discrete(self) -> bool:
        return self.coord.discrete


# ---------------------------------------------------------------------------
# empirical distributions


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Finitely supported probability vector with exact rational weights.

    Construct through from_weights; weights are stored sorted by key so
    equal distributions compare (and serialize) identically.
    """

    space: object
    weights: tuple[tuple[object, Fraction], ...]

    def __post_init__(self) -> None:
        total = Fraction(0)
        for _, w in self.weights:
            if w <= 0:
                raise ValidationError("weights must be positive")
            total += w
        if total != 1:
            raise ValidationError("weights must sum to 1")

    @staticmethod
    def from_weights(space, mapping: Mapping) -> "EmpiricalDistribution":
        total = Fraction(0)
        items = []
        for key, w in mapping.items():
            w = Fraction(w)
            if w < 0:
                raise ValidationError("negative weight at %r" % (key,))
            if w > 0:
                items.append((key, w))
                total += w
        if total <= 0:
            raise ValidationError("distribution has no mass")
        items.sort(key=lambda kv: kv[0])
        return EmpiricalDistribution(space, tuple((k, w / total) for k, w in items))

    def weight(self, key) -> Fraction:
        for k, w in self.weights:
            if k == key:
                return w
        return Fraction(0)

    def support(self) -> tuple:
        return tuple(k for k, _ in self.weights)

    def as_dict(self) -> dict:
        return dict(self.weights)


def _solve_transport(
    supply: list[tuple[object, Fraction]],
    demand: list[tuple[object, Fraction]],
    dist: Callable,
) -> Fraction:
    """Exact min-cost transport by successive shortest augmenting paths.

    Masses are scaled by the LCM D of their denominators and costs by the
    LCM L of theirs, so Dijkstra, the potentials, the bottlenecks and the
    flow all run on ints; the optimum is total / (D * L).  Scaling by
    positive constants keeps every comparison, so each augmenting path is
    the one the same algorithm would pick on the Fractions.

    Nodes: 0 = source, 1..ns = suppliers, ns+1..ns+nd = consumers,
    ns+nd+1 = sink.  Johnson potentials keep reduced costs nonnegative so
    Dijkstra stays valid.  Ties break on node index.
    """
    ns = len(supply)
    nd = len(demand)
    n_nodes = ns + nd + 2
    src = 0
    snk = ns + nd + 1

    mass_scale = math.lcm(*(w.denominator for _, w in supply), *(w.denominator for _, w in demand))
    cost_sd = [[dist(a, b) for b, _ in demand] for a, _ in supply]
    cost_scale = math.lcm(*(c.denominator for row in cost_sd for c in row))
    for row in cost_sd:
        row[:] = [c.numerator * (cost_scale // c.denominator) for c in row]

    remaining_supply = [w.numerator * (mass_scale // w.denominator) for _, w in supply]
    remaining_demand = [w.numerator * (mass_scale // w.denominator) for _, w in demand]
    # flow on supplier->consumer arcs (reverse residuals derived from it)
    flow = [[0] * nd for _ in range(ns)]
    potential = [0] * n_nodes
    total_cost = 0
    left = sum(remaining_supply)

    while left > 0:
        dist_to = [None] * n_nodes
        prev = [None] * n_nodes
        dist_to[src] = 0
        heap = [(0, src)]
        while heap:
            d_u, u = heapq.heappop(heap)
            if d_u > dist_to[u]:
                continue
            if u == src:
                for i in range(ns):
                    if remaining_supply[i] > 0:
                        v = 1 + i
                        w = d_u + potential[src] - potential[v]
                        if dist_to[v] is None or w < dist_to[v]:
                            dist_to[v] = w
                            prev[v] = (src, None)
                            heapq.heappush(heap, (w, v))
            elif u <= ns:
                i = u - 1
                base = d_u + potential[u]
                row = cost_sd[i]
                for j in range(nd):
                    v = 1 + ns + j
                    w = base + row[j] - potential[v]
                    if dist_to[v] is None or w < dist_to[v]:
                        dist_to[v] = w
                        prev[v] = (u, ("f", i, j))
                        heapq.heappush(heap, (w, v))
            elif u != snk:
                j = u - 1 - ns
                base = d_u + potential[u]
                if remaining_demand[j] > 0:
                    w = base - potential[snk]
                    if dist_to[snk] is None or w < dist_to[snk]:
                        dist_to[snk] = w
                        prev[snk] = (u, None)
                        heapq.heappush(heap, (w, snk))
                for i in range(ns):
                    if flow[i][j] > 0:
                        v = 1 + i
                        w = base - cost_sd[i][j] - potential[v]
                        if dist_to[v] is None or w < dist_to[v]:
                            dist_to[v] = w
                            prev[v] = (u, ("b", i, j))
                            heapq.heappush(heap, (w, v))
        if dist_to[snk] is None:
            raise ValidationError("transport network disconnected")  # pragma: no cover
        for v in range(n_nodes):
            if dist_to[v] is not None:
                potential[v] += dist_to[v]
        # walk the path, find bottleneck
        path = []
        v = snk
        while v != src:
            u, arc = prev[v]
            path.append((u, v, arc))
            v = u
        path.reverse()
        bottleneck = left
        for u, v, arc in path:
            if u == src:
                bottleneck = min(bottleneck, remaining_supply[v - 1])
            elif v == snk:
                bottleneck = min(bottleneck, remaining_demand[u - 1 - ns])
            elif arc[0] == "b":
                bottleneck = min(bottleneck, flow[arc[1]][arc[2]])
        for u, v, arc in path:
            if u == src:
                remaining_supply[v - 1] -= bottleneck
            elif v == snk:
                remaining_demand[u - 1 - ns] -= bottleneck
            elif arc[0] == "f":
                flow[arc[1]][arc[2]] += bottleneck
                total_cost += bottleneck * cost_sd[arc[1]][arc[2]]
            else:
                flow[arc[1]][arc[2]] -= bottleneck
                total_cost -= bottleneck * cost_sd[arc[1]][arc[2]]
        left -= bottleneck
    return Fraction(total_cost, mass_scale * cost_scale)


def kantorovich(
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    *,
    method: str = "auto",
) -> Fraction:
    """Exact Kantorovich distance between two distributions on one space.

    method="auto" cancels common mass and uses the discrete closed form
    when available; method="flow" forces the general solver (used by the
    cross-checking tests).
    """
    if d1.space != d2.space:
        raise SpaceMismatch("distributions live on different spaces")
    if d1.weights == d2.weights:
        return Fraction(0)
    a = d1.as_dict()
    b = d2.as_dict()
    supply = []
    demand = []
    for k in sorted(set(a) | set(b)):
        wa = a.get(k, Fraction(0))
        wb = b.get(k, Fraction(0))
        if wa > wb:
            supply.append((k, wa - wb))
        elif wb > wa:
            demand.append((k, wb - wa))
    if not supply:
        return Fraction(0)
    if method == "auto" and d1.space.discrete:
        return sum((w for _, w in supply), Fraction(0))
    return _solve_transport(supply, demand, d1.space.dist)
