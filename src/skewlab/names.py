"""Exact integer kernel for name statistics.

A name is read along a walk: point x carries a label, steps to nxt[x],
and multiplies the group coordinate on the left by inc[x].  The name
from (x, g) is the name from (x, e) right-translated by g, so every
count over all fibres follows from the identity fibre alone; a name
that starts at e is called canonical.  Canonical names are identified
by integer class ids computed with Karp-Miller-Rosenberg doubling (a
name of length a+b is the a-name, then the b-name from the a-th point
right-translated by the accumulated group element).

Names holds the names of one length from a set of start points as
counts keyed by (class, translate), and Names.distance is the one
comparison of two such sets: under a discrete metric (every distance 0
or 1) the total variation of the counts, and otherwise the transport
distance of the names spelled out, one tuple per class.  Two walks laid
end to end (joint_names) give class ids that compare across them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .distributions import EmpiricalDistribution, NameSpace, kantorovich
from .errors import NameWorkTooLarge, SpaceMismatch, ValidationError
from .groups import FiniteGroup
from .records import Record, replace

# a distribution builds classes * |G| * length name entries; metrics at
# the limit (n = 8192 on a 32-point Z/8 pair) takes 2 s and 324 MiB
NAME_WORK_LIMIT = 2**21


def prefix_products(group: FiniteGroup, skew: Sequence[int]) -> tuple[int, ...]:
    """P[0] = e and P[t+1] = skew[t mod N] * P[t] for t < 2N."""
    mul = group.mul
    n = len(skew)
    out = [0]
    for t in range(2 * n):
        out.append(mul[skew[t % n]][out[t]])
    return tuple(out)


def _rank(keys: Iterable) -> tuple[list[int], int]:
    """Dense ids in order of first appearance, and how many there are."""
    rank: dict = {}
    ids = [rank.setdefault(k, len(rank)) for k in keys]
    return ids, len(rank)


class Walk(Record):
    """Labels, successor map and per-step group increments of a walk.

    Point x carries labels[x] and moves (x, g) to (nxt[x], inc[x] * g).
    """

    labels: Sequence
    nxt: Sequence[int]
    inc: Sequence[int]
    group: FiniteGroup

    def __post_init__(self) -> None:
        if not len(self.labels) == len(self.nxt) == len(self.inc):
            raise ValidationError("a walk needs one label, successor and increment per point")

    def classes(self, length: int) -> list[int]:
        """Class id of the canonical name of the given length from every point.

        Two points get the same id exactly when their canonical names
        are equal.  Blocks of length 2^j come from doubling and the
        blocks of the set bits of length are concatenated, so the work
        is O(points * log length).
        """
        if length < 1:
            return [0] * len(self.nxt)
        block = (*_rank(self.labels), list(self.nxt), list(self.inc))
        acc = None
        while True:
            # at length 1 the join is the last one, and only its ids are read
            if length & 1:
                acc = block if acc is None else self._join(acc, block, length == 1)
            length >>= 1
            if not length:
                return acc[0]
            block = self._join(block, block, length == 1)

    def _join(self, a: tuple, b: tuple, last: bool) -> tuple:
        """(ids, count, jump, offset) of the names of block a followed by block b.

        The b-part starts at a's jump and is right-translated by a's
        offset, so the triple (a-id, b-id there, offset) names the join.
        The last join leaves jump and offset out.
        """
        a_ids, _, a_jump, a_off = a
        b_ids, b_count, b_jump, b_off = b
        mul = self.group.mul
        m = self.group.order
        points = range(len(a_jump))
        ids, count = _rank((a_ids[x] * b_count + b_ids[a_jump[x]]) * m + a_off[x] for x in points)
        if last:
            return ids, count, None, None
        return (
            ids,
            count,
            [b_jump[y] for y in a_jump],
            [mul[b_off[a_jump[x]]][a_off[x]] for x in points],
        )

    def name(self, x: int, length: int) -> tuple:
        """(label, group) name of the given length from (x, e)."""
        mul = self.group.mul
        w = 0
        out = []
        for _ in range(length):
            out.append((self.labels[x], w))
            w = mul[self.inc[x]][w]
            x = self.nxt[x]
        return tuple(out)

    def names(
        self, length: int, starts: Sequence[int], ids: Sequence[int] | None = None
    ) -> "Names":
        """The names of the given length from the start points, on every fibre.

        ids are the classes of this length when the caller already has
        them.  NameWorkTooLarge when the names, one tuple per class and
        group element, would exceed NAME_WORK_LIMIT entries: the refusal
        is the same whether or not the tuples are then spelled.
        """
        if length < 1:
            raise ValidationError("name length must be positive")
        if ids is None:
            ids = self.classes(length)
        # equal ids are equal canonical names, so any start of a class spells it
        points = dict(zip(map(ids.__getitem__, starts), starts))
        work = len(points) * self.group.order * length
        if work > NAME_WORK_LIMIT:
            raise NameWorkTooLarge("%d name entries exceed the limit %d" % (work, NAME_WORK_LIMIT))
        counts = Counter(map(ids.__getitem__, starts))
        every = {(c, h): k for c, k in counts.items() for h in self.group.elements()}
        return Names(self, length, ids, every, points)

    def joint_names(
        self, other: "Walk", length: int, starts: Sequence[int], other_starts: Sequence[int]
    ) -> tuple["Names", "Names"]:
        """This walk's names from starts and other's from other_starts, comparable.

        They are read on the two walks laid end to end, other's points
        numbered from len(self.nxt), whose classes give equal ids to equal
        canonical names in either part.  SpaceMismatch unless both walks
        act on one group.
        """
        if other.group != self.group:
            raise SpaceMismatch("walks on different groups share no names")
        shift = len(self.nxt)
        joint = Walk(
            (*self.labels, *other.labels),
            (*self.nxt, *(y + shift for y in other.nxt)),
            (*self.inc, *other.inc),
            self.group,
        )
        ids = joint.classes(length)
        mine = joint.names(length, starts, ids)
        return mine, replace(joint.names(length, [shift + x for x in other_starts], ids), first=shift)


class Names(Record):
    """The names of one length read along a walk from some start points.

    counts maps (class id, h) to how many of the names are the canonical
    name of that class right-translated by h; points holds one point of
    each class, where its name is spelled.  A name from (x, h) is the
    canonical name from x right-translated by h, and canonical names
    start at e, so distinct keys stand for distinct names.  first is the
    walk's number for point 0 of the walk the names were read on: 0, or
    the first walk's length for the second record of joint_names.
    """

    walk: Walk
    length: int
    ids: Sequence[int]
    counts: Mapping[tuple[int, int], int]
    points: Mapping[int, int]
    first: int = 0

    def at(self, points: Sequence[int], offsets: Sequence[int]) -> "Names":
        """The names from the given points of the walk they were read on, each
        right-translated by its offset, on the same walk and ids."""
        ids, first = self.ids, self.first
        counts = Counter((ids[first + x], h) for x, h in zip(points, offsets))
        spelled = {ids[first + x]: first + x for x in points}
        return Names(self.walk, self.length, ids, counts, spelled, first)

    def distance(self, other: "Names") -> Fraction:
        """Transport distance between the two distributions of names.

        Class ids compare only on one walk, so SpaceMismatch unless both
        read the same walk at the same length.  Under a discrete metric
        (every distance 0 or 1) equal keys are the only names at distance
        0, so it is the total variation of the counts; otherwise
        kantorovich runs on the names spelled out.
        """
        if other.walk != self.walk or other.length != self.length:
            raise SpaceMismatch("names of different walks or lengths do not compare")
        if self.walk.group.int_metric[0] == 1:
            a, b = self.counts, other.counts
            ta, tb = sum(a.values()), sum(b.values())
            return Fraction(sum(max(0, c * tb - b.get(k, 0) * ta) for k, c in a.items()), ta * tb)
        return kantorovich(self.distribution, other.distribution)

    @cached_property
    def distribution(self) -> EmpiricalDistribution:
        """The names as tuples on NameSpace(group, length), each class spelled once."""
        mul = self.walk.group.mul
        spelled = {c: self.walk.name(x, self.length) for c, x in self.points.items()}
        out = {tuple((a, mul[g][h]) for a, g in spelled[c]): k for (c, h), k in self.counts.items()}
        return EmpiricalDistribution.from_counts(NameSpace(self.walk.group, self.length), out)


def primitive_period(word: Sequence[int]) -> int:
    """Number of distinct rotations of the cyclic word: the least divisor p
    of its length whose rotation by p gives the word back."""
    n = len(word)
    return next(p for p in range(1, n + 1) if n % p == 0 and word[p:] + word[:p] == word)
