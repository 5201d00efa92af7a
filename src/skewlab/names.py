"""Exact integer kernel for name statistics.

A name is read along a walk: point x carries a label, steps to nxt[x],
and multiplies the group coordinate on the left by inc[x].  The name
from (x, g) is the name from (x, e) right-translated by g, so every
count over all fibres follows from the identity fibre alone; a name
that starts at e is called canonical.  Canonical names are identified
by integer class ids computed with Karp-Miller-Rosenberg doubling (a
name of length a+b is the a-name, then the b-name from the a-th point
right-translated by the accumulated group element), and tuples are
built only once per class, where a distribution is handed out.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .distributions import EmpiricalDistribution, NameSpace
from .errors import NameWorkTooLarge
from .groups import FiniteGroup
from .records import Record

# a distribution builds classes * |G| * length name entries; metrics at
# the limit (n = 8192 on a 32-point Z/8 pair) takes 2 s and 324 MiB
NAME_WORK_LIMIT = 2**21


def prefix_products(group: FiniteGroup, skew: Sequence[int]) -> tuple[int, ...]:
    """P[0] = e and P[t+1] = skew[t mod N] * P[t] for t < 2N."""
    mul = group.mul
    n = len(skew)
    out = [group.identity]
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
            if length & 1:
                acc = block if acc is None else self._join(acc, block)
            length >>= 1
            if not length:
                return acc[0]
            block = self._join(block, block)

    def _join(self, a: tuple, b: tuple) -> tuple:
        """(ids, count, jump, offset) of the names of block a followed by block b.

        The b-part starts at a's jump and is right-translated by a's
        offset, so the triple (a-id, b-id there, offset) names the join.
        """
        a_ids, _, a_jump, a_off = a
        b_ids, b_count, b_jump, b_off = b
        mul = self.group.mul
        m = self.group.order
        points = range(len(a_jump))
        ids, count = _rank((a_ids[x] * b_count + b_ids[a_jump[x]]) * m + a_off[x] for x in points)
        return (
            ids,
            count,
            [b_jump[y] for y in a_jump],
            [mul[b_off[a_jump[x]]][a_off[x]] for x in points],
        )

    def name(self, x: int, length: int) -> tuple:
        """(label, group) name of the given length from (x, e)."""
        mul = self.group.mul
        w = self.group.identity
        out = []
        for _ in range(length):
            out.append((self.labels[x], w))
            w = mul[self.inc[x]][w]
            x = self.nxt[x]
        return tuple(out)

    def distribution(
        self, length: int, starts: Sequence[int], ids: Sequence[int] | None = None
    ) -> EmpiricalDistribution:
        """Distribution over every fibre of the names from the given start points.

        Names live on the NameSpace of the given length.  One name tuple
        is built per class; ids are the classes of this length when the
        caller already has them.  NameWorkTooLarge when the names on
        every fibre exceed NAME_WORK_LIMIT entries.
        """
        if ids is None:
            ids = self.classes(length)
        seen: dict[int, list[int]] = {}  # class id -> [first start, count]
        for x in starts:
            seen.setdefault(ids[x], [x, 0])[1] += 1
        work = len(seen) * self.group.order * length
        if work > NAME_WORK_LIMIT:
            raise NameWorkTooLarge("%d name entries exceed the limit %d" % (work, NAME_WORK_LIMIT))
        fibre = {self.name(x, length): k for x, k in seen.values()}
        space = NameSpace(self.group, length)
        return EmpiricalDistribution.from_counts(space, _all_fibres(fibre, self.group))


def _all_fibres(counts: Mapping[tuple, int], group: FiniteGroup) -> dict[tuple, int]:
    """Name counts over every fibre from the counts over the identity fibre."""
    mul = group.mul
    out: dict[tuple, int] = {}
    for name, k in counts.items():
        for h in group.elements():
            key = tuple((a, mul[g][h]) for a, g in name)
            out[key] = out.get(key, 0) + k
    return out


def primitive_period(word: Sequence[int]) -> int:
    """Number of distinct rotations of the cyclic word: the least divisor p
    of its length whose rotation by p gives the word back."""
    n = len(word)
    return next(p for p in range(1, n + 1) if n % p == 0 and word[p:] + word[:p] == word)
