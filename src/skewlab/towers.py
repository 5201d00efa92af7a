"""The tower of a speedup domain, read once, and the ladders sliced from it.

A regular speedup's domain is a tower of equal-height columns; tower
walks them once off the speedup's step table.  A ladder slices the
columns into consecutive blocks of a fixed length, which the
improvement step threads its new orbit through.  broken_fraction
measures the ladder mass on which a second speedup departs from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NotMultiple, ValidationError
from .systems import PartialSpeedup


def tower(speedup: PartialSpeedup) -> tuple[tuple[tuple[int, ...], ...], str | None]:
    """The columns of the constant-height tower carrying the speedup domain.

    Each column runs from a base point, which no domain point maps to,
    up to its top level, the first point outside the domain; columns
    come in base order.  Returns (columns, None), or ((), reason) when
    the domain is not such a tower.  The base map is injective, so a
    walk from a base never returns to an earlier point and leaves the
    domain within its size.
    """
    nxt, _ = speedup.step_table
    exponent = speedup.exponent
    dom = speedup.domain()
    images = {nxt[x] for x in dom}
    bases = [x for x in dom if x not in images]
    if not bases:
        return (), "domain has no entry points (a cycle)"
    columns = []
    for z in bases:
        column = [z]
        while exponent[z]:
            z = nxt[z]
            column.append(z)
        columns.append(tuple(column))
    if sum(len(c) - 1 for c in columns) != len(dom):
        return (), "domain contains points unreachable from any base"
    heights = {len(c) - 1 for c in columns}
    if len(heights) != 1:
        return (), "columns have unequal heights %s" % sorted(heights)
    return tuple(columns), None


@dataclass(frozen=True)
class Ladder:
    """Constant-height speedup tower sliced into length-n blocks, in start order."""

    speedup: PartialSpeedup
    n: int
    blocks: tuple[tuple[int, ...], ...]


def ladder(speedup: PartialSpeedup, columns: Sequence[Sequence[int]], n: int) -> Ladder:
    """Slice every column into consecutive n-blocks.

    The block at the top observes the tower's last level, whose points
    are outside the speedup domain; only the n-1 interior steps of each
    block use the exponent.
    """
    if n < 1:
        raise ValidationError("block length must be positive")
    blocks = []
    for column in columns:
        if len(column) % n != 0:
            raise NotMultiple("height %d is not a multiple of %d" % (len(column), n))
        blocks.extend(tuple(column[i : i + n]) for i in range(0, len(column), n))
    return Ladder(speedup, n, tuple(sorted(blocks)))


def broken_fraction(lad: Ladder, other: PartialSpeedup) -> Fraction:
    """Mass of ladder blocks on which the two speedups disagree.

    A block is broken when any of its first n-1 points leaves the other
    speedup's domain or moves by a different exponent; all n points of
    a broken block count toward the mass.
    """
    if other.parent.size != lad.speedup.parent.size:
        raise ValidationError("speedups act on different bases")
    mine, theirs = lad.speedup.exponent, other.exponent
    broken = sum(1 for block in lad.blocks if any(mine[z] != theirs[z] for z in block[:-1]))
    return Fraction(broken * lad.n, lad.speedup.size)
