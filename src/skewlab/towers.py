"""The tower of a speedup domain, read once, and the ladders sliced from it.

A regular speedup's domain is a tower of equal-height columns; tower
walks them once off the speedup's step table.  A ladder slices the
columns into block tuples of a fixed length, which the improvement
step threads its new orbit through.  broken_fraction measures the
ladder mass on which a second exponent map departs from the first.
"""

from __future__ import annotations

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


def ladder(columns: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """Slice every column into consecutive n-blocks, in start order.

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
    return tuple(sorted(blocks))


def broken_fraction(blocks: Sequence[tuple], mine: Sequence[int], other: Sequence[int]) -> Fraction:
    """Mass of ladder blocks on which two exponent maps disagree.

    A block is broken when any of its points but the last moves by a
    different exponent under other than under mine; all points of a
    broken block count toward the mass.
    """
    if len(other) != len(mine):
        raise ValidationError("speedups act on different bases")
    broken = sum(len(block) for block in blocks if any(mine[z] != other[z] for z in block[:-1]))
    return Fraction(broken, len(mine))
