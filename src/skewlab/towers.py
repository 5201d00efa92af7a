"""Ladders: constant-height speedup towers sliced into blocks.

A regular speedup's domain is a tower of equal-height columns; a ladder
slices it into consecutive blocks of a fixed length, which the
improvement step threads its new orbit through.  broken_fraction
measures the ladder mass on which a second speedup departs from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NotMultiple, ValidationError
from .systems import PartialSpeedup


@dataclass(frozen=True)
class Ladder:
    """Constant-height speedup tower sliced into length-n blocks."""

    speedup: PartialSpeedup
    n: int
    starts: tuple[int, ...]

    def block(self, start: int) -> tuple[int, ...]:
        pts = [start]
        z = start
        for _ in range(self.n - 1):
            z = self.speedup.base_image(z)
            pts.append(z)
        return tuple(pts)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.block(s) for s in self.starts)

    def mass(self) -> Fraction:
        return Fraction(len(self.starts) * self.n, self.speedup.size)


def ladder(speedup: PartialSpeedup, base: Sequence[int], height: int, n: int) -> Ladder:
    """Slice the tower over the given base into consecutive n-blocks.

    The block at the top observes the tower's last level, whose points
    are outside the speedup domain; only the n-1 interior steps of each
    block use the exponent.
    """
    if n < 1:
        raise ValidationError("block length must be positive")
    if height % n != 0:
        raise NotMultiple("height %d is not a multiple of %d" % (height, n))
    starts = []
    for b in base:
        z = b
        for i in range(height):
            if i % n == 0:
                starts.append(z)
            if i < height - 1:
                z = speedup.base_image(z)
    return Ladder(speedup, n, tuple(sorted(starts)))


def broken_fraction(lad: Ladder, other: PartialSpeedup) -> Fraction:
    """Mass of ladder blocks on which the two speedups disagree.

    A block is broken when any of its first n-1 points leaves the other
    speedup's domain or moves by a different exponent; all n points of
    a broken block count toward the mass.
    """
    if other.parent.size != lad.speedup.parent.size:
        raise ValidationError("speedups act on different bases")
    broken = 0
    for start in lad.starts:
        pts = lad.block(start)
        for z in pts[:-1]:
            if other.exponent[z] != lad.speedup.exponent[z]:
                broken += 1
                break
    return Fraction(broken * lad.n, lad.speedup.size)
