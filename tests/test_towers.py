"""Towers, ladder slicing and broken-block mass."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewlab import (
    NotMultiple,
    PartialSpeedup,
    broken_fraction,
    ladder,
    tower,
)

from conftest import tiny_extension


def trimmed_rotation(size, top=None):
    """Rotation speedup with one open point, a single column of full height."""
    ext = tiny_extension(size=size, flip_at=(0,), marker_at=(size - 1,))
    top = size - 1 if top is None else top
    exponent = tuple(0 if x == top else 1 for x in range(size))
    return PartialSpeedup(ext, exponent, 1)


# the lowest twelve levels of the trimmed rotation of 13 points
TWELVE = (tuple(range(12)),)


# ---------------------------------------------------------------------------
# ladders


def test_ladder_block_equals_height_is_base():
    sp = trimmed_rotation(13, top=12)
    lad = ladder(sp, TWELVE, 12)
    assert lad.blocks == (tuple(range(12)),)


def test_ladder_unit_blocks_are_levels():
    sp = trimmed_rotation(13, top=12)
    lad = ladder(sp, TWELVE, 1)
    assert lad.blocks == tuple((x,) for x in range(12))


def test_ladder_twelve_by_four():
    sp = trimmed_rotation(13, top=12)
    lad = ladder(sp, TWELVE, 4)
    assert lad.blocks == (
        (0, 1, 2, 3),
        (4, 5, 6, 7),
        (8, 9, 10, 11),
    )


def test_ladder_rejects_non_multiple():
    sp = trimmed_rotation(11, top=10)
    columns, _ = tower(sp)
    assert len(columns[0]) == 11
    with pytest.raises(NotMultiple):
        ladder(sp, columns, 4)


def test_ladder_top_block_reaches_open_point():
    # the last block may end on the open top level: no step leaves it
    sp = trimmed_rotation(12, top=11)
    columns, _ = tower(sp)
    assert columns == (tuple(range(12)),)
    lad = ladder(sp, columns, 4)
    assert lad.blocks[-1] == (8, 9, 10, 11)


# ---------------------------------------------------------------------------
# broken mass


def test_broken_zero_for_same_speedup():
    sp = trimmed_rotation(13, top=12)
    lad = ladder(sp, TWELVE, 4)
    assert broken_fraction(lad, sp) == 0


def test_broken_everywhere():
    sp = trimmed_rotation(12, top=11)
    lad = ladder(sp, TWELVE, 4)
    ext = sp.parent
    other = PartialSpeedup(ext, (2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0), 2)
    assert broken_fraction(lad, other) == 1


def test_broken_single_block():
    sp = trimmed_rotation(13, top=12)
    lad = ladder(sp, TWELVE, 4)
    ext = sp.parent
    # disagree at point 5 only: the middle block carries the mass
    exponent = tuple(0 if x in (12, 5) else 1 for x in range(13))
    other = PartialSpeedup(ext, exponent, 1)
    assert broken_fraction(lad, other) == Fraction(4, 13)


def test_broken_ignores_block_tops():
    sp = trimmed_rotation(13, top=12)
    lad = ladder(sp, TWELVE, 4)
    ext = sp.parent
    # point 3 is the last level of the first block; no step starts there
    exponent = tuple(0 if x in (12, 3) else 1 for x in range(13))
    other = PartialSpeedup(ext, exponent, 1)
    assert broken_fraction(lad, other) == 0


@given(st.integers(2, 6), st.integers(1, 4))
def test_ladder_mass_formula(blocks, n):
    # the blocks partition the sliced levels, so the ladder holds blocks * n points
    size = blocks * n + 1
    sp = trimmed_rotation(size, top=size - 1)
    lad = ladder(sp, (tuple(range(blocks * n)),), n)
    assert len(lad.blocks) == blocks
    assert sorted(z for block in lad.blocks for z in block) == list(range(blocks * n))
