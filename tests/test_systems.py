"""Extensions, cocycles, twists, speedups, and their name statistics."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewlab import (
    ErgodicityWitness,
    ExtensionSystem,
    OutOfDomain,
    PartialSpeedup,
    RegularityRefusal,
    Twist,
    ValidationError,
    apply_speedup,
    check_extension_ergodic,
    cocycle_product,
    cyclic,
    name_distribution,
    power_domain,
    speedup_name_distribution,
    trivial,
    twist,
    twist_size,
)

import oracles
from conftest import tiny_extension


def random_extension(rng, size, order):
    g = cyclic(order) if order > 1 else trivial()
    return ExtensionSystem(
        size=size,
        labels=tuple(rng.randrange(2) for _ in range(size)),
        group=g,
        skew=tuple(rng.randrange(order) for _ in range(size)),
    )


# ---------------------------------------------------------------------------
# construction


def test_extension_validation():
    g = cyclic(2)
    with pytest.raises(ValidationError):
        ExtensionSystem(size=3, labels=(0, 1), group=g, skew=(0, 0, 0))
    with pytest.raises(ValidationError):
        ExtensionSystem(size=2, labels=(0, 1), group=g, skew=(0, 5))


# ---------------------------------------------------------------------------
# cocycle products


def test_cocycle_single_factor():
    ext = tiny_extension(size=8, flip_at=(2, 5))
    for x in range(8):
        assert cocycle_product(ext, x, 1) == ext.skew[x]
    with pytest.raises(ValidationError):
        cocycle_product(ext, 3, 0)


def test_cocycle_constant_one_in_z4():
    g = cyclic(4)
    ext = ExtensionSystem(size=5, labels=(0,) * 5, group=g, skew=(1,) * 5)
    assert cocycle_product(ext, 0, 3) == 3


def test_cocycle_depth_two_identity():
    ext = tiny_extension(size=10, flip_at=(0, 3, 7))
    g = ext.group
    for x in range(10):
        two = cocycle_product(ext, x, 2)
        chained = g.mul[cocycle_product(ext, (x + 1) % 10, 1)][cocycle_product(ext, x, 1)]
        assert two == chained


@given(st.data())
def test_cocycle_composition(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    size = data.draw(st.integers(2, 12))
    order = data.draw(st.integers(1, 5))
    ext = random_extension(rng, size, order)
    a = data.draw(st.integers(1, 8))
    b = data.draw(st.integers(1, 8))
    g = ext.group
    for x in range(size):
        whole = cocycle_product(ext, x, a + b)
        split = g.mul[cocycle_product(ext, (x + b) % size, a)][cocycle_product(ext, x, b)]
        assert whole == split


# ---------------------------------------------------------------------------
# twists


def test_twist_identity_is_noop():
    ext = tiny_extension()
    alpha = Twist.identity(ext.size, ext.group)
    assert twist(ext, alpha).skew == ext.skew
    assert twist_size(alpha, ext.group) == 0


def test_twist_constant_abelian_is_noop():
    g = cyclic(4)
    ext = ExtensionSystem(size=6, labels=(0,) * 6, group=g, skew=(1, 0, 2, 3, 0, 1))
    alpha = Twist((2,) * 6)
    assert twist(ext, alpha).skew == ext.skew


def test_twist_composition_law():
    rng = random.Random(3)
    ext = random_extension(rng, 9, 4)
    g = ext.group
    alpha = Twist(tuple(rng.randrange(4) for _ in range(9)))
    beta = Twist(tuple(rng.randrange(4) for _ in range(9)))
    once = twist(twist(ext, alpha), beta)
    composed = twist(ext, Twist.compose(beta, alpha, g))
    assert once.skew == composed.skew


def test_twist_conjugates_the_cocycle():
    # the twisted k-step product is alpha(x+k) sigma_k(x) alpha(x)^-1
    rng = random.Random(17)
    ext = random_extension(rng, 10, 3)
    g = ext.group
    alpha = Twist(tuple(rng.randrange(3) for _ in range(10)))
    twisted = twist(ext, alpha)
    for x in range(10):
        for k in range(1, 5):
            lhs = cocycle_product(twisted, x, k)
            mid = cocycle_product(ext, x, k)
            rhs = g.mul[alpha.values[(x + k) % 10]][g.mul[mid][g.inv[alpha.values[x]]]]
            assert lhs == rhs


def test_twist_size_counts_moved_points():
    g = cyclic(2)
    alpha = Twist((0, 1, 0, 1))
    assert twist_size(alpha, g) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# ergodicity


def test_trivial_group_always_ergodic():
    ext = tiny_extension(size=7, group=trivial(), flip_at=(), marker_at=(0,))
    assert check_extension_ergodic(ext).ergodic


def test_zero_skew_splits():
    ext = tiny_extension(size=6, flip_at=())
    w = check_extension_ergodic(ext)
    assert not w.ergodic


def test_odd_flip_count_is_ergodic():
    for flips in [(0,), (0, 2, 4)]:
        ext = tiny_extension(size=6, flip_at=flips)
        w = check_extension_ergodic(ext)
        assert w.ergodic
        assert w.cycle_length == 12


def test_even_flip_count_splits():
    ext = tiny_extension(size=6, flip_at=(0, 3))
    assert not check_extension_ergodic(ext).ergodic


def test_lap_witness_matches_the_subgroup_walk():
    for m in range(1, 17):
        group = cyclic(m)
        for lap in range(m):
            w = ErgodicityWitness.of_lap(group, lap, 5)
            assert (w.ergodic, w.cycle_length, w.splitting_point) == oracles.subgroup_walk(m, lap, 5)


# ---------------------------------------------------------------------------
# speedups


def test_unit_speedup_is_one_step():
    ext = tiny_extension(size=8, flip_at=(1, 6))
    sp = PartialSpeedup(ext, (1,) * 8, 1)
    for x in range(8):
        for g in (0, 1):
            assert apply_speedup(sp, (x, g)) == ext.step(x, g)


def test_speedup_right_action_commutes():
    # moving the fiber by h after the jump equals jumping from the moved fiber
    rng = random.Random(29)
    g4 = cyclic(4)
    ext = ExtensionSystem(
        size=10,
        labels=tuple(rng.randrange(2) for _ in range(10)),
        group=g4,
        skew=tuple(rng.randrange(4) for _ in range(10)),
    )
    for c in (1, 2, 3):
        sp = PartialSpeedup(ext, (c,) * 10, 3)
        for x in range(10):
            for g in g4.elements():
                for h in g4.elements():
                    x1, g1 = apply_speedup(sp, (x, g))
                    x2, g2 = apply_speedup(sp, (x, g4.mul[g][h]))
                    assert x1 == x2
                    assert g2 == g4.mul[g1][h]


def test_speedup_two_step_frozen():
    # N=6, k(0)=2, alternating flips: (0,0) jumps over 1 and picks up
    # skew(1)*skew(0) = 1, landing at (2,1); point 1 leaves the domain
    # so the induced base map stays injective
    g = cyclic(2)
    ext = ExtensionSystem(size=6, labels=(0,) * 6, group=g, skew=(0, 1, 0, 1, 0, 1))
    sp = PartialSpeedup(ext, (2, 0, 1, 1, 1, 1), 2)
    assert apply_speedup(sp, (0, 0)) == (2, 1)


def test_speedup_rejects_merging_chains():
    ext = tiny_extension(size=6, flip_at=(0,))
    with pytest.raises(ValidationError):
        PartialSpeedup(ext, (2, 1, 1, 1, 1, 1), 2)


def test_speedup_out_of_domain():
    ext = tiny_extension(size=4, flip_at=(0,))
    sp = PartialSpeedup(ext, (1, 0, 1, 1), 1)
    with pytest.raises(OutOfDomain):
        apply_speedup(sp, (1, 0))


def test_power_domain_shrinks_along_chain():
    ext = tiny_extension(size=6, flip_at=(0,))
    sp = PartialSpeedup(ext, (1, 1, 1, 1, 1, 0), 1)
    assert power_domain(sp, 0) == tuple(range(6))
    assert power_domain(sp, 1) == (0, 1, 2, 3, 4)
    assert power_domain(sp, 2) == (0, 1, 2, 3)
    assert set(power_domain(sp, 2)) <= set(power_domain(sp, 1))


def test_power_domain_keeps_cycles_inside_the_domain():
    # 0 -> 2 -> 4 -> 0 is a cycle; 1 -> 3 ends off the domain
    ext = tiny_extension(size=6, flip_at=(0,))
    sp = PartialSpeedup(ext, (2, 2, 2, 0, 2, 0), 2)
    assert power_domain(sp, 1) == (0, 1, 2, 4)
    assert power_domain(sp, 2) == (0, 2, 4)
    assert power_domain(sp, 100) == (0, 2, 4)


def test_speedup_name_length_one_needs_no_step():
    ext = tiny_extension(size=4, flip_at=(0,))
    sp = PartialSpeedup(ext, (1, 1, 1, 0), 1)
    # the open top point still has a length-1 name
    assert sp.walk(ext.labels).name(3, 1) == ((ext.labels[3], 0),)


def test_name_distribution_independent_recount():
    rng = random.Random(41)
    ext = random_extension(rng, 9, 3)
    n = 3
    counts = {}
    for x in range(9):
        for g in range(3):
            gg = g
            nm = []
            y = x
            for _ in range(n):
                nm.append((ext.labels[y], gg))
                y, gg = ext.step(y, gg)
            # the walk above steps once too often; names observe the
            # final coordinate without stepping, also checked here
            key = tuple(nm)
            counts[key] = counts.get(key, 0) + 1
    expect = {k: Fraction(v, 27) for k, v in counts.items()}
    got = name_distribution(ext, n).as_dict()
    assert got == expect


def test_name_distribution_right_translation_symmetric():
    rng = random.Random(43)
    ext = random_extension(rng, 8, 4)
    g = ext.group
    d = name_distribution(ext, 3)
    for h in g.elements():
        moved = {}
        for nm, w in d.as_dict().items():
            key = tuple((a, g.mul[gg][h]) for a, gg in nm)
            moved[key] = moved.get(key, Fraction(0)) + w
        assert moved == d.as_dict()


def test_speedup_name_distribution_explicit_starts():
    ext = tiny_extension(size=6, flip_at=(0,))
    sp = PartialSpeedup(ext, (1,) * 6, 1)
    d_all = speedup_name_distribution(sp, ext.labels, 2)
    d_some = sp.walk(ext.labels).distribution(2, (0, 1))
    assert set(d_some.support()) <= set(d_all.support())
    # an empty domain leaves no start point
    with pytest.raises(ValidationError):
        speedup_name_distribution(PartialSpeedup(ext, (0,) * 6, 1), ext.labels, 2)


def test_unit_speedup_names_match_extension_names():
    rng = random.Random(47)
    ext = random_extension(rng, 10, 2)
    sp = PartialSpeedup(ext, (1,) * 10, 1)
    assert (
        speedup_name_distribution(sp, ext.labels, 4).as_dict()
        == name_distribution(ext, 4).as_dict()
    )


def test_records_are_frozen_and_keep_their_cached_state():
    ext = tiny_extension()
    with pytest.raises(AttributeError, match="'size'"):
        ext.size = 5
    with pytest.raises(AttributeError, match="'labels'"):
        del ext.labels
    with pytest.raises(AttributeError, match="'colour'"):
        ext.colour = 1
    assert ext.size == 12
    # a cached property writes the instance dict, past the frozen __setattr__
    assert ext.prefix is ext.prefix and "prefix" in vars(ext)


def test_record_arguments_are_checked_like_a_signature():
    g = trivial()
    assert ExtensionSystem(2, (0, 1), g, (0, 0)) == ExtensionSystem(
        skew=(0, 0), group=g, labels=(0, 1), size=2
    )
    assert RegularityRefusal("c", "d") == RegularityRefusal("c", detail="d", measured=None)
    with pytest.raises(TypeError, match="missing skew"):
        ExtensionSystem(2, (0, 1), g)
    with pytest.raises(TypeError, match="colour"):
        ExtensionSystem(2, (0, 1), g, (0, 0), colour=1)
    with pytest.raises(TypeError, match="size"):
        ExtensionSystem(2, (0, 1), g, (0, 0), size=2)
    with pytest.raises(TypeError, match="not 5 positional"):
        ExtensionSystem(2, (0, 1), g, (0, 0), 1)
