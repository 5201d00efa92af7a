"""Iteration schedules, the factor and isomorphism loops, witnesses,
factor map checks, partition copies, and orbit seeding."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewlab import (
    ExtensionSystem,
    GeneratorCheckFailed,
    Infeasible,
    IterationSchedule,
    NoGoodOrbit,
    NotReachable,
    PartialSpeedup,
    TowerInfeasible,
    Twist,
    ValidationError,
    bootstrap_regular,
    complete_speedup,
    copy_partition,
    cyclic,
    ergodicity_certificate,
    run_factor,
    run_isomorphism,
    seed_from_orbit,
    total_extension_witness,
    trivial,
    verify_factor_map,
)
from skewlab.driver import _cylinder_sets
from skewlab.records import replace

import oracles


def marker_system(size, marker, group=None, flips=()):
    g = group if group is not None else trivial()
    return ExtensionSystem(
        size=size,
        labels=tuple(1 if x == marker else 0 for x in range(size)),
        group=g,
        skew=tuple(1 if x in flips else 0 for x in range(size)),
    )


def plain_schedule(size, budget, epsilons=(Fraction(1, 10), Fraction(1, 20))):
    return IterationSchedule(
        epsilon=Fraction(3, 10),
        epsilons=epsilons[:budget] if budget else epsilons[:1],
        steps=((4, Fraction(3, 10), 8, Fraction(3, 10)),),
        rectangles=((tuple(range(size)), (0,)),),
        budget=budget,
    )


# ---------------------------------------------------------------------------
# schedules


def test_schedule_accessors_cycle_and_clamp():
    s = IterationSchedule(
        epsilon=Fraction(1, 2),
        epsilons=(Fraction(1, 4), Fraction(1, 8)),
        steps=((2, Fraction(1, 4), 4, Fraction(1, 8)), (4, Fraction(1, 8), 8, Fraction(1, 16))),
        rectangles=(((0,), (0,)), ((1,), (0,))),
        budget=5,
    )
    assert s.step_for(0)[0] == 2
    assert s.step_for(7)[0] == 4
    assert s.eps_for(9) == Fraction(1, 8)
    assert s.rect_for(2) == ((0,), (0,))
    assert s.rect_for(3) == ((1,), (0,))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(budget=-1),
        dict(epsilon=Fraction(3, 2)),
        dict(epsilons=()),
        dict(epsilons=(Fraction(1, 8), Fraction(1, 4))),
        dict(epsilons=(Fraction(1, 4), Fraction(1, 4))),
        dict(steps=()),
        dict(steps=((8, Fraction(1, 4), 4, Fraction(1, 8)),)),
        dict(steps=((4, Fraction(0), 8, Fraction(1, 8)),)),
        dict(rectangles=()),
    ],
)
def test_schedule_validation(kwargs):
    base = dict(
        epsilon=Fraction(1, 2),
        epsilons=(Fraction(1, 4), Fraction(1, 8)),
        steps=((4, Fraction(1, 8), 8, Fraction(1, 16)),),
        rectangles=(((0,), (0,)),),
        budget=2,
    )
    base.update(kwargs)
    with pytest.raises(ValidationError):
        IterationSchedule(**base)


def test_schedule_refuses_an_n1_off_the_multiples_of_n():
    with pytest.raises(ValidationError, match="^n1 must be a multiple of n$"):
        IterationSchedule(
            epsilon=Fraction(1, 2),
            epsilons=(Fraction(1, 4),),
            steps=((8, Fraction(1, 8), 12, Fraction(1, 16)),),
            rectangles=(((0,), (0,)),),
            budget=1,
        )


def test_schedule_strict_gates():
    def schedule(epsilon, step_delta, rectangles=1):
        return IterationSchedule(
            epsilon=epsilon,
            epsilons=(Fraction(1, 8), Fraction(1, 16)),
            steps=((4, step_delta, 8, Fraction(1, 40)),),
            rectangles=tuple(((x,), (0,)) for x in range(rectangles)),
            budget=2,
            strict=True,
        )

    assert schedule(Fraction(1, 2), Fraction(1, 40)).strict
    # each refusal is the only gate its schedule misses
    with pytest.raises(ValidationError, match="^iteration tolerances must sum below epsilon/2$"):
        schedule(Fraction(1, 4), Fraction(1, 40))
    with pytest.raises(
        ValidationError, match="^delta must stay below half the iteration tolerance$"
    ):
        schedule(Fraction(1, 2), Fraction(1, 16))
    with pytest.raises(ValidationError, match="^budget too small for every rectangle to recur$"):
        schedule(Fraction(1, 2), Fraction(1, 40), rectangles=3)


# ---------------------------------------------------------------------------
# bootstrap and completion


def test_bootstrap_trims_to_block_multiple():
    src = marker_system(48, 20)
    sp, cert = bootstrap_regular(src, src.labels, 4, Fraction(3, 10), Fraction(2, 5))
    assert sp.exponent == tuple(1 if x < 47 else 0 for x in range(48))
    assert cert.height == 48


def test_bootstrap_change_gate():
    src = marker_system(10, 9)
    # height 8, trimmed mass (10 - 8 + 1)/10 = 3/10 not below epsilon/2
    with pytest.raises(Infeasible):
        bootstrap_regular(src, src.labels, 4, Fraction(1, 2), Fraction(1, 2))


def test_bootstrap_too_small():
    src = marker_system(3, 2)
    with pytest.raises(Infeasible):
        bootstrap_regular(src, src.labels, 4, Fraction(1, 2), Fraction(1, 2))


def test_bootstrap_unbalanced_track_refused():
    # a flip right at the chain start piles every rung onto one fiber
    src = marker_system(64, 63, group=cyclic(2), flips=(0,))
    with pytest.raises(Infeasible) as exc:
        bootstrap_regular(src, src.labels, 4, Fraction(3, 10), Fraction(2, 5))
    assert "condition 4" in str(exc.value)


def test_complete_trimmed_rotation_is_rotation():
    src = marker_system(10, 9)
    sp, _ = bootstrap_regular(src, src.labels, 2, Fraction(1, 2), Fraction(1, 2))
    comp = complete_speedup(sp)
    assert comp.exponent == (1,) * 10


def test_complete_total_returns_same_object():
    ext = marker_system(6, 5)
    unit = PartialSpeedup(ext, (1,) * 6, 1)
    assert complete_speedup(unit) is unit


def test_complete_constant_two_stays_constant():
    ext = ExtensionSystem(size=6, labels=(0,) * 6, group=trivial(), skew=(0,) * 6)
    comp = complete_speedup(PartialSpeedup(ext, (2, 2, 2, 0, 0, 0), 2))
    assert comp.exponent == (2,) * 6
    assert comp.k_max == 2


def test_complete_images_stay_disjoint():
    ext = ExtensionSystem(size=12, labels=(0,) * 12, group=trivial(), skew=(0,) * 12)
    sp = PartialSpeedup(ext, (3, 1, 2, 0, 1, 1, 0, 2, 0, 1, 0, 0), 3)
    comp = complete_speedup(sp)
    assert all(comp.exponent)
    images = [(x + k) % 12 for x, k in enumerate(comp.exponent)]
    assert sorted(images) == list(range(12))
    for x in sp.domain():
        assert comp.exponent[x] == sp.exponent[x]


# ---------------------------------------------------------------------------
# witnesses


def test_witness_rotation_by_two_splits():
    ext = ExtensionSystem(size=6, labels=(0,) * 6, group=trivial(), skew=(0,) * 6)
    comp = complete_speedup(PartialSpeedup(ext, (2, 2, 2, 0, 0, 0), 2))
    w = total_extension_witness(comp)
    assert not w.ergodic
    assert w.cycle_length == 3
    assert w.splitting_point == (1, 0)


def test_witness_flip_parity():
    g2 = cyclic(2)
    odd = ExtensionSystem(size=4, labels=(0,) * 4, group=g2, skew=(1, 0, 0, 0))
    even = ExtensionSystem(size=4, labels=(0,) * 4, group=g2, skew=(1, 0, 1, 0))
    wo = total_extension_witness(PartialSpeedup(odd, (1,) * 4, 1))
    we = total_extension_witness(PartialSpeedup(even, (1,) * 4, 1))
    assert wo.ergodic and wo.cycle_length == 8
    assert not we.ergodic and we.cycle_length == 4
    assert we.splitting_point == (0, 1)


@given(st.data())
def test_witness_matches_the_product_orbit_walk(data):
    # the witness sums the increments of the base orbit of 0; the oracle walks
    # the orbit of (0, 0) on [N] x Z/m, exponents of up to three laps included
    m = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 10))
    skew = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    ext = ExtensionSystem(size=n, labels=(0,) * n, group=cyclic(m), skew=skew)
    image = data.draw(st.permutations(range(n)))
    laps = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    exponent = tuple(((image[x] - x) % n or n) + laps[x] * n for x in range(n))
    sp = PartialSpeedup(ext, exponent, max(exponent))
    w = total_extension_witness(sp)
    assert (w.ergodic, w.cycle_length, w.splitting_point) == oracles.product_orbit_walk(sp)


def test_witness_requires_total():
    ext = marker_system(6, 5)
    with pytest.raises(ValidationError):
        total_extension_witness(PartialSpeedup(ext, (1, 1, 1, 1, 1, 0), 1))


def test_certificate_full_cycle_matches_everything():
    ext = ExtensionSystem(size=6, labels=(0,) * 6, group=trivial(), skew=(0,) * 6)
    full = PartialSpeedup(ext, (1,) * 6, 1)
    a, b = ergodicity_certificate(full, [((0, 1, 2), (3, 4, 5)), ((0,), (0,))], Fraction(0))
    assert a.pieces == ((0, 3, 3), (1, 3, 4), (2, 3, 5))
    assert a.matched == 1
    assert b.pieces == ((0, 0, 0),)


def test_certificate_split_orbit_unreachable():
    ext = ExtensionSystem(size=6, labels=(0,) * 6, group=trivial(), skew=(0,) * 6)
    rot2 = complete_speedup(PartialSpeedup(ext, (2, 2, 2, 0, 0, 0), 2))
    with pytest.raises(NotReachable):
        ergodicity_certificate(rot2, [((0,), (1,))], Fraction(1, 10))


def test_certificate_validation():
    ext = ExtensionSystem(size=6, labels=(0,) * 6, group=trivial(), skew=(0,) * 6)
    full = PartialSpeedup(ext, (1,) * 6, 1)
    with pytest.raises(ValidationError):
        ergodicity_certificate(full, [((), (1,))], Fraction(0))
    part = PartialSpeedup(ext, (1, 1, 1, 1, 1, 0), 1)
    with pytest.raises(ValidationError):
        ergodicity_certificate(part, [((0,), (1,))], Fraction(0))


# ---------------------------------------------------------------------------
# factor maps and partition copying


@pytest.fixture
def eight_cycle():
    ext = marker_system(8, 7)
    return ext, PartialSpeedup(ext, (1,) * 8, 1)


def test_verify_factor_map_identity(eight_cycle):
    ext, big = eight_cycle
    verify_factor_map(big, ext, tuple(range(8)), 0)


def test_verify_factor_map_chain_break(eight_cycle):
    ext, big = eight_cycle
    with pytest.raises(ValidationError) as exc:
        verify_factor_map(big, ext, (0, 2, 3), 0)
    assert "position 0" in str(exc.value)


def test_verify_factor_map_off_domain_point():
    # off the domain the step table stays put with the identity, which
    # must not pass for a chain that repeats the point
    ext = marker_system(8, 7)
    big = PartialSpeedup(ext, (1, 1, 1, 0, 1, 1, 1, 1), 1)
    with pytest.raises(ValidationError) as exc:
        verify_factor_map(big, ext, (3, 3), 0)
    assert "position 0" in str(exc.value)


def test_verify_factor_map_skew_mismatch():
    g2 = cyclic(2)
    flat = ExtensionSystem(size=8, labels=(0,) * 8, group=g2, skew=(0,) * 8)
    target = ExtensionSystem(
        size=8, labels=(0, 0, 0, 0, 0, 0, 0, 1), group=g2, skew=(1,) + (0,) * 7
    )
    big = PartialSpeedup(flat, (1,) * 8, 1)
    with pytest.raises(ValidationError) as exc:
        verify_factor_map(big, target, (0, 1, 2), 0)
    assert "skewing mismatch" in str(exc.value)


def test_copy_constant_partition_is_exact(eight_cycle):
    ext, big = eight_cycle
    copied, dist = copy_partition(big, ext.labels, ext, (0,) * 8, tuple(range(8)), 0, 4)
    assert copied == (0,) * 8
    assert dist == 0


def test_copy_pullback_round_trips(eight_cycle):
    ext, big = eight_cycle
    q = (0, 1, 1, 0, 2, 2, 0, 1)
    copied, dist = copy_partition(big, ext.labels, ext, q, tuple(range(8)), 0, 4)
    assert copied == q
    assert dist == 0


def test_copy_fills_uncovered_points_with_largest_atom(eight_cycle):
    ext, big = eight_cycle
    copied, _ = copy_partition(
        big, ext.labels, ext, (5, 5, 5, 5, 7, 7, 7, 7), tuple(range(6)), 0, 4
    )
    assert copied == (5, 5, 5, 5, 7, 7, 5, 5)


def test_copy_validation(eight_cycle):
    ext, big = eight_cycle
    with pytest.raises(TowerInfeasible):
        copy_partition(big, ext.labels, ext, (0,) * 8, tuple(range(8)), 0, 9)


def test_cylinder_sets_enumeration():
    assert _cylinder_sets((0, 1, 0, 1), 4, 3) == [(0, 2), (1, 3), (0, 2)]
    assert _cylinder_sets((0, 0, 0, 1), 4, 4) == [(0, 1, 2), (3,), (0, 1), (2,)]


# ---------------------------------------------------------------------------
# the loops


def test_factor_budget_zero_is_bootstrap():
    src = marker_system(48, 20)
    res = run_factor(src, src, src.labels, plain_schedule(48, 0))
    assert res.speedup.exponent == (1,) * 48
    assert res.log.reports == ()
    assert res.beta.values == (0,) * 48
    assert res.log.change_mass == 0
    assert res.log.change_bound == Fraction(1, 48)
    assert res.log.witness.ergodic and res.log.witness.cycle_length == 48
    assert res.steps == ()


def test_factor_returns_its_steps():
    g2 = cyclic(2)
    target = marker_system(48, 47, group=g2, flips=(0,))
    source = marker_system(48, 47, group=g2, flips=(24,))
    res = run_factor(target, source, source.labels, plain_schedule(48, 2))
    assert len(res.steps) == 2
    assert res.log.reports == tuple(s.report for s in res.steps)
    assert res.labels == res.steps[-1].labels
    assert res.speedup == complete_speedup(res.steps[-1].twisted)
    assert res.beta == Twist.compose(res.steps[1].alpha, res.steps[0].alpha, g2)


def test_factor_constant_self_pair_fixed_point():
    c = ExtensionSystem(size=32, labels=(0,) * 32, group=trivial(), skew=(0,) * 32)
    res = run_factor(c, c, c.labels, plain_schedule(32, 2))
    assert [r.name_distance for r in res.log.reports] == [0, 0]
    assert [r.twist_size for r in res.log.reports] == [0, 0]
    assert res.log.change_mass == 0
    assert res.labels == c.labels
    assert res.log.witness.ergodic


def test_factor_marker_pair_converges():
    target = marker_system(48, 47)
    source = marker_system(48, 20)
    res = run_factor(target, source, source.labels, plain_schedule(48, 2))
    assert [r.name_distance for r in res.log.reports] == [Fraction(1, 6), Fraction(1, 6)]
    assert res.log.change_mass == 0
    assert res.log.witness.ergodic and res.log.witness.cycle_length == 48
    assert len(res.steps[-1].chain) == 48
    assert res.steps[-1].model.start == 0
    for rep, eps in zip(res.log.reports, (Fraction(1, 10), Fraction(1, 20))):
        assert rep.twist_size < eps


def test_factor_accumulated_twist_composes():
    g2 = cyclic(2)
    target = marker_system(64, 63, group=g2, flips=(32,))
    source = marker_system(64, 63, group=g2, flips=(20,))
    res = run_factor(target, source, source.labels, plain_schedule(64, 1))
    twisted = res.speedup.parent
    expected = Twist.compose(res.beta, Twist.identity(64), g2)
    assert expected == res.beta
    for x in range(64):
        acc = expected.values[(x + 1) % 64]
        assert twisted.skew[x] == (acc + source.skew[x] - expected.values[x]) % 2


def test_isomorphism_tracks_generators():
    target = marker_system(48, 47)
    source = marker_system(48, 20)
    res = run_isomorphism(
        target, source, source.labels, plain_schedule(48, 2), copy_zeta=Fraction(1, 2)
    )
    assert [r.name_distance for r in res.log.reports] == [Fraction(1, 6), Fraction(1, 6)]
    assert len(res.log.generator) == 2
    for rec in res.log.generator:
        assert rec.defect <= rec.bound
        assert rec.defect == Fraction(1, 48)
        assert rec.window == 0
        assert rec.copy_distance == Fraction(1, 12)
    assert res.log.separation_failure == 0


def test_isomorphism_hook_leaves_the_construction_alone():
    # generator tracking only reads the loop's steps: both loops build the
    # same steps and speedup and the same log apart from the tracking entries
    g2 = cyclic(2)
    target = marker_system(48, 47, group=g2, flips=(0,))
    source = marker_system(48, 47, group=g2, flips=(24,))
    plain = run_factor(target, source, source.labels, plain_schedule(48, 2))
    tracked = run_isomorphism(target, source, source.labels, plain_schedule(48, 2))
    assert len(tracked.log.generator) == 2
    for field in ("speedup", "labels", "beta", "steps"):
        assert getattr(tracked, field) == getattr(plain, field)
    assert replace(tracked.log, generator=(), separation_failure=None) == plain.log


def test_isomorphism_needs_separating_target():
    c = ExtensionSystem(size=16, labels=(0,) * 16, group=trivial(), skew=(0,) * 16)
    with pytest.raises(GeneratorCheckFailed):
        run_isomorphism(c, c, c.labels, plain_schedule(16, 1))


# ---------------------------------------------------------------------------
# orbit seeding


def test_seed_identical_constant_systems():
    c = ExtensionSystem(size=16, labels=(0,) * 16, group=trivial(), skew=(0,) * 16)
    labels, alpha = seed_from_orbit(c, c, 16, Fraction(1, 10), n=4)
    assert labels == c.labels
    assert set(alpha.values) == {0}


def test_seed_marker_segment_carries_marker():
    m = marker_system(16, 15)
    labels, alpha = seed_from_orbit(m, m, 16, Fraction(1, 10), n=4)
    assert labels == (0,) * 13 + (1, 0, 0)
    assert set(alpha.values) == {0}


def test_seed_shorter_segment_leaves_junk_tail():
    m = marker_system(16, 15)
    big = marker_system(24, 23)
    labels, _ = seed_from_orbit(m, big, 16, Fraction(1, 10), n=4)
    assert labels[:16] == (0,) * 13 + (1, 0, 0)
    assert labels[16:] == (2,) * 8


def test_seed_matches_skewing_on_twisted_source():
    # after twisting, the source's group track reads exactly like the
    # copied target segment's
    g2 = cyclic(2)
    target = marker_system(16, 15, group=g2, flips=(8,))
    source = marker_system(16, 15, group=g2, flips=(5,))
    labels, alpha = seed_from_orbit(target, source, 16, Fraction(1, 2), n=4)
    from skewlab import twist

    twisted = twist(source, alpha)
    word = twisted.walk().name(0, 16)
    expect_start = next(
        x for x in range(16)
        if tuple(target.labels[(x + i) % 16] for i in range(16)) == labels
    )
    expect = target.walk().name(expect_start, 16)
    assert [g for _, g in word] == [g for _, g in expect]
    assert [labels[i] for i in range(16)] == [a for a, _ in expect]


def test_seed_refuses_bad_statistics():
    m = marker_system(16, 15)
    with pytest.raises(NoGoodOrbit):
        seed_from_orbit(m, m, 8, Fraction(1, 100), n=4)


def test_seed_validation():
    m = marker_system(16, 15)
    with pytest.raises(ValidationError):
        seed_from_orbit(m, m, 2, Fraction(1, 10), n=4)
    with pytest.raises(ValidationError):
        seed_from_orbit(m, m, 17, Fraction(1, 10), n=4)
    for n in (0, -3):
        with pytest.raises(ValidationError):
            seed_from_orbit(m, m, 8, Fraction(1, 10), n=n)
    z2 = marker_system(16, 15, group=cyclic(2))
    with pytest.raises(ValidationError):
        seed_from_orbit(z2, m, 16, Fraction(1, 10), n=4)


def test_replace_builds_through_the_checks():
    schedule = plain_schedule(16, 1)
    assert replace(schedule, strict=False) == schedule
    assert replace(schedule, budget=2).budget == 2
    with pytest.raises(ValidationError, match="budget must be nonnegative"):
        replace(schedule, budget=-1)
    with pytest.raises(TypeError, match="steps_per_lap"):
        replace(schedule, steps_per_lap=2)
