"""Regularity certificates, model names, weaving cycles, and the
improvement step itself."""

from collections import Counter
from fractions import Fraction

import pytest

from skewlab import (
    Collision,
    DiscreteSpace,
    EmpiricalDistribution,
    ExtensionSystem,
    HypothesisDistance,
    IterationSchedule,
    ModelName,
    NameWorkTooLarge,
    PartialSpeedup,
    RegularityCertificate,
    RegularityRefusal,
    RegularityRejected,
    ScheduleInfeasible,
    SpaceMismatch,
    ValidationError,
    WindowSystem,
    apply_speedup,
    build_cycles,
    build_model_name,
    check_regular,
    cocycle_product,
    cyclic,
    improve,
    kantorovich,
    name_distribution,
    run_factor,
    speedup_name_distribution,
    trivial,
    twist,
)
from skewlab import improvement, names
from skewlab.driver import bootstrap_regular
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


def trimmed(ext, top=None):
    top = ext.size - 1 if top is None else top
    exponent = tuple(0 if x == top else 1 for x in range(ext.size))
    return PartialSpeedup(ext, exponent, 1)


# ---------------------------------------------------------------------------
# check_regular


def test_regular_single_column_certificate():
    ext = marker_system(60, 59)
    sp = trimmed(ext)
    cert = check_regular(sp, ext.labels, 4, Fraction(1, 4))
    assert isinstance(cert, RegularityCertificate)
    assert [c[0] for c in cert.columns] == [0]
    assert cert.height == 60
    assert cert.max_exponent == 1
    assert cert.domain_mass == Fraction(59, 60)
    assert cert.ladder_distance < Fraction(1, 4)
    # the trivial group's metric is discrete: condition 4 compares class counts,
    # so the certificate keeps no distribution, and the distance is transport's
    assert cert.names is None
    (per_h,) = oracles.ladder_distances_per_fibre(sp, ext.labels, 4)
    assert cert.ladder_distance == per_h[0]


def test_a_certificate_off_a_discrete_metric_carries_its_names():
    # Z/4's circle metric has distance 1/2: condition 4 runs on the distribution
    ext = marker_system(60, 59, group=cyclic(4), flips=(0,))
    sp = trimmed(ext)
    cert = check_regular(sp, ext.labels, 4, Fraction(9, 10))
    assert isinstance(cert, RegularityCertificate)
    assert cert.names == speedup_name_distribution(sp, ext.labels, 4)
    (per_h,) = oracles.ladder_distances_per_fibre(sp, ext.labels, 4)
    assert cert.ladder_distance == per_h[0] == Fraction(1, 2)


@pytest.mark.parametrize(
    "n, delta, message",
    [
        (0, Fraction(1, 4), "block length must be positive"),
        (4, Fraction(2), "delta must sit in (0,1)"),
        (4, Fraction(0), "delta must sit in (0,1)"),
    ],
    ids=["zero_block_length", "delta_above_one", "zero_delta"],
)
def test_regular_refuses_its_boundary(n, delta, message):
    ext = marker_system(60, 59)
    with pytest.raises(ValidationError) as exc:
        check_regular(trimmed(ext), ext.labels, n, delta)
    assert str(exc.value) == message


def test_regular_exponent_bound_refusal():
    ext = marker_system(12, 11)
    exponent = (2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0)
    sp = PartialSpeedup(ext, exponent, 2)
    out = check_regular(sp, ext.labels, 1, Fraction(1, 2), k_bound=1)
    assert isinstance(out, RegularityRefusal)
    assert out.condition == "condition 2"


def test_regular_height_multiplicity_refusal():
    ext = marker_system(11, 10)
    sp = trimmed(ext)  # height 11 once the open top is counted
    out = check_regular(sp, ext.labels, 4, Fraction(1, 2))
    assert isinstance(out, RegularityRefusal)
    assert out.condition == "condition 4"
    assert "multiple" in out.detail


def test_regular_cycle_refusal():
    ext = marker_system(8, 7)
    sp = PartialSpeedup(ext, (1,) * 8, 1)  # a full cycle has no tower base
    out = check_regular(sp, ext.labels, 2, Fraction(1, 2))
    assert isinstance(out, RegularityRefusal)
    assert out.condition == "condition 1"


def test_regular_fiber_purity_refusal():
    # two columns with different tower names break condition 3
    ext = ExtensionSystem(
        size=8,
        labels=(0, 0, 0, 1, 0, 0, 0, 0),
        group=trivial(),
        skew=(0,) * 8,
    )
    exponent = (1, 1, 1, 0, 1, 1, 1, 0)
    sp = PartialSpeedup(ext, exponent, 1)
    out = check_regular(sp, ext.labels, 2, Fraction(1, 2))
    assert isinstance(out, RegularityRefusal)
    assert out.condition == "condition 3"


def test_regular_ladder_distance_refusal():
    # strictly alternating labels make every rung read the same block
    # while the sliding distribution splits evenly: distance 1/2
    ext = ExtensionSystem(
        size=12,
        labels=(0, 1) * 6,
        group=trivial(),
        skew=(0,) * 12,
    )
    sp = trimmed(ext, top=11)
    out = check_regular(sp, ext.labels, 2, Fraction(1, 4))
    assert isinstance(out, RegularityRefusal)
    assert out.condition == "condition 4"
    assert out.measured is not None
    assert out.measured >= Fraction(1, 4)


def test_regular_domain_mass_refusal():
    ext = marker_system(12, 11)
    exponent = tuple(1 if x < 6 else 0 for x in range(12))
    sp = PartialSpeedup(ext, exponent, 1)
    out = check_regular(sp, ext.labels, 1, Fraction(1, 4))
    assert isinstance(out, RegularityRefusal)
    assert out.condition == "condition 5"


def test_regular_group_track_enters_rungs():
    # accumulated fiber offsets decide the rung statistics: a flip right
    # after the base leaves every rung on one side and fails; a flip at
    # the middle balances them and passes
    g2 = cyclic(2)
    bad = marker_system(64, 63, group=g2, flips=(0,))
    ok = marker_system(64, 63, group=g2, flips=(32,))
    out_bad = check_regular(trimmed(bad), bad.labels, 4, Fraction(3, 10))
    out_ok = check_regular(trimmed(ok), ok.labels, 4, Fraction(3, 10))
    assert isinstance(out_bad, RegularityRefusal)
    assert out_bad.condition == "condition 4"
    assert isinstance(out_ok, RegularityCertificate)


def test_certificate_validation():
    with pytest.raises(ValidationError):
        RegularityCertificate(
            n=4,
            delta=Fraction(1, 4),
            columns=(tuple(range(10)),),
            domain_mass=Fraction(9, 10),
            max_exponent=1,
            ladder_distance=Fraction(0),
        )
    with pytest.raises(ValidationError):
        RegularityCertificate(
            n=2,
            delta=Fraction(1, 4),
            columns=(),
            domain_mass=Fraction(9, 10),
            max_exponent=1,
            ladder_distance=Fraction(0),
        )


# ---------------------------------------------------------------------------
# window systems and weaving cycles


def test_window_system_validation():
    with pytest.raises(ValidationError):
        WindowSystem(length=3, span=10, starts=(0, 2))
    with pytest.raises(ValidationError):
        WindowSystem(length=3, span=4, starts=(0, 3))
    ws = WindowSystem(length=3, span=9, starts=(0, 3, 6))
    assert ws.count == 3
    assert ws.window(1, 2) == 5
    with pytest.raises(ValidationError):
        ws.window(0, 3)


def test_single_window_single_cycle():
    ws = WindowSystem(length=2, span=4, starts=(0, 2))
    cycles = build_cycles(ws, {0: [[0, 1]], 1: [[0, 1]]}, 2)
    assert len(cycles) == 1
    (stage,) = cycles[0].stages
    assert stage[0] == (0, 0)


def test_interior_window_multiplicity():
    p = 2
    w = 4 * p
    ws = WindowSystem(length=3, span=3 * w, starts=tuple(3 * s for s in range(w)))
    samples = {s: [[0, 1]] for s in range(w)}
    cycles = build_cycles(ws, samples, p)
    hits = Counter()
    for cyc in cycles:
        for (l, j), _ in cyc.stages:
            for i in range(p):
                hits[j * p + l + i] += 1
    for s in range(p - 1, w - p + 1):
        assert hits[s] == p, "interior window %d" % s
    assert hits[0] == 1 and hits[w - 1] == 1


def test_cycles_reject_position_collision():
    ws = WindowSystem(length=2, span=8, starts=(0, 2, 4, 6))
    samples = {s: [[0, 0], [0, 0]] for s in range(4)}
    with pytest.raises(Collision):
        build_cycles(ws, samples, 2)


def test_cycles_absolute_positions_increase():
    p = 2
    ws = WindowSystem(length=4, span=24, starts=(0, 4, 8, 12, 16, 20))
    samples = {s: [[1, 2]] for s in range(6)}
    cycles = build_cycles(ws, samples, p)
    for cyc in cycles:
        for (_, _), abs_pos in cyc.absolute(ws):
            assert list(abs_pos) == sorted(abs_pos)


def test_two_rounds_give_two_cycles():
    ws = WindowSystem(length=4, span=16, starts=(0, 4, 8, 12))
    samples = {s: [[0, 1], [2, 3]] for s in range(4)}
    cycles = build_cycles(ws, samples, 2)
    assert len(cycles) == 2
    assert cycles[0].index == 0 and cycles[1].index == 1


# ---------------------------------------------------------------------------
# model names


def test_model_constant_target_exact():
    tg = trivial()
    c = ExtensionSystem(size=32, labels=(0,) * 32, group=tg, skew=(0,) * 32)
    m = build_model_name(c, 8, length=32)
    assert set(m.labels) == {0}
    assert m.window_distance == 0
    assert m.block_distance == 0
    assert len(m.labels) == 32


def test_model_periodic_target_repeats_fundamental():
    tg = trivial()
    per = ExtensionSystem(size=16, labels=(0, 1, 1, 0) * 4, group=tg, skew=(0,) * 16)
    m = build_model_name(per, 4, length=16)
    assert m.labels == m.labels[:4] * 4


def test_model_validation():
    tg = trivial()
    c = ExtensionSystem(size=32, labels=(0,) * 32, group=tg, skew=(0,) * 32)
    sp, _ = bootstrap_regular(c, c.labels, 4, Fraction(3, 10), Fraction(2, 5))
    with pytest.raises(ValidationError, match="^n1 must be a multiple of n$"):
        improve(
            c, sp, c.labels, 4, Fraction(3, 10), 6, Fraction(1, 10),
            tuple(range(32)), (0,), Fraction(2, 5),
        )
    with pytest.raises(ValidationError, match="^length must be a positive multiple of n1$"):
        build_model_name(c, 8, length=28)
    with pytest.raises(ValidationError, match="^block length must be positive$"):
        build_model_name(c, 0, length=8)
    split = ExtensionSystem(
        size=8, labels=(0,) * 8, group=cyclic(2), skew=(0,) * 8
    )
    with pytest.raises(ValidationError, match="^target extension is not ergodic$"):
        build_model_name(split, 4, length=8)


def test_model_name_work_is_refused_before_the_start_search(monkeypatch):
    # the reference is the widest n1-distribution the model name counts, so its
    # refusal comes before the O(N * n1) start search it bounds
    target = marker_system(48, 47, group=cyclic(2), flips=(0,))
    work = len(set(target.walk().classes(8))) * 2 * 8
    monkeypatch.setattr(names, "NAME_WORK_LIMIT", work - 1)

    def no_search(*args):
        raise AssertionError("the start search ran")

    monkeypatch.setattr(improvement, "_choose_start", no_search)
    with pytest.raises(NameWorkTooLarge) as err:
        build_model_name(target, 8, length=32)
    assert str(err.value) == "%d name entries exceed the limit %d" % (work, work - 1)


@pytest.mark.parametrize("order", [2, 4])
def test_a_target_on_another_group_is_refused(order):
    # the source's Z/2 metric is discrete, Z/4's is not: either way the names do not compare
    source = marker_system(48, 47, group=cyclic(order), flips=(24,))
    target = marker_system(48, 47, group=cyclic(order + 1), flips=(0,))
    sp, _ = bootstrap_regular(source, source.labels, 4, Fraction(9, 10), Fraction(2, 5))
    with pytest.raises(SpaceMismatch):
        improve(
            target, sp, source.labels, 4, Fraction(9, 10), 8, Fraction(3, 10),
            tuple(range(48)), (0,), Fraction(2, 5),
        )


def test_model_strict_budget():
    target = marker_system(48, 47)
    source = marker_system(48, 20)
    sp, _ = bootstrap_regular(source, source.labels, 4, Fraction(3, 10), Fraction(2, 5))
    with pytest.raises(ScheduleInfeasible) as exc:
        improve(
            target, sp, source.labels, 4, Fraction(3, 10), 8, Fraction(1, 100),
            tuple(range(48)), (0,), Fraction(2, 5), strict=True,
        )
    assert str(exc.value) == "window distance 7/48 misses the strict budget 1/10000"


def test_model_strict_block_budget():
    # the window distance 7/1032 passes the budget 1/125, the block distance does not
    labels = tuple(map(int, "001110000010010110101000001100011111010100000011"))
    target = ExtensionSystem(48, labels, trivial(), (0,) * 48)
    source = ExtensionSystem(44, labels[:44], trivial(), (0,) * 44)
    sp, _ = bootstrap_regular(source, source.labels, 2, Fraction(1, 2), Fraction(1, 2))
    args = (
        target, sp, source.labels, 2, Fraction(1, 2), 2, Fraction(4, 5),
        tuple(range(44)), (0,), Fraction(1, 2),
    )
    model = improve(*args).model
    assert (model.window_distance, model.block_distance) == (Fraction(7, 1032), Fraction(5, 528))
    with pytest.raises(ScheduleInfeasible) as exc:
        improve(*args, strict=True)
    assert str(exc.value) == "block distance 5/528 misses the strict budget 1/125"


# ---------------------------------------------------------------------------
# the improvement step


def run_small_improve():
    tg = trivial()
    target = marker_system(48, 47)
    source = marker_system(48, 20)
    sp, _ = bootstrap_regular(source, source.labels, 4, Fraction(3, 10), Fraction(2, 5))
    return target, source, improve(
        target, sp, source.labels, 4, Fraction(3, 10), 8, Fraction(3, 10),
        tuple(range(48)), (0,), Fraction(2, 5),
    )


def test_improve_small_marker_all_conclusions():
    target, source, res = run_small_improve()
    r = res.report
    assert all(r.conclusions().values())
    assert r.name_distance == Fraction(1, 6)
    assert r.twist_size == 0
    assert r.broken_mass == 0
    assert len(res.chain) == 48


def test_improve_refuses_a_block_longer_than_the_tower():
    c = ExtensionSystem(size=16, labels=(0,) * 16, group=trivial(), skew=(0,) * 16)
    sp, _ = bootstrap_regular(c, c.labels, 4, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ScheduleInfeasible) as exc:
        improve(
            c, sp, c.labels, 4, Fraction(1, 2), 32, Fraction(1, 20),
            tuple(range(16)), (0,), Fraction(1, 2),
        )
    assert str(exc.value) == "tower holds 16 ladder points, below one block of 32"


def test_improve_output_measured_on_twisted_system():
    # the reported distance is the one the next iteration will see
    target, source, res = run_small_improve()
    reread = kantorovich(
        name_distribution(target, 8),
        speedup_name_distribution(res.twisted, res.labels, 8),
    )
    assert reread == res.report.name_distance


def test_improve_replicates_template_on_chain():
    target, source, res = run_small_improve()
    z, g = res.chain[0], res.model.groups[0]
    for t in range(len(res.chain)):
        assert res.labels[z] == res.model.labels[t]
        assert g == res.model.groups[t]
        if t < len(res.chain) - 1:
            z, g = apply_speedup(res.twisted, (z, g))


def test_improve_constant_self_pair_exact_zero():
    tg = trivial()
    c = ExtensionSystem(size=32, labels=(0,) * 32, group=tg, skew=(0,) * 32)
    sp, _ = bootstrap_regular(c, c.labels, 4, Fraction(3, 10), Fraction(2, 5))
    res = improve(
        c, sp, c.labels, 4, Fraction(3, 10), 8, Fraction(3, 10),
        tuple(range(32)), (0,), Fraction(2, 5),
    )
    assert res.report.name_distance == 0
    assert res.report.twist_size == 0
    assert res.report.partition_drift == 0
    assert res.report.good_set_fraction == 1


def test_improve_z2_self_pair():
    g2 = cyclic(2)
    t2 = marker_system(64, 63, group=g2, flips=(32,))
    sp, _ = bootstrap_regular(t2, t2.labels, 4, Fraction(3, 10), Fraction(2, 5))
    res = improve(
        t2, sp, t2.labels, 4, Fraction(3, 10), 8, Fraction(3, 10),
        tuple(range(64)), (0, 1), Fraction(2, 5),
    )
    r = res.report
    assert all(r.conclusions().values())
    assert res.labels.count(2) == 0, "full cover leaves no junk"


def test_improve_z2_distinct_pair():
    g2 = cyclic(2)
    target = marker_system(64, 63, group=g2, flips=(32,))
    source = marker_system(64, 63, group=g2, flips=(20,))
    sp, _ = bootstrap_regular(source, source.labels, 4, Fraction(3, 10), Fraction(2, 5))
    res = improve(
        target, sp, source.labels, 4, Fraction(3, 10), 8, Fraction(3, 10),
        tuple(range(64)), (0, 1), Fraction(2, 5),
    )
    assert all(res.report.conclusions().values())


def test_improve_hypothesis_refusal():
    # a source whose names sit far from the target's is rejected up front
    tg = trivial()
    target = marker_system(48, 47)
    dense = ExtensionSystem(size=48, labels=(0, 1) * 24, group=tg, skew=(0,) * 48)
    sp = PartialSpeedup(dense, tuple(0 if x == 47 else 1 for x in range(48)), 1)
    with pytest.raises((HypothesisDistance, RegularityRejected)):
        improve(
            target, sp, dense.labels, 4, Fraction(1, 20), 8, Fraction(1, 20),
            tuple(range(48)), (0,), Fraction(2, 5),
        )


def test_improve_rejects_irregular_input():
    tg = trivial()
    target = marker_system(48, 47)
    source = marker_system(48, 20)
    # a full cycle has no tower structure: condition 1 refusal
    sp = PartialSpeedup(source, (1,) * 48, 1)
    with pytest.raises(RegularityRejected):
        improve(
            target, sp, source.labels, 4, Fraction(3, 10), 8, Fraction(3, 10),
            tuple(range(48)), (0,), Fraction(2, 5),
        )


def test_improve_validates_group_window():
    target, source, _ = None, None, None
    tg = trivial()
    t = marker_system(48, 47)
    s = marker_system(48, 20)
    sp, _ = bootstrap_regular(s, s.labels, 4, Fraction(3, 10), Fraction(2, 5))
    with pytest.raises(ValidationError):
        improve(
            t, sp, s.labels, 4, Fraction(3, 10), 8, Fraction(3, 10),
            tuple(range(48)), (), Fraction(2, 5),
        )


@pytest.mark.parametrize(
    "a1, a2",
    [
        (tuple(range(48)), ()),
        ((0, 48), (0,)),
        ((-1,), (0,)),
        (tuple(range(48)), (0, 1)),
    ],
    ids=["empty_group_window", "base_point_past_end", "negative_base_point", "not_a_group_element"],
)
def test_improve_checks_rectangle_before_step_one(a1, a2):
    # the input is irregular, so any work before the check would raise
    # RegularityRejected instead
    t = marker_system(48, 47)
    s = marker_system(48, 20)
    sp = PartialSpeedup(s, (1,) * 48, 1)
    with pytest.raises(ValidationError):
        improve(
            t, sp, s.labels, 4, Fraction(3, 10), 8, Fraction(3, 10),
            a1, a2, Fraction(2, 5),
        )


def test_twisted_output_is_the_step_on_the_twisted_extension():
    g = cyclic(4)
    target = marker_system(128, 127, group=g, flips=(0, 26, 51, 77, 102))
    source = marker_system(128, 127, group=g, flips=(18, 55, 65, 92, 111))
    current, _ = bootstrap_regular(source, source.labels, 4, Fraction(3, 10), Fraction(2, 5))
    res = improve(
        target, current, source.labels, 4, Fraction(3, 10), 8, Fraction(3, 10),
        tuple(range(128)), (0,), Fraction(2, 5),
    )
    assert any(res.alpha.values), "an identity twist would not tell the extensions apart"
    assert res.twisted == PartialSpeedup(
        twist(res.speedup.parent, res.alpha), res.speedup.exponent, res.speedup.k_max
    )


def test_improve_takes_any_plan_its_guards_accept(monkeypatch):
    # a hand-built plan: the ladder chain in its own order (rotation 0), with
    # gaps and offsets walked along it
    g2 = cyclic(2)
    target = marker_system(64, 63, group=g2, flips=(32,))
    source = marker_system(64, 63, group=g2, flips=(20,))
    sp, _ = bootstrap_regular(source, source.labels, 4, Fraction(3, 10), Fraction(2, 5))
    corrupt = []

    def identity_plan(current, pbar, blocks, model, length):
        ext = current.parent
        chain = [z for block in blocks for z in block][:length]
        gaps = [(b - a) % ext.size or ext.size for a, b in zip(chain, chain[1:])] + [0]
        offsets = [0]
        for z, k in zip(chain, gaps[:-1]):
            offsets.append((offsets[-1] + cocycle_product(ext, z, k)) % 2)
        for t in corrupt:
            offsets[t] ^= 1
        return tuple(chain), gaps, offsets, 0, 0

    monkeypatch.setattr(improvement, "_plan_chain", identity_plan)
    args = (
        target, sp, source.labels, 4, Fraction(3, 10), 8, Fraction(3, 10),
        tuple(range(64)), (0, 1), Fraction(2, 5),
    )
    res = improve(*args)
    assert res.chain == tuple(range(len(res.chain)))
    assert (res.report.rotation, res.report.rotation_mismatches) == (0, 0)
    z, g = res.chain[0], res.model.groups[0]
    for t in range(len(res.chain) - 1):
        assert (res.labels[z], g) == (res.model.labels[t], res.model.groups[t])
        z, g = apply_speedup(res.twisted, (z, g))
    corrupt.append(5)
    with pytest.raises(Collision) as exc:
        improve(*args)
    assert str(exc.value) == "orbit coordinate 5 does not replicate the template"


def test_report_conclusion_keys_frozen():
    _, _, res = run_small_improve()
    assert sorted(res.report.conclusions()) == [
        "broken_mass",
        "good_set_fraction",
        "name_distance",
        "partition_drift",
        "regular",
        "twist_size",
    ]


@pytest.mark.parametrize(
    "order, size, target_flips, source_flips",
    [
        (2, 64, (32,), (20,)),
        (4, 128, (0, 26, 51, 77, 102), (18, 55, 65, 92, 111)),
        (4, 128, (0, 26, 51, 77, 102), (20, 57, 67, 94, 113)),
    ],
    ids=["z2", "z4", "z4_moved"],
)
def test_rotation_scoring_matches_walked_chains(order, size, target_flips, source_flips):
    # two steps in a row, so the second one scores chains across seams
    # between blocks of a woven tower; in the moved Z/4 pair the best
    # rotations start where the chain offset has order 4, which checks
    # the inverse in q[s+t] * q[s]^-1
    g = cyclic(order)
    target = marker_system(size, size - 1, group=g, flips=target_flips)
    source = marker_system(size, size - 1, group=g, flips=source_flips)
    current, _ = bootstrap_regular(source, source.labels, 4, Fraction(3, 10), Fraction(2, 5))
    pbar = source.labels
    for n, n1 in ((4, 8), (8, 16)):
        res = improve(
            target, current, pbar, n, Fraction(3, 10), n1, Fraction(3, 10),
            tuple(range(size)), (0,), Fraction(2, 5),
        )
        cert = check_regular(current, pbar, n, Fraction(3, 10))
        blocks = oracles.ladder_walked(current, [c[0] for c in cert.columns], cert.height, n)
        starts = [block[0] for block in blocks]
        rotation, mismatches = oracles.rotation_walked(current, pbar, starts, n, res.model)
        assert res.report.rotation == rotation
        assert res.report.rotation_mismatches == mismatches
        assert res.report.ladder_blocks == len(blocks)
        current = res.twisted
        pbar = res.labels


# ---------------------------------------------------------------------------
# results kept on the target and on the speedup


def test_factor_builds_one_model_name_and_measures_the_bootstrap_once(monkeypatch):
    # the iso_z2 benchmark pair and schedule: every step copies the same model name
    g2 = cyclic(2)
    target = marker_system(1024, 1023, group=g2, flips=(0,))
    source = marker_system(1024, 1023, group=g2, flips=(512,))
    n, delta, n1, delta1 = 8, Fraction(1, 10), 32, Fraction(1, 20)
    boot, _ = bootstrap_regular(source, source.labels, n, delta, Fraction(3, 10))
    starts, measured = [], []
    choose_start, measure = improvement._choose_start, improvement._measure_regularity

    def counted_start(*args):
        starts.append(choose_start(*args))
        return starts[-1]

    def counted_measure(speedup, *args, **kwargs):
        measured.append(speedup)
        return measure(speedup, *args, **kwargs)

    monkeypatch.setattr(improvement, "_choose_start", counted_start)
    monkeypatch.setattr(improvement, "_measure_regularity", counted_measure)
    schedule = IterationSchedule(
        epsilon=Fraction(3, 10),
        epsilons=(Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)),
        steps=((n, delta, n1, delta1),),
        rectangles=((tuple(range(1024)), (0, 1)),),
        budget=3,
    )
    res = run_factor(target, source, source.labels, schedule)
    assert len(res.steps) == 3
    assert starts == [481]
    assert [step.model.start for step in res.steps] == [481] * 3
    assert sum(1 for speedup in measured if speedup == boot) == 1


def test_model_names_stay_with_their_target():
    # equal arguments, different skews: each target keeps its own start
    g2 = cyclic(2)
    first = marker_system(48, 47, group=g2, flips=(0,))
    second = marker_system(48, 47, group=g2, flips=(24,))
    for target in (first, second, first):
        model = build_model_name(target, 8, length=32)
        assert model.start == oracles.choose_start_bytes(target, 32, 8)
    assert build_model_name(first, 8, length=32).start == 25
    assert build_model_name(second, 8, length=32).start == 9


def test_a_kept_refusal_comes_back_unchanged(monkeypatch):
    bad = marker_system(64, 63, group=cyclic(2), flips=(0,))
    sp = trimmed(bad)
    first = check_regular(sp, bad.labels, 4, Fraction(3, 10))
    monkeypatch.setattr(improvement, "_measure_regularity", None)
    again = check_regular(sp, list(bad.labels), 4, Fraction(3, 10))
    assert isinstance(again, RegularityRefusal)
    assert (again.condition, again.detail) == (first.condition, first.detail)
    assert again.detail == "ladder distribution at base 0 is 1/2 away"
    with pytest.raises(RegularityRejected) as exc:
        improve(
            bad, sp, bad.labels, 4, Fraction(3, 10), 8, Fraction(3, 10),
            tuple(range(64)), (0,), Fraction(2, 5),
        )
    assert str(exc.value) == "input speedup failed condition 4: " + first.detail


def test_model_names_compare_without_their_reference():
    space = DiscreteSpace()
    one = EmpiricalDistribution.from_counts(space, {0: 1})
    two = EmpiricalDistribution.from_counts(space, {0: 1, 1: 2})
    a = ModelName((0, 1), (0, 0), 2, 0, Fraction(0), Fraction(1, 4), one)
    b = ModelName((0, 1), (0, 0), 2, 0, Fraction(0), Fraction(1, 4), reference=two)
    assert a.reference != b.reference
    assert a == b and hash(a) == hash(b)
    assert a != replace(a, start=1)
