"""The integer name kernel against the direct paths it replaced.

Every property compares the library with the reference implementation
in oracles.py on small systems over Z/1 to Z/6, Z/6 once with a metric
row that is not the circle's, and asserts exact equality.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewlab import (
    ExtensionSystem,
    NameWorkTooLarge,
    NoGoodOrbit,
    OutOfDomain,
    PartialSpeedup,
    RegularityCertificate,
    ValidationError,
    apply_speedup,
    build_model_name,
    check_regular,
    cocycle_product,
    cyclic,
    ladder,
    name_distribution,
    power_domain,
    seed_from_orbit,
    speedup_name_distribution,
    tower,
)
from skewlab.driver import _majority_defect_schedule, _separation_failure
from skewlab.improvement import _best_rotation, _choose_start, _good_rungs
from skewlab import names
from skewlab.names import primitive_period

import oracles


HALF = Fraction(1, 2)
GROUPS = [cyclic(m) for m in range(1, 7)] + [cyclic(6, [0, HALF, 1, 1, 1, HALF])]


@st.composite
def systems(draw, min_size=1, max_size=10):
    group = draw(st.sampled_from(GROUPS))
    size = draw(st.integers(min_size, max_size))
    alphabet = draw(st.integers(1, 3))
    labels = tuple(draw(st.lists(st.integers(0, alphabet - 1), min_size=size, max_size=size)))
    skew = tuple(
        draw(st.lists(st.integers(0, group.order - 1), min_size=size, max_size=size))
    )
    return ExtensionSystem(size, labels, group, skew)


@st.composite
def speedups(draw, total=False):
    """A partial speedup: a random injective base map on a random domain."""
    ext = draw(systems())
    n = ext.size
    image = draw(st.permutations(range(n)))
    if total:
        domain = range(n)
    else:
        domain = draw(st.sets(st.integers(0, n - 1)))
    exponent = [0] * n
    for x in domain:
        exponent[x] = (image[x] - x) % n or n
    return PartialSpeedup(ext, tuple(exponent), max(exponent + [1]))


def column_speedup(ext, columns, height):
    """columns interleaved columns of the given height; the top level is open."""
    exponent = [0] * ext.size
    for x in range(columns * (height - 1)):
        exponent[x] = columns
    return PartialSpeedup(ext, tuple(exponent), columns)


# ---------------------------------------------------------------------------
# cocycle products


@given(systems(), st.data())
def test_cocycle_product_matches_loop(ext, data):
    n = ext.size
    x = data.draw(st.integers(0, 3 * n))
    for k in sorted({1, n, n + 1, 3 * n + 2, data.draw(st.integers(1, 4 * n))}):
        assert cocycle_product(ext, x, k) == oracles.cocycle_loop(ext, x, k)


def test_cocycle_product_reads_many_laps_at_once():
    # 10**8 laps on a 7-point Z/4 system: the lap power is read, not built lap by lap
    ext = ExtensionSystem(7, (0,) * 7, cyclic(4), (1, 0, 3, 2, 0, 1, 0))
    lap = cocycle_product(ext, 0, 7)
    for x in range(7):
        for r in range(1, 8):
            start = time.perf_counter()
            far = cocycle_product(ext, x, 7 * 10**8 + r)
            assert time.perf_counter() - start < 0.1
            assert far == (cocycle_product(ext, x, r) + 10**8 * lap) % 4


def test_cocycle_product_rejects_nonpositive_steps():
    ext = ExtensionSystem(3, (0, 0, 1), cyclic(2), (1, 0, 0))
    for k in (0, -1):
        with pytest.raises(ValidationError):
            cocycle_product(ext, 1, k)


# ---------------------------------------------------------------------------
# power domains


@given(st.one_of(speedups(), speedups(total=True)), st.data())
def test_power_domain_matches_walk(sp, data):
    # total speedups are unions of cycles; m runs past N, where only
    # the cycles inside the domain remain
    n = sp.parent.size
    for m in sorted({0, 1, n, n + 1, data.draw(st.integers(0, 3 * n + 2))}):
        assert power_domain(sp, m) == oracles.power_domain_walked(sp, m)


# ---------------------------------------------------------------------------
# rotation scoring


@st.composite
def rotation_problems(draw):
    """A chain track, its q table and a template; periodic tracks make ties."""
    group = draw(st.sampled_from(GROUPS))
    total = draw(st.integers(1, 12))
    length = draw(st.integers(1, total))
    stride = draw(st.integers(1, total))
    period = draw(st.integers(1, total))
    # labels 3 and 4 never occur in the template: junk
    word = draw(st.lists(st.integers(0, 4), min_size=period, max_size=period))
    track = (word * total)[:total]
    elements = st.integers(0, group.order - 1)
    q = draw(st.lists(elements, min_size=total + length - 1, max_size=total + length - 1))
    if draw(st.booleans()):
        q = [q[t % period] for t in range(total + length - 1)]
    labels = draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
    groups = draw(st.lists(elements, min_size=length, max_size=length))
    return group, track, q, labels, groups, stride


@given(rotation_problems())
def test_best_rotation_matches_direct_scoring(problem):
    assert _best_rotation(*problem) == oracles.rotation_direct(*problem)


# ---------------------------------------------------------------------------
# name distributions


@given(systems(), st.integers(1, 6), st.data())
def test_name_distribution_matches_per_fibre(ext, n, data):
    assert name_distribution(ext, n).weights == oracles.name_distribution_per_fibre(ext, n).weights
    other = tuple(data.draw(st.lists(st.integers(0, 3), min_size=ext.size, max_size=ext.size)))
    assert (
        name_distribution(ext, n, other).weights
        == oracles.name_distribution_per_fibre(ext, n, other).weights
    )


@given(speedups(), st.integers(1, 5), st.data())
def test_speedup_name_distribution_matches_per_fibre(sp, n, data):
    labels = sp.parent.labels
    starts = power_domain(sp, n)
    if not starts:
        with pytest.raises(ValidationError):
            speedup_name_distribution(sp, labels, n)
        return
    assert (
        speedup_name_distribution(sp, labels, n).weights
        == oracles.speedup_name_distribution_per_fibre(sp, labels, n, starts).weights
    )
    some = sorted(data.draw(st.sets(st.sampled_from(starts), min_size=1)))
    assert (
        sp.walk(labels).distribution(n, some).weights
        == oracles.speedup_name_distribution_per_fibre(sp, labels, n, some).weights
    )


# ---------------------------------------------------------------------------
# model names


@given(systems(), st.integers(1, 4), st.integers(1, 12))
def test_choose_start_matches_byte_codec(target, n1, rungs):
    # up to 48 points, so templates run several laps past a base of <= 10
    length = n1 * rungs
    ids = target.walk().classes(n1)
    assert _choose_start(target, ids, length, n1) == oracles.choose_start_bytes(target, length, n1)


@st.composite
def ergodic_cyclic_systems(draw):
    """Cyclic-group systems whose skew sums to the generator 1."""
    ext = draw(systems(min_size=2))
    m = ext.group.order
    skew = list(ext.skew)
    skew[0] = (1 - sum(skew[1:])) % m
    return ExtensionSystem(ext.size, ext.labels, ext.group, tuple(skew))


@given(ergodic_cyclic_systems(), st.integers(1, 2), st.integers(1, 2), st.integers(1, 3))
def test_model_name_matches_per_fibre(target, n, per, rungs):
    n1 = n * per
    length = n1 * rungs
    model = build_model_name(target, n, n1, Fraction(1, 2), length=length)
    assert model.start == oracles.choose_start_bytes(target, length, n1)
    assert (model.window_distance, model.block_distance) == oracles.model_distances_per_fibre(
        target, model
    )


def test_name_work_limit_is_the_last_size_built(monkeypatch):
    # 12 points over Z/3: the classes of the 5-names, times 3 fibres, times 5
    ext = ExtensionSystem(12, (0, 1, 1) * 4, cyclic(3), (1,) + (0,) * 11)
    work = len(set(ext.walk().classes(5))) * 3 * 5
    monkeypatch.setattr(names, "NAME_WORK_LIMIT", work)
    assert name_distribution(ext, 5) == oracles.name_distribution_per_fibre(ext, 5)
    monkeypatch.setattr(names, "NAME_WORK_LIMIT", work - 1)
    with pytest.raises(NameWorkTooLarge) as err:
        name_distribution(ext, 5)
    assert str(err.value) == "%d name entries exceed the limit %d" % (work, work - 1)


def test_model_name_past_the_byte_codec():
    # 129 labels times |Z/2| = 258 coordinates, more than a byte holds
    size = 129
    target = ExtensionSystem(
        size, tuple(range(size)), cyclic(2), tuple(1 if x == 0 else 0 for x in range(size))
    )
    model = build_model_name(target, 1, 2, Fraction(1, 2), length=8)
    assert len(model.labels) == 8
    assert model.labels == tuple((model.start + t) % size for t in range(8))


# ---------------------------------------------------------------------------
# regularity condition 4


@given(st.integers(1, 2), st.integers(1, 3), st.integers(2, 3), st.data())
def test_ladder_distance_is_the_same_on_every_fibre(columns, n, rungs, data):
    # two rungs at least, so that some n-name fits below the open top level
    height = n * rungs
    ext = data.draw(systems(min_size=columns * height, max_size=columns * height + 2))
    sp = column_speedup(ext, columns, height)
    per_base = oracles.ladder_distances_per_fibre(sp, ext.labels, n)
    assert per_base is not None
    for per_h in per_base:
        assert len(set(per_h)) == 1
    delta = data.draw(st.fractions(Fraction(1, 20), Fraction(19, 20)))
    res = check_regular(sp, ext.labels, n, delta)
    if isinstance(res, RegularityCertificate):
        assert res.ladder_distance == max(per_h[0] for per_h in per_base)
    elif res.condition == "condition 4":
        assert res.measured == next(per_h[0] for per_h in per_base if not per_h[0] < delta)


# ---------------------------------------------------------------------------
# separation and the good set


@given(speedups(total=True), st.data())
def test_separation_failure_matches_pairwise(sp, data):
    n = sp.size
    labels = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    assert _separation_failure(sp, labels) == oracles.separation_failure_pairwise(sp, labels)


@given(speedups(total=True), st.data())
def test_majority_defect_matches_centred_words(sp, data):
    # bound 0 keeps the search going until the words separate the set,
    # so windows past m = 0 are reached
    n = sp.size
    labels = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    target_set = data.draw(st.sets(st.integers(0, n - 1)))
    bound = data.draw(st.one_of(st.just(Fraction(0)), st.fractions(Fraction(0), Fraction(1, 2))))
    assert _majority_defect_schedule(sp, labels, target_set, bound) == (
        oracles.majority_defect_centred(sp, labels, target_set, bound)
    )


def marked_rotation(size, marks):
    """The unit speedup of a trivial-group cycle labelled 1 at the marks."""
    labels = tuple(1 if x in marks else 0 for x in range(size))
    return PartialSpeedup(ExtensionSystem(size, labels, cyclic(1), (0,) * size), (1,) * size, 1)


@pytest.mark.parametrize(
    "marks, expected",
    [
        # point 64 is 64 steps from the only mark: its word is all zeros
        # until every other point's window holds the mark, at m = 63
        ((0,), (63, Fraction(0))),
        # marks 64 apart never separate 0 from 64, so the search runs
        # past size/2 to its stop at m = size
        ((0, 64), (128, Fraction(1, 128))),
    ],
)
def test_majority_defect_search_on_128_points(marks, expected):
    sp = marked_rotation(128, marks)
    labels, target_set = sp.parent.labels, {64}
    found = _majority_defect_schedule(sp, labels, target_set, Fraction(0))
    assert found == expected
    assert found == oracles.majority_defect_centred(sp, labels, target_set, Fraction(0))


def test_majority_defect_search_stays_logarithmic_in_the_window():
    # the window grows to 2047 here; walking m upward one class pass at a
    # time took about a minute at this size
    sp = marked_rotation(4096, (0,))
    start = time.perf_counter()
    found = _majority_defect_schedule(sp, sp.parent.labels, {2048}, Fraction(0))
    assert time.perf_counter() - start < 5.0
    assert found == (2047, Fraction(0))


@given(st.lists(st.integers(0, 2), min_size=1, max_size=16))
def test_primitive_period_counts_rotation_names(labels):
    assert len(labels) - primitive_period(labels) == oracles.unseparated_points(labels)


@given(st.sampled_from([12, 24, 36, 60, 72]), st.data())
def test_primitive_period_on_lengths_with_many_divisors(n, data):
    # a block of a divisor's length repeated: the period divides that length
    block = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    word = data.draw(st.lists(st.integers(0, 1), min_size=block, max_size=block)) * (n // block)
    assert n - primitive_period(word) == oracles.unseparated_points(word)
    assert block % primitive_period(word) == 0


@given(speedups(total=True), st.integers(1, 5), st.integers(1, 4), st.data())
def test_good_rungs_matches_per_fibre(sp, n1, rungs, data):
    # one walk of rungs * n1 points from (x, e); a rung starts every n1
    # points, and past the first its track offset is no longer e, which
    # only permutes the fibres the oracle walks from
    n, m = sp.size, sp.parent.group.order
    x = data.draw(st.integers(0, n - 1))
    track = sp.walk(range(n)).name(x, rungs * n1)
    a1 = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    a2 = frozenset(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    bound = data.draw(st.fractions(Fraction(-1, 2), Fraction(1)))
    starts = [z for z, _ in track[::n1]]
    assert _good_rungs(sp.parent.group, track, n1, a1, a2, bound) == (
        oracles.good_rungs_per_fibre(sp, starts, n1, a1, a2, bound)
    )


# ---------------------------------------------------------------------------
# orbit seeding


@given(systems(min_size=2, max_size=6), st.data())
def test_seed_from_orbit_matches_per_fibre(target, data):
    n = data.draw(st.integers(1, min(3, target.size)))
    n_len = data.draw(st.integers(n, target.size))
    zeta = data.draw(st.fractions(Fraction(1, 20), Fraction(19, 20)))
    skew = tuple(
        data.draw(st.lists(st.integers(0, target.group.order - 1), min_size=target.size, max_size=target.size))
    )
    source = ExtensionSystem(target.size, target.labels, target.group, skew)
    expected = oracles.seed_per_fibre(target, source, n_len, zeta, n)
    if expected is None:
        with pytest.raises(NoGoodOrbit):
            seed_from_orbit(target, source, n_len, zeta, n=n)
        return
    labels, alpha = seed_from_orbit(target, source, n_len, zeta, n=n)
    assert (labels, alpha.values) == expected


# ---------------------------------------------------------------------------
# regularity condition 3


@st.composite
def towers(draw):
    columns = draw(st.integers(1, 3))
    height = draw(st.integers(2, 4))
    ext = draw(systems(min_size=columns * height, max_size=columns * height + 2))
    return column_speedup(ext, columns, height)


@given(st.one_of(speedups(), towers()))
def test_tower_names_match_per_fibre(sp):
    labels = sp.parent.labels
    counts = oracles.tower_name_counts_per_fibre(sp, labels)
    res = check_regular(sp, labels, 1, Fraction(1, 2))
    if counts is None:
        assert res.condition == "condition 1"
        return
    assert len(set(counts)) == 1, "right translation keeps the count on every fibre"
    failed = [(h, c) for h, c in enumerate(counts) if c != 1]
    if failed:
        assert (res.condition, res.detail) == (
            "condition 3", "base fibers at %d carry %d distinct tower names" % failed[0]
        )
    else:
        assert getattr(res, "condition", None) != "condition 3"


# ---------------------------------------------------------------------------
# the step table and the tower


@given(st.one_of(speedups(), speedups(total=True), towers()))
def test_step_table_tower_and_ladders_match_walks(sp):
    ext = sp.parent
    nxt, inc = sp.step_table
    for x, k in enumerate(sp.exponent):
        # off the domain a point stays put with the identity, the empty product
        w = oracles.cocycle_loop(ext, x, k)
        assert (nxt[x], inc[x]) == ((x + k) % ext.size, w)
        for g in ext.group.elements():
            if k:
                assert apply_speedup(sp, (x, g)) == (nxt[x], ext.group.mul[w][g])
            else:
                with pytest.raises(OutOfDomain):
                    apply_speedup(sp, (x, g))
    columns, why = tower(sp)
    assert (columns, why) == oracles.tower_walked(sp)
    if why is None:
        bases, height = [c[0] for c in columns], len(columns[0])
        for n in (d for d in range(1, height + 1) if height % d == 0):
            assert ladder(columns, n) == oracles.ladder_walked(sp, bases, height, n)
