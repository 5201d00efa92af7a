"""Iterated constructions on top of single improvement steps.

The factor loop bootstraps a regular speedup, improves it under a
tolerance schedule while twisting the carrying extension between
steps, and finally extends the last partial map to a total one.  The
isomorphism loop reads the factor loop's steps, tracking generators and
copying a partition at each.  Everything returns logs whose
quantities are recomputed from outputs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Sequence

from .errors import (
    GeneratorCheckFailed,
    NoGoodOrbit,
    TowerInfeasible,
    ValidationError,
    open_unit,
)
from .groups import trivial
from .improvement import ImprovementReport, ImproveResult, bootstrap_regular, improve
from .names import Walk, primitive_period
from .records import Record, replace
from .systems import (
    ErgodicityWitness,
    ExtensionSystem,
    PartialSpeedup,
    Twist,
    name_starts,
)


# ---------------------------------------------------------------------------
# schedules and logs


class IterationSchedule(Record):
    """Per-iteration tolerances, target rectangles, and the budget.

    steps holds (n, delta, n1, delta1) per iteration; iterations beyond
    the last entry reuse it.  rectangles cycle with the iteration index.
    The strict flag turns on the conservative sufficient conditions
    (epsilon series summing under epsilon/2, delta below half of each
    epsilon, every rectangle recurring); the tuned desk schedules used
    by the experiments do not satisfy them and run with strict off.
    """

    epsilon: Fraction
    epsilons: tuple[Fraction, ...]
    steps: tuple[tuple[int, Fraction, int, Fraction], ...]
    rectangles: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    budget: int
    strict: bool = False

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValidationError("budget must be nonnegative")
        open_unit("epsilon", self.epsilon)
        if not self.epsilons or not self.steps or not self.rectangles:
            raise ValidationError("schedule needs tolerances, steps, and rectangles")
        last = None
        for e in self.epsilons:
            e = open_unit("iteration tolerances", e)
            if last is not None and not e < last:
                raise ValidationError("iteration tolerances must decrease")
            last = e
        for n, d, n1, d1 in self.steps:
            if n < 1 or n1 < n:
                raise ValidationError("block lengths must satisfy 1 <= n <= n1")
            if n1 % n != 0:
                raise ValidationError("n1 must be a multiple of n")
            open_unit("step tolerances", d)
            open_unit("step tolerances", d1)
        if self.strict:
            # eps_for repeats the last tolerance once the budget passes the list
            used = sum(map(Fraction, self.epsilons[: self.budget]), Fraction(0))
            used += max(self.budget - len(self.epsilons), 0) * Fraction(self.epsilons[-1])
            if used >= Fraction(self.epsilon) / 2:
                raise ValidationError("iteration tolerances must sum below epsilon/2")
            # from the last listed step or tolerance on, every iteration reads the same pair
            distinct = max(len(self.steps), len(self.epsilons))
            for k in range(min(self.budget, distinct)):
                _, d, _, _ = self.step_for(k)
                if not Fraction(d) < self.eps_for(k) / 2:
                    raise ValidationError("delta must stay below half the iteration tolerance")
            if self.budget < len(self.rectangles):
                raise ValidationError("budget too small for every rectangle to recur")

    def step_for(self, k: int) -> tuple[int, Fraction, int, Fraction]:
        n, d, n1, d1 = self.steps[min(k, len(self.steps) - 1)]
        return n, Fraction(d), n1, Fraction(d1)

    def eps_for(self, k: int) -> Fraction:
        return Fraction(self.epsilons[min(k, len(self.epsilons) - 1)])

    def rect_for(self, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.rectangles[k % len(self.rectangles)]


class GeneratorRecord(Record):
    stage: int
    window: int
    defect: Fraction
    bound: Fraction
    copy_distance: Fraction


class ConstructionLog(Record):
    reports: tuple[ImprovementReport, ...]
    change_mass: Fraction
    change_bound: Fraction
    witness: ErgodicityWitness
    generator: tuple[GeneratorRecord, ...] = ()
    separation_failure: Fraction | None = None


class FactorResult(Record):
    """The completed speedup, the last labels, the accumulated twist, the
    log, and every improvement step in order."""

    speedup: PartialSpeedup
    labels: tuple[int, ...]
    beta: Twist
    log: ConstructionLog
    steps: tuple[ImproveResult, ...]


# ---------------------------------------------------------------------------
# completion


def complete_speedup(speedup: PartialSpeedup) -> PartialSpeedup:
    """Extend a partial speedup to a total one, touching only open points.

    Points without an exponent are sent, in cyclic order starting from
    the tower top, to the nearest base point that nothing maps to yet;
    for a single full-length chain this reproduces the plain rotation.
    """
    size = speedup.parent.size
    missing = [v for v, k in enumerate(speedup.exponent) if not k]
    if not missing:
        return speedup
    nxt, _ = speedup.step_table
    images = {nxt[x] for x in speedup.domain()}
    unused = set(range(size)) - images
    anchor = min((v for v in missing if v in images), default=missing[0])
    order = sorted(missing, key=lambda v: (v - anchor) % size)
    exponent = list(speedup.exponent)
    k_max = speedup.k_max
    for v in order:
        for step in range(1, size + 1):
            u = (v + step) % size
            if u in unused:
                unused.remove(u)
                exponent[v] = step
                k_max = max(k_max, step)
                break
        else:
            raise ValidationError("no open target left for %d" % v)  # pragma: no cover
    return PartialSpeedup(speedup.parent, tuple(exponent), k_max)


def total_extension_witness(speedup: PartialSpeedup) -> ErgodicityWitness:
    """Single-cycle test for the sped-up extension on the product space.

    Walks the base orbit of 0 once; a total speedup is injective, so the
    walk returns to 0, and the lap is the sum of the orbit's increments.
    A base orbit that misses points splits off the first missed point.
    """
    size = speedup.parent.size
    group = speedup.parent.group
    nxt, inc = speedup.step_table
    x = 0
    orbit = set()
    while x not in orbit:
        if speedup.exponent[x] == 0:
            raise ValidationError("witness needs a total speedup")
        orbit.add(x)
        x = nxt[x]
    lap = sum(map(inc.__getitem__, orbit)) % group.order
    witness = ErgodicityWitness.of_lap(group, lap, len(orbit))
    if len(orbit) == size:
        return witness
    off = min(set(range(size)) - orbit)
    return ErgodicityWitness(False, witness.cycle_length, (off, 0))


# ---------------------------------------------------------------------------
# the factor loop


def run_factor(
    target: ExtensionSystem,
    source: ExtensionSystem,
    pbar0: Sequence[int],
    schedule: IterationSchedule,
) -> FactorResult:
    """Iterate improvement steps, twisting the extension between them.

    Each step's res.twisted, the improved speedup on the twisted
    extension, is the next step's input, and each step verifies its own
    hypothesis against it; the accumulated twist composes newest-first.
    The returned speedup is the last partial map extended to a total
    one, the steps are returned in order, and the log's change
    quantities are recomputed directly.
    """
    n0, d0, _, _ = schedule.step_for(0)
    current, _ = bootstrap_regular(source, pbar0, n0, d0, schedule.epsilon)
    pbar = tuple(pbar0)
    beta = Twist.identity(source.size)
    steps: list[ImproveResult] = []
    fold = Fraction(sum(1 for k in current.exponent if k != 1), source.size)
    for k in range(schedule.budget):
        n, d, n1, d1 = schedule.step_for(k)
        a1, a2 = schedule.rect_for(k)
        res = improve(
            target, current, pbar, n, d, n1, d1, a1, a2,
            schedule.eps_for(k), strict=schedule.strict,
        )
        fold += Fraction(
            sum(1 for x in range(source.size) if res.speedup.exponent[x] != current.exponent[x]),
            source.size,
        )
        current = res.twisted
        pbar = res.labels
        beta = Twist.compose(res.alpha, beta, source.group)
        steps.append(res)
    completed = complete_speedup(current)
    change = Fraction(
        sum(1 for x in range(source.size) if completed.exponent[x] != 1), source.size
    )
    log = ConstructionLog(
        reports=tuple(res.report for res in steps),
        change_mass=change,
        change_bound=fold,
        witness=total_extension_witness(completed),
    )
    return FactorResult(completed, pbar, beta, log, tuple(steps))


# ---------------------------------------------------------------------------
# partition copying


def verify_factor_map(
    big: PartialSpeedup, target: ExtensionSystem, chain: Sequence[int], start: int
) -> None:
    """Check that the chain, read from the target's point start, matches its
    dynamics and skewing exactly: a partial base factor map onto a segment."""
    nxt, inc = big.step_table
    for t, z in enumerate(chain[:-1]):
        if not big.exponent[z] or nxt[z] != chain[t + 1]:
            raise ValidationError("chain breaks at position %d" % t)
        x = (start + t) % target.size
        if inc[z] != target.skew[x]:
            raise ValidationError("skewing mismatch at position %d" % t)


def copy_partition(
    big: PartialSpeedup,
    pbar: Sequence[int],
    target: ExtensionSystem,
    qbar: Sequence[int],
    chain: Sequence[int],
    start: int,
    n: int,
) -> tuple[tuple[int, ...], Fraction]:
    """Copy a partition of the big base down through the chain's factor map.

    Each small point takes the atom of its first chain preimage;
    points without preimages take the largest atom.  Returns the copied
    partition with the measured joint name distance.
    """
    if n > target.size:
        raise TowerInfeasible("block length %d exceeds the small cycle" % n)
    verify_factor_map(big, target, chain, start)
    counts = Counter(qbar)
    default = max(counts, key=lambda q: (counts[q], -q))
    small = [default] * target.size
    seen: set[int] = set()
    for t, z in enumerate(chain):
        x = (start + t) % target.size
        if x not in seen:
            seen.add(x)
            small[x] = qbar[z]
    joint_small = target.walk(tuple(zip(target.labels, small)))
    joint_big = big.walk(tuple(zip(pbar, qbar)))
    names = joint_small.joint_names(joint_big, n, range(target.size), name_starts(big, n))
    return tuple(small), names[0].distance(names[1])


# ---------------------------------------------------------------------------
# the isomorphism loop


def _cylinder_sets(labels: Sequence[int], size: int, count: int) -> list[tuple[int, ...]]:
    """First `count` cylinder sets of the rotation names, lengths increasing."""
    out: list[tuple[int, ...]] = []
    length = 1
    while len(out) < count and length <= size:
        words: dict[tuple[int, ...], list[int]] = {}
        for x in range(size):
            w = tuple(labels[(x + i) % size] for i in range(length))
            words.setdefault(w, []).append(x)
        for w in sorted(words):
            out.append(tuple(words[w]))
            if len(out) == count:
                break
        length += 1
    return out


def _power(perm: Sequence[int], m: int) -> list[int]:
    """The m-th power of a permutation of range(len(perm)), by squaring."""
    out, base = list(range(len(perm))), list(perm)
    while m:
        if m & 1:
            out = [base[x] for x in out]
        base = [base[x] for x in base]
        m >>= 1
    return out


def _majority_defect_schedule(
    speedup: PartialSpeedup,
    labels: Sequence[int],
    target_set: Sequence[int],
    bound: Fraction,
) -> tuple[int, Fraction]:
    """Smallest window with majority-vote defect within the bound.

    Classes are the (2m+1)-name atoms under the total speedup, the
    label word read from m steps back; the defect of a class is
    whichever of its inside/outside parts is smaller.  Classes only
    refine as m grows, so the defect never rises: the search doubles m
    until the bound holds, then bisects.  It stops at m = size.
    """
    size = speedup.parent.size
    inside = set(target_set)
    forward, _ = speedup.step_table
    walk = Walk(labels, forward, (0,) * size, trivial())

    @cache
    def defect(m: int) -> Fraction:
        # the total map is a permutation, so the word from every y, centred
        # m steps ahead of y, gives every point its class once
        ids = walk.classes(2 * m + 1)
        centre = _power(forward, m)
        ins = Counter(ids[y] for y in range(size) if centre[y] in inside)
        return Fraction(sum(min(ins[c], tot - ins[c]) for c, tot in Counter(ids).items()), size)

    lo, hi = -1, 0  # the bound fails at lo and holds at hi, unless hi = size
    while hi < size and not defect(hi) <= bound:
        lo, hi = hi, min(2 * hi or 1, size)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if defect(mid) <= bound else (mid, hi)
    return hi, defect(hi)


def _separation_failure(speedup: PartialSpeedup, labels: Sequence[int]) -> Fraction:
    """Share of base points whose full-length label name another point shares."""
    size = speedup.parent.size
    walk = Walk(labels, speedup.step_table[0], (0,) * size, trivial())
    clashes = sum(c for c in Counter(walk.classes(size)).values() if c > 1)
    return Fraction(clashes, size)


def run_isomorphism(
    target: ExtensionSystem,
    source: ExtensionSystem,
    pbar0: Sequence[int],
    schedule: IterationSchedule,
    *,
    copy_zeta: Fraction = Fraction(1, 10),
) -> FactorResult:
    """The factor loop, then generator tracking and partition copying per step.

    Requires the target labels to separate points.  At each of the
    loop's steps the current base sets from a fixed cylinder enumeration
    are approximated by name windows (majority vote) and one partition
    is copied down through the step's chain; the log records the
    window sizes, defects, and copy distances, plus the final fraction
    of base points not separated by full-length names.  copy_zeta is
    range-checked and otherwise unused; the copy distances are recorded,
    not compared against it.
    """
    copy_zeta = open_unit("copy_zeta", copy_zeta)
    # full-length rotation names separate points exactly when the label
    # word has no rotation period below its length
    period = primitive_period(target.labels)
    if period != target.size:
        raise GeneratorCheckFailed(
            "target labels leave %d points unseparated" % (target.size - period)
        )
    result = run_factor(target, source, pbar0, schedule)
    steps = result.steps
    cylinders = _cylinder_sets(pbar0, source.size, len(steps)) if steps else []
    records = []
    for k, res in enumerate(steps):
        # the last step's completion is the result's speedup
        total = result.speedup if k == len(steps) - 1 else complete_speedup(res.twisted)
        target_set = set(cylinders[k % len(cylinders)])
        bound = 2 * schedule.eps_for(k)
        window, defect = _majority_defect_schedule(total, res.labels, target_set, bound)
        qbar = tuple(1 if x in target_set else 0 for x in range(source.size))
        n = schedule.step_for(k)[0]
        _, dist = copy_partition(
            res.twisted, res.labels, target, qbar, res.chain, res.model.start, n
        )
        records.append(GeneratorRecord(k, window, defect, bound, dist))
    log = replace(
        result.log,
        generator=tuple(records),
        separation_failure=_separation_failure(result.speedup, result.labels),
    )
    return replace(result, log=log)


# ---------------------------------------------------------------------------
# orbit seeding


def seed_from_orbit(
    target: ExtensionSystem,
    source: ExtensionSystem,
    n_len: int,
    zeta: Fraction,
    *,
    n: int,
) -> tuple[tuple[int, ...], Twist]:
    """Copy one good target orbit segment onto the source's initial tower.

    Searches target start points for a segment whose n-name statistics
    sit within zeta of the target's (after averaging over right group
    translates), then defines labels and a twist level by level so the
    copied tower reads exactly like the orbit segment.
    """
    zeta = open_unit("zeta", zeta)
    if n < 1:
        raise ValidationError("block length must be positive")
    if n_len < n or n_len > source.size:
        raise ValidationError("segment length must satisfy n <= n_len <= source size")
    group = target.group
    if group.order != source.group.order:
        raise ValidationError("seeding needs matching groups")
    walk = target.walk()
    ids = walk.classes(n)
    reference = walk.names(n, range(target.size), ids)
    windows = n_len - n + 1
    for x in range(target.size):
        # segment windows are target windows at x + t, right-translated
        segment = walk.names(n, [(x + t) % target.size for t in range(windows)], ids)
        if segment.distance(reference) < zeta:
            break
    else:
        raise NoGoodOrbit("no segment of length %d sits within %s" % (n_len, zeta))
    junk = max(target.alphabet()) + 1
    labels = [junk] * source.size
    alpha = [0] * source.size
    for i, (label, g) in enumerate(walk.name(x, n_len)):
        # level i of the source tower carries the offset source.prefix[i]
        labels[i] = label
        alpha[i] = (g - source.prefix[i]) % group.order
    return tuple(labels), Twist(tuple(alpha))
